"""Rank-order neighborhood agreement between two configurations of the same items.

The central quantity is, for every item ``i`` and neighborhood size ``k``, the
overlap ``a_ik`` between the first ``k`` neighbors of ``i`` in configuration A
and in configuration B.  Averaging the overlap fraction over items gives the
agreement rate ``AR_k``; subtracting the overlap a random k-subset would
achieve (``k / (n - 1)``, the hypergeometric expectation) gives the adjusted
rate.  Summing adjusted rates over all ``k`` and dividing by the sum a perfect
recovery would achieve yields a single score in ``(-inf, 1]``: the fraction of
the maximum possible area above the random baseline that the comparison
attains.  A weight function over ``k`` restricts or tapers the neighborhood
sizes that count.

Everything here consumes :class:`~drqa.geometry.RankStructure` values, so the
metrics apply to any distance source, coordinates or not.

This module owns the single pass that every overlap count comes from.
:func:`_count_overlaps` walks the blocks of rows once, asks each compared
source for its rank rows of the block, and feeds every compared pair's
:class:`_OverlapSums`, which adds the block's integer counts from one
kernel, :func:`_overlap_counts`, into one vector per pair and keeps
the per-item counts, as ``int32``, only for the columns asked for; a
per-item rate is one count divided by its k.  :func:`agreement_profile`
runs the pass over row slices of two stored rank structures; the
pipeline's agree stage runs it over rank blocks as they are computed or
read from its cache, and never holds an ``n x n`` array.  The pass runs
on the pool of the run that the calling thread works for
(:func:`~drqa._workers._pool`), and outside a run on the calling thread:
the sources of a block are ranked side by side, then the pairs are
counted side by side, and the pool's workers share one block budget
(:func:`~drqa.geometry._row_blocks`).  The counts are integers and each
pair's totals belong to that pair alone, so every block size and worker
count gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._workers import _pool
from .geometry import RankStructure, _readonly, _row_blocks

#: Pair codes counted at a time by :func:`co_ranking` (16 KB as ``int64``).
_CODE_CELLS = 1 << 11


@dataclass(frozen=True, eq=False)
class AgreementProfile:
    """Agreement rates for every neighborhood size ``k = 1 .. n-1``.

    Attributes
    ----------
    ar : ndarray of shape (n - 1,)
        ``ar[k - 1]`` is ``AR_k``, the mean over items of ``a_ik / k``.
        ``AR_{n-1}`` is always 1 because the full neighbor sets coincide.
    per_item : ndarray of shape (n, n - 1), optional
        Unadjusted per-item rates ``a_ik / k``; ``None`` unless requested.
    """

    ar: np.ndarray
    per_item: np.ndarray | None = None

    def __post_init__(self):
        ar = np.asarray(self.ar, dtype=float)
        if ar.ndim != 1:
            raise ValueError(f"ar must be a vector, got shape {ar.shape}")
        if ar.size < 1:
            raise ValueError("need at least 2 items")
        n = ar.size + 1
        if ar.min() < -1e-12 or ar.max() > 1 + 1e-12:
            raise ValueError("agreement rates must lie in [0, 1]")
        if abs(ar[-1] - 1.0) > 1e-12:
            raise ValueError("AR at k = n-1 must be 1")
        object.__setattr__(self, "ar", _readonly(ar, float))
        if self.per_item is not None:
            pi = np.asarray(self.per_item, dtype=float)
            if pi.shape != (n, n - 1):
                raise ValueError(f"per_item must have shape ({n}, {n - 1})")
            if np.abs(pi.mean(axis=0) - ar).max() > 1e-9:
                raise ValueError("per_item means are inconsistent with ar")
            object.__setattr__(self, "per_item", _readonly(pi, float))

    @property
    def n(self) -> int:
        """Item count of the compared configurations."""
        return self.ar.shape[0] + 1

    @property
    def ar_adjusted(self) -> np.ndarray:
        """``AR_k - k / (n - 1)``, the rate in excess of random overlap."""
        k = np.arange(1, self.n)
        return self.ar - k / (self.n - 1)


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Non-negative weights over neighborhood sizes ``k = 1 .. n-1``.

    ``values[k - 1]`` is ``f(k)``.  At least one weight must be positive.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("weight table must be a non-empty vector")
        if not np.isfinite(v).all() or v.min() < 0:
            raise ValueError("weights must be finite and non-negative")
        if v.max() <= 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "values", _readonly(v, float))

    @property
    def n(self) -> int:
        return self.values.shape[0] + 1

    @classmethod
    def uniform(cls, n: int) -> "WeightFunction":
        """``f(k) = 1`` everywhere; recovers the unweighted aggregate."""
        return cls(np.ones(n - 1))

    @classmethod
    def indicator(cls, n: int, k_lo: int, k_hi: int) -> "WeightFunction":
        """``f(k) = 1`` on ``k_lo <= k <= k_hi`` and 0 elsewhere."""
        if not 1 <= k_lo <= k_hi <= n - 1:
            raise ValueError(f"need 1 <= k_lo <= k_hi <= {n - 1}, got [{k_lo}, {k_hi}]")
        v = np.zeros(n - 1)
        v[k_lo - 1 : k_hi] = 1.0
        return cls(v)

    @classmethod
    def linear_taper(cls, n: int) -> "WeightFunction":
        """Full weight on local neighborhoods, linear fade, zero tail.

        ``f(k) = 1`` for ``k < floor((n-1)/3)``, falls linearly via
        ``1 - (k - n/3) / (n/3)`` up to ``k < floor(2(n-1)/3)``, and is 0 from
        there on.  Values are clamped into ``[0, 1]``; for ``n <= 3`` every
        weight would be zero, which is rejected.
        """
        k = np.arange(1, n, dtype=float)
        lo = math.floor((n - 1) / 3)
        hi = math.floor(2 * (n - 1) / 3)
        v = np.zeros(n - 1)
        v[k < lo] = 1.0
        mid = (k >= lo) & (k < hi)
        v[mid] = 1.0 - (k[mid] - n / 3.0) / (n / 3.0)
        return cls(np.clip(v, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class CoRankingMatrix:
    """Joint rank histogram of two configurations.

    ``omega[r - 1, s - 1]`` counts the ordered item pairs ``(i, j)`` whose
    neighbor rank is ``r`` in configuration A and ``s`` in configuration B.
    Every row and every column sums to ``n``, and the sum of the leading
    ``k x k`` block equals ``k * n * AR_k``.
    """

    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ValueError(f"omega must be square, got shape {om.shape}")
        if om.shape[0] < 1:
            raise ValueError("need at least 2 items")
        n = om.shape[0] + 1
        if (om < 0).any():
            raise ValueError("counts must be non-negative")
        if not (om.sum(axis=0) == n).all() or not (om.sum(axis=1) == n).all():
            raise ValueError("every row and column must sum to n")
        object.__setattr__(self, "omega", _readonly(om, np.int64))

    @classmethod
    def _trusted(cls, omega: np.ndarray) -> "CoRankingMatrix":
        """Adopt an ``int64`` histogram built here, without a copy or a
        check; the array is made read-only in place."""
        matrix = object.__new__(cls)
        omega.setflags(write=False)
        object.__setattr__(matrix, "omega", omega)
        return matrix

    @property
    def n(self) -> int:
        return self.omega.shape[0] + 1


@dataclass(frozen=True)
class RankMovementTally:
    """Counts of rank movements relative to a neighborhood boundary ``k``.

    Over all ordered pairs ``(i, j)`` with A-rank ``a`` and B-rank ``b``:

    - hard intrusion:  ``b <= k < a``  (j entered the k-neighborhood)
    - soft intrusion:  ``b < a <= k``  (j moved up within it)
    - hard extrusion:  ``a <= k < b``  (j left it)
    - soft extrusion:  ``a < b <= k``  (j moved down within it)
    - unchanged:       ``a = b <= k``
    - outside:         ``a > k`` and ``b > k``

    The six classes partition the ``n * (n - 1)`` ordered pairs.
    """

    k: int
    n: int
    hard_intrusions: int
    soft_intrusions: int
    hard_extrusions: int
    soft_extrusions: int
    unchanged: int
    outside: int

    def __post_init__(self):
        total = (self.hard_intrusions + self.soft_intrusions + self.hard_extrusions
                 + self.soft_extrusions + self.unchanged + self.outside)
        if total != self.n * (self.n - 1):
            raise ValueError("movement classes must partition all ordered pairs")
        if self.hard_intrusions != self.hard_extrusions:
            raise ValueError("hard intrusions and extrusions must balance")


def _check_pair(rank_a: RankStructure, rank_b: RankStructure) -> int:
    if rank_a.n != rank_b.n:
        raise ValueError(f"item counts differ: {rank_a.n} vs {rank_b.n}")
    return rank_a.n


def _overlap_counts(rows_a: np.ndarray, rows_b: np.ndarray,
                    hi: int = 0) -> tuple:
    """Overlaps ``a_ik`` for one block of items, from their rank rows.

    ``rows_a`` and ``rows_b`` hold the ranks of the same items under A and
    B.  Returns ``(sums, head)``: the ``int64`` vector ``sums[k - 1]``, the
    sum over the block's items of ``a_ik`` for ``k = 1 .. n - 1``, and the
    ``int64`` array ``head`` of shape ``(rows, hi)`` whose ``[i, k - 1]``
    entry is ``a_ik`` for ``k <= hi`` (None when ``hi`` is 0).

    Item ``j`` is in both k-neighborhoods exactly when
    ``max(rank_a[i, j], rank_b[i, j]) <= k``, so a cumulative histogram of
    that maximum yields every ``a_ik`` in one pass instead of comparing
    neighbor sets k by k.  The sums need only one histogram over the whole
    block, and a narrow head only the cells whose maximum is at most
    ``hi``.  Once ``hi`` reaches ``n / 4`` so many cells reach the head
    that one histogram per row is faster, and it gives the sums as well:
    the two ways take the same time at ``hi`` between 0.15 n and 0.3 n,
    and at ``hi = n - 1`` the cells alone take 1.6 to 2 times as long
    (n = 1000 .. 3000, one block, 2-vCPU host).
    """
    b, n = rows_a.shape
    worst = np.maximum(rows_a, rows_b, dtype=np.int64)
    # rank 0 is the self-pair alone; overlaps accumulate over ranks 1..n-1
    if 4 * hi >= n:
        worst += np.arange(0, b * n, n)[:, None]
        hist = np.bincount(worst.ravel(), minlength=b * n).reshape(b, n)
        return (np.cumsum(hist[:, 1:].sum(axis=0)),
                np.cumsum(hist[:, 1:hi + 1], axis=1))
    sums = np.cumsum(np.bincount(worst.ravel(), minlength=n)[1:])
    if not hi:
        return sums, None
    cells = np.flatnonzero(worst <= hi)
    hist = np.bincount(cells // n * (hi + 1) + worst.ravel()[cells],
                       minlength=b * (hi + 1)).reshape(b, hi + 1)
    return sums, np.cumsum(hist[:, 1:], axis=1)


class _OverlapSums:
    """Overlap totals of one compared pair, added one block of rows at a time.

    ``sums[k - 1]`` is the sum over the items seen so far of ``a_ik``.  With
    ``columns = (lo, hi)``, ``head`` is an ``int32`` matrix of shape
    ``(n, hi - lo + 1)`` whose rows receive the overlaps ``a_ik`` for
    ``k = lo .. hi``; :meth:`rates` divides them by ``k``.
    """

    def __init__(self, n: int, columns: tuple | None = None):
        self.n = n
        self.k = np.arange(1, n)
        self.sums = np.zeros(n - 1, dtype=np.int64)
        self.columns = columns
        self.head = None
        if columns is not None:
            lo, hi = columns
            self.head = np.empty((n, hi - lo + 1), dtype=np.int32)

    def add(self, start: int, rows_a: np.ndarray, rows_b: np.ndarray) -> None:
        """Count the items ``start ..`` whose rank rows are given."""
        lo, hi = self.columns or (1, 0)
        sums, head = _overlap_counts(rows_a, rows_b, hi)
        self.sums += sums
        if head is not None:
            self.head[start:start + len(head)] = head[:, lo - 1:]

    def ar(self) -> np.ndarray:
        """``AR_k`` for every k, once every item has been added."""
        return self.sums / (self.k * self.n)

    def rates(self) -> np.ndarray:
        """The per-item rates ``a_ik / k`` of the kept columns."""
        lo, hi = self.columns
        return self.head / self.k[lo - 1:hi]


def _count_overlaps(sources: dict, pairs: dict, n: int) -> None:
    """Feed every compared pair's overlap sums in one pass over row blocks.

    ``sources[name](start, stop)`` returns the rank rows of items
    ``start .. stop - 1`` under ``name``; each source is asked once per
    block, in row order.  ``pairs`` maps ``(x, y)`` source names to the
    :class:`_OverlapSums` of that pair.

    Each block's sources, then its pairs, are handed to the pool of the
    run that the calling thread works for, which the calling thread helps
    while it waits (:func:`~drqa._workers._pool`); the pool's worker count
    also sizes the blocks.  Every call begun has finished when this
    returns or raises.
    """
    pool = _pool()
    for start, stop in _row_blocks(n, pool.workers):
        rows = dict(zip(sources, pool.map(
            lambda block: block(start, stop), sources.values())))
        pool.map(lambda pair: pairs[pair].add(
            start, rows[pair[0]], rows[pair[1]]), pairs)


def agreement_profile(rank_a: RankStructure, rank_b: RankStructure,
                      with_per_item: bool = False) -> AgreementProfile:
    """Agreement rates between two rank structures for every ``k``.

    Parameters
    ----------
    rank_a, rank_b : RankStructure
        Rank structures over the same items (usually source vs. embedding).
    with_per_item : bool
        Also keep the full ``n x (n - 1)`` matrix of per-item rates, needed
        for item-level maps and heatmaps.

    Returns
    -------
    AgreementProfile

    Notes
    -----
    Runs :func:`_count_overlaps` over row slices of the two structures, so
    besides the result it holds only one block's counts.
    """
    n = _check_pair(rank_a, rank_b)
    counts = _OverlapSums(n, (1, n - 1) if with_per_item else None)
    _count_overlaps({"a": lambda start, stop: rank_a.ranks[start:stop],
                     "b": lambda start, stop: rank_b.ranks[start:stop]},
                    {("a", "b"): counts}, n)
    return AgreementProfile(counts.ar(),
                            counts.rates() if with_per_item else None)


def psi(profile: AgreementProfile) -> float:
    """Aggregate agreement: attained share of the maximum adjusted area.

    Sums the adjusted rates over every ``k`` and divides by the value a
    perfect recovery would attain, ``sum_k (n - k - 1) / (n - 1)``.  Equals 1
    for identical rank structures, is close to 0 for unrelated ones, and can
    be negative when agreement is below random.  Undefined for ``n = 2``
    (the denominator vanishes).  The same as :func:`weighted_psi` under
    uniform weights.
    """
    if profile.n < 3:
        raise ValueError("aggregate agreement is undefined for n < 3")
    return weighted_psi(profile, WeightFunction.uniform(profile.n))


def weighted_psi(profile: AgreementProfile, f: WeightFunction) -> float:
    """Aggregate agreement with neighborhood sizes weighted by ``f``.

    ``sum_k f(k) (AR_k - k/(n-1)) / sum_k f(k) (n - k - 1)/(n - 1)``.
    The weight table must match the profile and must put weight somewhere
    below ``k = n - 1``, otherwise the normalizer is zero.
    """
    n = profile.n
    if f.n != n:
        raise ValueError(f"weight table is for n = {f.n}, profile has n = {n}")
    k = np.arange(1, n)
    denom = (f.values * (n - k - 1) / (n - 1)).sum()
    if denom <= 0:
        raise ValueError("weight function has zero mass below k = n - 1")
    return float((f.values * profile.ar_adjusted).sum() / denom)


def partial_agreement(ab: float, az: float, bz: float) -> float:
    """Agreement between A and B with the contribution of Z partialed out.

    Takes three aggregate agreement values on a common scale (A vs B, A vs Z,
    B vs Z) and returns ``(ab - az*bz) / sqrt((1 - az^2)(1 - bz^2))``, the
    partial-correlation form.  ``|az|`` and ``|bz|`` must be < 1.
    """
    for name, v in (("ab", ab), ("az", az), ("bz", bz)):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"{name} = {v} lies outside [-1, 1]")
    if abs(az) >= 1.0 or abs(bz) >= 1.0:
        raise ValueError("partial agreement is undefined when |az| or |bz| is 1")
    return float((ab - az * bz) / math.sqrt((1.0 - az * az) * (1.0 - bz * bz)))


def co_ranking(rank_a: RankStructure, rank_b: RankStructure) -> CoRankingMatrix:
    """Joint histogram of A-ranks against B-ranks over all ordered pairs.

    The codes ``rank_a * n + rank_b`` are counted into one ``n x n``
    histogram by ``np.add.at``, ``_CODE_CELLS`` of them at a time, so the
    call holds little besides the histogram.  Its row and column 0 hold
    only the self-pairs (rank 0 under both); the result adopts the view
    without them.
    """
    n = _check_pair(rank_a, rank_b)
    hist = np.zeros(n * n, dtype=np.int64)
    step = max(1, _CODE_CELLS // n)
    codes = np.empty((min(step, n), n), dtype=np.int64)
    for lo in range(0, n, step):
        part = codes[:min(step, n - lo)]
        np.multiply(rank_a.ranks[lo:lo + step], n, out=part, dtype=np.int64)
        part += rank_b.ranks[lo:lo + step]
        np.add.at(hist, part.reshape(-1), 1)
    return CoRankingMatrix._trusted(hist.reshape(n, n)[1:, 1:])


def classify_rank_movements(rank_a: RankStructure, rank_b: RankStructure,
                            k: int) -> RankMovementTally:
    """Tally hard/soft intrusions and extrusions at neighborhood boundary ``k``."""
    n = _check_pair(rank_a, rank_b)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1 .. {n - 1}")
    a, b = rank_a.ranks, rank_b.ranks  # the n self-pairs are all unchanged
    return RankMovementTally(
        k=k,
        n=n,
        hard_intrusions=int(np.count_nonzero((b <= k) & (k < a))),
        soft_intrusions=int(np.count_nonzero((b < a) & (a <= k))),
        hard_extrusions=int(np.count_nonzero((a <= k) & (k < b))),
        soft_extrusions=int(np.count_nonzero((a < b) & (b <= k))),
        unchanged=int(np.count_nonzero((a == b) & (a <= k))) - n,
        outside=int(np.count_nonzero((a > k) & (b > k))),
    )
