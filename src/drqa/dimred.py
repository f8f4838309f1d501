"""Dimensionality reduction methods producing low-dimensional configurations.

Spectral methods (principal components, classical scaling, locally linear
embedding, Laplacian eigenmaps, and geodesic scaling) rely on dense symmetric
eigendecompositions and are deterministic; every eigenvector's sign is fixed
so its largest-magnitude entry is positive.  Stress majorization is iterative
and reports its full Stress history.  All methods return a
:class:`ReductionResult` bundling the embedded configuration with
method-specific diagnostics.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial.distance import cdist

from . import geometry
from .geometry import Configuration, ProximityMatrix

METHODS = (
    "pca",
    "classical_mds",
    "smacof",
    "local_smacof",
    "lle",
    "isomap",
    "laplacian_eigenmaps",
)

#: Methods consuming coordinates; the others consume a distance matrix.
COORDINATE_METHODS = ("pca", "lle", "isomap", "laplacian_eigenmaps")


class DisconnectedGraphError(ValueError):
    """A neighborhood or weight graph fell apart into several components."""

    def __init__(self, message: str, component_sizes):
        sizes = sorted((int(s) for s in component_sizes), reverse=True)
        super().__init__(f"{message}: {len(sizes)} components of sizes {sizes}")
        self.n_components = len(sizes)
        self.component_sizes = sizes


def _require_connected(graph, message: str) -> None:
    """Raise :class:`DisconnectedGraphError` with ``message`` unless the
    undirected graph of the non-zero entries of ``graph`` is connected."""
    n_comp, labels = connected_components(graph, directed=False)
    if n_comp > 1:
        raise DisconnectedGraphError(message, np.bincount(labels))


@dataclass(frozen=True, eq=False)
class ReductionResult:
    embedding: Configuration
    diagnostics: dict


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        lead = col[int(np.argmax(np.abs(col)))]
        if lead < 0:
            v[:, j] = -col
    return v


def _eigh(m: np.ndarray) -> tuple:
    """``np.linalg.eigh`` of ``m``, symmetrized in place first; a LAPACK
    failure is a ``ValueError``."""
    geometry._symmetrize(m)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"eigen-solver failed: {err}") from err


def _result(x: np.ndarray, source: Configuration | None,
            diagnostics: dict) -> ReductionResult:
    labels = source.labels if source is not None else None
    emb = Configuration(np.ascontiguousarray(x), labels=labels)
    return ReductionResult(emb, diagnostics)


def _require_coordinates(config: Configuration, method: str,
                         target_dim: int | None = None):
    if not isinstance(config, Configuration):
        raise TypeError(f"{method} needs a coordinate Configuration")
    if not config.fully_observed:
        raise ValueError(f"{method} requires a fully observed configuration")
    if target_dim is not None and not 1 <= target_dim < config.m:
        raise ValueError(f"target_dim must lie in 1 .. {config.m - 1}, got {target_dim}")


def _require_distance(prox: ProximityMatrix, method: str,
                      target_dim: int | None = None):
    if not isinstance(prox, ProximityMatrix):
        raise TypeError(f"{method} needs a ProximityMatrix")
    if target_dim is not None and not 1 <= target_dim < prox.n:
        raise ValueError(f"target_dim must lie in 1 .. {prox.n - 1}, got {target_dim}")


# ---------------------------------------------------------------------------
# spectral methods on coordinates


def pca(config: Configuration, target_dim: int, use_correlation: bool = False) -> ReductionResult:
    """Principal component scores of a configuration.

    Columns are centered (and standardized to unit variance when
    ``use_correlation`` is set) and the top ``target_dim`` components are kept.
    Diagnostics carry the full eigenvalue spectrum on the covariance scale, so
    the eigenvalues sum to the total variance of the prepared data.
    """
    _require_coordinates(config, "pca", target_dim)
    n, m = config.n, config.m
    if n <= target_dim:
        raise ValueError(f"need more than target_dim = {target_dim} items")
    x = config.items - config.items.mean(axis=0)
    if use_correlation:
        sd = x.std(axis=0, ddof=1)
        if (sd == 0).any():
            j = int(np.argmin(sd))
            raise ValueError(f"column {j} has zero variance; correlation scaling impossible")
        x = x / sd
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    scores = _fix_signs(u[:, :target_dim]) * s[:target_dim]
    eigenvalues = np.zeros(m)
    eigenvalues[: s.size] = s**2 / (n - 1)
    total = eigenvalues.sum()
    diagnostics = {
        "method": "pca",
        "eigenvalues": eigenvalues,
        "explained_variance_ratio": eigenvalues / total if total > 0 else eigenvalues,
        "use_correlation": use_correlation,
    }
    return _result(scores, config, diagnostics)


def classical_mds(dist: ProximityMatrix, target_dim: int) -> ReductionResult:
    """Classical scaling: eigendecomposition of the double-centered squared distances.

    The scalar-product matrix is ``-0.5 * J D^2 J`` with ``J`` the centering
    projector.  Coordinates are eigenvectors scaled by root eigenvalues.
    Negative eigenvalues (non-Euclidean input) are truncated to zero in the
    reported spectrum with a diagnostics warning; if fewer than ``target_dim``
    eigenvalues are positive the input cannot support the requested
    dimensionality and is rejected, except for the all-zero matrix, which
    embeds to all zeros.
    """
    _require_distance(dist, "classical_mds", target_dim)
    return _classical_scaling(dist.values**2, target_dim)


def _classical_scaling(b: np.ndarray, target_dim: int) -> ReductionResult:
    """:func:`classical_mds` of the squared distances ``b``, which it
    overwrites; beside ``b`` it holds only the n x n eigenvectors."""
    n = b.shape[0]
    b *= -0.5
    b -= b.mean(axis=1, keepdims=True)
    b -= b.mean(axis=0, keepdims=True)
    evals, evecs = _eigh(b)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    scale = float(np.abs(evals).max(initial=0.0))
    tol = max(n * np.finfo(float).eps * scale, 1e-12)
    n_positive = int((evals > tol).sum())
    n_negative = int((evals < -tol).sum())
    if scale <= tol:
        x = np.zeros((n, target_dim))
        reported = np.zeros(n)
    elif n_positive < target_dim:
        raise ValueError(
            f"only {n_positive} positive eigenvalues; cannot embed into {target_dim} dimensions"
        )
    else:
        x = _fix_signs(evecs[:, :target_dim]) * np.sqrt(evals[:target_dim])
        reported = np.maximum(evals, 0.0)
    diagnostics = {
        "method": "classical_mds",
        "eigenvalues": reported,
        "n_positive_eigenvalues": n_positive,
        "n_negative_eigenvalues": n_negative,
        "non_euclidean_warning": n_negative > 0,
    }
    return _result(x, None, diagnostics)


# ---------------------------------------------------------------------------
# stress majorization


def _offdiag(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of square ``m``, in row-major order.

    Row ``r`` of the (n - 1, n) result holds the n entries that lie between
    the diagonal cells ``r`` and ``r + 1`` of ``m.ravel()``, so read row by
    row they are ``m[~np.eye(n, dtype=bool)]``.  It is a view of ``m`` when
    ``m`` is C-contiguous, and writes to it reach ``m``.
    """
    n = m.shape[0]
    return m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


#: Share of the off-diagonal pairs with positive weight at or below which
#: :func:`smacof` iterates over those pairs (see its docstring)
_PAIR_SHARE = 0.5

#: Most values in a leaf of numpy's pairwise float summation
_PAIRWISE_LEAF = 128


class _GridSum:
    """``np.sum`` of a zero-filled contiguous grid of ``size`` cells that
    holds values at listed cells only, to the bit, visiting those cells only.

    ``cells[r, k]`` is the flat grid position of the ``r``-th copy of value
    ``k``; no position is listed twice.  Calling the object with the
    values returns the sum.  Every value must be +0.0 or more (or NaN),
    since then adding an unlisted +0.0 cell changes no partial sum.

    numpy halves the grid, the first half a multiple of 8 long, until each
    leaf holds at most ``_PAIRWISE_LEAF`` cells.  A leaf sums its cells in
    8 lanes (cell c in lane c % 8, in order), joins the lanes as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then adds its last
    size % 8 cells one at a time; the halves join up the same tree.  Each
    leaf but the last is a multiple of 8 long, so those last cells are
    the grid's own last size % 8.  The plan holds, per listed cell outside
    them, an int32 index into the values and an int32 lane slot, both in
    grid order, so that one gather and one ``np.bincount`` sum every lane.
    """

    def __init__(self, cells, size):
        # the tree level by level: each node's start and size in order,
        # and which nodes split; the leaves of each level take a range of
        # slots, the deepest level's first
        starts, sizes = np.zeros(1, np.int64), np.array([size], np.int64)
        self.levels = []
        leaf_starts, leaf_sizes = [], []
        while True:
            split = sizes > _PAIRWISE_LEAF
            self.levels.append(split)
            leaf_starts.append(starts[~split])
            leaf_sizes.append(sizes[~split])
            if not split.any():
                break
            starts, sizes = starts[split], sizes[split]
            half = sizes // 2
            half -= half % 8
            starts = np.stack([starts, starts + half], axis=1).ravel()
            sizes = np.stack([half, sizes - half], axis=1).ravel()
        at, self.slots = 0, []
        for level in leaf_starts[::-1]:
            self.slots.append(slice(at, at + level.size))
            at += level.size
        self.leaves = at
        leaf_starts = np.concatenate(leaf_starts[::-1])
        leaf_sizes = np.concatenate(leaf_sizes[::-1])
        by_start = np.argsort(leaf_starts)
        self.last = int(by_start[-1])
        # the lane slot of each block of 8 cells outside the tail
        block_slot = np.repeat(by_start.astype(np.int32),
                               leaf_sizes[by_start] // 8)
        del leaf_starts, leaf_sizes, by_start

        m = cells.shape[-1]
        flat = np.asarray(cells, np.int32).reshape(-1)
        order = np.argsort(flat)
        flat = flat[order]
        self.src = np.remainder(order, m, out=order).astype(np.int32)
        del order
        lanes = int(np.searchsorted(flat, size - size % 8))
        self.tail = self.src[lanes:].copy()
        self.src = self.src[:lanes].copy()
        flat = flat[:lanes]
        self.bins = np.take(block_slot, flat >> 3)
        flat &= 7
        flat *= self.leaves
        self.bins += flat

    def __call__(self, v):
        lanes = np.bincount(self.bins, np.take(v, self.src),
                            8 * self.leaves).reshape(8, self.leaves)
        pairs = lanes[0::2] + lanes[1::2]
        quads = pairs[0::2] + pairs[1::2]
        leaf = np.add(quads[0], quads[1], dtype=float)  # bincount([]) is int
        for value in np.take(v, self.tail):
            leaf[self.last] += value
        # up the tree: a level's split nodes are the sums of the next
        # level's nodes, taken two by two
        nodes = leaf[self.slots[0]]
        for split, slots in zip(self.levels[-2::-1], self.slots[1:]):
            sums = nodes[0::2] + nodes[1::2]
            if slots.stop == slots.start:
                nodes = sums
            else:
                nodes = np.empty(split.size)
                nodes[split] = sums
                nodes[~split] = leaf[slots]
        return float(nodes[0])


def _stress(d, negated, w, work, total):
    """Normalized Stress of the pair values ``d`` and the negated fit
    ``negated`` (``d + (-dhat)`` is ``d - dhat``, bit for bit) with
    weights ``w``; ``work`` is scratch of their shape and may hold
    ``negated``, and ``total`` sums it."""
    np.add(d, negated, out=work)
    np.square(work, out=work)
    if w is not None:
        np.multiply(w, work, out=work)
    num = total(work)
    np.square(d, out=work)
    if w is not None:
        np.multiply(w, work, out=work)
    den = total(work)
    if den <= 0:
        raise ValueError("embedded configuration collapsed to a point")
    return math.sqrt(num / den)


class _RatioFit:
    """The least-squares scale factor ``b`` of the dissimilarities.

    ``update`` refits ``b`` to the embedded distances ``d``; ``negated``
    writes the negated fit ``(-b) * delta``, which is ``-(b * delta)``
    bit for bit, into ``work`` and returns it.  The sums run through
    ``total``, in ``work``.
    """

    def __init__(self, delta, w, work, total):
        self.delta, self.w, self.total = delta, w, total
        np.square(delta, out=work)
        if w is not None:
            np.multiply(w, work, out=work)
        self.den = total(work)
        self.b = 0.0  # -0.0 * delta is -0.0, so a zero denominator fits zeros

    def update(self, d, work):
        if self.den <= 0:
            return
        if self.w is None:
            np.multiply(d, self.delta, out=work)
        else:
            np.multiply(self.w, d, out=work)
            np.multiply(work, self.delta, out=work)
        self.b = self.total(work) / self.den

    def negated(self, work):
        return np.multiply(-self.b, self.delta, out=work)


def _isotonic(d, w):
    """The weighted monotone regression of ``d``; only the ordinal fits
    use it, so only they import ``scipy.optimize``."""
    from scipy.optimize import isotonic_regression

    return isotonic_regression(d, weights=w).x


class _OrdinalFit:
    """Monotone regression of embedded distances on the dissimilarity order.

    Pairs are ordered once by ascending dissimilarity (ties by index, the
    primary approach: tied inputs may receive different fitted values).  Each
    ``update`` pools the distances in ``mat`` over that order and writes
    the negated fit to both entries of each pair of an n x n matrix;
    zero-weight pairs get -0.0.  Pairs are flat indices of n x n matrices.
    """

    def __init__(self, dissimilarities, w, mat):
        n = mat.shape[0]

        def grid(pairs):  # (i, j) in the off-diagonal grid
            return pairs - pairs // n - 1

        upper = np.flatnonzero(~np.tri(n, dtype=bool))  # (i, j), i < j
        if w is not None:
            upper = upper[w.reshape(-1)[grid(upper)] > 0]
        order = np.argsort(dissimilarities.reshape(-1)[upper],
                           kind="stable")  # ties by (i, j)
        upper = upper[order]
        del order
        # unit weights are isotonic_regression's default
        self.w = None if w is None else w.reshape(-1)[grid(upper)]
        i, lower = np.divmod(upper, n)
        lower *= n
        lower += i  # (j, i)
        self.upper, self.lower, self.mat = upper, lower, mat
        self.fit = np.full((n, n), -0.0)
        self.off = _offdiag(self.fit)

    def update(self, d, work):
        fit = _isotonic(self.mat.reshape(-1)[self.upper], self.w)
        np.negative(fit, out=fit)
        flat = self.fit.reshape(-1)
        flat[self.upper] = fit
        flat[self.lower] = fit

    def negated(self, work):
        return self.off


class _PairOrdinalFit:
    """:class:`_OrdinalFit` of the pair path's distances, which
    :class:`_Pairs` puts in the dissimilarity order."""

    def __init__(self, w):
        self.w = w

    def update(self, d, work):
        self.fit = _isotonic(d, self.w)
        np.negative(self.fit, out=self.fit)

    def negated(self, work):
        return self.fit


class _Pairs:
    """The positive-weight pairs of a weight matrix, each unordered pair
    once, for the pair path of :func:`smacof`.

    ``i < j`` are the items of each pair, as int32, in row-major order,
    or by ascending dissimilarity (ties by ``(i, j)``) when ``ordinal``
    is set, so that the distances are in the monotone fit's order.
    ``delta`` and ``w`` are the pairs' dissimilarities and weights; ``w``
    is None when every weight is 1, since ``1.0 * v == v``.  ``squares``
    are the flat positions of ``(i, j)`` and ``(j, i)`` in an n x n
    matrix, and ``total`` sums pair values to the bits of ``np.sum`` over
    the off-diagonal grid (``_offdiag``) with each value at both of its
    cells and +0.0 elsewhere.
    """

    def __init__(self, full, dissimilarities, ordinal):
        n = full.shape[0]
        i, j = np.nonzero(np.triu(full > 0, 1))
        delta = dissimilarities[i, j]
        if ordinal:
            order = np.argsort(delta, kind="stable")  # ties by (i, j)
            i, j, delta = i[order], j[order], delta[order]
            del order
        w = full[i, j]
        self.delta, self.w = delta, None if (w == 1.0).all() else w
        self.squares = np.stack([i * n + j, j * n + i])
        self.i, self.j = i.astype(np.int32), j.astype(np.int32)
        del i, j
        # (i, j) and (j, i) in the grid; n (n - 1) < 2**31 at DENSE_CAP
        cells = np.empty((2, self.i.size), np.int32)
        np.multiply(self.i, n - 1, out=cells[0])
        cells[0] += self.j
        cells[0] -= 1
        np.multiply(self.j, n - 1, out=cells[1])
        cells[1] += self.i
        self.total = _GridSum(cells, n * (n - 1))

    def distances(self, x, out):
        """Write the pairs' Euclidean distances in ``x`` into ``out``,
        with :func:`cdist`'s arithmetic, bit for bit: the squared
        coordinate differences summed in dimension order, then the root."""
        with np.errstate(over="ignore"):  # cdist overflows to inf silently
            for k, col in enumerate(x.T):
                diff = np.take(col, self.i)
                diff -= np.take(col, self.j)
                np.square(diff, out=diff)
                if k == 0:
                    out[:] = diff
                else:
                    out += diff
        np.sqrt(out, out=out)


def _given_start(init, n, target_dim):
    """A copy of the start ``init``, checked to be finite and of shape
    ``(n, target_dim)``; the caller's array is never written."""
    x = np.array(init, dtype=float)
    if x.shape != (n, target_dim):
        raise ValueError(f"init array must have shape ({n}, {target_dim}), "
                         f"got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("init array must be finite")
    return x


def _check_weights(weights, n):
    """The symmetrized weights with a zero diagonal, in a new array.

    Beyond ``weights`` (converted to float if need be), the check holds
    one n x n float array, the result, and the graph of positive pairs.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"weights must have shape ({n}, {n})")
    # min and max see any negative, NaN or inf without an n x n mask
    if not (w.min() >= 0 and np.isfinite(w.max())):
        raise ValueError("weights must be finite and non-negative")
    sym = np.empty((n, n))
    if geometry._symmetrize(w, sym) > 1e-12:
        raise ValueError("weights must be symmetric")
    del w
    np.fill_diagonal(sym, 0.0)
    if sym.max() <= 0:
        raise ValueError("all weights are zero")
    _require_connected(csr_matrix(sym > 0), "weight graph is disconnected")
    return sym


def smacof(dist: ProximityMatrix, target_dim: int,
           weights: np.ndarray | None = None,
           transform: str = "ratio", max_iter: int = 500, tol: float = 1e-6,
           seed: int | None = 0,
           init: str | np.ndarray = "classical") -> ReductionResult:
    """Stress majorization of a distance matrix.

    Minimizes normalized Stress, the root of ``sum w (d - dhat)^2`` over
    ``sum w d^2``, where ``d`` are embedded distances and ``dhat`` is the
    admissible transform of the input dissimilarities (a scale factor for
    ``"ratio"``, a monotone fit for ``"ordinal"``).  Each iteration refits the
    transform and applies one majorization update of the coordinates; if an
    update ever fails to decrease the recorded Stress it is rolled back and
    iteration stops, so the Stress history is non-increasing by construction.
    That stop (``"no_decrease"``) counts as converged, unless the first
    update is rejected: then the start returns, unconverged.

    Each update forms the n x n matrix B = diag(rowsum R) - R, with
    R = w * dhat / d (zero where d = 0), and solves for the next
    coordinates from B times the current ones.  Every sum has the bits of
    ``np.sum`` over one contiguous ``(n - 1, n)`` grid of the off-diagonal
    pairs in row-major order (``m[~np.eye(n, dtype=bool)]``), so that
    order fixes the summation, and with it every bit of the result.  The
    fits hand out -dhat: (-dhat) / d is -(dhat / d), and d + (-dhat) is
    d - dhat, bit for bit, so that -R takes no negation pass.

    Two paths compute the same bits.  The grid loop reads every pair: the
    embedded distances go into B's buffer, which each update overwrites
    with -R, the weights are one contiguous off-diagonal copy (a bool mask
    for bool weights), and the sums run over a scratch grid.  The pair
    path runs a weighted call in which at most half of the off-diagonal
    pairs (``_PAIR_SHARE``) have positive weight, as every
    :func:`local_smacof` call at its default quantile does.  It lists
    those pairs once, and each iteration computes the distances (with
    ``cdist``'s arithmetic), the fit, the Stress terms and R on them only.
    Its sums (:class:`_GridSum`) visit only the pairs' cells of the grid,
    whose other cells would hold +0.0, and -R goes into B, whose other
    off-diagonal cells stay -0.0, as in the grid loop.  Unit weights and
    denser weights run the grid loop.  On a swiss roll at n = 600 (one
    BLAS thread, a shared 2-CPU host) an iteration took 2.1 ms on the
    pair path and 5.3 ms in the grid loop at a share of 0.1; the two
    broke even near a share of 0.6 at n = 600 and near 0.5 at n = 1000.

    Memory: besides ``dist`` and the caller's ``weights``, a call holds
    B, an n x n float array, while it iterates.  Weights other than all
    ones add the Cholesky factor of the update system, made in place in
    the buffer of the checked weights.  The grid loop adds its scratch
    grid, an n x n float array, and the weights' off-diagonal copy, an
    n x n float array or, for bool weights, a bool one; the ordinal
    transform adds its n x n fit and the pair order, two int64 arrays of
    half that size.  The pair path adds 64 bytes per listed pair: its two
    int32 items, two int64 positions in B, its dissimilarity, its distance
    and scratch value, and, in the plan of its sums, two int32 value
    indices and two int32 lane keys; a weight other than 1 adds 8 bytes.
    Each of its sums briefly holds one float per 8 to 16 grid cells, the
    lane totals.  The start (classical scaling, a given start's copy, or
    the random start, whose scale briefly copies the grid) and the weight
    check run, and free their arrays, before B exists.

    Parameters
    ----------
    dist : ProximityMatrix
    target_dim : int
    weights : ndarray of shape (n, n), optional
        Symmetric non-negative pair weights; zero-weight pairs are ignored by
        the objective.  The positive-weight graph must be connected.
    transform : {"ratio", "ordinal"}
    max_iter, tol :
        Stop after ``max_iter`` updates or when the relative Stress decrease
        falls below ``tol``.
    seed : int, optional
        Seeds the random start, taken when ``init = "random"`` and when
        classical scaling rejects the input.  The fixed default makes
        repeated calls give the same result; ``None`` draws a fresh start.
    init : {"classical", "random"} or array of shape (n, target_dim)
        Classical scaling start by default (falls back to a seeded random
        start if classical scaling rejects the input).  An array is the
        start itself: it must be finite, it is copied, never written, and
        the diagnostics report it as ``"given"``.  :func:`reduction_jobs`
        hands the stress majorization jobs of one source their shared
        classical start this way.
    """
    _require_distance(dist, "smacof", target_dim)
    n = dist.n
    if transform not in ("ratio", "ordinal"):
        raise ValueError(f"transform must be 'ratio' or 'ordinal', got {transform!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if isinstance(init, str):
        if init not in ("classical", "random"):
            raise ValueError(f"init must be 'classical' or 'random', got {init!r}")
        init_used, x = init, None
    else:
        init_used, x = "given", _given_start(init, n, target_dim)
    if init_used == "classical":
        try:
            x = _classical_scaling(dist.values**2, target_dim).embedding.items
        except ValueError:
            init_used = "random-fallback"

    # w stays None for unit weights: 1.0 * x == x, so skipping it keeps the bits
    w = solve = pairs = None
    if weights is not None:
        # symmetric bool weights are checked into exact zeros and ones,
        # which act the same as the bool mask, at an eighth of the memory
        zero_one = np.asarray(weights).dtype == bool
        full = _check_weights(weights, n)
        del weights
        off = _offdiag(full)
        if not off.min() == 1.0 == off.max():
            if np.count_nonzero(off) <= _PAIR_SHARE * off.size:
                pairs = _Pairs(full, dist.values, transform == "ordinal")
            else:
                w = off > 0 if zero_one else off.copy()
            # diag(row sums) - full + 1/n, made in full's buffer and
            # factored in place: it is symmetric, so its transpose is the
            # same matrix in the column order that LAPACK overwrites
            rowsum = full.sum(axis=1)
            system = np.negative(full, out=full)
            np.fill_diagonal(system, rowsum)
            system += 1.0 / n
            factor = cho_factor(system.T, overwrite_a=True)
            # the factor does not change: check only each right-hand side
            solve = lambda rhs: cho_solve(  # noqa: E731
                factor, np.asarray_chkfinite(rhs), check_finite=False)
        del full, off

    delta = _offdiag(dist.values)
    if x is None:
        rng = np.random.default_rng(seed)
        grid = np.ascontiguousarray(delta)  # summed as the grid loop sums
        scale = grid.mean() if grid.max() > 0 else 1.0
        del grid
        x = rng.standard_normal((n, target_dim)) * scale

    mat = np.empty((n, n))  # the matrix B
    if pairs is None:
        # the embedded distances go into mat, and each update writes -R
        # over them in its off-diagonal grid d; every sum runs over the
        # contiguous scratch grid work
        work, total, d = np.empty((n - 1, n)), np.sum, _offdiag(mat)

        def distances(x_cur):
            cdist(x_cur, x_cur, out=mat)

        fit = (_RatioFit(delta, w, work, total) if transform == "ratio"
               else _OrdinalFit(dist.values, w, mat))
    else:
        # -R goes to both cells of each pair; B's other off-diagonal cells
        # stay -0.0, as in the grid loop
        mat.fill(-0.0)
        m = pairs.delta.size
        w, work, d, total = pairs.w, np.empty(m), np.empty(m), pairs.total

        def distances(x_cur):
            pairs.distances(x_cur, d)

        fit = (_RatioFit(pairs.delta, w, work, total) if transform == "ratio"
               else _PairOrdinalFit(w))

    def measure(x_cur):
        """Take the distances of ``x_cur``, refit the transform to them,
        and return the Stress."""
        distances(x_cur)
        fit.update(d, work)
        return _stress(d, fit.negated(work), w, work, total)

    def guttman(x_cur):
        # B = diag(rowsum(R)) - R with R = w * d_hat / d where d > 0, else 0,
        # made over the distances: (-d_hat) / d is -(d_hat / d) bit for bit
        coincident = None
        if not d.min() > 0:  # coincident items; a masked divide is slow
            coincident = np.greater(d, 0.0)
            np.logical_not(coincident, out=coincident)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(fit.negated(work), d, out=d)
        if coincident is not None:
            d[coincident] = -0.0
        if w is not None:
            np.multiply(d, w, out=d)
        diagonal = mat.reshape(-1)[:: n + 1]
        if pairs is not None:
            for squares in pairs.squares:  # one row at a time: faster
                mat.reshape(-1)[squares] = d
            diagonal[:] = 0.0  # it holds the last update's row sums
        # a row of -R and a zero sums to minus the row sum of R, bit for
        # bit, up to the sign of a zero sum, which 0.0 - s makes R's +0.0
        np.subtract(0.0, mat.sum(axis=1), out=diagonal)
        rhs = mat @ x_cur
        return rhs / n if solve is None else solve(rhs)

    # mat and the fit always belong to the last measured x; a rejected
    # update ends the loop, so nothing reads them after that
    history = [measure(x)]
    converged = False
    reason = "max_iter"
    for _ in range(max_iter):
        x_new = guttman(x)
        s_new = measure(x_new)
        if s_new > history[-1]:
            converged = len(history) > 1
            reason = "no_decrease"
            break
        x = x_new
        history.append(s_new)
        prev, cur = history[-2], history[-1]
        if prev - cur < tol * max(prev, np.finfo(float).tiny):
            converged = True
            reason = "stress_change"
            break
        if cur < 1e-12:
            converged = True
            reason = "stress_floor"
            break
    diagnostics = {
        "method": "smacof",
        "transform": transform,
        "stress": history[-1],
        "stress_history": np.asarray(history),
        "n_iterations": len(history) - 1,
        "converged": converged,
        "stop_reason": reason,
        "init": init_used,
    }
    return _result(x, None, diagnostics)


def local_smacof(dist: ProximityMatrix, target_dim: int, quantile: float = 0.1,
                 transform: str = "ratio", max_iter: int = 500, tol: float = 1e-6,
                 seed: int | None = 0,
                 init: str | np.ndarray = "classical") -> ReductionResult:
    """Stress majorization restricted to the shortest distances.

    Pairs whose distance lies at or below the given quantile of all
    off-diagonal distances get unit weight; every other pair is ignored.
    Emphasizing short distances preserves local neighborhoods at the expense
    of the global layout.  If the selected pairs do not connect all items the
    call is rejected; raise the quantile to reconnect them.  The other
    parameters are :func:`smacof`'s, with its defaults.

    A quantile that selects at most half of the pairs (ties at the
    threshold can add some) runs ``smacof``'s pair path, over the selected
    pairs only; a larger one runs its grid loop.

    Memory: while ``smacof`` runs, this call holds the selection as one
    n x n bool matrix.  On the pair path the iterations hold two n x n
    float arrays beyond ``dist`` (the Cholesky factor and the matrix B)
    and 64 bytes per selected pair.
    """
    _require_distance(dist, "local_smacof")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    threshold = float(np.quantile(_offdiag(dist.values), quantile))
    selected = dist.values <= threshold
    np.fill_diagonal(selected, False)
    # a mean of zeros and ones is exact in any summation order
    active = float(_offdiag(selected).mean())
    try:
        result = smacof(dist, target_dim, weights=selected, transform=transform,
                        max_iter=max_iter, tol=tol, seed=seed, init=init)
    except DisconnectedGraphError as err:
        raise DisconnectedGraphError(
            f"distance quantile {quantile} keeps too few pairs; raise it",
            err.component_sizes,
        ) from err
    diagnostics = dict(result.diagnostics)
    diagnostics.update({
        "method": "local_smacof",
        "quantile": quantile,
        "threshold": threshold,
        "active_pair_fraction": active,
    })
    return _result(result.embedding.items, None, diagnostics)


# ---------------------------------------------------------------------------
# neighborhood graph methods


def _neighbor_lists(x: np.ndarray, n_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the n_neighbors nearest items per row, stable ties."""
    d = cdist(x, x)
    work = d.copy()  # ordering overwrites its input
    np.fill_diagonal(work, np.inf)
    # a copy, so that no view pins the n x n order
    return geometry._stable_order(work)[:, :n_neighbors].copy(), d


def _knn_union_graph(x: np.ndarray, n_neighbors: int) -> csr_matrix:
    """Symmetric k-nearest-neighbor graph weighted by Euclidean distance."""
    n = x.shape[0]
    if not 1 <= n_neighbors <= n - 1:
        raise ValueError(f"n_neighbors must lie in 1 .. {n - 1}, got {n_neighbors}")
    nbrs, d = _neighbor_lists(x, n_neighbors)
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = nbrs.ravel()
    graph = csr_matrix((d[rows, cols], (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)
    _require_connected(graph, "neighborhood graph is disconnected")
    return graph


def geodesic_distances(config: Configuration, n_neighbors: int) -> ProximityMatrix:
    """Shortest-path distances along the symmetrized k-nearest-neighbor graph.

    Edge weights are Euclidean lengths; path lengths are computed by repeated
    single-source runs.  Rejects disconnected graphs, reporting component
    sizes.
    """
    _require_coordinates(config, "geodesic_distances")
    graph = _knn_union_graph(config.items, n_neighbors)
    geo = shortest_path(graph, method="D", directed=False)
    return ProximityMatrix(geo)


def isomap(config: Configuration, target_dim: int, n_neighbors: int) -> ReductionResult:
    """Classical scaling of graph geodesic distances."""
    _require_coordinates(config, "isomap", target_dim)
    geo = geodesic_distances(config, n_neighbors)
    _require_distance(geo, "classical_mds", target_dim)
    geodesic_max = float(geo.values.max())
    squared = geo.values**2
    del geo  # classical scaling reads only the squares, in place
    inner = _classical_scaling(squared, target_dim)
    diagnostics = dict(inner.diagnostics)
    diagnostics.update({
        "method": "isomap",
        "n_neighbors": n_neighbors,
        "n_components": 1,
        "component_sizes": [config.n],
        "geodesic_max": geodesic_max,
    })
    return _result(inner.embedding.items, config, diagnostics)


def laplacian_eigenmaps(config: Configuration, target_dim: int, n_neighbors: int,
                        t: float = math.inf) -> ReductionResult:
    """Bottom generalized eigenvectors of the neighborhood-graph Laplacian.

    Builds the symmetrized k-nearest-neighbor graph, weights edges by the heat
    kernel ``exp(-dist^2 / t)`` (or 1 when ``t`` is infinite), and solves
    ``L f = lambda D f`` through the symmetric normalized Laplacian.  The
    constant eigenvector at eigenvalue zero is discarded; the next
    ``target_dim`` eigenvectors, scaled so ``f' D f = 1``, form the embedding.
    A ``t`` so small that kernel weights round to zero and the graph falls
    apart is rejected.
    """
    _require_coordinates(config, "laplacian_eigenmaps", target_dim)
    if not t > 0:
        raise ValueError(f"kernel parameter t must be positive, got {t}")
    graph = _knn_union_graph(config.items, n_neighbors)
    adj = graph.toarray()
    if math.isinf(t):
        w = (adj > 0).astype(float)
    else:
        w = adj**2
        np.negative(w, out=w)
        w /= t
        np.exp(w, out=w)
        w[adj <= 0] = 0.0  # distances are never NaN
    del adj  # w is bitwise symmetric, as the graph is
    if not math.isinf(t):
        _require_connected(csr_matrix(w > 0), f"heat kernel t = {t} "
                           "disconnects the neighborhood graph; raise t")
    degrees = w.sum(axis=1)
    d_isqrt = 1.0 / np.sqrt(degrees)
    w *= d_isqrt[:, None]
    w *= d_isqrt[None, :]
    sym = np.eye(config.n)
    sym -= w
    del w
    evals, evecs = _eigh(sym)
    x = _fix_signs(evecs[:, 1 : target_dim + 1] * d_isqrt[:, None])
    diagnostics = {
        "method": "laplacian_eigenmaps",
        "eigenvalues": evals[1 : target_dim + 1],
        "kernel_t": t,
        "n_components": 1,
        "component_sizes": [config.n],
    }
    return _result(x, config, diagnostics)


def lle(config: Configuration, target_dim: int, n_neighbors: int,
        reg: float = 1e-3) -> ReductionResult:
    """Locally linear embedding.

    Each item is expressed as an affine combination of its nearest neighbors
    (weights summing to one, least-squares optimal); the embedding consists of
    the bottom non-constant eigenvectors of ``(I - W)'(I - W)``, which
    reproduce those local combinations in few dimensions.  When a local Gram
    matrix is singular, or whenever ``n_neighbors`` exceeds the input
    dimensionality, a ridge of ``reg`` times the Gram trace is added; the
    count of regularized items is reported.
    """
    _require_coordinates(config, "lle", target_dim)
    n, m = config.n, config.m
    if not target_dim + 1 <= n_neighbors <= n - 1:
        raise ValueError(
            f"n_neighbors must lie in {target_dim + 1} .. {n - 1}, got {n_neighbors}"
        )
    x = config.items
    nbrs = _neighbor_lists(x, n_neighbors)[0]
    w = np.zeros((n, n))
    ones = np.ones(n_neighbors)
    regularized = 0
    for i in range(n):
        z = x[nbrs[i]] - x[i]
        gram = z @ z.T
        needs_reg = n_neighbors > m
        if not needs_reg:
            try:
                coef = np.linalg.solve(gram, ones)
            except np.linalg.LinAlgError:
                needs_reg = True
        if needs_reg:
            trace = np.trace(gram)
            gram = gram + reg * (trace if trace > 0 else 1.0) * np.eye(n_neighbors)
            coef = np.linalg.solve(gram, ones)
            regularized += 1
        total = coef.sum()
        coef = coef / total if abs(total) > 1e-300 else ones / n_neighbors
        w[i, nbrs[i]] = coef
    row_sum_error = float(np.abs(w.sum(axis=1) - 1.0).max())
    m_embed = np.eye(n)
    m_embed -= w
    del w
    m_embed = m_embed.T @ m_embed
    evals, evecs = _eigh(m_embed)
    x_out = _fix_signs(evecs[:, 1 : target_dim + 1])
    diagnostics = {
        "method": "lle",
        "eigenvalues": evals[1 : target_dim + 1],
        "n_neighbors": n_neighbors,
        "regularization": reg,
        "regularized_items": regularized,
        "weight_row_sum_error": row_sum_error,
    }
    return _result(x_out, config, diagnostics)


# ---------------------------------------------------------------------------
# dispatch


#: The stress majorization methods, which take ``seed`` and ``init``
_STRESS_METHODS = ("smacof", "local_smacof")


class _Once:
    """The value of ``make()``, made by its first caller, on that caller's
    thread, while later callers wait for it; a call that raises leaves it
    unmade, so the next caller tries again."""

    def __init__(self, make):
        self._make, self._lock = make, threading.Lock()

    def __call__(self):
        with self._lock:
            if self._make is not None:
                self._value = self._make()
                self._make = None
            return self._value


def _classical_start(distances, target_dim):
    """:func:`smacof`'s classical start from ``distances()``, or None where
    the request or classical scaling fails; the job then raises or falls
    back by itself, as it would alone."""
    try:
        dist = distances()
        _require_distance(dist, "smacof", target_dim)
        return _classical_scaling(dist.values**2, target_dim).embedding.items
    except (TypeError, ValueError):
        return None


def _starts_classical(method, params) -> bool:
    init = params.get("init", "classical")
    return (method in _STRESS_METHODS and isinstance(init, str)
            and init == "classical")


def reduction_jobs(source, target_dim: int, jobs,
                   seed: int | None = None) -> list:
    """One callable per ``(method, params)`` in ``jobs``: calling it
    returns ``run_reduction(method, source, target_dim, params, seed)``,
    bit for bit, while the jobs make only once what they would each make
    alike.

    - The Euclidean distances of a configuration ``source`` are taken
      once for every distance method.
    - When two or more stress majorization jobs start from classical
      scaling, they share one start, which each receives as its ``init``
      array; its diagnostics still report ``"classical"``.  Where
      classical scaling rejects the input, each job falls back by itself.

    The first job that needs a shared value makes it, on its own thread,
    while the others wait; the callables may run on any threads, in any
    order.  Each reducer and the distance function are looked up on
    their modules when needed, so a wrapper installed there (a timing
    span, a test double) sees every call.
    """
    jobs = [(method, dict(params or {})) for method, params in jobs]
    for method, _ in jobs:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if isinstance(source, Configuration):
        distances = _Once(lambda: geometry.euclidean_distances(source))
    else:
        def distances():
            return source
    start = None
    if sum(_starts_classical(*job) for job in jobs) > 1:
        start = _Once(lambda: _classical_start(distances, target_dim))

    def job(method, params):
        shared = start is not None and _starts_classical(method, params)

        def run():
            own = dict(params)
            given = start() if shared else None
            if given is not None:
                own["init"] = given
            result = _reduce(method, source, distances, target_dim, own, seed)
            if given is None:
                return result
            return replace(result, diagnostics={**result.diagnostics,
                                                "init": "classical"})
        return run

    return [job(method, params) for method, params in jobs]


def _reduce(method, source, distances, target_dim, params, seed):
    labels = None
    if method not in COORDINATE_METHODS and isinstance(source, Configuration):
        labels = source.labels
        source = distances()
    if method in _STRESS_METHODS and seed is not None:
        params.setdefault("seed", seed)
    reducer = getattr(sys.modules[__name__], method)
    result = reducer(source, target_dim, **params)
    if labels is None:
        return result
    return replace(result, embedding=replace(result.embedding, labels=labels))


def run_reduction(method: str, source, target_dim: int, params: dict | None = None,
                  seed: int | None = None) -> ReductionResult:
    """Run the reducer named ``method`` on coordinates or distances.

    Coordinate methods require a :class:`Configuration`; distance methods
    accept either a :class:`ProximityMatrix` or a configuration,
    from which Euclidean distances are taken.  ``seed`` reaches only the
    stress majorization methods, and only when ``params`` sets none.  The
    embedding carries the labels of a source configuration.

    The reducer and the distance function are looked up on their modules
    at each call, so a wrapper installed there (a timing span, a test
    double) sees every reduction.  :func:`reduction_jobs` runs several
    reductions of one source.
    """
    return reduction_jobs(source, target_dim, [(method, params)], seed)[0]()
