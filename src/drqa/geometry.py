"""Coordinate configurations, pairwise distances, and neighbor rank structures.

A configuration is an ``n x m`` matrix of item coordinates; source data and
embeddings share the representation, and are ranked by their Euclidean
distances.  A proximity matrix holds dense ``n x n`` distances: a caller
who has similarities ``s`` passes ``1 - s``, and one who ranks by another
metric passes its distances.  A rank structure holds, for every item, the
ascending distance rank of each other item.  Rank structures are the only
input the agreement metrics need.

This module owns rank rows.  One block source, :class:`_RankRows`, ranks
one block of rows at a time (:func:`_row_blocks`), straight from a
configuration or a distance matrix, so the rank path never holds an
``n x n`` float matrix.  It also owns the format of both kinds of cache
entry, and :data:`_RANK_BITS`, the name of the rank bits it computes,
which the cache puts in the key and the file name of every entry.  An
entry (:class:`_Entry`) is C-order arrays one after another, each after
its own ``.npy`` header, written to a temporary file that is renamed into
place once complete.  A reader compares once each header, built in memory
as the writer builds it, and the exact file size; no header is parsed.  A
rank entry is one ``int32`` array of shape ``(n, n)``, written in row
order, whose reader then maps and checks one block of rows at a time
(:func:`_check_rank_rows`).  A pair entry is the overlap state of one
compared pair: its ``n - 1`` ``int64`` sums, then, where per-item rates
are kept, its ``int32`` per-item counts of shape ``(n, hi - lo + 1)``
(:func:`_read_counts`, :func:`_write_counts`), checked whole when read.
:func:`rank_structure` assembles every block into one ``int32`` matrix
(4·n² bytes); the pipeline's agree stage instead consumes each block as it
is served and keeps none, ranking the blocks of several artifacts side by
side on the run's workers (:mod:`drqa._workers`).  Those workers share
one block budget, so the rows in flight stay at about ``_BLOCK_CELLS``.
Ranks that come from outside, from callers or from a cache file, are
checked; ranks computed here are permutations by construction and are
not.

A block's rows are ordered by one in-place sort of ``int64`` keys in the
block's own distance buffer (:func:`_stable_order`).  A key is the
distance's bits, which order non-negative floats as integers, with the
low ``s = (n - 1).bit_length()`` bits replaced by the column index; the
keys are unique, so a plain sort gives the stable order wherever no two
neighbors in it share their kept bits.  A row where two do, because they
are equal or differ only in the dropped bits, is sorted once more, by a
stable ``argsort`` of its distances' full bits in the order of the first
sort, so that its tied runs are runs of equal full bits in ascending
index order.  Rows of maps with continuous coordinates almost never need
that second sort.  Nearly every row of an integer survey does: its
answers tie, and imputed column means make distances that are equal up
to their last bits.  Besides its ``8·b·n`` bytes of distances and
``4·b·n`` of ranks, a block of b rows holds ``2·b·n`` bytes of dropped
bits and about 1.6 MB of temporaries while tied rows are re-sorted.
One numpy kernel sums the distances of fully and partially observed
configurations, so a run that reduces nothing never loads SciPy; a pair
is measured over the columns both items observe, without rescaling, so
its distance depends on its two rows alone.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Largest item count of a dense proximity matrix or rank structure.
DENSE_CAP = 20_000

#: Distances held by one block of rows on the rank path (8 MB as float64).
_BLOCK_CELLS = 1 << 20

#: Sorted keys checked, and re-sorted where rows hold ties, at a time by
#: ``_stable_order``, and distances summed at a time by ``_distance_rows``.
_CHUNK_CELLS = 1 << 16

#: Entries of the temporary block that :func:`_symmetrize` works in.
_SYMMETRIZE_CELLS = 1 << 12

#: Names the rank bits that this module computes: its distance kernel and
#: tie rule.  A change that moves any rank bit changes it, together with
#: the digests pinned by the golden rank test, so that no cache entry made
#: by other code is read.
_RANK_BITS = 2


def _readonly(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _symmetrize(m: np.ndarray, out: np.ndarray | None = None) -> float:
    """Write ``(m + m.T) / 2`` into ``out``, or into ``m`` itself, and
    return the largest ``|m[i, j] - m[j, i]|``.

    Each entry is ``(m[i, j] + m[j, i]) / 2.0``, the same operations as
    in that expression, so the same bits, made a block of rows at a time
    instead of in n x n temporaries, or ``m[i, j] / 2 + m[j, i] / 2``
    where the sum overflows.  ``m`` must be free of NaN.
    """
    if out is None:
        out = m
    n = m.shape[0]
    step = max(1, _SYMMETRIZE_CELLS // n)
    worst = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        upper, lower = m[lo:hi, lo:], m[lo:, lo:hi].T
        with np.errstate(over="ignore"):  # an inf gap is not symmetric
            block = np.subtract(upper, lower)
            worst = max(worst, float(np.abs(block, out=block).max()))
            np.add(upper, lower, out=block)
        block /= 2.0
        over = np.isinf(block)
        if over.any():
            block[over] = upper[over] / 2.0 + lower[over] / 2.0
        out[lo:hi, lo:] = block
        out[lo:, lo:hi] = block.T
    return worst


@dataclass(frozen=True, eq=False)
class Configuration:
    """``n`` items with ``m`` real coordinates.

    Parameters
    ----------
    items : ndarray of shape (n, m)
        Item coordinates, one row per item.
    labels : tuple of str, optional
        Unique item labels; ``None`` means unlabeled.
    mask : ndarray of bool of shape (n, m), optional
        Presence mask; ``True`` marks an observed cell.  ``None`` means fully
        observed.  Every observed cell must be finite.
    """

    items: np.ndarray
    labels: tuple[str, ...] | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        items = np.asarray(self.items, dtype=float)
        if items.ndim != 2:
            raise ValueError(f"items must be 2-d, got shape {items.shape}")
        n, m = items.shape
        if n < 2:
            raise ValueError(f"need at least 2 items, got {n}")
        if m < 1:
            raise ValueError("need at least 1 dimension")
        mask = self.mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != items.shape:
                raise ValueError(
                    f"mask shape {mask.shape} does not match items {items.shape}"
                )
            if bool(mask.all()):
                mask = None
        observed = items if mask is None else np.where(mask, items, 0.0)
        bad = ~np.isfinite(observed)
        if bad.any():
            i, l = np.argwhere(bad)[0]
            raise ValueError(f"non-finite value at item {i}, dimension {l}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} items")
            if len(set(labels)) != n:
                raise ValueError("labels must be unique")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "items", _readonly(items, float))
        if mask is not None:
            mask = _readonly(mask, bool)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.items.shape[0]

    @property
    def m(self) -> int:
        return self.items.shape[1]

    @property
    def fully_observed(self) -> bool:
        return self.mask is None


@dataclass(frozen=True, eq=False)
class ProximityMatrix:
    """Dense symmetric ``n x n`` distances between items.

    The diagonal is zero and every entry is finite and non-negative.
    Asymmetry, a non-zero diagonal and negative entries within tolerance
    are repaired (averaged, zeroed, clamped to ``+0.0``); anything beyond
    tolerance is rejected.  Similarities ``s`` are passed as ``1 - s``.
    """

    values: np.ndarray

    _SYM_TOL = 1e-9

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"proximity matrix must be square, got {v.shape}")
        if v.shape[0] < 2:
            raise ValueError("need at least 2 items")
        # min and max see any NaN or inf without an n x n mask, and one
        # n x n buffer holds the average, then the result: extra
        # temporaries raise the peak memory of threaded reduce stages
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("proximity values must be finite")
        out = np.empty(v.shape)
        if _symmetrize(v, out) > self._SYM_TOL:
            raise ValueError("proximity matrix is not symmetric")
        if np.abs(np.diag(out)).max() > self._SYM_TOL:
            raise ValueError("distance diagonal must be zero")
        if out.min() < -self._SYM_TOL:
            raise ValueError("distances must be non-negative")
        np.maximum(out, 0.0, out=out)  # tiny negatives and -0.0 become +0.0
        np.fill_diagonal(out, 0.0)
        out.setflags(write=False)
        object.__setattr__(self, "values", out)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class RankStructure:
    """Per-item neighbor ranks.

    ``ranks[i, j]`` is the ascending rank (1 .. n-1) of item ``j`` among the
    neighbors of item ``i``; the unused diagonal is zero, so each row is a
    permutation of ``0 .. n-1``.  ``int32`` holds ``(n - 1)^2`` up to
    n = 46 341, above :data:`DENSE_CAP`.
    """

    ranks: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.ranks)
        n = ranks.shape[0]
        if ranks.shape != (n, n) or n < 2:
            raise ValueError(f"ranks must be square n >= 2, got {ranks.shape}")
        if ranks.dtype.kind not in "iu":
            raise ValueError(f"ranks must be integers, got {ranks.dtype}")
        _check_rank_rows(ranks, 0)
        object.__setattr__(self, "ranks", _readonly(ranks, np.int32))

    @classmethod
    def _trusted(cls, ranks: np.ndarray) -> "RankStructure":
        """Adopt ``int32`` ranks built here, without a copy or a check.

        Only for ranks that are permutations by construction; the array is
        made read-only in place.
        """
        structure = object.__new__(cls)
        ranks.setflags(write=False)
        object.__setattr__(structure, "ranks", ranks)
        return structure

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def neighbors(self) -> np.ndarray:
        """``neighbors[i, r - 1]`` is the item holding rank ``r`` for ``i``."""
        return np.argsort(self.ranks, axis=1)[:, 1:]


def _check_rank_rows(rows: np.ndarray, start: int) -> None:
    """Raise unless ``rows`` are valid rank rows of items ``start ..``.

    Each row must hold 0 at its own item and every rank ``0 .. n-1``
    exactly once.  The last check marks each row's ranks, offset by the
    row's start in a flat bool buffer, with one scatter per chunk of rows
    as large as a rank block, so its ``intp`` index is one block's size,
    not ``b * n``.
    """
    b, n = rows.shape
    local = np.arange(b)
    if rows[local, start + local].any():
        raise ValueError("rank diagonal must be zero")
    if rows.min() < 0 or rows.max() > n - 1:
        raise ValueError(f"ranks must lie in 0 .. {n - 1}")
    step = max(1, _BLOCK_CELLS // n)
    seen = np.empty(min(step, b) * n, dtype=bool)
    offsets = np.arange(0, seen.size, n, dtype=np.intp)[:, None]
    for lo in range(0, b, step):
        part = rows[lo:lo + step]
        index = np.add(part, offsets[:len(part)], dtype=np.intp)
        marks = seen[:index.size]
        marks.fill(False)
        marks[index.reshape(-1)] = True
        if not marks.all():
            raise ValueError("each row of ranks must hold every rank once")


def _row_blocks(n: int, workers: int = 1) -> list:
    """``(start, stop)`` of consecutive row blocks covering rows ``0 .. n-1``.

    ``workers`` threads that each hold one block at a time share the
    budget of ``_BLOCK_CELLS`` cells, so each block gets about
    ``_BLOCK_CELLS // workers`` of them, and at least one row.
    """
    step = max(1, _BLOCK_CELLS // workers // n)
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def _check_cap(n: int):
    if n > DENSE_CAP:
        raise ValueError(f"n = {n} exceeds the dense proximity cap of {DENSE_CAP}")


def euclidean_distances(config: Configuration) -> ProximityMatrix:
    """Euclidean distances between all item pairs of a configuration.

    A pair of rows is measured over the columns both observe, without
    rescaling, so its distance depends on its two rows alone; every pair
    must share an observed column.  More than :data:`DENSE_CAP` items are
    rejected.  Another metric enters as a :class:`ProximityMatrix`.
    """
    _check_cap(config.n)
    return ProximityMatrix(_distance_rows(config, 0, config.n))


def _distance_rows(config: Configuration, start: int, stop: int) -> np.ndarray:
    """Euclidean distances from items ``start .. stop - 1`` to every item,
    with ``cdist``'s arithmetic, bit for bit: the squared coordinate
    differences summed in dimension order, then the root.

    Rows are summed ``_CHUNK_CELLS`` distances at a time, one dimension
    after another, from a contiguous copy of the transposed items.  A
    masked cell counts as 0, and the square of a dimension that a pair
    does not share is set to 0, so a pair sums its shared dimensions only.
    A pair's value does not depend on its block, and ``d(i, j)`` equals
    ``d(j, i)`` bit for bit.
    """
    x, mask = config.items, config.mask
    n = x.shape[0]
    if mask is not None:
        x = np.where(mask, x, 0.0)
        absent = np.ascontiguousarray(~mask.T)
    cols = np.ascontiguousarray(x.T)
    d = np.empty((stop - start, n))
    step = max(1, _CHUNK_CELLS // n)
    square = np.empty(min(step, stop - start) * n)
    with np.errstate(over="ignore"):  # cdist overflows to inf silently
        # with numpy's default 8192-value ufunc buffer, a broadcast
        # subtract of rows under 2731 columns copies several rows through
        # the buffer at a time, at twice the cost of one row per inner
        # loop; the setting ends with the block
        np.setbufsize(16)
        for lo in range(start, stop, step):
            part = d[lo - start:lo - start + step]
            hi = lo + len(part)
            term = square[:part.size].reshape(part.shape)
            if mask is not None:  # pairs missing one dimension, and all so far
                gap, alone = np.empty((2, *part.shape), dtype=bool)
            for k, col in enumerate(cols):
                diff = part if k == 0 else term
                np.subtract(col[lo:hi, None], col, out=diff)
                np.square(diff, out=diff)
                if mask is not None:  # set, not multiplied: inf * 0 is NaN
                    unshared = np.logical_or(absent[k, lo:hi, None], absent[k],
                                             out=alone if k == 0 else gap)
                    np.copyto(diff, 0.0, where=unshared)
                    alone &= unshared
                if k:
                    part += term
            if mask is not None:
                alone[np.arange(len(part)), np.arange(lo, hi)] = False
                if alone.any():
                    i, j = divmod(int(alone.argmax()), n)
                    ids = config.labels or range(n)
                    raise ValueError(f"items {ids[lo + i]!r} and {ids[j]!r} "
                                     "share no observed dimension")
    return np.sqrt(d, out=d)


def rank_structure(source: ProximityMatrix | Configuration) -> RankStructure:
    """Neighbor ranks of every item under a distance matrix or a configuration.

    Parameters
    ----------
    source : ProximityMatrix or Configuration
        A configuration is ranked by its Euclidean distances, as
        :func:`euclidean_distances` computes them; another metric enters
        as a distance matrix.

    Ties are broken by ascending item index, so every row is the stable
    ascending order of its distances and the result is deterministic for any
    input.  Rows are computed in blocks of about ``_BLOCK_CELLS`` distances;
    no ``n x n`` float matrix is built.
    """
    return _RankRows(source).structure()


class _Entry:
    """One cache entry: C-order arrays one after another, each after its
    own ``.npy`` header.

    ``layout`` gives each array's dtype and shape.  Every header is built
    once, in memory, as numpy writes it.  :meth:`fits` compares an open
    entry with those bytes and with its exact size.  :meth:`create` opens
    a temporary file beside ``path``, with the mode that the process
    umask leaves of 0666, as for any file the program writes;
    :meth:`append` adds the arrays in layout order, each header written
    before its array, and :meth:`close` renames the file into place once
    it holds every byte, or removes it.
    """

    def __init__(self, path: Path, layout):
        self.path = path
        self.parts = []  # (header, dtype, shape, where its data starts)
        end = 0
        for dtype, shape in layout:
            buffer = io.BytesIO()
            np.lib.format.write_array_header_1_0(buffer, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
                "fortran_order": False, "shape": shape})
            header = buffer.getvalue()
            end += len(header)
            self.parts.append((header, np.dtype(dtype), shape, end))
            end += np.dtype(dtype).itemsize * math.prod(shape)
        self.size = end
        self._file = None

    def fits(self, f) -> bool:
        """Whether the open entry ``f`` holds every header in its place and
        is exactly as long as the layout."""
        for header, _, _, start in self.parts:
            f.seek(start - len(header))
            if f.read(len(header)) != header:
                return False
        return os.fstat(f.fileno()).st_size == self.size

    def read(self, f, part: int) -> np.ndarray:
        """Array ``part`` of the open entry ``f``, read-only."""
        _, dtype, shape, start = self.parts[part]
        f.seek(start)
        data = f.read(dtype.itemsize * math.prod(shape))
        return np.frombuffer(data, dtype).reshape(shape)

    def create(self) -> None:
        # made as open() makes files, so that the process umask applies
        # (mkstemp makes every file 0600); O_EXCL keeps the name unique
        while True:
            self._tmp = self.path.with_name(
                f"{self.path.stem}.{os.urandom(8).hex()}.tmp")
            try:
                fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o666)
                break
            except FileExistsError:
                continue
        self._file = os.fdopen(fd, "wb")
        self._at = 0
        try:
            self._headers()
        except BaseException:
            self.close(complete=False)
            raise

    def append(self, data: np.ndarray) -> None:
        data.tofile(self._file)
        self._at += data.nbytes
        self._headers()

    def _headers(self) -> None:
        """Write the header of each array that starts where the file ends."""
        for header, _, _, start in self.parts:
            if self._at == start - len(header):
                self._file.write(header)
                self._at = start

    def close(self, complete: bool) -> None:
        """Rename a fully written entry into place, or remove it."""
        if self._file is None:
            return
        self._file.close()
        self._file = None
        if complete and self._at == self.size:
            os.replace(self._tmp, self.path)
        else:
            os.unlink(self._tmp)


class _RankRows:
    """The rank rows of a configuration or a distance matrix, served block
    by block, in row order.

    Without a ``path``, each block is ranked when it is asked for.  With a
    rank entry at ``path``, its header and size are checked once, on
    construction, and each block maps only its own rows through its own
    ``mmap``, so the pages of earlier blocks are released, and is checked
    before use.
    With a ``path`` that does not exist yet, the ranked blocks are written
    to a new entry that ``close`` renames into place once every row is in
    it; use the object as a context manager then.
    ``name`` names the ranked artifact in errors.
    """

    def __init__(self, source: ProximityMatrix | Configuration,
                 path: Path | None = None, name: str | None = None):
        self.from_config = isinstance(source, Configuration)
        _check_cap(source.n)
        self.source = source
        self.path = path
        self.name = name
        self._entry = None
        self._written = 0
        self.cached = path is not None and path.exists()
        if path is None:
            return
        n = source.n
        self._entry = _Entry(path, ((np.int32, (n, n)),))
        self._offset = self._entry.parts[0][3]
        if self.cached:  # a wrong shape or type fails before any work
            with path.open("rb") as f:
                whole = self._entry.fits(f)
            if not whole:
                raise ValueError(
                    f"rank cache entry {path.name} for {name!r} is not a "
                    f"C-order int32 .npy array of shape {(n, n)}")
            return
        self._entry.create()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(complete=exc_type is None)

    def block(self, start: int, stop: int) -> np.ndarray:
        """The ``int32`` rank rows of items ``start .. stop - 1``."""
        if self.cached:
            n = self.source.n
            rows = np.memmap(self.path, np.int32, "r",
                             self._offset + 4 * start * n, (stop - start, n))
            try:
                _check_rank_rows(rows, start)
            except ValueError as exc:
                raise ValueError(f"rank cache entry {self.path.name} for "
                                 f"{self.name!r}: {exc}") from None
            return rows
        if self.from_config:
            try:
                d = _distance_rows(self.source, start, stop)
            except ValueError as exc:  # two items share no dimension
                raise (ValueError(f"{self.name}: {exc}") if self.name
                       else exc) from None
        else:
            d = self.source.values[start:stop].copy()
        rows = np.empty(d.shape, dtype=np.int32)
        _rank_rows(d, rows, start)
        if self._entry is not None:
            if start != self._written:
                raise ValueError("rank rows must be written in order")
            self._entry.append(rows)
            self._written = stop
        return rows

    def structure(self) -> RankStructure:
        """Every row, assembled into one rank structure."""
        n = self.source.n
        ranks = np.empty((n, n), dtype=np.int32)
        for start, stop in _row_blocks(n):
            ranks[start:stop] = self.block(start, stop)
        return RankStructure._trusted(ranks)

    def close(self, complete: bool) -> None:
        """Rename a fully written rank entry into place, or remove it."""
        if self._entry is not None:
            self._entry.close(complete)


def _read_counts(path: Path, n: int, columns: tuple | None,
                 what: str) -> tuple | None:
    """``(sums, head)`` from the pair entry at ``path``, or None if there is
    no entry; ``head`` is None where ``columns`` is.

    The entry must hold exactly the ``int64`` sums of every k, then, for
    ``columns = (lo, hi)``, the ``int32`` per-item counts of k = lo .. hi,
    and what every overlap count of ``n`` items satisfies: the last sum
    is ``n(n - 1)``, every per-item count of ``k`` lies in ``0 .. k``, and
    each kept column sums to the total of its ``k``.  ``what`` names the
    compared pair in errors.
    """
    layout = [(np.int64, (n - 1,))]
    if columns is not None:
        lo, hi = columns
        layout.append((np.int32, (n, hi - lo + 1)))
    entry = _Entry(path, layout)
    try:
        f = path.open("rb")
    except FileNotFoundError:
        return None
    with f:
        if not entry.fits(f):
            head = ("" if columns is None else " and an int32 .npy array "
                    f"of shape {layout[1][1]}")
            raise ValueError(f"pair cache entry {path.name} for {what} is "
                             f"not an int64 .npy vector of length {n - 1}"
                             f"{head}")
        sums = entry.read(f, 0)
        head = None if columns is None else entry.read(f, 1)
    problem = None
    if sums[-1] != n * (n - 1):
        problem = f"the last sum is not n(n - 1) = {n * (n - 1)}"
    elif head is not None:
        if head.min() < 0 or (head > np.arange(lo, hi + 1)).any():
            problem = "a per-item count of k lies outside 0 .. k"
        elif not np.array_equal(head.sum(axis=0, dtype=np.int64),
                                sums[lo - 1:hi]):
            problem = "a per-item column does not sum to the total of its k"
    if problem is not None:
        raise ValueError(f"pair cache entry {path.name} for {what}: {problem}")
    return sums, head


def _write_counts(path: Path, sums: np.ndarray,
                  head: np.ndarray | None) -> None:
    """Write a pair entry of ``sums`` and, if given, ``head``."""
    arrays = (sums,) if head is None else (sums, head)
    entry = _Entry(path, [(a.dtype, a.shape) for a in arrays])
    entry.create()
    try:
        for a in arrays:
            entry.append(a)
    except BaseException:
        entry.close(complete=False)
        raise
    entry.close(complete=True)


def _rank_rows(d: np.ndarray, out: np.ndarray, start: int) -> None:
    """Write into ``out`` the ranks of items ``start ..`` from their rows ``d``.

    ``d`` is overwritten.
    """
    b, n = d.shape
    local = np.arange(b)
    d[local, start + local] = np.inf
    ranks = np.arange(1, n + 1, dtype=np.int32)
    # one 1-d scatter per row costs less than put_along_axis' 2-d one
    for row, order in zip(out, _stable_order(d)):
        row[order] = ranks
    out[local, start + local] = 0


def _stable_order(d: np.ndarray) -> np.ndarray:
    """``np.argsort(d, axis=1, kind="stable")`` for a 2-d float64 array
    without NaN, ±inf allowed.

    ``d`` is overwritten, and the result is an ``int64`` view of its
    buffer.  Each value's bits, read as an ``int64`` (``-0.0`` made
    ``+0.0`` and a negative value's bits below the sign flipped), order
    the values; replacing the low ``s = (n - 1).bit_length()`` of them by
    the column index gives unique keys, sorted in place by one plain
    ``ndarray.sort``.  Where no two neighbors in that order share their
    kept bits, it is the stable order.  A row where some do (ties, or
    values that differ only in the dropped bits) is sorted once more: a
    stable ``argsort`` of its values' full bits, taken in the first
    sort's order, where equal values already stand by ascending index.
    The same two sorts serve rows of every width.  The dropped bits wait
    in a copy of 2 bytes per value (4 above 2¹⁶ columns), and rows are
    checked and re-sorted ``_CHUNK_CELLS`` values at a time, in three
    ``int64`` arrays of a chunk, so beyond ``d`` the call holds
    ``2 * d.size`` bytes and about 1.6 MB.
    """
    b, n = d.shape
    key = d.view(np.int64)
    if key.size and key.min() < 0:  # a sign bit: -0.0 or a negative value
        d += 0.0
        np.bitwise_xor(key, np.iinfo(np.int64).max, out=key, where=key < 0)
    low = (1 << (n - 1).bit_length()) - 1
    # the low bits that the keys drop; wider types keep a few more
    dropped = key.astype(np.uint16 if low <= 0xFFFF else np.uint32)
    key &= ~low
    key |= np.arange(n)
    key.sort(axis=1)
    step = max(1, _CHUNK_CELLS // n)
    for lo in range(0, b, step):
        part = key[lo:lo + step]
        # rows where some key's kept bits equal those of the key before it
        same = np.bitwise_xor(part[:, 1:], part[:, :-1]).view(np.uint64) <= low
        tied = np.flatnonzero(same.any(axis=1))
        if not tied.size:
            continue
        full = part[tied]  # the values' full bits, in the order of the sort
        index = full & low
        full &= ~low
        full |= dropped[lo + tied[:, None], index] & low
        # equal values stand by ascending index already, and stay so
        order = np.argsort(full, axis=1, kind="stable")
        del full  # at most three chunk arrays at once, none kept past its chunk
        part[tied] = np.take_along_axis(index, order, axis=1)
        del index, order
    key &= low
    return key


def ranks_from_config(config: Configuration) -> RankStructure:
    """Neighbor ranks of a configuration under Euclidean distances.

    The same as ``rank_structure(euclidean_distances(config))``, ties by
    ascending index included, without building the distance matrix.
    """
    return rank_structure(config)
