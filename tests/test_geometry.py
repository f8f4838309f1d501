"""Configurations, distances, and rank structures."""

import hashlib
import math
import re
import threading
import time
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from drqa import geometry
from drqa._workers import _pool, _run_pool
from drqa.geometry import (
    Configuration,
    ProximityMatrix,
    RankStructure,
    euclidean_distances,
    rank_structure,
    ranks_from_config,
)
from drqa.ingest import impute_column_mean
from drqa.pipeline import _RankCache

from oracles import naive_neighbors, naive_ranks


class TestConfiguration:
    def test_basic_construction(self):
        c = Configuration(np.arange(6.0).reshape(3, 2), labels=("a", "b", "c"))
        assert c.n == 3 and c.m == 2
        assert c.fully_observed

    def test_items_are_frozen(self):
        c = Configuration(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            c.items[0, 0] = 1.0

    def test_single_item_rejected(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((1, 3)))

    def test_non_finite_cell_named(self):
        x = np.zeros((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="item 1, dimension 1"):
            Configuration(x)

    def test_masked_nan_allowed(self):
        x = np.zeros((3, 2))
        x[1, 1] = np.nan
        mask = np.ones((3, 2), bool)
        mask[1, 1] = False
        c = Configuration(x, mask=mask)
        assert not c.fully_observed

    def test_all_true_mask_collapses(self):
        c = Configuration(np.zeros((2, 2)), mask=np.ones((2, 2), bool))
        assert c.mask is None

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((2, 2)), labels=("x", "x"))


class TestEuclideanDistances:
    def test_unit_square(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
        d = euclidean_distances(Configuration(pts)).values
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 3] == pytest.approx(np.sqrt(2))
        assert (np.diag(d) == 0).all()

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(geometry, "DENSE_CAP", 4)
        c = Configuration(np.zeros((5, 1)))
        with pytest.raises(ValueError, match="cap"):
            euclidean_distances(c)

    def test_masked_pairs_use_shared_columns(self):
        x = np.array([[0.0, 10.0], [3.0, 0.0], [0.0, 6.0]])
        mask = np.array([[True, True], [True, False], [True, True]])
        d = euclidean_distances(Configuration(x, mask=mask)).values
        # items 0 and 1 share only the first column
        assert d[0, 1] == pytest.approx(3.0)
        assert d[0, 2] == pytest.approx(4.0)

    def test_no_shared_columns_rejected(self):
        x = np.zeros((2, 2))
        mask = np.array([[True, False], [False, True]])
        with pytest.raises(ValueError, match="share no observed"):
            euclidean_distances(Configuration(x, mask=mask))

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1.0, 1e150, 1e200])
    @pytest.mark.parametrize("m", [1, 2, 3, 12, 20])
    def test_rows_are_cdist(self, monkeypatch, m, scale):
        """Bit for bit, through underflow, overflow, coincident items and
        items one float apart, in blocks that start mid-array and cross
        the edges of the chunks the rows are summed in.  With missing
        cells (above one column), a pair's distance is the root of its
        squared differences over the columns both items observe, summed
        in column order."""
        n = 45
        rng = np.random.default_rng(m)
        x = rng.standard_normal((n, m)) * scale
        x[3] = x[5]
        x[7] = np.nextafter(x[9], np.inf)
        cases = [(Configuration(x), cdist(x, x, "minkowski", p=2.0))]
        if m > 1:  # column 0 stays observed, so every pair shares one
            mask = rng.random((n, m)) < 0.7
            mask[:, 0] = True
            mask[::3] = True
            mask[3] = mask[5]
            holes = np.where(mask, x, np.nan)
            cases.append((Configuration(holes, mask=mask),
                          masked_distance_oracle(x, mask)))
        for config, want in cases:
            for chunk_rows in (1, 4, n):
                monkeypatch.setattr(geometry, "_CHUNK_CELLS", chunk_rows * n)
                for start, stop in ((0, n), (7, 30), (13, 14), (29, n)):
                    got = geometry._distance_rows(config, start, stop)
                    assert got.tobytes() == want[start:stop].tobytes()
            if np.isfinite(want).all():
                got = euclidean_distances(config).values
                assert got.tobytes() == want.tobytes()
            else:  # the squares overflow, in cdist as here
                with pytest.raises(ValueError, match="must be finite"):
                    euclidean_distances(config)

    @pytest.mark.parametrize("m", [2, 12])
    @pytest.mark.parametrize("n", [600, 2000])
    def test_wide_rows_are_cdist(self, n, m):
        """Rows of 600 and 2000 columns, which numpy's default ufunc buffer
        would carry several at a time, keep cdist's bits, and masked rows
        the column-order oracle's; the buffer size comes back after."""
        rng = np.random.default_rng(n + m)
        x = rng.standard_normal((n, m))
        x[3] = x[5]
        x[7] = np.nextafter(x[9], np.inf)
        buffer = np.getbufsize()
        block = min(n, geometry._BLOCK_CELLS // n)  # one rank block
        for start, stop in ((0, block), (n - 37, n)):
            got = geometry._distance_rows(Configuration(x), start, stop)
            assert got.tobytes() == cdist(x[start:stop], x).tobytes()
        mask = rng.random((n, m)) < 0.7
        mask[:, 0] = True
        holes = Configuration(np.where(mask, x, np.nan), mask=mask)
        got = geometry._distance_rows(holes, n - 3, n)
        want = masked_distance_oracle(x, mask, n - 3, n)
        assert got.tobytes() == want.tobytes()
        assert np.getbufsize() == buffer

    @pytest.mark.parametrize("m", [8, 12])
    def test_missing_cell_changes_its_own_row_only(self, m):
        """Dropping one cell of an item changes no distance between two
        other items, not even in its last bit."""
        n = 50
        x = np.random.default_rng(m).standard_normal((n, m))
        before = euclidean_distances(Configuration(x)).values
        mask = np.ones((n, m), dtype=bool)
        mask[n - 1, 3] = False
        x[n - 1, 3] = np.nan
        after = euclidean_distances(Configuration(x, mask=mask)).values
        others = slice(0, n - 1)
        assert after[others, others].tobytes() == (
            before[others, others].tobytes())
        assert (after[n - 1, others] != before[n - 1, others]).any()

    @pytest.mark.parametrize("labels", [None, tuple("abcdefghij")])
    def test_no_shared_columns_names_the_first_pair(self, monkeypatch,
                                                    labels):
        """The first pair in row order that shares no column is named,
        by index or by label, at every chunk size and block start."""
        n = 10
        mask = np.ones((n, 3), dtype=bool)
        mask[[2, 4], 0:2] = False      # 2 and 4 observe column 2 only
        mask[[6, 7], 2] = False        # 6 and 7 miss column 2
        mask[8, 1:] = False            # 8 observes column 0 only
        x = np.where(mask, 1.0, np.nan)
        config = Configuration(x, labels=labels, mask=mask)

        def named(i, j):
            if labels is not None:
                i, j = repr(labels[i]), repr(labels[j])
            return f"^items {i} and {j} share no observed dimension$"

        for chunk_rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_CHUNK_CELLS", chunk_rows * n)
            for start, first in ((0, (2, 6)), (3, (4, 6)), (5, (6, 2)),
                                 (8, (8, 2))):
                with pytest.raises(ValueError, match=named(*first)):
                    geometry._distance_rows(config, start, n)
            with pytest.raises(ValueError, match=named(2, 6)):
                euclidean_distances(config)
            with pytest.raises(ValueError, match=named(2, 6)):
                rank_structure(config)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        d = euclidean_distances(Configuration(rng.standard_normal((n, 3)))).values
        lhs = d[:, :, None]
        rhs = d[:, None, :] + d[None, :, :]
        assert (lhs <= rhs + 1e-9).all()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry_and_identity(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((8, 2))
        d = euclidean_distances(Configuration(pts)).values
        assert np.abs(d - d.T).max() == 0.0
        assert (np.diag(d) == 0).all()


def masked_distance_oracle(x, mask, start=0, stop=None):
    """Each pair's root of ``(x_ik - x_jk) * (x_ik - x_jk)`` summed over
    the columns k both rows observe, in column order, in Python floats,
    for the rows ``start .. stop - 1`` (all by default)."""
    n, m = x.shape
    stop = n if stop is None else stop
    rows = x.tolist()
    d = np.empty((stop - start, n))
    for i in range(start, stop):
        for j in range(n):
            total = 0.0
            for k in range(m):
                if mask[i, k] and mask[j, k]:
                    diff = rows[i][k] - rows[j][k]
                    total += diff * diff
            d[i - start, j] = math.sqrt(total)
    return d


def reference_proximity_values(values, tol=1e-9):
    """The distance constructor's values, spelled out: check, average with
    the transpose (halves first where the sum overflows), clamp, fill the
    diagonal and copy."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("proximity values must be finite")
    if np.abs(v - v.T).max() > tol:
        raise ValueError("proximity matrix is not symmetric")
    average = (v + v.T) / 2.0
    v = np.where(np.isinf(average), v / 2.0 + v.T / 2.0, average)
    if np.abs(np.diag(v)).max() > tol:
        raise ValueError("distance diagonal must be zero")
    if v.min() < -tol:
        raise ValueError("distances must be non-negative")
    v = np.maximum(v, 0.0)
    np.fill_diagonal(v, 0.0)
    return np.array(v, dtype=float, copy=True)


PROXIMITY_CELLS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1.0 + 5e-10, -1.0 - 5e-10, 1.5, 3e-10, -3e-10,
     -2e-9, 5e-324, 1e308]) | st.floats(-2, 2)


@np.errstate(over="ignore", invalid="ignore")  # 1e308 + 1e308 is inf
def check_against_reference(v):
    caller = v.copy()
    try:
        expected = reference_proximity_values(v)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            ProximityMatrix(v)
    else:
        got = ProximityMatrix(v).values
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        assert not np.shares_memory(got, v)
    assert v.tobytes() == caller.tobytes()


class TestProximityMatrix:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5), st.booleans(), st.booleans(), st.data())
    def test_matches_reference_constructor(self, n, symmetric, zero_diagonal,
                                           data):
        v = np.array(data.draw(st.lists(PROXIMITY_CELLS, min_size=n * n,
                                        max_size=n * n))).reshape(n, n)
        if symmetric:  # most real inputs are exactly symmetric
            v = np.triu(v) + np.triu(v, 1).T
        if zero_diagonal:
            np.fill_diagonal(v, 0.0)
        check_against_reference(v)

    # a single "kind": case ids keep the suffix they had when a proximity
    # matrix could also hold similarities
    @pytest.mark.parametrize("kind", ["distance"])
    @pytest.mark.parametrize("upper, lower", [
        (1e308, 1e308),    # symmetric, but x + x overflows
        (-0.0, -0.0),      # symmetric negative zeros
        (-0.0, 0.0),       # equal, but not bit for bit
        (-3e-10, -3e-10),  # a negative within tolerance
        (1.0 + 5e-10, 1.0 + 5e-10),
        (0.25, 0.25 + 1e-12),
        (np.nan, np.nan),
        (np.inf, np.inf),
    ])
    @pytest.mark.parametrize("diagonal", [0.0, -0.0, 2e-10, 1.0, 1.0 - 2e-10])
    def test_edge_values_match_reference(self, kind, upper, lower, diagonal):
        v = np.full((3, 3), 0.5)
        v[0, 2], v[2, 0] = upper, lower
        np.fill_diagonal(v, diagonal)
        check_against_reference(v)

    def test_largest_finite_distances_stay_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ProximityMatrix([[0.0, 1e308], [1e308, 0.0]]).values
        assert got.tolist() == [[0.0, 1e308], [1e308, 0.0]]

    def test_asymmetry_rejected(self):
        v = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ProximityMatrix(v)

    def test_negative_distance_rejected(self):
        v = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            ProximityMatrix(v)


class TestRankStructure:
    def test_matches_naive_neighbors(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((12, 3))
        rs = ranks_from_config(Configuration(pts))
        nb = naive_neighbors(pts)
        assert (rs.neighbors == np.array(nb)).all()
        assert (rs.ranks == naive_ranks(nb)).all()

    def test_rows_are_permutations(self):
        rng = np.random.default_rng(8)
        rs = ranks_from_config(Configuration(rng.standard_normal((15, 2))))
        n = rs.n
        off = ~np.eye(n, dtype=bool)
        for i in range(n):
            assert sorted(rs.ranks[i][off[i]]) == list(range(1, n))

    def test_ties_break_by_index(self):
        # items 1 and 2 are equidistant from item 0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]])
        rs = ranks_from_config(Configuration(pts))
        assert rs.ranks[0, 1] == 1
        assert rs.ranks[0, 2] == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["square", "sqrt", "scale"]))
    def test_invariance_under_monotone_transform(self, seed, kind):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((10, 3))
        d = euclidean_distances(Configuration(pts))
        if kind == "square":
            v = d.values**2
        elif kind == "sqrt":
            v = np.sqrt(d.values)
        else:
            v = 3.5 * d.values
        rs1 = rank_structure(d)
        rs2 = rank_structure(ProximityMatrix(v))
        assert (rs1.ranks == rs2.ranks).all()

    def test_stored_as_int32(self):
        rs = RankStructure(np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]]))
        assert rs.ranks.dtype == np.int32
        assert (rs.neighbors == [[1, 2], [0, 2], [1, 0]]).all()

    def test_computed_ranks_are_read_only_and_unchecked(self, monkeypatch):
        def no_check(rows, start):
            raise AssertionError("computed ranks were checked")

        monkeypatch.setattr(geometry, "_check_rank_rows", no_check)
        config = Configuration(np.random.default_rng(4).standard_normal((9, 2)))
        for rs in (rank_structure(config),
                   rank_structure(euclidean_distances(config))):
            assert rs.ranks.dtype == np.int32
            assert not rs.ranks.flags.writeable
            with pytest.raises(ValueError):
                rs.ranks[0, 1] = 5

    def test_caller_ranks_are_copied(self):
        ranks = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]], dtype=np.int32)
        rs = RankStructure(ranks)
        ranks[0, 1], ranks[0, 2] = 2, 1
        assert rs.ranks[0, 1] == 1 and not rs.ranks.flags.writeable

    @pytest.mark.parametrize("ranks, message", [
        ([[0, 1, 1], [1, 0, 2], [2, 1, 0]], "every rank once"),
        ([[0, 1, 3], [1, 0, 2], [2, 1, 0]], "lie in 0 .. 2"),
        ([[0, 1, 2], [1, 0, 2], [2, -1, 0]], "lie in 0 .. 2"),
        ([[1, 0, 2], [1, 0, 2], [2, 1, 0]], "diagonal"),
        ([[0., 1., 2.], [1., 0., 2.], [2., 1., 0.]], "integers"),
    ], ids=["repeated", "too_large", "negative", "diagonal", "float"])
    def test_rows_must_be_rank_permutations(self, ranks, message):
        with pytest.raises(ValueError, match=message):
            RankStructure(np.array(ranks))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16,
                                       np.uint64])
    def test_check_runs_in_chunks_of_a_block(self, monkeypatch, dtype):
        """Rows are checked a block's worth at a time: a fault in any
        chunk, the last and partial one included, is found, and the
        diagonal and range checks still come first over all rows."""
        n = 40
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 3 * n)
        good = ranks_from_config(Configuration(
            np.random.default_rng(3).standard_normal((n, 2)))).ranks
        assert np.array_equal(RankStructure(good.astype(dtype)).ranks, good)
        for row in (0, 2, 3, 20, n - 1):
            bad = good.astype(dtype)
            bad[row, bad[row] == 2] = 1
            with pytest.raises(ValueError, match="every rank once"):
                RankStructure(bad)
            bad[n - 1 - row, n - 1 - row] = n  # both faults: diagonal first
            with pytest.raises(ValueError, match="diagonal"):
                RankStructure(bad)


def dense_reference_ranks(prox):
    """Ranks by a stable argsort of the full matrix, ties by ascending index."""
    work = prox.values.copy()
    np.fill_diagonal(work, np.inf)
    order = np.argsort(work, axis=1, kind="stable")
    n = prox.n
    ranks = np.zeros((n, n), dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, n + 1)[None, :], axis=1)
    np.fill_diagonal(ranks, 0)
    return ranks


def blocked_inputs(kind, n, rng):
    """(items, mask) of one kind of test input with n items."""
    if kind == "gaussian":
        return rng.standard_normal((n, 3)), None
    if kind == "ties":
        return rng.integers(0, 3, (n, 4)).astype(float), None
    if kind == "duplicates":
        return np.repeat(rng.standard_normal(((n + 2) // 3, 2)), 3, axis=0)[:n], None
    x = rng.integers(0, 4, (n, 3)).astype(float)
    mask = rng.random((n, 3)) > 0.3
    mask[:, 0] = True
    x[~mask] = np.nan
    return x, mask


def minkowski_distances(x, mask, p):
    """Minkowski distances over the columns both items of a pair observe."""
    if mask is None:
        return cdist(x, x, "minkowski", p=p)
    shared = mask[:, None, :] & mask[None, :, :]
    filled = np.where(mask, x, 0.0)
    diff = np.where(shared, np.abs(filled[:, None, :] - filled[None, :, :]), 0.0)
    return ((diff ** p).sum(axis=2)) ** (1.0 / p)


BLOCK_ROWS = 8


class TestBlockedRanks:
    """Row-blocked ranks equal the dense stable-argsort reference exactly.

    A configuration is ranked by Euclidean distances; the cases at other
    Minkowski exponents rank the distance matrix they give, the way any
    other metric enters.
    """

    @pytest.mark.parametrize("n", [2, 3, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("kind", ["gaussian", "ties", "duplicates",
                                      "masked"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_configuration_matches_dense_reference(self, monkeypatch, tmp_path,
                                                   n, kind, p):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", BLOCK_ROWS * n)
        x, mask = blocked_inputs(kind, n, np.random.default_rng(n))
        if p != 2.0:
            prox = ProximityMatrix(minkowski_distances(x, mask, p))
            assert (rank_structure(prox).ranks == dense_reference_ranks(prox)).all()
            return
        config = Configuration(x, mask=mask)
        expected = dense_reference_ranks(euclidean_distances(config))
        rs = ranks_from_config(config)
        assert rs.ranks.dtype == np.int32
        assert (rs.ranks == expected).all()
        assert (rank_structure(config).ranks == expected).all()
        if mask is None:
            assert (rs.ranks == naive_ranks(naive_neighbors(x))).all()
        # the rank cache serves the same rows, ranked and written (cold) or
        # read back (warm), at every block size
        for block_rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            directory = tmp_path / str(block_rows)
            cold = _RankCache(directory).ranks_for("x", config).ranks
            assert len(list(directory.glob("ranks_*.npy"))) == 1
            warm = _RankCache(directory).ranks_for("x", config).ranks
            assert (cold == expected).all() and (warm == expected).all()

    @pytest.mark.parametrize("n", [3, BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("kind", ["distance"])  # see the edge-value ids
    def test_proximity_matrix_matches_dense_reference(self, monkeypatch, n, kind):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", BLOCK_ROWS * n)
        x = np.random.default_rng(n).integers(0, 3, (n, 4)).astype(float)
        x[:, 0] = np.arange(n) % 2 + 5.0  # many equal rows
        prox = euclidean_distances(Configuration(x))
        assert (rank_structure(prox).ranks == dense_reference_ranks(prox)).all()

    def test_imputed_survey_at_full_width(self):
        """An integer survey with imputed cells, as ``score_external`` scores
        it, at n = 3000: the index field is 12 bits wide, and distances that
        are equal up to rounding differ only in those bits."""
        n, columns = 3000, 12
        rng = np.random.default_rng(3000)
        angles = np.arange(columns) * np.pi / columns
        loadings = np.vstack([np.cos(angles), np.sin(angles)])
        raw = 3.0 + rng.standard_normal((n, 2)) @ loadings \
            + 0.6 * rng.standard_normal((n, columns))
        x = np.clip(np.rint(raw), 1, 5)
        mask = rng.random(x.shape) >= 0.03
        x[~mask] = np.nan
        config = impute_column_mean(Configuration(x, mask=mask))
        prox = euclidean_distances(config)
        bits = np.sort(prox.values[:300].view(np.int64), axis=1)
        near = (bits[:, 1:] >> 12 == bits[:, :-1] >> 12) \
            & (bits[:, 1:] != bits[:, :-1])
        assert near.any(axis=1).mean() > 0.5
        expected = dense_reference_ranks(prox)
        del prox
        assert (rank_structure(config).ranks == expected).all()

    def test_cap_checked(self, monkeypatch):
        monkeypatch.setattr(geometry, "DENSE_CAP", 4)
        with pytest.raises(ValueError, match="cap"):
            ranks_from_config(Configuration(np.zeros((5, 1))))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 24), st.integers(1, 3), st.integers(1, 10),
           st.sampled_from([1.0, 2.0, 3.0]), st.data())
    def test_small_integer_coordinates(self, n, m, block_rows, p, data):
        cells = st.integers(-2, 2)
        x = np.array(data.draw(st.lists(st.lists(cells, min_size=m, max_size=m),
                                        min_size=n, max_size=n)), dtype=float)
        if p == 2.0:
            source = Configuration(x)
            prox = euclidean_distances(source)
        else:
            source = prox = ProximityMatrix(cdist(x, x, "minkowski", p=p))
        expected = dense_reference_ranks(prox)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            assert (rank_structure(source).ranks == expected).all()


#: Row widths at which the index field of the sort keys widens by one bit.
INDEX_WIDTHS = [2 ** s + e for s in (4, 5, 6) for e in (-1, 0, 1)]

#: A smallest subnormal, a larger one and the smallest normal, both signs.
TINY = [5e-324, 1e-310, 2.2250738585072014e-308]


def nudged(values, steps):
    """``values`` moved ``steps`` representable floats up (or down)."""
    out = np.array(values, dtype=float)
    steps = np.asarray(steps)
    with np.errstate(over="ignore"):  # the largest floats step to inf
        for k in range(1, int(np.abs(steps).max(initial=0)) + 1):
            out = np.where(steps >= k, np.nextafter(out, np.inf), out)
            out = np.where(steps <= -k, np.nextafter(out, -np.inf), out)
    return out


class TestStableOrder:
    """The packed-key sort equals a stable argsort exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 25) | st.sampled_from(INDEX_WIDTHS),
           st.data())
    def test_matches_stable_argsort(self, rows, n, data):
        """Rows drawn from a pool of values, each moved a few floats: ties,
        and values that agree in all but their lowest bits."""
        cells = st.sampled_from([0.0, -0.0, 1.5, 2.0, np.inf, -np.inf]
                                + TINY + [-t for t in TINY]) | \
            st.floats(-3, 3, allow_nan=False)
        pool = data.draw(st.lists(cells, min_size=1, max_size=rows * n))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=rows * n, max_size=rows * n))
        steps = data.draw(st.lists(st.integers(-3, 3), min_size=rows * n,
                                   max_size=rows * n))
        d = nudged(np.array(pool)[picks], steps).reshape(rows, n)
        expected = np.argsort(d, axis=1, kind="stable")
        assert (geometry._stable_order(d) == expected).all()

    @pytest.mark.parametrize("n", [2 ** 21, 2 ** 21 + 1])
    def test_widest_rows(self, n):
        """Rows of 2²¹ and 2²¹ + 1 columns, whose index fields are 21
        and 22 bits wide, take the same two sorts as narrow rows.  The
        row holds ties and near-ties in close to a million runs, all of
        which the second sort orders by their full bits."""
        rng = np.random.default_rng(n)
        d = nudged(rng.integers(0, n // 2, n), rng.integers(-2, 3, n))
        expected = np.argsort(d, kind="stable")
        assert (geometry._stable_order(d[None, :])[0] == expected).all()

    def test_duplicate_rows_and_inf(self):
        row = np.array([2.0, np.inf, 1.0, 2.0, np.inf, 1.0, 0.0, 2.0])
        d = np.vstack([row, row, row[::-1], np.full(8, np.inf)])
        expected = np.argsort(d, axis=1, kind="stable")
        assert (geometry._stable_order(d) == expected).all()

    @pytest.mark.parametrize("kind", ["ties", "duplicates"])
    def test_every_block_size(self, monkeypatch, kind):
        n = 13
        x, _ = blocked_inputs(kind, n, np.random.default_rng(40))
        config = Configuration(x)
        expected = dense_reference_ranks(euclidean_distances(config))
        for block_rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            assert (rank_structure(config).ranks == expected).all()


def scramble(count, mod, salt=0):
    """``count`` fixed values in ``0 .. mod - 1``, made by integer
    arithmetic alone, so the same on every platform and numpy version."""
    i = np.arange(salt, salt + count, dtype=np.uint64)
    return ((i * np.uint64(2654435761)) % np.uint64(1 << 32)
            >> np.uint64(11)) % np.uint64(mod)


GOLDEN_N = 40


def golden_sources():
    """Fixed inputs that reach every rule of the rank path: exact ties,
    the masked distance kernel at 8 and 12 columns, duplicated items,
    signed zeros, subnormal squares and distances, distances equal up to
    their dropped bits, and distinct distances that need no second sort."""
    n = GOLDEN_N

    def symmetric(values):
        upper = np.triu(values.reshape(n, n), 1)
        return upper + upper.T

    decimals = np.array([0.1, 0.3, 0.7, 1.1, 1.9])
    out = {"tied_integers": Configuration(
        scramble(n * 3, 4).reshape(n, 3).astype(float))}
    for m in (8, 12):
        mask = scramble(n * m, 10, 2 * m).reshape(n, m) != 0
        mask[:, 0] = True
        out[f"masked_decimals_{m}"] = Configuration(
            decimals[scramble(n * m, 5, m).astype(np.intp)].reshape(n, m),
            mask=mask)
    out["duplicated_items"] = Configuration(np.repeat(
        scramble(14 * 3, 6, 3).reshape(14, 3), 3, axis=0)[:n].astype(float))
    x = scramble(n * 2, 3, 4).reshape(n, 2).astype(float) - 1.0
    x[(x == 0) & (np.arange(n * 2).reshape(n, 2) % 2 == 1)] = -0.0
    out["signed_zeros"] = Configuration(x)
    out["subnormal_squares"] = Configuration(
        scramble(n * 2, 9, 5).reshape(n, 2) * 1e-160)
    out["subnormal_distances"] = ProximityMatrix(symmetric(
        scramble(n * n, 7, 6).astype(float) * 5e-324))
    out["near_ties"] = ProximityMatrix(symmetric(
        1.0 + scramble(n * n, 60, 7) * np.finfo(float).eps))
    out["distinct"] = Configuration(
        np.sqrt(scramble(n * 2, 100003, 8).reshape(n, 2) + 2.0))
    return out


#: SHA-256 of the little-endian ``int32`` ranks of each golden source, by
#: the name of the rank bits that made them (``geometry._RANK_BITS``).
GOLDEN_RANKS = {2: {
    "tied_integers":
        "29075ca6d8d9c325fcca537335aaab85bbe2cd99732c37635362388275c19296",
    "masked_decimals_8":
        "c5ceaf69807f32bc6f444086d2dd3d295f441c6a9fbddc7034bb3c39aea86713",
    "masked_decimals_12":
        "64795b4ed6ecb350909c27a84017e3f059c9a25b2384e7602a6d9a3e35a3eb89",
    "duplicated_items":
        "1dfad8c1712d1ce4e193b33c802120a17a1438b26f85b2cf5078f9f8b0a99d72",
    "signed_zeros":
        "f2a2013c6216569cf4161cac3823fe257cac5482d994d75717364fd1508dd405",
    "subnormal_squares":
        "ca001ef89c22ef31b89f09353b26d88b556129a192ea38656ce9e0eb8be50ce8",
    "subnormal_distances":
        "aa97d7328460d82bb875b73330c66363d86e16d566cbff5086b0226b351076c1",
    "near_ties":
        "81b0f2666cd6eb64d1cf5c349b18b03c8e77e060698cda89d7223df3cc48ee7b",
    "distinct":
        "14bbf493a74905ed31b407f2782741c45e4f1ed2a60806a8c903389063a1bb77",
}}


class TestGoldenRanks:
    """The rank bits that ``geometry._RANK_BITS`` names, pinned.  Cache
    entries carry that name, so a change that moves one of these digests
    must change the name with them, and no entry made before it is read."""

    @pytest.mark.parametrize("block_rows", [1, 7, GOLDEN_N])
    @pytest.mark.parametrize("name", sorted(GOLDEN_RANKS[2]))
    def test_rank_bits_match_their_name(self, monkeypatch, name, block_rows):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * GOLDEN_N)
        ranks = rank_structure(golden_sources()[name]).ranks
        digest = hashlib.sha256(ranks.astype("<i4").tobytes()).hexdigest()
        assert digest == GOLDEN_RANKS[geometry._RANK_BITS][name]

    def test_sources_reach_both_sorts(self, monkeypatch):
        """Every source but ``distinct`` takes the second, stable sort."""
        argsort, second = np.argsort, []

        def counted(*args, **kwargs):
            second.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        for name, source in golden_sources().items():
            second.clear()
            rank_structure(source)
            assert bool(second) == (name != "distinct"), name


class TestSymmetrize:
    """``_symmetrize`` gives the bits of ``(m + m.T) / 2`` and the largest
    ``|m - m.T|`` at every block size, in place and into a new array."""

    @pytest.mark.parametrize("into", ["place", "new"])
    def test_every_block_size(self, monkeypatch, into):
        n = 13
        m = np.random.default_rng(13).standard_normal((n, n))
        m[0, 1], m[1, 0] = -0.0, 0.0
        m[2, 4], m[4, 2] = 5e-324, -5e-324
        m[6, 6] = -0.0
        m[np.tril_indices(n, -3)] = m.T[np.tril_indices(n, -3)]
        expected = (m + m.T) / 2.0
        gap = np.abs(m - m.T).max()
        for block_rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_SYMMETRIZE_CELLS", block_rows * n)
            work = m.copy()
            out = work if into == "place" else np.full((n, n), np.nan)
            assert geometry._symmetrize(
                work, None if into == "place" else out) == gap
            assert out.tobytes() == expected.tobytes()
            if into == "new":
                assert work.tobytes() == m.tobytes()


    @pytest.mark.parametrize("into", ["place", "new"])
    def test_overflowing_sums_are_halved_first(self, monkeypatch, into):
        """Where ``m[i, j] + m[j, i]`` overflows, the entry is
        ``m[i, j] / 2 + m[j, i] / 2``, finite, and nothing warns."""
        n = 5
        m = np.full((n, n), 0.5)
        big = np.finfo(float).max
        m[0, 3], m[3, 0] = 1e308, 1e308
        m[1, 4], m[4, 1] = 1.5e308, big
        m[0, 4], m[4, 0] = -big, -big
        m[2, 2] = big
        m[1, 3], m[3, 1] = big, -big   # the gap overflows: inf
        expected = m / 2.0 + m.T / 2.0  # (m + m.T) / 2 where that is finite
        for block_rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_SYMMETRIZE_CELLS", block_rows * n)
            work = m.copy()
            out = work if into == "place" else np.empty((n, n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gap = geometry._symmetrize(
                    work, None if into == "place" else out)
            assert gap == np.inf
            assert out.tobytes() == expected.tobytes()
            assert out[0, 3] == 1e308 and out[2, 2] == big
            assert out[1, 3] == 0.0


class TestRunPool:
    """The worker threads of a run and the maps that use them."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_raises_the_first_failure_in_item_order(self, workers):
        finished = []

        def item(i):
            if i == 0:
                time.sleep(0.2)
                finished.append(i)
                raise ValueError("first")
            if i == 2:
                raise ValueError("third")
            finished.append(i)
            return i

        with _run_pool(workers) as pool:
            assert pool.map(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]
            with pytest.raises(ValueError, match="first"):
                pool.map(item, range(4))
            # every item that started has finished
            assert 0 in finished

    def test_one_worker_is_the_calling_thread(self):
        """A pool is sized by its worker count: one worker has no thread
        of its own, inside a run or outside one."""
        caller = threading.get_ident()
        with _run_pool(1) as pool:
            assert pool.workers == 1 and _pool() is pool
            assert pool.map(lambda _: threading.get_ident(),
                            range(3)) == [caller] * 3
            assert pool.submit(threading.get_ident).result() == caller
        assert _pool().workers == 1
        assert _pool().submit(threading.get_ident).result() == caller

    def test_maps_inside_a_run_use_its_pool(self):
        """A map made on a worker of the run hands its items to the same
        pool: the run never holds more threads than it was given."""
        before = len(threading.enumerate())
        seen = []

        def inner(_):
            seen.append(len(threading.enumerate()))
            time.sleep(0.01)

        def outer(_):
            _pool().map(inner, range(6))

        with _run_pool(2) as pool:
            pool.map(outer, range(4))
        assert seen and max(seen) <= before + 2
        assert len(threading.enumerate()) == before

    def test_dropped_job_holds_nothing(self):
        """The items that the calling thread ran itself stay queued behind
        busy workers; they must not keep the map's function alive."""
        release = threading.Event()

        class Big:
            pass

        big = Big()
        alive = weakref.ref(big)
        fn = partial(lambda held, i: i, big)
        with _run_pool(2) as pool:
            busy = [pool.submit(release.wait, 10) for _ in range(2)]
            assert pool.map(fn, range(3)) == [0, 1, 2]
            del fn, big
            try:
                assert alive() is None
            finally:
                release.set()
        assert [job.result() for job in busy] == [True, True]
