"""Agreement metrics against the naive oracle and frozen hand-worked values."""

import contextlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drqa import geometry
from drqa.agreement import (
    AgreementProfile,
    _overlap_counts,
    WeightFunction,
    agreement_profile,
    classify_rank_movements,
    co_ranking,
    partial_agreement,
    psi,
    weighted_psi,
)
from drqa.geometry import ranks_from_config, Configuration
from drqa.pipeline import AgreeStage, StageRunner

from oracles import (
    naive_co_ranking,
    naive_movements,
    naive_neighbors,
    naive_overlap_counts,
    naive_profile,
)


def config_1d(xs):
    return Configuration(np.asarray(xs, float).reshape(-1, 1))


# Four items on a line: the fully hand-checked fixture.
FIX_A = (0.0, 1.0, 3.0, 7.0)
FIX_B = (0.0, 2.0, 3.0, 4.5)


@pytest.fixture(scope="module")
def fixture_ranks():
    ra = ranks_from_config(config_1d(FIX_A))
    rb = ranks_from_config(config_1d(FIX_B))
    return ra, rb


class TestProfileFixture:
    """Frozen values worked out by direct enumeration of neighbor sets."""

    def test_rates(self, fixture_ranks):
        prof = agreement_profile(*fixture_ranks)
        assert prof.ar == pytest.approx([0.75, 0.875, 1.0], abs=0)
        assert prof.ar_adjusted[0] == pytest.approx(0.75 - 1 / 3, abs=1e-15)
        assert prof.ar_adjusted[1] == pytest.approx(0.875 - 2 / 3, abs=1e-15)
        assert prof.ar_adjusted[2] == 0.0

    def test_psi(self, fixture_ranks):
        prof = agreement_profile(*fixture_ranks)
        assert psi(prof) == pytest.approx(0.625, abs=1e-12)

    def test_per_item_k1(self, fixture_ranks):
        prof = agreement_profile(*fixture_ranks, with_per_item=True)
        assert prof.per_item[:, 0] == pytest.approx([1.0, 0.0, 1.0, 1.0],
                                                    abs=0)

    def test_weighted_indicator_k1(self, fixture_ranks):
        prof = agreement_profile(*fixture_ranks)
        f = WeightFunction.indicator(prof.n, 1, 1)
        assert weighted_psi(prof, f) == pytest.approx(0.625, abs=1e-12)

    def test_co_ranking_cells(self, fixture_ranks):
        cm = co_ranking(*fixture_ranks)
        expect = np.array([[3, 1, 0], [1, 2, 1], [0, 1, 3]])
        assert (cm.omega == expect).all()

    def test_movements_at_k1(self, fixture_ranks):
        tally = classify_rank_movements(*fixture_ranks, k=1)
        # pair (2, 3): A-rank 2, B-rank 1 -> hard intrusion
        # pair (2, 1): A-rank 1, B-rank 2 -> hard extrusion
        assert tally.hard_intrusions == 1
        assert tally.hard_extrusions == 1
        assert tally.unchanged == 3


def random_pair(seed, n_lo=4, n_hi=30, dim=3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    a = rng.standard_normal((n, dim))
    b = rng.standard_normal((n, dim))
    return a, b


def oracle_cases(count):
    """Seeds 0 .. count-1 at n in 4 .. 30, then one pair at n = 300, where
    products of ranks exceed the int16 range."""
    return [*(pytest.param(seed, (4, 30), id=str(seed))
              for seed in range(count)),
            pytest.param(count, (300, 300), id="n300")]


def tied_pair(seed, n=30):
    """Integer points on small grids: many tied distances, and items that
    coincide with others."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 5, (n, 3)).astype(float),
            rng.integers(0, 3, (n, 2)).astype(float))


def duplicated_pair(seed):
    """24 items: 8 points thrice in A, 6 points four times in B, each
    repeated in its own order."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 3))[rng.permutation(np.arange(24) % 8)]
    b = rng.standard_normal((6, 2))[rng.permutation(np.arange(24) % 6)]
    return a, b


def rank_pair_cases(offset):
    """The pairs of ``oracle_cases(10)``, drawn at seeds ``offset ..``,
    then a tied pair and a pair of duplicated items."""
    return [*(pytest.param(random_pair(offset + case.values[0],
                                       *case.values[1]), id=case.id)
              for case in oracle_cases(10)),
            pytest.param(tied_pair(offset), id="tied"),
            pytest.param(duplicated_pair(offset), id="duplicated")]


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed, sizes", oracle_cases(25))
    def test_profile_matches_oracle_exactly(self, seed, sizes):
        a, b = random_pair(seed, *sizes)
        na, nb = naive_neighbors(a), naive_neighbors(b)
        ar_o, adj_o = naive_profile(na, nb)
        prof = agreement_profile(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
            with_per_item=True,
        )
        assert (prof.ar == ar_o).all()
        assert (prof.ar_adjusted == adj_o).all()
        counts = naive_overlap_counts(na, nb)
        k = np.arange(1, prof.n)
        assert (prof.per_item == counts / k).all()

    @pytest.mark.parametrize("pair", rank_pair_cases(100))
    def test_co_ranking_matches_oracle(self, pair):
        a, b = pair
        cm = co_ranking(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
        )
        assert (cm.omega == naive_co_ranking(naive_neighbors(a), naive_neighbors(b))).all()

    @pytest.mark.parametrize("pair", rank_pair_cases(200))
    def test_movements_match_oracle(self, pair):
        """Every k, except at n = 300, where the oracle's pair loop takes
        0.06 s per k: there the ends and a few k between them."""
        a, b = pair
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        na, nb = naive_neighbors(a), naive_neighbors(b)
        n = ra.n
        ks = range(1, n) if n <= 30 else (1, 2, 10, n // 2, n - 2, n - 1)
        for k in ks:
            got = classify_rank_movements(ra, rb, k)
            want = naive_movements(na, nb, k)
            assert got.hard_intrusions == want["hard_in"]
            assert got.soft_intrusions == want["soft_in"]
            assert got.hard_extrusions == want["hard_ex"]
            assert got.soft_extrusions == want["soft_ex"]
            assert got.unchanged == want["unchanged"]
            assert got.outside == want["outside"]

    def test_overlap_kernel_matches_oracle_for_every_head(self):
        """Every head width, none included, gives the oracle's counts and
        sums, on tied data and on a block of rows from the middle: the
        widths below n / 4 take the head from the cells at most hi, the
        others from one histogram per row."""
        rng = np.random.default_rng(31)
        n = 17
        a = rng.integers(0, 3, (n, 2)).astype(float)
        b = rng.standard_normal((n, 2))
        ra, rb = (ranks_from_config(Configuration(x)).ranks for x in (a, b))
        counts = naive_overlap_counts(naive_neighbors(a), naive_neighbors(b))
        for start, stop in ((0, n), (3, 9)):
            want = counts[start:stop]
            for hi in range(n):
                sums, head = _overlap_counts(ra[start:stop], rb[start:stop],
                                             hi)
                assert (sums == want.sum(axis=0)).all()
                if hi == 0:
                    assert head is None
                else:
                    assert (head == want[:, :hi]).all()

    def test_block_sums_equal_overlap_totals(self):
        for seed in range(5):
            a, b = random_pair(seed + 300)
            na, nb = naive_neighbors(a), naive_neighbors(b)
            counts = naive_overlap_counts(na, nb)
            cm = co_ranking(
                ranks_from_config(Configuration(a)),
                ranks_from_config(Configuration(b)),
            )
            n = cm.n
            for k in range(1, n):
                assert cm.omega[:k, :k].sum() == counts[:, k - 1].sum()


def dense_profile(rank_a, rank_b):
    """(ar, per-item rates) by the dense formula: one n x n histogram."""
    n = rank_a.n
    worst = np.maximum(rank_a.ranks, rank_b.ranks)
    offsets = np.arange(n)[:, None] * n
    flat = (worst + offsets).ravel()
    hist = np.bincount(flat, minlength=n * n).reshape(n, n)
    a_ik = np.cumsum(hist[:, 1:], axis=1)
    k = np.arange(1, n)
    return a_ik.sum(axis=0) / (k * n), a_ik / k


def dense_psi(ar):
    return psi(AgreementProfile(ar))


class TestBlockedKernel:
    """Blocked overlap counts are bit-equal to the dense formula."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 20), st.integers(1, 3), st.data())
    def test_stage_matches_dense_formula(self, n, n_maps, data):
        cells = st.integers(0, 3)

        def draw_items(m):
            rows = st.lists(st.lists(cells, min_size=m, max_size=m),
                            min_size=n, max_size=n)
            return Configuration(np.array(data.draw(rows), dtype=float))

        configs = {"a": draw_items(3), "z": draw_items(2)}
        maps = tuple(f"b{i}" for i in range(n_maps))
        for name in maps:
            configs[name] = draw_items(2)
        lo = data.draw(st.integers(1, n - 1))
        hi = data.draw(st.integers(lo, n - 1))
        block_rows = data.draw(st.integers(1, n))
        with_z = data.draw(st.booleans())

        stage = AgreeStage("s", "a", maps, z="z" if with_z else None,
                           per_item=True, range_k=(lo, hi))
        keys = stage.profile_keys()
        runner = StageRunner(targets={  # write no files
            key.replace(":", "_") + suffix: None
            for key in keys for suffix in (".csv", "_items.csv",
                                           "_partial.csv")})
        runner.configurations.update(configs)

        ranks = {name: ranks_from_config(c) for name, c in configs.items()}
        expected = {}
        try:
            for b, key in zip(maps, keys):
                ar, per_item = dense_profile(ranks["a"], ranks[b])
                partial = None
                if with_z:
                    ab, az, bz = (
                        dense_psi(dense_profile(ranks[x], ranks[y])[0])
                        for x, y in (("a", b), ("a", "z"), (b, "z")))
                    partial = (ab, az, bz, partial_agreement(ab, az, bz))
                expected[key] = (ar, per_item[:, lo - 1:hi], partial)
        except ValueError as exc:  # e.g. psi(a, z) = 1: partial undefined
            failure = pytest.raises(ValueError, match=re.escape(str(exc)))
        else:
            failure = contextlib.nullcontext()
        with failure, pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            runner.agree(stage)
        for key, (ar, per_item, partial) in expected.items():
            assert runner.profiles[key].ar.tobytes() == ar.tobytes()
            ks, matrix, _ = runner.per_item[key]
            assert ks == tuple(range(lo, hi + 1))
            assert matrix.tobytes() == per_item.tobytes()
            if with_z:
                assert runner.partials[key] == partial

    @pytest.mark.parametrize("seed, sizes", oracle_cases(3))
    def test_profile_every_block_size(self, monkeypatch, seed, sizes):
        a, b = random_pair(seed + 400, *sizes)
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        ar, per_item = dense_profile(ra, rb)
        n = ra.n
        for block_rows in sorted({1, 2, 7, n - 1, n}):
            monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            prof = agreement_profile(ra, rb, with_per_item=True)
            assert prof.ar.tobytes() == ar.tobytes()
            assert prof.per_item.tobytes() == per_item.tobytes()


class TestProfileProperties:
    def test_identity_gives_psi_one(self):
        rng = np.random.default_rng(5)
        r = ranks_from_config(Configuration(rng.standard_normal((40, 4))))
        prof = agreement_profile(r, r)
        assert (prof.ar == 1.0).all()
        assert psi(prof) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_arguments(self):
        a, b = random_pair(77)
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        p1 = agreement_profile(ra, rb)
        p2 = agreement_profile(rb, ra)
        assert (p1.ar == p2.ar).all()

    def test_co_ranking_transpose_symmetry(self):
        a, b = random_pair(78)
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        assert (co_ranking(ra, rb).omega == co_ranking(rb, ra).omega.T).all()

    def test_final_rate_is_one_and_rates_bounded(self):
        a, b = random_pair(79)
        prof = agreement_profile(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
        )
        assert prof.ar[-1] == 1.0
        assert prof.ar.min() >= 0.0 and prof.ar.max() <= 1.0

    def test_row_permutation_psi_near_zero(self):
        # mean over seeds must sit within +-0.05 of 0 at n = 200
        n = 200
        base_rng = np.random.default_rng(42)
        a = base_rng.standard_normal((n, 3))
        ra = ranks_from_config(Configuration(a))
        vals = []
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            b = a[rng.permutation(n)]
            rb = ranks_from_config(Configuration(b))
            vals.append(psi(agreement_profile(ra, rb)))
        assert abs(np.mean(vals)) < 0.05

    def test_n2_profile_ok_but_psi_rejected(self):
        ra = ranks_from_config(config_1d([0.0, 1.0]))
        prof = agreement_profile(ra, ra)
        assert prof.ar == pytest.approx([1.0])
        with pytest.raises(ValueError):
            psi(prof)

    def test_mismatched_sizes_rejected(self):
        ra = ranks_from_config(config_1d([0.0, 1.0, 2.0]))
        rb = ranks_from_config(config_1d([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            agreement_profile(ra, rb)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hard_movements_balance(self, seed):
        a, b = random_pair(seed, n_lo=4, n_hi=16)
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        for k in (1, ra.n // 2, ra.n - 1):
            if k < 1:
                continue
            t = classify_rank_movements(ra, rb, k)
            assert t.hard_intrusions == t.hard_extrusions


class TestWeights:
    def test_uniform_matches_plain_psi(self):
        a, b = random_pair(11)
        prof = agreement_profile(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
        )
        f = WeightFunction.uniform(prof.n)
        assert weighted_psi(prof, f) == pytest.approx(psi(prof), abs=1e-12)

    def test_taper_shape(self):
        n = 1000
        f = WeightFunction.linear_taper(n)
        k = np.arange(1, n)
        lo = (n - 1) // 3
        hi = 2 * (n - 1) // 3
        assert (f.values[k < lo] == 1.0).all()
        assert (f.values[k >= hi] == 0.0).all()
        mid = f.values[(k >= lo) & (k < hi)]
        assert (np.diff(mid) <= 1e-12).all()
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0

    def test_taper_small_n_behaviour(self):
        # n = 4 clamps the first fading value to 1
        f = WeightFunction.linear_taper(4)
        assert f.values == pytest.approx([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            WeightFunction.linear_taper(3)

    def test_indicator_bounds_checked(self):
        with pytest.raises(ValueError):
            WeightFunction.indicator(10, 0, 3)
        with pytest.raises(ValueError):
            WeightFunction.indicator(10, 4, 2)
        with pytest.raises(ValueError):
            WeightFunction.indicator(10, 1, 10)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction([0.5, -0.1, 0.2])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction([0.0, 0.0])

    def test_weight_only_at_last_k_rejected(self):
        a, b = random_pair(12)
        prof = agreement_profile(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
        )
        v = np.zeros(prof.n - 1)
        v[-1] = 1.0
        with pytest.raises(ValueError):
            weighted_psi(prof, WeightFunction(v))

    def test_size_mismatch_rejected(self):
        a, b = random_pair(13)
        prof = agreement_profile(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
        )
        with pytest.raises(ValueError):
            weighted_psi(prof, WeightFunction.uniform(prof.n + 1))


class TestPartialAgreement:
    def test_worked_value(self):
        assert partial_agreement(0.8, 0.5, 0.5) == pytest.approx(0.55 / 0.75, abs=1e-12)

    def test_zero_confound_is_identity(self):
        assert partial_agreement(0.37, 0.0, 0.0) == pytest.approx(0.37, abs=0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            partial_agreement(0.5, 1.0, 0.2)
        with pytest.raises(ValueError):
            partial_agreement(1.5, 0.0, 0.0)


class TestCoRankingStructure:
    def test_margins_sum_to_n(self):
        a, b = random_pair(31)
        cm = co_ranking(
            ranks_from_config(Configuration(a)),
            ranks_from_config(Configuration(b)),
        )
        assert (cm.omega.sum(axis=0) == cm.n).all()
        assert (cm.omega.sum(axis=1) == cm.n).all()

    def test_identity_is_diagonal(self):
        r = ranks_from_config(config_1d([0.0, 1.0, 2.5, 4.0, 8.0]))
        cm = co_ranking(r, r)
        assert (cm.omega == np.diag([cm.n] * (cm.n - 1))).all()

    def test_block_sum_matches_ar(self):
        a, b = random_pair(32)
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        prof = agreement_profile(ra, rb)
        cm = co_ranking(ra, rb)
        n = cm.n
        for k in (1, 2, n // 2, n - 1):
            assert cm.omega[:k, :k].sum() == pytest.approx(k * n * prof.ar[k - 1],
                                                           abs=1e-9)


class TestPeakMemory:
    """The traced peak of one call at n = 300, in bytes per n² cell.

    Each bound is the peak measured when it was set plus half a byte, so
    one more n x n bool temporary fails.  The rank structures are made before tracing starts.
    """

    @pytest.mark.parametrize("call, bound", [
        (co_ranking, 8.5),  # the int64 histogram and one chunk of codes
        (lambda ra, rb: classify_rank_movements(ra, rb, 10), 3.5),
    ], ids=["co_ranking", "classify_rank_movements"])
    def test_peak_per_call(self, call, bound):
        n = 300
        a, b = tied_pair(33, n)
        ra = ranks_from_config(Configuration(a))
        rb = ranks_from_config(Configuration(b))
        call(ra, rb)  # imports and caches of a first call are not the call's
        tracemalloc.start()
        try:
            call(ra, rb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n**2 < bound


class TestProfileType:
    def test_final_rate_must_be_one(self):
        with pytest.raises(ValueError):
            AgreementProfile(np.array([0.5, 0.9]))
