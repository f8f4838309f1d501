"""Reduction methods: recovery contracts, Stress behavior, graph handling."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import isotonic_regression
from scipy.spatial.distance import cdist

from drqa import dimred, geometry
from drqa.agreement import agreement_profile, psi
from drqa.dimred import (
    METHODS,
    DisconnectedGraphError,
    classical_mds,
    geodesic_distances,
    isomap,
    laplacian_eigenmaps,
    lle,
    local_smacof,
    pca,
    run_reduction,
    smacof,
)
from drqa.geometry import (
    Configuration,
    ProximityMatrix,
    euclidean_distances,
    ranks_from_config,
)
from drqa.manifolds import ManifoldSpec, generate

from oracles import naive_neighbors


def profile_between(a_pts, b_pts):
    return agreement_profile(
        ranks_from_config(Configuration(a_pts)),
        ranks_from_config(Configuration(b_pts)),
    )


def mean_local_ar(prof, k_hi=10):
    return float(prof.ar[:k_hi].mean())


class TestPCA:
    def test_zero_padded_plane_recovers_exactly(self):
        rng = np.random.default_rng(0)
        plane = rng.standard_normal((80, 2))
        padded = np.column_stack([plane, np.zeros(80)])
        res = pca(Configuration(padded), target_dim=2)
        prof = profile_between(plane, res.embedding.items)
        assert (prof.ar == 1.0).all()

    def test_uncorrelated_sorted_data_is_fixed_point(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((50, 4))
        u, s, _ = np.linalg.svd(raw - raw.mean(axis=0), full_matrices=False)
        data = u * s  # centered, orthogonal, variance-sorted columns
        res = pca(Configuration(data), target_dim=3)
        got = res.embedding.items
        want = data[:, :3]
        # both are sign-fixed the same way: largest-magnitude entry positive
        for j in range(3):
            col = want[:, j]
            if col[int(np.argmax(np.abs(col)))] < 0:
                col = -col
            assert np.allclose(got[:, j], col, atol=1e-9)

    def test_eigenvalue_sum_is_total_variance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 5)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5])
        res = pca(Configuration(x), target_dim=2)
        total = np.trace(np.cov(x, rowvar=False))
        assert res.diagnostics["eigenvalues"].sum() == pytest.approx(total, abs=1e-9)
        assert (np.diff(res.diagnostics["eigenvalues"]) <= 1e-12).all()

    def test_correlation_scaling_changes_result(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 3)) * np.array([100.0, 1.0, 0.01])
        cov_res = pca(Configuration(x), 2, use_correlation=False)
        cor_res = pca(Configuration(x), 2, use_correlation=True)
        assert not np.allclose(cov_res.embedding.items, cor_res.embedding.items)
        # correlation scaling makes every prepared column variance 1
        assert cor_res.diagnostics["eigenvalues"].sum() == pytest.approx(3.0, abs=1e-9)

    def test_zero_variance_column_with_correlation_rejected(self):
        x = np.column_stack([np.arange(10.0), np.ones(10)])
        with pytest.raises(ValueError, match="zero variance"):
            pca(Configuration(x), 1, use_correlation=True)

    def test_target_dim_bounds(self):
        c = Configuration(np.random.default_rng(4).standard_normal((10, 3)))
        with pytest.raises(ValueError):
            pca(c, 3)
        with pytest.raises(ValueError):
            pca(c, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 4))
        a = pca(Configuration(x), 2).embedding.items
        b = pca(Configuration(x), 2).embedding.items
        assert (a == b).all()


class TestClassicalMDS:
    def test_euclidean_distances_recover_configuration(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((80, 2))
        d = euclidean_distances(Configuration(pts))
        res = classical_mds(d, 2)
        prof = profile_between(pts, res.embedding.items)
        assert (prof.ar == 1.0).all()
        back = euclidean_distances(res.embedding).values
        assert np.allclose(back, d.values, atol=1e-8)

    def test_zero_matrix_embeds_to_zeros(self):
        d = ProximityMatrix(np.zeros((5, 5)))
        res = classical_mds(d, 2)
        assert (res.embedding.items == 0).all()

    def test_insufficient_positive_spectrum_rejected(self):
        line = Configuration(np.arange(6.0).reshape(-1, 1))
        d = euclidean_distances(line)
        with pytest.raises(ValueError, match="positive eigenvalues"):
            classical_mds(d, 2)

    def test_non_euclidean_input_warns(self):
        v = np.array([
            [0.0, 2.0, 2.0, 1.0],
            [2.0, 0.0, 2.0, 1.0],
            [2.0, 2.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0],
        ])
        res = classical_mds(ProximityMatrix(v), 2)
        assert res.diagnostics["non_euclidean_warning"]
        assert res.diagnostics["eigenvalues"].min() >= 0.0


@pytest.fixture(scope="module")
def metric_problem():
    rng = np.random.default_rng(20)
    pts = rng.standard_normal((60, 2))
    return pts, euclidean_distances(Configuration(pts))


class TestSmacof:
    def test_ratio_reaches_tiny_stress(self, metric_problem):
        _, d = metric_problem
        res = smacof(d, 2, transform="ratio")
        assert res.diagnostics["stress"] < 1e-6
        hist = res.diagnostics["stress_history"]
        assert (np.diff(hist) <= 0).all()

    def test_recovered_ranks(self, metric_problem):
        pts, d = metric_problem
        res = smacof(d, 2)
        prof = profile_between(pts, res.embedding.items)
        assert (prof.ar == 1.0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_single_step_never_increases_stress(self, metric_problem, seed):
        _, d = metric_problem
        res = smacof(d, 2, init="random", seed=seed, max_iter=1)
        hist = res.diagnostics["stress_history"]
        assert len(hist) <= 2
        if len(hist) == 2:
            assert hist[1] <= hist[0]

    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    def test_history_monotone_from_random_starts(self, metric_problem, transform):
        _, d = metric_problem
        res = smacof(d, 2, transform=transform, init="random", seed=7, max_iter=80)
        hist = res.diagnostics["stress_history"]
        assert (np.diff(hist) <= 0).all()

    def test_ordinal_on_monotone_distortion(self):
        # ordinal fits a monotone transform, so cubing distances is harmless
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((40, 2))
        d = euclidean_distances(Configuration(pts))
        warped = ProximityMatrix(d.values**3)
        res = smacof(warped, 2, transform="ordinal", max_iter=300)
        assert res.diagnostics["stress"] < 0.01
        prof = profile_between(pts, res.embedding.items)
        assert mean_local_ar(prof) > 0.9

    def test_two_items_fit_perfectly(self):
        d = ProximityMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        # classical start is already exact, so the distance is reproduced
        res = smacof(d, 1, transform="ratio")
        emb = res.embedding.items
        assert res.diagnostics["stress"] < 1e-8
        assert abs(emb[0, 0] - emb[1, 0]) == pytest.approx(3.0, abs=1e-9)
        # a random start also reaches zero stress, at an arbitrary scale
        res = smacof(d, 1, transform="ratio", init="random", seed=0)
        assert res.diagnostics["stress"] < 1e-8
        emb = res.embedding.items
        assert abs(emb[0, 0] - emb[1, 0]) > 0

    def test_disconnected_weights_rejected(self):
        rng = np.random.default_rng(22)
        d = euclidean_distances(Configuration(rng.standard_normal((6, 2))))
        w = np.zeros((6, 6))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        w[4, 5] = w[5, 4] = 1.0
        with pytest.raises(DisconnectedGraphError) as err:
            smacof(d, 1, weights=w)
        assert err.value.n_components == 3

    def test_largest_finite_weights_stay_finite(self):
        w = np.full((3, 3), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dimred._check_weights(w, 3)
        assert got.tolist() == (w - np.diag(np.diag(w))).tolist()

    def test_zero_weights_rejected(self):
        d = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="all weights are zero"):
            smacof(d, 1, weights=np.zeros((2, 2)))

    def test_bad_transform_rejected(self, metric_problem):
        _, d = metric_problem
        with pytest.raises(ValueError, match="transform"):
            smacof(d, 2, transform="interval")

    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    def test_rejected_first_update_is_not_converged(self, metric_problem,
                                                    transform, monkeypatch):
        """Every Stress after the first is made higher, so the first update
        is rejected whatever the arithmetic: the start comes back after 0
        iterations, and the call has not converged."""
        _, d = metric_problem
        stress, measured = dimred._stress, []

        def rising(*args):
            measured.append(stress(*args))
            return measured[0] + len(measured) - 1

        monkeypatch.setattr(dimred, "_stress", rising)
        res = smacof(d, 2, transform=transform)
        diag = res.diagnostics
        assert diag["converged"] is False
        assert diag["stop_reason"] == "no_decrease"
        assert diag["n_iterations"] == 0
        assert len(measured) == 2
        start = classical_mds(d, 2).embedding.items
        assert res.embedding.items.tobytes() == start.tobytes()

    @pytest.mark.parametrize("reducer", [smacof, local_smacof])
    def test_default_seed_repeats_the_random_start(self, reducer):
        """Collinear points have no 2-d classical start, so the random
        fallback runs; without a seed it must still repeat exactly."""
        line = euclidean_distances(Configuration(np.arange(5.0)[:, None]))
        first, second = _bits(reducer, line, 2), _bits(reducer, line, 2)
        assert first[-1] == "random-fallback"
        assert first == second



def reference_smacof(dist, target_dim, weights=None, transform="ratio",
                     max_iter=500, tol=1e-6, seed=0, init="classical"):
    """Stress majorization on n x n arrays, summing ``m[off]`` gathers.

    ``smacof`` must reproduce this loop bit for bit: its off-diagonal
    vectors hold the same values in the same row-major order, so every
    sum, and with it every rounding, is the same.
    """
    dimred._require_distance(dist, "smacof", target_dim)
    n = dist.n
    if transform not in ("ratio", "ordinal"):
        raise ValueError(f"transform must be 'ratio' or 'ordinal', got {transform!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if init not in ("classical", "random"):
        raise ValueError(f"init must be 'classical' or 'random', got {init!r}")
    delta = dist.values
    off = ~np.eye(n, dtype=bool)
    if weights is None:
        w = np.ones((n, n))
        np.fill_diagonal(w, 0.0)
        unit = True
    else:
        w = dimred._check_weights(weights, n)
        unit = bool((w[off] == 1.0).all())
    init_used = init
    x = None
    if init == "classical":
        try:
            x = classical_mds(dist, target_dim).embedding.items.copy()
        except ValueError:
            init_used = "random-fallback"
    if x is None:
        rng = np.random.default_rng(seed)
        scale = delta[off].mean() if delta[off].max() > 0 else 1.0
        x = rng.standard_normal((n, target_dim)) * scale
    if not unit:
        factor = cho_factor(np.diag(w.sum(axis=1)) - w + np.ones((n, n)) / n)
    iu, ju = np.triu_indices(n, k=1)
    keep = w[iu, ju] > 0
    iu, ju = iu[keep], ju[keep]
    order = np.lexsort((ju, iu, delta[iu, ju]))

    def fit(d):
        if transform == "ratio":
            den = (w * delta**2)[off].sum()
            if den <= 0:
                return np.zeros_like(delta)
            return (w * d * delta)[off].sum() / den * delta
        y = isotonic_regression(d[iu, ju][order],
                                weights=w[iu, ju][order]).x
        d_hat = np.zeros_like(d)
        d_hat[iu[order], ju[order]] = y
        d_hat[ju[order], iu[order]] = y
        return d_hat

    def stress(d, d_hat):
        num = (w * (d - d_hat) ** 2)[off].sum()
        den = (w * d**2)[off].sum()
        if den <= 0:
            raise ValueError("embedded configuration collapsed to a point")
        return math.sqrt(num / den)

    def guttman(x, d, d_hat):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, d_hat / d, 0.0) * w
        bmat = -ratio
        np.fill_diagonal(bmat, ratio.sum(axis=1))
        rhs = bmat @ x
        return rhs / n if unit else cho_solve(factor, rhs)

    d = cdist(x, x)
    d_hat = fit(d)
    history = [stress(d, d_hat)]
    reason = "max_iter"
    for _ in range(max_iter):
        x_new = guttman(x, d, d_hat)
        d_new = cdist(x_new, x_new)
        d_hat_new = fit(d_new)
        s_new = stress(d_new, d_hat_new)
        if s_new > history[-1]:
            reason = "no_decrease"
            break
        x, d, d_hat = x_new, d_new, d_hat_new
        history.append(s_new)
        prev, cur = history[-2], history[-1]
        if prev - cur < tol * max(prev, np.finfo(float).tiny):
            reason = "stress_change"
            break
        if cur < 1e-12:
            reason = "stress_floor"
            break
    return x, {"stress_history": np.asarray(history),
               "n_iterations": len(history) - 1, "stop_reason": reason,
               "init": init_used}


def _bits(reducer, *args, **kwargs):
    """Everything a stress majorization call yields, as comparable bytes,
    or the error it raised."""
    try:
        out = reducer(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - errors must match too
        return type(err), str(err)
    x, diag = (out.embedding.items, out.diagnostics) if hasattr(
        out, "embedding") else out
    return (x.tobytes(), diag["stress_history"].tobytes(),
            diag["n_iterations"], diag["stop_reason"], diag["init"])


def _bit_weights(kind, d):
    n = d.n
    if kind == "none":
        return None
    if kind == "ones":
        return np.ones((n, n))
    if kind == "positive":
        w = np.random.default_rng(n).uniform(0.25, 4.0, (n, n))
        return (w + w.T) / 2.0
    if kind == "sparse":  # positive weights on the shortest 30 %
        return _bit_weights("positive", d) * _bit_weights("binary", d)
    # local_smacof's 0/1 weights: the shortest 30 % of the pairs
    return _shortest(d, 0.3).astype(float)


def _shortest(d, share):
    """The bool weights of local_smacof at quantile ``share``."""
    off = ~np.eye(d.n, dtype=bool)
    w = d.values <= np.quantile(d.values[off], share)
    np.fill_diagonal(w, False)
    return w


def _pair_path_calls(monkeypatch):
    """A list that gains an entry each time smacof takes its pair path."""
    calls = []
    pairs = dimred._Pairs

    def recorded(*args):
        calls.append(args)
        return pairs(*args)

    monkeypatch.setattr(dimred, "_Pairs", recorded)
    return calls


#: n = 64 puts coincident items into the classical start of the small
#: torus, so the zero-distance branch of the update runs
BIT_N = 64


@pytest.fixture(scope="module")
def bit_shapes():
    return {shape: euclidean_distances(generate(ManifoldSpec(shape, BIT_N,
                                                             seed=4)))
            for shape in ("sphere_regular", "torus_small_regular",
                          "swiss_roll")}


@pytest.fixture(scope="module")
def bit_shapes_150():
    return {shape: euclidean_distances(generate(ManifoldSpec(shape, 150,
                                                             seed=4)))
            for shape in ("sphere_random", "swiss_roll")}


class TestSmacofBits:
    """``smacof`` keeps every bit of the n x n loop in ``reference_smacof``."""

    def test_torus_start_has_coincident_items(self, bit_shapes):
        x = classical_mds(bit_shapes["torus_small_regular"], 2).embedding.items
        d = cdist(x, x)
        assert (d[~np.eye(BIT_N, dtype=bool)] == 0).any()

    @pytest.mark.parametrize("init", ["classical", "random"])
    @pytest.mark.parametrize("weights", ["none", "ones", "positive", "binary",
                                         "sparse"])
    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    @pytest.mark.parametrize("shape", ["sphere_regular", "torus_small_regular",
                                       "swiss_roll"])
    def test_shapes(self, bit_shapes, shape, transform, weights, init):
        d = bit_shapes[shape]
        kwargs = dict(weights=_bit_weights(weights, d), transform=transform,
                      init=init, seed=9, max_iter=150)
        want = _bits(reference_smacof, d, 2, **kwargs)
        assert isinstance(want[0], bytes), want
        assert _bits(smacof, d, 2, **kwargs) == want

    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    def test_local_smacof(self, bit_shapes, transform):
        d = bit_shapes["swiss_roll"]
        w = _bit_weights("binary", d)
        want = _bits(reference_smacof, d, 2, weights=w, transform=transform)
        assert _bits(local_smacof, d, 2, quantile=0.3,
                     transform=transform) == want

    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    @pytest.mark.parametrize("shape", ["sphere_random", "swiss_roll"])
    def test_local_smacof_default_quantile(self, bit_shapes_150, shape,
                                           transform, monkeypatch):
        d = bit_shapes_150[shape]
        want = _bits(reference_smacof, d, 2, weights=_shortest(d, 0.1),
                     transform=transform, max_iter=200)
        calls = _pair_path_calls(monkeypatch)
        assert _bits(local_smacof, d, 2, transform=transform,
                     max_iter=200) == want
        assert len(calls) == 1
        assert want[2] > 20  # the loop ran

    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    @pytest.mark.parametrize("share, pair_path", [(0.45, True), (0.55, False)])
    @pytest.mark.parametrize("kind", ["binary", "positive"])
    def test_either_side_of_the_routing_share(self, bit_shapes, kind, share,
                                              pair_path, transform,
                                              monkeypatch):
        """Weights with positive weight on a share of the pairs just below
        ``_PAIR_SHARE`` take the pair path, just above it the grid loop,
        and both keep the reference bits."""
        assert 0.45 < dimred._PAIR_SHARE < 0.55
        d = bit_shapes["swiss_roll"]
        w = _shortest(d, share)
        if kind == "positive":
            w = w * _bit_weights("positive", d)
        kwargs = dict(weights=w, transform=transform, max_iter=100)
        want = _bits(reference_smacof, d, 2, **kwargs)
        calls = _pair_path_calls(monkeypatch)
        assert _bits(smacof, d, 2, **kwargs) == want
        assert len(calls) == pair_path

    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    def test_active_coincident_pair(self, bit_shapes, transform, monkeypatch):
        """The pair path meets a zero distance between two items that a
        positive weight binds, as the torus start has them."""
        d = bit_shapes["torus_small_regular"]
        x = classical_mds(d, 2).embedding.items
        start = cdist(x, x)
        np.fill_diagonal(start, np.inf)
        coincident = start == 0
        w = _shortest(d, 0.1) | coincident
        assert (w & coincident).any()
        kwargs = dict(weights=w, transform=transform, max_iter=150)
        want = _bits(reference_smacof, d, 2, **kwargs)
        assert isinstance(want[0], bytes), want
        calls = _pair_path_calls(monkeypatch)
        assert _bits(smacof, d, 2, **kwargs) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1.0, 1e150, 1e200])
    @pytest.mark.parametrize("target_dim", [1, 2, 3, 4])
    def test_pair_distances_are_cdist(self, target_dim, scale):
        """Bit for bit, through underflow, overflow and coincident items."""
        rng = np.random.default_rng(target_dim)
        x = rng.standard_normal((40, target_dim)) * scale
        x[3] = x[5]
        x[7] = x[9] * (1 + 2**-52)
        full = rng.uniform(0.5, 2.0, (40, 40)) * (rng.random((40, 40)) < 0.3)
        full = np.maximum(full, full.T)
        pairs = dimred._Pairs(full, full, False)
        got = np.empty(pairs.i.size)
        pairs.distances(x, got)
        want = cdist(x, x)
        assert got.tobytes() == want[pairs.i, pairs.j].tobytes()
        assert got.tobytes() == want[pairs.j, pairs.i].tobytes()


    @pytest.mark.parametrize("case", [
        "max_iter_1", "two_items", "two_items_random", "three_items",
        "random_fallback", "collapsed", "zero_distances_random",
        "asymmetric_weights", "negative_weights", "disconnected_weights",
        "zero_weights", "bad_transform", "bad_init", "no_iterations",
    ])
    @pytest.mark.parametrize("transform", ["ratio", "ordinal"])
    def test_edge_cases(self, bit_shapes, case, transform):
        """Small inputs, single steps, fallbacks and every raised error."""
        rng = np.random.default_rng(11)
        three = euclidean_distances(Configuration(rng.standard_normal((3, 2))))
        line = euclidean_distances(Configuration(np.arange(3.0)[:, None]))
        zeros = ProximityMatrix(np.zeros((3, 3)))
        two = ProximityMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        ring = np.roll(np.eye(3), 1, axis=1)
        dist, dim, kwargs = {
            "max_iter_1": (bit_shapes["swiss_roll"], 2,
                           {"init": "random", "max_iter": 1}),
            "two_items": (two, 1, {}),
            "two_items_random": (two, 1, {"init": "random"}),
            "three_items": (three, 1, {"weights": np.array(
                [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])}),
            "random_fallback": (line, 2, {}),
            "collapsed": (zeros, 1, {}),
            "zero_distances_random": (zeros, 1, {"init": "random"}),
            "asymmetric_weights": (three, 1, {"weights": ring}),
            "negative_weights": (three, 1, {"weights": -np.ones((3, 3))}),
            "disconnected_weights": (three, 1, {"weights": np.diag([1.0] * 3)
                                               + np.eye(3)[[1, 0, 2]]}),
            "zero_weights": (two, 1, {"weights": np.zeros((2, 2))}),
            "bad_transform": (two, 1, {"transform": "interval"}),
            "bad_init": (two, 1, {"init": "spectral"}),
            "no_iterations": (two, 1, {"max_iter": 0}),
        }[case]
        kwargs = {"transform": transform, "seed": 2, **kwargs}
        want = _bits(reference_smacof, dist, dim, **kwargs)
        assert _bits(smacof, dist, dim, **kwargs) == want

#: Cell counts of the exact-sum tests: each up to 130 (below 8, one
#: leaf of numpy's pairwise sum, two leaves), then a spread to 1100
GRID_SIZES = [*range(2, 131), 135, 136, 200, 255, 256, 257, 384, 511, 513,
              640, 777, 1000, 1024, 1099, 1100]


def _grid_values(rng, count, trial):
    """Values from 1e-300 to 1e300, or of one magnitude, where the order
    of the additions moves the last bits most; a fifth are exact zeros."""
    if trial % 2:
        v = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), count))
    else:
        v = rng.uniform(0.0, 1.0, count)
    v[rng.random(count) < 0.2] = 0.0
    return v


class TestGridSum:
    """``_GridSum`` gives the bits of ``np.sum`` over the zero-filled grid."""

    @pytest.mark.parametrize("size", GRID_SIZES)
    def test_equals_the_grid_sum(self, size):
        rng = np.random.default_rng(size)
        for copies in (1, 2):
            most = size // copies
            for count in sorted({1, min(2, most), max(1, most // 3), most}):
                cells = rng.choice(size, (copies, count), replace=False)
                total = dimred._GridSum(cells, size)
                for trial in range(4):
                    v = _grid_values(rng, count, trial)
                    grid = np.zeros(size)
                    for row in cells:
                        grid[row] = v
                    assert np.float64(total(v)).tobytes() == \
                        grid.sum().tobytes(), (copies, count, trial)

    def test_all_cells_listed_in_order(self):
        rng = np.random.default_rng(3)
        for size in (7, 8, 128, 129, 1100):
            v = _grid_values(rng, size, 1)
            total = dimred._GridSum(np.arange(size)[None], size)
            assert np.float64(total(v)).tobytes() == v.sum().tobytes()

    @pytest.mark.parametrize("ordinal", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 37, 150])
    def test_pair_sums_are_the_off_diagonal_grid_sums(self, n, ordinal):
        """Each pair's value at both of its cells of the (n - 1, n) grid
        of :func:`dimred._offdiag`."""
        rng = np.random.default_rng(n)
        full = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.3)
        full[0, 1] = 1.0
        full = np.maximum(full, full.T)
        np.fill_diagonal(full, 0.0)
        pairs = dimred._Pairs(full, full, ordinal)
        for trial in range(4):
            v = _grid_values(rng, pairs.i.size, trial)
            square = np.zeros((n, n))
            square[pairs.i, pairs.j] = square[pairs.j, pairs.i] = v
            grid = np.ascontiguousarray(dimred._offdiag(square))
            assert np.float64(pairs.total(v)).tobytes() == \
                grid.sum().tobytes()


class TestSharedStart:
    """A start given as ``init`` and the jobs of one source that share one."""

    def test_given_classical_start_keeps_the_bits(self, bit_shapes):
        d = bit_shapes["torus_small_regular"]
        start = classical_mds(d, 2).embedding.items
        for reducer in (smacof, local_smacof):
            given = list(start.tolist())  # any array-like
            want = _bits(reducer, d, 2, max_iter=40)
            got = _bits(reducer, d, 2, max_iter=40, init=given)
            assert got[:-1] == want[:-1]
            assert (want[-1], got[-1]) == ("classical", "given")
            assert given == start.tolist()

    @pytest.mark.parametrize("init, message", [
        (np.zeros((BIT_N, 3)), r"init array must have shape \(64, 2\)"),
        (np.zeros(BIT_N), r"init array must have shape \(64, 2\)"),
        (np.full((BIT_N, 2), np.nan), "init array must be finite"),
        (np.full((BIT_N, 2), np.inf), "init array must be finite"),
    ])
    def test_bad_start_rejected(self, bit_shapes, init, message):
        with pytest.raises(ValueError, match=message):
            smacof(bit_shapes["swiss_roll"], 2, init=init)

    def test_jobs_make_distances_and_start_once(self, monkeypatch):
        config = generate(ManifoldSpec("swiss_roll", 80, seed=2))
        jobs = [("pca", {}), ("smacof", {}), ("local_smacof", {}),
                ("classical_mds", {}), ("smacof", {"init": "random"}),
                ("local_smacof", {"quantile": 0.2, "transform": "ordinal"})]
        want = [run_reduction(m, config, 2, p, seed=4) for m, p in jobs]
        made = []
        for owner, name in ((geometry, "euclidean_distances"),
                            (dimred, "_classical_scaling")):
            def counted(*args, _inner=getattr(owner, name), _name=name):
                made.append(_name)
                return _inner(*args)
            monkeypatch.setattr(owner, name, counted)
        runs = dimred.reduction_jobs(config, 2, jobs, seed=4)
        interval = sys.getswitchinterval()
        try:  # more workers than CPUs, switching often
            sys.setswitchinterval(1e-5)
            with ThreadPoolExecutor(3) as pool:
                got = list(pool.map(lambda run: run(), runs[::-1],
                                    timeout=120))[::-1]
        finally:
            sys.setswitchinterval(interval)
        # one distance matrix; one classical start for the three stress
        # jobs that start from classical scaling, one for classical_mds
        assert sorted(made) == ["_classical_scaling"] * 2 + [
            "euclidean_distances"]
        for (method, _), a, b in zip(jobs, want, got):
            assert a.embedding.items.tobytes() == b.embedding.items.tobytes()
            assert a.embedding.labels == b.embedding.labels
            assert a.diagnostics.keys() == b.diagnostics.keys()
            for key, value in a.diagnostics.items():
                assert np.array_equal(value, b.diagnostics[key]), (method, key)

    def test_rejected_start_falls_back_in_each_job(self):
        """Collinear items have no 2-d classical start; each stress job
        then draws its own seeded random start, as it would alone."""
        line = Configuration(np.arange(6.0)[:, None] * [1.0, 2.0])
        jobs = [("smacof", {}), ("local_smacof", {"quantile": 0.5})]
        runs = dimred.reduction_jobs(line, 2, jobs, seed=3)
        for (method, params), run in zip(jobs, runs):
            want = _bits(run_reduction, method, line, 2, params, seed=3)
            assert _bits(run) == want
            assert want[-1] == "random-fallback"


#: Item count of the memory bounds below
MEMORY_N = 300


@pytest.fixture(scope="module")
def memory_inputs():
    config = generate(ManifoldSpec("swiss_roll", MEMORY_N, seed=3))
    return config, euclidean_distances(config)


def _memory_calls(config, dist):
    weights = _bit_weights("positive", dist)
    return {
        "smacof": lambda: smacof(dist, 2, max_iter=20),
        "smacof_ordinal": lambda: smacof(dist, 2, transform="ordinal",
                                         max_iter=20),
        "smacof_weighted": lambda: smacof(dist, 2, weights=weights,
                                          max_iter=20),
        "local_smacof": lambda: local_smacof(dist, 2, max_iter=20),
        "local_smacof_ordinal": lambda: local_smacof(
            dist, 2, transform="ordinal", max_iter=20),
        "classical_mds": lambda: classical_mds(dist, 2),
        "lle": lambda: lle(config, 2, 10),
        "laplacian_eigenmaps": lambda: laplacian_eigenmaps(config, 2, 10),
        "laplacian_eigenmaps_heat": lambda: laplacian_eigenmaps(
            config, 2, 10, t=1.0),
        "isomap": lambda: isomap(config, 2, 10),
    }


class TestMemoryBounds:
    """The traced peak of one call, in n x n float64 arrays (8·n² bytes).

    Each bound is the peak measured when it was set plus a quarter of an
    array, so a change that holds one more n x n array at the peak of a
    call fails.  Inputs are made before tracing starts, so they do not
    count; LAPACK's own work arrays are not traced.  The row ordering of
    the neighbor methods works in chunks of ``_CHUNK_CELLS`` values,
    which are shrunk here so that their fixed size does not hide an
    n x n array at this n.
    """

    @pytest.mark.parametrize("method, bound", [
        ("smacof", 2.45),
        ("smacof_ordinal", 6.26),
        ("smacof_weighted", 4.88),
        ("local_smacof", 3.1),
        ("local_smacof_ordinal", 3.15),
        ("classical_mds", 2.3),
        ("lle", 2.6),
        ("laplacian_eigenmaps", 2.6),
        ("laplacian_eigenmaps_heat", 2.6),
        ("isomap", 2.6),
    ])
    def test_peak_per_call(self, memory_inputs, monkeypatch, method, bound):
        monkeypatch.setattr(geometry, "_CHUNK_CELLS", 4 * MEMORY_N)
        call = _memory_calls(*memory_inputs)[method]
        call()  # imports and caches of a first call are not the reducer's
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8.0 * MEMORY_N**2) < bound


class TestLocalSmacof:
    def test_full_quantile_equals_plain(self):
        rng = np.random.default_rng(30)
        d = euclidean_distances(Configuration(rng.standard_normal((30, 2))))
        a = smacof(d, 2).embedding.items
        b = local_smacof(d, 2, quantile=1.0).embedding.items
        assert (a == b).all()

    def test_quantile_bounds(self):
        d = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="quantile"):
                local_smacof(d, 1, quantile=q)

    def test_disconnecting_quantile_advises(self):
        rng = np.random.default_rng(31)
        cluster_a = rng.standard_normal((10, 2))
        cluster_b = rng.standard_normal((10, 2)) + 100.0
        d = euclidean_distances(Configuration(np.vstack([cluster_a, cluster_b])))
        with pytest.raises(DisconnectedGraphError, match="raise it"):
            local_smacof(d, 2, quantile=0.05)

    def test_diagnostics_report_threshold(self):
        rng = np.random.default_rng(32)
        d = euclidean_distances(Configuration(rng.standard_normal((25, 2))))
        res = local_smacof(d, 2, quantile=0.5)
        assert res.diagnostics["method"] == "local_smacof"
        assert 0 < res.diagnostics["active_pair_fraction"] <= 1
        assert res.diagnostics["threshold"] > 0


class TestLLE:
    def test_planar_data_keeps_local_structure(self):
        rng = np.random.default_rng(40)
        uv = rng.uniform(0, 10, (250, 2))
        basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        pts = uv @ basis.T
        res = lle(Configuration(pts), 2, n_neighbors=10)
        prof = profile_between(pts, res.embedding.items)
        assert mean_local_ar(prof) >= 0.8

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        res = lle(Configuration(rng.standard_normal((60, 3))), 2, n_neighbors=8)
        assert res.diagnostics["weight_row_sum_error"] < 1e-9

    def test_wide_neighborhoods_are_regularized(self):
        rng = np.random.default_rng(42)
        res = lle(Configuration(rng.standard_normal((50, 3))), 2, n_neighbors=10)
        assert res.diagnostics["regularized_items"] == 50

    def test_narrow_neighborhoods_unregularized(self):
        rng = np.random.default_rng(43)
        res = lle(Configuration(rng.standard_normal((60, 5))), 2, n_neighbors=4)
        assert res.diagnostics["regularized_items"] == 0

    def test_embedding_columns_centered_unit(self):
        rng = np.random.default_rng(44)
        res = lle(Configuration(rng.standard_normal((60, 3))), 2, n_neighbors=8)
        emb = res.embedding.items
        assert np.abs(emb.mean(axis=0)).max() < 1e-9
        assert np.linalg.norm(emb, axis=0) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_neighbor_count_bounds(self):
        c = Configuration(np.random.default_rng(45).standard_normal((20, 3)))
        with pytest.raises(ValueError, match="n_neighbors"):
            lle(c, 2, n_neighbors=2)
        with pytest.raises(ValueError, match="n_neighbors"):
            lle(c, 2, n_neighbors=20)


class TestIsomapAndGeodesics:
    @pytest.mark.parametrize("kind", ["tied", "duplicated"])
    def test_neighbor_lists_match_the_naive_oracle(self, kind):
        """Nearest neighbors by ascending distance, ties by item index."""
        rng = np.random.default_rng(52)
        for n in (3, 4, 9, 30, 61):
            x = rng.integers(0, 3, (n, 2)).astype(float)
            if kind == "duplicated":
                x[n // 2:] = x[:n - n // 2]
            want = np.array(naive_neighbors(x))
            for k in sorted({1, n // 2, n - 1}):
                got, d = dimred._neighbor_lists(x, k)
                assert np.array_equal(got, want[:, :k]), (n, k)
                assert np.array_equal(d, cdist(x, x))
                assert not np.diag(d).any()

    def test_collinear_geodesic_goes_through_middle(self):
        pts = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        geo = geodesic_distances(pts, n_neighbors=1)
        assert geo.values[0, 2] == pytest.approx(2.0)

    def test_full_neighborhood_reduces_to_classical_mds(self):
        rng = np.random.default_rng(50)
        pts = rng.standard_normal((40, 3))
        c = Configuration(pts)
        a = isomap(c, 2, n_neighbors=39).embedding.items
        b = classical_mds(euclidean_distances(c), 2).embedding.items
        assert np.allclose(a, b, atol=1e-12)

    def test_disconnected_graph_reports_sizes(self):
        rng = np.random.default_rng(51)
        blob_a = rng.standard_normal((12, 3))
        blob_b = rng.standard_normal((8, 3)) + 500.0
        c = Configuration(np.vstack([blob_a, blob_b]))
        with pytest.raises(DisconnectedGraphError) as err:
            isomap(c, 2, n_neighbors=3)
        assert err.value.component_sizes == [12, 8]

    def test_swiss_roll_unrolling_preserves_local_structure(self):
        # needs enough samples that the neighbor graph stays on-surface
        roll = generate(ManifoldSpec("swiss_roll", 600, seed=1))
        iso = isomap(roll, 2, n_neighbors=8)
        cmds = classical_mds(euclidean_distances(roll), 2)
        src = ranks_from_config(roll)
        loc_iso = mean_local_ar(agreement_profile(src, ranks_from_config(iso.embedding)))
        loc_cmds = mean_local_ar(agreement_profile(src, ranks_from_config(cmds.embedding)))
        assert loc_iso > 0.7
        assert loc_iso > loc_cmds + 0.3


class TestLaplacianEigenmaps:
    def test_embedding_satisfies_degree_normalization(self):
        rng = np.random.default_rng(60)
        pts = rng.standard_normal((40, 3))
        k = 6
        res = laplacian_eigenmaps(Configuration(pts), 2, n_neighbors=k)
        # rebuild the binary union graph by brute force
        nbrs = naive_neighbors(pts)
        w = np.zeros((40, 40))
        for i, row in enumerate(nbrs):
            for j in row[:k]:
                w[i, j] = w[j, i] = 1.0
        deg = w.sum(axis=1)
        f = res.embedding.items
        for col in f.T:
            assert float(col @ (deg * col)) == pytest.approx(1.0, abs=1e-9)
        # generalized eigenvector residual: L f = lambda D f
        lap = np.diag(deg) - w
        lam = res.diagnostics["eigenvalues"]
        for col, lv in zip(f.T, lam):
            assert np.allclose(lap @ col, lv * deg * col, atol=1e-8)

    def test_heat_kernel_changes_weights(self):
        rng = np.random.default_rng(61)
        pts = rng.standard_normal((50, 3)) * 2.0
        a = laplacian_eigenmaps(Configuration(pts), 2, n_neighbors=6, t=math.inf)
        b = laplacian_eigenmaps(Configuration(pts), 2, n_neighbors=6, t=1.0)
        assert not np.allclose(a.embedding.items, b.embedding.items)

    def test_nonpositive_t_rejected(self):
        c = Configuration(np.random.default_rng(62).standard_normal((10, 3)))
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="t must be positive"):
                laplacian_eigenmaps(c, 2, n_neighbors=3, t=t)

    def test_disconnected_rejected(self):
        rng = np.random.default_rng(63)
        pts = np.vstack([rng.standard_normal((8, 3)),
                         rng.standard_normal((8, 3)) + 99.0])
        with pytest.raises(DisconnectedGraphError):
            laplacian_eigenmaps(Configuration(pts), 2, n_neighbors=2)

    @pytest.mark.parametrize("t", [1e-300, 1e-3])
    def test_underflowing_kernel_names_t(self, t):
        """Heat-kernel weights that round to zero cut edges out of the
        graph before any degree is divided by."""
        square = Configuration(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))
        with pytest.raises(DisconnectedGraphError,
                           match=rf"t = {t} .*raise t: 4 components"):
            laplacian_eigenmaps(square, 1, n_neighbors=2, t=t)
        res = laplacian_eigenmaps(square, 1, n_neighbors=2, t=1.0)
        assert np.isfinite(res.embedding.items).all()

    def test_sphere_local_structure_beats_random(self):
        sphere = generate(ManifoldSpec("sphere_regular", 400, seed=0))
        res = laplacian_eigenmaps(sphere, 2, n_neighbors=10)
        prof = agreement_profile(
            ranks_from_config(sphere),
            ranks_from_config(res.embedding),
        )
        n = prof.n
        k = np.arange(1, 51)
        assert (prof.ar[:50] > k / (n - 1)).all()


SMALL_PARAMS = {
    "pca": {},
    "classical_mds": {},
    "smacof": {"max_iter": 5},
    "local_smacof": {"max_iter": 5, "quantile": 0.5},
    "lle": {"n_neighbors": 5},
    "isomap": {"n_neighbors": 5},
    "laplacian_eigenmaps": {"n_neighbors": 5},
}


class TestDispatchAndSigns:
    def test_request_validation(self):
        c = Configuration(np.random.default_rng(69).standard_normal((10, 3)))
        with pytest.raises(ValueError, match="unknown method"):
            run_reduction("tsne", c, 2)
        with pytest.raises(ValueError, match="target_dim must lie in"):
            run_reduction("pca", c, 0)

    def test_labels_survive_reduction(self):
        rng = np.random.default_rng(70)
        labels = tuple(f"it{i}" for i in range(20))
        c = Configuration(rng.standard_normal((20, 3)), labels=labels)
        assert set(SMALL_PARAMS) == set(METHODS)
        for method, params in SMALL_PARAMS.items():
            res = run_reduction(method, c, 2, params, seed=0)
            assert res.embedding.labels == labels

    @pytest.mark.parametrize("method", METHODS)
    def test_dispatch_looks_up_module_functions(self, method, monkeypatch):
        calls = []

        def spy(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append((name, kwargs))
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(dimred, method)
        spy(geometry, "euclidean_distances")
        c = Configuration(np.random.default_rng(72).standard_normal((20, 3)))
        run_reduction(method, c, 2, SMALL_PARAMS[method], seed=5)
        distances = [] if method in dimred.COORDINATE_METHODS else [
            ("euclidean_distances", {})]
        seeded = {"seed": 5} if method in ("smacof", "local_smacof") else {}
        assert calls == distances + [(method, {**SMALL_PARAMS[method], **seeded})]

    def test_params_seed_wins_over_stage_seed(self, monkeypatch):
        seen = []
        monkeypatch.setattr(dimred, "smacof",
                            lambda dist, dim, **kw: seen.append(kw["seed"]))
        c = Configuration(np.zeros((3, 2)))
        run_reduction("smacof", c, 2, {"seed": 1}, seed=5)
        assert seen == [1]

    def test_coordinate_method_rejects_distances(self):
        d = ProximityMatrix(np.zeros((3, 3)))
        with pytest.raises(TypeError, match="coordinate Configuration"):
            run_reduction("pca", d, 1)

    def test_sign_convention_everywhere(self):
        rng = np.random.default_rng(71)
        c = Configuration(rng.standard_normal((30, 4)))
        for res in (
            pca(c, 2),
            classical_mds(euclidean_distances(c), 2),
            lle(c, 2, n_neighbors=6),
            laplacian_eigenmaps(c, 2, n_neighbors=6),
        ):
            emb = res.embedding.items
            for col in emb.T:
                assert col[int(np.argmax(np.abs(col)))] >= 0
