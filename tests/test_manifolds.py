"""Manifold generators: surface membership, determinism, sampling uniformity."""

import math

import numpy as np
import pytest

from drqa.manifolds import SHAPES, ManifoldSpec, generate


def surface_residual(shape, pts, R=None, r=None, radius=1.0):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    if shape.startswith("sphere"):
        return np.abs(np.sqrt(x**2 + y**2 + z**2) - radius)
    if shape.startswith("torus"):
        return np.abs((np.sqrt(x**2 + z**2) - R) ** 2 + y**2 - r**2)
    raise AssertionError(shape)


class TestSurfaceMembership:
    @pytest.mark.parametrize("shape", ["sphere_regular", "sphere_random"])
    def test_sphere_radius(self, shape):
        pts = generate(ManifoldSpec(shape, 500, seed=3)).items
        assert surface_residual(shape, pts).max() < 1e-9

    @pytest.mark.parametrize(
        "shape,R,r",
        [
            ("torus_large_regular", 10.0, 2.0),
            ("torus_small_regular", 3.0, 2.0),
            ("torus_random", 6.0, 2.0),
        ],
    )
    def test_torus_equation(self, shape, R, r):
        pts = generate(ManifoldSpec(shape, 500, seed=3)).items
        assert surface_residual(shape, pts, R=R, r=r).max() < 1e-9

    def test_swiss_roll_parametrization(self):
        pts = generate(ManifoldSpec("swiss_roll", 400)).items
        phi = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
        assert phi.min() >= 1.5 * np.pi - 1e-9
        assert phi.max() <= 4.5 * np.pi + 1e-9
        # the angle of (x, z) must equal phi modulo full turns
        ang = np.arctan2(pts[:, 2], pts[:, 0])
        assert np.abs(np.cos(ang) - np.cos(phi)).max() < 1e-9
        assert pts[:, 1].min() >= -1e-12 and pts[:, 1].max() <= 21.0 + 1e-12

    def test_swiss_roll_random_sampling(self):
        pts = generate(ManifoldSpec("swiss_roll", 400, seed=5,
                                    shape_params={"sampling": "random"})).items
        phi = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
        assert phi.min() >= 1.5 * np.pi - 1e-9 and phi.max() <= 4.5 * np.pi + 1e-9


class TestDeterminismAndSeeds:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_seed_same_points(self, shape):
        a = generate(ManifoldSpec(shape, 200, seed=11)).items
        b = generate(ManifoldSpec(shape, 200, seed=11)).items
        assert (a == b).all()

    @pytest.mark.parametrize("shape", ["sphere_random", "torus_random"])
    def test_different_seed_different_points(self, shape):
        a = generate(ManifoldSpec(shape, 200, seed=1)).items
        b = generate(ManifoldSpec(shape, 200, seed=2)).items
        assert not (a == b).all()

    def test_exact_item_counts(self):
        for shape in SHAPES:
            assert generate(ManifoldSpec(shape, 240, seed=0)).n == 240


class TestSamplingUniformity:
    def test_random_sphere_octants(self):
        n = 2000
        pts = generate(ManifoldSpec("sphere_random", n, seed=19)).items
        signs = (pts > 0).astype(int)
        octant = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2]
        counts = np.bincount(octant, minlength=8)
        p = 1 / 8
        sigma = np.sqrt(n * p * (1 - p))
        assert np.abs(counts - n * p).max() <= 4 * sigma

    def test_random_torus_tube_angle_bias(self):
        # outer half (cos v > 0) must carry more mass than the inner half
        pts = generate(ManifoldSpec("torus_random", 4000, seed=23)).items
        R = 6.0
        outer = (np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2) > R).sum()
        assert outer > 2200

    def test_regular_torus_is_lattice(self):
        pts = generate(ManifoldSpec("torus_large_regular", 1000)).items
        u = np.arctan2(pts[:, 2], pts[:, 0])
        assert len(np.unique(np.round(u, 9))) < 1000  # shared ring angles


class TestValidation:
    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape"):
            ManifoldSpec("klein_bottle", 100)

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            ManifoldSpec("sphere_regular", 3)

    def test_bad_torus_radii(self):
        with pytest.raises(ValueError, match="ring_radius > tube_radius"):
            ManifoldSpec("torus_random", 100,
                         shape_params={"ring_radius": 1.0, "tube_radius": 2.0})
        with pytest.raises(ValueError, match="ring_radius > tube_radius"):
            ManifoldSpec("torus_small_regular", 100,
                         shape_params={"tube_radius": 0})

    @pytest.mark.parametrize("params, message", [
        ({"sampling": "x"}, "sampling must be 'grid' or 'random'"),
        ({"phi_min": 5.0, "phi_max": 4.0}, "phi_max > phi_min > 0"),
        ({"height": 0}, "height > 0"),
    ], ids=["sampling", "phi", "height"])
    def test_bad_swiss_roll_params(self, params, message):
        with pytest.raises(ValueError, match=message):
            ManifoldSpec("swiss_roll", 100, shape_params=params)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown shape_params"):
            ManifoldSpec("sphere_regular", 100, shape_params={"bogus": 1})

    @pytest.mark.parametrize("params", [
        {"radius": "x"}, {"radius": True}, {"radius": [1]}],
        ids=["string", "bool", "list"])
    def test_param_types_checked(self, params):
        with pytest.raises(ValueError, match="radius has the wrong type"):
            ManifoldSpec("sphere_random", 100, shape_params=params)

    @pytest.mark.parametrize("shape, params", [
        ("sphere_random", {"radius": math.inf}),
        ("sphere_regular", {"radius": math.nan}),
        ("swiss_roll", {"phi_max": math.inf}),
        ("torus_random", {"ring_radius": math.inf}),
    ], ids=["radius_inf", "radius_nan", "phi_max_inf", "ring_radius_inf"])
    def test_non_finite_params_rejected(self, shape, params):
        """JSON configs can hold 1e999; it fails here, not in generation."""
        with pytest.raises(ValueError, match="must be finite"):
            ManifoldSpec(shape, 100, shape_params=params)
