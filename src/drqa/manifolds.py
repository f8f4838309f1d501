"""Benchmark manifold generators: spheres, swiss roll, and tori in 3-space.

Every generator is deterministic given its seed, returns a
:class:`~drqa.geometry.Configuration`, and places points exactly on the ideal
surface (up to floating point).  Regular variants use deterministic lattices:
a golden-angle spiral on the sphere and divisor-pair angle grids on the torus
and the rolled sheet.  Random variants sample the surface area uniformly,
which for the torus means thinning tube angles near the inner rim.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import Configuration

SHAPES = (
    "sphere_regular",
    "sphere_random",
    "swiss_roll",
    "torus_random",
    "torus_large_regular",
    "torus_small_regular",
)

#: Each shape's parameters and their defaults.
SHAPE_DEFAULTS = {
    **dict.fromkeys(("sphere_regular", "sphere_random"), {"radius": 1.0}),
    "swiss_roll": {"phi_min": 1.5 * math.pi, "phi_max": 4.5 * math.pi,
                   "height": 21.0, "sampling": "grid"},
    "torus_large_regular": {"ring_radius": 10.0, "tube_radius": 2.0},
    "torus_small_regular": {"ring_radius": 3.0, "tube_radius": 2.0},
    "torus_random": {"ring_radius": 6.0, "tube_radius": 2.0},
}


@dataclass(frozen=True)
class ManifoldSpec:
    """Shape name, item count, seed, and shape-specific parameters.

    :data:`SHAPE_DEFAULTS` lists each shape's ``shape_params`` keys and their
    defaults.  The swiss roll's ``sampling`` is ``"grid"`` or ``"random"`` (to
    sample the parameter rectangle); every other parameter is a number.
    """

    shape: str
    n: int
    seed: int = 0
    shape_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; choose from {SHAPES}")
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        defaults = SHAPE_DEFAULTS[self.shape]
        for key, value in self.shape_params.items():
            if key not in defaults:
                raise ValueError(f"unknown shape_params for {self.shape}: {key!r}")
            kind = str if key == "sampling" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"shape parameter {key} has the wrong type: "
                                 f"{value!r}")
            if kind is not str and not math.isfinite(value):
                raise ValueError(f"shape parameter {key} must be finite, "
                                 f"got {value!r}")
        params = {**defaults, **self.shape_params}
        if self.shape == "swiss_roll":
            if not (params["phi_max"] > params["phi_min"] > 0
                    and params["height"] > 0):
                raise ValueError("need phi_max > phi_min > 0 and height > 0")
            if params["sampling"] not in ("grid", "random"):
                raise ValueError("sampling must be 'grid' or 'random', "
                                 f"got {params['sampling']!r}")
        elif self.shape.startswith("torus"):
            R, r = params["ring_radius"], params["tube_radius"]
            if not R > r > 0:
                raise ValueError("torus needs ring_radius > tube_radius > 0, "
                                 f"got ({R}, {r})")
        object.__setattr__(self, "shape_params", dict(self.shape_params))


def generate(spec: ManifoldSpec) -> Configuration:
    """Generate the configuration described by ``spec``."""
    params = {**SHAPE_DEFAULTS[spec.shape], **spec.shape_params}
    if spec.shape == "sphere_regular":
        pts = _sphere_lattice(spec.n, params["radius"])
    elif spec.shape == "sphere_random":
        pts = _sphere_random(spec.n, params["radius"], spec.seed)
    elif spec.shape == "swiss_roll":
        pts = _swiss_roll(spec.n, spec.seed, **params)
    else:
        R, r = params["ring_radius"], params["tube_radius"]
        if spec.shape == "torus_random":
            pts = _torus_random(spec.n, R, r, spec.seed)
        else:
            pts = _torus_lattice(spec.n, R, r)
    return Configuration(pts)


def _sphere_lattice(n: int, radius: float) -> np.ndarray:
    """Golden-angle spiral: near-even coverage with no randomness."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    return radius * np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _sphere_random(n: int, radius: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1)
    while (norms < 1e-12).any():  # essentially unreachable, kept for safety
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return radius * v / norms[:, None]


def _divisor_grid(n: int, target_ratio: float) -> tuple[int, int]:
    """Factor n = a * b with a / b as close to target_ratio as possible."""
    best = None
    for b in range(1, int(math.isqrt(n)) + 1):
        if n % b:
            continue
        for a, bb in ((n // b, b), (b, n // b)):
            gap = abs(math.log(a / bb) - math.log(target_ratio))
            key = (gap, -a)
            if best is None or key < best[0]:
                best = (key, (a, bb))
    return best[1]


def _swiss_roll(n: int, seed: int, phi_min: float, phi_max: float,
                height: float, sampling: str) -> np.ndarray:
    if sampling == "random":
        rng = np.random.default_rng(seed)
        phi = rng.uniform(phi_min, phi_max, n)
        h = rng.uniform(0.0, height, n)
    else:
        span = np.linspace(phi_min, phi_max, 512)
        arc = np.trapezoid(np.sqrt(1.0 + span * span), span)
        a, b = _divisor_grid(n, arc / height)
        phi, h = np.meshgrid(np.linspace(phi_min, phi_max, a),
                             np.linspace(0.0, height, b), indexing="ij")
        phi, h = phi.ravel(), h.ravel()
    return np.column_stack([phi * np.cos(phi), h, phi * np.sin(phi)])


def _torus_points(u: np.ndarray, v: np.ndarray, R: float, r: float) -> np.ndarray:
    ring = R + r * np.cos(v)
    return np.column_stack([ring * np.cos(u), r * np.sin(v), ring * np.sin(u)])


def _torus_lattice(n: int, R: float, r: float) -> np.ndarray:
    a, b = _divisor_grid(n, R / r)
    u = 2.0 * math.pi * np.arange(a) / a
    v = 2.0 * math.pi * np.arange(b) / b
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return _torus_points(uu.ravel(), vv.ravel(), R, r)


def _torus_random(n: int, R: float, r: float, seed: int) -> np.ndarray:
    # tube angle density is proportional to R + r cos(v); sample by rejection
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * math.pi, n)
    v = np.empty(0)
    while v.size < n:
        cand = rng.uniform(0.0, 2.0 * math.pi, 2 * (n - v.size) + 16)
        keep = rng.uniform(0.0, 1.0, cand.size) < (R + r * np.cos(cand)) / (R + r)
        v = np.concatenate([v, cand[keep]])
    return _torus_points(u, v[:n], R, r)
