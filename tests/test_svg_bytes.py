"""Golden bytes: every renderer's SVG on fixed small inputs, by SHA-256.

The digests were recorded from the ElementTree renderers that the string
writer replaced, except the heatmap ones: those were recorded when the
heatmap's cells became one embedded PNG, whose pixels are checked here
against the rects of ``test_viz.reference_heatmap``.  Any byte change in
any case fails; rendering details such as attribute order, float
formatting, color rounding, tie order in the loess support or escaping
all show up here.
"""

import functools
import hashlib

import numpy as np
import pytest

from drqa.agreement import AgreementProfile, agreement_profile
from drqa._workers import _run_pool
from drqa.geometry import Configuration, ranks_from_config
from drqa.viz import (
    PlotStyle,
    RenderSpec,
    loess_surface,
    render_heatmap,
    render_lift,
    render_loess_overlay,
    render_scatter,
)

from test_viz import heatmap_pixels, reference_fills, reference_heatmap


def style(**kw):
    kw.setdefault("width", 220.0)
    kw.setdefault("height", 170.0)
    kw.setdefault("margin", 20.0)
    kw.setdefault("grid_resolution", 9)
    return PlotStyle(**kw)


def heat_values():
    vals = np.random.default_rng(11).uniform(0, 1, (9, 5))
    # 0.5 lands every absolute channel on .5 before rounding
    vals[0, :2] = 0.5
    vals[1, 0] = 0.0
    vals[1, 1] = 1.0
    return vals


def diff_values():
    vals = np.random.default_rng(12).normal(0, 0.2, (9, 5))
    vals[0, 0] = 0.0
    vals[2, :] = 0.0
    vals[3, 3] = 5.0  # beyond the 98th percentile: clipped
    return vals


def cloud(n=40, seed=13):
    rng = np.random.default_rng(seed)
    return Configuration(rng.uniform(0, 4, (n, 2))), rng.uniform(0, 1, n)


def tied_cloud():
    rng = np.random.default_rng(14)
    pts = rng.integers(0, 4, (60, 2)).astype(float)
    return Configuration(pts), rng.uniform(0, 1, 60)


def partly_collinear_cloud():
    # a row of points on y = 0 and a small 2-D cluster above it: grid
    # nodes near the row see only collinear support and fall back
    rng = np.random.default_rng(15)
    line = np.column_stack([np.arange(30.0), np.zeros(30)])
    blob = rng.uniform(0, 6, (10, 2)) + np.array([10.0, 20.0])
    vals = rng.uniform(0, 1, 40)
    return Configuration(np.vstack([line, blob])), vals


def profiles(count, n=30):
    out = {}
    base = np.random.default_rng(16).standard_normal((n, 3))
    ref = ranks_from_config(Configuration(base))
    for t in range(count):
        noise = np.random.default_rng(100 + t).standard_normal((n, 3))
        moved = Configuration(base + 0.4 * t * noise)
        out[f"technique {t}"] = agreement_profile(ref, ranks_from_config(moved))
    return out


def chance_profile(n=20):
    k = np.arange(1, n)
    return AgreementProfile(k / (n - 1))


def scatter_panel():
    config, vals = cloud(25, 17)
    return render_scatter(config, vals, RenderSpec(style=style()))


HEATMAPS = {
    "heatmap_absolute": lambda draw: draw(
        heat_values(), spec=RenderSpec(style=style())),
    "heatmap_compare": lambda draw: draw(
        diff_values(), spec=RenderSpec(comparison="compare", style=style())),
    "heatmap_binary": lambda draw: draw(
        diff_values(), spec=RenderSpec(comparison="compare", style=style()),
        binary=True),
    "heatmap_order": lambda draw: draw(
        heat_values(), item_order=[4, 0, 8, 2, 6, 1, 7, 3, 5],
        ks=(2, 3, 5, 8, 13)),
}

CASES = {
    **{case: functools.partial(make, render_heatmap)
       for case, make in HEATMAPS.items()},
    "loess": lambda: render_loess_overlay(
        *cloud(), RenderSpec(style=style())),
    "loess_tied": lambda: render_loess_overlay(
        *tied_cloud(), RenderSpec(style=style(loess_span=0.3,
                                              grid_resolution=7))),
    "loess_fallback": lambda: render_loess_overlay(
        *partly_collinear_cloud(),
        RenderSpec(style=style(loess_span=0.25))),
    "scatter_one": scatter_panel,
    "scatter_two": lambda: render_scatter(
        [cloud(25, 18)[0], cloud(25, 19)[0]], cloud(25, 18)[1] - 0.5,
        RenderSpec(comparison="compare")),
    "scatter_3d": lambda: render_scatter(
        Configuration(np.random.default_rng(20).standard_normal((20, 3))),
        np.linspace(0, 1, 20), RenderSpec(style=style(azimuth=55.0))),
    "lift_one": lambda: render_lift(profiles(1), RenderSpec(style=style())),
    "lift_six": lambda: render_lift(
        {('a & <b> "c"' if name == "technique 2" else name): prof
         for name, prof in profiles(6).items()}, RenderSpec(style=style())),
    "lift_no_bands": lambda: render_lift(
        {"chance": chance_profile()}, RenderSpec(style=style())),
}

DIGESTS = {
    "heatmap_absolute":
        "b808571ffccaec1aad616dd1ffd66765a6cb288e6ea39e9fe103cba6f3474c27",
    "heatmap_binary":
        "0ef375abf83a8338dd982e6c3a613cd934f6448539a0c5d75238e5b522c52d5c",
    "heatmap_compare":
        "531fb760d32097e45c7b5a9f2f85ca2d9051f02f08265334f0b6d9f3dd4f356d",
    "heatmap_order":
        "bf67d8e558c6c2fe5bf71ceb45891b18d5d59d063234785c24c1a31c924d9dad",
    "lift_no_bands":
        "fa65bdf9306fcc0640035d8e7a64c887d8fa03d72faa494ce80057e5683691be",
    "lift_one":
        "0e6dc7d79629e6dfa870a361983b982c689339298441959465e7385493839e17",
    "lift_six":
        "b5a35e88f0ad10b366dee830f92bf336b86856bcd998161f342858b685c2e963",
    "loess":
        "7c29aaddda46dc3644f0d8b031c3a400ef439ee1240cf0a21fb7e0c69d21ec40",
    "loess_fallback":
        "10154cd4e1b84b2106b13fbdbe566da22a5d771085f06caa372135c0e15460ca",
    "loess_tied":
        "c462197b180209a4f92f6e80d1af85ec6c639b307a2b7ce6d5684de3956a4dea",
    "scatter_3d":
        "b6ce200330eb8ac2d08a0ffc6dac06a59bcdcfefcb5b422341f6233a9c6c80fd",
    "scatter_one":
        "6710b35a63ed8424cdd8f05375da5d7b392e6dc923912c1bbe3b1b1ef823c8a2",
    "scatter_two":
        "ba119124e3915505aba69f80cd7d8ad6ea01460a4503cf7e1e4b113e4761f311",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_bytes_match_golden(case):
    svg = CASES[case]()
    assert hashlib.sha256(svg.encode()).hexdigest() == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(HEATMAPS))
def test_heatmap_pixels_are_the_reference_fills(case):
    assert np.array_equal(heatmap_pixels(CASES[case]()),
                          reference_fills(HEATMAPS[case](reference_heatmap)))


def test_cases_hit_their_edge():
    """Each edge case above really exercises what it is named for."""
    fb = loess_surface(partly_collinear_cloud()[0].items,
                       partly_collinear_cloud()[1], span=0.25, grid=9).fallback
    assert fb.any() and not fb.all()
    assert '<g class="bands" />' in CASES["lift_no_bands"]()
    assert "a &amp; &lt;b&gt; \"c\"" in CASES["lift_six"]()


LOESS_CLOUDS = {
    "loess": (cloud, 0.75, 9),
    "loess_tied": (tied_cloud, 0.3, 7),
    "loess_fallback": (partly_collinear_cloud, 0.25, 9),
}


@pytest.mark.parametrize("case", sorted(LOESS_CLOUDS))
def test_loess_bits_do_not_depend_on_workers(case):
    make, span, grid = LOESS_CLOUDS[case]
    config, vals = make()
    serial = loess_surface(config.items, vals, span=span, grid=grid)
    for threads in (2, 3):
        with _run_pool(threads):
            surface = loess_surface(config.items, vals, span=span, grid=grid)
        assert surface.values.tobytes() == serial.values.tobytes()
        assert surface.fallback.tobytes() == serial.fallback.tobytes()
    with _run_pool(3):
        svg = render_loess_overlay(config, vals, RenderSpec(style=style(
            loess_span=span, grid_resolution=grid)))
    assert hashlib.sha256(svg.encode()).hexdigest() == DIGESTS[case]
