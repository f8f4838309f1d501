"""SVG renderers: color mapping, structure counts, loess math, determinism."""

import base64
import re
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drqa.agreement import AgreementProfile, agreement_profile
from drqa._workers import _run_pool
from drqa.geometry import Configuration, ranks_from_config
from drqa.viz import (
    COLOR_MODES,
    MAX_GRID_RESOLUTION,
    NEGATIVE_RGB,
    NEUTRAL_RGB,
    POSITIVE_RGB,
    SVG_NS,
    XLINK_NS,
    ColorScale,
    PlotStyle,
    RenderSpec,
    TECHNIQUE_RGB,
    lift_area,
    loess_surface,
    order_by_first_coordinate,
    render_heatmap,
    render_lift,
    render_loess_overlay,
    render_scatter,
)
from drqa.viz import _f, _fs, _scale_for, _svg, _tag, _template, _text

from oracles import naive_weighted_loess_fit


def parse(svg_text):
    return ET.fromstring(svg_text)


def elements(svg_text, cls):
    root = parse(svg_text)
    return [el for el in root.iter() if el.get("class") == cls]


def small_style(**kw):
    kw.setdefault("width", 200.0)
    kw.setdefault("height", 160.0)
    kw.setdefault("margin", 20.0)
    kw.setdefault("grid_resolution", 8)
    return PlotStyle(**kw)


def profile_between(a_pts, b_pts):
    return agreement_profile(
        ranks_from_config(Configuration(a_pts)),
        ranks_from_config(Configuration(b_pts)),
    )


def rgb(scale, value):
    """One value's color, as a tuple of ints."""
    return tuple(scale.rgb_array(value).tolist())


class TestColorScale:
    def test_absolute_endpoints(self):
        s = ColorScale("absolute", (0.0, 1.0))
        assert rgb(s, 0.0) == (255, 255, 255)
        assert rgb(s, 1.0) == (0, 122, 255)

    def test_comparative_zero_is_neutral(self):
        s = ColorScale("comparative", (-2.0, 2.0))
        assert rgb(s, 0.0) == (255, 255, 255)
        assert rgb(s, -2.0) == (255, 59, 48)
        assert rgb(s, 2.0) == (0, 122, 255)

    @pytest.mark.parametrize("mode,domain", [
        ("absolute", (0.0, 1.0)),
        ("comparative", (-1.5, 1.5)),
    ])
    def test_red_never_rises_blue_never_falls(self, mode, domain):
        s = ColorScale(mode, domain)
        vs = np.linspace(domain[0] - 0.5, domain[1] + 0.5, 301)
        reds = [rgb(s, v)[0] for v in vs]
        blues = [rgb(s, v)[2] for v in vs]
        assert all(a >= b for a, b in zip(reds, reds[1:]))
        assert all(a <= b for a, b in zip(blues, blues[1:]))

    def test_values_outside_domain_are_clipped(self):
        s = ColorScale("comparative", (-1.0, 1.0))
        assert rgb(s, 50.0) == rgb(s, 1.0)
        assert rgb(s, -50.0) == rgb(s, -1.0)

    def test_degenerate_field_maps_to_neutral(self):
        s = ColorScale.for_values("comparative", np.zeros(10))
        assert rgb(s, 0.0) == (255, 255, 255)

    def test_outlier_resistant_domain(self):
        vals = np.concatenate([np.full(99, 0.1), [100.0]])
        s = ColorScale.for_values("comparative", vals)
        assert s.domain[1] < 100.0

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ColorScale("rainbow", (0, 1))
        with pytest.raises(ValueError, match="interval"):
            ColorScale("absolute", (1.0, 0.0))
        with pytest.raises(ValueError, match="contain 0"):
            ColorScale("comparative", (0.5, 1.0))


def reference_rgb(mode, domain, value):
    """The scalar color formula the array kernel must reproduce bit for bit."""
    lo, hi = domain
    v = min(max(float(value), lo), hi)
    if mode == "absolute":
        t = (v - lo) / (hi - lo)
        a, b = NEUTRAL_RGB, POSITIVE_RGB
    elif v < 0:
        t = 1.0 - v / lo
        a, b = NEGATIVE_RGB, NEUTRAL_RGB
    else:
        t = v / hi if hi > 0 else 0.0
        a, b = NEUTRAL_RGB, POSITIVE_RGB
    return tuple(int(round(a[i] + t * (b[i] - a[i]))) for i in range(3))


@st.composite
def scale_and_values(draw):
    mode = draw(st.sampled_from(COLOR_MODES))
    bound = st.floats(0, 1e3, allow_nan=False)
    if mode == "absolute":
        lo = draw(st.floats(-1e3, 1e3, allow_nan=False))
        hi = lo + draw(st.floats(1e-3, 1e3, allow_nan=False))
    else:
        lo, hi = -draw(bound), draw(bound)
        if lo == hi:
            hi = 1.0
    # channels step by 255, 133 or 207 between anchors: fractions m / (2 *
    # step) put a channel on .5 before rounding whenever the float
    # arithmetic is exact, as it is for the dyadic domains drawn below
    halfway = st.sampled_from([255, 133, 207]).flatmap(
        lambda step: st.integers(-2 * step, 2 * step).map(
            lambda m: m / (2 * step) * (hi if m >= 0 else -lo)
            if mode != "absolute" else lo + abs(m) / (2 * step) * (hi - lo)))
    outside = st.floats(-4e3, 4e3, allow_nan=False)
    values = draw(st.lists(halfway | outside | st.sampled_from([lo, hi, 0.0]),
                           min_size=1, max_size=30))
    return ColorScale(mode, (lo, hi)), values


class TestColorKernel:
    @settings(max_examples=300, deadline=None)
    @given(scale_and_values())
    def test_kernel_equals_scalar_reference(self, case):
        scale, values = case
        want = [reference_rgb(scale.mode, scale.domain, v) for v in values]
        got = scale.rgb_array(np.array(values))
        assert got.tolist() == [list(rgb) for rgb in want]
        assert scale.css_array(values) == ["#%02x%02x%02x" % rgb for rgb in want]
        assert [rgb(scale, v) for v in values] == want

    @pytest.mark.parametrize("mode,domain,value,want", [
        # 255 - 127.5, 255 - 66.5, 255: .5 rounds to even
        ("absolute", (0.0, 1.0), 0.5, (128, 188, 255)),
        ("comparative", (-1.0, 1.0), 0.5, (128, 188, 255)),
        # 255 - 0.5 * 0, 59 + 0.5 * 196, 48 + 0.5 * 207 = 151.5
        ("comparative", (-2.0, 2.0), -1.0, (255, 157, 152)),
        ("comparative", (-1.0, 0.0), 3.0, (255, 255, 255)),
    ])
    def test_halfway_and_clipped_values(self, mode, domain, value, want):
        scale = ColorScale(mode, domain)
        assert reference_rgb(mode, domain, value) == want
        assert rgb(scale, value) == want
        assert scale.rgb_array(np.full((2, 3), value)).tolist() == [[list(want)] * 3] * 2

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ColorScale("absolute", (0.0, 1.0)).rgb_array([0.5, np.nan])


class TestRenderSpec:
    def test_defaults_valid(self):
        spec = RenderSpec()
        assert spec.comparison == "simple" and spec.style == PlotStyle()

    def test_range_k_validation(self):
        # a spec holds no k range: the ks travel with the matrix they label,
        # and render_heatmap checks them
        with pytest.raises(TypeError, match="range_k"):
            RenderSpec(range_k=(1, 5))
        vals = np.zeros((4, 3))
        for ks, match in ((5, "integers"), ((1.0, 2.0, 3.0), "integers"),
                          ((1, True, 3), "integers"),
                          ((3, 2, 4), "increasing"), ((1, 1, 2), "increasing"),
                          ((0, 1, 2), ">= 1")):
            with pytest.raises(ValueError, match=match):
                render_heatmap(vals, ks=ks)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            RenderSpec(comparison="triple")

    def test_style_validation(self):
        with pytest.raises(ValueError, match="margin"):
            PlotStyle(width=10.0, height=10.0, margin=20.0)
        with pytest.raises(ValueError, match="loess_span"):
            PlotStyle(loess_span=0.0)
        with pytest.raises(ValueError, match="azimuth must be of type float"):
            PlotStyle(azimuth="x")
        with pytest.raises(ValueError, match="grid_resolution must be of type int"):
            PlotStyle(grid_resolution=2.5)
        for bad in (MAX_GRID_RESOLUTION + 1, 10 ** 6, 10 ** 30):
            with pytest.raises(ValueError, match="grid_resolution must be "
                               f"at most {MAX_GRID_RESOLUTION}$"):
                PlotStyle(grid_resolution=bad)
        assert PlotStyle(grid_resolution=MAX_GRID_RESOLUTION).grid_resolution \
            == MAX_GRID_RESOLUTION
        for name in ("width", "height", "margin", "point_radius",
                     "loess_span", "azimuth", "elevation"):
            for bad in (np.nan, np.inf, -np.inf, 10 ** 400):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    PlotStyle(**{name: bad})
        for name in ("margin", "point_radius"):
            with pytest.raises(ValueError, match=f"{name} must not be negative"):
                PlotStyle(**{name: -3.0})
        # zero is allowed, and an int is a float
        assert PlotStyle(margin=0, point_radius=0.0).margin == 0


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 4, (40, 2))
    vals = rng.uniform(0, 1, 40)
    return pts, vals


class TestLoessSurface:
    def test_constant_field_is_constant(self, cloud):
        pts, _ = cloud
        surf = loess_surface(pts, np.full(40, 0.7), grid=10)
        assert np.abs(surf.values - 0.7).max() < 1e-9

    def test_linear_field_recovered_exactly(self, cloud):
        pts, _ = cloud
        vals = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
        surf = loess_surface(pts, vals, span=1.0, grid=9)
        gx, gy = np.meshgrid(surf.xs, surf.ys)
        want = 2.0 * gx - 3.0 * gy + 1.0
        assert np.abs(surf.values - want).max() < 1e-6

    def test_matches_independent_normal_equations(self, cloud):
        pts, vals = cloud
        surf = loess_surface(pts, vals, span=0.5, grid=7)
        q = int(np.ceil(0.5 * 40))
        rng = np.random.default_rng(1)
        for _ in range(10):
            r = rng.integers(0, 7)
            c = rng.integers(0, 7)
            node = np.array([surf.xs[c], surf.ys[r]])
            want = naive_weighted_loess_fit(pts, vals, node, q)
            assert surf.values[r, c] == pytest.approx(want, abs=1e-8)

    def test_tied_points_match_independent_normal_equations(self):
        # a lattice with repeated points: most supports end inside a run
        # of equal distances, which the stable order cuts by index
        rng = np.random.default_rng(9)
        pts = rng.integers(0, 5, (70, 2)).astype(float)
        vals = rng.uniform(0, 1, 70)
        q = int(np.ceil(0.4 * 70))
        surf = loess_surface(pts, vals, span=0.4, grid=9)
        assert not surf.fallback.any()
        for r in range(9):
            for c in range(9):
                node = np.array([surf.xs[c], surf.ys[r]])
                want = naive_weighted_loess_fit(pts, vals, node, q)
                assert surf.values[r, c] == pytest.approx(want, abs=1e-8)

    def test_translation_invariance(self, cloud):
        pts, vals = cloud
        a = loess_surface(pts, vals, grid=8)
        b = loess_surface(pts + np.array([13.5, -7.25]), vals, grid=8)
        assert np.allclose(a.values, b.values, atol=1e-9)
        assert (a.fallback == b.fallback).all()

    def test_collinear_support_falls_back_to_mean(self):
        pts = np.column_stack([np.linspace(0, 9, 12), np.zeros(12)])
        vals = np.linspace(0, 1, 12)
        surf = loess_surface(pts, vals, span=0.5, grid=5)
        assert surf.fallback.all()
        assert np.isfinite(surf.values).all()

    def test_validation(self, cloud):
        pts, vals = cloud
        with pytest.raises(ValueError, match="at least 10"):
            loess_surface(pts[:5], vals[:5])
        with pytest.raises(ValueError, match="span"):
            loess_surface(pts, vals, span=1.5)
        with pytest.raises(ValueError, match="finite"):
            loess_surface(pts, np.r_[vals[:-1], np.nan])


def reference_loess(points, values, span=0.75, grid=60):
    """The loess grid fit one node at a time, as ``loess_surface`` once ran.

    Each node's support is its ceil(span*n) nearest points by ``hypot``,
    ties by ascending index, under tri-cube weights on the distance scaled
    by the furthest of them (uniform weights when that is 0).
    ``np.linalg.lstsq`` solves the weighted design; a rank below 3 falls
    back to the weighted mean and flags the node.  ``loess_surface`` must
    flag the same nodes bit for bit and come within 1e-9 of every value.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    q = int(np.ceil(span * len(pts)))
    xs = np.linspace(pts[:, 0].min(), pts[:, 0].max(), grid)
    ys = np.linspace(pts[:, 1].min(), pts[:, 1].max(), grid)
    out = np.empty((grid, grid))
    fell_back = np.zeros((grid, grid), dtype=bool)
    dx = pts[None, :, 0] - xs[:, None]
    for row in range(grid):
        dy = pts[:, 1] - ys[row]
        d = np.hypot(dx, dy[None, :])
        sel = np.argsort(d, axis=1, kind="stable")[:, :q]
        d_sel = np.take_along_axis(d, sel, axis=1)
        d_max = d_sel[:, -1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(d_max > 0, np.clip(
                1.0 - (d_sel / d_max) ** 3, 0.0, None) ** 3, 1.0)
        sw = np.sqrt(w)
        design = np.stack([sw, np.take_along_axis(dx, sel, axis=1) * sw,
                           dy[sel] * sw], axis=2)
        target = vals[sel] * sw
        for col in range(grid):
            coef, _, rank, _ = np.linalg.lstsq(design[col], target[col],
                                               rcond=None)
            if rank == 3:
                out[row, col] = coef[0]
            else:
                v = vals[sel[col]]
                out[row, col] = np.average(v, weights=w[col]) \
                    if w[col].sum() > 0 else v.mean()
                fell_back[row, col] = True
    return out, fell_back


def loess_cloud(name):
    """80 points with values in [0, 1], shaped to stress one part of the fit."""
    rng = np.random.default_rng(17)
    n = 80
    vals = rng.uniform(0, 1, n)
    pts = rng.uniform(0, 4, (n, 2))
    t = rng.uniform(0, 4, n)
    if name == "tied":
        pts = rng.integers(0, 4, (n, 2)).astype(float)
    elif name == "coincident":
        # 50 points on the grid's corner node: a zero radius up to span 5/8
        pts[:50] = 0.0
    elif name == "partly_collinear":
        pts[:60] = np.column_stack([t[:60], 0.5 * t[:60]])
    elif name == "near_collinear":
        pts = np.column_stack([t, 0.5 * t + rng.normal(0, 1e-2, n)])
    elif name == "scaled_down":
        pts = pts * 1e-6
    elif name == "scaled_up":
        pts = pts * 1e6
    elif name == "offset":
        pts = pts + 1e8
    elif name == "huge":
        # the squares of these offsets overflow
        pts = pts * 1e160
    return pts, vals


class TestLoessReference:
    """``loess_surface`` against the per-node loop in ``reference_loess``."""

    @staticmethod
    def check(pts, vals, span, grid):
        want, want_fell_back = reference_loess(pts, vals, span, grid)
        surf = loess_surface(pts, vals, span=span, grid=grid)
        assert surf.fallback.tobytes() == want_fell_back.tobytes()
        assert np.abs(surf.values - want).max() <= 1e-9
        return surf

    def test_clouds_reach_every_route(self):
        # the corner node's radius is 0, the near-collinear cloud has full
        # rank everywhere, and the partly collinear one falls back
        pts, vals = loess_cloud("coincident")
        corner = np.hypot(*(pts - pts.min(axis=0)).T)
        assert np.sort(corner)[int(np.ceil(0.5 * 80)) - 1] == 0
        assert not reference_loess(*loess_cloud("near_collinear"), 0.25,
                                   11)[1].any()
        assert reference_loess(*loess_cloud("partly_collinear"), 0.25,
                               11)[1].any()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name", [
        "random", "tied", "coincident", "partly_collinear", "near_collinear",
        "scaled_down", "scaled_up", "offset", "huge"])
    def test_clouds(self, name, threads):
        pts, vals = loess_cloud(name)
        with _run_pool(threads):
            for span in (0.25, 0.5, 0.75, 1.0):
                self.check(pts, vals, span, 11)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(10, 30).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=n, max_size=n),
        st.lists(st.floats(0, 1), min_size=n, max_size=n))),
        st.floats(0.25, 1.0), st.integers(2, 6))
    def test_small_tied_sets(self, case, span, grid):
        pts, vals = case
        self.check(np.array(pts, dtype=float), np.array(vals), span, grid)


@pytest.fixture
def embedding_2d():
    rng = np.random.default_rng(2)
    return Configuration(rng.standard_normal((25, 2)))


class TestScatter:
    def test_one_mark_per_item(self, embedding_2d):
        vals = np.linspace(0, 1, 25)
        svg = render_scatter(embedding_2d, vals, RenderSpec(style=small_style()))
        assert len(elements(svg, "pt")) == 25
        parse(svg)  # well-formed

    def test_constant_values_single_color(self, embedding_2d):
        svg = render_scatter(embedding_2d, np.full(25, 0.4),
                             RenderSpec(style=small_style()))
        fills = {el.get("fill") for el in elements(svg, "pt")}
        assert len(fills) == 1

    def test_comparative_zero_differences_neutral(self, embedding_2d):
        spec = RenderSpec(comparison="compare", style=small_style())
        svg = render_scatter(embedding_2d, np.zeros(25), spec)
        fills = {el.get("fill") for el in elements(svg, "pt")}
        assert fills == {"#ffffff"}

    def test_comparative_sign_convention(self, embedding_2d):
        spec = RenderSpec(comparison="compare", style=small_style())
        svg = render_scatter(embedding_2d, np.full(25, 0.3), spec)
        for el in elements(svg, "pt"):
            r, g, b = (int(el.get("fill")[i:i + 2], 16) for i in (1, 3, 5))
            assert b >= r  # first technique better -> blue side

    def test_3d_projected_4d_rejected(self):
        rng = np.random.default_rng(3)
        c3 = Configuration(rng.standard_normal((12, 3)))
        svg = render_scatter(c3, np.zeros(12), RenderSpec(style=small_style()))
        assert len(elements(svg, "pt")) == 12
        c4 = Configuration(rng.standard_normal((12, 4)))
        with pytest.raises(ValueError, match="2 or 3 dimensions"):
            render_scatter(c4, np.zeros(12))

    def test_two_panel_comparison(self, embedding_2d):
        other = Configuration(embedding_2d.items[:, ::-1].copy())
        vals = np.zeros(25)
        both = render_scatter([embedding_2d, other], vals,
                              RenderSpec(style=small_style()))
        assert len(elements(both, "pt")) == 50

    def test_byte_identical_reruns(self, embedding_2d):
        vals = np.linspace(0, 1, 25)
        spec = RenderSpec(style=small_style())
        assert render_scatter(embedding_2d, vals, spec) == \
            render_scatter(embedding_2d, vals, spec)


def reference_heatmap(per_item_by_k, item_order=None, spec=None,
                      binary=False, ks=None):
    """The heatmap with one ``<rect class="cell">`` per (item, k) pair.

    This is how ``render_heatmap`` drew its cells before they became one
    image: every pixel of its image must have the fill of this renderer's
    rect for that cell, and everything but the cells must be the same
    text.  Inputs are assumed valid; ``render_heatmap`` checks them.
    """
    spec = spec or RenderSpec()
    vals = np.asarray(per_item_by_k, dtype=float)
    n, n_cols = vals.shape
    ks = tuple(range(1, n_cols + 1) if ks is None else ks)
    order = np.arange(n) if item_order is None else np.asarray(item_order)
    if binary:
        vals = np.sign(vals)
    scale = _scale_for(spec, vals, binary=binary)

    st = spec.style
    plot_w = st.width - 2 * st.margin
    plot_h = st.height - 2 * st.margin
    cw = plot_w / n_cols
    ch = plot_h / n
    cell = _template("rect", {"class": "cell", "x": None, "y": None,
                              "width": _f(cw), "height": _f(ch), "fill": None})
    xs = _fs(st.margin + np.arange(n_cols) * cw)
    ys = _fs(st.margin + np.arange(n) * ch)
    cells = "".join(cell % (x, y, fill)
                    for y, row_fills in zip(ys, scale.css_array(vals[order]))
                    for x, fill in zip(xs, row_fills))
    legend = _tag("g", {"class": "legend"}, _text(
        st.margin + plot_w / 2.0, st.height - st.margin / 4.0,
        f"k = {ks[0]}..{ks[-1]}", "axis", anchor="middle") + _text(
        st.margin + plot_w / 2.0, st.margin * 0.6,
        f"mean = {_f(vals.mean())}", "caption", anchor="middle"))
    return _svg(st.width, st.height,
                _tag("g", {"class": "cells"}, cells) + legend)


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
PNG_PREFIX = "data:image/png;base64,"


def png_chunks(png):
    """``(type, data)`` of every chunk, checking the signature and CRCs."""
    assert png[:8] == PNG_SIGNATURE
    chunks, at = [], 8
    while at < len(png):
        size, kind = struct.unpack(">I4s", png[at:at + 8])
        data = png[at + 8:at + 8 + size]
        (crc,) = struct.unpack(">I", png[at + 8 + size:at + 12 + size])
        assert crc == zlib.crc32(kind + data), kind
        chunks.append((kind, data))
        at += 12 + size
    assert at == len(png)
    return chunks


def stored_blocks(stream):
    """The payloads of a zlib stream made of stored deflate blocks.

    Checks the zlib header, each block's LEN against NLEN, that only the
    last block is final, and the Adler-32 of the data.
    """
    assert stream[:2] == b"\x78\x01"
    blocks, at, final = [], 2, 0
    while not final:
        final, size, nsize = struct.unpack("<BHH", stream[at:at + 5])
        assert final in (0, 1) and nsize == size ^ 0xFFFF
        blocks.append(stream[at + 5:at + 5 + size])
        at += 5 + size
    raw = b"".join(blocks)
    assert stream[at:] == struct.pack(">I", zlib.adler32(raw))
    assert zlib.decompress(stream) == raw
    return blocks


def heatmap_image(svg):
    """The heatmap's one ``<image>`` element."""
    images = list(parse(svg).iter(f"{{{SVG_NS}}}image"))
    assert len(images) == 1
    return images[0]


def heatmap_blocks(svg):
    """The stored blocks of the heatmap's PNG, and its width and height."""
    href = heatmap_image(svg).get(f"{{{XLINK_NS}}}href")
    assert href.startswith(PNG_PREFIX)
    chunks = png_chunks(base64.b64decode(href[len(PNG_PREFIX):],
                                         validate=True))
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    w, h, *rest = struct.unpack(">IIBBBBB", chunks[0][1])
    assert rest == [8, 2, 0, 0, 0]  # 8-bit RGB, deflate, no interlace
    return stored_blocks(chunks[1][1]), w, h


def heatmap_pixels(svg):
    """The decoded pixels of the heatmap's image, ``items x ks x 3``."""
    blocks, w, h = heatmap_blocks(svg)
    rows = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
        h, 1 + 3 * w)
    assert (rows[:, 0] == 0).all()  # filter type None on every row
    return rows[:, 1:].reshape(h, w, 3)


def pixel_hexes(svg):
    return {"#%02x%02x%02x" % tuple(p)
            for p in heatmap_pixels(svg).reshape(-1, 3).tolist()}


def reference_fills(svg):
    """The reference rects' fills as ``items x ks x 3``, placed by y and x."""
    rects = elements(svg, "cell")
    ys = sorted({float(r.get("y")) for r in rects})
    xs = sorted({float(r.get("x")) for r in rects})
    fills = np.full((len(ys), len(xs), 3), -1)
    for r in rects:
        fill = r.get("fill")
        fills[ys.index(float(r.get("y"))), xs.index(float(r.get("x")))] = [
            int(fill[i:i + 2], 16) for i in (1, 3, 5)]
    assert len(rects) == fills.shape[0] * fills.shape[1]
    return fills


class TestHeatmap:
    def test_cell_count(self):
        vals = np.random.default_rng(4).uniform(0, 1, (12, 7))
        svg = render_heatmap(vals, spec=RenderSpec(style=small_style()))
        assert heatmap_pixels(svg).shape == (12, 7, 3)

    def test_identical_techniques_uniformly_neutral(self):
        diff = np.zeros((10, 5))
        spec = RenderSpec(comparison="compare", style=small_style())
        svg = render_heatmap(diff, spec=spec)
        assert pixel_hexes(svg) == {"#ffffff"}
        svg_bin = render_heatmap(diff, spec=spec, binary=True)
        assert pixel_hexes(svg_bin) == {"#ffffff"}

    def test_binary_mode_uses_three_colors(self):
        diff = np.array([[0.4, -0.01, 0.0]] * 4)
        spec = RenderSpec(comparison="compare", style=small_style())
        svg = render_heatmap(diff, spec=spec, binary=True)
        assert pixel_hexes(svg) == {"#007aff", "#ff3b30", "#ffffff"}

    def test_item_order_permutes_rows(self):
        vals = np.arange(6, dtype=float).reshape(3, 2)
        spec = RenderSpec(style=small_style())
        a = render_heatmap(vals, item_order=[0, 1, 2], spec=spec)
        b = render_heatmap(vals, item_order=[2, 1, 0], spec=spec)
        assert a != b
        with pytest.raises(ValueError, match="permutation"):
            render_heatmap(vals, item_order=[0, 0, 2], spec=spec)

    def test_order_by_first_coordinate(self):
        c = Configuration(np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        assert order_by_first_coordinate(c) == (1, 2, 0)

    def test_ks_label_the_columns(self):
        vals = np.zeros((4, 3))
        for ks, label in ((None, "k = 1..3"), ([2, 5, 9], "k = 2..9"),
                          (np.arange(4, 7), "k = 4..6")):
            svg = render_heatmap(vals, ks=ks)
            assert [el.text for el in elements(svg, "axis")] == [label]

    def test_range_k_must_match_columns(self):
        vals = np.zeros((4, 3))
        for ks, match in (((), "0 entries"),
                          ((1, 2), "2 entries but the matrix has 3 columns"),
                          ((1, 2, 3, 4), "4 entries")):
            with pytest.raises(ValueError, match=match):
                render_heatmap(vals, ks=ks, spec=RenderSpec(style=small_style()))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            render_heatmap(np.zeros((0, 0)))


def _heat(shape, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, shape)


def _diff(shape, seed=0):
    vals = np.random.default_rng(seed).normal(0, 0.2, shape)
    vals[0, 0] = 0.0
    vals[-1, :] = 0.0
    return vals


HEATMAP_CASES = {
    "absolute": lambda: (_heat((9, 5)), {}),
    "absolute_default_style": lambda: (_heat((30, 12)), {"spec": None}),
    "compare": lambda: (_diff((9, 5)), {"spec": RenderSpec(
        comparison="compare", style=small_style())}),
    "binary": lambda: (_diff((9, 5)), {"binary": True, "spec": RenderSpec(
        comparison="compare", style=small_style())}),
    "item_order": lambda: (_heat((9, 5)), {
        "item_order": [4, 0, 8, 2, 6, 1, 7, 3, 5]}),
    "ks": lambda: (_heat((6, 4)), {"ks": (2, 3, 5, 8)}),
    "compare_order_ks": lambda: (_diff((7, 3)), {
        "spec": RenderSpec(comparison="compare", style=small_style()),
        "item_order": [6, 5, 4, 3, 2, 1, 0], "ks": (4, 9, 10)}),
    # raw PNG data of one row, exactly one stored block, and just over it
    "one_row": lambda: (_heat((1, 7)), {}),
    "one_full_block": lambda: (_heat((771, 28)), {}),
    "two_blocks": lambda: (_heat((772, 28)), {}),
}


class TestHeatmapRaster:
    """The image holds exactly the cells that ``reference_heatmap`` draws."""

    @staticmethod
    def render(case, draw):
        vals, kwargs = HEATMAP_CASES[case]()
        kwargs.setdefault("spec", RenderSpec(style=small_style()))
        return vals, draw(vals, **kwargs)

    @pytest.mark.parametrize("case", sorted(HEATMAP_CASES))
    def test_pixels_are_the_reference_fills(self, case):
        vals, svg = self.render(case, render_heatmap)
        _, ref = self.render(case, reference_heatmap)
        pixels = heatmap_pixels(svg)
        assert pixels.shape == vals.shape + (3,)
        assert np.array_equal(pixels, reference_fills(ref))
        # the legend, the axis text and the caption are unchanged
        assert re.sub(r"<image [^>]*/>", "", svg) == \
            re.sub(r'<g class="cells">.*?</g>', "", ref)

    def test_image_covers_the_plot_area(self):
        _, svg = self.render("absolute", render_heatmap)
        _, ref = self.render("absolute", reference_heatmap)
        rects = elements(ref, "cell")
        image = heatmap_image(svg)
        st = small_style()
        assert image.get("class") == "cells"
        assert [image.get(k) for k in ("x", "y", "width", "height")] == [
            _f(st.margin), _f(st.margin),
            _f(st.width - 2 * st.margin), _f(st.height - 2 * st.margin)]
        for key in ("x", "y"):
            assert float(image.get(key)) == min(float(r.get(key))
                                                for r in rects)
        assert image.get("preserveAspectRatio") == "none"
        assert image.get("image-rendering") == "optimizeSpeed"
        # SVG 1.1 needs the xlink namespace; it is declared on the image
        assert f'<image class="cells" xmlns:xlink="{XLINK_NS}" ' in svg
        assert "xmlns:xlink" not in svg[:svg.index("<image")]

    @pytest.mark.parametrize("case, sizes", [
        ("one_row", [22]),
        ("one_full_block", [65535]),
        ("two_blocks", [65535, 85]),
    ])
    def test_stored_block_sizes(self, case, sizes):
        _, svg = self.render(case, render_heatmap)
        assert [len(b) for b in heatmap_blocks(svg)[0]] == sizes

    @pytest.mark.parametrize("case", ["compare_order_ks", "two_blocks"])
    def test_byte_identical_reruns(self, case):
        assert self.render(case, render_heatmap)[1] == \
            self.render(case, render_heatmap)[1]


class TestLoessOverlay:
    def test_structure(self, embedding_2d):
        vals = np.linspace(0, 1, 25)
        spec = RenderSpec(style=small_style(grid_resolution=6))
        svg = render_loess_overlay(embedding_2d, vals, spec)
        assert len(elements(svg, "surf")) == 36
        pts = elements(svg, "pt")
        assert len(pts) == 25
        assert all(el.get("stroke") == "#000000" for el in pts)

    def test_constant_field_uniform_background(self, embedding_2d):
        spec = RenderSpec(style=small_style(grid_resolution=5))
        svg = render_loess_overlay(embedding_2d, np.full(25, 0.6), spec)
        assert len({el.get("fill") for el in elements(svg, "surf")}) == 1

    def test_requires_2d(self):
        c3 = Configuration(np.random.default_rng(5).standard_normal((15, 3)))
        with pytest.raises(ValueError, match="2D"):
            render_loess_overlay(c3, np.zeros(15))


class TestLift:
    def identity_profile(self, n=200):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((n, 3))
        r = ranks_from_config(Configuration(pts))
        return agreement_profile(r, r)

    def test_perfect_profile_fills_everything(self):
        prof = self.identity_profile(40)
        svg = render_lift({"perfect": prof}, RenderSpec(style=small_style()))
        bands = elements(svg, "band")
        assert len(bands) == 38  # one per unit interval of k
        fills = {el.get("fill") for el in bands}
        assert fills == {"#%02x%02x%02x" % TECHNIQUE_RGB[0]}
        assert lift_area(prof) == pytest.approx(lift_area(AgreementProfile(np.ones(39))))

    def test_random_profile_has_almost_no_area(self):
        rng = np.random.default_rng(7)
        prof = profile_between(rng.standard_normal((200, 3)),
                               rng.standard_normal((200, 3)))
        assert lift_area(prof) < 0.05 * lift_area(AgreementProfile(np.ones(199)))

    def test_area_matches_positive_gain_sum(self):
        # trapezoid area vs the plain sum of above-chance terms
        for prof in (self.identity_profile(200),
                     profile_between(
                         np.random.default_rng(8).standard_normal((200, 3)),
                         np.random.default_rng(8).standard_normal((200, 3))[:, :2])):
            gain_sum = np.maximum(prof.ar_adjusted, 0.0).sum()
            if gain_sum > 0:
                assert abs(lift_area(prof) - gain_sum) / gain_sum < 0.01

    def test_identical_profiles_blend_completely(self):
        prof = self.identity_profile(30)
        svg = render_lift({"one": prof, "two": prof},
                          RenderSpec(style=small_style()))
        fills = {el.get("fill") for el in elements(svg, "band")}
        pure = {"#%02x%02x%02x" % TECHNIQUE_RGB[0],
                "#%02x%02x%02x" % TECHNIQUE_RGB[1]}
        assert fills
        assert not fills & pure
        blend = "#%02x%02x%02x" % tuple(
            int(np.mean([TECHNIQUE_RGB[0][i], TECHNIQUE_RGB[1][i]]))
            for i in range(3))
        assert fills == {blend}

    def test_baseline_and_curves_present(self):
        prof = self.identity_profile(30)
        svg = render_lift({"t": prof}, RenderSpec(style=small_style()))
        root = parse(svg)
        dashed = [el for el in root.iter() if el.get("class") == "baseline"]
        assert len(dashed) == 1
        assert dashed[0].get("stroke-dasharray") == "4 3"
        assert len(elements(svg, "curve")) == 1
        assert "all-k agreement = 1.000" in svg

    def test_mismatched_n_rejected(self):
        a = self.identity_profile(30)
        b = self.identity_profile(31)
        with pytest.raises(ValueError, match="expected 30"):
            render_lift({"a": a, "b": b})

    def test_only_a_mapping_is_taken(self):
        prof = self.identity_profile(25)
        for profiles in (prof, [("t", prof)], None):
            with pytest.raises(TypeError, match="must be a mapping"):
                render_lift(profiles)

    def test_byte_identical_reruns(self):
        prof = self.identity_profile(25)
        spec = RenderSpec(style=small_style())
        assert render_lift({"t": prof}, spec) == render_lift({"t": prof}, spec)

