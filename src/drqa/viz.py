"""Deterministic SVG views of agreement structure.

Four renderers cover the evaluation workflow: embedding scatters colored
by per-item agreement, item-by-k heatmaps, loess-smoothed agreement
surfaces, and lift plots of a profile against its chance baseline.  All
output is plain SVG 1.1 text built with fixed float formatting and
insertion-ordered attributes, so a given input always yields the same
bytes.

Each renderer takes its data and a ``RenderSpec``, which says only how to
draw: ``comparison`` (``simple`` colors agreement on [0, 1], ``compare``
colors differences on a diverging scale) and the ``PlotStyle``.  Which
values and k are drawn comes from the data itself; a heatmap labels its
columns with the k values passed along with its matrix.

The renderers write that text directly, from numpy arrays, with one small
writer (``_tag``) that produces what ElementTree would serialize: attributes
in insertion order, ``" />"`` closing an element without content, ``&``,
``<`` and ``>`` escaped in text, and additionally ``"``, CR, LF and TAB
escaped in attribute values.  Bulk elements (points, loess tiles, bands)
are filled into a ``%`` template made by the same writer.  A heatmap's
cells are not elements: they are the pixels of one PNG, embedded as a data
URI in a single ``<image>``.  Colors come from one array kernel,
``ColorScale.rgb_array``.  ``_tag`` is the only way SVG is written here.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from ._workers import _pool
from .agreement import AgreementProfile, psi
from .geometry import Configuration, _readonly, _stable_order

SVG_NS = "http://www.w3.org/2000/svg"
XLINK_NS = "http://www.w3.org/1999/xlink"

# diverging anchors: negative, neutral midpoint, positive
NEGATIVE_RGB = (255, 59, 48)
NEUTRAL_RGB = (255, 255, 255)
POSITIVE_RGB = (0, 122, 255)

# cycled per-technique colors for lift curves
TECHNIQUE_RGB = (
    (0, 122, 255),
    (255, 149, 0),
    (52, 199, 89),
    (175, 82, 222),
    (255, 45, 85),
    (90, 200, 250),
)

FILL_OPACITY = 0.45

#: Largest ``PlotStyle.grid_resolution``: a loess grid of 1000 x 1000 nodes
#: is drawn as a million tiles.
MAX_GRID_RESOLUTION = 1000

COLOR_MODES = ("absolute", "comparative")
COMPARISONS = ("simple", "compare")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; booleans are not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _f(v) -> str:
    return "%.3f" % float(v)


def _fs(values) -> list[str]:
    """``_f`` of every value of an array, flattened."""
    return ["%.3f" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _hex(rgb) -> str:
    return "#%02x%02x%02x" % tuple(int(c) for c in rgb)


def _hex_array(rgb: np.ndarray) -> list:
    """``_hex`` along the last axis of an integer array, as nested lists.

    Each distinct color is formatted once.
    """
    code = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    uniq, inverse = np.unique(code, return_inverse=True)
    names = np.array(["#%06x" % c for c in uniq.tolist()], dtype=object)
    return names[inverse.reshape(code.shape)].tolist()


@dataclass(frozen=True)
class PlotStyle:
    """Canvas geometry and styling knobs shared by all renderers."""

    width: float = 480.0
    height: float = 360.0
    margin: float = 40.0
    point_radius: float = 3.0
    grid_resolution: int = 60
    loess_span: float = 0.75
    azimuth: float = 30.0
    elevation: float = 20.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(
                    value, Integral if f.type == "int" else Real):
                raise ValueError(f"{f.name} must be of type {f.type}")
            if f.type == "float":
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int too large for a float
                    finite = False
                if not finite:
                    raise ValueError(f"{f.name} must be finite")
        for name in ("margin", "point_radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.width <= 2 * self.margin or self.height <= 2 * self.margin:
            raise ValueError("canvas too small for its margin")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.grid_resolution > MAX_GRID_RESOLUTION:
            raise ValueError(
                f"grid_resolution must be at most {MAX_GRID_RESOLUTION}")
        if not 0 < self.loess_span <= 1:
            raise ValueError("loess_span must be in (0, 1]")


@dataclass(frozen=True)
class RenderSpec:
    """How to draw: the comparison mode and the styling.

    What is drawn, and at which k, comes from the renderer's data; a
    heatmap takes its k labels through ``render_heatmap(..., ks=)``.
    """

    comparison: str = "simple"
    style: PlotStyle = field(default_factory=PlotStyle)

    def __post_init__(self):
        if self.comparison not in COMPARISONS:
            raise ValueError(f"comparison must be one of {COMPARISONS}")


class ColorScale:
    """Maps values to colors for one of the two coloring modes.

    ``absolute`` ramps from the neutral color to the positive anchor over
    the domain.  ``comparative`` diverges: it pins 0 at the neutral
    midpoint, negative values toward the red anchor and positive toward
    the blue one.  Values outside the domain are clipped.
    """

    def __init__(self, mode: str, domain: tuple[float, float]):
        if mode not in COLOR_MODES:
            raise ValueError(f"mode must be one of {COLOR_MODES}")
        lo, hi = float(domain[0]), float(domain[1])
        if not np.isfinite([lo, hi]).all() or lo >= hi:
            raise ValueError("domain must be a finite increasing interval")
        if mode != "absolute" and (lo > 0 or hi < 0):
            raise ValueError("diverging domain must contain 0")
        self.mode = mode
        self.domain = (lo, hi)

    @classmethod
    def for_values(cls, mode: str, values) -> "ColorScale":
        """Pick a domain for the given values.

        Absolute agreement lives on [0, 1].  The diverging mode uses a
        symmetric domain at the 98th percentile of the magnitudes so a
        stray outlier cannot wash out the palette; an all-zero field
        degenerates to a token interval that renders everything neutral.
        """
        if mode == "absolute":
            return cls(mode, (0.0, 1.0))
        v = np.asarray(values, dtype=float)
        span = float(np.percentile(np.abs(v), 98)) if v.size else 0.0
        if span <= 0:
            span = 1.0
        return cls(mode, (-span, span))

    def rgb_array(self, values) -> np.ndarray:
        """Integer colors of shape ``values.shape + (3,)``.

        Each channel is ``a + t * (b - a)`` between two anchors, rounded half
        to even, where ``t`` is the clipped value's position on its side of
        the scale.
        """
        lo, hi = self.domain
        v = np.clip(np.asarray(values, dtype=float), lo, hi)
        if np.isnan(v).any():
            raise ValueError("cannot color NaN")
        if self.mode == "absolute":
            neg = np.zeros(v.shape, dtype=bool)
            t = (v - lo) / (hi - lo)
        else:
            neg = v < 0
            # the branch not taken may divide by zero or overflow
            with np.errstate(all="ignore"):
                t = np.where(neg, 1.0 - v / lo, v / hi if hi > 0 else 0.0)
        a = np.where(neg[..., None], NEGATIVE_RGB, NEUTRAL_RGB)
        b = np.where(neg[..., None], NEUTRAL_RGB, POSITIVE_RGB)
        return np.rint(a + t[..., None] * (b - a)).astype(np.int64)

    def css_array(self, values) -> list:
        """Hex colors of every value, as nested lists shaped like ``values``."""
        return _hex_array(self.rgb_array(values))


def _scale_for(spec: RenderSpec, values, binary: bool = False) -> ColorScale:
    if binary:
        return ColorScale("comparative", (-1.0, 1.0))
    mode = "comparative" if spec.comparison == "compare" else "absolute"
    return ColorScale.for_values(mode, values)


# ---------------------------------------------------------------------------
# SVG plumbing


_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>\n'

_ATTR_ESCAPES = str.maketrans({'"': "&quot;", "\r": "&#13;", "\n": "&#10;",
                               "\t": "&#09;"})


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tag(name: str, attrs: Mapping[str, str], content: str = "") -> str:
    """One element; ``content`` is its serialized children or escaped text."""
    head = "<" + name + "".join(
        f' {k}="{_escape_text(v).translate(_ATTR_ESCAPES)}"'
        for k, v in attrs.items())
    if content:
        return f"{head}>{content}</{name}>"
    return head + " />"


def _template(name: str, attrs: Mapping[str, str | None]) -> str:
    """``_tag(name, attrs)`` as a ``%`` format with a ``%s`` slot per ``None``.

    Slots take numbers formatted by ``_f``, hex colors or base64 data
    URIs, which need no escaping.
    """
    marked = {k: "\0" if v is None else v for k, v in attrs.items()}
    return _tag(name, marked).replace("%", "%%").replace("\0", "%s")


def _svg(width: float, height: float, body: str) -> str:
    return _XML_DECL + _tag("svg", {
        "xmlns": SVG_NS,
        "version": "1.1",
        "width": _f(width),
        "height": _f(height),
        "viewBox": f"0 0 {_f(width)} {_f(height)}",
    }, body) + "\n"


def _text(x, y, content, cls, anchor="start", size=12.0) -> str:
    return _tag("text", {
        "class": cls, "x": _f(x), "y": _f(y),
        "font-family": "sans-serif", "font-size": _f(size),
        "text-anchor": anchor, "fill": "#333333",
    }, _escape_text(content))


def _points_attr(xs, ys) -> str:
    return " ".join(f"{x},{y}" for x, y in zip(_fs(xs), _fs(ys)))


def _circles(xy, fills, radius: float, extra=None) -> str:
    """One ``pt`` circle per row of screen coordinates ``xy``."""
    circle = _template("circle", {"class": "pt", "cx": None, "cy": None,
                                  "r": _f(radius), "fill": None,
                                  **(extra or {})})
    return "".join(circle % mark
                   for mark in zip(_fs(xy[:, 0]), _fs(xy[:, 1]), fills))


def _data_transform(points, rect):
    """Affine map from data coordinates into a screen rectangle.

    Screen y runs downward, so the data y axis is flipped.  Both axes
    share one scale, preserving shape.
    """
    x0, y0, w, h = rect
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    span[span <= 0] = 1.0
    s = min(w / span[0], h / span[1])
    cx, cy = (lo + hi) / 2.0
    mx, my = x0 + w / 2.0, y0 + h / 2.0

    def to_screen(p):
        p = np.asarray(p, dtype=float)
        return np.column_stack([
            mx + (p[:, 0] - cx) * s,
            my - (p[:, 1] - cy) * s,
        ])

    return to_screen


def _project_3d(points, azimuth_deg: float, elevation_deg: float):
    """Orthographic projection onto a screen plane.

    Azimuth rotates the viewpoint around the third axis; elevation tilts
    it above the first-two-axes plane.
    """
    az = np.deg2rad(azimuth_deg)
    el = np.deg2rad(elevation_deg)
    p = np.asarray(points, dtype=float)
    u = -np.sin(az) * p[:, 0] + np.cos(az) * p[:, 1]
    v = (-np.cos(az) * np.sin(el) * p[:, 0]
         - np.sin(az) * np.sin(el) * p[:, 1]
         + np.cos(el) * p[:, 2])
    return np.column_stack([u, v])


def _as_planar(config: Configuration, style: PlotStyle):
    if config.m == 2:
        return config.items
    if config.m == 3:
        return _project_3d(config.items, style.azimuth, style.elevation)
    raise ValueError(
        f"embeddings must have 2 or 3 dimensions, got {config.m}"
    )


def _check_values(values, n: int):
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"expected {n} item values, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("item values must be finite")
    return v


# ---------------------------------------------------------------------------
# Scatter


def render_scatter(embeddings, item_values, spec: RenderSpec | None = None) -> str:
    """One or two embedding panels with items colored by a value field.

    In ``compare`` mode the values are read as technique-1-minus-
    technique-2 differences on a diverging scale, so blue marks items
    where the first technique agrees more.  A caption under each panel
    carries the aggregate of the plotted values.
    """
    spec = spec or RenderSpec()
    if isinstance(embeddings, Configuration):
        panels = [embeddings]
    else:
        panels = list(embeddings)
        if not 1 <= len(panels) <= 2:
            raise ValueError("expected one or two embeddings")
    n = panels[0].n
    for p in panels:
        if p.n != n:
            raise ValueError("embeddings must have the same item count")
    vals = _check_values(item_values, n)
    scale = _scale_for(spec, vals)

    st = spec.style
    caption_h = 24.0
    label = "mean difference" if spec.comparison == "compare" else "mean agreement"
    fills = scale.css_array(vals)
    body = []
    for idx, config in enumerate(panels):
        planar = _as_planar(config, st)
        ox = idx * st.width
        rect = (ox + st.margin, st.margin,
                st.width - 2 * st.margin, st.height - 2 * st.margin)
        xy = _data_transform(planar, rect)(planar)
        body.append(_tag("g", {"class": "panel"}, _circles(
            xy, fills, st.point_radius) + _text(
            ox + st.width / 2.0, st.height + caption_h / 2.0,
            f"{label} = {_f(vals.mean())}", "caption", anchor="middle")))
    return _svg(st.width * len(panels), st.height + caption_h, "".join(body))


# ---------------------------------------------------------------------------
# Heatmap


def order_by_first_coordinate(config: Configuration) -> tuple[int, ...]:
    """Default heatmap row order: ascending first embedding coordinate."""
    return tuple(int(i) for i in np.argsort(config.items[:, 0], kind="stable"))


#: The most bytes one stored deflate block holds (RFC 1951, 3.2.4).
_STORED_BLOCK = 65535


def _png(rgb: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of an ``h x w x 3`` array of channels in 0..255.

    Every row has filter type 0, and the zlib stream holds stored
    (uncompressed) deflate blocks, so the bytes are a function of the
    pixels alone, whatever the zlib build.
    """
    h, w = rgb.shape[:2]
    rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # filter byte 0 first
    rows[:, 1:] = rgb.reshape(h, 3 * w)
    raw = rows.tobytes()
    last = (len(raw) - 1) // _STORED_BLOCK
    blocks = []
    for i in range(last + 1):
        data = raw[i * _STORED_BLOCK:(i + 1) * _STORED_BLOCK]
        blocks += [struct.pack("<BHH", i == last, len(data),
                               len(data) ^ 0xFFFF), data]
    # 0x78 0x01: deflate with a 32 KiB window, check bits for FLEVEL 0
    stream = b"".join([b"\x78\x01", *blocks,
                       struct.pack(">I", zlib.adler32(raw))])

    def chunk(kind: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data)))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", stream) + chunk(b"IEND", b""))


def render_heatmap(per_item_by_k, item_order=None,
                   spec: RenderSpec | None = None, binary: bool = False,
                   ks=None) -> str:
    """Item-by-k agreement map, one cell per (item, k) pair.

    ``ks`` are the k values of the matrix's columns, strictly increasing
    integers of at least 1, one per column; by default 1 .. columns.
    ``binary`` replaces each cell by the sign of its value before
    coloring: blue when the first technique wins, red when the second
    does, neutral on ties.

    The cells are one embedded PNG with a pixel per cell, rows in item
    order from the top and k rising to the right, stretched over the plot
    area; ``image-rendering`` asks the viewer not to smooth it.  Where the
    plot area has fewer screen pixels than the image has rows (or
    columns), a screen pixel covers several cells and shows one of them,
    or a blend, as the viewer chooses, so a single cell can be hidden; a
    view zoomed until each cell covers at least one screen pixel shows
    every cell.
    """
    spec = spec or RenderSpec()
    vals = np.asarray(per_item_by_k, dtype=float)
    if vals.ndim != 2 or vals.size == 0:
        raise ValueError("per_item_by_k must be a non-empty 2D array")
    if not np.isfinite(vals).all():
        raise ValueError("per_item_by_k must be finite")
    n, n_cols = vals.shape
    ks = range(1, n_cols + 1) if ks is None else ks
    if not np.iterable(ks) or not all(map(_is_int, ks)):
        raise ValueError("ks must be a sequence of integers")
    ks = tuple(ks)
    if len(ks) != n_cols:
        raise ValueError(
            f"ks has {len(ks)} entries but the matrix has {n_cols} columns")
    if ks[0] < 1 or any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing and >= 1")
    if item_order is None:
        order = np.arange(n)
    else:
        order = np.asarray(item_order, dtype=int)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("item_order must be a permutation of all items")
    if binary:
        vals = np.sign(vals)
    scale = _scale_for(spec, vals, binary=binary)

    st = spec.style
    plot_w = st.width - 2 * st.margin
    plot_h = st.height - 2 * st.margin
    png = _png(scale.rgb_array(vals[order]).astype(np.uint8))
    cells = _template("image", {
        "class": "cells", "xmlns:xlink": XLINK_NS,
        "x": _f(st.margin), "y": _f(st.margin),
        "width": _f(plot_w), "height": _f(plot_h),
        "preserveAspectRatio": "none", "image-rendering": "optimizeSpeed",
        "xlink:href": None,
    }) % ("data:image/png;base64," + base64.b64encode(png).decode("ascii"))
    legend = _tag("g", {"class": "legend"}, _text(
        st.margin + plot_w / 2.0, st.height - st.margin / 4.0,
        f"k = {ks[0]}..{ks[-1]}", "axis", anchor="middle") + _text(
        st.margin + plot_w / 2.0, st.margin * 0.6,
        f"mean = {_f(vals.mean())}", "caption", anchor="middle"))
    return _svg(st.width, st.height, cells + legend)


# ---------------------------------------------------------------------------
# Loess


@dataclass(frozen=True)
class LoessSurface:
    """Fitted values on a regular grid over the point cloud's bounding box.

    ``values[row, col]`` is the fit at ``(xs[col], ys[row])``; ``fallback``
    flags nodes where a degenerate local design forced a weighted mean.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    fallback: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", _readonly(self.xs, float))
        object.__setattr__(self, "ys", _readonly(self.ys, float))
        object.__setattr__(self, "values", _readonly(self.values, float))
        object.__setattr__(self, "fallback", _readonly(self.fallback, bool))
        g = (self.ys.size, self.xs.size)
        if self.values.shape != g or self.fallback.shape != g:
            raise ValueError("grid shapes are inconsistent")


#: A grid node is solved in its row's batch only when its weighted 3 x 3
#: moment matrix is clearly of full rank; any other node is fit on its own
#: by least squares.  First, the matrix scaled to a unit diagonal must have
#: a smallest to largest eigenvalue ratio above this.  That keeps the
#: batched solve within about 1e-10 of ``np.linalg.lstsq`` on clouds near a
#: line, whatever the unit of the map's coordinates.
_WELL_POSED = 1e-4
#: Second, the lower bound that ratio gives on the unscaled one (the local
#: design's singular-value ratio, squared) must exceed ``lstsq``'s rank
#: cutoff, ``(eps * q)**2``, by this factor, so that ``lstsq`` finds every
#: node solved in a batch of full rank.
_RANK_MARGIN = 1e6


def _fit_node(dx, dy, vals, q):
    """One node's fit from its q nearest points, ties by ascending index.

    ``dx`` and ``dy`` are the points' offsets from the node.  Returns the
    fitted value and whether the local design was rank-deficient, in
    which case the value is the weighted mean of the support.
    """
    d = np.hypot(dx, dy)
    sel = _stable_order(d[None, :].copy())[0, :q]  # overwrites its input
    d_sel = d[sel]
    d_max = d_sel[-1]
    w = np.clip(1.0 - (d_sel / d_max) ** 3, 0.0, None) ** 3 if d_max > 0 \
        else np.ones(q)
    sw = np.sqrt(w)
    design = np.stack([sw, dx[sel] * sw, dy[sel] * sw], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, vals[sel] * sw, rcond=None)
    if rank == 3:
        return coef[0], False
    v = vals[sel]
    return (np.average(v, weights=w) if w.sum() > 0 else v.mean()), True


def loess_surface(points, values, span: float = 0.75,
                  grid: int = 60) -> LoessSurface:
    """Locally weighted linear fit of a value field over 2D positions.

    Each grid node is fit under tri-cube weights on the distance scaled by
    its support radius, the distance to its ceil(span*n)-th nearest point:
    the support is the points strictly inside that radius, and points at
    or beyond it weigh zero.  Nodes whose local design is rank-deficient
    (collinear support) fall back to the weighted mean and are flagged.

    A grid row's nodes are solved together from their weighted moment
    sums, taken about each node.  Two kinds of node are instead fit one
    at a time by least squares on their ceil(span*n) nearest points (ties
    by ascending index): a node with a zero radius, whose support weighs
    uniformly, and a node whose moment matrix is not clearly of full rank;
    so is every node of a cloud whose extent or values reach about
    sqrt(largest float / n), where the moment sums could overflow.  Those
    nodes take that fit's value and its rank-deficiency flag; the solved
    nodes match it to about 1e-10, and the flags match exactly.

    The grid rows are fit on the pool of the run that the calling thread
    works for, a pipeline's (:func:`~drqa._workers._pool`), split into
    one share per worker of the pool: of w workers, share i holds rows
    i, i + w, ...  Outside a run everything runs in the calling thread.
    Each node's fit depends on nothing but its own support, so every
    worker count gives the same bits.  A row that raises makes the call
    raise once every share that started has finished.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an n x 2 array")
    n = pts.shape[0]
    if n < 10:
        raise ValueError("loess needs at least 10 points")
    if not 0 < span <= 1:
        raise ValueError("span must be in (0, 1]")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    vals = _check_values(values, n)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    q = int(np.ceil(span * n))
    xs = np.linspace(pts[:, 0].min(), pts[:, 0].max(), grid)
    ys = np.linspace(pts[:, 1].min(), pts[:, 1].max(), grid)
    out = np.empty((grid, grid))
    fell_back = np.zeros((grid, grid), dtype=bool)
    dx = pts[None, :, 0] - xs[:, None]
    # products of two offsets, or of an offset and a value, stay below
    # limit**2, so n of them sum to a finite moment; larger clouds or
    # values take the per-node fit alone
    limit = np.sqrt(np.finfo(float).max / n)
    batched = max(np.hypot(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])),
                  np.abs(vals).max()) < limit
    dx2 = dx * dx if batched else None
    ones = np.ones(n)
    rank_cutoff = _RANK_MARGIN * (np.finfo(float).eps * q) ** 2

    def fit_rows(rows):
        # A row writes only out[row] and fell_back[row].  The rows run in
        # one loop, so that a row's arrays are freed while the next row's
        # are made: freed all at once, they would go back to the system
        # and be faulted in anew.
        for row in rows:
            dy = pts[:, 1] - ys[row]
            solved = np.zeros(grid, dtype=bool)
            if batched:
                dy2 = dy * dy
                d = np.sqrt(np.add(dx2, dy2[None, :]))
                # a copy, so that the partitioned distances go at once
                radius = np.partition(d, q - 1, axis=1)[:, q - 1:q].copy()
                # t = d / radius, capped at 1: points at or beyond the
                # radius weigh 0.  A zero radius leaves d as it is; its
                # node is not solved.
                t = np.divide(d, radius, out=d, where=radius > 0)
                np.minimum(t, 1.0, out=t)
                u = t * t
                u *= t
                np.subtract(1.0, u, out=u)  # 1 - t**3
                w = u * u
                w *= u
                wdx = w * dx
                s0, sy, syy, sv, syv = (w @ np.column_stack(
                    [ones, dy, dy2, vals, dy * vals])).T
                sx, sxy, sxv = (wdx @ np.column_stack([ones, dy, vals])).T
                sxx = np.einsum("ij,ij->i", wdx, dx)
                moments = np.stack([s0, sx, sy, sx, sxx, sxy, sy, sxy, syy],
                                   axis=1).reshape(grid, 3, 3)
                # the moments are D S D, with D the root of their diagonal:
                # the unscaled smallest eigenvalue is at least S's times the
                # least diagonal entry, and the largest at most the trace.
                # A zero diagonal entry leaves S a zero row, so its node is
                # not solved.
                diag = np.stack([s0, sxx, syy], axis=1)
                unit = 1.0 / np.sqrt(np.where(diag > 0, diag, np.inf))
                eig = np.linalg.eigvalsh(
                    moments * unit[:, :, None] * unit[:, None, :])
                solved = (radius[:, 0] > 0) & (
                    eig[:, 0] > _WELL_POSED * eig[:, 2]) & (
                    eig[:, 0] * diag.min(axis=1)
                    > rank_cutoff * diag.sum(axis=1))
                moments[~solved] = np.eye(3)
                out[row] = np.linalg.solve(moments, np.stack(
                    [sv, sxv, syv], axis=1)[:, :, None])[:, 0, 0]
            for col in np.flatnonzero(~solved):
                out[row, col], fell_back[row, col] = _fit_node(
                    dx[col], dy, vals, q)

    pool = _pool()
    shares = min(pool.workers, grid)
    pool.map(fit_rows, (range(i, grid, shares) for i in range(shares)))
    return LoessSurface(xs, ys, out, fell_back)


def render_loess_overlay(embedding: Configuration, item_values,
                         spec: RenderSpec | None = None) -> str:
    """Smoothed agreement surface with the items drawn on top.

    The points take the surface's colors, each with a black outline so it
    reads against the surface.  The surface is fit on the run's pool
    (:func:`loess_surface`); every worker count writes the same bytes.
    """
    spec = spec or RenderSpec()
    if embedding.m != 2:
        raise ValueError("loess overlay requires a 2D embedding")
    vals = _check_values(item_values, embedding.n)
    st = spec.style
    surface = loess_surface(embedding.items, vals, span=st.loess_span,
                            grid=st.grid_resolution)
    scale = _scale_for(spec, vals)

    rect = (st.margin, st.margin, st.width - 2 * st.margin,
            st.height - 2 * st.margin)
    to_screen = _data_transform(embedding.items, rect)
    g = surface.xs.size
    nodes = np.column_stack([np.tile(surface.xs, g),
                             np.repeat(surface.ys, g)])
    centers = to_screen(nodes)
    # cell size from the first grid step (a grid has at least 2 nodes a
    # side), clamped for degenerate clouds
    step = centers.reshape(g, g, 2)
    cw = abs(float(step[0, 1, 0] - step[0, 0, 0])) or 1.0
    ch = abs(float(step[1, 0, 1] - step[0, 0, 1])) or 1.0
    tile = _template("rect", {"class": "surf", "x": None, "y": None,
                              "width": _f(cw), "height": _f(ch), "fill": None})
    tiles = "".join(tile % cell for cell in zip(
        _fs(centers[:, 0] - cw / 2.0), _fs(centers[:, 1] - ch / 2.0),
        scale.css_array(surface.values.reshape(-1))))
    marks = _circles(to_screen(embedding.items), scale.css_array(vals),
                     st.point_radius,
                     extra={"stroke": "#000000", "stroke-width": _f(0.75)})
    return _svg(st.width, st.height, _tag("g", {"class": "surface"}, tiles)
                + _tag("g", {"class": "points"}, marks)
                + _text(st.width / 2.0, st.height - st.margin / 4.0,
                        f"mean agreement = {_f(vals.mean())}", "caption",
                        anchor="middle"))


# ---------------------------------------------------------------------------
# Lift


def lift_area(profile: AgreementProfile) -> float:
    """Trapezoid area between a profile's curve and its chance baseline.

    Only the part of the curve above the baseline counts, matching the
    positive terms of the adjusted-agreement sum.
    """
    gain = np.maximum(profile.ar_adjusted, 0.0)
    return float((gain[:-1] + gain[1:]).sum() / 2.0)


def render_lift(profiles, spec: RenderSpec | None = None) -> str:
    """Agreement-vs-k curves with the region above chance filled in.

    ``profiles`` maps technique names to profiles sharing one n.  Each
    curve's gap over the dashed baseline k/(n-1) is shaded in that
    technique's color at fixed opacity; where several curves cover the
    same region the shade is their blended color.  The legend reports
    each technique's all-k agreement summary.
    """
    spec = spec or RenderSpec()
    if not isinstance(profiles, Mapping):
        raise TypeError("profiles must be a mapping of technique names to "
                        f"profiles, got {type(profiles).__name__}")
    named = list(profiles.items())
    if not named:
        raise ValueError("at least one profile is required")
    n = named[0][1].n
    for name, prof in named:
        if prof.n != n:
            raise ValueError(
                f"profile {name!r} has n = {prof.n}, expected {n}"
            )
    if n < 3:
        raise ValueError("lift plots need n >= 3")

    st = spec.style
    x0, y0 = st.margin, st.margin
    plot_w = st.width - 2 * st.margin
    plot_h = st.height - 2 * st.margin

    ks = np.arange(1, n)
    base = ks / (n - 1)
    sx = x0 + (ks - 1) / (n - 2) * plot_w

    def sy(v):
        return y0 + (1.0 - v) * plot_h

    colors = np.array([TECHNIQUE_RGB[i % len(TECHNIQUE_RGB)]
                       for i in range(len(named))])
    gains = np.stack([np.maximum(p.ar_adjusted, 0.0) for _, p in named])

    # per unit interval of k, stack the techniques by their height on the
    # left edge (ties by position); depth d covers the d + 1 highest and
    # takes the mean of their colors
    order = np.argsort(-gains[:, :-1], axis=0, kind="stable")
    zero = np.zeros((1, n - 2))
    left = np.vstack([np.take_along_axis(gains[:, :-1], order, axis=0), zero])
    right = np.vstack([np.sort(gains[:, 1:], axis=0)[::-1], zero])
    depth = np.arange(1, len(named) + 1)[:, None, None]
    blends = np.cumsum(colors[order], axis=0) / depth
    keep = ((left[:-1] - left[1:] > 0) | (right[:-1] - right[1:] > 0)).T
    col, dep = np.nonzero(keep)
    xl, xr = sx[col], sx[col + 1]
    bl, br = base[col], base[col + 1]
    corners = zip(*map(_fs, (
        xl, sy(bl + left[dep, col]), xr, sy(br + right[dep, col]),
        xr, sy(br + right[dep + 1, col]), xl, sy(bl + left[dep + 1, col]))))
    band = _template("polygon", {"class": "band", "points": None,
                                 "fill": None, "fill-opacity": _f(FILL_OPACITY)})
    bands = "".join(
        band % ("%s,%s %s,%s %s,%s %s,%s" % quad, fill)
        for quad, fill in zip(corners, _hex_array(
            blends[dep, col].astype(np.int64))))

    body = [_tag("g", {"class": "bands"}, bands), _tag("polyline", {
        "class": "baseline",
        "points": _points_attr(sx, sy(base)),
        "fill": "none",
        "stroke": "#777777",
        "stroke-dasharray": "4 3",
    })]
    legend = []
    for idx, ((name, prof), rgb) in enumerate(zip(named, colors)):
        body.append(_tag("polyline", {
            "class": "curve",
            "points": _points_attr(sx, sy(prof.ar)),
            "fill": "none",
            "stroke": _hex(rgb),
            "stroke-width": _f(1.5),
        }))
        y = st.height + 14.0 + 20.0 * idx
        legend.append(_tag("rect", {
            "class": "swatch", "x": _f(x0), "y": _f(y - 9.0),
            "width": _f(12.0), "height": _f(12.0), "fill": _hex(rgb)}))
        legend.append(_text(x0 + 18.0, y + 1.0,
                            f"{name}: all-k agreement = {_f(psi(prof))}",
                            "caption"))
    body.append(_tag("g", {"class": "legend"}, "".join(legend)))
    body.append(_text(x0 + plot_w / 2.0, st.height - st.margin / 4.0,
                      "k", "axis", anchor="middle"))
    return _svg(st.width, st.height + 20.0 * len(named), "".join(body))
