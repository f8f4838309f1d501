"""Config-driven batch runs: generate or ingest data, reduce, score, plot.

A pipeline is a JSON document with a version, a global seed, and an
ordered stage list.  Stages publish named artifacts that later stages
reference; every file lands in the output directory and is listed in a
manifest.  No two stages write the same file, and neither the score table
nor a stage writes the manifest (:func:`parse_config`).  Identical config
and inputs yield byte-identical outputs.  Artifacts paired row by row (an
agree stage's ``a`` with each ``b`` and ``z``, a plot's per-item rates
with each embedding) must list the same item ids whenever both have ids.

A run holds one pool of ``DRQA_THREADS`` workers (one per CPU when
unset or 0) from its first stage to its last
(:func:`drqa._workers._run_pool`); :func:`_run_stages` opens it.  A
stage is the one task the run schedules, and it starts once the stages
that make what it reads have finished, not when the stage listed before
it has.  An ingest of a file in the output directory starts only once
every stage listed before it has finished, and no stage listed after it
starts before it has (:func:`_waits_for`).  The calling thread only schedules; with one
worker it runs every stage itself, in config order.  The stages' own
loops (a reduce stage's reducer calls, an agree stage's pass over blocks
of rows, a loess plot's grid rows) look the pool up and hand their items
to it (:func:`drqa._workers._pool`).  The manifest, the score rows and
``scores.csv`` follow config order, so every thread count, and every
order in which stages finish, writes the same bytes.  A failure is
reported as the serial run would report it: the first failing stage in
config order is named, and within a reduce stage the first failing
reducer call in method order; what the failing stage and every later
stage wrote is removed.

An agree stage makes one pass over blocks of rows
(:func:`drqa.agreement._count_overlaps`): for each block it takes the rank
rows of every artifact it compares once, from
:class:`drqa.geometry._RankRows`, and adds each compared pair's overlap
counts into that pair's totals; with ``per_item`` on, a pair keeps its
items' integer overlap counts, and each per-item file is written from
them, each ``(k, a)`` of the stage formatted once
(:func:`drqa.ingest._write_overlaps`).  With ``cache`` on, the stage
keeps two kinds of entry in ``.cache``, in the format that
:mod:`drqa.geometry` defines, both named after the rank bits
(:data:`drqa.geometry._RANK_BITS`): each artifact's ranks in
``ranks_v<bits>_<key>.npy``, and each compared pair's overlap totals,
with its per-item counts where kept, in ``pair_v<bits>_<key>.npy``
(:meth:`_RankCache.count`).  Pair entries are read first: the pass
covers only the pairs without one, and ranks, or reads from their rank
entries, only those pairs' artifacts.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import numbers
import os
import re
import typing
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .agreement import (
    AgreementProfile,
    WeightFunction,
    _OverlapSums,
    _count_overlaps,
    agreement_profile,  # noqa: F401  perfbench/tracing.py wraps it here
    partial_agreement,
    psi,
    weighted_psi,
)
from ._workers import _pool, _pool_workers, _run_pool
from .geometry import (
    _RANK_BITS,
    Configuration,
    RankStructure,
    _RankRows,
    _read_counts,
    _write_counts,
)
from .ingest import (
    _write_csv,
    _write_overlaps,
    impute_column_mean,
    ingest_csv,
    item_ids,
    write_configuration,
    write_per_item,  # noqa: F401  perfbench/tracing.py wraps it here
    write_profile,
)
from .manifolds import ManifoldSpec, generate
from .viz import (
    PlotStyle,
    RenderSpec,
    _is_int,
    order_by_first_coordinate,
    render_heatmap,
    render_lift,
    render_loess_overlay,
    render_scatter,
)

CONFIG_VERSION = 1
IMPUTATIONS = ("none", "column_mean")
STAGE_KINDS = ("generate", "ingest", "reduce", "agree", "plot")
PLOT_TYPES = ("scatter", "heatmap", "loess", "lift")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

_SPEC_KEYS = {f.name for f in fields(RenderSpec)}
_STYLE_KEYS = {f.name for f in fields(PlotStyle)}


class PipelineError(RuntimeError):
    """A stage failed; the stage's partial outputs have been removed.

    An exception without a message, such as the interpreter's own
    ``MemoryError``, is named by its kind.
    """

    def __init__(self, stage_name: str, kind: str, cause: Exception):
        reason = str(cause) or ("out of memory" if isinstance(cause, MemoryError)
                                else type(cause).__name__)
        super().__init__(f"stage {stage_name!r} ({kind}) failed: {reason}")


def _reject_unknown(obj, allowed: set | None, where: str) -> dict:
    """``obj`` as a dict; non-objects and keys outside ``allowed`` fail."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    unknown = sorted(set(obj) - allowed) if allowed is not None else []
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    return dict(obj)


def _list(obj, key: str, where: str) -> tuple:
    if not isinstance(obj, list):
        raise ValueError(f"{where}: {key} must be a list")
    return tuple(obj)


def _ref(value, known: set, what: str, where: str) -> str:
    if not isinstance(value, str) or value not in known:
        raise ValueError(f"{where}: unknown {what} {value!r}")
    return value


def _json_fits(value, annotation) -> bool:
    """Whether a JSON value suits a parameter of type ``annotation``.

    An int suits a float, booleans suit only ``bool``, and an array is a
    list nested to any depth whose leaves are real numbers.  ``null`` suits
    nothing: a parameter takes its default only when its key is left out.
    """
    if value is None:
        return False
    types = typing.get_args(annotation) or (annotation,)
    if isinstance(value, list):
        return np.ndarray in types and _real_leaves(value)
    types = tuple(numbers.Real if t is float else t for t in types)
    return isinstance(value, types) and isinstance(value, bool) == (bool in types)


def _real_leaves(value) -> bool:
    if isinstance(value, list):
        return all(map(_real_leaves, value))
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _flag(raw: dict, key: str, default: bool, where: str) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{where}: {key} must be a boolean")
    return value


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValueError(f"{where}: missing required key {key!r}")
    return obj[key]


def _check_ids(ids, other, n: int, what: str, against: str) -> None:
    """Raise unless two artifacts of ``n`` items that are paired row by row
    list the same items in the same order.

    Labels of ``None`` stand for the ids ``"0" .. "n-1"`` that the written
    file carries, so a stage accepts the same artifacts as the CLI does
    when given the files that the pipeline wrote.
    """
    if item_ids(ids, n) != item_ids(other, n):
        raise ValueError(f"item ids of {what} do not match those of {against}")


# ---------------------------------------------------------------------------
# Stage records


@dataclass(frozen=True)
class GenerateStage:
    name: str
    shape: str
    n: int
    params: dict = field(default_factory=dict)
    kind: str = "generate"

    def reads(self) -> tuple:
        return ()


@dataclass(frozen=True)
class IngestStage:
    name: str
    path: str
    has_header: bool = True
    missing_token: str = "NA"
    kind: str = "ingest"

    def reads(self) -> tuple:
        return ()


@dataclass(frozen=True)
class ReduceStage:
    name: str
    source: str
    methods: tuple
    target_dim: int
    param_grid: tuple = ({},)
    kind: str = "reduce"

    def reads(self) -> tuple:
        return (self.source,)

    def jobs(self):
        """Expanded (artifact name, method, params) triples."""
        out = []
        for m in self.methods:
            base = self.name if len(self.methods) == 1 else f"{self.name}_{m}"
            if len(self.param_grid) == 1:
                out.append((base, m, self.param_grid[0]))
            else:
                for i, params in enumerate(self.param_grid):
                    out.append((f"{base}_p{i}", m, params))
        return out


@dataclass(frozen=True)
class AgreeStage:
    name: str
    a: str
    b: tuple
    z: str | None = None
    per_item: bool = False
    range_k: tuple | None = None
    kind: str = "agree"

    def reads(self) -> tuple:
        return (self.a, *self.b, *filter(None, (self.z,)))

    def profile_keys(self):
        if len(self.b) == 1:
            return (self.name,)
        return tuple(f"{self.name}:{b}" for b in self.b)


@dataclass(frozen=True)
class PlotStage:
    name: str
    plot_type: str
    spec: RenderSpec
    profiles: tuple = ()
    embeddings: tuple = ()
    values: dict | None = None
    binary: bool = False
    order_by: str | None = None
    kind: str = "plot"

    def reads(self) -> tuple:
        rates = (self.values["agree"],) if self.values else ()
        return (*self.profiles, *rates, *self.embeddings,
                *filter(None, (self.order_by,)))


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    out_dir: Path
    stages: tuple
    imputation: str = "none"
    cache: bool = False
    scores: str | None = None


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    stage: str
    seed: int | None = None


# ---------------------------------------------------------------------------
# Score table


@dataclass(frozen=True)
class ScoreRow:
    technique: str
    params: dict
    k_range: str
    mean_agreement: float
    psi: float
    psi_weighted: float | None = None


@dataclass(frozen=True)
class ScoreTable:
    """Aggregate agreement per requested technique, parameters, and k range."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen = set()
        for row in self.rows:
            key = (row.technique, _params_json(row.params), row.k_range)
            if key in seen:
                raise ValueError(f"duplicate score row for {key}")
            seen.add(key)

    def write(self, path) -> None:
        _write_csv(path, ["technique", "params", "k_range",
                          "mean_agreement", "psi", "psi_weighted"],
                   ([r.technique, _params_json(r.params), r.k_range,
                     repr(float(r.mean_agreement)), repr(float(r.psi)),
                     "" if r.psi_weighted is None
                     else repr(float(r.psi_weighted))] for r in self.rows),
                   text=3)


def _params_json(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class _Scope:
    """What the stages parsed so far define, by how later stages may use it."""

    base_dir: Path = Path(".")
    taken: set = field(default_factory=set)
    configurations: set = field(default_factory=set)
    profiles: set = field(default_factory=set)
    per_item: set = field(default_factory=set)


def _parse_name(raw: dict, where: str, taken: set) -> str:
    name = _require(raw, "name", where)
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"{where}: name {name!r} is not a valid identifier")
    if name in taken:
        raise ValueError(f"{where}: name {name!r} is already in use")
    return name


def _parse_range_k(raw, where: str):
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(map(_is_int, raw))):
        raise ValueError(f"{where}: range_k must be [lo, hi]")
    lo, hi = map(int, raw)
    if not 1 <= lo <= hi:
        raise ValueError(f"{where}: range_k bounds must satisfy 1 <= lo <= hi")
    return (lo, hi)


def _parse_render_spec(raw, where: str) -> RenderSpec:
    kw = _reject_unknown(raw, _SPEC_KEYS, where)
    style = _reject_unknown(kw.pop("style", {}), _STYLE_KEYS, f"{where}: style")
    try:
        style = PlotStyle(**style)
    except ValueError as exc:
        raise ValueError(f"{where}: style: {exc}") from None
    return RenderSpec(style=style, **kw)


def _parse_stage(raw: dict, where: str, scope: _Scope):
    """Validate one stage object and add what it defines to ``scope``."""
    kind = raw["kind"]
    name = _parse_name(raw, where, scope.taken)
    scope.taken.add(name)

    if kind == "generate":
        _reject_unknown(raw, {"kind", "name", "shape", "n", "params"}, where)
        shape = _require(raw, "shape", where)
        n = _require(raw, "n", where)
        if not _is_int(n):
            raise ValueError(f"{where}: n must be an integer")
        n = int(n)
        params = _reject_unknown(raw.get("params", {}), None,
                                 f"{where}: params")
        ManifoldSpec(shape, n, 0, params)  # fail fast on bad arguments
        scope.configurations.add(name)
        return GenerateStage(name, shape, n, params)

    if kind == "ingest":
        _reject_unknown(raw, {"kind", "name", "path", "has_header",
                              "missing_token"}, where)
        path = _require(raw, "path", where)
        if not isinstance(path, str):
            raise ValueError(f"{where}: path must be a string")
        if "\0" in path:
            raise ValueError(f"{where}: path must not contain a NUL character")
        missing_token = raw.get("missing_token", "NA")
        if not isinstance(missing_token, str):
            raise ValueError(f"{where}: missing_token must be a string")
        scope.configurations.add(name)
        return IngestStage(name, str(scope.base_dir / path),
                           has_header=_flag(raw, "has_header", True, where),
                           missing_token=missing_token)

    if kind == "reduce":
        from . import dimred  # SciPy loads where a config names a reducer

        _reject_unknown(raw, {"kind", "name", "source", "method", "methods",
                              "target_dim", "params", "param_grid"}, where)
        source = _ref(_require(raw, "source", where), scope.configurations,
                      "source", where)
        if ("method" in raw) == ("methods" in raw):
            raise ValueError(f"{where}: give exactly one of method/methods")
        methods = (_list(raw["methods"], "methods", where)
                   if "methods" in raw else (raw["method"],))
        if not methods:
            raise ValueError(f"{where}: methods must not be empty")
        for m in methods:
            if m not in dimred.METHODS:
                raise ValueError(f"{where}: unknown method {m!r}")
        if len(set(methods)) != len(methods):
            raise ValueError(f"{where}: duplicate methods")
        if "params" in raw and "param_grid" in raw:
            raise ValueError(f"{where}: give only one of params/param_grid")
        if "param_grid" in raw:
            grid = _list(raw["param_grid"], "param_grid", where)
            if not grid:
                raise ValueError(f"{where}: param_grid must not be empty")
        else:
            grid = (raw.get("params", {}),)
        grid = tuple(_reject_unknown(p, None, f"{where}: params")
                     for p in grid)
        target_dim = _require(raw, "target_dim", where)
        if not _is_int(target_dim) or target_dim < 1:
            raise ValueError(f"{where}: target_dim must be a positive integer")
        target_dim = int(target_dim)
        for m in methods:
            # the reducer's keyword parameters after its input and target_dim
            signature = inspect.signature(getattr(dimred, m), eval_str=True)
            accepted = [p for p in list(signature.parameters.values())[2:]
                        if p.kind is not p.VAR_KEYWORD]
            hints = {p.name: p.annotation for p in accepted}
            for params in grid:
                _reject_unknown(params, set(hints), f"{where}: params for {m}")
                for key, value in params.items():
                    if not _json_fits(value, hints[key]):
                        raise ValueError(f"{where}: params for {m}: {key} "
                                         f"has the wrong type: {value!r}")
                for p in accepted:
                    if p.default is p.empty and p.name not in params:
                        raise ValueError(f"{where}: params for {m}: missing "
                                         f"required key {p.name!r}")
        stage = ReduceStage(name, source, methods, target_dim, grid)
        for emit_name, _, _ in stage.jobs():
            if emit_name != name and emit_name in scope.taken:
                raise ValueError(f"{where}: artifact {emit_name!r} collides")
            scope.taken.add(emit_name)
            scope.configurations.add(emit_name)
        return stage

    if kind == "agree":
        _reject_unknown(raw, {"kind", "name", "a", "b", "z",
                              "per_item", "range_k"}, where)
        a = _require(raw, "a", where)
        b_raw = _require(raw, "b", where)
        b = tuple(b_raw) if isinstance(b_raw, list) else (b_raw,)
        if not b:
            raise ValueError(f"{where}: b must name at least one artifact")
        z = raw.get("z")
        for ref in (a, *b, *([z] if z is not None else [])):
            _ref(ref, scope.configurations, "artifact", where)
        if len(set(b)) != len(b):
            raise ValueError(f"{where}: duplicate artifacts in b")
        stage = AgreeStage(
            name, a, b, z=z,
            per_item=_flag(raw, "per_item", False, where),
            range_k=_parse_range_k(raw.get("range_k"), where),
        )
        scope.profiles.update(stage.profile_keys())
        if stage.per_item:
            scope.per_item.update(stage.profile_keys())
        return stage

    # plot
    common = {"kind", "name", "type", "spec"}
    plot_type = _require(raw, "type", where)
    if plot_type not in PLOT_TYPES:
        raise ValueError(f"{where}: unknown plot type {plot_type!r}")
    spec = _parse_render_spec(raw.get("spec", {}), where)
    if plot_type == "lift":
        _reject_unknown(raw, common | {"profiles"}, where)
        refs = _list(_require(raw, "profiles", where), "profiles", where)
        if not refs:
            raise ValueError(f"{where}: profiles must not be empty")
        for ref in refs:
            _ref(ref, scope.profiles, "profile", where)
        return PlotStage(name, plot_type, spec, profiles=refs)

    allowed = common | {"embeddings", "values"}
    values_keys = {"agree", "k"}
    if plot_type == "heatmap":
        allowed |= {"binary", "order_by"}
        values_keys = {"agree"}  # a heatmap draws every stored k
    _reject_unknown(raw, allowed, where)
    values = _reject_unknown(_require(raw, "values", where), values_keys,
                             f"{where}: values")
    _ref(_require(values, "agree", f"{where}: values"), scope.per_item,
         "agree artifact with per-item output", where)
    if not _is_int(values.get("k", 0)):
        raise ValueError(f"{where}: values: k must be an integer")
    embeddings = ()
    if plot_type != "heatmap":
        embeddings = _list(_require(raw, "embeddings", where),
                           "embeddings", where)
        limit = 1 if plot_type == "loess" else 2
        if not 1 <= len(embeddings) <= limit:
            raise ValueError(f"{where}: expected 1..{limit} embeddings")
        for ref in embeddings:
            _ref(ref, scope.configurations, "embedding", where)
    order_by = raw.get("order_by")
    if order_by is not None:
        _ref(order_by, scope.configurations, "embedding", where)
    return PlotStage(name, plot_type, spec, embeddings=embeddings,
                     values=values, binary=_flag(raw, "binary", False, where),
                     order_by=order_by)


def parse_config(obj: dict, base_dir=".") -> PipelineConfig:
    """Validate a raw JSON object into a PipelineConfig.

    Unknown keys anywhere in the document are rejected, stage names must
    be unique, every cross-stage reference must point at an artifact
    defined by an earlier stage, and no file of the run may have two
    writers: two stages, a stage and the score table, or the score table
    and the manifest.
    """
    base_dir = Path(base_dir)
    _reject_unknown(obj, {"version", "seed", "out_dir", "imputation",
                          "cache", "scores", "stages"}, "config")
    version = _require(obj, "version", "config")
    if version != CONFIG_VERSION:
        raise ValueError(f"config: unsupported version {version!r}")
    seed = obj.get("seed", 0)
    if not _is_int(seed):
        raise ValueError("config: seed must be an integer")
    seed = int(seed)
    out_dir = obj.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ValueError("config: out_dir must be a path")
    if "\0" in out_dir:
        raise ValueError("config: out_dir must not contain a NUL character")
    imputation = obj.get("imputation", "none")
    if imputation not in IMPUTATIONS:
        raise ValueError(f"config: imputation must be one of {IMPUTATIONS}")
    cache = obj.get("cache", False)
    if not isinstance(cache, bool):
        raise ValueError("config: cache must be a boolean")
    scores = obj.get("scores")
    if scores is not None and (not isinstance(scores, str)
                               or not _NAME_RE.match(scores)):
        raise ValueError("config: scores must be a simple file name")
    raw_stages = obj.get("stages", [])
    if not isinstance(raw_stages, list):
        raise ValueError("config: stages must be a list")

    scope = _Scope(base_dir)
    stages = []
    scored = {}  # (a, b, range_k) -> the agree stage that scores it
    for idx, raw in enumerate(raw_stages):
        if not isinstance(raw, dict):
            raise ValueError(f"stage {idx}: must be an object")
        kind = _require(raw, "kind", f"stage {idx}")
        if kind not in STAGE_KINDS:
            raise ValueError(f"stage {idx}: unknown kind {kind!r}")
        where = f"stage {idx} ({kind})"
        stage = _parse_stage(raw, where, scope)
        stages.append(stage)
        if scores is None or kind != "agree":
            continue
        # an omitted range_k and an explicit [1, n-1] can only be told
        # apart at run time, by ScoreTable
        for b in stage.b:
            first = scored.setdefault((stage.a, b, stage.range_k), stage.name)
            if first != stage.name:
                raise ValueError(
                    f"{where}: agree stages {first!r} and {stage.name!r} "
                    f"both score {b!r} against {stage.a!r} over the same "
                    f"range_k")

    writers = {"manifest.json": "the manifest"}  # file -> who writes it
    claims = [(f"stage {stage.name!r}", name) for stage in stages
              for files in _files(stage).values() for name in files]
    if scores is not None:
        claims.append(("the score table", scores))
    for writer, name in claims:
        if name in writers:
            raise ValueError(f"config: {writers[name]} and {writer} both "
                             f"write {name!r}")
        writers[name] = writer

    return PipelineConfig(seed=seed, out_dir=base_dir / out_dir,
                          stages=tuple(stages), imputation=imputation,
                          cache=cache, scores=scores)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(obj, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Execution


class _RankCache:
    """Rank rows per artifact and overlap counts per compared pair, kept
    on disk as cache entries (:mod:`drqa.geometry`) when given a directory.

    A rank entry is keyed by the rank bits' name
    (:data:`~drqa.geometry._RANK_BITS`) and the artifact's shape, items
    and mask.  A pair entry is keyed by the rank bits' name, the rank keys
    of both artifacts, unordered since each overlap is symmetric in them,
    and the per-item columns kept, so a pair counted for another range or
    without per-item rates is not read.
    """

    def __init__(self, directory: Path | None):
        self.directory = directory
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key(config: Configuration) -> str:
        digest = hashlib.sha256(
            f"ranks v{_RANK_BITS} {config.items.shape}".encode())
        digest.update(config.items.tobytes())
        if config.mask is not None:
            digest.update(config.mask.tobytes())
        return digest.hexdigest()

    def rows(self, name: str, config: Configuration) -> _RankRows:
        """The rank rows of one artifact; a context manager."""
        path = None
        if self.directory is not None:
            path = (self.directory
                    / f"ranks_v{_RANK_BITS}_{self._key(config)[:24]}.npy")
        return _RankRows(config, path=path, name=name)

    def ranks_for(self, name: str, config: Configuration) -> RankStructure:
        """The whole rank structure of one artifact, through the cache."""
        with self.rows(name, config) as rows:
            return rows.structure()

    def _pair_path(self, x: Configuration, y: Configuration,
                   columns: tuple | None) -> Path:
        keys = sorted((self._key(x), self._key(y)))
        digest = hashlib.sha256(
            f"pair v{_RANK_BITS} {keys} {columns}".encode())
        return (self.directory
                / f"pair_v{_RANK_BITS}_{digest.hexdigest()[:24]}.npy")

    def count(self, pairs: dict, configurations: dict, n: int,
              used: dict) -> None:
        """Fill the :class:`~drqa.agreement._OverlapSums` of every
        compared pair of artifacts, keyed ``(x, y)``.

        A pair with an entry is read from it.  The others are counted in
        one pass (:func:`~drqa.agreement._count_overlaps`) over the rank
        rows of their own artifacts alone, and their entries are written;
        so a stage whose pairs are all cached opens no rank entry.  Each
        entry read or written joins ``used``, mapped to whether this call
        made it.
        """
        missing, paths = {}, {}
        for (x, y), counts in pairs.items():
            stored = None
            if self.directory is not None:
                path = paths[x, y] = self._pair_path(
                    configurations[x], configurations[y], counts.columns)
                stored = _read_counts(path, n, counts.columns,
                                      f"{x!r} and {y!r}")
            if stored is None:
                missing[x, y] = counts
            else:
                counts.sums, counts.head = stored
                used[path] = False
        if not missing:
            return
        with ExitStack() as stack:
            rows = {name: stack.enter_context(self.rows(
                name, configurations[name]))
                for name in dict.fromkeys(x for pair in missing for x in pair)}
            _count_overlaps({name: r.block for name, r in rows.items()},
                            missing, n)
        used.update({r.path: not r.cached for r in rows.values()
                     if r.path is not None})
        for pair, counts in missing.items():
            if pair in paths:
                _write_counts(paths[pair], counts.sums, counts.head)
                used[paths[pair]] = True


def _files(stage) -> dict:
    """The artifacts the stage makes, each with the files it is written to.

    This is the one place that names a stage's files: the stage methods
    write them (:meth:`StageRunner._emit`) and :func:`_waits_for` orders
    stages by them.  An agree stage writes each profile key's profile,
    then its per-item rates and its partial agreement if asked for.
    """
    if stage.kind == "plot":
        return {stage.name: (f"{stage.name}.svg",)}
    if stage.kind != "agree":
        made = ([name for name, _, _ in stage.jobs()]
                if stage.kind == "reduce" else [stage.name])
        return {name: (f"{name}.csv",) for name in made}
    suffixes = ([".csv"] + ["_items.csv"] * stage.per_item
                + ["_partial.csv"] * (stage.z is not None))
    return {key: tuple(key.replace(":", "_") + suffix  # names never hold ":"
                       for suffix in suffixes)
            for key in stage.profile_keys()}


def _write_partial(values, path) -> None:
    _write_csv(path, ["psi_ab", "psi_az", "psi_bz", "partial_agreement"],
               [[repr(v) for v in values]], text=0)


class StageRunner:
    """Runs stages, one method per stage kind, against an artifact store.

    A method takes a stage record and its seed (read by generate and
    reduce only), reads its inputs from the store and adds its results.
    Its file ``f`` goes to ``targets[f]`` if given (None skips it), else
    to ``out_dir / f``; each path joins ``written[stage.name]`` before it
    is written, so stages that run side by side keep their files apart,
    and ``score_rows`` too are kept per stage.  :meth:`run` runs one
    stage through the pipeline's own scheduler, :func:`_run_stages`, which
    removes its files when it fails.  A reduce stage's reducer calls, an
    agree stage's pass and a loess plot's fit are mapped on the pool of
    the run; a method called outside a run runs on the calling thread.
    """

    def __init__(self, out_dir=".", imputation: str = "none",
                 cache_dir: Path | None = None,
                 targets: dict | None = None):
        self.out_dir = Path(out_dir)
        self.imputation = imputation
        self.targets = targets or {}
        self.rank_cache = _RankCache(cache_dir)
        self.configurations: dict = {}
        self.reduce_meta: dict = {}
        self.profiles: dict = {}
        self.per_item: dict = {}
        self.partials: dict = {}
        self.score_rows: dict = {}
        self.written: dict = {}
        #: stage name -> {cache entry path: whether the stage made it}
        self.cache_files: dict = {}

    def run(self, stage, seed: int | None = None) -> list:
        """Run one stage as a pipeline runs its stages (:func:`_run_stages`),
        on a pool of its own, and return the paths it wrote.

        If the stage raises, every file it had begun to write and every
        cache entry it left incomplete are removed, and the exception
        propagates.
        """
        failure = _run_stages(self, (stage,), (seed,))
        if failure is not None:
            raise failure[1]
        return self.written.get(stage.name, [])

    def discard(self, stage) -> None:
        """Remove the files the stage wrote."""
        for path in self.written.pop(stage.name, ()):
            Path(path).unlink(missing_ok=True)

    def _emit(self, stage, file_name: str, write, *args, **kwargs) -> None:
        path = self.targets.get(file_name, self.out_dir / file_name)
        if path is not None:
            self.written.setdefault(stage.name, []).append(path)
            write(*args, path, **kwargs)

    def _store(self, stage, name: str, data: Configuration) -> None:
        self.configurations[name] = data
        self._emit(stage, _files(stage)[name][0], write_configuration, data)

    def generate(self, stage: GenerateStage, seed: int) -> None:
        spec = ManifoldSpec(stage.shape, stage.n, seed, stage.params)
        self._store(stage, stage.name, generate(spec))

    def ingest(self, stage: IngestStage, seed=None) -> None:
        data = ingest_csv(stage.path, has_header=stage.has_header,
                          missing_token=stage.missing_token)
        if self.imputation == "column_mean":
            data = impute_column_mean(data)
        self._store(stage, stage.name, data)

    def reduce(self, stage: ReduceStage, seed: int) -> None:
        from . import dimred

        source = self.configurations[stage.source]
        jobs = stage.jobs()
        # dimred decides what the jobs share: one distance matrix, one start
        runs = dimred.reduction_jobs(
            source, stage.target_dim,
            [(method, params) for _, method, params in jobs], seed)
        results = _pool().map(lambda run: run(), runs)
        for (emit_name, method, params), result in zip(jobs, results):
            self.reduce_meta[emit_name] = (method, params)
            self._store(stage, emit_name, result.embedding)

    def agree(self, stage: AgreeStage, seed=None) -> None:
        n = self.configurations[stage.a].n
        ids = self.configurations[stage.a].labels
        for name in filter(None, (stage.z, *stage.b)):
            other = self.configurations[name]
            if other.n != n:
                raise ValueError(f"item counts differ: {n} vs {other.n}")
            _check_ids(other.labels, ids, n, repr(name), repr(stage.a))
        lo, hi = stage.range_k or (1, n - 1)
        if hi > n - 1:
            raise ValueError(f"range_k upper bound {hi} exceeds n-1 = {n - 1}")

        # one count per compared pair; A-Z is shared by every B
        columns = (lo, hi) if stage.per_item else None
        pairs = {(stage.a, b): _OverlapSums(n, columns) for b in stage.b}
        if stage.z is not None:
            for x in (stage.a, *stage.b):
                pairs.setdefault((x, stage.z), _OverlapSums(n))
        self.cache_files[stage.name] = {}
        self.rank_cache.count(pairs, self.configurations, n,
                              self.cache_files[stage.name])

        def profile(x, y):
            return AgreementProfile(pairs[x, y].ar())

        if stage.z is not None:
            psi_az = psi(profile(stage.a, stage.z))
        files = _files(stage)
        ks = tuple(range(lo, hi + 1))
        texts: dict = {}  # (k, a) -> repr(a / k), shared by the stage's maps
        for b_name, key in zip(stage.b, stage.profile_keys()):
            prof = profile(stage.a, b_name)
            profile_file, *more_files = files[key]
            self.profiles[key] = prof
            self._emit(stage, profile_file, write_profile, prof)
            if stage.per_item:
                counts = pairs[stage.a, b_name]
                self.per_item[key] = (ks, counts.rates(), ids)
                self._emit(stage, more_files.pop(0), _write_overlaps,
                           ks, counts.head, texts, labels=ids)
            psi_ab = psi(prof)
            if stage.z is not None:
                psi_bz = psi(profile(b_name, stage.z))
                partial = (psi_ab, psi_az, psi_bz,
                           partial_agreement(psi_ab, psi_az, psi_bz))
                self.partials[key] = partial
                self._emit(stage, more_files.pop(0), _write_partial,
                           partial)

            technique, params = self.reduce_meta.get(b_name, (b_name, {}))
            row_params = {"dataset": stage.a, "embedding": b_name, **params}
            psi_f = (weighted_psi(prof, WeightFunction.linear_taper(n))
                     if n >= 4 else None)
            self.score_rows.setdefault(stage.name, []).append(ScoreRow(
                technique, row_params, f"{lo}-{hi}",
                float(prof.ar[lo - 1:hi].mean()), psi_ab, psi_f,
            ))

    def plot(self, stage: PlotStage, seed=None) -> None:
        spec = stage.spec
        if stage.plot_type != "lift":
            rates = stage.values["agree"]
            ks, matrix, ids = self.per_item[rates]
            for name in filter(None, (*stage.embeddings, stage.order_by)):
                _check_ids(self.configurations[name].labels, ids,
                           len(matrix), f"embedding {name!r}",
                           f"per-item rates {rates!r}")
        if stage.plot_type == "lift":
            named = {ref: self.profiles[ref] for ref in stage.profiles}
            text = render_lift(named, spec)
        elif stage.plot_type == "heatmap":
            order = None
            if stage.order_by is not None:
                order = order_by_first_coordinate(
                    self.configurations[stage.order_by])
            text = render_heatmap(matrix, item_order=order, spec=spec,
                                  binary=stage.binary, ks=ks)
        else:
            k = stage.values.get("k")
            if k is not None and k not in ks:
                raise ValueError(f"k = {k} not among stored columns {ks}")
            values = (matrix.mean(axis=1) if k is None
                      else matrix[:, ks.index(k)])
            embeds = [self.configurations[ref] for ref in stage.embeddings]
            if stage.plot_type == "loess":
                text = render_loess_overlay(embeds[0], values, spec)
            else:
                text = render_scatter(
                    embeds if len(embeds) > 1 else embeds[0], values, spec)
        self._emit(stage, _files(stage)[stage.name][0],
                   lambda text, path: Path(path).write_text(text), text)


def _waits_for(stages, out_dir: Path) -> list:
    """For each stage, the indices of the earlier stages it waits for.

    A stage waits for the stages that make the artifacts it reads.  An
    ingest of a file in ``out_dir``, which the run's own stages may write,
    waits for every earlier stage instead, so that it reads the file the
    serial run would, and every later stage waits for it, as it may
    rewrite that file.  No two stages write the same file
    (:func:`parse_config`), so no other order is needed.
    """
    # realpath, unlike Path.resolve, does not raise on a symlink loop,
    # which the ingest itself is left to report
    out_dir = Path(os.path.realpath(out_dir))
    makers, waits, barrier = {}, [], set()
    for index, stage in enumerate(stages):
        if stage.kind == "ingest" and Path(
                os.path.realpath(stage.path)).is_relative_to(out_dir):
            waits.append(set(range(index)))
            barrier = {index}
        else:
            # an artifact no stage makes was put in the store beforehand
            waits.append(barrier | {makers[name] for name in stage.reads()
                                    if name in makers})
        makers.update(dict.fromkeys(_files(stage), index))
    return waits


def _run_stages(runner: StageRunner, stages, seeds) -> tuple | None:
    """Run every stage with its seed, each once the stages it waits for
    have finished, and return the first failure in config order as
    ``(stage index, exception)``, or None.

    The stages run on one pool of :func:`~drqa._workers._pool_workers`
    workers for the whole call.  Once a stage has failed, no later stage
    starts, not even one already queued; earlier stages still run, as one
    of them may fail too.  No stage is running when this returns, and
    what the failing stage and every later one wrote has been removed.
    """
    waits = _waits_for(stages, runner.out_dir)
    with _run_pool(_pool_workers()) as pool:
        running = {}   # future -> stage index
        started, finished = set(), set()
        failures = {}  # stage index -> exception
        try:
            while True:
                # a stage after a failure would only be removed again
                ready = next((i for i in range(min(failures,
                                                   default=len(stages)))
                              if i not in started and waits[i] <= finished),
                             None)
                if ready is not None:
                    started.add(ready)
                    stage = stages[ready]
                    running[pool.submit(getattr(runner, stage.kind), stage,
                                        seeds[ready])] = ready
                    done = [future for future in running if future.done()]
                elif running:
                    done = wait(running, return_when=FIRST_COMPLETED).done
                else:
                    break
                for future in done:
                    i = running.pop(future)
                    if future.exception() is None:
                        finished.add(i)
                        continue
                    failures[i] = future.exception()
                    # a cancelled stage is done only once a worker has
                    # dequeued it, so stop waiting for it at once
                    for other in [other for other, j in running.items()
                                  if j > i and other.cancel()]:
                        del running[other]
        except BaseException:
            wait([future for future in running if not future.cancel()])
            for index, stage in enumerate(stages):
                if index not in finished:
                    runner.discard(stage)
            raise
        if not failures:
            return None
        first = min(failures)
        _remove_from(runner, stages, first)
        return first, failures[first]


def _remove_from(runner: StageRunner, stages, first: int) -> None:
    """Remove what stages ``first ..`` wrote, cache entries included, as
    though the run had stopped at stage ``first``: keep an entry that
    stage ``first`` or an earlier one used."""
    kept = {path for stage in stages[:first + 1]
            for path in runner.cache_files.get(stage.name, ())}
    for stage in stages[first:]:
        runner.discard(stage)
        for path, made in runner.cache_files.get(stage.name, {}).items():
            if made and path not in kept:
                path.unlink(missing_ok=True)


def run_pipeline(config: PipelineConfig):
    """Execute all stages and return the manifest entries.

    Randomized stages derive their seed from the global seed plus their
    stage index.  Stages run on one pool of worker threads for the whole
    run, each once the stages it reads from have finished
    (:func:`_run_stages`).  A failing stage aborts the run with a
    PipelineError naming the first failing stage in config order, once
    the files of that stage and of every later one have been removed.  The
    manifest of an earlier run into the same directory is removed first.
    """
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    runner = StageRunner(out_dir, config.imputation,
                         out_dir / ".cache" if config.cache else None)
    failure = _run_stages(runner, config.stages,
                          range(config.seed, config.seed + len(config.stages)))
    if failure is not None:
        stage = config.stages[failure[0]]
        raise PipelineError(stage.name, stage.kind,
                            failure[1]) from failure[1]

    manifest = [
        ManifestEntry(path.relative_to(out_dir).as_posix(), stage.name,
                      config.seed + idx
                      if stage.kind in ("generate", "reduce") else None)
        for idx, stage in enumerate(config.stages)
        for path in runner.written.get(stage.name, ())]
    if config.scores is not None:
        table = ScoreTable(tuple(row for stage in config.stages
                                 for row in runner.score_rows.get(
                                     stage.name, ())))
        path = out_dir / config.scores
        table.write(path)
        manifest.append(ManifestEntry(
            path.relative_to(out_dir).as_posix(), "scores", None))

    payload = {
        "version": CONFIG_VERSION,
        "outputs": [
            {"path": e.path, "stage": e.stage, "seed": e.seed}
            for e in manifest
        ],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return manifest
