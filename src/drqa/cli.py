"""Command line entry points: generate, ingest, reduce, agree, plot, pipeline.

The single-step subcommands run the pipeline's stage code
(``StageRunner.run``): each loads its file inputs into the runner's
artifact store, runs one stage, and writes that stage's files under the
names given on the command line, so no config is needed.  A stage that
fails removes the files it had begun to write.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ingest import ingest_csv, read_per_item, read_profile
from .manifolds import SHAPES
from .pipeline import (
    PLOT_TYPES,
    AgreeStage,
    GenerateStage,
    IngestStage,
    PipelineError,
    StageRunner,
    _parse_stage,
    _reject_unknown,
    _Scope,
    load_config,
    run_pipeline,
)

_PLOT_INPUTS = {"lift": {"profiles"}, "scatter": {"embeddings", "values"},
                "loess": {"embedding", "values"},
                "heatmap": {"values", "binary", "order_by"}}


def _json_dict(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object")
    return obj


def _cmd_generate(args) -> None:
    params = _json_dict(args.params, "--params") if args.params else {}
    runner = StageRunner(targets={"out.csv": args.out})
    runner.run(GenerateStage("out", args.shape, args.n, params), args.seed)
    print(f"wrote {args.out}")


def _cmd_ingest(args) -> None:
    runner = StageRunner(imputation="column_mean" if args.impute else "none",
                         targets={"out.csv": args.out})
    runner.run(IngestStage("out", args.in_path, has_header=not args.no_header,
                           missing_token=args.missing_token))
    print(f"wrote {args.out}")


def _cmd_reduce(args) -> None:
    params = _json_dict(args.params, "--params") if args.params else {}
    if args.transform is not None:
        params["transform"] = args.transform
    if args.n_neighbors is not None:
        params["n_neighbors"] = args.n_neighbors
    stage = _parse_stage(
        {"kind": "reduce", "name": "out", "source": "in",
         "method": args.method, "target_dim": args.dim, "params": params},
        "reduce", _Scope(configurations={"in"}))
    runner = StageRunner(targets={"out.csv": args.out})
    runner.configurations["in"] = ingest_csv(args.in_path)
    runner.run(stage, args.seed)
    print(f"wrote {args.out}")


def _cmd_agree(args) -> None:
    items_path = Path(args.out).with_name(Path(args.out).stem + "_items.csv")
    runner = StageRunner(targets={"out.csv": args.out,
                                  "out_items.csv": items_path,
                                  "out_partial.csv": None})
    # artifacts are named by their files, so errors name the file
    for path in filter(None, (args.a, args.b, args.z)):
        runner.configurations[path] = ingest_csv(path)
    runner.run(AgreeStage("out", args.a, (args.b,), z=args.z,
                          per_item=args.per_item))
    print(f"wrote {args.out}")
    print(f"psi = {runner.score_rows['out'][0].psi!r}")
    if args.per_item:
        print(f"wrote {items_path}")
    if args.z is not None:
        print(f"partial agreement given z = {runner.partials['out'][-1]!r}")


def _files(value) -> set:
    """The file names in a plot spec entry: one name or a list of them."""
    return {v for v in (value if isinstance(value, list) else [value])
            if isinstance(v, str)}


def _cmd_plot(args) -> None:
    """Run the spec as a plot stage whose artifacts are the files it names."""
    spec_path = Path(args.spec)
    obj = _json_dict(spec_path.read_text(), str(spec_path))
    base = spec_path.parent
    _reject_unknown(obj, _PLOT_INPUTS[args.type] | {"spec"}, "plot spec")
    raw = dict(obj, kind="plot", name="out", type=args.type)
    profiles = {}
    if args.type == "lift":
        profiles = obj.get("profiles")
        if isinstance(profiles, list) and profiles:
            named = {}
            for p in profiles:  # each entry is named by its file stem
                stem = Path(str(p)).stem
                if stem in named:
                    raise ValueError(
                        f"plot spec: profiles {named[stem]!r} and {p!r} are "
                        f"both named {stem!r}; name them with a mapping "
                        f'{{"name": "file"}}')
                named[stem] = p
            profiles = named
        if not isinstance(profiles, dict):
            raise ValueError("plot spec: profiles must be a list or mapping")
        raw["profiles"] = list(profiles)
    else:
        values = _reject_unknown(obj.get("values", {}), {"per_item", "k"},
                                 "plot spec: values")
        if "per_item" not in values:
            raise ValueError("plot spec: values needs a per_item file")
        values["agree"] = values.pop("per_item")
        raw["values"] = values
        if args.type == "loess":
            if "embedding" not in obj:
                raise ValueError("plot spec: missing embedding")
            raw["embeddings"] = [raw.pop("embedding")]
    known = _Scope(
        configurations=(_files(raw.get("embeddings"))
                        | _files(obj.get("order_by"))),
        profiles={name for name, p in profiles.items() if isinstance(p, str)},
        per_item=_files(raw.get("values", {}).get("agree")))
    stage = _parse_stage(raw, "plot spec", known)

    runner = StageRunner(targets={"out.svg": args.out})
    for ref in (*stage.embeddings, stage.order_by):
        if ref is not None:
            runner.configurations[ref] = ingest_csv(base / ref)
    for name in stage.profiles:
        runner.profiles[name] = read_profile(base / profiles[name])
    if stage.values is not None:
        ref = stage.values["agree"]
        runner.per_item[ref] = read_per_item(base / ref)
    runner.run(stage)
    print(f"wrote {args.out}")


def _cmd_pipeline(args) -> None:
    config = load_config(args.config)
    entries = run_pipeline(config)
    for entry in entries:
        print(f"wrote {(config.out_dir / entry.path).as_posix()}")
    print(f"wrote {(config.out_dir / 'manifest.json').as_posix()}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drqa",
        description="Generate data, reduce dimensionality, and score "
                    "rank agreement between configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample points from a reference shape")
    p.add_argument("--shape", required=True, choices=SHAPES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="shape parameters as a JSON object")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="normalize an external CSV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--missing-token", default="NA")
    p.add_argument("--impute", action="store_true",
                   help="replace missing cells by column means")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("reduce", help="embed a dataset with one method")
    p.add_argument("--method", required=True)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="method parameters as a JSON object")
    p.add_argument("--transform", choices=["ratio", "ordinal"],
                   help="stress fitting transform (smacof variants)")
    p.add_argument("--n-neighbors", type=int,
                   help="neighborhood size (graph-based methods)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("agree", help="score agreement between two datasets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--z", help="third dataset for partial agreement")
    p.add_argument("--out", required=True)
    p.add_argument("--per-item", action="store_true", dest="per_item")
    p.set_defaults(func=_cmd_agree)

    p = sub.add_parser("plot", help="render an SVG from stored results")
    p.add_argument("--type", required=True, choices=PLOT_TYPES)
    p.add_argument("--spec", required=True,
                   help="JSON file describing inputs and styling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("pipeline", help="run a staged config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the interpreter's own carries no message
        print("error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
