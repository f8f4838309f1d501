"""Record the reference outputs that ``checks.py`` compares against.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_reference.py --first 0 --last 20

For every workload and seed in the range it runs the workload's pipeline
without its plot stages (no profile, per-item or score value depends on
them) and stores, in ``perfbench/reference.json``, the sha256 of each
profile and per-item CSV of the external workloads and the score rows of
``study``.  Existing entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import checks
import workloads as W
from drqa.pipeline import parse_config, run_pipeline


def record(workload: W.Workload, seed: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = W.build_inputs(workload, seed, work)
    config["stages"] = [s for s in config["stages"] if s["kind"] != "plot"]
    config["cache"] = False
    run_pipeline(parse_config(config))
    out_dir = work / "out"
    scores = checks.read_scores(out_dir)
    psi_mean = sum(row[2] for row in scores) / len(scores)
    print(f"{workload.name} seed {seed}: psi_mean {psi_mean!r}", flush=True)
    if workload.name == "study":
        entry = {"scores": scores}
    else:
        entry = {"digests": checks.profile_digests(out_dir, "fit")}
    shutil.rmtree(work)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    parser.add_argument("--workload", choices=W.WORKLOADS, action="append")
    args = parser.parse_args()

    reference = checks.load_reference()
    work = Path.cwd() / "perfbench" / ".work" / "reference"
    for name in args.workload or W.WORKLOADS:
        workload = W.WORKLOADS[name]
        table = reference.get(name, {})
        seeds = table.get("seeds", {}) if table.get("n") == workload.n else {}
        for seed in range(args.first, args.last + 1):
            seeds[str(seed)] = record(workload, seed, work)
        reference[name] = {"n": workload.n, "seeds": dict(
            sorted(seeds.items(), key=lambda kv: int(kv[0])))}
        checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
