"""One fresh process of a benchmark run: set up, then time ``run_pipeline``.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py --config CONFIG.json --workload NAME

The process imports drqa, parses the config and times one
``run_pipeline`` call.  ``--setup-only`` stops before the call.
``--fill`` makes the call untimed set-up instead: it fills the rank cache
and the output directory that later, warm processes rerun into.
``--trace FILE`` wraps the layers and writes the spans of the call to
FILE.  The last line of standard output is a JSON object holding the
clock reading at which set-up ended.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--workload", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--fill", action="store_true")
    mode.add_argument("--trace")
    args = parser.parse_args()

    import drqa.pipeline

    expected = Path.cwd() / "src" / "drqa"
    if Path(drqa.pipeline.__file__).resolve().parent != expected.resolve():
        sys.exit(f"drqa imported from {drqa.pipeline.__file__}, "
                 f"not from {expected}")
    with open(args.config) as fh:
        config = drqa.pipeline.parse_config(json.load(fh))
    report = {}
    if args.fill:
        from checks import tree_digest

        drqa.pipeline.run_pipeline(config)
        report["digest"] = tree_digest(config.out_dir)
    elif not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(args.workload)
            tracing.install(tracer)
        report["call_start"] = time.monotonic()
        cpu = time.process_time()
        drqa.pipeline.run_pipeline(config)
        report["run_s"] = time.monotonic() - report["call_start"]
        report["cpu_s"] = time.process_time() - cpu
        if tracer is not None:
            tracer.write(Path(args.trace))
    report.setdefault("call_start", time.monotonic())
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
