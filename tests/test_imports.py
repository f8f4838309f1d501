"""Only the reducers load SciPy: a run that reduces nothing needs numpy only.

Each check runs in a fresh interpreter, since this process has loaded
SciPy long before.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints the loaded SciPy modules as the script's last line.
SCIPY_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')))")


def loaded_after(script: str, cwd: Path) -> list:
    """The ``scipy`` modules loaded once ``script`` has run."""
    code = ("import json, sys\n" + textwrap.dedent(script) + "\n"
            + SCIPY_LOADED + "\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def write_scoring_inputs(tmp_path: Path) -> dict:
    """A survey with missing cells, two maps of it, and a config that
    ingests, agrees, plots and scores them."""
    rng = np.random.default_rng(3)
    n = 40
    answers = rng.integers(1, 6, (n, 4)).astype(str)
    answers[rng.random(answers.shape) < 0.1] = "NA"
    rows = ["id,q1,q2,q3,q4"] + [f"r{i}," + ",".join(row)
                                 for i, row in enumerate(answers)]
    (tmp_path / "survey.csv").write_text("\n".join(rows) + "\n")
    for name in ("good", "poor"):
        coords = rng.standard_normal((n, 2))
        rows = ["id,x,y"] + [f"r{i},{x!r},{y!r}"
                             for i, (x, y) in enumerate(coords.tolist())]
        (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
    stages = [{"kind": "ingest", "name": name, "path": f"{name}.csv"}
              for name in ("survey", "good", "poor")]
    stages += [
        {"kind": "agree", "name": "fit", "a": "survey", "b": ["good", "poor"],
         "per_item": True, "range_k": [1, 10]},
        {"kind": "plot", "name": "lift", "type": "lift",
         "profiles": ["fit:good", "fit:poor"]},
        {"kind": "plot", "name": "heatmap", "type": "heatmap",
         "values": {"agree": "fit:good"}, "order_by": "good"},
        {"kind": "plot", "name": "scatter", "type": "scatter",
         "embeddings": ["good"], "values": {"agree": "fit:good", "k": 5}},
        {"kind": "plot", "name": "loess", "type": "loess",
         "embeddings": ["good"], "values": {"agree": "fit:good", "k": 5}},
    ]
    return {"version": 1, "seed": 1, "out_dir": "out",
            "imputation": "column_mean", "scores": "scores.csv",
            "stages": stages}


class TestScipyLoads:
    def test_imports_load_numpy_only(self, tmp_path):
        assert loaded_after("import drqa, drqa.pipeline, drqa.cli",
                            tmp_path) == []

    def test_scoring_pipeline_loads_numpy_only(self, tmp_path):
        config = write_scoring_inputs(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(config))
        loaded = loaded_after("""
            from drqa.pipeline import load_config, run_pipeline
            run_pipeline(load_config("config.json"))
        """, tmp_path)
        assert loaded == []
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"scores.csv", "lift.svg", "heatmap.svg", "scatter.svg",
                "loess.svg"} <= written

    def test_warm_cached_rerun_loads_numpy_only(self, tmp_path):
        """A rescore against a filled cache, in a fresh interpreter as the
        benchmark times it, reads every pair's counts from disk, rewrites
        no entry and loads no SciPy module."""
        config = write_scoring_inputs(tmp_path)
        config["cache"] = True
        (tmp_path / "config.json").write_text(json.dumps(config))
        script = """
            from drqa.pipeline import load_config, run_pipeline
            run_pipeline(load_config("config.json"))
        """
        assert loaded_after(script, tmp_path) == []  # fills the cache
        cache = {p: p.stat().st_mtime_ns
                 for p in (tmp_path / "out" / ".cache").iterdir()}
        # the ranks of the survey and both maps, the counts of both pairs
        assert sorted(p.name.split("_")[0] for p in cache) == (
            ["pair"] * 2 + ["ranks"] * 3)
        assert loaded_after(script, tmp_path) == []
        assert {p: p.stat().st_mtime_ns
                for p in (tmp_path / "out" / ".cache").iterdir()} == cache

    def test_a_reducer_loads_scipy_in_parse_config(self, tmp_path):
        loaded = loaded_after("""
            from drqa.pipeline import parse_config
            stages = [{"kind": "generate", "name": "g",
                       "shape": "swiss_roll", "n": 30},
                      {"kind": "reduce", "name": "r", "source": "g",
                       "method": "pca", "target_dim": 2}]
            before = [m for m in sys.modules if m.split(".")[0] == "scipy"]
            assert not before, before
            parse_config({"version": 1, "seed": 1, "out_dir": "out",
                          "stages": stages})
        """, tmp_path)
        assert "scipy" in loaded

    def test_every_public_name_resolves(self, tmp_path):
        loaded_after("""
            import drqa
            from drqa import smacof
            from drqa.dimred import smacof as direct
            assert smacof is direct
            for name in drqa.__all__:
                getattr(drqa, name)
            assert set(drqa.__all__) <= set(dir(drqa))
            try:
                drqa.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("drqa.no_such_name resolved")
        """, tmp_path)
