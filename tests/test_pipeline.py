"""Pipeline: strict config parsing, staged execution, determinism, caching."""

import ast
import hashlib
import json
import os
import shutil
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from drqa import _workers, agreement, dimred, geometry, pipeline
from drqa.agreement import (
    AgreementProfile,
    agreement_profile,
    partial_agreement,
    psi,
)
from drqa.cli import main
from drqa.geometry import Configuration, ranks_from_config
from drqa.ingest import ingest_csv, write_configuration, write_per_item
from drqa.pipeline import (
    AgreeStage,
    IngestStage,
    ManifestEntry,
    PipelineError,
    ScoreRow,
    ScoreTable,
    StageRunner,
    _RankCache,
    load_config,
    parse_config,
    run_pipeline,
)
from drqa.viz import loess_surface

from oracles import naive_neighbors, naive_overlap_counts, naive_profile


def run(obj, base_dir):
    return run_pipeline(parse_config(obj, base_dir=base_dir))


def tree_hashes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and ".cache" not in p.parts:
            rel = p.relative_to(root).as_posix()
            out[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def file_hashes(root):
    """Like :func:`tree_hashes`, the rank cache included."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(
        p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()}


def full_config(out_dir, seed=11, cache=False):
    return {
        "version": 1,
        "seed": seed,
        "out_dir": out_dir,
        "cache": cache,
        "scores": "scores.csv",
        "stages": [
            {"kind": "generate", "name": "data",
             "shape": "sphere_regular", "n": 60},
            {"kind": "reduce", "name": "emb", "source": "data",
             "methods": ["pca", "smacof"], "target_dim": 2},
            {"kind": "agree", "name": "agr", "a": "data",
             "b": ["emb_pca", "emb_smacof"], "per_item": True,
             "range_k": [1, 20]},
            {"kind": "plot", "name": "lift", "type": "lift",
             "profiles": ["agr:emb_pca", "agr:emb_smacof"]},
            {"kind": "plot", "name": "scat", "type": "scatter",
             "embeddings": ["emb_pca"],
             "values": {"agree": "agr:emb_pca", "k": 5}},
            {"kind": "plot", "name": "heat", "type": "heatmap",
             "values": {"agree": "agr:emb_smacof"}, "order_by": "emb_smacof"},
            {"kind": "plot", "name": "lo", "type": "loess",
             "embeddings": ["emb_smacof"],
             "values": {"agree": "agr:emb_smacof"},
             "spec": {"style": {"grid_resolution": 10}}},
        ],
    }


def typed_config():
    """A config using every integer, boolean and string field of a stage."""
    return {"version": 1, "seed": 0, "stages": [
        {"kind": "ingest", "name": "i", "path": "raw.csv",
         "has_header": True, "missing_token": "NA"},
        {"kind": "reduce", "name": "r", "source": "i", "method": "pca",
         "target_dim": 2},
        {"kind": "agree", "name": "a", "a": "i", "b": "r", "per_item": True,
         "range_k": [1, 2]},
        {"kind": "plot", "name": "h", "type": "heatmap", "binary": False,
         "values": {"agree": "a"},
         "spec": {"style": {"loess_span": 0.5, "azimuth": 10}}},
        {"kind": "plot", "name": "s", "type": "scatter", "embeddings": ["r"],
         "values": {"agree": "a", "k": 1}}]}


class TestParsing:
    def test_zero_stages_runs_to_empty_manifest(self, tmp_path):
        entries = run({"version": 1, "stages": [], "out_dir": "o"}, tmp_path)
        assert entries == []
        payload = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert payload["outputs"] == []

    def test_version_required(self, tmp_path):
        with pytest.raises(ValueError, match="version"):
            parse_config({"stages": []}, tmp_path)
        with pytest.raises(ValueError, match="unsupported version"):
            parse_config({"version": 2, "stages": []}, tmp_path)

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        with pytest.raises(ValueError, match="unknown keys \\['stagez'\\]"):
            parse_config({"version": 1, "stagez": []}, tmp_path)
        base = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "torus_random",
             "n": 30, "extra": 1}]}
        with pytest.raises(ValueError, match="unknown keys \\['extra'\\]"):
            parse_config(base, tmp_path)
        base["stages"][0].pop("extra")
        base["stages"][0]["params"] = {"radius": 1.0}
        with pytest.raises(ValueError, match="unknown shape_params.*radius"):
            parse_config(base, tmp_path)
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "torus_random", "n": 30},
            {"kind": "reduce", "name": "r", "source": "d",
             "method": "pca", "target_dim": 2,
             "params": {"bogus_knob": 3}}]}
        with pytest.raises(ValueError, match="bogus_knob"):
            parse_config(cfg, tmp_path)
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "torus_random", "n": 30},
            {"kind": "reduce", "name": "r", "source": "d",
             "method": "pca", "target_dim": 2},
            {"kind": "agree", "name": "a", "a": "d", "b": "r",
             "per_item": True},
            {"kind": "plot", "name": "p", "type": "scatter",
             "embeddings": ["r"], "values": {"agree": "a"}}]}
        for key, value in (("styl", {}), ("eval_mode", "hard"),
                           ("config_side", "A")):
            cfg["stages"][3]["spec"] = {key: value}
            with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
                parse_config(cfg, tmp_path)

    @pytest.mark.parametrize("shape, params, message", [
        ("torus_random", {"ring_radius": 1, "tube_radius": 2},
         "ring_radius > tube_radius"),
        ("swiss_roll", {"sampling": "x"}, "sampling must be"),
    ], ids=["torus_radii", "sampling"])
    def test_shape_param_values_checked(self, tmp_path, shape, params, message):
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": shape, "n": 30,
             "params": params}]}
        with pytest.raises(ValueError, match=message):
            parse_config(cfg, tmp_path)

    def test_method_params_checked_per_method(self, tmp_path):
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "reduce", "name": "r", "source": "d",
             "method": "smacof", "target_dim": 2,
             "params": {"transform": "ordinal"}}]}
        parse_config(cfg, tmp_path)  # accepted for smacof
        cfg["stages"][1]["method"] = "pca"
        with pytest.raises(ValueError, match="transform"):
            parse_config(cfg, tmp_path)
        # the reducer's input is not a parameter, nor is a name it lacks
        for method, key in (("smacof", "dist"),
                            ("local_smacof", "smacof_kwargs")):
            cfg["stages"][1].update(method=method, params={key: 1})
            with pytest.raises(ValueError, match=f"unknown keys .*{key}"):
                parse_config(cfg, tmp_path)
        # values must have the annotated type; smacof weights are a list
        for method, key, value in (("smacof", "max_iter", [1]),
                                   ("smacof", "max_iter", True),
                                   ("smacof", "weights", "x"),
                                   ("smacof", "weights", [[{}]]),
                                   ("smacof", "weights", [[0, "1"], [1, 0]]),
                                   ("smacof", "weights", [[0, True], [1, 0]]),
                                   ("lle", "n_neighbors", "x"),
                                   ("laplacian_eigenmaps", "t", None),
                                   ("smacof", "seed", None)):
            cfg["stages"][1].update(method=method, params={key: value})
            with pytest.raises(ValueError, match=f"{key} has the wrong type"):
                parse_config(cfg, tmp_path)
        for method, key, value in (("smacof", "weights", [[0, 1], [1, 0]]),
                                   ("local_smacof", "quantile", 1),
                                   ("pca", "use_correlation", True)):
            cfg["stages"][1].update(method=method, params={key: value})
            parse_config(cfg, tmp_path)
        # a parameter without a default must be set, in every grid entry
        for method in ("isomap", "lle", "laplacian_eigenmaps"):
            cfg["stages"][1].update(method=method, params={"n_neighbors": 5})
            parse_config(cfg, tmp_path)
            for params in ({}, {"n_neighbors": 5}):
                cfg["stages"][1].pop("params", None)
                cfg["stages"][1].update(method=method, param_grid=[params, {}])
                with pytest.raises(ValueError, match=f"params for {method}: "
                                   "missing required key 'n_neighbors'"):
                    parse_config(cfg, tmp_path)
            cfg["stages"][1].pop("param_grid")
            cfg["stages"][1]["params"] = {}
            with pytest.raises(ValueError, match="missing required key"):
                parse_config(cfg, tmp_path)


    def test_local_smacof_takes_the_smacof_options(self, tmp_path):
        """Each of smacof's options is a keyword of local_smacof, checked
        against smacof's annotation; its weights are the quantile's."""
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "reduce", "name": "r", "source": "d",
             "method": "local_smacof", "target_dim": 2}]}
        for key, value in (("transform", "ordinal"), ("max_iter", 5),
                           ("tol", 1e-3), ("tol", 0), ("seed", 3),
                           ("init", "random"), ("init", [[0, 1.5]] * 30)):
            cfg["stages"][1]["params"] = {key: value}
            stage = parse_config(cfg, tmp_path).stages[1]
            assert stage.param_grid == ({key: value},)
        for key, value in (("transform", 1), ("max_iter", 1.5),
                           ("max_iter", True), ("tol", "x"), ("seed", None),
                           ("seed", 2.5), ("init", False)):
            cfg["stages"][1]["params"] = {key: value}
            with pytest.raises(ValueError, match=f"params for local_smacof: "
                               f"{key} has the wrong type"):
                parse_config(cfg, tmp_path)
        cfg["stages"][1]["params"] = {"weights": [[0, 1], [1, 0]]}
        with pytest.raises(ValueError, match="unknown keys .*weights"):
            parse_config(cfg, tmp_path)

    def test_references_must_resolve(self, tmp_path):
        with pytest.raises(ValueError, match="unknown source"):
            parse_config({"version": 1, "stages": [
                {"kind": "reduce", "name": "r", "source": "ghost",
                 "method": "pca", "target_dim": 2}]}, tmp_path)
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "agree", "name": "a", "a": "d", "b": "ghost"}]}
        with pytest.raises(ValueError, match="unknown artifact 'ghost'"):
            parse_config(cfg, tmp_path)
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "agree", "name": "a", "a": "d", "b": "d"},
            {"kind": "plot", "name": "p", "type": "lift",
             "profiles": ["nope"]}]}
        with pytest.raises(ValueError, match="unknown profile"):
            parse_config(cfg, tmp_path)

    def test_plot_values_need_per_item_output(self, tmp_path):
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "agree", "name": "a", "a": "d", "b": "d"},
            {"kind": "plot", "name": "p", "type": "heatmap",
             "values": {"agree": "a"}}]}
        with pytest.raises(ValueError, match="per-item"):
            parse_config(cfg, tmp_path)

    @pytest.mark.parametrize("path, value", [
        (("seed",), True),
        (("stages", 1, "target_dim"), True),
        (("stages", 2, "range_k"), [True, True]),
        (("stages", 2, "per_item"), "no"),
        (("stages", 0, "has_header"), "false"),
        (("stages", 0, "missing_token"), [1]),
        (("stages", 3, "binary"), 1),
        (("stages", 4, "values", "k"), True),
        (("stages", 3, "spec", "style", "loess_span"), True),
        (("stages", 3, "spec", "style", "azimuth"), True),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_booleans_and_integers_kept_apart(self, tmp_path, path, value):
        cfg = typed_config()
        parse_config(cfg, tmp_path)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=str(path[-1])):
            parse_config(cfg, tmp_path)

    def test_numpy_integers_accepted(self, tmp_path):
        cfg = typed_config()
        cfg["seed"] = np.int64(3)
        cfg["stages"][1]["target_dim"] = np.int32(2)
        cfg["stages"][2]["range_k"] = [np.int64(1), np.int64(2)]
        cfg["stages"][4]["values"]["k"] = np.int64(2)
        parsed = parse_config(cfg, tmp_path)
        assert type(parsed.seed) is int
        assert parsed.stages[2].range_k == (1, 2)
        assert parsed.stages[4].values["k"] == 2

    def test_duplicate_names_rejected(self, tmp_path):
        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30}]}
        with pytest.raises(ValueError, match="already in use"):
            parse_config(cfg, tmp_path)
        cfg["stages"][1] = {"kind": "agree", "name": "a", "a": "d",
                            "b": ["d", "d"]}
        with pytest.raises(ValueError, match="duplicate artifacts in b"):
            parse_config(cfg, tmp_path)

    TWO_WRITERS = [{"kind": "generate", "name": "x",
                    "shape": "sphere_random", "n": 20},
                   {"kind": "generate", "name": "y",
                    "shape": "sphere_random", "n": 20}]

    def test_stages_that_write_one_file_rejected(self, tmp_path):
        """An agree stage over two embeddings writes ``a_x.csv``, which a
        later generate stage named ``a_x`` would write again."""
        cfg = {"version": 1, "stages": self.TWO_WRITERS + [
            {"kind": "agree", "name": "a", "a": "x", "b": ["x", "y"]},
            {"kind": "generate", "name": "a_x", "shape": "sphere_random",
             "n": 24}]}
        with pytest.raises(ValueError, match="^config: stage 'a' and stage "
                           "'a_x' both write 'a_x.csv'$"):
            parse_config(cfg, tmp_path)
        cfg["stages"][3]["name"] = "ax"
        parse_config(cfg, tmp_path)

    @pytest.mark.parametrize("scores, first", [
        ("x.csv", "stage 'x'"), ("manifest.json", "the manifest")])
    def test_score_table_over_another_file_rejected(self, tmp_path, scores,
                                                    first):
        cfg = {"version": 1, "scores": scores, "stages": self.TWO_WRITERS}
        with pytest.raises(ValueError, match=(
                f"^config: {first} and the score table both write "
                f"'{scores}'$")):
            parse_config(cfg, tmp_path)


class TestExecution:
    def test_stage_expansion_count(self, tmp_path):
        cfg = {"version": 1, "seed": 3, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "data",
             "shape": "sphere_regular", "n": 50},
            {"kind": "reduce", "name": "emb", "source": "data",
             "methods": ["pca", "smacof"], "target_dim": 2},
            {"kind": "agree", "name": "agr", "a": "data", "b": "emb_smacof"},
            {"kind": "plot", "name": "fig", "type": "lift",
             "profiles": ["agr"]}]}
        entries = run(cfg, tmp_path)
        paths = [e.path for e in entries]
        assert paths == ["data.csv", "emb_pca.csv", "emb_smacof.csv",
                         "agr.csv", "fig.svg"]
        for e in entries:
            f = tmp_path / "o" / e.path
            assert f.exists() and f.stat().st_size > 0

    def test_param_grid_expansion(self, tmp_path):
        cfg = {"version": 1, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 40},
            {"kind": "reduce", "name": "r", "source": "d", "method": "lle",
             "target_dim": 2,
             "param_grid": [{"n_neighbors": 5}, {"n_neighbors": 9}]}]}
        entries = run(cfg, tmp_path)
        assert [e.path for e in entries] == ["d.csv", "r_p0.csv", "r_p1.csv"]
        a = np.loadtxt(tmp_path / "o" / "r_p0.csv", skiprows=1,
                       delimiter=",", usecols=(1, 2))
        b = np.loadtxt(tmp_path / "o" / "r_p1.csv", skiprows=1,
                       delimiter=",", usecols=(1, 2))
        assert not np.allclose(a, b)

    def test_seeds_derive_from_stage_index(self, tmp_path):
        cfg = {"version": 1, "seed": 100, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "d", "shape": "torus_random", "n": 30},
            {"kind": "reduce", "name": "r", "source": "d",
             "method": "smacof", "target_dim": 2,
             "params": {"init": "random"}},
            {"kind": "agree", "name": "a", "a": "d", "b": "r"}]}
        entries = run(cfg, tmp_path)
        by_stage = {e.stage: e for e in entries}
        assert by_stage["d"].seed == 100
        assert by_stage["r"].seed == 101
        assert by_stage["a"].seed is None

    def test_ingest_with_imputation(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("id,x,y\nu,1,2\nv,NA,4\nw,5,6\n")
        cfg = {"version": 1, "out_dir": "o", "imputation": "column_mean",
               "stages": [
                   {"kind": "ingest", "name": "d", "path": "raw.csv"},
                   {"kind": "agree", "name": "a", "a": "d", "b": "d"}]}
        run(cfg, tmp_path)
        text = (tmp_path / "o" / "d.csv").read_text()
        assert "3.0" in text  # imputed column mean of (1, 5)
        scores = (tmp_path / "o" / "a.csv").read_text()
        assert scores.startswith("k,agreement")

    def test_partial_agreement_output(self, tmp_path):
        cfg = {"version": 1, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 30},
            {"kind": "reduce", "name": "r", "source": "d",
             "method": "pca", "target_dim": 2},
            {"kind": "reduce", "name": "z", "source": "d",
             "method": "lle", "target_dim": 2, "params": {"n_neighbors": 6}},
            {"kind": "agree", "name": "a", "a": "d", "b": "r", "z": "z"}]}
        run(cfg, tmp_path)
        rows = (tmp_path / "o" / "a_partial.csv").read_text().splitlines()
        assert rows[0] == "psi_ab,psi_az,psi_bz,partial_agreement"
        vals = [float(v) for v in rows[1].split(",")]
        assert -1.0 <= vals[3] <= 1.0

    def test_agree_keeps_only_what_plots_read(self, tmp_path):
        rng = np.random.default_rng(5)
        runner = StageRunner(tmp_path)
        for name in ("a", "b"):
            runner.configurations[name] = Configuration(
                rng.standard_normal((12, 3)))
        runner.agree(AgreeStage("s", "a", ("b",), per_item=True,
                                range_k=(2, 5)))
        assert runner.profiles["s"].per_item is None
        ks, matrix, ids = runner.per_item["s"]
        assert ks == (2, 3, 4, 5) and ids is None
        assert matrix.shape == (12, 4) and matrix.base is None

    def test_partial_agreement_scores_a_against_z_once(self, tmp_path,
                                                       monkeypatch):
        kernel = agreement._overlap_counts
        calls = []

        def counted(rows_a, rows_b, hi=0):
            calls.append((rows_a.copy(), rows_b.copy()))
            return kernel(rows_a, rows_b, hi)

        monkeypatch.setattr(agreement, "_overlap_counts", counted)
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 5 * 12)
        monkeypatch.setenv("DRQA_THREADS", "2")
        rng = np.random.default_rng(6)
        runner = StageRunner(tmp_path)
        for name in ("a", "b1", "b2", "z"):
            runner.configurations[name] = Configuration(
                rng.standard_normal((12, 3)))
        ranks = {name: ranks_from_config(c).ranks
                 for name, c in runner.configurations.items()}
        runner.run(AgreeStage("s", "a", ("b1", "b2"), z="z"))
        blocks = geometry._row_blocks(12, 2)

        def owner(rows):
            return next(name for name, r in ranks.items()
                        if any(np.array_equal(rows, r[start:stop])
                               for start, stop in blocks))

        pairs = Counter((owner(ra), owner(rb)) for ra, rb in calls)
        # once per block each: a-b1, a-b2, a-z, b1-z, b2-z
        assert pairs == {pair: len(blocks) for pair in (
            ("a", "b1"), ("a", "b2"), ("a", "z"), ("b1", "z"), ("b2", "z"))}
        assert len(runner.partials) == 2

    def test_failing_stage_removes_its_outputs(self, tmp_path):
        cfg = {"version": 1, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "g1", "shape": "sphere_random",
             "n": 20},
            {"kind": "generate", "name": "g2", "shape": "sphere_random",
             "n": 24},
            {"kind": "reduce", "name": "r1", "source": "g1",
             "method": "pca", "target_dim": 2},
            {"kind": "agree", "name": "agr", "a": "g1", "b": ["r1", "g2"]}]}
        with pytest.raises(PipelineError, match="stage 'agr'"):
            run(cfg, tmp_path)
        out = tmp_path / "o"
        assert (out / "g1.csv").exists()
        assert (out / "r1.csv").exists()
        assert not (out / "agr_r1.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_failed_rerun_removes_old_manifest(self, tmp_path):
        cfg = {"version": 1, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "g", "shape": "sphere_random",
             "n": 20}]}
        run(cfg, tmp_path)
        assert (tmp_path / "o" / "manifest.json").exists()
        cfg["stages"].append({"kind": "ingest", "name": "i",
                              "path": "missing.csv"})
        with pytest.raises(PipelineError, match="stage 'i'"):
            run(cfg, tmp_path)
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("role", ["b", "z"])
    def test_agree_rejects_mismatched_item_ids(self, role, tmp_path):
        """Rows are paired item by item, so a map listing the items in
        another order fails instead of being scored row against row."""
        x = np.random.default_rng(8).standard_normal((12, 3))
        ids = [f"s{i}" for i in range(12)]
        write_configuration(Configuration(x, labels=ids), tmp_path / "s.csv")
        write_configuration(Configuration(x[::-1], labels=ids[::-1]),
                            tmp_path / "m.csv")
        cfg = {"version": 1, "out_dir": "o", "stages": [
            {"kind": "ingest", "name": "survey", "path": "s.csv"},
            {"kind": "ingest", "name": "map", "path": "m.csv"},
            {"kind": "agree", "name": "agr", "a": "survey",
             **({"b": "map"} if role == "b" else {"b": "survey", "z": "map"})}]}
        with pytest.raises(PipelineError, match="^stage 'agr' \\(agree\\) "
                           "failed: item ids of 'map' do not match those of "
                           "'survey'$"):
            run(cfg, tmp_path)
        assert not list((tmp_path / "o").glob("agr*"))

    def test_agree_names_the_artifact_without_a_shared_column(self,
                                                              tmp_path):
        (tmp_path / "s.csv").write_text("id,q1,q2\nr0,1,NA\nr1,2,3\n"
                                        "r2,NA,4\n")
        cfg = {"version": 1, "out_dir": "o", "stages": [
            {"kind": "ingest", "name": "survey", "path": "s.csv"},
            {"kind": "agree", "name": "agr", "a": "survey", "b": "survey"}]}
        with pytest.raises(PipelineError, match="^stage 'agr' \\(agree\\) "
                           "failed: survey: items 'r0' and 'r2' share no "
                           "observed dimension$"):
            run(cfg, tmp_path)

    @pytest.mark.parametrize("plot_type, key", [
        ("scatter", "embeddings"), ("loess", "embeddings"),
        ("heatmap", "order_by"),
    ], ids=["scatter", "loess", "heatmap_order_by"])
    def test_plot_rejects_mismatched_item_ids(self, plot_type, key, tmp_path):
        """Per-item rates are painted only onto an embedding of the same
        items in the same order."""
        x = np.random.default_rng(9).standard_normal((12, 2))
        ids = [f"s{i}" for i in range(12)]
        write_configuration(Configuration(x, labels=ids), tmp_path / "m.csv")
        write_configuration(Configuration(x[::-1], labels=ids[::-1]),
                            tmp_path / "r.csv")

        def config(out_dir, embedding):
            return {"version": 1, "out_dir": out_dir, "stages": [
                {"kind": "ingest", "name": "map", "path": "m.csv"},
                {"kind": "ingest", "name": "shuffled", "path": "r.csv"},
                {"kind": "agree", "name": "agr", "a": "map", "b": "map",
                 "per_item": True},
                {"kind": "plot", "name": "fig", "type": plot_type,
                 "values": {"agree": "agr"},
                 key: [embedding] if key == "embeddings" else embedding}]}

        run(config("ok", "map"), tmp_path)
        assert (tmp_path / "ok" / "fig.svg").exists()
        with pytest.raises(PipelineError, match="^stage 'fig' \\(plot\\) "
                           "failed: item ids of embedding 'shuffled' do not "
                           "match those of per-item rates 'agr'$"):
            run(config("o", "shuffled"), tmp_path)
        assert not (tmp_path / "o" / "fig.svg").exists()

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRQA_THREADS", "2")
        cfg = full_config("o")
        run(cfg, tmp_path)
        assert (tmp_path / "o" / "scores.csv").exists()
        monkeypatch.setenv("DRQA_THREADS", "soon")
        with pytest.raises(ValueError, match="DRQA_THREADS"):
            run(full_config("p"), tmp_path)

    def test_outputs_do_not_depend_on_threads(self, tmp_path, monkeypatch):
        for threads in ("1", "2"):
            monkeypatch.setenv("DRQA_THREADS", threads)
            run(full_config(f"o{threads}"), tmp_path)
        assert (tmp_path / "o1" / "lo.svg").exists()
        assert tree_hashes(tmp_path / "o1") == tree_hashes(tmp_path / "o2")

    def test_loess_worker_failure_fails_the_stage(self, tmp_path,
                                                  monkeypatch):
        """A loess row that raises on a worker thread fails the plot stage
        once the pool has finished, and the stage leaves no SVG behind."""
        solve = np.linalg.solve
        lock = threading.Lock()
        failing = []

        def fail_on_one_worker(*args, **kwargs):
            me = threading.get_ident()
            if me != threading.main_thread().ident:
                with lock:
                    if not failing:
                        failing.append(me)
                if me == failing[0]:
                    raise np.linalg.LinAlgError("injected")
            return solve(*args, **kwargs)

        # each loess grid row makes one batched solve
        monkeypatch.setattr(np.linalg, "solve", fail_on_one_worker)
        monkeypatch.setenv("DRQA_THREADS", "2")
        before = set(threading.enumerate())
        with pytest.raises(PipelineError,
                           match="^stage 'lo' \\(plot\\) failed: injected$"):
            run(full_config("o"), tmp_path)
        assert failing
        # the pool has finished: none of its threads is left running
        assert set(threading.enumerate()) <= before
        assert (tmp_path / "o" / "heat.svg").exists()
        assert not (tmp_path / "o" / "lo.svg").exists()
        assert not (tmp_path / "o" / "manifest.json").exists()


class TestRunPool:
    """One pool per run; each stage starts once what it reads exists."""

    def test_earlier_slow_failure_is_the_one_reported(self, tmp_path,
                                                      monkeypatch):
        """A later, independent stage fails at once and an earlier reduce
        stage fails afterwards: every thread count names the reduce stage
        and leaves the tree of one worker, rank cache included, with no
        manifest and no pool thread running."""
        pca = dimred.pca

        def slow_failure(config, *args, **kwargs):
            if config.n == 20:
                time.sleep(0.3)
                raise ValueError("slow failure")
            return pca(config, *args, **kwargs)

        write_profile = pipeline.write_profile
        profiles = []

        def recorded(profile, path):
            profiles.append(Path(path).name)
            write_profile(profile, path)

        monkeypatch.setattr(dimred, "pca", slow_failure)
        monkeypatch.setattr(pipeline, "write_profile", recorded)
        trees = {}
        for threads in ("1", "2", "3"):
            cfg = {"version": 1, "out_dir": f"o{threads}", "cache": True,
                   "scores": "scores.csv", "stages": [
                       {"kind": "generate", "name": "g1",
                        "shape": "sphere_random", "n": 20},
                       {"kind": "generate", "name": "g2",
                        "shape": "sphere_random", "n": 24},
                       {"kind": "reduce", "name": "r1", "source": "g1",
                        "method": "pca", "target_dim": 2},
                       {"kind": "agree", "name": "a2", "a": "g2",
                        "b": "g2", "per_item": True},
                       {"kind": "ingest", "name": "i",
                        "path": "missing.csv"},
                       {"kind": "reduce", "name": "r2", "source": "g2",
                        "method": "pca", "target_dim": 2}]}
            monkeypatch.setenv("DRQA_THREADS", threads)
            before = set(threading.enumerate())
            with pytest.raises(PipelineError, match="^stage 'r1' \\(reduce\\) "
                               "failed: slow failure$"):
                run(cfg, tmp_path)
            assert set(threading.enumerate()) <= before
            trees[threads] = file_hashes(tmp_path / f"o{threads}")
        assert sorted(trees["1"]) == ["g1.csv", "g2.csv"]
        assert trees["1"] == trees["2"] == trees["3"]
        # with more workers a2 ran beside r1, and was undone
        assert profiles == ["a2.csv", "a2.csv"]

    def test_outputs_do_not_depend_on_the_order_stages_finish(
            self, tmp_path, monkeypatch):
        """Earlier reductions sleep longer, so later stages finish first;
        every thread count writes the same tree, manifest and scores, also
        with threads switched often and more workers than CPUs."""
        pca = dimred.pca
        finished = []

        def slow_early(config, *args, **kwargs):
            time.sleep((36 - config.n) / 40)
            result = pca(config, *args, **kwargs)
            finished.append(config.n)
            return result

        monkeypatch.setattr(dimred, "pca", slow_early)
        sizes = (20, 24, 28, 32)
        stages = []
        for n in sizes:
            stages += [
                {"kind": "generate", "name": f"d{n}",
                 "shape": "torus_random", "n": n},
                {"kind": "reduce", "name": f"r{n}", "source": f"d{n}",
                 "methods": ["pca", "classical_mds"], "target_dim": 2},
                {"kind": "agree", "name": f"a{n}", "a": f"d{n}",
                 "b": [f"r{n}_pca", f"r{n}_classical_mds"],
                 "per_item": True, "range_k": [1, 5]}]
        stages.append({"kind": "plot", "name": "lift", "type": "lift",
                       "profiles": ["a32:r32_pca", "a32:r32_classical_mds"]})
        trees = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("DRQA_THREADS", threads)
                run({"version": 1, "seed": 5, "out_dir": f"o{threads}",
                     "scores": "scores.csv", "stages": stages}, tmp_path)
                trees[threads] = tree_hashes(tmp_path / f"o{threads}")
        finally:
            sys.setswitchinterval(interval)
        assert finished[:4] == list(sizes)
        assert finished[-4:] != list(sizes)
        assert {"manifest.json", "scores.csv", "lift.svg"} <= set(trees["1"])
        assert trees["1"] == trees["2"] == trees["3"]

    def test_run_holds_no_more_threads_than_workers(self, tmp_path,
                                                    monkeypatch):
        """Sampled inside reducers and loess rows, a run at three workers
        never shows more than three threads beside those it started with:
        the agree pass and the loess plot use the run's pool."""
        counts = {"reduce": [], "loess": []}
        pca, solve = dimred.pca, np.linalg.solve

        def counted_pca(*args, **kwargs):
            counts["reduce"].append(len(threading.enumerate()))
            return pca(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            counts["loess"].append(len(threading.enumerate()))
            return solve(*args, **kwargs)

        monkeypatch.setattr(dimred, "pca", counted_pca)
        # each loess grid row makes one batched solve
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setenv("DRQA_THREADS", "3")
        before = len(threading.enumerate())
        run(full_config("o"), tmp_path)
        assert counts["reduce"] and counts["loess"]
        assert max(counts["reduce"] + counts["loess"]) <= before + 3

    def test_waiting_run_does_not_spin(self, tmp_path, monkeypatch):
        """While its only reduce job sleeps, a run uses almost no CPU."""
        pca = dimred.pca

        def sleepy(*args, **kwargs):
            time.sleep(0.5)
            return pca(*args, **kwargs)

        cfg = {"version": 1, "stages": [
            {"kind": "generate", "name": "d", "shape": "sphere_random",
             "n": 20},
            {"kind": "reduce", "name": "r", "source": "d", "method": "pca",
             "target_dim": 2}]}
        monkeypatch.setenv("DRQA_THREADS", "2")
        run({**cfg, "out_dir": "warm"}, tmp_path)  # imports, caches
        monkeypatch.setattr(dimred, "pca", sleepy)
        wall, cpu = time.monotonic(), time.process_time()
        run({**cfg, "out_dir": "o"}, tmp_path)
        assert time.monotonic() - wall >= 0.5
        assert time.process_time() - cpu < 0.2

    def test_files_lists_what_each_stage_writes(self, tmp_path):
        cfg = full_config("o")
        cfg["stages"].append({"kind": "agree", "name": "part", "a": "data",
                              "b": ["emb_pca"], "z": "emb_smacof"})
        written = {}
        for entry in run(cfg, tmp_path):
            written.setdefault(entry.stage, []).append(entry.path)
        for stage in parse_config(cfg, tmp_path).stages:
            assert written[stage.name] == [
                name for names in pipeline._files(stage).values()
                for name in names]

    def test_library_calls_after_a_run_use_the_calling_thread(
            self, tmp_path, monkeypatch):
        """Once a run has closed its pool, a loess fit and an agreement
        profile on the same thread start no thread, and give the bits
        they give on a pool of three."""
        monkeypatch.setenv("DRQA_THREADS", "2")
        run(full_config("o"), tmp_path)
        rng = np.random.default_rng(4)
        points = rng.standard_normal((60, 2))
        values = rng.random(60)
        ranks = [ranks_from_config(Configuration(x)) for x in (
            points, points + rng.standard_normal((60, 2)))]

        def outcome():
            surface = loess_surface(points, values, span=0.4, grid=7)
            profile = agreement_profile(*ranks, with_per_item=True)
            return (surface.values.tobytes(), surface.fallback.tobytes(),
                    profile.ar.tobytes(), profile.per_item.tobytes())

        start = threading.Thread.start
        started = []

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        assert _workers._pool().workers == 1
        alone = outcome()
        assert started == []
        with _workers._run_pool(3) as pool:
            assert _workers._pool() is pool and pool.workers == 3
            assert outcome() == alone
        assert started

    def test_ingest_of_a_file_the_run_writes_waits_for_it(self, tmp_path,
                                                          monkeypatch):
        """An ingest of a CSV that an earlier, slow stage of the same run
        writes reads the finished file at every thread count."""
        generate = pipeline.generate

        def slow_generate(spec):
            time.sleep(0.2)
            return generate(spec)

        monkeypatch.setattr(pipeline, "generate", slow_generate)
        trees = {}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DRQA_THREADS", threads)
            run({"version": 1, "out_dir": f"o{threads}", "stages": [
                {"kind": "generate", "name": "g", "shape": "sphere_random",
                 "n": 20},
                {"kind": "ingest", "name": "i", "path": f"o{threads}/g.csv"},
                {"kind": "reduce", "name": "r", "source": "i",
                 "method": "pca", "target_dim": 2}]}, tmp_path)
            trees[threads] = tree_hashes(tmp_path / f"o{threads}")
        assert trees["1"] == trees["2"] == trees["3"]
        assert trees["1"]["i.csv"] == trees["1"]["g.csv"]

    def test_stage_after_an_ingest_of_its_file_waits_for_it(self, tmp_path,
                                                           monkeypatch):
        """Rerun into the same directory, a slow ingest of an earlier run's
        file reads it before a later stage of the run rewrites it."""
        read = pipeline.ingest_csv

        def slow_read(*args, **kwargs):
            time.sleep(0.2)
            return read(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ingest_csv", slow_read)
        trees = {}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DRQA_THREADS", threads)
            out = f"o{threads}"
            run({"version": 1, "out_dir": out, "stages": [
                {"kind": "generate", "name": "g", "shape": "sphere_random",
                 "n": 20}]}, tmp_path)
            run({"version": 1, "out_dir": out, "stages": [
                {"kind": "ingest", "name": "i", "path": f"{out}/g.csv"},
                {"kind": "generate", "name": "g", "shape": "sphere_random",
                 "n": 24}]}, tmp_path)
            trees[threads] = tree_hashes(tmp_path / out)
        assert trees["1"] == trees["2"] == trees["3"]
        assert ingest_csv(tmp_path / "o3" / "i.csv").n == 20
        assert ingest_csv(tmp_path / "o3" / "g.csv").n == 24

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_jobs_of_a_reduce_stage_run_side_by_side(self, threads, tmp_path,
                                                     monkeypatch):
        """The two reducers of one stage each wait for the other at a
        barrier, which breaks, and fails the stage, unless they run at the
        same time."""
        barrier = threading.Barrier(2, timeout=5)

        def meeting(reducer):
            def met(*args, **kwargs):
                barrier.wait()
                return reducer(*args, **kwargs)
            return met

        for method in ("pca", "classical_mds"):
            monkeypatch.setattr(dimred, method,
                                meeting(getattr(dimred, method)))
        monkeypatch.setenv("DRQA_THREADS", threads)
        run({"version": 1, "out_dir": "o", "stages": [
            {"kind": "generate", "name": "g", "shape": "sphere_random",
             "n": 20},
            {"kind": "reduce", "name": "r", "source": "g",
             "methods": ["pca", "classical_mds"], "target_dim": 2}]},
            tmp_path)
        assert sorted(tree_hashes(tmp_path / "o")) == [
            "g.csv", "manifest.json", "r_classical_mds.csv", "r_pca.csv"]

    def test_first_failing_job_of_a_reduce_stage_is_reported(self, tmp_path,
                                                             monkeypatch):
        """A slow failure of the stage's first job, not the quick one of
        its second, is reported at every thread count; the stage leaves no
        file and the run no thread."""
        def slow_pca(*args, **kwargs):
            time.sleep(0.3)
            raise ValueError("slow pca")

        def fast_mds(*args, **kwargs):
            raise ValueError("fast mds")

        monkeypatch.setattr(dimred, "pca", slow_pca)
        monkeypatch.setattr(dimred, "classical_mds", fast_mds)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("DRQA_THREADS", threads)
            before = set(threading.enumerate())
            with pytest.raises(PipelineError, match="^stage 'r' \\(reduce\\) "
                               "failed: slow pca$"):
                run({"version": 1, "out_dir": f"o{threads}", "stages": [
                    {"kind": "generate", "name": "g",
                     "shape": "sphere_random", "n": 20},
                    {"kind": "reduce", "name": "r", "source": "g",
                     "methods": ["pca", "classical_mds", "smacof"],
                     "target_dim": 2}]}, tmp_path)
            assert set(threading.enumerate()) <= before
            assert sorted(file_hashes(tmp_path / f"o{threads}")) == ["g.csv"]


class TestDeterminismAndCache:
    def test_reruns_are_byte_identical(self, tmp_path):
        run(full_config("r1"), tmp_path)
        run(full_config("r2"), tmp_path)
        h1 = tree_hashes(tmp_path / "r1")
        h2 = tree_hashes(tmp_path / "r2")
        assert h1 == h2
        assert "manifest.json" in h1 and "scores.csv" in h1

    def test_cache_matches_uncached(self, tmp_path):
        run(full_config("cold", cache=False), tmp_path)
        run(full_config("warm", cache=True), tmp_path)
        run(full_config("warm2", cache=True), tmp_path)
        cold = tree_hashes(tmp_path / "cold")
        warm = tree_hashes(tmp_path / "warm")
        assert cold == warm
        assert list((tmp_path / "warm" / ".cache").glob("ranks_*.npy"))
        # a second cached run reads the structures back
        again = dict(tree_hashes(tmp_path / "warm2"))
        assert again == cold

    def test_cache_key_covers_shape_and_mask(self, tmp_path):
        values = np.random.default_rng(0).normal(size=12)
        mask = np.ones((4, 3), dtype=bool)
        mask[1, 2] = False
        configs = {
            "wide": Configuration(values.reshape(6, 2)),
            "tall": Configuration(values.reshape(4, 3)),
            "square": Configuration(values.reshape(3, 4)),
            "masked": Configuration(values.reshape(4, 3), mask=mask),
        }
        expected = {name: ranks_from_config(c).ranks
                    for name, c in configs.items()}
        assert not np.array_equal(expected["tall"], expected["masked"])
        cache = _RankCache(tmp_path)
        for name, config in configs.items():
            assert np.array_equal(cache.ranks_for(name, config).ranks,
                                  expected[name])
        files = sorted(tmp_path.glob("ranks_*.npy"))
        assert len(files) == len(configs)
        for path in files:
            stored = np.load(path)
            assert stored.dtype == np.int32
        # a stale entry in the earlier .npz format, holding wrong ranks, is
        # ignored: the structures are ranked again and stored as .npy
        for path in files:
            wrong = np.load(path)[::-1, ::-1].astype(np.int64)
            np.savez(path.with_suffix(".npz"), ranks=wrong,
                     neighbors=np.argsort(wrong, axis=1)[:, 1:])
            path.unlink()
        from_disk = _RankCache(tmp_path)
        for name, config in configs.items():
            loaded = from_disk.ranks_for(name, config).ranks
            assert loaded.dtype == expected[name].dtype == np.int32
            assert np.array_equal(loaded, expected[name])
        assert sorted(tmp_path.glob("ranks_*.npy")) == files

    def test_cache_write_that_raises_leaves_no_file(self, tmp_path,
                                                    monkeypatch):
        write_header = np.lib.format.write_array_header_1_0

        def write_then_fail(fp, d):
            write_header(fp, d)
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array_header_1_0",
                            write_then_fail)
        config = Configuration(np.arange(10, dtype=float).reshape(5, 2))
        with pytest.raises(OSError, match="disk full"):
            _RankCache(tmp_path).ranks_for("d", config)
        assert list(tmp_path.iterdir()) == []

    def test_cache_header_write_that_raises_leaves_no_file(self, tmp_path,
                                                           monkeypatch):
        fdopen = os.fdopen
        opened = []

        def fdopen_then_fail_writes(fd, mode):
            file = fdopen(fd, mode)
            write = file.write

            def write_then_fail(data):
                write(data)
                raise OSError("disk full")

            file.write = write_then_fail
            opened.append(mode)
            return file

        monkeypatch.setattr(os, "fdopen", fdopen_then_fail_writes)
        config = Configuration(np.arange(10, dtype=float).reshape(5, 2))
        with pytest.raises(OSError, match="disk full"):
            _RankCache(tmp_path).ranks_for("d", config)
        assert opened == ["wb"]
        assert list(tmp_path.iterdir()) == []

    def test_cache_miss_failing_midway_leaves_no_file(self, tmp_path,
                                                      monkeypatch):
        rank_rows = geometry._rank_rows
        blocks = []

        def fail_on_second(d, out, start):
            blocks.append(start)
            if len(blocks) == 2:
                raise OSError("disk full")
            rank_rows(d, out, start)

        monkeypatch.setattr(geometry, "_rank_rows", fail_on_second)
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 2 * 5)
        config = Configuration(np.arange(10, dtype=float).reshape(5, 2))
        with pytest.raises(OSError, match="disk full"):
            _RankCache(tmp_path).ranks_for("d", config)
        assert blocks == [0, 2]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", [
        "repeated_rank", "rows_cut_short", "empty", "not_npy", "int64",
        "wrong_n", "fortran_order"])
    def test_corrupt_cache_entry_is_one_error_line(self, tmp_path, capsys,
                                                   fault):
        message = ("every rank once" if fault == "repeated_rank" else
                   "is not a C-order int32 .npy array of shape (60, 60)")
        cfg = full_config("o", cache=True)
        cfg["stages"] = cfg["stages"][:3]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 0
        # without its pair entries the rerun reads the rank entries
        for pair in (tmp_path / "o" / ".cache").glob("pair_*.npy"):
            pair.unlink()
        entry = sorted((tmp_path / "o" / ".cache").glob("ranks_*.npy"))[0]
        ranks = np.load(entry)
        if fault == "repeated_rank":
            ranks[37, ranks[37] == 2] = 1  # rank 1 twice, rank 2 missing
            np.save(entry, ranks)
        elif fault == "rows_cut_short":  # the header intact, the last row gone
            entry.write_bytes(entry.read_bytes()[:-4 * 60])
        elif fault == "empty":
            entry.write_bytes(b"")
        elif fault == "not_npy":
            entry.write_bytes(b"id,dim1,dim2\n" * 100)
        elif fault == "int64":
            np.save(entry, ranks.astype(np.int64))
        elif fault == "wrong_n":
            np.save(entry, ranks[:59, :59])
        else:
            np.save(entry, np.asfortranarray(ranks))
        capsys.readouterr()
        assert main(["pipeline", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert entry.name in err[0] and message in err[0], err[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("fault, message", [
        ("out_of_range", "ranks must lie in 0 .. 59"),
        ("diagonal", "rank diagonal must be zero"),
        ("repeated", "every rank once"),
    ])
    def test_corrupt_later_block_is_one_error_line(self, tmp_path, capsys,
                                                   monkeypatch, block_rows,
                                                   fault, message):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * 60)
        cfg = full_config("o", cache=True)
        cfg["stages"] = cfg["stages"][:3]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 0
        for pair in (tmp_path / "o" / ".cache").glob("pair_*.npy"):
            pair.unlink()
        entry = sorted((tmp_path / "o" / ".cache").glob("ranks_*.npy"))[-1]
        ranks = np.load(entry)
        row = 52  # past the first block at either size
        if fault == "out_of_range":
            ranks[row, ranks[row] == 59] = 60
        elif fault == "diagonal":
            ranks[row, ranks[row] == 1] = 0
            ranks[row, row] = 1
        else:
            ranks[row, ranks[row] == 2] = 1
        np.save(entry, ranks)
        capsys.readouterr()
        assert main(["pipeline", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert entry.name in err[0] and message in err[0], err[0]
        assert "Traceback" not in captured.err

    def test_warm_run_reads_every_rank_from_the_cache(self, tmp_path,
                                                      monkeypatch):
        cfg = full_config("o", cache=True)
        run(cfg, tmp_path)
        cold = tree_hashes(tmp_path / "o")

        def no_ranking(*args):
            raise AssertionError("ranked although every entry is cached")

        monkeypatch.setattr(geometry, "_rank_rows", no_ranking)
        run(cfg, tmp_path)
        assert tree_hashes(tmp_path / "o") == cold

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_cache_entries_take_the_umask(self, tmp_path, monkeypatch,
                                          umask):
        """Rank and pair entries get 0666 less the umask, as the other
        files of a run do, and a warm rerun reads them."""
        cfg = full_config("o", cache=True)
        old = os.umask(umask)
        try:
            run(cfg, tmp_path)
        finally:
            os.umask(old)
        cache = tmp_path / "o" / ".cache"
        modes = {p.name.split("_")[0]: p.stat().st_mode & 0o777
                 for p in cache.iterdir()}
        assert modes == {"ranks": 0o666 & ~umask, "pair": 0o666 & ~umask}
        assert (tmp_path / "o" / "scores.csv").stat().st_mode & 0o777 == (
            0o666 & ~umask)
        cold, entries = tree_hashes(tmp_path / "o"), entry_stats(cache)

        def no_ranking(*args):
            raise AssertionError("ranked although every entry is cached")

        monkeypatch.setattr(geometry, "_rank_rows", no_ranking)
        run(cfg, tmp_path)
        assert tree_hashes(tmp_path / "o") == cold
        assert entry_stats(cache) == entries

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_warm_run_parses_no_header(self, tmp_path, monkeypatch, threads):
        """A warm run reads its cache entries without parsing a ``.npy``
        header, which numpy does with ``ast.literal_eval``."""
        monkeypatch.setenv("DRQA_THREADS", threads)
        cfg = full_config("o", cache=True)
        run(cfg, tmp_path)
        cold = tree_hashes(tmp_path / "o")
        entries = {p.name: p.read_bytes()
                   for p in (tmp_path / "o" / ".cache").iterdir()}

        def no_parse(*args, **kwargs):
            raise AssertionError("a warm run parsed a header")

        monkeypatch.setattr(ast, "literal_eval", no_parse)
        run(cfg, tmp_path)
        assert tree_hashes(tmp_path / "o") == cold
        assert {p.name: p.read_bytes()
                for p in (tmp_path / "o" / ".cache").iterdir()} == entries

    def test_different_seed_changes_outputs(self, tmp_path):
        run(full_config("a", seed=1), tmp_path)
        run(full_config("b", seed=2), tmp_path)
        ha = tree_hashes(tmp_path / "a")
        hb = tree_hashes(tmp_path / "b")
        assert ha != hb


def entry_stats(cache):
    """Name -> (bytes, st_mtime_ns) of every cache entry."""
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(cache.iterdir())}


def agree_config(out_dir, b=("emb_pca",), **agree):
    """One generated artifact, two embeddings of it, one agree stage."""
    return {"version": 1, "seed": 11, "out_dir": out_dir, "cache": True,
            "scores": "scores.csv", "stages": [
                {"kind": "generate", "name": "data",
                 "shape": "sphere_random", "n": 60},
                {"kind": "reduce", "name": "emb", "source": "data",
                 "methods": ["pca", "smacof"], "target_dim": 2},
                {"kind": "agree", "name": "agr", "a": "data", "b": list(b),
                 "per_item": True, "range_k": [1, 20], **agree}]}


def read_pair_entry(path):
    """The sums and the per-item counts of a pair entry."""
    with path.open("rb") as f:
        return np.lib.format.read_array(f), np.lib.format.read_array(f)


def write_pair_entry(path, *arrays):
    with path.open("wb") as f:
        for a in arrays:
            np.lib.format.write_array(f, a)


class TestPairCache:
    """With ``cache`` on, each compared pair's overlap counts are kept in
    a pair entry that later runs read before any rank."""

    def count_spy(self, monkeypatch):
        """The pairs and rank sources of every counting pass, and the
        artifacts whose rank blocks came from an entry or were ranked."""
        seen = {"pairs": [], "sources": [], "blocks": set()}
        count, block = pipeline._count_overlaps, geometry._RankRows.block

        def spied_count(sources, pairs, n):
            seen["pairs"].append(sorted(pairs))
            seen["sources"].append(sorted(sources))
            count(sources, pairs, n)

        def spied_block(self, start, stop):
            seen["blocks"].add((self.name, self.cached))
            return block(self, start, stop)

        monkeypatch.setattr(pipeline, "_count_overlaps", spied_count)
        monkeypatch.setattr(geometry._RankRows, "block", spied_block)
        return seen

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_warm_rerun_reads_no_rank_row(self, tmp_path, monkeypatch,
                                          threads):
        monkeypatch.setenv("DRQA_THREADS", threads)
        cfg = full_config("o", cache=True)
        run(cfg, tmp_path)
        cold = tree_hashes(tmp_path / "o")
        cache = tmp_path / "o" / ".cache"
        entries = entry_stats(cache)
        assert sorted(name.split("_")[0] for name in entries) == (
            ["pair"] * 2 + ["ranks"] * 3)
        opened = []

        def no_rank_entry(self, *args, **kwargs):
            opened.append(args)
            raise AssertionError("a rank entry was opened")

        def no_rows(self, start, stop):
            raise AssertionError("a rank row was read")

        monkeypatch.setattr(geometry._RankRows, "__init__", no_rank_entry)
        monkeypatch.setattr(geometry._RankRows, "block", no_rows)
        run(cfg, tmp_path)
        assert opened == []
        assert tree_hashes(tmp_path / "o") == cold
        assert entry_stats(cache) == entries

    def test_added_map_counts_only_the_new_pair(self, tmp_path,
                                                monkeypatch):
        run(agree_config("first"), tmp_path)
        cache = tmp_path / "o" / ".cache"
        shutil.copytree(tmp_path / "first" / ".cache", cache)
        before = entry_stats(cache)
        assert sorted(name.split("_")[0] for name in before) == [
            "pair", "ranks", "ranks"]
        seen = self.count_spy(monkeypatch)
        cfg = agree_config("o", b=("emb_pca", "emb_smacof"))
        run(cfg, tmp_path)
        assert seen["pairs"] == [[("data", "emb_smacof")]]
        assert seen["sources"] == [["data", "emb_smacof"]]
        # the survey's ranks come from its entry; the new map is ranked
        assert seen["blocks"] == {("data", True), ("emb_smacof", False)}
        after = entry_stats(cache)
        assert {name: after[name] for name in before} == before
        assert sorted(name.split("_")[0] for name in set(after) - set(
            before)) == ["pair", "ranks"]
        run({**cfg, "out_dir": "cold", "cache": False}, tmp_path)
        assert tree_hashes(tmp_path / "o") == tree_hashes(tmp_path / "cold")

    @pytest.mark.parametrize("change", [{"range_k": [1, 10]},
                                        {"range_k": [2, 20]},
                                        {"per_item": False}])
    def test_changed_columns_miss(self, tmp_path, monkeypatch, change):
        run(agree_config("first"), tmp_path)
        cache = tmp_path / "o" / ".cache"
        shutil.copytree(tmp_path / "first" / ".cache", cache)
        before = entry_stats(cache)
        seen = self.count_spy(monkeypatch)
        cfg = agree_config("o", **change)
        run(cfg, tmp_path)
        assert seen["pairs"] == [[("data", "emb_pca")]]
        # both artifacts' ranks come from their entries
        assert seen["blocks"] == {("data", True), ("emb_pca", True)}
        after = entry_stats(cache)
        assert {name: after[name] for name in before} == before
        new = set(after) - set(before)
        assert len(new) == 1 and new.pop().startswith("pair_")
        run({**cfg, "out_dir": "cold", "cache": False}, tmp_path)
        assert tree_hashes(tmp_path / "o") == tree_hashes(tmp_path / "cold")

    def test_pairs_with_z_are_cached(self, tmp_path, monkeypatch):
        cfg = agree_config("o", z="emb_smacof")
        run(cfg, tmp_path)
        cold = tree_hashes(tmp_path / "o")
        assert "agr_partial.csv" in cold
        cache = tmp_path / "o" / ".cache"
        entries = entry_stats(cache)
        # (data, emb_pca) with per-item counts, (data, z) and (emb_pca, z)
        assert sorted(name.split("_")[0] for name in entries) == (
            ["pair"] * 3 + ["ranks"] * 3)
        seen = self.count_spy(monkeypatch)
        run(cfg, tmp_path)
        assert seen == {"pairs": [], "sources": [], "blocks": set()}
        assert tree_hashes(tmp_path / "o") == cold
        assert entry_stats(cache) == entries

    def test_entries_under_another_rank_name_are_not_read(self, tmp_path,
                                                          monkeypatch):
        """Entries made by code whose rank bits have another name, or none,
        are misses: the run writes what an uncached run writes and new
        entries, and leaves the foreign ones as they are."""
        n = 30
        rng = np.random.default_rng(5)
        values = np.array([0.1, 0.3, 0.7, 1.1, 1.9])
        mask = rng.random((n, 12)) > 0.1
        mask[:, 0] = True
        configs = {"survey": Configuration(
            values[rng.integers(0, 5, (n, 12))], mask=mask),
            "map": Configuration(rng.standard_normal((n, 2)))}
        stage = AgreeStage("fit", "survey", ("map",), per_item=True,
                           range_k=(1, 5))

        def agree(cache):
            runner = StageRunner(tmp_path, cache_dir=cache, targets={
                "fit.csv": None, "fit_items.csv": None})
            runner.configurations.update(configs)
            runner.run(stage)
            return (runner.profiles["fit"].ar.tobytes(),
                    runner.per_item["fit"][1].tobytes())

        uncached = agree(None)
        cache = tmp_path / "cache"
        cache.mkdir()
        # entries named as before the rank bits had a name, holding valid
        # ranks of other items
        other = ranks_from_config(Configuration(
            rng.standard_normal((n, 3)))).ranks
        for config in configs.values():
            digest = hashlib.sha256(repr(config.items.shape).encode())
            digest.update(config.items.tobytes())
            if config.mask is not None:
                digest.update(config.mask.tobytes())
            np.save(cache / f"ranks_{digest.hexdigest()[:24]}.npy", other)
        # and entries under rank bits named 1, none of them readable
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_RANK_BITS", 1)
            assert agree(cache) == uncached
        for path in cache.glob("*_v1_*.npy"):
            path.write_bytes(b"not an entry")
        foreign = entry_stats(cache)
        assert len(foreign) == 5
        assert agree(cache) == uncached
        after = entry_stats(cache)
        assert {name: after[name] for name in foreign} == foreign
        assert sorted(name.split("_")[:2] for name in set(after) - set(
            foreign)) == [["pair", f"v{geometry._RANK_BITS}"],
                          ["ranks", f"v{geometry._RANK_BITS}"],
                          ["ranks", f"v{geometry._RANK_BITS}"]]

    PAIR_FAULTS = {
        "cut_short": "is not an int64 .npy vector of length 59 and an int32 "
                     ".npy array of shape (60, 20)",
        "empty": "is not an int64 .npy vector",
        "not_npy": "is not an int64 .npy vector",
        "wrong_n": "is not an int64 .npy vector",
        "wrong_head_width": "is not an int64 .npy vector",
        "int32_sums": "is not an int64 .npy vector",
        "last_sum": ": the last sum is not n(n - 1) = 3540",
        "head_above_k": ": a per-item count of k lies outside 0 .. k",
        "head_column": ": a per-item column does not sum to the total of "
                       "its k",
    }

    @pytest.mark.parametrize("fault", PAIR_FAULTS)
    def test_corrupt_pair_entry_is_one_error_line(self, tmp_path, capsys,
                                                  fault):
        cfg = full_config("o", cache=True)
        cfg["stages"] = cfg["stages"][:3]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 0
        entry = sorted((tmp_path / "o" / ".cache").glob("pair_*.npy"))[0]
        sums, head = read_pair_entry(entry)
        if fault == "cut_short":
            entry.write_bytes(entry.read_bytes()[:-4])
        elif fault == "empty":
            entry.write_bytes(b"")
        elif fault == "not_npy":
            entry.write_bytes(b"id,dim1,dim2\n" * 100)
        elif fault == "wrong_n":  # the entry of 59 items
            write_pair_entry(entry, sums[1:], head[1:])
        elif fault == "wrong_head_width":
            write_pair_entry(entry, sums, head[:, :-1])
        elif fault == "int32_sums":
            write_pair_entry(entry, sums.astype(np.int32), head)
        elif fault == "last_sum":
            sums[-1] -= 1
            write_pair_entry(entry, sums, head)
        elif fault == "head_above_k":  # k = 1 allows 0 or 1
            head[7, 0] = 2
            write_pair_entry(entry, sums, head)
        else:  # within 0 .. k, but the column no longer sums to its total
            i = np.flatnonzero(head[:, 10])[0]
            head[i, 10] -= 1
            write_pair_entry(entry, sums, head)
        capsys.readouterr()
        assert main(["pipeline", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"pair cache entry {entry.name} for 'data' and " in err[0]
        assert self.PAIR_FAULTS[fault] in err[0], err[0]
        assert "Traceback" not in captured.err


def naive_masked_neighbors(x, mask):
    """Neighbor lists of integer data by the squared distance over the
    columns both items observe, ties by item index."""
    n = len(x)
    out = []
    for i in range(n):
        cand = []
        for j in range(n):
            if j != i:
                shared = mask[i] & mask[j]
                cand.append((int(((x[i] - x[j])[shared] ** 2).sum()), j))
        cand.sort()
        out.append([j for _, j in cand])
    return out


def survey_and_map(kind, n, rng):
    """(survey items, 2-D map) with many tied distances."""
    if kind == "ties":
        x = rng.integers(1, 4, (n, 3)).astype(float)
    else:  # duplicates: every survey row appears three times
        x = np.repeat(rng.integers(1, 6, ((n + 2) // 3, 3)), 3,
                      axis=0)[:n].astype(float)
    return x, rng.integers(0, 3, (n, 2)).astype(float)


class TestStreamedAgree:
    """The agree stage's single blocked pass against the naive oracle."""

    N = 13

    @pytest.mark.parametrize("kind", ["ties", "duplicates", "masked"])
    def test_rates_match_oracle_for_every_block_size(self, tmp_path,
                                                     monkeypatch, kind):
        n, lo, hi = self.N, 2, 7
        rng = np.random.default_rng(17)
        runner = StageRunner(tmp_path, imputation="none")
        if kind == "masked":
            x = rng.integers(1, 6, (n, 4))
            mask = rng.random((n, 4)) > 0.3
            mask[:, 0] = True
            cells = [[str(v) if ok else "NA" for v, ok in zip(row, keep)]
                     for row, keep in zip(x, mask)]
            (tmp_path / "survey.csv").write_text(
                "a,b,c,d\n" + "".join(",".join(r) + "\n" for r in cells))
            runner.ingest(IngestStage("survey", str(tmp_path / "survey.csv")))
            assert runner.configurations["survey"].mask is not None
            nbrs_a = naive_masked_neighbors(x, mask)
            coords = rng.integers(0, 3, (n, 2)).astype(float)
        else:
            x, coords = survey_and_map(kind, n, rng)
            runner.configurations["survey"] = Configuration(x)
            nbrs_a = naive_neighbors(x)
        runner.configurations["map"] = Configuration(coords)
        nbrs_b = naive_neighbors(coords)
        ar, _ = naive_profile(nbrs_a, nbrs_b)
        k = np.arange(lo, hi + 1)
        rates = naive_overlap_counts(nbrs_a, nbrs_b)[:, lo - 1:hi] / k

        for block_rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            runner.agree(AgreeStage("s", "survey", ("map",), per_item=True,
                                    range_k=(lo, hi)))
            assert (runner.profiles["s"].ar == ar).all()
            ks, matrix, _ = runner.per_item["s"]
            assert ks == tuple(k)
            assert (matrix == rates).all()

    def test_threaded_pass_matches_serial_and_oracle(self, tmp_path,
                                                     monkeypatch):
        """Every worker count and block size gives the rates, partial
        agreements and cache file bytes of one worker and of the oracle."""
        n, lo, hi = self.N, 2, 7
        rng = np.random.default_rng(23)
        x, coords = survey_and_map("ties", n, rng)
        configs = {"survey": Configuration(x), "map": Configuration(coords),
                   "z": Configuration(rng.integers(0, 3, (n, 2)))}
        nbrs = {name: naive_neighbors(c.items) for name, c in configs.items()}
        ar, _ = naive_profile(nbrs["survey"], nbrs["map"])
        k = np.arange(lo, hi + 1)
        rates = naive_overlap_counts(nbrs["survey"], nbrs["map"])[
            :, lo - 1:hi] / k
        psis = [psi(AgreementProfile(naive_profile(nbrs[a], nbrs[b])[0]))
                for a, b in (("survey", "map"), ("survey", "z"), ("map", "z"))]
        stage = AgreeStage("s", "survey", ("map",), z="z", per_item=True,
                           range_k=(lo, hi))

        def agree(threads, block_rows):
            monkeypatch.setattr(geometry, "_BLOCK_CELLS", block_rows * n)
            monkeypatch.setenv("DRQA_THREADS", threads)
            cache = tmp_path / f"cache-{threads}-{block_rows}"
            runner = StageRunner(tmp_path, cache_dir=cache,
                                 targets={"s.csv": None, "s_items.csv": None,
                                          "s_partial.csv": None})
            runner.configurations.update(configs)
            runner.run(stage)
            files = {p.name: p.read_bytes() for p in cache.iterdir()}
            return (runner.profiles["s"].ar.tobytes(),
                    runner.per_item["s"][1].tobytes(),
                    runner.partials["s"], files)

        serial = agree("1", n)
        assert serial[:3] == (ar.tobytes(), rates.tobytes(),
                              (*psis, partial_agreement(*psis)))
        # a rank entry per artifact, a pair entry per compared pair
        assert sorted(name.split("_")[0] for name in serial[3]) == (
            ["pair"] * 3 + ["ranks"] * 3)
        assert all(name.endswith(".npy") for name in serial[3])
        for threads in ("1", "2", "3"):
            for block_rows in range(1, n + 1):
                assert agree(threads, block_rows) == serial

    def test_failed_block_leaves_no_cache_file(self, tmp_path, monkeypatch):
        """One source raises on its second block while another is still
        writing its cache: the pass waits for that block, and neither
        source leaves a ``.npy`` or a ``.tmp``."""
        n = 12
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 4 * n)
        block, close = geometry._RankRows.block, geometry._RankRows.close
        events = []
        b_ranking = threading.Event()

        def failing_block(self, start, stop):
            if start > 0 and self.name == "b":
                b_ranking.set()
                time.sleep(0.1)  # still ranking when a's block fails
            if start > 0 and self.name == "a":
                assert b_ranking.wait(timeout=10)
                raise OSError("disk full")
            rows = block(self, start, stop)
            events.append(("block", self.name, start))
            return rows

        def recorded_close(self, complete):
            events.append(("close", self.name, complete))
            close(self, complete)

        monkeypatch.setattr(geometry._RankRows, "block", failing_block)
        monkeypatch.setattr(geometry._RankRows, "close", recorded_close)
        rng = np.random.default_rng(8)
        monkeypatch.setenv("DRQA_THREADS", "2")
        cache = tmp_path / ".cache"
        runner = StageRunner(tmp_path, cache_dir=cache)
        for name in ("a", "b"):
            runner.configurations[name] = Configuration(
                rng.standard_normal((n, 2)))
        with pytest.raises(OSError, match="disk full"):
            runner.run(AgreeStage("s", "a", ("b",)))
        assert list(cache.iterdir()) == []
        assert list(tmp_path.glob("*.csv")) == []
        closes = [i for i, event in enumerate(events) if event[0] == "close"]
        assert sorted(events[i][1] for i in closes) == ["a", "b"]
        assert all(not events[i][2] for i in closes)
        # b ranked its second block, which ran beside a's failing one,
        # before any source was closed
        assert ("block", "b", 2) in events[:closes[0]]

    def test_holds_no_dense_array(self, tmp_path, monkeypatch):
        """Blocks of 16 rows at n = 1500: the stage's peak allocation stays
        below one dense int32 rank structure (4·n² bytes)."""
        n = 1500
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 16 * n)
        rng = np.random.default_rng(3)
        runner = StageRunner(tmp_path)
        runner.configurations["survey"] = Configuration(
            rng.integers(1, 6, (n, 12)).astype(float))
        maps = ("m0", "m1", "m2")
        for name in maps:
            runner.configurations[name] = Configuration(
                rng.standard_normal((n, 2)))
        stage = AgreeStage("fit", "survey", maps, per_item=True,
                           range_k=(1, 10))
        tracemalloc.start()
        try:
            runner.agree(stage)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n
        assert runner.per_item["fit:m2"][1].shape == (n, 10)


class TestPerItemFromCounts:
    """The agree stage writes its per-item files from integer overlap
    counts: the bytes the float writer gives for ``counts / k``."""

    N = 19

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("kind, range_k", [
        ("distinct", (3, 11)),  # starts above k = 1
        ("ties", None),         # the full range 1 .. n - 1
    ])
    def test_files_equal_the_float_writer(self, tmp_path, monkeypatch,
                                          threads, kind, range_k):
        monkeypatch.setenv("DRQA_THREADS", threads)
        n = self.N
        rng = np.random.default_rng(41)
        if kind == "ties":
            survey = rng.integers(1, 4, (n, 3)).astype(float)
            maps = [rng.integers(0, 3, (n, 2)).astype(float)
                    for _ in range(3)]
        else:
            survey = rng.standard_normal((n, 4))
            maps = [survey[:, :2] + s * rng.standard_normal((n, 2))
                    for s in (0.1, 0.5, 2.0)]
        # ids that csv quoting must handle, and a few that need none
        labels = tuple(f'r{i},"{i}"' if i % 4 else f"r{i}" for i in range(n))
        out = tmp_path / "out"
        out.mkdir()
        runner = StageRunner(out)
        names = tuple(f"m{j}" for j in range(len(maps)))
        runner.configurations["survey"] = Configuration(survey, labels=labels)
        for name, coords in zip(names, maps):
            runner.configurations[name] = Configuration(coords, labels=labels)
        lo, hi = range_k or (1, n - 1)
        runner.run(AgreeStage("fit", "survey", names, per_item=True,
                              range_k=range_k))

        ks = tuple(range(lo, hi + 1))
        nbrs_a = naive_neighbors(survey)
        for name in names:
            counts = naive_overlap_counts(
                nbrs_a, naive_neighbors(runner.configurations[name].items))
            rates = counts[:, lo - 1:hi] / np.array(ks)
            write_per_item(ks, rates, tmp_path / "want.csv", labels=labels)
            got = (out / f"fit_{name}_items.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            assert runner.per_item[f"fit:{name}"][1].tobytes() == (
                rates.tobytes())


class TestScores:
    def test_score_table_contents(self, tmp_path):
        run(full_config("o"), tmp_path)
        lines = (tmp_path / "o" / "scores.csv").read_text().splitlines()
        assert lines[0] == ("technique,params,k_range,mean_agreement,"
                            "psi,psi_weighted")
        assert len(lines) == 3
        first = lines[1].split(",", 1)
        assert first[0] == "pca"
        assert '""dataset"":""data""' in first[1] or '"dataset"' in first[1]
        assert all(ln.split(",")[-4].endswith("1-20") for ln in lines[1:])

    def test_duplicate_rows_rejected(self):
        row = ScoreRow("pca", {"dataset": "d"}, "1-9", 0.5, 0.4, 0.3)
        with pytest.raises(ValueError, match="duplicate"):
            ScoreTable((row, row))

    def test_duplicate_rows_rejected_at_parse_time(self, tmp_path):
        """Two agree stages that would write the same score row fail before
        any stage runs, and the error names both."""
        cfg = {"version": 1, "out_dir": "o", "scores": "scores.csv",
               "stages": [
                   {"kind": "generate", "name": "d", "shape": "sphere_random",
                    "n": 20},
                   {"kind": "reduce", "name": "r", "source": "d",
                    "method": "pca", "target_dim": 2},
                   {"kind": "agree", "name": "first", "a": "d", "b": "r",
                    "range_k": [1, 5]},
                   {"kind": "agree", "name": "second", "a": "d",
                    "b": ["d", "r"], "range_k": [1, 5]}]}
        with pytest.raises(ValueError, match="^stage 3 \\(agree\\): agree "
                           "stages 'first' and 'second' both score 'r' "
                           "against 'd' over the same range_k$"):
            parse_config(cfg, tmp_path)
        cfg["stages"][3]["range_k"] = [1, 6]
        parse_config(cfg, tmp_path)
        # an omitted range_k means [1, n-1], which only a run can know
        del cfg["stages"][2]["range_k"]
        cfg["stages"][3]["range_k"] = [1, 19]
        with pytest.raises(ValueError, match="^duplicate score row"):
            run(cfg, tmp_path)
        del cfg["scores"]  # without a score table both may run
        cfg["stages"][2]["range_k"] = [1, 19]
        run(cfg, tmp_path)

    def test_load_config_resolves_relative_paths(self, tmp_path):
        (tmp_path / "raw.csv").write_text("x,y\n1,2\n3,4\n5,6\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1, "out_dir": "res", "stages": [
                {"kind": "ingest", "name": "d", "path": "raw.csv"}]}))
        entries = run_pipeline(load_config(cfg_path))
        assert entries == [ManifestEntry("d.csv", "d", None)]
        assert (tmp_path / "res" / "d.csv").exists()
