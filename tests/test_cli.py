"""End-to-end runs of every subcommand through the console entry point."""

import copy
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drqa import _workers, pipeline
from drqa.cli import main
from drqa.dimred import local_smacof
from drqa.geometry import euclidean_distances
from drqa.ingest import ingest_csv, read_profile
from drqa.pipeline import parse_config, run_pipeline


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    assert run_cli("generate", "--shape", "sphere_random", "--n", "40",
                   "--seed", "5", "--out", str(path)) == 0
    return path


class TestGenerate:
    def test_writes_configuration(self, dataset):
        c = ingest_csv(dataset)
        assert c.n == 40 and c.m == 3

    def test_params_forwarded(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("generate", "--shape", "sphere_random", "--n", "30",
                       "--params", '{"radius": 5.0}', "--out", str(out)) == 0
        c = ingest_csv(out)
        assert np.linalg.norm(c.items, axis=1) == pytest.approx(5.0, abs=1e-9)

    def test_bad_params_fail(self, tmp_path, capsys):
        code = run_cli("generate", "--shape", "sphere_random", "--n", "30",
                       "--params", '{"bogus": 1}',
                       "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_identical_seeds_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli("generate", "--shape", "torus_random", "--n", "25",
                    "--seed", "9", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB", "error: out of memory: Unable to "
         "allocate 7.28 TiB"),
        ("", "error: out of memory")], ids=["message", "bare"])
    def test_out_of_memory_is_one_error_line(self, message, line, tmp_path,
                                             monkeypatch, capsys):
        """A single-step command re-raises a stage's MemoryError, which
        the console entry point reports as one line."""
        def exhausted(spec):
            raise MemoryError(message)

        monkeypatch.setattr(pipeline, "generate", exhausted)
        out = tmp_path / "x.csv"
        assert run_cli("generate", "--shape", "swiss_roll", "--n", "20",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [line]
        assert not out.exists()


class TestIngestCommand:
    def test_impute_flag(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("x,y\n1,2\nNA,4\n5,6\n")
        out = tmp_path / "clean.csv"
        assert run_cli("ingest", "--in", str(raw), "--out", str(out),
                       "--impute") == 0
        c = ingest_csv(out)
        assert c.fully_observed
        assert c.items[1, 0] == pytest.approx(3.0)

    def test_headerless(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("1,2\n3,4\n")
        out = tmp_path / "o.csv"
        assert run_cli("ingest", "--in", str(raw), "--out", str(out),
                       "--no-header") == 0
        assert ingest_csv(out).n == 2


#: Laplacian eigenmaps parameters that the unit square's four corners
#: cannot be embedded with, and the error each gives.
BAD_SQUARE_REDUCTIONS = [
    ({"n_neighbors": 2, "t": 1e-300},
     "heat kernel t = 1e-300 disconnects the neighborhood graph; raise t: "
     "4 components of sizes [1, 1, 1, 1]"),
    ({"n_neighbors": 2, "t": 0}, "kernel parameter t must be positive, got 0"),
    ({"n_neighbors": 4}, "n_neighbors must lie in 1 .. 3, got 4"),
]


class TestReduce:
    def test_pca(self, dataset, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli("reduce", "--method", "pca", "--dim", "2",
                       "--in", str(dataset), "--out", str(out)) == 0
        emb = ingest_csv(out)
        assert emb.n == 40 and emb.m == 2

    def test_transform_flag(self, dataset, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli("reduce", "--method", "smacof", "--dim", "2",
                       "--in", str(dataset), "--out", str(out),
                       "--transform", "ordinal") == 0
        assert ingest_csv(out).m == 2

    def test_local_smacof_takes_the_smacof_options(self, dataset, tmp_path):
        out = tmp_path / "emb.csv"
        params = {"quantile": 0.5, "transform": "ordinal", "max_iter": 3,
                  "tol": 0.001, "seed": 3, "init": "random"}
        assert run_cli("reduce", "--method", "local_smacof", "--dim", "2",
                       "--in", str(dataset), "--out", str(out),
                       "--params", json.dumps(params)) == 0
        want = local_smacof(euclidean_distances(ingest_csv(dataset)), 2,
                            **params)
        assert want.diagnostics["init"] == "random"
        assert (ingest_csv(out).items == want.embedding.items).all()

    @pytest.mark.parametrize("params, message", [
        ({"max_iter": "5"}, "max_iter has the wrong type: '5'"),
        ({"tol": [1]}, "tol has the wrong type: [1]"),
        ({"transform": 1}, "transform has the wrong type: 1"),
        ({"init": None}, "init has the wrong type: None"),
        ({"seed": None}, "seed has the wrong type: None"),
        ({"seed": 1.5}, "seed has the wrong type: 1.5"),
    ])
    def test_bad_local_smacof_option_is_one_error_line(self, dataset, tmp_path,
                                                       capsys, params,
                                                       message):
        out = tmp_path / "emb.csv"
        assert run_cli("reduce", "--method", "local_smacof", "--dim", "2",
                       "--in", str(dataset), "--out", str(out),
                       "--params", json.dumps(params)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: reduce: params for local_smacof: {message}"]
        assert not out.exists()

    def test_transform_rejected_for_pca(self, dataset, tmp_path, capsys):
        code = run_cli("reduce", "--method", "pca", "--dim", "2",
                       "--in", str(dataset), "--out", str(tmp_path / "e.csv"),
                       "--transform", "ordinal")
        assert code == 1
        assert "transform" in capsys.readouterr().err

    def test_n_neighbors_flag(self, dataset, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli("reduce", "--method", "isomap", "--dim", "2",
                       "--in", str(dataset), "--out", str(out),
                       "--n-neighbors", "8") == 0
        assert ingest_csv(out).m == 2

    @pytest.mark.parametrize("method", ["isomap", "lle", "laplacian_eigenmaps"])
    def test_missing_n_neighbors_fails(self, method, dataset, tmp_path, capsys):
        out = tmp_path / "emb.csv"
        code = run_cli("reduce", "--method", method, "--dim", "1",
                       "--in", str(dataset), "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1, err
        assert err[0] == (f"error: reduce: params for {method}: "
                          "missing required key 'n_neighbors'")
        assert not out.exists()

    @pytest.mark.parametrize("params, message", BAD_SQUARE_REDUCTIONS,
                             ids=["underflowing_kernel", "zero_t",
                                  "too_many_neighbors"])
    def test_bad_input_is_one_error_line(self, params, message, tmp_path,
                                         capsys):
        """Laplacian eigenmaps of the unit square's corners, with inputs
        it cannot embed: status 1, one ``error:`` line and no output."""
        square = tmp_path / "square.csv"
        square.write_text("x,y\n0,0\n1,0\n0,1\n1,1\n")
        out = tmp_path / "emb.csv"
        code = run_cli("reduce", "--method", "laplacian_eigenmaps", "--dim",
                       "1", "--params", json.dumps(params),
                       "--in", str(square), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestAgree:
    def test_profile_and_per_item(self, dataset, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        run_cli("reduce", "--method", "pca", "--dim", "2",
                "--in", str(dataset), "--out", str(emb))
        prof_path = tmp_path / "prof.csv"
        assert run_cli("agree", "--a", str(dataset), "--b", str(emb),
                       "--out", str(prof_path), "--per-item") == 0
        out = capsys.readouterr().out
        assert "psi = " in out
        prof = read_profile(prof_path)
        assert prof.n == 40
        items = tmp_path / "prof_items.csv"
        assert items.exists()

    def test_partial_with_z(self, dataset, tmp_path, capsys):
        emb1 = tmp_path / "e1.csv"
        emb2 = tmp_path / "e2.csv"
        run_cli("reduce", "--method", "pca", "--dim", "2",
                "--in", str(dataset), "--out", str(emb1))
        run_cli("reduce", "--method", "lle", "--dim", "2",
                "--in", str(dataset), "--out", str(emb2),
                "--n-neighbors", "6")
        assert run_cli("agree", "--a", str(dataset), "--b", str(emb1),
                       "--z", str(emb2), "--out", str(tmp_path / "p.csv")) == 0
        assert "partial agreement given z" in capsys.readouterr().out

    def test_identity(self, dataset, tmp_path, capsys):
        assert run_cli("agree", "--a", str(dataset), "--b", str(dataset),
                       "--out", str(tmp_path / "p.csv")) == 0
        assert "psi = 1.0" in capsys.readouterr().out

    def test_obeys_drqa_threads(self, dataset, tmp_path, monkeypatch, capsys):
        """The agree pass runs on the ``DRQA_THREADS`` workers, one per CPU
        when unset or 0, and every count writes the same bytes; a bad value
        is one error line."""
        emb = tmp_path / "emb.csv"
        run_cli("reduce", "--method", "pca", "--dim", "2",
                "--in", str(dataset), "--out", str(emb))
        count_overlaps = pipeline._count_overlaps
        workers = []

        def recorded(*args):
            workers.append(_workers._pool().workers)
            count_overlaps(*args)

        monkeypatch.setattr(pipeline, "_count_overlaps", recorded)
        written = set()
        for threads in ("1", "2", "3", "0", None):
            if threads is None:
                monkeypatch.delenv("DRQA_THREADS", raising=False)
            else:
                monkeypatch.setenv("DRQA_THREADS", threads)
            out = tmp_path / "p.csv"
            assert run_cli("agree", "--a", str(dataset), "--b", str(emb),
                           "--out", str(out), "--per-item") == 0
            written.add((out.read_bytes(),
                         (tmp_path / "p_items.csv").read_bytes()))
        assert workers == [1, 2, 3, os.cpu_count(), os.cpu_count()]
        assert len(written) == 1
        capsys.readouterr()
        for threads, message in (("soon", "must be an integer"),
                                 ("-1", "must be >= 0")):
            monkeypatch.setenv("DRQA_THREADS", threads)
            assert run_cli("agree", "--a", str(dataset), "--b", str(emb),
                           "--out", str(tmp_path / "q.csv")) == 1
            assert capsys.readouterr().err == (
                f"error: DRQA_THREADS {message}\n")
            assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("per_item", [False, True])
    def test_failure_leaves_no_files(self, per_item, dataset, tmp_path, capsys):
        # psi(a, z) = 1 leaves partial agreement undefined, after the
        # profile has been written
        out = tmp_path / "p.csv"
        code = run_cli("agree", "--a", str(dataset), "--b", str(dataset),
                       "--z", str(dataset), "--out", str(out),
                       *(["--per-item"] if per_item else []))
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error:"), err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["data.csv"]

    def test_no_shared_column_names_the_file(self, tmp_path, capsys):
        """Two items of a raw export that answer no item in common are
        named with the file that holds them."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("id,x,y\na,1,NA\nb,NA,2\n")
        b.write_text("id,x,y\na,1,3\nb,2,2\n")
        code = run_cli("agree", "--a", str(a), "--b", str(b),
                       "--out", str(tmp_path / "p.csv"))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {a}: items 'a' and 'b' share no observed dimension"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv",
                                                               "b.csv"]

    @pytest.mark.parametrize("option", ["--b", "--z"])
    def test_mismatched_item_ids_fail(self, option, tmp_path, capsys):
        """A map whose rows list the items in another order is not scored
        row by row against the data."""
        data, emb, rev = (tmp_path / f for f in ("d.csv", "e.csv", "r.csv"))
        assert run_cli("generate", "--shape", "sphere_random", "--n", "12",
                       "--seed", "2", "--out", str(data)) == 0
        assert run_cli("reduce", "--method", "pca", "--dim", "2",
                       "--in", str(data), "--out", str(emb)) == 0
        header, *rows = emb.read_text().splitlines()
        rev.write_text("\n".join([header, *rows[::-1]]) + "\n")
        argv = {"--b": ["--b", str(rev)],
                "--z": ["--b", str(emb), "--z", str(rev)]}[option]
        capsys.readouterr()
        code = run_cli("agree", "--a", str(data), *argv,
                       "--out", str(tmp_path / "p.csv"), "--per-item")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: item ids of {str(rev)!r} do not "
                                f"match those of {str(data)!r}\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "d.csv", "e.csv", "r.csv"]


BAD_STYLES = [
    ({"width": float("nan")}, "width must be finite"),
    ({"height": float("inf")}, "height must be finite"),
    ({"azimuth": float("-inf")}, "azimuth must be finite"),
    ({"margin": -50}, "margin must not be negative"),
    ({"point_radius": -3}, "point_radius must not be negative"),
    ({"grid_resolution": 10 ** 6}, "grid_resolution must be at most 1000"),
]


class TestPlot:
    @pytest.mark.parametrize("plot_type, spec", [
        ("scatter", {"embeddings": ["emb.csv"]}),
        ("loess", {"embedding": "emb.csv"}),
        ("heatmap", {"order_by": "emb.csv"}),
    ], ids=["scatter", "loess", "heatmap_order_by"])
    def test_mismatched_item_ids_fail(self, plot_type, spec, good_files,
                                      tmp_path, monkeypatch, capsys):
        """Per-item rates of other items are not painted onto an
        embedding."""
        monkeypatch.chdir(tmp_path)
        for name, text in good_files.items():
            Path(name).write_text(text)
        header, *rows = good_files["p_items.csv"].splitlines()
        rows = [f"other{i}," + r.split(",", 1)[1]
                for i, r in enumerate(rows)][::-1]
        Path("o_items.csv").write_text("\n".join([header, *rows]) + "\n")
        for rates, code in (("p_items.csv", 0), ("o_items.csv", 1)):
            Path("spec.json").write_text(json.dumps(
                {**spec, "values": {"per_item": rates}}))
            assert run_cli("plot", "--type", plot_type, "--spec", "spec.json",
                           "--out", f"{rates}.svg") == code
        assert capsys.readouterr().err == (
            "error: item ids of embedding 'emb.csv' do not match those of "
            "per-item rates 'o_items.csv'\n")
        assert not Path("o_items.csv.svg").exists()

    def test_lift_from_profiles(self, dataset, tmp_path):
        emb = tmp_path / "emb.csv"
        run_cli("reduce", "--method", "pca", "--dim", "2",
                "--in", str(dataset), "--out", str(emb))
        prof = tmp_path / "prof.csv"
        run_cli("agree", "--a", str(dataset), "--b", str(emb),
                "--out", str(prof))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"profiles": {"pca": "prof.csv"}}))
        out = tmp_path / "fig.svg"
        assert run_cli("plot", "--type", "lift", "--spec", str(spec),
                       "--out", str(out)) == 0
        assert out.read_text().startswith("<?xml")

    def test_lift_profiles_sharing_a_stem_fail(self, dataset, tmp_path,
                                               monkeypatch, capsys):
        """A list names its profiles by file stem, so two entries with one
        stem, the same file twice included, are one error line; the
        mapping form draws a curve for each."""
        monkeypatch.chdir(tmp_path)
        for run_dir, dim in (("run1", "1"), ("run2", "2")):
            Path(run_dir).mkdir()
            emb = f"{run_dir}/emb.csv"
            assert run_cli("reduce", "--method", "pca", "--dim", dim,
                           "--in", str(dataset), "--out", emb) == 0
            assert run_cli("agree", "--a", str(dataset), "--b", emb,
                           "--out", f"{run_dir}/fit.csv") == 0
        capsys.readouterr()
        for profiles in (["run1/fit.csv", "run2/fit.csv"],
                         ["run1/fit.csv", "run1/fit.csv"]):
            Path("spec.json").write_text(json.dumps({"profiles": profiles}))
            assert run_cli("plot", "--type", "lift", "--spec", "spec.json",
                           "--out", "x.svg") == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: plot spec: profiles {profiles[0]!r} and "
                f"{profiles[1]!r} are both named 'fit'; name them with a "
                f'mapping {{"name": "file"}}']
            assert not Path("x.svg").exists()
        Path("spec.json").write_text(json.dumps(
            {"profiles": {"one": "run1/fit.csv", "two": "run2/fit.csv"}}))
        assert run_cli("plot", "--type", "lift", "--spec", "spec.json",
                       "--out", "fig.svg") == 0
        svg = Path("fig.svg").read_text()
        assert svg.count('class="curve"') == 2
        assert "one: all-k" in svg and "two: all-k" in svg

    def test_scatter_and_heatmap_and_loess(self, dataset, tmp_path):
        emb = tmp_path / "emb.csv"
        run_cli("reduce", "--method", "pca", "--dim", "2",
                "--in", str(dataset), "--out", str(emb))
        run_cli("agree", "--a", str(dataset), "--b", str(emb),
                "--out", str(tmp_path / "prof.csv"), "--per-item")
        scatter_spec = tmp_path / "s.json"
        scatter_spec.write_text(json.dumps({
            "embeddings": ["emb.csv"],
            "values": {"per_item": "prof_items.csv", "k": 3}}))
        assert run_cli("plot", "--type", "scatter", "--spec",
                       str(scatter_spec), "--out", str(tmp_path / "s.svg")) == 0
        heat_spec = tmp_path / "h.json"
        heat_spec.write_text(json.dumps({
            "values": {"per_item": "prof_items.csv"},
            "order_by": "emb.csv"}))
        assert run_cli("plot", "--type", "heatmap", "--spec",
                       str(heat_spec), "--out", str(tmp_path / "h.svg")) == 0
        loess_spec = tmp_path / "l.json"
        loess_spec.write_text(json.dumps({
            "embedding": "emb.csv",
            "values": {"per_item": "prof_items.csv"},
            "spec": {"style": {"grid_resolution": 8}}}))
        assert run_cli("plot", "--type", "loess", "--spec",
                       str(loess_spec), "--out", str(tmp_path / "l.svg")) == 0

    def test_short_profile_row_fails(self, tmp_path, capsys):
        (tmp_path / "prof.csv").write_text(
            "k,agreement,adjusted_agreement\n1\n")
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"profiles": ["prof.csv"]}))
        code = run_cli("plot", "--type", "lift", "--spec", str(spec),
                       "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: prof.csv:")

    def test_bad_k_columns_fail_naming_the_file(self, good_files, tmp_path,
                                                monkeypatch, capsys):
        """The k columns of a per-item file are integers of at least 1, in
        strictly increasing order."""
        monkeypatch.chdir(tmp_path)
        for name, text in good_files.items():
            Path(name).write_text(text)
        rows = [",".join(r.split(",")[:3])
                for r in good_files["p_items.csv"].splitlines()[1:]]
        for plot_type, spec, header in (
                ("scatter", {"embeddings": ["emb.csv"]}, "id,k=0,k=0"),
                ("heatmap", {}, "id,k=3,k=2")):
            Path("bad_items.csv").write_text("\n".join([header, *rows]) + "\n")
            Path("spec.json").write_text(json.dumps(
                {**spec, "values": {"per_item": "bad_items.csv"}}))
            assert run_cli("plot", "--type", plot_type, "--spec", "spec.json",
                           "--out", "x.svg") == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: bad_items.csv: k columns must be strictly increasing "
                "and >= 1"]
            assert not Path("x.svg").exists()

    def test_heatmap_takes_no_k(self, good_files, tmp_path, monkeypatch,
                                capsys):
        """A heatmap draws every stored k, so its values name no k."""
        monkeypatch.chdir(tmp_path)
        for name, text in good_files.items():
            Path(name).write_text(text)
        Path("spec.json").write_text(json.dumps(
            {"values": {"per_item": "p_items.csv", "k": 3}}))
        assert run_cli("plot", "--type", "heatmap", "--spec", "spec.json",
                       "--out", "x.svg") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: plot spec: values: unknown keys ['k']"]
        assert not Path("x.svg").exists()

    @pytest.mark.parametrize("style, message", BAD_STYLES,
                             ids=[m for _, m in BAD_STYLES])
    def test_bad_style_is_one_error_line(self, style, message, good_files,
                                         tmp_path, monkeypatch, capsys):
        """JSON's NaN and Infinity, a negative margin, a negative point
        radius and a loess grid too large to allocate are refused before
        anything is drawn."""
        monkeypatch.chdir(tmp_path)
        for name, text in good_files.items():
            Path(name).write_text(text)
        Path("spec.json").write_text(json.dumps(
            {"values": {"per_item": "p_items.csv"},
             "spec": {"style": style}}))
        assert run_cli("plot", "--type", "heatmap", "--spec", "spec.json",
                       "--out", "x.svg") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: plot spec: style: {message}"]
        assert not Path("x.svg").exists()

    def test_unknown_spec_key_fails(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"profiles": [], "zingers": 1}))
        code = run_cli("plot", "--type", "lift", "--spec", str(spec),
                       "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "zingers" in capsys.readouterr().err


class TestPipelineCommand:
    def test_runs_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "seed": 2, "out_dir": "res", "stages": [
                {"kind": "generate", "name": "d",
                 "shape": "sphere_regular", "n": 40},
                {"kind": "reduce", "name": "r", "source": "d",
                 "method": "pca", "target_dim": 2},
                {"kind": "agree", "name": "a", "a": "d", "b": "r"}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "manifest.json" in out
        assert (tmp_path / "res" / "a.csv").exists()

    @pytest.mark.parametrize("error, reason", [
        (MemoryError(), "out of memory"), (KeyError(), "KeyError"),
        (MemoryError("Unable to allocate 7.28 TiB"),
         "Unable to allocate 7.28 TiB")], ids=["memory", "bare", "message"])
    def test_failed_stage_names_a_reason(self, error, reason, tmp_path,
                                         monkeypatch, capsys):
        """A stage that raises an exception without a message, as the
        interpreter raises ``MemoryError``, still ends its one error line
        with a reason."""
        def fails(spec):
            raise error

        monkeypatch.setattr(pipeline, "generate", fails)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "out_dir": "res", "stages": [
                {"kind": "generate", "name": "d", "shape": "swiss_roll",
                 "n": 20}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            f"error: stage 'd' (generate) failed: {reason}"]

    def test_file_with_two_writers_is_one_error_line(self, tmp_path,
                                                     capsys):
        """A config whose later stage would write a file an earlier stage
        writes fails before any stage runs: the earlier run's tree and
        manifest are left as they were."""
        stages = [{"kind": "generate", "name": "x", "shape": "sphere_random",
                   "n": 20},
                  {"kind": "generate", "name": "y", "shape": "sphere_random",
                   "n": 20},
                  {"kind": "agree", "name": "a", "a": "x", "b": ["x", "y"]}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "out_dir": "res",
                                   "stages": stages}))
        assert run_cli("pipeline", "--config", str(cfg)) == 0
        out = tmp_path / "res"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in before and "a_x.csv" in before
        capsys.readouterr()
        cfg.write_text(json.dumps({"version": 1, "out_dir": "res",
                                   "stages": stages + [
            {"kind": "generate", "name": "a_x", "shape": "sphere_random",
             "n": 24}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: config: stage 'a' and stage 'a_x' both write "
            "'a_x.csv'"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_string_flag_rejected(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "out_dir": "res", "stages": [
                {"kind": "ingest", "name": "d", "path": dataset.name},
                {"kind": "agree", "name": "a", "a": "d", "b": "d",
                 "per_item": "no"}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: stage 1 (agree): per_item must be a boolean"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("key, message", [
        ("out_dir", "config: out_dir must not contain a NUL character"),
        ("path", "stage 0 (ingest): path must not contain a NUL character"),
    ])
    def test_nul_in_a_path_is_one_error_line(self, key, message, dataset,
                                             tmp_path, capsys):
        config = {"version": 1, "out_dir": "res", "stages": [
            {"kind": "ingest", "name": "d", "path": dataset.name}]}
        if key == "out_dir":
            config["out_dir"] = "o\u0000x"
        else:
            config["stages"][0]["path"] = "data\u0000.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert "\0" not in captured.err and "Traceback" not in captured.err

    def test_null_reducer_parameter_is_one_error_line(self, tmp_path,
                                                      capsys):
        """A parameter takes its default only when its key is left out, so
        ``"seed": null`` cannot make a run draw a fresh random start."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "out_dir": "res", "stages": [
                {"kind": "generate", "name": "d", "shape": "swiss_roll",
                 "n": 40},
                {"kind": "reduce", "name": "r", "source": "d",
                 "method": "smacof", "target_dim": 2,
                 "params": {"seed": None, "init": "random", "max_iter": 5}}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: stage 1 (reduce): params for smacof: seed has the wrong "
            "type: None"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("style, message", BAD_STYLES,
                             ids=[m for _, m in BAD_STYLES])
    def test_bad_style_is_one_error_line(self, style, message, tmp_path,
                                         capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "out_dir": "res", "stages": [
                {"kind": "generate", "name": "d", "shape": "swiss_roll",
                 "n": 30},
                {"kind": "agree", "name": "a", "a": "d", "b": "d",
                 "per_item": True, "range_k": [1, 3]},
                {"kind": "plot", "name": "h", "type": "heatmap",
                 "values": {"agree": "a"}, "spec": {"style": style}}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: stage 2 (plot): style: {message}"]
        assert not (tmp_path / "res").exists()

    def test_heatmap_labels_its_columns_from_the_per_item_data(self, tmp_path,
                                                              capsys):
        """The k label comes from the agree stage's columns; a plot spec
        holds only comparison and style, and a heatmap's values no k."""
        config = {"version": 1, "out_dir": "res", "stages": [
            {"kind": "generate", "name": "d", "shape": "swiss_roll", "n": 60},
            {"kind": "reduce", "name": "r", "source": "d", "method": "pca",
             "target_dim": 2},
            {"kind": "agree", "name": "a", "a": "d", "b": "r",
             "per_item": True, "range_k": [1, 5]},
            {"kind": "plot", "name": "h", "type": "heatmap",
             "values": {"agree": "a"}}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("pipeline", "--config", str(cfg)) == 0
        svg = (tmp_path / "res" / "h.svg").read_text()
        assert ">k = 1..5</text>" in svg
        assert capsys.readouterr().err == ""
        for key, value, message in (
                ("spec", {"range_k": [20, 21, 22, 23, 24]},
                 "unknown keys ['range_k']"),
                ("spec", {"adjusted": True}, "unknown keys ['adjusted']"),
                ("values", {"agree": "a", "k": 3},
                 "values: unknown keys ['k']")):
            broken = copy.deepcopy(config)
            broken["stages"][3][key] = value
            cfg.write_text(json.dumps(broken))
            assert run_cli("pipeline", "--config", str(cfg)) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: stage 3 (plot): {message}"]
        assert (tmp_path / "res" / "h.svg").read_text() == svg

    def test_error_reports_stage(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "out_dir": "res", "stages": [
                {"kind": "ingest", "name": "d", "path": "missing.csv"}]}))
        assert run_cli("pipeline", "--config", str(cfg)) == 1
        assert "stage 'd'" in capsys.readouterr().err


def test_cli_and_pipeline_write_the_same_bytes(dataset, tmp_path):
    emb = tmp_path / "emb.csv"
    run_cli("reduce", "--method", "pca", "--dim", "2",
            "--in", str(dataset), "--out", str(emb))
    cli = tmp_path / "cli"
    cli.mkdir()
    assert run_cli("agree", "--a", str(dataset), "--b", str(emb),
                   "--out", str(cli / "agr.csv"), "--per-item") == 0
    style = {"style": {"grid_resolution": 8}}
    plots = {
        "lift": ("lift", {"profiles": {"agr": "agr.csv"}}),
        "heat": ("heatmap", {"values": {"per_item": "agr_items.csv"},
                             "order_by": "../emb.csv"}),
        "scat": ("scatter", {"embeddings": ["../emb.csv"],
                             "values": {"per_item": "agr_items.csv", "k": 3}}),
        "lo": ("loess", {"embedding": "../emb.csv",
                         "values": {"per_item": "agr_items.csv"},
                         "spec": style}),
    }
    for name, (plot_type, spec) in plots.items():
        (cli / f"{name}.json").write_text(json.dumps(spec))
        assert run_cli("plot", "--type", plot_type,
                       "--spec", str(cli / f"{name}.json"),
                       "--out", str(cli / f"{name}.svg")) == 0

    run_pipeline(parse_config({"version": 1, "out_dir": "pipe", "stages": [
        {"kind": "ingest", "name": "data", "path": dataset.name},
        {"kind": "ingest", "name": "emb", "path": emb.name},
        {"kind": "agree", "name": "agr", "a": "data", "b": "emb",
         "per_item": True},
        {"kind": "plot", "name": "lift", "type": "lift", "profiles": ["agr"]},
        {"kind": "plot", "name": "heat", "type": "heatmap",
         "values": {"agree": "agr"}, "order_by": "emb"},
        {"kind": "plot", "name": "scat", "type": "scatter",
         "embeddings": ["emb"], "values": {"agree": "agr", "k": 3}},
        {"kind": "plot", "name": "lo", "type": "loess", "embeddings": ["emb"],
         "values": {"agree": "agr"}, "spec": style},
    ]}, base_dir=tmp_path))
    for name in ("agr.csv", "agr_items.csv", "lift.svg", "heat.svg",
                 "scat.svg", "lo.svg"):
        assert (cli / name).read_bytes() == \
            (tmp_path / "pipe" / name).read_bytes(), name



def _generated_against(tmp_path, capsys, other: dict) -> tuple:
    """Run a pipeline that scores a generated artifact ``d`` against
    ``other``, then ``drqa agree`` on the files it wrote; return the
    ``(exit status, stderr)`` of each."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "out_dir": "o", "stages": [
        {"kind": "generate", "name": "d", "shape": "sphere_random", "n": 12},
        other, {"kind": "agree", "name": "ag", "a": "d", "b": other["name"]},
    ]}))
    capsys.readouterr()
    pipe = run_cli("pipeline", "--config", str(cfg)), capsys.readouterr().err
    o = tmp_path / "o"
    cli = run_cli("agree", "--a", str(o / "d.csv"),
                  "--b", str(o / f"{other['name']}.csv"),
                  "--out", str(tmp_path / "p.csv")), capsys.readouterr().err
    return pipe, cli


def test_generated_ids_fail_alike_against_ingested_ids(tmp_path, capsys):
    """A generated artifact has the ids "0" .. "n-1" that its file
    carries, so a stage and the CLI on the written files both reject
    scoring it against items named s0 .. s11."""
    x = np.random.default_rng(4).standard_normal((12, 3))
    (tmp_path / "m.csv").write_text("id,x,y,z\n" + "".join(
        f"s{i},{a},{b},{c}\n" for i, (a, b, c) in enumerate(x.tolist())))
    pipe, cli = _generated_against(
        tmp_path, capsys, {"kind": "ingest", "name": "m", "path": "m.csv"})
    mismatch = "item ids of {!r} do not match those of {!r}"
    o = tmp_path / "o"
    assert pipe == (1, "error: stage 'ag' (agree) failed: "
                       + mismatch.format("m", "d") + "\n")
    assert cli == (1, "error: " + mismatch.format(str(o / "m.csv"),
                                                  str(o / "d.csv")) + "\n")


def test_generated_artifact_scores_against_its_reduction(tmp_path, capsys):
    pipe, cli = _generated_against(
        tmp_path, capsys, {"kind": "reduce", "name": "r", "source": "d",
                           "method": "pca", "target_dim": 2})
    assert pipe == (0, "") and cli == (0, "")
    assert (tmp_path / "p.csv").read_bytes() == \
        (tmp_path / "o" / "ag.csv").read_bytes()

SWEEP_CONFIG = {
    "version": 1, "seed": 3, "out_dir": "out", "imputation": "column_mean",
    "cache": False, "scores": "scores.csv",
    "stages": [
        {"kind": "generate", "name": "g", "shape": "sphere_random", "n": 12,
         "params": {"radius": 2.0}},
        {"kind": "ingest", "name": "i", "path": "raw.csv",
         "has_header": True, "missing_token": "NA"},
        {"kind": "reduce", "name": "r", "source": "g", "method": "pca",
         "target_dim": 2, "params": {"use_correlation": False}},
        {"kind": "agree", "name": "a", "a": "g", "b": ["r"], "z": "i",
         "per_item": True, "range_k": [1, 6]},
        {"kind": "plot", "name": "p", "type": "scatter", "embeddings": ["r"],
         "values": {"agree": "a", "k": 2},
         "spec": {"comparison": "simple",
                  "style": {"width": 300.0, "grid_resolution": 4}}},
    ],
}
SWEEP_VALUES = (0, 7, -1, "x", [], [1], {}, None, True, 1.5, "20", [["x"]],
                [[{}]])


def _field_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _field_paths(value, prefix + (key,))


@pytest.mark.parametrize(
    "path", list(_field_paths(SWEEP_CONFIG)),
    ids=lambda path: ".".join(map(str, path)) or "config")
def test_config_field_sweep_exits_cleanly(path, tmp_path, capsys):
    """Each field replaced by a value of another type or range: the run
    succeeds, or fails with status 1 and one ``error:`` line."""
    # the ids "0" .. "11" of the generated g, which agree stage a pairs with i
    (tmp_path / "raw.csv").write_text("id,x,y\n" + "".join(
        f"{i},{i},{i * 7 % 5}\n" for i in range(12)))
    for value in SWEEP_VALUES:
        config = copy.deepcopy(SWEEP_CONFIG)
        if path:
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            config = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run_cli("pipeline", "--config", str(cfg))
        err = capsys.readouterr().err.splitlines()
        assert (code, err) == (0, []) or (
            code == 1 and len(err) == 1 and err[0].startswith("error:")), \
            (value, code, err)


PARAM_SWEEP = {
    "radius": ("generate", "--shape", "sphere_random", "--n", "12"),
    "n_neighbors": ("reduce", "--method", "isomap", "--dim", "2"),
    "max_iter": ("reduce", "--method", "smacof", "--dim", "2"),
    "transform": ("reduce", "--method", "smacof", "--dim", "2"),
    "weights": ("reduce", "--method", "smacof", "--dim", "2"),
}


@pytest.mark.parametrize("key", PARAM_SWEEP)
def test_param_value_sweep_exits_cleanly(key, dataset, tmp_path, capsys):
    """Each sweep value as a shape or method parameter: the command
    succeeds, or fails with status 1 and one ``error:`` line."""
    argv = PARAM_SWEEP[key]
    if argv[0] == "reduce":
        argv += ("--in", str(dataset))
    for value in SWEEP_VALUES:
        code = run_cli(*argv, "--params", json.dumps({key: value}),
                       "--out", str(tmp_path / "out.csv"))
        err = capsys.readouterr().err.splitlines()
        assert (code, err) == (0, []) or (
            code == 1 and len(err) == 1 and err[0].startswith("error:")), \
            (value, code, err)


#: A config that runs; the fuzz below breaks its bytes.  It names no
#: out_dir and no input file, and its numbers are single digits, so the
#: mutations (which insert no digits) cannot aim it elsewhere or make it big.
FUZZ_CONFIG = json.dumps({"version": 1, "seed": 1, "stages": [
    {"kind": "generate", "name": "g", "shape": "sphere_random", "n": 9},
    {"kind": "reduce", "name": "r", "source": "g", "method": "pca",
     "target_dim": 2},
    {"kind": "agree", "name": "a", "a": "g", "b": "r", "per_item": True},
    {"kind": "plot", "name": "p", "type": "scatter", "embeddings": ["r"],
     "values": {"agree": "a", "k": 2}},
]}).encode()


@st.composite
def config_bytes(draw):
    """Arbitrary bytes, or the bytes of ``FUZZ_CONFIG`` with a few short
    spans replaced by arbitrary non-digit bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = bytearray(FUZZ_CONFIG)
    no_digits = st.binary(max_size=6).map(
        lambda b: bytes(c for c in b if not 0x30 <= c <= 0x39))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 6)))
        data[start:stop] = draw(no_digits)
    return bytes(data)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=config_bytes())
@example(data=b"[" * 100_000)  # deeper than the JSON decoder recurses
@example(data=b"\xff" + FUZZ_CONFIG)
def test_config_bytes_exit_cleanly(data, tmp_path, capsys):
    """Whatever bytes the config file holds, the run succeeds, or fails
    with status 1 and one ``error:`` line, never a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    code = run_cli("pipeline", "--config", str(cfg))
    err = capsys.readouterr().err.splitlines()
    assert (code, err) == (0, []) or (
        code == 1 and len(err) == 1 and err[0].startswith("error:")), \
        (data, code, err)

def test_deeply_nested_params_exit_cleanly(tmp_path, capsys):
    code = run_cli("generate", "--shape", "sphere_random", "--n", "12",
                   "--params", "[" * 100_000, "--out", str(tmp_path / "g.csv"))
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith("error: --params: invalid JSON")

def _malformed(text: str, how: str) -> bytes:
    """A CSV file written by drqa, broken in one way.

    The first field of a row is its label (an item id, or k in a profile),
    the second a value.
    """
    header, *rows = text.splitlines()
    if how == "empty":
        return b""
    if how == "header_only":
        rows = []
    elif how == "short_row":
        rows[-1] = rows[-1].rsplit(",", 1)[0]
    elif how == "inf":
        label, _, rest = rows[0].split(",", 2)
        rows[0] = ",".join([label, "inf", rest])
    elif how == "oversized_field":  # beyond the csv module's field limit
        rows[0] = rows[0].split(",", 1)[0] + "," + "1" * 200_000
    elif how == "duplicate_labels":
        rows[1] = rows[0].split(",", 1)[0] + "," + rows[1].split(",", 1)[1]
    elif how == "non_utf8":
        return ("\n".join([header, *rows]) + "\n").encode().replace(
            b"\n", b"\n\xff", 1)
    return ("\n".join([header, *rows]) + "\n").encode()


MALFORMATIONS = ["short_row", "non_utf8", "inf", "duplicate_labels",
                 "header_only", "empty", "oversized_field"]

#: Each file argument of a subcommand: the good file the malformed one is
#: made from, and the command line with ``bad.csv`` in that place.
FILE_ARGUMENTS = {
    "agree_a": ("data.csv", ["agree", "--a", "bad.csv", "--b", "emb.csv"]),
    "agree_b": ("emb.csv", ["agree", "--a", "data.csv", "--b", "bad.csv"]),
    "agree_z": ("emb.csv", ["agree", "--a", "data.csv", "--b", "emb.csv",
                            "--z", "bad.csv"]),
    "reduce_in": ("data.csv", ["reduce", "--method", "pca", "--dim", "2",
                               "--in", "bad.csv"]),
    "ingest_in": ("data.csv", ["ingest", "--in", "bad.csv"]),
    "plot_embedding": ("emb.csv", ["plot", "--type", "scatter", {
        "embeddings": ["bad.csv"], "values": {"per_item": "p_items.csv"}}]),
    "plot_loess_embedding": ("emb.csv", ["plot", "--type", "loess", {
        "embedding": "bad.csv", "values": {"per_item": "p_items.csv"}}]),
    "plot_order_by": ("emb.csv", ["plot", "--type", "heatmap", {
        "order_by": "bad.csv", "values": {"per_item": "p_items.csv"}}]),
    "plot_per_item": ("p_items.csv", ["plot", "--type", "scatter", {
        "embeddings": ["emb.csv"], "values": {"per_item": "bad.csv"}}]),
    "plot_profile": ("p.csv", ["plot", "--type", "lift",
                               {"profiles": ["bad.csv"]}]),
}


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """A dataset, its 2-d embedding, and their profile and per-item file."""
    d = tmp_path_factory.mktemp("good")
    assert run_cli("generate", "--shape", "sphere_random", "--n", "12",
                   "--seed", "3", "--out", str(d / "data.csv")) == 0
    assert run_cli("reduce", "--method", "pca", "--dim", "2", "--in",
                   str(d / "data.csv"), "--out", str(d / "emb.csv")) == 0
    assert run_cli("agree", "--a", str(d / "data.csv"), "--b",
                   str(d / "emb.csv"), "--out", str(d / "p.csv"),
                   "--per-item") == 0
    return {f.name: f.read_text() for f in d.iterdir()}


@pytest.mark.parametrize("how", MALFORMATIONS)
@pytest.mark.parametrize("argument", FILE_ARGUMENTS)
def test_malformed_csv_exits_cleanly(argument, how, good_files, tmp_path,
                                     monkeypatch, capsys):
    """Every file argument of every subcommand rejects a malformed CSV with
    status 1, one ``error:`` line and no output file."""
    monkeypatch.chdir(tmp_path)
    for name, text in good_files.items():
        Path(name).write_text(text)
    source, argv = FILE_ARGUMENTS[argument]
    Path("bad.csv").write_bytes(_malformed(good_files[source], how))
    if isinstance(argv[-1], dict):
        Path("spec.json").write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], "--spec", "spec.json"]
    code = run_cli(*argv, "--out", "out.file")
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error:"), (
        code, captured.err)
    assert "bad.csv" in err[0]
    assert captured.out == ""
    assert not Path("out.file").exists()


def test_public_api_imports():
    import drqa

    missing = [name for name in drqa.__all__ if not hasattr(drqa, name)]
    assert missing == []
