"""CSV ingestion, imputation, and lossless round trips."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drqa.agreement import AgreementProfile, _OverlapSums, agreement_profile
from drqa.geometry import Configuration, euclidean_distances, ranks_from_config
from drqa.ingest import (
    _float_cells,
    _write_csv,
    _write_overlaps,
    impute_column_mean,
    ingest_csv,
    read_per_item,
    read_profile,
    write_configuration,
    write_per_item,
    write_profile,
)
from drqa.pipeline import ScoreRow, ScoreTable, _write_partial


class TestIngest:
    def test_plain_numeric_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        c = ingest_csv(p, has_header=False)
        assert c.n == 3 and c.m == 2
        assert c.fully_observed
        assert (c.items == [[1, 2], [3, 4], [5, 6]]).all()
        assert c.labels is None

    def test_missing_token_and_empty_cells_masked(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,NA\n,4\n5,6\n")
        c = ingest_csv(p, missing_token="NA")
        assert not c.fully_observed
        assert c.mask.tolist() == [[True, False], [False, True], [True, True]]

    def test_header_id_column_becomes_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,x,y\nalpha,1,2\nbeta,3,4\n")
        c = ingest_csv(p)
        assert c.labels == ("alpha", "beta")
        assert c.m == 2

    def test_numeric_ids_still_labels_under_id_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,x,y\n0,1,2\n1,3,4\n")
        c = ingest_csv(p)
        assert c.labels == ("0", "1")

    def test_headerless_text_column_becomes_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("alpha,1,2\nbeta,3,4\n")
        c = ingest_csv(p, has_header=False)
        assert c.labels == ("alpha", "beta")

    def test_ragged_row_reports_row_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n5,6\n")
        with pytest.raises(ValueError, match="row 2 has 1 fields"):
            ingest_csv(p, has_header=False)

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="'oops' at row 2, column 2"):
            ingest_csv(p)

    def test_non_numeric_cell_after_labels_counts_the_label_column(
            self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,x,y\na,1,2\nb,3,4\nc,5,x7\n")
        with pytest.raises(ValueError, match="'x7' at row 3, column 3"):
            ingest_csv(p)

    def test_first_bad_cell_deep_in_a_file_is_reported(self, tmp_path):
        """All cells are parsed in one pass; the message names the first
        bad cell in row-major order, the label column counted."""
        rows = [["id", "q1", "q2", "q3", "q4"]]
        rows += [[f"r{i}", "1", "NA" if i % 7 else "", "3.5", "4"]
                 for i in range(60)]
        rows[45][2] = "two"  # row 45, column 3: later in row-major order
        rows[37][4] = "4,0"  # row 37, column 5
        p = tmp_path / "d.csv"
        with p.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValueError,
                           match="^d.csv: non-numeric cell '4,0' at row 37, "
                                 "column 5$"):
            ingest_csv(p)

    def test_na_and_empty_cells_in_one_column_both_mask(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,z\n1,NA,3\n4,,6\n7, NA ,9\n10,11,12\n")
        c = ingest_csv(p)
        assert c.mask[:, 1].tolist() == [False, False, False, True]
        assert c.mask[:, [0, 2]].all()
        assert c.items[3].tolist() == [10.0, 11.0, 12.0]
        assert c.items[:, 1][:3].tolist() == [0.0, 0.0, 0.0]

    def test_each_numeric_cell_is_parsed_once(self, tmp_path, monkeypatch):
        import drqa.ingest

        parsed = []

        def counting_float(cell):
            parsed.append(cell)
            return float(cell)

        monkeypatch.setattr(drqa.ingest, "float", counting_float,
                            raising=False)
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,NA\n4,,6\n7,8,9e1\n")
        c = ingest_csv(p)
        assert c.items[2].tolist() == [7.0, 8.0, 90.0]
        # the first column's label test stops at its first number
        assert sorted(parsed) == sorted(["1", "1", "2", "4", "6", "7", "8",
                                         "9e1"])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a BOM; the id column
        must still hold the labels."""
        text = "id,q1,q2\n1,3,5\n2,4,4\n3,1,2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        a, b = ingest_csv(plain), ingest_csv(marked)
        assert a.labels == b.labels == ("1", "2", "3")
        assert a.items.tobytes() == b.items.tobytes() and b.m == 2
        assert a.mask is b.mask is None

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no rows"):
            ingest_csv(p)

    def test_quoted_labels_round_trip(self, tmp_path):
        c = Configuration(np.array([[1.0, 2.0], [3.0, 4.0]]),
                          labels=('a,"x"', "b"))
        p = tmp_path / "d.csv"
        write_configuration(c, p)
        back = ingest_csv(p)
        assert back.labels == ('a,"x"', "b")


class TestRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        items = rng.standard_normal((20, 4)) * 1e3
        mask = rng.uniform(size=(20, 4)) > 0.1
        mask[:, 0] = True  # keep every column alive
        c = Configuration(items, mask=mask)
        p = tmp_path / "d.csv"
        write_configuration(c, p)
        back = ingest_csv(p)
        assert (back.mask == mask).all() if back.mask is not None else mask.all()
        assert (np.where(mask, back.items, 0) == np.where(mask, items, 0)).all()

    def test_second_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        c = Configuration(rng.standard_normal((10, 3)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_configuration(c, p1)
        write_configuration(ingest_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestImpute:
    def test_column_mean(self):
        items = np.array([[1.0, 5.0], [99.0, 6.0], [3.0, 7.0]])
        mask = np.array([[True, True], [False, True], [True, True]])
        c = impute_column_mean(Configuration(items, mask=mask))
        assert c.items[1, 0] == pytest.approx(2.0)
        assert c.fully_observed

    def test_fully_observed_unchanged(self):
        c = Configuration(np.ones((3, 2)) * np.arange(3)[:, None])
        assert impute_column_mean(c) is c

    def test_dead_column_rejected(self):
        items = np.zeros((3, 2))
        mask = np.array([[True, False], [True, False], [True, False]])
        with pytest.raises(ValueError, match="column 1 has no observed"):
            impute_column_mean(Configuration(items, mask=mask))

    def test_survey_like_file_yields_finite_distances(self, tmp_path):
        rng = np.random.default_rng(2)
        items = rng.normal(3.0, 1.0, (60, 8))
        mask = rng.uniform(size=items.shape) > 0.04
        mask[:, 0] = True
        c = Configuration(items, mask=mask)
        p = tmp_path / "survey.csv"
        write_configuration(c, p)
        filled = impute_column_mean(ingest_csv(p))
        d = euclidean_distances(filled)
        assert np.isfinite(d.values).all()


class TestProfileFiles:
    def make_profile(self):
        rng = np.random.default_rng(3)
        a = Configuration(rng.standard_normal((15, 3)))
        b = Configuration(rng.standard_normal((15, 2)))
        return agreement_profile(ranks_from_config(a), ranks_from_config(b))

    def test_round_trip(self, tmp_path):
        prof = self.make_profile()
        p = tmp_path / "prof.csv"
        write_profile(prof, p)
        back = read_profile(p)
        assert back.n == prof.n
        assert (back.ar == prof.ar).all()
        assert (back.ar_adjusted == prof.ar_adjusted).all()

    def test_wrong_file_rejected(self, tmp_path):
        p = tmp_path / "other.csv"
        p.write_text("id,x\n0,1\n")
        with pytest.raises(ValueError, match="not an agreement profile"):
            read_profile(p)

    def test_gap_in_k_rejected(self, tmp_path):
        p = tmp_path / "prof.csv"
        p.write_text("k,agreement,adjusted_agreement\n1,0.5,0.25\n3,1.0,0.0\n")
        with pytest.raises(ValueError, match="k = 1..n-1"):
            read_profile(p)

    @pytest.mark.parametrize("body, bad", [
        ("1,0.5,x\n2,1.0,0.0\n", "x"),
        ("1,0.5,0.25\n2,one,0.0\n", "one"),
        # every agreement is parsed before any adjusted value
        ("1,0.5,bad\n2,,0.0\n", ""),
    ])
    def test_bad_number_names_the_file(self, tmp_path, body, bad):
        p = tmp_path / "prof.csv"
        p.write_text("k,agreement,adjusted_agreement\n" + body)
        with pytest.raises(ValueError, match=re.escape(
                f"prof.csv: could not convert string to float: {bad!r}")):
            read_profile(p)

    def test_inconsistent_adjusted_rejected(self, tmp_path):
        p = tmp_path / "prof.csv"
        p.write_text("k,agreement,adjusted_agreement\n1,0.5,0.3\n2,1.0,0.7\n")
        with pytest.raises(ValueError, match="adjusted_agreement does not match"):
            read_profile(p)


class TestPerItemFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 1, (6, 3))
        p = tmp_path / "items.csv"
        write_per_item([1, 5, 9], vals, p, labels=list("abcdef"))
        ks, back, labels = read_per_item(p)
        assert ks == (1, 5, 9)
        assert (back == vals).all()
        assert labels == tuple("abcdef")

    def test_malformed_k_header(self, tmp_path):
        p = tmp_path / "items.csv"
        p.write_text("id,k=1,q=2\n0,0.1,0.2\n")
        with pytest.raises(ValueError, match="malformed k columns"):
            read_per_item(p)

    @pytest.mark.parametrize("header", ["id,3,k=4", "id,1,2,3"])
    def test_k_columns_need_their_prefix(self, tmp_path, header):
        p = tmp_path / "items.csv"
        width = header.count(",")
        p.write_text(header + "\n0" + ",0.5" * width + "\n")
        with pytest.raises(ValueError,
                           match="^items.csv: malformed k columns$"):
            read_per_item(p)

    def test_column_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one column per k"):
            write_per_item([1, 2], np.zeros((3, 3)), tmp_path / "x.csv")

    def test_label_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^2 labels for 3 items$"):
            write_per_item([1], np.zeros((3, 1)), tmp_path / "x.csv",
                           labels=["a", "b"])

    def test_first_bad_cell_names_the_file(self, tmp_path):
        p = tmp_path / "items.csv"
        rows = ["id,k=1,k=2"] + [f"i{i},0.5,1.0" for i in range(40)]
        rows[31] = "i30,0.5,nan?"
        rows[33] = "i32,?,1.0"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "items.csv: could not convert string to float: 'nan?'")):
            read_per_item(p)

    @pytest.mark.parametrize("kind", ["distinct", "ties"])
    def test_counts_writer_formats_only_the_counts_that_occur(
            self, tmp_path, kind):
        """A full-range write at n = 300 formats each (k, a) that occurs
        once, and builds no table of all k + 1 texts of a column."""
        n = 300
        rng = np.random.default_rng(5)
        if kind == "ties":
            a, b = (rng.integers(0, 4, (n, 2)).astype(float)
                    for _ in range(2))
        else:
            a, b = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        sums = _OverlapSums(n, (1, n - 1))
        sums.add(0, ranks_from_config(Configuration(a)).ranks,
                 ranks_from_config(Configuration(b)).ranks)
        ks = tuple(range(1, n))
        texts = {}
        tracemalloc.start()
        try:
            _write_overlaps(ks, sums.head, texts, tmp_path / "got.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(texts) == {(k, c) for j, k in enumerate(ks)
                              for c in np.unique(sums.head[:, j]).tolist()}
        assert all(text == repr(c / k) for (k, c), text in texts.items())
        # the n x n cells and their rows as lists take about 2 * 8 n^2
        # bytes (1.4 MB); the texts of all k + 1 counts of every column
        # alone would take 3.4 MB
        assert peak < 3_000_000
        write_per_item(ks, sums.rates(), tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()



SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 0.1, 1 / 3, -2.5,
           1e-7, 1.7976931348623157e308, 123456789.125, 3.0]


def loop_rows(ids, values, mask=None):
    """Rows as a cell-by-cell loop writes them: ``repr(float(v))``, masked
    cells empty."""
    return [[row_id] + [repr(float(v)) if mask is None or mask[i, j] else ""
                        for j, v in enumerate(row)]
            for i, (row_id, row) in enumerate(zip(ids, values))]


def csv_bytes(path, header, rows):
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)
    return path.read_bytes()


class TestFloatCells:
    """Each written float is exactly ``repr(float(v))``."""

    def test_special_values(self):
        values = np.array(SPECIAL * 3).reshape(3, -1)
        assert _float_cells(values).tolist() == [
            [repr(float(v)) for v in row] for row in values]
        assert _float_cells(np.array([-0.0, 0.0])).tolist() == ["-0.0", "0.0"]

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(9)
        base = rng.integers(0, 7, (12, 10)) / rng.integers(1, 5, (12, 10))
        base[::3, 1] = -0.0
        for values in (base[::2, 1::3], base.T, base[:, 4]):
            assert not values.flags.c_contiguous
            assert _float_cells(values).tolist() == np.vectorize(
                lambda v: repr(float(v)), otypes=[object])(values).tolist()

    def test_configuration_bytes(self, tmp_path):
        rng = np.random.default_rng(10)
        items = rng.choice(SPECIAL, (9, 4))
        mask = rng.random((9, 4)) > 0.3
        mask[:, 0] = True
        labels = ("a,b", 'say "hi"', "plain", "x", "y", "z", "1", "2", "3")
        config = Configuration(items, labels=labels, mask=mask)
        write_configuration(config, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == csv_bytes(
            tmp_path / "want.csv", ["id", "dim1", "dim2", "dim3", "dim4"],
            loop_rows(labels, items, mask))
        assert b'"a,b"' in (tmp_path / "c.csv").read_bytes()
        assert b'"say ""hi"""' in (tmp_path / "c.csv").read_bytes()

    def test_per_item_bytes(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.choice(SPECIAL, (7, 5))
        labels = ("q,r", '"quoted"', "c", "d", "e", "f", "g")
        write_per_item([1, 2, 3, 5, 8], values, tmp_path / "i.csv",
                       labels=labels)
        assert (tmp_path / "i.csv").read_bytes() == csv_bytes(
            tmp_path / "want.csv", ["id", "k=1", "k=2", "k=3", "k=5", "k=8"],
            loop_rows(labels, values))

    def test_profile_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        a = ranks_from_config(Configuration(rng.integers(0, 3, (30, 2))))
        b = ranks_from_config(Configuration(rng.integers(0, 3, (30, 2))))
        prof = agreement_profile(a, b)
        write_profile(prof, tmp_path / "p.csv")
        rows = [[k, repr(float(x)), repr(float(y))] for k, x, y in zip(
            range(1, prof.n), prof.ar, prof.ar_adjusted)]
        assert (tmp_path / "p.csv").read_bytes() == csv_bytes(
            tmp_path / "want.csv", ["k", "agreement", "adjusted_agreement"],
            rows)


# text that csv.writer must quote (comma, quote, CR, LF), and text that it
# must leave alone (empty, spaces, tabs, non-ASCII)
CELL_TEXT = st.text(alphabet=st.sampled_from(
    list(',"\r\n \tab1=é中\u2028')), max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def writer_bytes(path, rows):
    """What ``csv.writer`` with its defaults writes for ``rows``."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path.read_bytes()


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestWriterBytes:
    """Every writer joins its cells into exactly what ``csv.writer``
    writes, and the readers get the labels back."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.lists(CELL_TEXT, min_size=1, max_size=4),
           rows=st.lists(st.lists(CELL_TEXT, min_size=1, max_size=4),
                         max_size=4))
    def test_text_cells_are_quoted_as_csv_writer_does(self, tmp_path,
                                                      header, rows):
        _write_csv(tmp_path / "got.csv", header, rows, text=4)
        assert (tmp_path / "got.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv", [header, *rows])
        assert read_rows(tmp_path / "got.csv") == [header, *rows]

    def test_row_of_one_empty_cell(self, tmp_path):
        _write_csv(tmp_path / "got.csv", [""], [[""], ["x"]])
        assert (tmp_path / "got.csv").read_bytes() == b'""\r\n""\r\nx\r\n'
        assert read_rows(tmp_path / "got.csv") == [[""], [""], ["x"]]

    @pytest.mark.parametrize("labels", [
        [7, -1, 30], [np.int64(7), np.int32(-1), np.uint8(30)],
        np.arange(3), [2.5, -0.0, "a,b"]])
    def test_per_item_labels_that_are_not_text(self, tmp_path, labels):
        values = np.array([[0.5, 1.0], [0.25, -0.0], [1e-300, 2.0]])
        write_per_item([1, 2], values, tmp_path / "got.csv", labels=labels)
        assert (tmp_path / "got.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv",
            [["id", "k=1", "k=2"], *loop_rows(labels, values)])
        assert read_per_item(tmp_path / "got.csv")[2] == tuple(
            str(label) for label in labels)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(),
           labels=st.lists(CELL_TEXT, min_size=2, max_size=6, unique=True))
    def test_five_writers_match_csv_writer(self, tmp_path, data, labels):
        n = len(labels)
        items = np.array(data.draw(st.lists(
            FINITE, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        mask[:, 0] = True

        config = Configuration(items, labels=labels, mask=mask)
        write_configuration(config, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv",
            [["id", "dim1", "dim2"], *loop_rows(labels, items, mask)])
        stripped = tuple(label.strip() for label in labels)
        if len(set(stripped)) == n:  # the reader strips every cell
            back = ingest_csv(tmp_path / "c.csv")
            assert back.labels == stripped
            assert back.fully_observed == mask.all()
            assert back.fully_observed or (back.mask == mask).all()
            assert (back.items[mask] == items[mask]).all()

        write_per_item([1, 3], items, tmp_path / "i.csv", labels=labels)
        assert (tmp_path / "i.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv",
            [["id", "k=1", "k=3"], *loop_rows(labels, items)])
        ks, values, back_labels = read_per_item(tmp_path / "i.csv")
        assert ks == (1, 3) and back_labels == tuple(labels)
        assert values.tobytes() == items.tobytes()

        prof = AgreementProfile(np.linspace(0.2, 1.0, n + 2))
        write_profile(prof, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv",
            [["k", "agreement", "adjusted_agreement"]]
            + [[k, repr(float(x)), repr(float(y))] for k, x, y in zip(
                range(1, prof.n), prof.ar, prof.ar_adjusted)])

        rows = [ScoreRow(label, {"embedding": label}, f"1-{i + 1}",
                         items[i, 0], items[i, 1],
                         None if i % 2 else items[i, 0])
                for i, label in enumerate(labels)]
        ScoreTable(tuple(rows)).write(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv",
            [["technique", "params", "k_range", "mean_agreement", "psi",
              "psi_weighted"]]
            + [[r.technique, json.dumps(r.params, sort_keys=True,
                                        separators=(",", ":")),
                r.k_range, repr(float(r.mean_agreement)),
                repr(float(r.psi)), "" if r.psi_weighted is None
                else repr(float(r.psi_weighted))] for r in rows])
        assert [r[0] for r in read_rows(tmp_path / "s.csv")[1:]] == labels

        partial = tuple(float(v) for v in items[0]) + (0.5, -0.25)
        _write_partial(partial, tmp_path / "z.csv")
        assert (tmp_path / "z.csv").read_bytes() == writer_bytes(
            tmp_path / "want.csv",
            [["psi_ab", "psi_az", "psi_bz", "partial_agreement"],
             [repr(v) for v in partial]])
