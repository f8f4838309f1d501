"""CSV input and output for configurations, profiles, and per-item values.

All writers print floats with ``repr``, so values round-trip losslessly
and repeated runs emit identical bytes.  Each distinct float of a written
array is formatted once (:func:`_float_cells`).  Every CSV file of the
package is written by :func:`_write_csv`, which joins formatted cells into
the bytes ``csv.writer`` would write, quoting text cells per RFC 4180.
Every error a reader raises on a file's content, including those of the
record it builds, starts with that file's name.
"""

from __future__ import annotations

import csv
import functools
import re
from pathlib import Path

import numpy as np

from .agreement import AgreementProfile
from .geometry import Configuration


def _names_its_file(read):
    """Prefix each ``ValueError`` of ``read(path, ...)`` with the file name."""
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        path = Path(path)
        try:
            return read(path, *args, **kwargs)
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
    return reader


def _read_rows(path: Path) -> list:
    """The rows of a UTF-8 CSV file, a leading byte-order mark dropped;
    undecodable bytes are a ValueError."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValueError(f"not {exc.encoding} text") from None
    except csv.Error as exc:
        raise ValueError(str(exc)) from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@_names_its_file
def ingest_csv(path, has_header: bool = True,
               missing_token: str = "NA") -> Configuration:
    """Read a rectangular numeric CSV into a Configuration.

    Empty cells and ``missing_token`` cells become masked entries.  Row
    labels are taken from the first column when the header names it
    ``id`` or ``label``, or when every entry in that column is
    non-numeric.
    """
    rows = _read_rows(path)
    if not rows:
        raise ValueError("no rows")

    header = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValueError("header but no data rows")

    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"row {r + 1} has {len(row)} fields, "
                f"expected {width}"
            )
    if header is not None and len(header) != width:
        raise ValueError(
            f"header has {len(header)} fields, "
            f"data rows have {width}"
        )

    cells = [[c.strip() for c in row] for row in rows]

    def is_missing(cell: str) -> bool:
        return cell == "" or cell == missing_token

    first_is_label = False
    if width > 1:
        if header is not None and header[0].lower() in ("id", "label"):
            first_is_label = True
        elif all(not is_missing(row[0]) and not _is_number(row[0])
                 for row in cells):
            first_is_label = True

    labels = None
    if first_is_label:
        labels = tuple(row[0] for row in cells)
        cells = [row[1:] for row in cells]
        width -= 1
    if width == 0:
        raise ValueError("no data columns")

    items = np.zeros((len(cells), width))
    mask = np.ones((len(cells), width), dtype=bool)
    for r, row in enumerate(cells):
        for c, cell in enumerate(row):
            if is_missing(cell):
                mask[r, c] = False
                continue
            try:
                items[r, c] = float(cell)
            except ValueError:
                col = c + 2 if first_is_label else c + 1
                raise ValueError(
                    f"non-numeric cell {cell!r} at "
                    f"row {r + 1}, column {col}"
                ) from None
    return Configuration(items, labels=labels, mask=mask)


def impute_column_mean(config: Configuration) -> Configuration:
    """Fill masked cells with their column means.

    Fully observed input is returned unchanged.  A column with no
    observed cell has no mean to offer and is rejected by index.
    """
    if config.fully_observed:
        return config
    mask = config.mask
    observed_per_col = mask.sum(axis=0)
    if (observed_per_col == 0).any():
        j = int(np.argmin(observed_per_col))
        raise ValueError(f"column {j} has no observed values to average")
    items = config.items.copy()
    col_sum = np.where(mask, items, 0.0).sum(axis=0)
    means = col_sum / observed_per_col
    rows, cols = np.nonzero(~mask)
    items[rows, cols] = means[cols]
    return Configuration(items, labels=config.labels)


# ---------------------------------------------------------------------------
# Writers and readers


def item_ids(labels, n: int) -> tuple:
    """The ids that a written file gives ``n`` items: their labels as
    text, or ``"0" .. "n-1"`` when they have none."""
    if labels is not None:
        return tuple(str(s) for s in labels)
    return tuple(str(i) for i in range(n))


def _float_cells(values) -> np.ndarray:
    """``repr(float(v))`` of every entry of a float array, in its shape.

    Each distinct bit pattern is formatted once and mapped back to its
    cells, so ``-0.0`` and ``0.0`` stay apart.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].reshape(values.shape)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """A text cell as ``csv.writer`` writes it (``QUOTE_MINIMAL``)."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _write_csv(path, header, rows, text: int = 1) -> None:
    """Write ``header`` and ``rows`` of string cells as ``csv.writer`` would.

    Header cells and the first ``text`` cells of each row are quoted where
    they hold a comma, a quote, CR or LF; the other cells are formatted
    numbers or empty, which never need quotes, and are joined as they are.
    Every row has at least one cell; a row of one empty cell is written as
    ``""``, as ``csv.writer`` does, so that it reads back as a row.  Rows
    are written one line at a time, so no copy of the whole file is held.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write((",".join(map(_quoted, header)) or '""') + "\r\n")
        fh.writelines((",".join([*map(_quoted, row[:text]), *row[text:]])
                       or '""') + "\r\n" for row in rows)


def write_configuration(config: Configuration, path) -> None:
    """Write items as ``id,dim1..dimk`` rows; masked cells stay empty."""
    cells = _float_cells(config.items)
    if config.mask is not None:
        cells[~config.mask] = ""
    _write_csv(path, ["id"] + [f"dim{j + 1}" for j in range(config.m)],
               ([row_id] + row for row_id, row in zip(
                   item_ids(config.labels, config.n), cells.tolist())))


def write_profile(profile: AgreementProfile, path) -> None:
    cells = _float_cells(np.column_stack([profile.ar, profile.ar_adjusted]))
    _write_csv(path, ["k", "agreement", "adjusted_agreement"],
               ([str(k)] + row for k, row in zip(range(1, profile.n),
                                                 cells.tolist())), text=0)


@_names_its_file
def read_profile(path) -> AgreementProfile:
    rows = _read_rows(path)
    if not rows or rows[0][:2] != ["k", "agreement"]:
        raise ValueError("not an agreement profile file")
    body = rows[1:]
    if any(len(r) < 3 for r in body):
        raise ValueError("profile rows need three fields")
    ks = [int(r[0]) for r in body]
    if ks != list(range(1, len(ks) + 1)):
        raise ValueError("profile rows must cover k = 1..n-1")
    profile = AgreementProfile([float(r[1]) for r in body])
    adjusted = np.array([float(r[2]) for r in body])
    if np.abs(adjusted - profile.ar_adjusted).max() > 1e-9:
        raise ValueError("adjusted_agreement does not match")
    return profile


def write_per_item(ks, values, path, labels=None) -> None:
    """Write an items-by-k value matrix with one column per k."""
    values = np.asarray(values, dtype=float)
    ks = [int(k) for k in ks]
    if values.ndim != 2 or values.shape[1] != len(ks):
        raise ValueError("values must have one column per k")
    cells = _float_cells(values)
    _write_csv(path, ["id"] + [f"k={k}" for k in ks],
               ([row_id] + row for row_id, row in zip(
                   item_ids(labels, len(values)), cells.tolist())))


@_names_its_file
def read_per_item(path):
    """Read a per-item value matrix back as ``(ks, values, labels)``."""
    rows = _read_rows(path)
    if not rows or rows[0][:1] != ["id"] or len(rows[0]) < 2:
        raise ValueError("not a per-item value file")
    heads = rows[0][1:]
    if not all(c.startswith("k=") for c in heads):
        raise ValueError("malformed k columns")
    try:
        ks = tuple(int(c[2:]) for c in heads)
    except ValueError:
        raise ValueError("malformed k columns") from None
    if ks[0] < 1 or any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("k columns must be strictly increasing and >= 1")
    if any(len(r) != len(rows[0]) for r in rows[1:]):
        raise ValueError("rows must match the header's width")
    labels = tuple(r[0] for r in rows[1:])
    if not labels:
        raise ValueError("no item rows")
    if len(set(labels)) != len(labels):
        raise ValueError("item ids must be unique")
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    if not np.isfinite(values).all():
        raise ValueError("item values must be finite")
    return ks, values, labels

