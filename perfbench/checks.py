"""Output checks run on every pipeline output tree the benchmark produces.

A tree passes when

- ``manifest.json`` lists exactly the files in the tree, the score table
  has one row per scored pair, and every figure is a complete SVG;
- on the external workloads, the ingested survey keeps every observed
  answer and fills each missing cell with its column mean;
- for a sample of items, the per-item agreement rates equal the ones a
  naive oracle finds by intersecting k-nearest-neighbor sets (ties broken
  by ascending index) on the written configurations;
- where ``reference.json`` has an entry for the workload, its item count
  and the seed (recorded by ``record_reference.py`` from the commit that
  added the benchmark): the profile and per-item CSVs of the external
  workloads match its digests byte for byte, and on ``study`` every
  ``mean_agreement``, ``psi`` and ``psi_weighted`` lies within
  ``STUDY_SCORE_TOL`` of it.  The recorded seeds are 0 to 20.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

import workloads as W

#: Largest accepted absolute deviation of a ``study`` score from reference.
STUDY_SCORE_TOL = 1e-4
#: Items per scored pair whose per-item rates the oracle recomputes.
ORACLE_ITEMS = 16

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _read_rows(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def read_config(path: Path) -> np.ndarray:
    """Coordinates of a configuration CSV the pipeline wrote."""
    rows = _read_rows(path)[1:]
    return np.array([[float(c) for c in row[1:]] for row in rows])


def read_scores(out_dir: Path) -> list:
    """Score-table rows as (embedding, mean_agreement, psi, psi_weighted)."""
    rows = _read_rows(out_dir / "scores.csv")[1:]
    return [[json.loads(r[1])["embedding"], float(r[3]), float(r[4]),
             float(r[5])] for r in rows]


def profile_digests(out_dir: Path, agree: str) -> dict:
    """sha256 of every profile and per-item CSV of one agree stage."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob(f"{agree}_*.csv"))}


def scored_pairs(workload: str, names: list) -> list:
    """(source, embedding, file base, k_max) for every scored pair."""
    if workload == "study":
        return [(key, f"{key}_{side}_{m}", f"{key}_ag_{key}_{side}_{m}", 20)
                for key in W.SHAPE_KEYS
                for side, methods in (("g", W.GLOBAL_METHODS),
                                      ("l", W.NEIGHBOR_METHODS))
                for m in methods]
    return [("survey", name, f"fit_{name}", W.EXTERNAL_RANGE_K)
            for name in names]


def tree_digest(root: Path) -> str:
    """One digest over every output file except the rank cache."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and not rel.startswith(".cache/"):
            digest.update(rel.encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def check_tree(workload: str, n: int, seed: int, out_dir: Path, work: Path,
               names: list, reference: dict) -> tuple[list, float]:
    """Problems found in one output tree, and its mean ``psi``."""
    problems = []
    pairs = scored_pairs(workload, names)

    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = sorted(e["path"] for e in manifest["outputs"])
    present = sorted(
        p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
        and not p.relative_to(out_dir).as_posix().startswith(".cache/"))
    if listed != present:
        problems.append("manifest does not list exactly the written files")

    scores = read_scores(out_dir)
    if [row[0] for row in scores] != [pair[1] for pair in pairs]:
        problems.append(f"score table has rows {[r[0] for r in scores]}")
    figures = sorted(out_dir.glob("*.svg"))
    if len(figures) != 4:
        problems.append(f"expected 4 figures, found {len(figures)}")
    for fig in figures:
        text = fig.read_text()
        if not (text.startswith("<?xml") and "<svg" in text[:200]
                and text.endswith("</svg>\n")):
            problems.append(f"{fig.name} is not a complete SVG")

    if workload != "study":
        problems += _check_imputation(work / "survey.csv",
                                      out_dir / "survey.csv")
    problems += _check_oracle(out_dir, pairs, seed)

    table = reference.get(workload, {})
    expected = table.get("seeds", {}).get(str(seed))
    if expected is not None and table["n"] == n:
        if workload == "study":
            problems += _compare_scores(scores, expected["scores"])
        elif profile_digests(out_dir, "fit") != expected["digests"]:
            problems.append("profile CSVs differ from the reference")
    psi_mean = float(np.mean([row[2] for row in scores])) if scores else 0.0
    return problems, psi_mean


def _check_imputation(raw_path: Path, written_path: Path) -> list:
    rows = _read_rows(raw_path)[1:]
    observed = np.array([[c != "NA" for c in r[1:]] for r in rows])
    raw = np.array([[float(c) if c != "NA" else 0.0 for c in r[1:]]
                    for r in rows])
    written = read_config(written_path)
    if written.shape != raw.shape:
        return [f"ingested survey has shape {written.shape}"]
    means = (raw * observed).sum(axis=0) / observed.sum(axis=0)
    problems = []
    if not (written[observed] == raw[observed]).all():
        problems.append("ingest changed an observed answer")
    filled = np.broadcast_to(means, raw.shape)[~observed]
    if not np.allclose(written[~observed], filled, rtol=0, atol=1e-12):
        problems.append("a missing cell is not its column mean")
    return problems


def _neighbor_order(x: np.ndarray, i: int) -> np.ndarray:
    """Other items by ascending distance to item ``i``, ties by index."""
    d = cdist(x[i:i + 1], x)[0]
    order = np.lexsort((np.arange(len(x)), d))
    return order[order != i]


def _check_oracle(out_dir: Path, pairs: list, seed: int) -> list:
    rng = np.random.default_rng(seed)
    configs: dict = {}

    def config(name):
        if name not in configs:
            configs[name] = read_config(out_dir / f"{name}.csv")
        return configs[name]

    problems = []
    for source, embedding, base, k_max in pairs:
        a, b = config(source), config(embedding)
        rows = _read_rows(out_dir / f"{base}_items.csv")[1:]
        for i in rng.choice(len(a), size=min(ORACLE_ITEMS, len(a)),
                            replace=False):
            near_a, near_b = _neighbor_order(a, i), _neighbor_order(b, i)
            want = [len(set(near_a[:k]) & set(near_b[:k])) / k
                    for k in range(1, k_max + 1)]
            got = [float(c) for c in rows[i][1:]]
            if got != want:
                problems.append(f"{base}: per-item rates of item {i} "
                                "differ from the oracle")
                break
    return problems


def _compare_scores(scores: list, expected: list) -> list:
    if [row[0] for row in scores] != [row[0] for row in expected]:
        return ["score rows differ from the reference"]
    worst = max(abs(g - w) for got, want in zip(scores, expected)
                for g, w in zip(got[1:], want[1:]))
    if worst > STUDY_SCORE_TOL:
        return [f"scores deviate from the reference by {worst:.3g}"]
    return []
