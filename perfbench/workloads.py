"""Workload inputs and pipeline configs for the drqa benchmark.

Every input is made here, with numpy only, from the workload seed; the
program under test receives nothing but the config and the files it names.

- ``study``: the six-shape x six-method reduce-and-score study of the
  acceptance suite at n = 600.  ``dimred`` dominates it, and it is the only
  workload that exercises ``manifolds`` and the reduce thread pool.
- ``score_external``: embeddings made elsewhere, scored against a survey
  export with integer answers and missing cells.  No reduce stage, so
  ``geometry`` (rank structures) and ``viz`` dominate, and the integer data
  produces many tied distances.
- ``rescore_cached``: the same kind of inputs with the on-disk rank cache
  on.  The timed run is a warm rerun that loads every rank structure from
  disk; the cold run that fills the cache belongs to set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHAPE_KEYS = {
    "sreg": "sphere_regular",
    "srnd": "sphere_random",
    "roll": "swiss_roll",
    "trnd": "torus_random",
    "tlrg": "torus_large_regular",
    "tsml": "torus_small_regular",
}
GLOBAL_METHODS = ["pca", "smacof", "local_smacof"]
NEIGHBOR_METHODS = ["lle", "isomap", "laplacian_eigenmaps"]

#: Noise added to the latent survey factors, one graded embedding each.
EMBED_NOISE = (0.05, 0.15, 0.3, 0.6, 1.2, 2.4)
SURVEY_COLUMNS = 12
#: Each survey column reads the two latent factors along its own direction;
#: fixed, so that only sampling noise differs between seeds.
_ANGLES = np.arange(SURVEY_COLUMNS) * np.pi / SURVEY_COLUMNS
LOADINGS = np.vstack([np.cos(_ANGLES), np.sin(_ANGLES)])
MISSING_SHARE = 0.03
EXTERNAL_RANGE_K = 50


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    cache: bool
    #: Fewest timed calls in one run.  ``study`` times two: its run time
    #: swings most from call to call on a shared two-core host.
    calls: int = 1


WORKLOADS = {
    "study": Workload("study", 600, False, calls=2),
    "score_external": Workload("score_external", 3000, False),
    "rescore_cached": Workload("rescore_cached", 2000, True),
}

#: Item counts of the smoke mode, which only checks that everything runs.
SMOKE_N = {"study": 120, "score_external": 80, "rescore_cached": 70}


def build_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Write the workload's input files under ``work`` and return its config.

    The pipeline writes its outputs to ``work / "out"``.
    """
    if workload.name == "study":
        return study_config(workload.n, seed, work / "out")
    names = write_external_inputs(workload.n, seed, work)
    return external_config(names, seed, work, workload.cache)


def study_config(n: int, seed: int, out_dir: Path) -> dict:
    """The acceptance suite's benchmark stage list at ``n`` items."""
    stages = []
    for key, shape in SHAPE_KEYS.items():
        stages.append({"kind": "generate", "name": key, "shape": shape,
                       "n": n})
        stages.append({"kind": "reduce", "name": f"{key}_g", "source": key,
                       "methods": GLOBAL_METHODS, "target_dim": 2})
        stages.append({"kind": "reduce", "name": f"{key}_l", "source": key,
                       "methods": NEIGHBOR_METHODS, "target_dim": 2,
                       "params": {"n_neighbors": 10}})
        embeddings = ([f"{key}_g_{m}" for m in GLOBAL_METHODS]
                      + [f"{key}_l_{m}" for m in NEIGHBOR_METHODS])
        stages.append({"kind": "agree", "name": f"{key}_ag", "a": key,
                       "b": embeddings, "per_item": True,
                       "range_k": [1, 20]})
    stages += [
        {"kind": "plot", "name": "fig_lift", "type": "lift",
         "profiles": [f"sreg_ag:sreg_g_{m}" for m in GLOBAL_METHODS]
                     + [f"sreg_ag:sreg_l_{m}" for m in NEIGHBOR_METHODS]},
        {"kind": "plot", "name": "fig_scatter", "type": "scatter",
         "embeddings": ["srnd_g_pca"],
         "values": {"agree": "srnd_ag:srnd_g_pca", "k": 5}},
        {"kind": "plot", "name": "fig_heatmap", "type": "heatmap",
         "values": {"agree": "roll_ag:roll_g_pca"}, "order_by": "roll_g_pca"},
        {"kind": "plot", "name": "fig_loess", "type": "loess",
         "embeddings": ["trnd_g_smacof"],
         "values": {"agree": "trnd_ag:trnd_g_smacof", "k": 10},
         "spec": {"style": {"grid_resolution": 24}}},
    ]
    return {"version": 1, "seed": seed, "out_dir": str(out_dir),
            "scores": "scores.csv", "stages": stages}


def write_external_inputs(n: int, seed: int, work: Path) -> list:
    """A survey export and six 2-D maps of it of decreasing fidelity.

    The survey has ``SURVEY_COLUMNS`` answers on a 1-5 scale driven by two
    latent factors, with ``MISSING_SHARE`` of the cells written as ``NA``.
    Each map is the latent factors plus Gaussian noise of one
    ``EMBED_NOISE`` level.  Returns the map names.
    """
    rng = np.random.default_rng([seed, n])
    latent = rng.standard_normal((n, 2))
    raw = 3.0 + latent @ LOADINGS + 0.6 * rng.standard_normal(
        (n, SURVEY_COLUMNS))
    answers = np.clip(np.rint(raw), 1, 5).astype(int)
    missing = rng.random(answers.shape) < MISSING_SHARE
    labels = [f"r{i:05d}" for i in range(n)]

    lines = ["id," + ",".join(f"q{j + 1}" for j in range(SURVEY_COLUMNS))]
    for label, row, gaps in zip(labels, answers, missing):
        cells = ["NA" if gap else str(v) for v, gap in zip(row, gaps)]
        lines.append(label + "," + ",".join(cells))
    (work / "survey.csv").write_text("\n".join(lines) + "\n")

    names = []
    for level, sigma in enumerate(EMBED_NOISE):
        coords = latent + sigma * rng.standard_normal((n, 2))
        name = f"map{level}"
        rows = ["id,x,y"] + [f"{label},{x!r},{y!r}" for label, (x, y)
                             in zip(labels, coords.tolist())]
        (work / f"{name}.csv").write_text("\n".join(rows) + "\n")
        names.append(name)
    return names


def external_config(names: list, seed: int, work: Path,
                    cache: bool) -> dict:
    """Ingest, one agree stage over every map, four plots, and scores."""
    stages = [{"kind": "ingest", "name": "survey",
               "path": str(work / "survey.csv")}]
    stages += [{"kind": "ingest", "name": name,
                "path": str(work / f"{name}.csv")} for name in names]
    best, worst = names[0], names[-1]
    stages += [
        {"kind": "agree", "name": "fit", "a": "survey", "b": names,
         "per_item": True, "range_k": [1, EXTERNAL_RANGE_K]},
        {"kind": "plot", "name": "lift", "type": "lift",
         "profiles": [f"fit:{name}" for name in names]},
        {"kind": "plot", "name": "heatmap", "type": "heatmap",
         "values": {"agree": f"fit:{best}"}, "order_by": best},
        {"kind": "plot", "name": "scatter", "type": "scatter",
         "embeddings": [best, worst],
         "values": {"agree": f"fit:{best}", "k": 10}},
        {"kind": "plot", "name": "loess", "type": "loess",
         "embeddings": [best], "values": {"agree": f"fit:{best}", "k": 10}},
    ]
    return {"version": 1, "seed": seed, "out_dir": str(work / "out"),
            "imputation": "column_mean", "cache": cache,
            "scores": "scores.csv", "stages": stages}
