"""
External data, missing values, and the pipeline
===============================================

Score an embedding that was produced outside this package, starting from a
CSV with missing cells, then run the same flow as a declarative pipeline.
"""

import json
from pathlib import Path

import numpy as np

from drqa import (
    agreement_profile,
    impute_column_mean,
    ingest_csv,
    partial_agreement,
    pca,
    psi,
    ranks_from_config,
    run_pipeline,
    write_configuration,
)
from drqa.pipeline import parse_config

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# Fake a survey export: 80 respondents, 6 Likert items, a few blanks.
rng = np.random.default_rng(30)
answers = rng.integers(1, 6, size=(80, 6)).astype(float)
blank = rng.random(answers.shape) < 0.03
rows = ["id," + ",".join(f"q{j}" for j in range(1, 7))]
for i, row in enumerate(answers):
    cells = ["NA" if blank[i, j] else str(int(v))
             for j, v in enumerate(row)]
    rows.append(f"r{i}," + ",".join(cells))
raw_path = out / "survey.csv"
raw_path.write_text("\n".join(rows) + "\n")

survey = impute_column_mean(ingest_csv(raw_path))
print(f"ingested {survey.n} rows, {survey.m} columns, "
      f"fully observed after imputation: {survey.fully_observed}")

# Pretend some external tool produced this 2D map; we only see its CSV.
external = pca(survey, 2).embedding
external_path = out / "external_map.csv"
write_configuration(external, external_path)

embedding = ingest_csv(external_path)
profile = agreement_profile(ranks_from_config(survey),
                            ranks_from_config(embedding))
print(f"external map psi = {psi(profile):.3f}")

# Without imputation, two respondents are compared over the questions both
# answered, without rescaling.
raw_profile = agreement_profile(ranks_from_config(ingest_csv(raw_path)),
                                ranks_from_config(embedding))
print(f"external map psi against the raw survey = {psi(raw_profile):.3f}")

# Partial agreement: how much two maps agree beyond what both share with a
# third configuration.
other = pca(survey, 3).embedding
ranks = {name: ranks_from_config(c)
         for name, c in (("a", survey), ("b", embedding), ("z", other))}
ab = psi(agreement_profile(ranks["a"], ranks["b"]))
az = psi(agreement_profile(ranks["a"], ranks["z"]))
bz = psi(agreement_profile(ranks["b"], ranks["z"]))
print(f"partial agreement of survey/map given the 3D map: "
      f"{partial_agreement(ab, az, bz):.3f}")

# The same analysis as one reproducible pipeline: every output lands in
# out_dir with a manifest, and reruns are byte-identical.  Paths are
# relative to the directory the config file is written to.
config = {
    "version": 1,
    "seed": 30,
    "out_dir": "pipeline",
    "imputation": "column_mean",
    "scores": "scores.csv",
    "stages": [
        {"kind": "ingest", "name": "survey", "path": raw_path.name},
        {"kind": "reduce", "name": "map", "source": "survey",
         "methods": ["pca", "smacof"], "target_dim": 2},
        {"kind": "agree", "name": "quality", "a": "survey",
         "b": ["map_pca", "map_smacof"], "per_item": True,
         "range_k": [1, 20]},
        {"kind": "plot", "name": "lift", "type": "lift",
         "profiles": ["quality:map_pca", "quality:map_smacof"]},
        {"kind": "plot", "name": "loess", "type": "loess",
         "embeddings": ["map_smacof"],
         "values": {"agree": "quality:map_smacof", "k": 10}},
    ],
}
manifest = run_pipeline(parse_config(config, base_dir=out))
print("pipeline outputs:")
for entry in manifest:
    print(f"  {entry.path} (stage {entry.stage})")

# The CLI mirrors each stage; the config file form of the same run:
(out / "pipeline.json").write_text(json.dumps(config, indent=2) + "\n")
print("same run from a shell: drqa pipeline --config", out / "pipeline.json")
