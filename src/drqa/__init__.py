"""Rank-based agreement between high-dimensional data and its embeddings.

The package measures how well a dimensionality-reduction result keeps
each item's neighbors: build rank structures from configurations or
distance matrices, compare them with agreement profiles and summary
coefficients, reduce with a set of classic methods, and render the
results as deterministic SVG.

The reducers' names are loaded from :mod:`drqa.dimred`, and with it
SciPy, on first use, so that scoring maps made elsewhere needs numpy
only.
"""

from .agreement import (
    AgreementProfile,
    CoRankingMatrix,
    RankMovementTally,
    WeightFunction,
    agreement_profile,
    classify_rank_movements,
    co_ranking,
    partial_agreement,
    psi,
    weighted_psi,
)
from .geometry import (
    Configuration,
    ProximityMatrix,
    RankStructure,
    euclidean_distances,
    rank_structure,
    ranks_from_config,
)
from .ingest import (
    impute_column_mean,
    ingest_csv,
    read_per_item,
    read_profile,
    write_configuration,
    write_per_item,
    write_profile,
)
from .manifolds import SHAPES, ManifoldSpec, generate
from .pipeline import (
    ManifestEntry,
    PipelineConfig,
    PipelineError,
    ScoreRow,
    ScoreTable,
    load_config,
    parse_config,
    run_pipeline,
)
from .viz import (
    ColorScale,
    LoessSurface,
    PlotStyle,
    RenderSpec,
    lift_area,
    loess_surface,
    order_by_first_coordinate,
    render_heatmap,
    render_lift,
    render_loess_overlay,
    render_scatter,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementProfile",
    "CoRankingMatrix",
    "ColorScale",
    "Configuration",
    "DisconnectedGraphError",
    "LoessSurface",
    "METHODS",
    "ManifestEntry",
    "ManifoldSpec",
    "PipelineConfig",
    "PipelineError",
    "PlotStyle",
    "ProximityMatrix",
    "RankMovementTally",
    "RankStructure",
    "ReductionResult",
    "RenderSpec",
    "SHAPES",
    "ScoreRow",
    "ScoreTable",
    "WeightFunction",
    "agreement_profile",
    "classical_mds",
    "classify_rank_movements",
    "co_ranking",
    "euclidean_distances",
    "generate",
    "geodesic_distances",
    "impute_column_mean",
    "ingest_csv",
    "isomap",
    "laplacian_eigenmaps",
    "lift_area",
    "lle",
    "load_config",
    "local_smacof",
    "loess_surface",
    "order_by_first_coordinate",
    "parse_config",
    "partial_agreement",
    "pca",
    "psi",
    "rank_structure",
    "ranks_from_config",
    "read_per_item",
    "read_profile",
    "render_heatmap",
    "render_lift",
    "render_loess_overlay",
    "render_scatter",
    "run_pipeline",
    "run_reduction",
    "smacof",
    "weighted_psi",
    "write_configuration",
    "write_per_item",
    "write_profile",
]


def __getattr__(name):
    # every public name not bound above is a reducer's, from drqa.dimred
    if name in __all__:
        from . import dimred

        return getattr(dimred, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
