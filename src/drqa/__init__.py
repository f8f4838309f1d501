"""Rank-based agreement between high-dimensional data and its embeddings.

The package measures how well a dimensionality-reduction result keeps
each item's neighbors: build rank structures from configurations or
distance matrices, compare them with agreement profiles and summary
coefficients, reduce with a set of classic methods, and render the
results as deterministic SVG.
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
from .dimred import (
    METHODS,
    DisconnectedGraphError,
    ReductionResult,
    classical_mds,
    geodesic_distances,
    isomap,
    laplacian_eigenmaps,
    lle,
    local_smacof,
    pca,
    run_reduction,
    smacof,
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
