"""
Visualization gallery
=====================

Render the four plot kinds for one sphere embedding comparison and write
them under demos/out/.
"""

from pathlib import Path

from drqa import (
    ManifoldSpec,
    PlotStyle,
    RenderSpec,
    agreement_profile,
    euclidean_distances,
    generate,
    lle,
    order_by_first_coordinate,
    pca,
    ranks_from_config,
    render_heatmap,
    render_lift,
    render_loess_overlay,
    render_scatter,
    smacof,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

sphere = generate(ManifoldSpec("sphere_random", 300, seed=9))
source_ranks = ranks_from_config(sphere)

flat_pca = pca(sphere, 2).embedding
flat_mds = smacof(euclidean_distances(sphere), 2, seed=9).embedding
flat_lle = lle(sphere, 2, n_neighbors=10).embedding

prof_pca = agreement_profile(source_ranks, ranks_from_config(flat_pca),
                             with_per_item=True)
prof_mds = agreement_profile(source_ranks, ranks_from_config(flat_mds),
                             with_per_item=True)
prof_lle = agreement_profile(source_ranks, ranks_from_config(flat_lle))

# Scatter: embedded positions shaded by each item's mean agreement over
# k = 1..20; the caption carries the panel mean.  Column j of per_item holds
# k = j + 1, so the [:, :20] slice is what picks that k window.
values = prof_pca.per_item[:, :20].mean(axis=1)
(out / "scatter.svg").write_text(render_scatter(flat_pca, values))

# Two embeddings side by side, shaded by the per-item difference.
diff = (prof_pca.per_item[:, :20].mean(axis=1)
        - prof_mds.per_item[:, :20].mean(axis=1))
compare = RenderSpec(comparison="compare")
(out / "scatter_compare.svg").write_text(
    render_scatter([flat_pca, flat_mds], diff, compare))

# Heatmap: items (rows, ordered along the embedding) by neighborhood size;
# columns default to k = 1 up to the matrix width.
order = order_by_first_coordinate(flat_pca)
(out / "heatmap.svg").write_text(
    render_heatmap(prof_pca.per_item[:, :20], item_order=order))

# Loess overlay: a locally weighted regression surface behind the points
# shows where on the map the embedding is trustworthy.
loess_spec = RenderSpec(style=PlotStyle(grid_resolution=40))
(out / "loess.svg").write_text(
    render_loess_overlay(flat_pca, values, loess_spec))

# Lift: above-chance agreement against k, shaded per technique, with the
# random baseline dashed.  Overlap regions blend the technique colors.
lift = render_lift({"pca": prof_pca, "smacof": prof_mds, "lle": prof_lle},
                   RenderSpec())
(out / "lift.svg").write_text(lift)

print("wrote", ", ".join(sorted(p.name for p in out.glob("*.svg"))))
