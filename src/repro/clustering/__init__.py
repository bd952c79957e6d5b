"""Metric reduction: k-Shape clustering of per-component metrics.

Sieve's Step #2 (paper Section 3.2): per component, drop unvarying
metrics, reconstruct gaps with cubic splines onto a 500 ms grid,
z-normalize, cluster with k-Shape under the shape-based distance, pick
the cluster count by the best SBD-silhouette, and elect one
*representative metric* per cluster (the member closest to the
centroid).

* :mod:`repro.clustering.kshape` -- the k-Shape algorithm (assignment
  by SBD, shape extraction via the Rayleigh-quotient maximizer).
* :mod:`repro.clustering.preclustering` -- Jaro name-similarity initial
  assignments (Sieve's convergence accelerator).
* :mod:`repro.clustering.model_selection` -- the k sweep by silhouette.
* :mod:`repro.clustering.reduction` -- the end-to-end per-component
  reduction producing :class:`ComponentClustering` objects.
"""

from repro.clustering.kshape import KShapeResult, kshape
from repro.clustering.model_selection import select_k
from repro.clustering.preclustering import name_based_labels
from repro.clustering.reduction import (
    Cluster,
    ComponentClustering,
    reduce_component,
)

__all__ = [
    "Cluster",
    "ComponentClustering",
    "KShapeResult",
    "kshape",
    "name_based_labels",
    "reduce_component",
    "select_k",
]
