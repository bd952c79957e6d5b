"""Metric-name pre-clustering (k-Shape initialization).

Developers name related metrics consistently ("cpu_usage",
"cpu_usage_percentile"), so grouping metric *names* gives a good
starting assignment for k-Shape: Sieve replaces the default random
initialization with clusters built from Jaro name similarity
(Section 3.2), cutting the iterations to convergence.  The final
clustering does not depend on names -- they only seed the iteration.

The grouping is complete-linkage agglomerative clustering over the
pairwise Jaro distance matrix, cut at ``k`` clusters.
"""

from __future__ import annotations

import numpy as np

from repro.stats.strings import jaro


def name_distance_matrix(names: list[str]) -> np.ndarray:
    """Pairwise Jaro distances between metric names."""
    n = len(names)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - jaro(names[i], names[j])
            out[i, j] = d
            out[j, i] = d
    return out


def name_based_labels(names: list[str], k: int) -> np.ndarray:
    """Initial cluster labels from name similarity, exactly ``k`` groups.

    Labels are re-indexed to ``0 .. k-1``.  For ``k == 1`` or a single
    name, everything lands in cluster 0.
    """
    n = len(names)
    if n == 0:
        raise ValueError("no names to cluster")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"cannot form {k} groups from {n} names")
    if k == 1 or n == 1:
        return np.zeros(n, dtype=int)

    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    distances = name_distance_matrix(names)
    condensed = squareform(distances, checks=False)
    tree = linkage(condensed, method="complete")
    raw = fcluster(tree, t=k, criterion="maxclust")

    # fcluster may return fewer than k groups when distances tie; split
    # the largest groups until we reach exactly k.
    labels = np.asarray(raw, dtype=int) - 1
    unique = np.unique(labels)
    next_label = int(labels.max()) + 1
    while unique.size < k:
        sizes = {c: int(np.sum(labels == c)) for c in unique}
        biggest = max(sizes, key=sizes.get)
        members = np.flatnonzero(labels == biggest)
        if members.size < 2:
            break  # cannot split further; k-Shape repairs empties itself
        half = members[: members.size // 2]
        labels[half] = next_label
        next_label += 1
        unique = np.unique(labels)

    # Re-index compactly.
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(int)
