"""Information-theoretic clustering comparison (entropy, MI, AMI).

Sieve evaluates the *consistency* of its k-Shape clusterings across
independent measurement runs with the Adjusted Mutual Information score
(Vinh, Epps & Bailey, ICML 2009) -- Figure 3 of the paper.  AMI corrects
plain mutual information for chance agreement:

    AMI(U, V) = (MI(U, V) - E[MI]) / (avg(H(U), H(V)) - E[MI])

so a random labelling scores ~0 and identical partitions score 1.  The
expected mutual information ``E[MI]`` is computed exactly under the
hypergeometric model of random partitions with fixed marginals.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "adjusted_mutual_info",
    "contingency_matrix",
    "entropy",
    "expected_mutual_info",
    "mutual_info",
]


def contingency_matrix(labels_a, labels_b) -> np.ndarray:
    """Contingency table of two labelings of the same items."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be equal-length 1-D sequences")
    if a.size == 0:
        raise ValueError("cannot compare empty labelings")
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)
    return table


def entropy(labels) -> float:
    """Shannon entropy (nats) of a labeling."""
    arr = np.asarray(labels)
    if arr.size == 0:
        raise ValueError("cannot compute entropy of an empty labeling")
    _, counts = np.unique(arr, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p)))


def mutual_info(labels_a, labels_b) -> float:
    """Mutual information (nats) between two labelings."""
    table = contingency_matrix(labels_a, labels_b)
    n = table.sum()
    nz = table > 0
    nij = table[nz].astype(float)
    ai = table.sum(axis=1, keepdims=True).astype(float)
    bj = table.sum(axis=0, keepdims=True).astype(float)
    outer = (ai @ bj)[nz]
    mi = np.sum((nij / n) * (np.log(nij) + np.log(n) - np.log(outer)))
    return float(max(mi, 0.0))


def expected_mutual_info(table: np.ndarray) -> float:
    """Exact E[MI] under random partitions with the table's marginals.

    Follows Vinh et al. (2009), eq. 24a: for every cell ``(i, j)`` sum
    over all feasible co-occurrence counts ``nij`` weighted by the
    hypergeometric probability of observing that count.  Factorials are
    evaluated through ``gammaln`` for numerical stability.
    """
    from scipy.special import gammaln

    table = np.asarray(table, dtype=np.int64)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    n = int(table.sum())
    if n == 0:
        raise ValueError("empty contingency table")

    log_n = np.log(n)
    gln_a = gammaln(a + 1)
    gln_b = gammaln(b + 1)
    gln_na = gammaln(n - a + 1)
    gln_nb = gammaln(n - b + 1)
    gln_n = gammaln(n + 1)

    emi = 0.0
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nijs = np.arange(lo, hi + 1, dtype=np.int64)
            term1 = (nijs / n) * (np.log(nijs) + log_n
                                  - np.log(ai) - np.log(bj))
            log_prob = (
                gln_a[i] + gln_b[j] + gln_na[i] + gln_nb[j]
                - gln_n
                - gammaln(nijs + 1)
                - gammaln(ai - nijs + 1)
                - gammaln(bj - nijs + 1)
                - gammaln(n - ai - bj + nijs + 1)
            )
            emi += float(np.sum(term1 * np.exp(log_prob)))
    return emi


def adjusted_mutual_info(labels_a, labels_b,
                         average_method: str = "arithmetic") -> float:
    """Adjusted Mutual Information between two labelings.

    ``average_method`` selects the normalizer combining the two
    entropies: ``"arithmetic"`` (mean), ``"max"``, ``"min"``, or
    ``"geometric"``.  Two identical partitions score 1.0; independent
    random partitions score approximately 0.0 (can be slightly negative).
    """
    if average_method not in ("arithmetic", "max", "min", "geometric"):
        raise ValueError(f"unknown average_method: {average_method!r}")
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    table = contingency_matrix(a, b)

    # Degenerate partitions (single cluster on both sides, or every item
    # its own cluster on both sides) are perfectly matched by convention.
    if table.shape == (1, 1):
        return 1.0
    if table.shape[0] == a.size and table.shape[1] == a.size:
        return 1.0

    mi = mutual_info(a, b)
    emi = expected_mutual_info(table)
    h_a, h_b = entropy(a), entropy(b)
    if average_method == "arithmetic":
        avg = 0.5 * (h_a + h_b)
    elif average_method == "max":
        avg = max(h_a, h_b)
    elif average_method == "min":
        avg = min(h_a, h_b)
    else:  # "geometric", validated above
        avg = float(np.sqrt(h_a * h_b))

    denom = avg - emi
    if abs(denom) < 1e-15:
        # Both partitions carry no information beyond chance.
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return float((mi - emi) / denom)
