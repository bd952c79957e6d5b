"""Figure 3: clustering consistency across randomized runs (AMI).

The paper loads ShareLatex with random workloads in independent runs,
clusters each component's metrics per run, and reports the pairwise
Adjusted Mutual Information of the assignments per component.  Average
AMI in the paper: 0.597 -- "better than random assignments", i.e. the
clusterings are consistent.
"""

import numpy as np

from repro.clustering import reduce_component
from repro.stats import adjusted_mutual_info

from conftest import print_table

PAPER_MEAN_AMI = 0.597


def _common_label_vectors(clustering_a, clustering_b):
    """Cluster labels over the metrics both runs clustered."""
    labels_a = clustering_a.labels()
    labels_b = clustering_b.labels()
    common = sorted(set(labels_a) & set(labels_b))
    if len(common) < 2:
        return None, None
    return ([labels_a[m] for m in common], [labels_b[m] for m in common])


def test_fig3_ami_consistency(benchmark, sharelatex_repeated_runs):
    def compute():
        clusterings = [
            {
                component: reduce_component(
                    component, loaded.frame.component_view(component),
                    seed=0)
                for component in loaded.frame.components
            }
            for _sieve, loaded in sharelatex_repeated_runs
        ]
        pairs = [(0, 1), (0, 2), (1, 2)]
        scores: dict[str, dict[tuple, float]] = {}
        for i, j in pairs:
            for component in clusterings[i]:
                a, b = _common_label_vectors(
                    clusterings[i][component], clusterings[j][component]
                )
                if a is None:
                    continue
                scores.setdefault(component, {})[(i, j)] = \
                    adjusted_mutual_info(a, b)
        return scores

    scores = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    all_values = []
    for component in sorted(scores):
        per_pair = scores[component]
        values = [per_pair.get(p, float("nan")) for p in
                  [(0, 1), (0, 2), (1, 2)]]
        all_values.extend(v for v in values if not np.isnan(v))
        rows.append([component] + [f"{v:.3f}" for v in values])
    mean_ami = float(np.mean(all_values))
    rows.append(["MEAN", f"{mean_ami:.3f}", "", ""])
    print_table(
        "Figure 3: pairwise AMI of cluster assignments "
        f"(paper mean {PAPER_MEAN_AMI})",
        ["Component", "AMI(1,2)", "AMI(1,3)", "AMI(2,3)"], rows,
    )
    # The paper's bar is "clearly better than random" (AMI ~0 for random).
    assert mean_ami > 0.3
