"""Recovery scorecard: steps 1 and 2 at ``PipelineConfig()`` on the synthetic
cohort, scored against its truth graph.

    PYTHONPATH=src python tests/recovery.py

prints one JSON object: each seed's counts and their totals over seeds 1-20.
A truth edge is found when the step-2 graph joins its two columns; a false
edge is any other step-2 edge. Marks are counted on found truth edges only.
"""

import json

from causaltab.graph import ARROW, CIRCLE
from causaltab.pipeline import PipelineConfig, step1_per_category, step2_integrated
from causaltab.synth import make_clinical_synth

SEEDS = range(1, 21)


def score(seed: int) -> dict[str, int]:
    dataset, truth = make_clinical_synth(seed)
    config = PipelineConfig()
    selected = step1_per_category(dataset, config).selected_features
    step2 = step2_integrated(dataset, selected, config)
    arcs = [(e.u, e.v) if e.is_directed_out_of(e.u) else (e.v, e.u) for e in truth.edges()]
    found = [(x, y) for x, y in arcs if step2.graph.has_edge(x, y)]
    child = [step2.graph.mark_at(x, y, y) for x, y in found]
    cause = [step2.graph.mark_at(x, y, x) for x, y in found]
    true_features = set(truth.nodes) - {dataset.outcome_column()}
    return {
        "found": len(found),
        "missed": truth.n_edges - len(found),
        "false": step2.graph.n_edges - len(found),
        "arrow_at_child": child.count(ARROW),
        "circle_at_child": child.count(CIRCLE),
        "arrow_at_cause": cause.count(ARROW),
        "selected_true": len(true_features.intersection(selected)),
        "selected_noise": len(set(selected) - true_features),
        "tree_true": len(true_features.intersection(step2.tree_features)),
        "tree_noise": len(set(step2.tree_features) - true_features),
    }


def scorecard() -> dict:
    per_seed = {seed: score(seed) for seed in SEEDS}
    return {"seeds": per_seed, "total": {k: sum(s[k] for s in per_seed.values()) for k in per_seed[1]}}


if __name__ == "__main__":
    print(json.dumps(scorecard(), indent=2))
