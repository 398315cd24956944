"""Per-layer tracing from outside the program.

The tracer replaces public functions of causaltab's layers with timing
wrappers, at the module attribute where each caller looks them up, and
restores the originals afterwards. Nothing under ``src/`` is edited.

Spans are aggregated in memory by (name, parent name): a run makes up to
millions of CI-test calls, so individual spans are not kept. Span times
are inclusive; ``self_seconds`` subtracts the spans recorded directly
beneath a span.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from itertools import combinations


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def timed(self, name, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result, args)`` runs after it returns."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failures"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                rec = self.spans[(name, parent)]
                rec[0] += 1
                rec[1] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.timed(name, original, on_result))

    def patch_factory(self, module, attr: str, name: str) -> None:
        """Wrap the callables a factory returns (the CI-test closures)."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))

        def factory(*args, **kwargs):
            return self.timed(name, original(*args, **kwargs))

        setattr(module, attr, factory)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reading --------------------------------------------------------------

    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(
            rec[0] for (n, p), rec in self.spans.items() if n == name and parent in ("*", p)
        )

    def seconds(self, name: str, parent: str | None = "*") -> float:
        return sum(
            rec[1] for (n, p), rec in self.spans.items() if n == name and parent in ("*", p)
        )

    def self_seconds(self, name: str) -> float:
        below = sum(rec[1] for (_, p), rec in self.spans.items() if p == name)
        return self.seconds(name) - below


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from causaltab import cli, discovery, effects, pipeline, tree

    def count_tree_nodes(result, _args):
        tracer.counts["tree.nodes"] += sum(1 for _ in tree.iter_nodes(result))

    def count_trials(result, _args):
        tracer.counts["tree.trials"] += len(result.trials)

    def skeleton_removals(result, _args):
        # every skeleton test above alpha removes exactly one pair, and
        # prior-forbidden pairs are removed without a test
        n_pairs = sum(1 for _ in combinations(result.graph.nodes, 2))
        removed = n_pairs - len(result.knowledge_removed) - result.graph.n_edges
        tracer.counts["discovery.ci_removals"] += removed

    def pdsep_removals(result, args):
        tracer.counts["discovery.ci_removals"] += args[0].n_edges - result.graph.n_edges

    p = tracer.patch
    p(cli, "main", "cli.main")
    p(cli, "load_csv", "data.load_csv")
    p(cli, "run_full", "pipeline.run_full")
    p(cli, "write_report", "pipeline.write_report")
    p(cli, "step1_per_category", "pipeline.step1")
    p(pipeline, "step1_per_category", "pipeline.step1")
    p(pipeline, "step2_integrated", "pipeline.step2")
    p(pipeline, "step3_predictive", "pipeline.step3")

    p(pipeline, "run_fci", "discovery.run_fci")
    p(discovery, "run_fci", "discovery.run_fci")
    p(discovery, "learn_skeleton", "discovery.skeleton", skeleton_removals)
    p(discovery, "possible_dsep_prune", "discovery.pdsep", pdsep_removals)
    p(discovery, "orient_v_structures", "discovery.orient")
    p(discovery, "apply_orientation_rules", "discovery.orient")
    tracer.patch_factory(discovery, "mixed_ci_test", "discovery.ci_test")
    tracer.patch_factory(discovery, "oracle_ci_test", "discovery.ci_test")

    p(discovery, "fisher_z_from_correlation", "stats.fisher_z")
    p(discovery, "g_squared_test", "stats.g2")
    p(effects, "ols", "stats.ols")
    p(pipeline, "fisher_exact", "stats.fisher_exact")

    p(pipeline, "annotate_strengths", "effects.annotate")
    p(pipeline, "effect_table", "effects.effect_table")
    p(effects, "estimate_effect", "effects.estimate_effect")

    for module in (pipeline, tree):
        p(module, "fit_tree", "tree.fit_tree", count_tree_nodes)
        p(module, "kfold_cv", "tree.kfold_cv")
        p(module, "evaluate", "tree.evaluate")
    p(pipeline, "permutation_baseline", "tree.permutation_baseline", count_trials)
    p(tree, "complete_cases", "data.complete_cases")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op means of the traced layers, plus ratios of run totals."""
    per_op = {
        "pipeline.step1_s": tracer.seconds("pipeline.step1"),
        "pipeline.step2_s": tracer.seconds("pipeline.step2"),
        "pipeline.step3_s": tracer.seconds("pipeline.step3"),
        "pipeline.write_report_s": tracer.seconds("pipeline.write_report"),
        "cli.self_s": tracer.self_seconds("cli.main"),
        "data.load_csv_s": tracer.seconds("data.load_csv"),
        "data.complete_cases_calls": tracer.calls("data.complete_cases"),
        "data.complete_cases_s": tracer.seconds("data.complete_cases"),
        "discovery.run_fci_calls": tracer.calls("discovery.run_fci"),
        "discovery.skeleton_s": tracer.seconds("discovery.skeleton"),
        "discovery.pdsep_s": tracer.seconds("discovery.pdsep"),
        # v-structures re-oriented inside the pd-sep stage count there
        "discovery.orient_s": tracer.seconds("discovery.orient", "discovery.run_fci"),
        "discovery.ci_tests": tracer.calls("discovery.ci_test"),
        "discovery.ci_test_s": tracer.seconds("discovery.ci_test"),
        "stats.fisher_z_calls": tracer.calls("stats.fisher_z"),
        "stats.fisher_z_s": tracer.seconds("stats.fisher_z"),
        "stats.g2_calls": tracer.calls("stats.g2"),
        "stats.g2_s": tracer.seconds("stats.g2"),
        "stats.ols_calls": tracer.calls("stats.ols"),
        "stats.ols_s": tracer.seconds("stats.ols"),
        "stats.fisher_exact_calls": tracer.calls("stats.fisher_exact"),
        "stats.fisher_exact_s": tracer.seconds("stats.fisher_exact"),
        "stats.fisher_exact_failures": tracer.counts["stats.fisher_exact.failures"],
        "effects.annotate_s": tracer.seconds("effects.annotate"),
        "effects.effect_table_s": tracer.seconds("effects.effect_table"),
        "effects.estimate_effect_calls": tracer.calls("effects.estimate_effect"),
        "tree.fit_tree_calls": tracer.calls("tree.fit_tree"),
        "tree.fit_tree_s": tracer.seconds("tree.fit_tree"),
        "tree.kfold_cv_s": tracer.seconds("tree.kfold_cv"),
        "tree.evaluate_s": tracer.seconds("tree.evaluate"),
        "tree.permutation_baseline_s": tracer.seconds("tree.permutation_baseline"),
        "tree.nodes": tracer.counts["tree.nodes"],
        "tree.trials": tracer.counts["tree.trials"],
        "tree.draw_attempts": tracer.calls("data.complete_cases", "tree.permutation_baseline"),
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    tests = tracer.calls("discovery.ci_test")
    out["discovery.ci_removal_ratio"] = tracer.counts["discovery.ci_removals"] / tests if tests else 0.0
    attempts = per_op["tree.draw_attempts"]
    out["tree.draw_accept_ratio"] = tracer.counts["tree.trials"] / attempts if attempts else 0.0
    return out
