"""Causal effect strengths by covariate adjustment over enumerated parent sets.

For an edge touching x, each locally valid parent set of x yields one
regression coefficient of the target on x (on standardized data); the
reported strength is the average over parent sets, mirroring adjustment
averaged over the graphs compatible with the learned structure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .data import DatasetView
from .errors import NotAdjacentError, UnknownNodeError
from .graph import ARROW, CIRCLE, MixedGraph
from .stats import ols

__all__ = [
    "EffectEstimate",
    "enumerate_parent_sets",
    "estimate_effect",
    "annotate_strengths",
    "effect_table",
]


@dataclass(frozen=True)
class EffectEstimate:
    source: str
    target: str
    per_dag_effects: tuple[float, ...]
    mean_effect: float


def enumerate_parent_sets(g: MixedGraph, x: str) -> list[frozenset[str]]:
    """Distinct locally valid parent sets of x across orientations of its circle edges.

    Neighbors with an arrowhead into x are parents in every extension,
    also across an edge with arrowheads at both ends. Circle-marked
    neighbors are toggled in or out, keeping only choices that create no
    new v-structure at x (every toggled-in parent must be adjacent to
    every other chosen parent).
    """
    if not g.has_node(x):
        raise UnknownNodeError(f"unknown node {x!r}")
    definite: list[str] = []
    optional: list[str] = []
    for nb in g.neighbors(x):
        mark = g.mark_at(nb, x, at=x)
        if mark == ARROW:
            definite.append(nb)
        elif mark == CIRCLE:
            optional.append(nb)

    # definite and optional are disjoint, so distinct choices give distinct sets
    out: list[frozenset[str]] = []
    for size in range(len(optional) + 1):
        for chosen in combinations(optional, size):
            valid = True
            for t in chosen:
                for other in definite + list(chosen):
                    if other != t and not g.has_edge(t, other):
                        valid = False
                        break
                if not valid:
                    break
            if valid:
                out.append(frozenset(definite) | frozenset(chosen))
    return out


def estimate_effect(view: DatasetView, g: MixedGraph, x: str, y: str) -> EffectEstimate:
    """Average standardized regression coefficient of x on y over parent sets of x.

    A parent set containing y contributes 0 (y cannot then be downstream
    of x). The regressions read ``view.standardized``, so effects compare
    across variable scales.
    """
    if not g.has_edge(x, y):
        raise NotAdjacentError(f"{x!r} and {y!r} are not adjacent")
    std = view.standardized
    index = view.columns.index
    yv = std[:, index(y)]
    xv = std[:, index(x)]
    effects = []
    for parents in enumerate_parent_sets(g, x):
        if y in parents:
            effects.append(0.0)
            continue
        design = [xv] + [std[:, index(p)] for p in sorted(parents, key=index)]
        beta = ols(yv, np.column_stack(design))
        effects.append(float(beta[1]))
    return EffectEstimate(
        source=x,
        target=y,
        per_dag_effects=tuple(effects),
        mean_effect=float(np.mean(effects)),
    )


def _edge_direction(
    view: DatasetView, g: MixedGraph, u: str, v: str, outcome: str | None
) -> tuple[EffectEstimate, EffectEstimate | None]:
    """(displayed estimate, other-direction estimate or None)."""
    if outcome in (u, v):
        src, dst = (u, v) if v == outcome else (v, u)
        return estimate_effect(view, g, src, dst), None
    fwd = estimate_effect(view, g, u, v)
    rev = estimate_effect(view, g, v, u)
    if abs(rev.mean_effect) > abs(fwd.mean_effect):
        return rev, fwd
    return fwd, rev


def effect_table(
    view: DatasetView, g: MixedGraph, outcome: str | None = None
) -> list[dict]:
    """Per-edge machine records: displayed direction plus the reverse estimate.

    For outcome-adjacent edges the displayed direction is
    feature-on-outcome; other edges display whichever direction has the
    larger absolute mean effect.
    """
    rows = []
    for e in g.edges():
        shown, other = _edge_direction(view, g, e.u, e.v, outcome)
        record = {
            "edge": sorted((e.u, e.v)),
            "displayed": asdict(shown),
            "sign": 0 if shown.mean_effect == 0 else (1 if shown.mean_effect > 0 else -1),
        }
        if other is not None:
            record["reverse"] = asdict(other)
        rows.append(record)
    return rows


def annotate_strengths(g: MixedGraph, table: Iterable[dict]) -> MixedGraph:
    """Copy of g with every edge's strength set to its displayed mean effect."""
    out = g.copy()
    for record in table:
        u, v = record["edge"]
        out.set_strength(u, v, record["displayed"]["mean_effect"])
    return out
