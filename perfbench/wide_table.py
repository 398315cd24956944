"""Seeded wide mixed-type table: 100 features x 2000 rows plus a binary outcome.

The table's content is drawn once from ``TABLE_SEED``; the workload seed
shuffles its rows and its column order (categories included). Tables
drawn from different generator seeds differ up to 2x in the CI tests
they need, because each spurious edge between blocks merges two blocks'
possible-d-sep sets; a shuffle keeps the work within about 2%.

The features come from a random linear DAG. Its shape is fixed and only
its placement, coefficients and signs are drawn:

* each of the 4 categories holds 25 columns in blocks of 8, 8 and 9;
* inside a block, the node at position k has parents k-1 and k-3, which
  makes an unshielded collider at almost every node and gives the
  possible-d-sep stage real work, bounded by the block size;
* one node of each category has two children in the next category's
  middle block, a latent confounder for the per-category graphs;
* the outcome depends on two nodes of each category's first block.

Categories: two continuous, one all-binary (G^2 tests only), and one of
binary plus 3-level ordinal columns. 2% of feature cells are missing
completely at random.
"""

from __future__ import annotations

import numpy as np

N_ROWS = 2000
CATEGORIES = ("labs_a", "labs_b", "history", "exam")
BLOCKS = (8, 8, 9)
PER_CATEGORY = sum(BLOCKS)
N_BINARY_IN_EXAM = 13
MISSING_SHARE = 0.02
OUTCOME = "OUTCOME"
#: The generator seed of the table's content. Of generator seeds 1 to 5
#: it needs the median number of CI tests in step 1 (22,748).
TABLE_SEED = 3


def _shape(rng: np.random.Generator) -> tuple[list[list[int]], list[int]]:
    """Parent lists over 100 feature indices, plus the outcome's parents."""
    n = PER_CATEGORY * len(CATEGORIES)
    parents: list[list[int]] = [[] for _ in range(n)]
    blocks = []  # per category: list of blocks, each a list of feature indices
    for c in range(len(CATEGORIES)):
        cols = c * PER_CATEGORY + rng.permutation(PER_CATEGORY)
        start = 0
        cat_blocks = []
        for size in BLOCKS:
            block = [int(i) for i in cols[start:start + size]]
            start += size
            for k in range(1, size):
                parents[block[k]].append(block[k - 1])
                if k >= 3:
                    parents[block[k]].append(block[k - 3])
            cat_blocks.append(block)
        blocks.append(cat_blocks)
    for c in range(1, len(CATEGORIES)):
        confounder = blocks[c - 1][2][4]
        for k in (1, 5):
            parents[blocks[c][1][k]].append(confounder)
    outcome_parents = [blocks[c][0][k] for c in range(len(CATEGORIES)) for k in (2, 6)]
    return parents, outcome_parents


def make_wide_table(seed: int):
    """(schema entries, coded columns): the table with rows and columns shuffled by ``seed``."""
    schema, columns = _draw_table(TABLE_SEED)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(N_ROWS)
    features = [schema[i] for i in rng.permutation(len(schema) - 1)]
    return features + schema[-1:], {name: values[rows] for name, values in columns.items()}


def _draw_table(seed: int):
    from causaltab.data import ColumnSchema

    rng = np.random.default_rng(seed)
    parents, outcome_parents = _shape(rng)
    n_feat = len(parents)
    latent = np.zeros((N_ROWS, n_feat))
    done = np.zeros(n_feat, dtype=bool)
    while not done.all():  # categories feed only later ones, so this settles
        for i in range(n_feat):
            if done[i] or not all(done[p] for p in parents[i]):
                continue
            col = rng.standard_normal(N_ROWS)
            for p in parents[i]:
                col += rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 0.9) * latent[:, p]
            latent[:, i] = (col - col.mean()) / col.std()
            done[i] = True
    score = latent[:, outcome_parents] @ rng.uniform(0.5, 1.0, len(outcome_parents))
    score += rng.standard_normal(N_ROWS)
    death = score > np.quantile(score, 0.7)

    schema, columns = [], {}
    for i in range(n_feat):
        category = CATEGORIES[i // PER_CATEGORY]
        pos = i % PER_CATEGORY
        name = f"{category.upper()}_{pos:02d}"
        x = latent[:, i]
        if category.startswith("labs"):
            schema.append(ColumnSchema(name, "continuous", category))
            values = x.copy()
        elif category == "history" or pos < N_BINARY_IN_EXAM:
            schema.append(ColumnSchema(name, "binary", category, levels=("0", "1")))
            values = (x > np.quantile(x, 0.7)).astype(float)
        else:
            schema.append(ColumnSchema(name, "ordinal", category, levels=("0", "1", "2")))
            values = np.digitize(x, (-0.5, 0.5)).astype(float)
        values[rng.random(N_ROWS) < MISSING_SHARE] = np.nan
        columns[name] = values
    schema.append(ColumnSchema(OUTCOME, "binary", "outcome", levels=("death", "recovery")))
    columns[OUTCOME] = np.where(death, 0.0, 1.0)
    return schema, columns
