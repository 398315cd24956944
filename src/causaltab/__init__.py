"""Constraint-based causal analysis of mixed-type clinical tables.

Learns a causal graph with prior-knowledge constraints, quantifies edge
strengths by covariate adjustment, ranks outcome-linked features with
bivariate tests, and distills the causal features into a depth-limited
decision tree validated against a random-feature permutation baseline.

The package namespace holds the library entry points and the types they
return; everything else is imported from its module.
"""

from .data import Dataset, DatasetView, complete_cases, load_csv
from .discovery import FciResult, LearnConfig, run_fci
from .effects import EffectEstimate, estimate_effect
from .graph import PriorKnowledge
from .pipeline import PipelineConfig, PipelineReport, run_full, write_report
from .tree import Metrics, PermutationResult, TreeNode, fit_tree, kfold_cv, permutation_baseline

__version__ = "0.1.0"
