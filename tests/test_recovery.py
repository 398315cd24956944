"""Pins the recovery scorecard's totals; a change that moves them declares the new ones."""

from recovery import scorecard


def test_recovery_scorecard_totals_over_cohort_seeds_1_to_20():
    assert scorecard()["total"] == {
        "found": 167,
        "missed": 13,
        "false": 18,
        "arrow_at_child": 140,
        "circle_at_child": 27,
        "arrow_at_cause": 26,
        "selected_true": 140,
        "selected_noise": 36,
        "tree_true": 110,
        "tree_noise": 14,
    }
