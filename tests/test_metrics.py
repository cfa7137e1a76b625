"""AUROC vs. a pairwise-counting oracle, grid aggregation, report emission."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logicad.metrics import (
    MetricError,
    TaskReport,
    aggregate,
    auroc,
    emit_report,
    make_task_report,
)
from logicad.scenes import Condition, Label


def _pairwise_auroc(scores, labels):
    """Count normal/anomaly pairs directly; ties contribute one half."""
    normals = [s for s, l in zip(scores, labels) if l == "normal"]
    anomalies = [s for s, l in zip(scores, labels) if l != "normal"]
    wins = 0.0
    for n in normals:
        for a in anomalies:
            if n > a:
                wins += 1.0
            elif n == a:
                wins += 0.5
    return wins / (len(normals) * len(anomalies))


def _auroc(scores, labels):
    """``auroc`` over the normal and the anomaly scores of ``labels``."""
    scores = np.asarray(scores, dtype=np.float64)
    is_normal = np.array([l == "normal" for l in labels])
    return auroc(scores[is_normal], scores[~is_normal])


def test_auroc_matches_pairwise_counting_on_random_instances():
    rng = np.random.default_rng(60)
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        labels = ["normal" if b else "anomaly"
                  for b in rng.random(n) < rng.uniform(0.2, 0.8)]
        if "normal" not in labels:
            labels[0] = "normal"
        if "anomaly" not in labels:
            labels[-1] = "anomaly"
        # quantize some instances so ties actually occur
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        assert _auroc(scores, labels) == _pairwise_auroc(scores, labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0]),
                          st.booleans()), min_size=2, max_size=60))
def test_auroc_equals_pairwise_counting_under_heavy_ties(cases):
    """Scores from five values (0.0 and -0.0 among them) tie in most pairs."""
    labels = ["normal" if normal else "anomaly" for _, normal in cases]
    assume("normal" in labels and "anomaly" in labels)
    scores = [score for score, _ in cases]
    assert _auroc(scores, labels) == _pairwise_auroc(scores, labels)


def test_auroc_known_small_instances():
    assert auroc([0.9, 0.8], [0.3, 0.2]) == 1.0
    assert auroc([0.2, 0.3], [0.8, 0.9]) == 0.0
    assert auroc([0.5], [0.5]) == 0.5
    # two of the four normal/anomaly pairs are correctly ordered
    scores = [0.7, 0.4, 0.5, 0.6]
    labels = ["normal", "normal", "anomaly", "anomaly"]
    assert _auroc(scores, labels) == 0.5
    assert _pairwise_auroc(scores, labels) == 0.5


def test_auroc_needs_both_classes():
    with pytest.raises(MetricError, match="at least one sample of each class"):
        auroc([0.9, 0.8], [])
    with pytest.raises(MetricError, match="at least one sample of each class"):
        auroc([], [0.9, 0.8])


def test_auroc_is_invariant_to_monotone_transforms_and_order():
    rng = np.random.default_rng(61)
    scores = rng.random(80)
    labels = ["normal" if b else "anomaly" for b in rng.random(80) < 0.5]
    labels[0], labels[1] = "normal", "anomaly"
    base = _auroc(scores, labels)
    assert _auroc(np.exp(3.0 * scores), labels) == base
    perm = rng.permutation(80)
    assert _auroc(scores[perm], [labels[i] for i in perm]) == base


def test_task_report_subsets_compare_normals_to_each_violation_type():
    scores = [0.9, 0.8, 0.7, 0.3, 0.6, 0.1]
    labels = [Label.NORMAL, Label.NORMAL, Label.NORMAL,
              Label.SINGLE_A, Label.SINGLE_B, Label.DUAL]
    report = make_task_report("sticks", Condition.WHITE_BG, scores, labels)
    assert report.task_id == "sticks-white_bg"
    assert report.subset_auroc[Label.SINGLE_A] == 1.0
    assert report.subset_auroc[Label.DUAL] == 1.0
    # the singleB anomaly at 0.6 sits below all three normals
    assert report.subset_auroc[Label.SINGLE_B] == 1.0


def test_task_report_of_one_class_names_the_task():
    for labels in ([Label.NORMAL] * 3, [Label.SINGLE_A, Label.DUAL]):
        with pytest.raises(MetricError,
                           match="^sticks-white_bg: AUROC needs at least one"):
            make_task_report("sticks", Condition.WHITE_BG,
                             [0.5] * len(labels), labels)


def _report(scenario, condition, value):
    return TaskReport(scenario, condition, value, {})


def test_condition_mean_aggregation_matches_published_style_summary():
    values = {
        Condition.WHITE_BG: 0.825,
        Condition.CABLE_BG: 0.811,
        Condition.MESH_BG: 0.848,
        Condition.LOWLIGHT_CD: 0.842,
        Condition.BLURRY_CD: 0.826,
    }
    reports = [_report("solo", c, v) for c, v in values.items()]
    agg = aggregate(reports)
    assert 0.830 <= round(agg.mean_of_means, 4) <= 0.831
    assert 0.013 <= agg.std_of_means <= 0.014
    assert agg.condition_means[Condition.MESH_BG] == 0.848


def test_scenario_sensitivity_is_the_population_std_across_conditions():
    values = [0.8, 0.8, 0.8, 0.8, 0.9]
    reports = [_report("solo", c, v) for c, v in zip(Condition, values)]
    agg = aggregate(reports)
    assert abs(agg.scenario_sensitivity["solo"] - 0.04) < 1e-12


def test_aggregate_averages_conditions_over_scenarios():
    reports = [
        _report("a", Condition.WHITE_BG, 1.0),
        _report("b", Condition.WHITE_BG, 0.5),
        _report("a", Condition.MESH_BG, 0.8),
        _report("b", Condition.MESH_BG, 0.6),
    ]
    agg = aggregate(reports)
    assert abs(agg.condition_means[Condition.WHITE_BG] - 0.75) < 1e-12
    assert abs(agg.condition_means[Condition.MESH_BG] - 0.7) < 1e-12
    assert abs(agg.mean_of_means - 0.725) < 1e-12
    assert abs(agg.scenario_means["a"] - 0.9) < 1e-12


def test_emit_report_is_byte_deterministic_in_both_formats():
    reports = [_report(s, c, 0.81 + 0.01 * i)
               for i, (s, c) in enumerate(
                   (s, c) for s in ("alpha", "beta") for c in Condition)]
    agg = aggregate(reports)
    for fmt in ("csv", "markdown"):
        assert emit_report(agg, fmt) == emit_report(agg, fmt)
    csv = emit_report(agg, "csv")
    assert csv.splitlines()[0] == "condition,mean_auroc"
    assert "mean_of_means" in csv and "sensitivity_std" in csv
    md = emit_report(agg, "markdown")
    assert md.startswith("| Condition | Mean AUROC |")
    assert "| White BG |" in md and "| alpha |" in md
