"""Image-level AUROC and the benchmark's aggregation views.

AUROC is rank-based (Mann-Whitney with average ranks for ties), oriented
so that normals scoring above anomalies gives 1.0.  Aggregation produces
per-condition means over scenarios, the mean and population standard
deviation of the five condition means, and per-scenario sensitivity (the
population standard deviation of a scenario's AUROC across conditions).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .scenes import Condition, Label


class MetricError(ValueError):
    pass


def average_ranks(scores) -> np.ndarray:
    """1-based ranks of ``scores``; each tie group shares its mean rank.

    A tie group occupying sorted positions ``first .. last - 1`` gets rank
    ``(first + last + 1) / 2``.  Every rank is an integer or a half, so the
    result is exact in float64.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    first = np.searchsorted(ordered, ordered, side="left")
    last = np.searchsorted(ordered, ordered, side="right")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = (first + last + 1) / 2.0
    return ranks


def auroc(scores, is_normal) -> float:
    """Probability that a random normal outscores a random anomaly (ties 1/2).

    ``is_normal`` is a boolean mask, True for a normal sample.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_normal = np.asarray(is_normal)
    n_normal = int(is_normal.sum())
    n_anomaly = len(scores) - n_normal
    if n_normal == 0 or n_anomaly == 0:
        raise MetricError("AUROC needs at least one sample of each class")
    if np.isnan(scores).any():
        raise MetricError("AUROC needs scores that are not NaN")
    ranks = average_ranks(scores)
    rank_sum = float(ranks[is_normal].sum())
    return (rank_sum - n_normal * (n_normal + 1) / 2.0) / (n_normal * n_anomaly)


@dataclass(frozen=True)
class TaskReport:
    task_id: str
    scenario_id: str
    condition: Condition
    auroc: float
    subset_auroc: dict[Label, float]


def make_task_report(task_id: str, scenario_id: str, condition: Condition,
                     scores, labels) -> TaskReport:
    """Build a per-task report from test scores and their labels.

    ``labels`` are Label values; subsets compare all test normals against
    each violation subset's anomalies.  An AUROC that cannot be computed
    raises ``MetricError`` naming the task.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = list(labels)
    normal_mask = np.array([l == Label.NORMAL for l in labels], dtype=bool)
    try:
        overall = auroc(scores, normal_mask)
    except MetricError as exc:
        raise MetricError(f"{task_id}: {exc}") from None
    subset = {}
    for sub in (Label.SINGLE_A, Label.SINGLE_B, Label.DUAL):
        sub_mask = np.array([l == sub for l in labels], dtype=bool)
        if sub_mask.any():
            keep = normal_mask | sub_mask
            subset[sub] = auroc(scores[keep], normal_mask[keep])
    return TaskReport(
        task_id=task_id,
        scenario_id=scenario_id,
        condition=condition,
        auroc=overall,
        subset_auroc=subset,
    )


def _population_std(values) -> float:
    return float(np.std(np.asarray(values, dtype=np.float64)))


@dataclass(frozen=True)
class AggregateReport:
    condition_means: dict[Condition, float]
    mean_of_means: float
    std_of_means: float
    scenario_sensitivity: dict[str, float]
    scenario_means: dict[str, float]


def aggregate(reports: list[TaskReport]) -> AggregateReport:
    """Aggregate per-task AUROC over a scenario x condition grid.

    ``reports`` hold one report per cell of a full grid, as both callers
    build them from ``PipelineConfig.tasks()``.
    """
    scenario_ids = sorted({r.scenario_id for r in reports})
    conditions = sorted({r.condition for r in reports}, key=lambda c: c.value)
    auroc_of = {(r.scenario_id, r.condition): r.auroc for r in reports}
    condition_means = {
        c: float(np.mean([auroc_of[(s, c)] for s in scenario_ids]))
        for c in conditions
    }
    means = list(condition_means.values())
    by_scenario = {s: [auroc_of[(s, c)] for c in conditions]
                   for s in scenario_ids}
    return AggregateReport(
        condition_means=condition_means,
        mean_of_means=float(np.mean(means)),
        std_of_means=_population_std(means),
        scenario_sensitivity={s: _population_std(v)
                              for s, v in by_scenario.items()},
        scenario_means={s: float(np.mean(v)) for s, v in by_scenario.items()},
    )


_CONDITION_TITLES = {
    Condition.WHITE_BG: "White BG",
    Condition.CABLE_BG: "Cable BG",
    Condition.MESH_BG: "Mesh BG",
    Condition.LOWLIGHT_CD: "Low-light CD",
    Condition.BLURRY_CD: "Blurry CD",
}


def emit_report(agg: AggregateReport, fmt: str) -> str:
    """Byte-deterministic CSV (``fmt`` "csv") or markdown of the aggregate."""
    conditions = sorted(agg.condition_means, key=lambda c: c.value)
    scenarios = sorted(agg.scenario_sensitivity)
    if fmt == "csv":
        out = io.StringIO()
        out.write("condition,mean_auroc\n")
        for c in conditions:
            out.write(f"{c.value},{agg.condition_means[c]:.6f}\n")
        out.write(f"mean_of_means,{agg.mean_of_means:.6f}\n")
        out.write(f"std_of_means,{agg.std_of_means:.6f}\n")
        out.write("\nscenario,mean_auroc,sensitivity_std\n")
        for s in scenarios:
            out.write(f"{s},{agg.scenario_means[s]:.6f},"
                      f"{agg.scenario_sensitivity[s]:.6f}\n")
        return out.getvalue()
    out = io.StringIO()
    out.write("| Condition | Mean AUROC |\n|---|---|\n")
    for c in conditions:
        out.write(f"| {_CONDITION_TITLES[c]} | {agg.condition_means[c]:.3f} |\n")
    out.write(f"| Mean ± Std | {agg.mean_of_means:.3f} ± "
              f"{agg.std_of_means:.3f} |\n")
    out.write("\n| Scenario | Mean AUROC | Sensitivity (std) |\n|---|---|---|\n")
    for s in scenarios:
        out.write(f"| {s} | {agg.scenario_means[s]:.3f} | "
                  f"{agg.scenario_sensitivity[s]:.3f} |\n")
    return out.getvalue()
