"""Image-level AUROC and the benchmark's aggregation views.

AUROC is the win rate of normals over anomalies, ties counting 1/2, so
normals scoring above anomalies gives 1.0.  Its scores are finite, as
``read_score_file`` and ``knn.score`` give them.  Aggregation produces
per-condition means over scenarios, the mean and population standard
deviation of the five condition means, and per-scenario sensitivity (the
population standard deviation of a scenario's AUROC across conditions).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .scenes import Condition, Label, task_id_for


class MetricError(ValueError):
    pass


def auroc(normal, anomaly) -> float:
    """Probability that a random normal outscores a random anomaly (ties 1/2).

    Each normal score counts the anomaly scores below it and half of those
    equal to it, by binary search in the sorted anomalies: the counts are
    exact integers, and no (normals x anomalies) array is built.
    """
    normal = np.asarray(normal, dtype=np.float64)
    anomaly = np.sort(np.asarray(anomaly, dtype=np.float64))
    if len(normal) == 0 or len(anomaly) == 0:
        raise MetricError("AUROC needs at least one sample of each class")
    # below + not_above counts each win twice and each tie once
    below = int(np.searchsorted(anomaly, normal, side="left").sum())
    not_above = int(np.searchsorted(anomaly, normal, side="right").sum())
    return (below + not_above) / 2 / (len(normal) * len(anomaly))


@dataclass(frozen=True)
class TaskReport:
    scenario_id: str
    condition: Condition
    auroc: float
    subset_auroc: dict[Label, float]

    @property
    def task_id(self) -> str:
        return task_id_for(self.scenario_id, self.condition)


def make_task_report(scenario_id: str, condition: Condition,
                     scores, labels: list[Label]) -> TaskReport:
    """Build a per-task report from test scores and their labels.

    Overall and per violation subset, the anomalies are compared with all
    test normals.  An AUROC that cannot be computed raises ``MetricError``
    naming the task.
    """
    scores = np.asarray(scores, dtype=np.float64)
    by_label = {label: scores[[l == label for l in labels]] for label in Label}
    normal = by_label.pop(Label.NORMAL)
    try:
        overall = auroc(normal, np.concatenate(list(by_label.values())))
    except MetricError as exc:
        raise MetricError(f"{task_id_for(scenario_id, condition)}: {exc}"
                          ) from None
    return TaskReport(scenario_id, condition, overall,
                      {sub: auroc(normal, anomaly)
                       for sub, anomaly in by_label.items() if len(anomaly)})


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
    build them from ``PipelineConfig.tasks()``.  ``condition_means`` is keyed
    in condition-value order, ``scenario_sensitivity`` and ``scenario_means``
    in scenario-id order; ``emit_report`` writes its rows in these orders.
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
        std_of_means=float(np.std(means)),
        scenario_sensitivity={s: float(np.std(v)) for s, v in by_scenario.items()},
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
    """Byte-deterministic CSV (``fmt`` "csv") or markdown of the aggregate,
    its rows in the order ``aggregate`` keys them."""
    if fmt == "csv":
        out = io.StringIO()
        out.write("condition,mean_auroc\n")
        for c, mean in agg.condition_means.items():
            out.write(f"{c.value},{mean:.6f}\n")
        out.write(f"mean_of_means,{agg.mean_of_means:.6f}\n")
        out.write(f"std_of_means,{agg.std_of_means:.6f}\n")
        out.write("\nscenario,mean_auroc,sensitivity_std\n")
        for s, mean in agg.scenario_means.items():
            out.write(f"{s},{mean:.6f},{agg.scenario_sensitivity[s]:.6f}\n")
        return out.getvalue()
    out = io.StringIO()
    out.write("| Condition | Mean AUROC |\n|---|---|\n")
    for c, mean in agg.condition_means.items():
        out.write(f"| {_CONDITION_TITLES[c]} | {mean:.3f} |\n")
    out.write(f"| Mean ± Std | {agg.mean_of_means:.3f} ± "
              f"{agg.std_of_means:.3f} |\n")
    out.write("\n| Scenario | Mean AUROC | Sensitivity (std) |\n|---|---|---|\n")
    for s, mean in agg.scenario_means.items():
        out.write(f"| {s} | {mean:.3f} | "
                  f"{agg.scenario_sensitivity[s]:.3f} |\n")
    return out.getvalue()
