"""Correctness checks on the files one workload iteration wrote.

An iteration is correct when every one of the 50 tasks has its six files,
the report's mean-of-condition-means and std agree with an AUROC recomputed
here from the score files, the report matches the pinned table for seeds
that have one (the README table at seed 0) or, for trained runs at other
seeds, reaches the AUROC floor, and the output digests equal those of every
other run of the same sources with the same seed and output family.  Checkpoints are compared by
array content because the zip metadata of ``.npz`` files may differ.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
import zipfile
from pathlib import Path

SCENARIOS = ("balls", "blocks", "cookies", "dishes", "fruits", "ropes",
             "stationery", "sticks", "tapes", "tools")
CONDITIONS = ("white_bg", "cable_bg", "mesh_bg", "lowlight_cd", "blurry_cd")
TASK_FILES = (".scenes.jsonl", ".descriptions.jsonl", ".pairs.jsonl",
              ".ckpt.npz", ".loss.txt", ".scores.jsonl")
REPORT = "report.csv"

# master seed -> family -> (mean, std) of the condition means, to 4 decimals
REFERENCE = {0: {"trained": (0.9681, 0.0238), "frozen": (0.8612, 0.0825)}}
TRAINED_AUROC_FLOOR = 0.85
REPORT_TOLERANCE = 1e-6  # report.csv prints 6 decimals


def task_ids() -> list[str]:
    return [f"{s}-{c}" for s in SCENARIOS for c in CONDITIONS]


def file_digest(path: Path) -> str:
    if path.suffix == ".npz":
        import numpy as np

        h = hashlib.sha256()
        with np.load(path) as data:
            for key in sorted(data.files):
                array = data[key]
                h.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
                h.update(np.ascontiguousarray(array).tobytes())
        return "arrays:" + h.hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(out_dir: Path) -> dict[str, str]:
    return {p.name: file_digest(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def auroc(normal_scores: list[float], anomaly_scores: list[float]) -> float:
    """P(normal scores higher than anomaly), ties counting one half."""
    wins = 0.0
    for a in anomaly_scores:
        for n in normal_scores:
            wins += 1.0 if n > a else 0.5 if n == a else 0.0
    return wins / (len(normal_scores) * len(anomaly_scores))


def read_report(path: Path) -> dict[str, float]:
    """The mean_of_means and std_of_means rows of report.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {row[0]: float(row[1]) for row in csv.reader(fh)
                if len(row) == 2 and row[0] in ("mean_of_means", "std_of_means")}


def recomputed_means(out_dir: Path) -> tuple[float, float]:
    """Mean and population std over conditions of the mean per-task AUROC."""
    per_condition = {c: [] for c in CONDITIONS}
    for scenario in SCENARIOS:
        for condition in CONDITIONS:
            normal, anomaly = [], []
            path = out_dir / f"{scenario}-{condition}.scores.jsonl"
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                (normal if record["label"] == "normal" else anomaly).append(record["score"])
            per_condition[condition].append(auroc(normal, anomaly))
    means = [statistics.fmean(v) for v in per_condition.values()]
    return statistics.fmean(means), statistics.pstdev(means)


def check(out_dir: Path, family: str, seed: int) -> tuple[float | None, list[str]]:
    """(report mean AUROC, problems) for one iteration's output directory."""
    expected = {t + suffix for t in task_ids() for suffix in TASK_FILES} | {REPORT}
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    missing = sorted(expected - present)
    if missing:
        return None, [f"missing {len(missing)} output files, first {missing[0]}"]
    try:
        report = read_report(out_dir / REPORT)
    except (OSError, ValueError) as exc:
        return None, [f"{REPORT} unreadable: {exc!r}"]
    mean, std = report.get("mean_of_means"), report.get("std_of_means")
    if mean is None or std is None:
        return None, [f"{REPORT} lacks mean_of_means or std_of_means"]
    problems = []
    try:
        own_mean, own_std = recomputed_means(out_dir)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        problems.append(f"score files unreadable: {exc!r}")
    else:
        if abs(own_mean - mean) > REPORT_TOLERANCE or abs(own_std - std) > REPORT_TOLERANCE:
            problems.append(f"report says {mean:.6f} +/- {std:.6f}, score files give "
                            f"{own_mean:.6f} +/- {own_std:.6f}")
    pinned = REFERENCE.get(seed, {}).get(family)
    if pinned is not None:
        if (f"{mean:.4f}", f"{std:.4f}") != tuple(f"{v:.4f}" for v in pinned):
            problems.append(f"seed {seed} {family} AUROC {mean:.4f} +/- {std:.4f}, "
                            f"reference {pinned[0]:.4f} +/- {pinned[1]:.4f}")
    elif family == "trained" and mean < TRAINED_AUROC_FLOOR:
        problems.append(f"trained AUROC {mean:.4f} below the floor {TRAINED_AUROC_FLOOR}")
    return mean, problems


def compare(current: dict[str, str], earlier: dict[str, str]) -> list[str]:
    """Problems where two runs' digests disagree."""
    differing = sorted(k for k in current.keys() | earlier.keys()
                       if current.get(k) != earlier.get(k))
    if not differing:
        return []
    return [f"{len(differing)} output files differ from an earlier run, first {differing[0]}"]


def check_digests(out_dir: Path, reference: Path) -> list[str]:
    """Compare with the digests stored at ``reference``, or store them there first."""
    try:
        digests = manifest(out_dir)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        return [f"output files unreadable: {exc!r}"]
    if reference.exists():
        return compare(digests, json.loads(reference.read_text(encoding="utf-8")))
    reference.parent.mkdir(parents=True, exist_ok=True)
    reference.write_text(json.dumps(digests, indent=0, sort_keys=True), encoding="utf-8")
    return []
