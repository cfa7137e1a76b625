"""Tests of the benchmark's own logic: percentiles, span self time, output checks.

    python3 -m pytest perfbench
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

import outputs
import probes
import spans

HERE = Path(__file__).resolve().parent


# --- percentile rule -------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 51))
    random.Random(0).shuffle(values)
    assert spans.tail_percentile(values) == (80.0, 40)
    assert spans.tail_percentile(range(20)) == (50.0, 9)


def test_tail_percentile_needs_ten_samples_above_the_median():
    assert spans.tail_percentile(range(19)) is None
    assert spans.tail_percentile([]) is None


def test_tail_percentile_counts_only_samples_strictly_beyond():
    # 40 tied low values, 10 distinct high ones: only the tie leaves ten beyond
    assert spans.tail_percentile([1.0] * 40 + list(range(2, 12))) == (80.0, 1.0)
    # 9 distinct high values are not enough
    assert spans.tail_percentile([1.0] * 41 + list(range(2, 11))) is None


# --- span self time --------------------------------------------------------

def test_covered_merges_overlapping_children_and_clips_to_the_parent():
    assert spans.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert spans.covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1.0)
    assert spans.covered([(-5, -1), (11, 12)], 0, 10) == 0.0
    assert spans.covered([], 0, 10) == 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    recorded = {
        (0, 0): spans.Span("pipeline.run_benchmark", 0.0, 10.0, None),
        # two task spans overlap in time
        (0, 1): spans.Span("pipeline.run_task", 1.0, 6.0, (0, 0)),
        (0, 2): spans.Span("pipeline.run_task", 2.0, 9.0, (0, 0)),
        (0, 3): spans.Span("describe.parse", 2.5, 3.0, (0, 2)),
    }
    summary = spans.summarize(recorded)
    assert summary["pipeline.run_benchmark"].self_s == pytest.approx(2.0)
    assert summary["pipeline.run_task"].calls == 2
    assert summary["pipeline.run_task"].total_s == pytest.approx(12.0)
    assert summary["pipeline.run_task"].self_s == pytest.approx(11.5)
    assert sorted(summary["pipeline.run_task"].durations) == [5.0, 7.0]


def test_total_time_counts_only_outermost_spans_of_a_name():
    recorded = {
        (0, 0): spans.Span("describe.parse", 0.0, 4.0, None),
        (0, 1): spans.Span("describe.parse", 1.0, 2.0, (0, 0)),
    }
    summary = spans.summarize(recorded)
    assert summary["describe.parse"].calls == 2
    assert summary["describe.parse"].total_s == pytest.approx(4.0)
    assert summary["describe.parse"].self_s == pytest.approx(4.0)


def test_recorder_spans_survive_flush_and_load(tmp_path):
    rec = spans.Recorder(tmp_path)
    outer = rec.open("cli.main")
    inner = rec.open("describe.parse")
    rec.close(inner)
    rec.count("knn.scored", 3)
    rec.close(outer)
    again = rec.open("describe.parse")
    rec.close(again)
    rec.flush()
    recorded, counters = spans.load(tmp_path)
    assert counters == {"knn.scored": 3.0}
    assert {key: (s.name, s.parent) for key, s in recorded.items()} == {
        (0, 0): ("cli.main", None),
        (0, 1): ("describe.parse", (0, 0)),
        (0, 2): ("describe.parse", None),
    }
    assert all(s.end >= s.start for s in recorded.values())


# --- correctness check -----------------------------------------------------

def _write_outputs(out: Path, seed: int) -> None:
    """A complete, self-consistent output directory with made-up scores."""
    rng = np.random.default_rng(seed)
    per_condition = {c: [] for c in outputs.CONDITIONS}
    out.mkdir()
    for task in outputs.task_ids():
        condition = task.split("-", 1)[1]
        labels = ["normal"] * 6 + ["singleA"] * 4
        scores = [float(x) for x in rng.random(len(labels))]
        normal = [s for s, lab in zip(scores, labels) if lab == "normal"]
        anomaly = [s for s, lab in zip(scores, labels) if lab != "normal"]
        per_condition[condition].append(outputs.auroc(normal, anomaly))
        with open(out / f"{task}.scores.jsonl", "w", encoding="utf-8") as fh:
            for i, (label, score) in enumerate(zip(labels, scores)):
                fh.write(json.dumps({"label": label, "sample_id": f"s{i}",
                                     "score": score}, sort_keys=True) + "\n")
        for suffix in (".scenes.jsonl", ".descriptions.jsonl", ".pairs.jsonl", ".loss.txt"):
            (out / f"{task}{suffix}").write_text(f"{task}{suffix}\n", encoding="utf-8")
        np.savez(out / f"{task}.ckpt.npz", proj_w=rng.random((2, 2)))
    means = {c: float(np.mean(v)) for c, v in per_condition.items()}
    rows = [f"{c},{m:.6f}" for c, m in sorted(means.items())]
    rows += [f"mean_of_means,{np.mean(list(means.values())):.6f}",
             f"std_of_means,{np.std(list(means.values())):.6f}"]
    (out / outputs.REPORT).write_text("condition,mean_auroc\n" + "\n".join(rows) + "\n",
                                      encoding="utf-8")


def test_check_accepts_consistent_outputs(tmp_path):
    _write_outputs(tmp_path / "out", seed=7)
    mean, problems = outputs.check(tmp_path / "out", "frozen", seed=7)
    assert problems == []
    assert 0.0 <= mean <= 1.0


def test_check_rejects_a_report_that_disagrees_with_the_score_files(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out, seed=7)
    report = out / outputs.REPORT
    lines = report.read_text().splitlines()
    lines = [f"mean_of_means,{float(line.split(',')[1]) + 0.01:.6f}"
             if line.startswith("mean_of_means") else line for line in lines]
    report.write_text("\n".join(lines) + "\n")
    _, problems = outputs.check(out, "frozen", seed=7)
    assert any("score files give" in p for p in problems)


def test_check_rejects_an_auroc_off_the_pinned_table(tmp_path):
    _write_outputs(tmp_path / "out", seed=0)
    _, problems = outputs.check(tmp_path / "out", "trained", seed=0)
    assert any("reference 0.9681 +/- 0.0238" in p for p in problems)


def test_check_applies_the_trained_floor_at_unpinned_seeds(tmp_path):
    _write_outputs(tmp_path / "out", seed=3)  # random scores: AUROC near 0.5
    _, problems = outputs.check(tmp_path / "out", "trained", seed=3)
    assert any("below the floor" in p for p in problems)


def test_check_rejects_missing_files(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out, seed=7)
    (out / "balls-white_bg.pairs.jsonl").unlink()
    _, problems = outputs.check(out, "frozen", seed=7)
    assert problems == ["missing 1 output files, first balls-white_bg.pairs.jsonl"]


def test_digests_catch_a_tampered_file(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out, seed=7)
    before = outputs.manifest(out)
    assert outputs.compare(outputs.manifest(out), before) == []
    path = out / "tools-mesh_bg.descriptions.jsonl"
    path.write_text(path.read_text() + " ", encoding="utf-8")
    assert outputs.compare(outputs.manifest(out), before) == [
        "1 output files differ from an earlier run, first tools-mesh_bg.descriptions.jsonl"]


def test_stored_digests_catch_a_changed_checkpoint(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out, seed=7)
    reference = tmp_path / "digests" / "frozen-seed7.json"
    assert outputs.check_digests(out, reference) == []  # first run stores
    assert outputs.check_digests(out, reference) == []
    np.savez(out / "balls-blurry_cd.ckpt.npz", proj_w=np.zeros((2, 2)))
    assert outputs.check_digests(out, reference) == [
        "1 output files differ from an earlier run, first balls-blurry_cd.ckpt.npz"]
    (out / "balls-blurry_cd.ckpt.npz").write_bytes(b"not a zip")
    assert outputs.check_digests(out, reference)[0].startswith("output files unreadable")


def test_checkpoints_compare_by_array_content(tmp_path):
    first, second, third = (tmp_path / f"{n}.ckpt.npz" for n in "abc")
    np.savez(first, w=np.arange(4.0), v=np.int64(1))
    np.savez(second, v=np.int64(1), w=np.arange(4.0))
    np.savez(third, w=np.arange(4.0) + 1e-12, v=np.int64(1))
    assert outputs.file_digest(first) == outputs.file_digest(second)
    assert outputs.file_digest(first) != outputs.file_digest(third)


# --- BENCHMARK.json and layers.json agree with the code ----------------------

def test_every_per_layer_metric_has_a_layer_an_end_to_end_metric_and_a_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for name, entry in layers.items():
        assert set(entry) == {"layer", "moves", "workload"}, name
        assert name.split(".")[0] == entry["layer"], name
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["workload"]) <= workloads, name


def test_layer_metrics_produce_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    computed = set(probes.layer_metrics({}, {}, emit_bytes=0))
    assert computed | {"trace.wall_s", "trace.overhead_s"} == set(layers)
