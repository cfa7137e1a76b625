"""Pipeline orchestration and the command-line interface, end to end."""

import argparse
import ast
import dataclasses
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicad import cli, pipeline, trainer
from logicad.encoder import UNKNOWN_ID, activation_table, encode_texts, tokenize
from logicad.negatives import pair_edits
from logicad.scenarios import SCENARIOS, get_scenario
from logicad.scenes import Condition, Label, SplitCounts, task_id_for
from logicad.trainer import TrainConfig

SMALL = pipeline.PipelineConfig(
    master_seed=0,
    scenario_ids=("tapes",),
    conditions=(Condition.WHITE_BG, Condition.MESH_BG),
    train=TrainConfig(epochs=3, batch_size=8),
    dim=16,
)
SMALL_COUNTS = SplitCounts(8, 8, 4, 4, 2)


def _small_task(condition):
    return pipeline.generate_task(SMALL, "tapes", condition, SMALL_COUNTS)


def test_generate_task_is_deterministic_and_complete():
    a = _small_task(Condition.MESH_BG)
    b = _small_task(Condition.MESH_BG)
    assert (a.scenario_id, a.condition, a.samples) == (b.scenario_id,
                                                       b.condition, b.samples)
    assert a.records == b.records
    assert a.negatives == b.negatives
    assert len(a.records) == len(a.samples) == 26
    assert [s.split for s in a.samples] == ["train"] * 8 + ["test"] * 18
    (_, pos), neg = a.split("train"), [n.text for n in a.negatives]
    assert len(pos) == len(neg) == 8
    assert all(p != n for p, n in zip(pos, neg))


PREFIX_CASES = [
    *[(pipeline.PipelineConfig(), scenario, condition)
      for scenario, condition in zip(sorted(SCENARIOS), list(Condition) * 2)],
    (SMALL, "tapes", Condition.MESH_BG),
    (pipeline.PipelineConfig(master_seed=1), "ropes", Condition.LOWLIGHT_CD),
]


@pytest.mark.parametrize("config,scenario,condition", PREFIX_CASES)
def test_train_only_generation_is_the_prefix_of_the_full_task(config, scenario,
                                                               condition):
    # SMALL's task is small; the other cases use the scenario's own counts
    counts = SMALL_COUNTS if config is SMALL else get_scenario(scenario).counts
    full = pipeline.generate_task(config, scenario, condition, counts)
    train = pipeline.generate_task(config, scenario, condition,
                                   SplitCounts(counts.train_normal, 0, 0, 0, 0))
    assert train.split("test") == ([], [])
    assert train.samples == full.samples[:counts.train_normal]
    assert len(train.samples) == counts.train_normal
    assert train.records == full.records[:counts.train_normal]
    assert train.negatives == full.negatives
    assert train.vocabulary == full.vocabulary


def test_task_seeds_differ_across_conditions_and_stages():
    white = _small_task(Condition.WHITE_BG)
    mesh = _small_task(Condition.MESH_BG)
    assert white.task_id != mesh.task_id
    assert [r.text for r in white.records] != [r.text for r in mesh.records]


def test_skip_training_keeps_the_random_initialization():
    artifacts = _small_task(Condition.WHITE_BG)
    frozen, frozen_losses = pipeline.train_task(
        replace(SMALL, skip_training=True), artifacts)
    trained, losses = pipeline.train_task(SMALL, artifacts)
    assert frozen_losses == []
    assert len(losses) == SMALL.train.epochs
    assert not np.allclose(frozen, trained)


def test_checkpoint_round_trip_and_version_guard(tmp_path):
    artifacts = _small_task(Condition.WHITE_BG)
    trained, _ = pipeline.train_task(SMALL, artifacts)
    path = tmp_path / "task.ckpt.npz"
    pipeline.save_checkpoint(path, trained, SMALL, artifacts)
    loaded = pipeline.load_checkpoint(path, SMALL, artifacts)
    assert loaded.tobytes() == trained.tobytes()

    header = _header(path)
    assert header["vocab"] == artifacts.vocabulary
    with np.load(path) as data:
        table = data["table"]
    np.savez(tmp_path / "future.ckpt.npz", table=table,
             header=_header_bytes({**header, "version": 99}))
    with pytest.raises(ValueError, match="unsupported checkpoint version 99;"):
        pipeline.load_checkpoint(tmp_path / "future.ckpt.npz", SMALL,
                                 artifacts)
    np.savez(tmp_path / "partial.ckpt.npz", table=table)
    with pytest.raises(ValueError, match="partial.ckpt.npz is not a readable "
                       "checkpoint: it lacks header$"):
        pipeline.load_checkpoint(tmp_path / "partial.ckpt.npz", SMALL,
                                 artifacts)


def test_usable_cpus_counts_the_affinity_set_where_there_is_one(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pipeline.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline.usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline.usable_cpus() == 1


def test_run_benchmark_preserves_task_order(tmp_path):
    outputs = list(pipeline.run_benchmark(replace(SMALL, jobs=1), tmp_path, "all"))
    assert [(r.scenario_id, r.condition) for _, r in outputs] == SMALL.tasks()
    for line, report in outputs:
        assert line == f"{report.task_id}: AUROC {report.auroc:.4f}"
        assert 0.0 <= report.auroc <= 1.0
        assert (tmp_path / f"{report.task_id}.scores.jsonl").exists()


def test_each_stage_builds_a_tasks_vocabulary_once(tmp_path, monkeypatch):
    real_build, built = pipeline.build_vocabulary, []

    def counting_build(texts):
        built.append(texts)
        return real_build(texts)

    monkeypatch.setattr(pipeline, "build_vocabulary", counting_build)
    config = replace(SMALL, jobs=1, train=replace(SMALL.train, epochs=1))
    tasks = len(config.tasks())
    # gen reads no vocabulary; score builds it in load_checkpoint and
    # score_task reads the same dict
    for stages, want in (("gen", 0), ("train", tasks), ("score", tasks),
                         ("all", tasks)):
        built.clear()
        assert len(list(pipeline.run_benchmark(config, tmp_path, stages))) \
            == tasks
        assert len(built) == want, stages


@pytest.mark.parametrize("condition", SMALL.conditions, ids=lambda c: c.value)
def test_score_lines_name_the_nearest_train_samples(tmp_path, condition):
    artifacts = _small_task(condition)
    trained, _ = pipeline.train_task(SMALL, artifacts)
    _, *scored = pipeline.score_task(SMALL, artifacts, trained)
    pipeline.write_score_file(tmp_path, artifacts, *scored)
    lines = (tmp_path / f"tapes-{condition.value}.scores.jsonl"
             ).read_text().splitlines()
    train, train_texts = artifacts.split("train")
    test, test_texts = artifacts.split("test")

    def encode(texts):
        return encode_texts(texts, trained, artifacts.vocabulary)

    library, queries = encode(train_texts), encode(test_texts)
    # knn.score checks no norm: both splits reach it as unit rows
    for rows in (library, queries):
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
    assert len(lines) == len(test)
    ties = 0
    for line, sample, query in zip(lines, test, queries):
        record = json.loads(line)
        # full sort over (distance, train index): ties go to the earlier sample
        pairs = sorted((float(np.linalg.norm(row - query)), i)
                       for i, row in enumerate(library))
        nearest = pairs[:SMALL.k]
        ties += pairs[SMALL.k - 1][0] == pairs[SMALL.k][0]
        assert record["sample_id"] == sample.sample_id
        assert record["neighbor_ids"] == [train[i].sample_id for _, i in nearest]
        mean = sum(d for d, _ in nearest) / len(nearest)
        assert abs(record["mean_distance"] - mean) < 1e-12
        assert abs(record["score"] - 1.0 / (1.0 + mean)) < 1e-12
    if condition == Condition.WHITE_BG:
        # one repeated train text: the tie rule picks every line's neighbors
        assert ties == len(test)


# --- CLI -------------------------------------------------------------------

ARGS = ["--scenario", "tapes", "--condition", "white_bg"]


def _run(argv):
    return cli.main(argv)


def _header(checkpoint):
    with np.load(checkpoint) as data:
        return json.loads(bytes(data["header"]))


def _header_bytes(header):
    return np.bytes_(json.dumps(header, sort_keys=True).encode())


def _fingerprint(checkpoint):
    return _header(checkpoint)["fingerprint"]


def test_cli_gen_writes_the_three_task_files(tmp_path):
    assert _run(["gen", *ARGS, "--out-dir", str(tmp_path)]) == 0
    scenes = (tmp_path / "tapes-white_bg.scenes.jsonl").read_text().splitlines()
    descriptions = (tmp_path / "tapes-white_bg.descriptions.jsonl").read_text().splitlines()
    pairs = (tmp_path / "tapes-white_bg.pairs.jsonl").read_text().splitlines()
    # Table-style defaults: 50 train + 50 test normals + 50/50/10 anomalies
    assert len(scenes) == len(descriptions) == 210
    assert len(pairs) == 50


def test_write_task_files_writes_one_whole_line_per_sample(tmp_path):
    artifacts = _small_task(Condition.MESH_BG)
    pipeline.write_task_files(tmp_path, artifacts)
    sample = artifacts.samples[-1]

    def line(kind, index):
        text = (tmp_path / f"tapes-mesh_bg.{kind}.jsonl").read_text()
        lines = text.splitlines()
        assert text == "".join(f"{x}\n" for x in lines)
        # sorted keys, one object per line
        assert lines[index] == json.dumps(json.loads(lines[index]),
                                          sort_keys=True)
        return json.loads(lines[index])

    assert sample.split == "test" and sample.label == Label.DUAL
    assert line("scenes", -1) == {
        "task_id": "tapes-mesh_bg", "scenario": "tapes",
        "condition": "mesh_bg", "split": "test", "label": "dual",
        "scene": get_scenario("tapes").build(sample.view),
    }
    assert line("descriptions", -1) == {
        "task_id": "tapes-mesh_bg", "sample_id": sample.sample_id,
        "split": "test", "label": "dual",
        "text": artifacts.records[-1].text,
    }
    first = artifacts.samples[0]
    pos, neg = artifacts.records[0], artifacts.negatives[0]
    assert line("pairs", 0) == {
        "task_id": "tapes-mesh_bg", "sample_id": first.sample_id,
        "pos_text": pos.text, "neg_text": neg.text,
        "edits": pair_edits(pos, neg, get_scenario("tapes").grammar),
    }


def _scene_lines(artifacts):
    """Each sample's own scene record, as the scene file writes it."""
    spec = get_scenario(artifacts.scenario_id)
    return [json.dumps({
        "task_id": artifacts.task_id, "scenario": artifacts.scenario_id,
        "condition": artifacts.condition.value, "split": s.split,
        "label": s.label.value,
        "scene": spec.build(s.view)}, sort_keys=True)
        for s in artifacts.samples]


def test_scene_file_writes_each_sample_its_own_line_when_views_repeat(tmp_path):
    spec = get_scenario("sticks")
    artifacts = pipeline.generate_task(pipeline.PipelineConfig(), "sticks",
                                       Condition.WHITE_BG, spec.counts)
    samples = artifacts.samples
    views = {(s.split, s.label): set() for s in samples}
    for s in samples:
        views[s.split, s.label].add(repr(s.view))
    # the canonical normal view is both a train and a test normal line
    assert views["train", Label.NORMAL] & views["test", Label.NORMAL]
    assert len({repr(s.view) for s in samples}) < len(samples) / 5
    pipeline.write_task_files(tmp_path, artifacts)
    path = tmp_path / "sticks-white_bg.scenes.jsonl"
    assert path.read_text().splitlines() == _scene_lines(artifacts)

    # a repeated view under another label still gets a line of its own label
    i = next(i for i, s in enumerate(samples)
             if s.split == "test" and s.label == Label.NORMAL)
    relabelled = replace(
        artifacts, samples=(*samples, replace(samples[i], label=Label.SINGLE_A)),
        records=(*artifacts.records, artifacts.records[i]))
    pipeline.write_task_files(tmp_path, relabelled)
    assert path.read_text().splitlines() == _scene_lines(relabelled)


# strings that json.dumps escapes or passes through: quotes, backslashes,
# control and non-ASCII characters, and the "%" and "{}" of a line format
AWKWARD_TEXT = st.text(st.one_of(
    st.sampled_from('"\\%{}\x00\n\x1f\x7f\u2028\xe9\U0001f600'),
    st.characters()), max_size=12)
FINITE_FLOAT = st.one_of(st.sampled_from([-0.0, 5e-324, 1e16]),
                         st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_written_line_is_json_dumps_of_its_record(data):
    """Each line format writes json.dumps(record, sort_keys=True), for any
    strings and finite floats in the records."""
    base = _small_task(Condition.MESH_BG)
    grammar = get_scenario("tapes").grammar

    # a few drawn strings, taken in turn by every string field
    pool = itertools.cycle(data.draw(st.lists(AWKWARD_TEXT, min_size=1,
                                              max_size=8)))

    def redrawn(record, slots):
        return replace(record, text=next(pool), slots=slots)

    samples = tuple(replace(s, sample_id=next(pool)) for s in base.samples)
    records = tuple(redrawn(r, {name: next(pool) for name in r.slots})
                    for r in base.records)
    # a negative keeps the edits of the task's own: another value in each
    # slot its negative edits
    negatives = tuple(
        redrawn(neg, {name: value if neg.slots[name] == old.slots[name]
                      else value + "!" + next(pool)
                      for name, value in pos.slots.items()})
        for old, neg, pos in zip(base.records, base.negatives, records))
    artifacts = replace(base, samples=samples, records=records,
                        negatives=negatives)
    train, _ = artifacts.split("train")
    test, _ = artifacts.split("test")
    k = data.draw(st.integers(1, len(train)))
    floats = st.lists(FINITE_FLOAT, min_size=len(test), max_size=len(test))
    scores, means = np.array(data.draw(floats)), np.array(data.draw(floats))
    nearest = np.array(data.draw(st.lists(
        st.lists(st.integers(0, len(train) - 1), min_size=k, max_size=k),
        min_size=len(test), max_size=len(test))), dtype=np.intp)
    task_id = artifacts.task_id
    want = {
        "descriptions": [
            {"task_id": task_id, "sample_id": s.sample_id, "split": s.split,
             "label": s.label.value, "text": r.text}
            for s, r in zip(artifacts.samples, artifacts.records)],
        "pairs": [
            {"task_id": task_id, "sample_id": s.sample_id,
             "pos_text": pos.text, "neg_text": neg.text,
             "edits": pair_edits(pos, neg, grammar)}
            for s, pos, neg in zip(train, artifacts.records,
                                   artifacts.negatives)],
        "scores": [
            {"task_id": task_id, "sample_id": s.sample_id,
             "label": s.label.value, "score": score, "mean_distance": mean,
             "neighbor_ids": [train[i].sample_id for i in row]}
            for s, score, mean, row in zip(test, scores.tolist(),
                                           means.tolist(), nearest.tolist())],
    }
    assert any(r["edits"] for r in want["pairs"])
    with tempfile.TemporaryDirectory() as out:
        pipeline.write_task_files(Path(out), artifacts)
        pipeline.write_score_file(Path(out), artifacts, scores, means, nearest)
        for kind, records in want.items():
            path = Path(out) / f"{task_id}.{kind}.jsonl"
            assert path.read_text(encoding="ascii") == "".join(
                json.dumps(r, sort_keys=True) + "\n" for r in records), kind


def test_every_line_of_a_run_at_another_seed_is_json_dumps_of_its_value(
        tmp_path):
    assert _run(["all", "--scenario", "dishes", "--seed", "11", "--baseline",
                 "--jobs", "1", "--out-dir", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.jsonl"))
    assert len(paths) == 5 * 4
    for path in paths:
        for line in path.read_text(encoding="ascii").splitlines(keepends=True):
            assert json.dumps(json.loads(line), sort_keys=True) + "\n" == line


def test_cli_full_flow_and_byte_identical_reruns(tmp_path, capsys):
    out = str(tmp_path)
    assert _run(["train", *ARGS, "--out-dir", out, "--epochs", "3"]) == 0
    assert _fingerprint(tmp_path / "tapes-white_bg.ckpt.npz")[
        "dropout_rate"] == trainer.DROPOUT_RATE
    loss_txt = (tmp_path / "tapes-white_bg.loss.txt").read_text()
    assert loss_txt.startswith("epoch\tmean_loss\n")
    assert len(loss_txt.splitlines()) == 4

    assert _run(["score", *ARGS, "--out-dir", out]) == 0
    score_path = tmp_path / "tapes-white_bg.scores.jsonl"
    first = score_path.read_bytes()
    assert _run(["score", *ARGS, "--out-dir", out]) == 0
    assert score_path.read_bytes() == first

    capsys.readouterr()
    assert _run(["eval", *ARGS, "--out-dir", out]) == 0
    eval_out = capsys.readouterr().out
    assert eval_out.startswith("tapes-white_bg: AUROC ")
    for label in (Label.SINGLE_A, Label.SINGLE_B, Label.DUAL):
        assert label.value in eval_out

    assert _run(["report", *ARGS, "--out-dir", out, "--format", "csv"]) == 0
    report_path = tmp_path / "report.csv"
    first_report = report_path.read_bytes()
    assert _run(["report", *ARGS, "--out-dir", out, "--format", "csv"]) == 0
    assert report_path.read_bytes() == first_report
    assert first_report.startswith(b"condition,mean_auroc\n")


def test_cli_all_baseline_emits_everything(tmp_path, capsys):
    out = str(tmp_path)
    assert _run(["all", *ARGS, "--out-dir", out, "--baseline"]) == 0
    for suffix in ("scenes.jsonl", "descriptions.jsonl", "pairs.jsonl",
                   "ckpt.npz", "loss.txt", "scores.jsonl"):
        assert (tmp_path / f"tapes-white_bg.{suffix}").exists()
    assert (tmp_path / "report.md").exists()
    assert "mean AUROC" in capsys.readouterr().out


def test_cli_score_requires_a_checkpoint(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["score", *ARGS, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


TWO_TASKS = ["--scenario", "tapes", "--condition", "white_bg,mesh_bg"]
TASK_SUFFIXES = ("scenes.jsonl", "descriptions.jsonl", "pairs.jsonl",
                 "ckpt.npz", "loss.txt", "scores.jsonl")


def test_cli_score_checks_every_checkpoint_before_any_work(tmp_path, capsys):
    out = str(tmp_path)
    assert _run(["train", "--scenario", "tapes", "--condition", "white_bg",
                 "--epochs", "1", "--out-dir", out]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _run(["score", *TWO_TASKS, "--jobs", "1", "--out-dir", out])
    assert exc.value.code == 2
    assert "no checkpoint for tapes-mesh_bg" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.scores.jsonl"))


def test_cli_all_keeps_the_files_of_tasks_done_before_a_failure(tmp_path,
                                                                monkeypatch):
    real_train = pipeline.train_task

    def train_then_fail(config, artifacts):
        if artifacts.task_id == "tapes-mesh_bg":
            raise RuntimeError("injected training failure")
        return real_train(config, artifacts)

    monkeypatch.setattr(pipeline, "train_task", train_then_fail)
    assert _run(["all", *TWO_TASKS, "--jobs", "1", "--epochs", "1",
                 "--out-dir", str(tmp_path)]) == 1
    for suffix in TASK_SUFFIXES:
        assert (tmp_path / f"tapes-white_bg.{suffix}").exists()
    assert not (tmp_path / "tapes-mesh_bg.scores.jsonl").exists()


def test_cli_stages_write_the_same_bytes_in_worker_processes(tmp_path):
    def stages(jobs):
        out = tmp_path / f"jobs{jobs}"
        for command in (["gen"], ["train", "--epochs", "2"], ["score"]):
            assert _run([*command, *TWO_TASKS, "--jobs", str(jobs),
                         "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    serial, parallel = stages(1), stages(2)
    assert sorted(serial) == sorted(f"tapes-{c}.{suffix}"
                                    for c in ("white_bg", "mesh_bg")
                                    for suffix in TASK_SUFFIXES)
    assert parallel == serial


def test_cli_stages_write_the_bytes_all_writes(tmp_path):
    def run(commands, out):
        for command in commands:
            assert _run([*command, *TWO_TASKS, "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    staged = run((["gen", "--jobs", "1"], ["train", "--jobs", "1", "--epochs", "2"],
                  ["score", "--jobs", "1"], ["report"]), tmp_path / "staged")
    whole = run((["all", "--jobs", "1", "--epochs", "2"],), tmp_path / "all")
    assert sorted(staged) == sorted(["report.md"] + [
        f"tapes-{c}.{suffix}" for c in ("white_bg", "mesh_bg")
        for suffix in TASK_SUFFIXES])
    assert staged == whole


def test_cli_train_needs_no_earlier_gen_and_builds_only_the_train_split(
        tmp_path, monkeypatch):
    built = []
    real_generate = pipeline.generate_task

    def recording_generate(*args, **kwargs):
        artifacts = real_generate(*args, **kwargs)
        built.append(artifacts)
        return artifacts

    monkeypatch.setattr(pipeline, "generate_task", recording_generate)
    out = tmp_path / "fresh"
    assert _run(["train", *TWO_TASKS, "--jobs", "1", "--epochs", "1",
                 "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"tapes-{c}.{suffix}" for c in ("white_bg", "mesh_bg")
        for suffix in ("ckpt.npz", "loss.txt"))
    assert [a.task_id for a in built] == ["tapes-white_bg", "tapes-mesh_bg"]
    for artifacts in built:
        assert {s.split for s in artifacts.samples} == {"train"}
        assert len(artifacts.samples) == len(artifacts.records) == 50


def test_cli_rejects_unknown_scenario_and_condition(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    for key, raw, bad, choices in (
            ("scenario", "tapes,gears", "gears", sorted(SCENARIOS)),
            ("condition", "white_bg,night", "night",
             [c.value for c in Condition]),
            ("condition", "night", "night", [c.value for c in Condition])):
        config.write_text(f"{key} = {raw}\n")
        # the flag route, then the config file route, which names the line
        for extra, prefix in ((["--" + key, raw], ""),
                              (["--config", str(config)],
                               f"{config}:1: bad value for {key}: ")):
            with pytest.raises(SystemExit) as exc:
                _run(["gen", *extra, "--out-dir", str(out)])
            assert exc.value.code == 2
            assert capsys.readouterr().err == (
                f"error: {prefix}unknown {key} {bad!r}; choose from "
                f"{', '.join(choices)}\n")
            assert not out.exists()


# Every command's options: option string -> (dest, type, default).  A flag
# read as text is pinned as ``str`` whatever validator parses it; a number
# flag is pinned by its type, so a flag that changes type or moves off a
# command fails here.
_COMMON_OPTIONS = {
    "-h": ("help", str, argparse.SUPPRESS),
    "--help": ("help", str, argparse.SUPPRESS),
    "--config": ("config", str, None),
    "--seed": ("seed", int, None),
    "--scenario": ("scenario", str, None),
    "--condition": ("condition", str, None),
    "--out-dir": ("out_dir", str, None),
}
_TASK_OPTIONS = {**_COMMON_OPTIONS, "--jobs": ("jobs", int, None)}
_TRAIN_OPTIONS = {"--epochs": ("epochs", int, None),
                  "--learning-rate": ("learning_rate", float, None)}
_K_OPTION = {"--k": ("k", int, None)}
_FORMAT_OPTION = {"--format": ("format", str, "markdown")}
PINNED_OPTIONS = {
    "gen": _TASK_OPTIONS,
    "train": {**_TASK_OPTIONS, **_TRAIN_OPTIONS},
    "score": {**_TASK_OPTIONS, **_K_OPTION},
    "eval": _COMMON_OPTIONS,
    "report": {**_COMMON_OPTIONS, **_FORMAT_OPTION},
    "all": {**_TASK_OPTIONS, **_K_OPTION, **_TRAIN_OPTIONS, **_FORMAT_OPTION,
            "--baseline": ("baseline", str, False)},
}


def _subparsers():
    parser = cli.build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_every_command_keeps_its_options_with_their_dest_type_and_default():
    commands = _subparsers()
    assert list(commands) == list(PINNED_OPTIONS)
    for command, subparser in commands.items():
        options = {
            option: (action.dest,
                     action.type if action.type in (int, float) else str,
                     action.default)
            for action in subparser._actions
            for option in action.option_strings}
        assert options == PINNED_OPTIONS[command], command


def test_every_setting_sets_a_config_field_and_parses_its_flag():
    fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    fields |= {f.name for f in dataclasses.fields(TrainConfig)}
    assert {key: s.field for key, s in cli.SETTINGS.items()
            if s.field not in fields} == {"out_dir": None}
    for command, subparser in _subparsers().items():
        for action in subparser._actions:
            setting = cli.SETTINGS.get(action.dest)
            if setting is not None:
                assert command in setting.commands
                assert action.type is setting.parse, (command, action.dest)


def _readme_settings_rows():
    """(key, flag, commands) of each row of README's settings table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Settings", 1)[1]
    table = [line for line in section.split("\n## ", 1)[0].split("\n")
             if line.startswith("|")]
    rows = []
    for line in table[2:]:  # below the header and its rule
        key, flag, commands = (cell.strip().strip("`")
                               for cell in line.strip("|").split("|")[:3])
        if commands == "every command":
            commands = ", ".join(cli.COMMANDS)
        rows.append((key, flag, tuple(c.strip("` ") for c in commands.split(",")
                                      if c.strip())))
    return rows


def test_the_readme_settings_table_lists_every_key_and_every_flag():
    rows = _readme_settings_rows()
    assert sorted(key for key, _, _ in rows if key) == sorted(cli.SETTINGS)
    for key, flag, _ in rows:
        if key:
            named = "--" + key.replace("_", "-")
            assert flag == (named if cli.SETTINGS[key].commands else ""), key
    flags = {}
    for command, subparser in _subparsers().items():
        for action in subparser._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    flags.setdefault(option, []).append(command)
    assert {flag: commands for _, flag, commands in rows if flag} == {
        flag: tuple(commands) for flag, commands in flags.items()}


def test_every_readme_command_parses():
    """Each ``logicad`` line of README's ``sh`` blocks is a valid command
    line; nothing runs."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = [block.split("```", 1)[0] for block
              in readme.read_text(encoding="utf-8").split("```sh\n")[1:]]
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.split("\n") if line.startswith("logicad ")]
    assert {argv[1] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


def test_cli_requires_an_output_directory(monkeypatch):
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    with pytest.raises(SystemExit) as exc:
        _run(["gen", *ARGS])
    assert exc.value.code == 2


def test_cli_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert _run(["gen", *ARGS]) == 0
    assert (tmp_path / "tapes-white_bg.scenes.jsonl").exists()


@pytest.mark.parametrize("argv, setting", [
    (["--out-dir", ""], None),
    ([], "out_dir ="),
])
def test_an_empty_output_directory_exits_2_and_ignores_the_environment(
        tmp_path, monkeypatch, capsys, argv, setting):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
    extra, prefix = [], ""
    if setting is not None:
        config = tmp_path / "empty.cfg"
        config.write_text(setting + "\n")
        extra = ["--config", str(config)]
        prefix = f"{config}:1: bad value for out_dir: "
    with pytest.raises(SystemExit) as exc:
        _run(["gen", *ARGS, *argv, *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {prefix}empty output directory")
    assert not env_dir.exists()


@pytest.mark.parametrize("command", ["gen", "eval"])
@pytest.mark.parametrize("via", ["flag", "config", "environment"])
def test_an_output_directory_that_is_a_file_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, command, via):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    extra = []
    if via == "flag":
        extra = ["--out-dir", str(afile)]
    elif via == "config":
        config = tmp_path / "out.cfg"
        config.write_text(f"out_dir = {afile}\n")
        extra = ["--config", str(config)]
    else:
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(afile))
    with pytest.raises(SystemExit) as exc:
        _run([command, *ARGS, *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: output directory {afile} is not a directory\n")
    assert afile.read_text() == "kept\n"


def test_config_file_values_apply_and_flags_win(tmp_path):
    out = str(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment settings\n"
        "scenario = tapes\n"
        "condition = white_bg\n"
        "epochs = 3\n"
        "k = 7\n"
    )
    assert _run(["train", "--config", str(config), "--out-dir", out]) == 0
    assert _run(["score", "--config", str(config), "--out-dir", out]) == 0
    import json
    line = (tmp_path / "tapes-white_bg.scores.jsonl").read_text().splitlines()[0]
    assert len(json.loads(line)["neighbor_ids"]) == 7
    # an explicit flag overrides the config file value
    assert _run(["score", "--config", str(config), "--out-dir", out,
                 "--k", "3"]) == 0
    line = (tmp_path / "tapes-white_bg.scores.jsonl").read_text().splitlines()[0]
    assert len(json.loads(line)["neighbor_ids"]) == 3


EVERY_KEY = {
    "seed": "7", "out_dir": "from_file", "k": "3", "jobs": "2", "dim": "8",
    "scenario": "tapes,ropes", "condition": "mesh_bg", "epochs": "4",
    "batch_size": "5", "temperature": "0.3", "learning_rate": "0.02",
    "weight_decay": "0.001", "clip_norm": "2.5", "skip_training": "yes",
}


def _resolve(argv):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def _every_key_file(tmp_path, **changed):
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in {**EVERY_KEY, **changed}.items()))
    return str(path)


def test_every_config_key_reaches_its_field(tmp_path):
    assert sorted(EVERY_KEY) == sorted(cli.SETTINGS)
    config, out_dir = _resolve(["train", "--config", _every_key_file(tmp_path)])
    assert out_dir == Path("from_file")
    want = pipeline.PipelineConfig(
        master_seed=7, scenario_ids=("tapes", "ropes"),
        conditions=(Condition.MESH_BG,),
        train=TrainConfig(epochs=4, batch_size=5, temperature=0.3,
                          learning_rate=0.02, weight_decay=0.001,
                          clip_norm=2.5),
        k=3, dim=8, skip_training=True, jobs=2)
    assert config == want
    # every value differs from its default, so none can pass by falling back
    default = pipeline.PipelineConfig()
    for name in ("master_seed", "scenario_ids", "conditions", "k", "dim",
                 "skip_training", "jobs"):
        assert getattr(config, name) != getattr(default, name), name
    for name in ("epochs", "batch_size", "temperature", "learning_rate",
                 "weight_decay", "clip_norm"):
        assert getattr(config.train, name) != getattr(default.train, name), name


def test_no_file_and_no_flag_give_the_dataclass_defaults(tmp_path):
    for command in ("gen", "train", "score", "eval", "report", "all"):
        config, _ = _resolve([command, "--out-dir", str(tmp_path)])
        assert config == pipeline.PipelineConfig(), command


def test_every_flag_beats_the_config_file(tmp_path):
    config, out_dir = _resolve([
        "all", "--config", _every_key_file(tmp_path, skip_training="no"),
        "--seed", "9", "--scenario", "blocks", "--condition", "blurry_cd",
        "--out-dir", "from_flag", "--jobs", "1", "--k", "6", "--epochs", "2",
        "--learning-rate", "0.04", "--baseline"])
    assert out_dir == Path("from_flag")
    assert (config.master_seed, config.scenario_ids, config.conditions,
            config.jobs, config.k, config.train.epochs,
            config.train.learning_rate, config.skip_training) == (
        9, ("blocks",), (Condition.BLURRY_CD,), 1, 6, 2, 0.04, True)
    # the keys no flag sets keep the file's values
    assert (config.dim, config.train.batch_size, config.train.temperature,
            config.train.weight_decay, config.train.clip_norm) == (
        8, 5, 0.3, 0.001, 2.5)


def test_config_file_rejects_unknown_keys_and_bad_values(tmp_path, capsys):
    # a comment is a whole line: a "#" after a value is part of the value
    for name, line in (("bad_key", "neighbours = 5"),
                       ("bad_value", "k = five"),
                       ("not_kv", "just some prose"),
                       ("trailing_comment", "k = 5 # five")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            _run(["gen", "--config", str(path), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2, name
        assert capsys.readouterr().err.startswith(f"error: {path}:1: "), name


def test_train_draws_at_the_rate_its_checkpoint_stores(tmp_path, monkeypatch):
    monkeypatch.setattr(trainer, "DROPOUT_RATE", 0.25)
    drawn, sample = [], trainer.BatchMasks.sample

    def recording_sample(n, rate, rng):
        drawn.append(rate)
        return sample(n, rate, rng)

    monkeypatch.setattr(trainer.BatchMasks, "sample", recording_sample)
    assert _run(["train", *ARGS, "--out-dir", str(tmp_path), "--epochs", "1",
                 "--jobs", "1"]) == 0
    # 50 train pairs in batches of 16
    assert drawn == [0.25] * 4
    assert _fingerprint(tmp_path / "tapes-white_bg.ckpt.npz")[
        "dropout_rate"] == 0.25


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_an_unreadable_config_file_exits_2_before_any_work(tmp_path, capsys,
                                                            kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"epochs = 2\n\xff\xfe\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(["train", *ARGS, "--config", str(path), "--out-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_config_file_with_a_byte_order_mark_sets_its_first_key(tmp_path):
    # the mark used to stick to the first key: unknown config key '\ufeffseed'
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfseed = 7\n")
    config, _ = _resolve(["gen", "--config", str(path), "--out-dir", "out"])
    assert config.master_seed == 7


def test_config_file_rejects_a_key_set_twice(tmp_path, capsys):
    # the last value used to win silently: this file trained 2 epochs
    config = tmp_path / "twice.cfg"
    config.write_text("epochs = 1\n# a comment\nepochs = 2\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(["train", *ARGS, "--config", str(config), "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "twice.cfg:3: epochs is already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_rejects_the_removed_backend_keys(tmp_path):
    # these keys were once accepted and then ignored: the run used the
    # built-in renderer and exited 0
    config = tmp_path / "backend.cfg"
    config.write_text("backend = http\nbackend_path = /nonexistent\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(["gen", "--scenario", "sticks", "--condition", "white_bg",
              "--config", str(config), "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_importing_the_cli_does_not_import_scipy():
    # scipy would add about a second and 65 MB to every process's set-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c",
         "import logicad.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"


def test_importing_the_cli_does_not_import_the_worker_pool():
    # only --jobs N > 1 starts workers; a serial run pays no memory for them
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import logicad.cli, sys; print(sorted({'multiprocessing', "
         "'concurrent.futures.process'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_cli_report_needs_score_files(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["report", *ARGS, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "report", "score"])
def test_cli_reading_commands_leave_a_missing_directory_missing(tmp_path,
                                                               command):
    out = tmp_path / "typo_dir"
    with pytest.raises(SystemExit) as exc:
        _run([command, *ARGS, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_checkpoint_mismatches_name_what_differs(tmp_path):
    artifacts = _small_task(Condition.WHITE_BG)
    trained, _ = pipeline.train_task(SMALL, artifacts)
    path = tmp_path / "task.ckpt.npz"
    pipeline.save_checkpoint(path, trained, SMALL, artifacts)
    pipeline.load_checkpoint(path, SMALL, artifacts)
    # epochs cannot be set by `score`, so it is not compared
    longer = replace(SMALL, train=replace(SMALL.train, epochs=9))
    pipeline.load_checkpoint(path, longer, artifacts)

    def mismatches(config, task):
        with pytest.raises(pipeline.CheckpointError) as exc:
            pipeline.load_checkpoint(path, config, task)
        prefix = f"{path} was not trained for this run: "
        assert str(exc.value).startswith(prefix)
        return str(exc.value)[len(prefix):].split("; ")

    assert mismatches(replace(SMALL, dim=8), artifacts) == [
        "dim is 16, expected 8"]
    problems = mismatches(SMALL, _small_task(Condition.MESH_BG))
    assert any(p.startswith("task_id") for p in problems)
    assert any(p.startswith("vocabulary") for p in problems)


def test_cli_score_refuses_a_checkpoint_of_another_seed(tmp_path, capsys):
    out = str(tmp_path)
    assert _run(["train", "--scenario", "sticks", "--condition", "white_bg",
                 "--seed", "1", "--epochs", "1", "--out-dir", out]) == 0
    with pytest.raises(SystemExit) as exc:
        _run(["score", "--scenario", "sticks", "--condition", "white_bg",
              "--seed", "0", "--out-dir", out])
    assert exc.value.code == 2
    assert "master_seed is 1, expected 0" in capsys.readouterr().err
    assert not (tmp_path / "sticks-white_bg.scores.jsonl").exists()


@pytest.mark.parametrize("train_skips", [True, False],
                         ids=["baseline-checkpoint", "trained-checkpoint"])
def test_cli_score_refuses_a_checkpoint_of_the_other_kind(tmp_path, capsys,
                                                           train_skips):
    frozen = tmp_path / "frozen.cfg"
    frozen.write_text("skip_training = true\n")
    out = str(tmp_path)
    train_argv = (["--config", str(frozen)] if train_skips
                  else ["--epochs", "1"])
    assert _run(["train", *ARGS, *train_argv, "--out-dir", out]) == 0
    trained_line = capsys.readouterr().out
    assert ("not trained" in trained_line) == train_skips
    score_argv = [] if train_skips else ["--config", str(frozen)]
    with pytest.raises(SystemExit) as exc:
        _run(["score", *ARGS, *score_argv, "--out-dir", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "tapes-white_bg" in err
    assert (f"skip_training is {train_skips}, expected {not train_skips}"
            in err)
    assert not (tmp_path / "tapes-white_bg.scores.jsonl").exists()


def test_cli_score_refuses_another_seed_alike_in_worker_processes(tmp_path, capsys):
    out = str(tmp_path)
    assert _run(["train", *TWO_TASKS, "--seed", "1", "--epochs", "1",
                 "--jobs", "2", "--out-dir", out]) == 0
    errors = []
    for jobs in ("1", "2"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            _run(["score", *TWO_TASKS, "--seed", "0", "--jobs", jobs,
                  "--out-dir", out])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert "master_seed is 1, expected 0" in errors[1]
    assert errors[1] == errors[0]
    assert not list(tmp_path.glob("*.scores.jsonl"))


@pytest.mark.parametrize("argv, setting", [
    (["score", "--k", "0"], None),
    (["all", "--jobs", "-1"], None),
    (["train", "--epochs", "0"], None),
    (["train", "--learning-rate", "-0.1"], None),
    (["train"], "dim = 1"),
    (["train"], "batch_size = 0"),
    (["train"], "temperature = 0"),
    (["train"], "clip_norm = 0"),
    (["train"], "weight_decay = -1e-5"),
    (["all"], "skip_training = maybe"),
    # a setting that is not finite would fail, or train wrongly, mid-run
    (["train"], "temperature = nan"),
    (["train"], "learning_rate = nan"),
    (["train"], "weight_decay = inf"),
    (["train"], "clip_norm = nan"),
    (["train"], "temperature = inf"),
    (["train", "--learning-rate", "nan"], None),
])
def test_cli_bad_setting_exits_2_before_any_work(tmp_path, argv, setting):
    out = tmp_path / "out"
    extra = []
    if setting is not None:
        config = tmp_path / "bad.cfg"
        config.write_text(setting + "\n")
        extra = ["--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        _run([*argv, *ARGS, *extra, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, setting", [
    (["--scenario", ","], None),
    (["--condition", ","], None),
    ([], "scenario = ,"),
    (["--scenario", "sticks,sticks"], None),
    (["--condition", "white_bg,white_bg"], None),
    (["--scenario", ""], None),
    (["--condition", ""], None),
    ([], "scenario ="),
])
def test_cli_empty_task_selection_exits_2_before_any_work(tmp_path, argv,
                                                          setting):
    out = tmp_path / "out"
    extra = []
    if setting is not None:
        config = tmp_path / "empty.cfg"
        config.write_text(setting + "\n")
        extra = ["--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        _run(["all", *argv, *extra, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# sha256 over every task's file of one kind, concatenated in task order, for
# the gen files of all 50 tasks at master seed 0.  Scenes, descriptions and
# negative pairs hold no floats, so any change to these bytes is a change to
# the data.
GEN_DIGESTS = {
    "scenes.jsonl":
        "f51e506dc1dcf4b9ad35edb71f7c8bf91d907fc264a285f316b3c667f8fb6e52",
    "descriptions.jsonl":
        "4aee27cbdca3cead3eca09e936b86bfce7acb07e64e9f658e1828a2ab1d9d382",
    "pairs.jsonl":
        "a8a256bef49694d48c4d2f086c6538a44aded3aa7714df4174b8165e3b52fbb8",
}


def test_gen_bytes_at_seed_0_are_pinned(benchmark_runs):
    # `all` writes the same gen files as `gen`
    runs, _ = benchmark_runs
    config, out, _ = runs["trained"]
    task_ids = [task_id_for(s, c) for s, c in config.tasks()]
    assert len(task_ids) == 50
    digests = {}
    for suffix in GEN_DIGESTS:
        h = hashlib.sha256()
        for task_id in task_ids:
            h.update((out / f"{task_id}.{suffix}").read_bytes())
        digests[suffix] = h.hexdigest()
    assert digests == GEN_DIGESTS


def test_readme_counts_the_distinct_scene_lines_at_seed_0(benchmark_runs):
    runs, _ = benchmark_runs
    config, out, _ = runs["trained"]
    distinct = samples = 0
    for scenario_id, condition in config.tasks():
        path = out / f"{task_id_for(scenario_id, condition)}.scenes.jsonl"
        lines = path.read_bytes().splitlines()
        distinct += len(set(lines))
        samples += len(lines)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    (counts,) = re.findall(r"at seed 0, ([\d,]+) distinct lines for ([\d,]+) "
                           r"samples", " ".join(readme.split()))
    assert [int(n.replace(",", "")) for n in counts] == [distinct, samples]


def test_every_seed_0_test_text_holds_a_known_token(benchmark_runs):
    """No seed-0 test text is all ``<unk>``, so a pool that skipped the
    unknown token (ROADMAP item 23) would leave each one a direction; and
    the share of texts that hold an unknown token is the one item 23 gives."""
    runs, _ = benchmark_runs
    config, out, _ = runs["trained"]
    texts, unknown = {True: 0, False: 0}, {True: 0, False: 0}  # by normal
    for scenario_id, condition in config.tasks():
        task_id = task_id_for(scenario_id, condition)
        with np.load(out / f"{task_id}.ckpt.npz") as ckpt:
            vocab = json.loads(bytes(ckpt["header"]))["vocab"]
        with open(out / f"{task_id}.descriptions.jsonl", encoding="utf-8") as fh:
            for record in map(json.loads, fh):
                if record["split"] != "test":
                    continue
                ids = tokenize(record["text"], vocab)
                assert (ids != UNKNOWN_ID).any(), (task_id, record["sample_id"])
                normal = record["label"] == Label.NORMAL.value
                texts[normal] += 1
                unknown[normal] += bool((ids == UNKNOWN_ID).any())
    assert (unknown[True], texts[True]) == (418, 2500)
    assert (unknown[False], texts[False]) == (913, 5395)


# a whole checkpoint of tapes-white_bg (V = 45, D = 64) with members
# replaced, by damage; a reason of None: refused as another version
BAD_MEMBERS = {
    "not_utf8_header": ({"header": np.bytes_(b"\xff{}")},
                        "header is not a JSON object"),
    "not_json_header": ({"header": np.bytes_(b"{")},
                        "header is not a JSON object"),
    "list_header": ({"header": np.bytes_(b"[3]")},
                    "header is not a JSON object"),
    # deeper than the JSON parser recurses
    "deep_header": ({"header": np.bytes_(b"[" * 200_000)},
                    "header is not a JSON object"),
    "list_fingerprint": (
        {"header": _header_bytes({"version": 3, "fingerprint": [1],
                                  "vocab": {}})},
        "header fingerprint is not a JSON object"),
    "list_vocab": (
        {"header": _header_bytes({"version": 3, "fingerprint": {},
                                  "vocab": [1]})},
        "header vocab is not a JSON object"),
    "version_2_header": (
        {"header": _header_bytes({"version": 2, "fingerprint": {},
                                  "vocab": {}})},
        None),
    "string_table": ({"table": np.full((45, 64), "0.1")},
                     "table is not a (45, 64) array of finite floats"),
    "narrow_table": ({"table": np.zeros((45, 3))},
                     "table is not a (45, 64) array of finite floats"),
    "nan_table": ({"table": np.full((45, 64), np.nan)},
                  "table is not a (45, 64) array of finite floats"),
    "short_table": ({"table": np.zeros((44, 64))},
                    "table is not a (45, 64) array of finite floats"),
    "long_table": ({"table": np.zeros((46, 64))},
                   "table is not a (45, 64) array of finite floats"),
    "object_table": ({"table": np.zeros((45, 64)).astype(object)},
                     "table cannot be read (Object arrays cannot be loaded "
                     "when allow_pickle=False)"),
    # a whole table of a 16-wide encoder under a fingerprint that says dim = 64
    "dim_16_table": ({"table": np.zeros((45, 16))},
                     "table is not a (45, 64) array of finite floats"),
}


def _central_directory(raw):
    """The offset of the first central directory header of a zip archive."""
    return raw.find(b"PK\x01\x02")


def _npy_header_brace(raw, member):
    """The offset of the ``{`` that opens a member's .npy header, after its
    magic string, format version and header length (10 bytes)."""
    return raw.find(b"\x93NUMPY", raw.find(member.encode())) + 10


# (offset, xor mask, reason) of one flipped byte of the archive, by damage
ARCHIVE_DAMAGES = {
    "central_signature": (_central_directory, 0xFF, "not a whole npz archive"),
    # "version needed to extract" 4.5 becomes 21.0
    "central_version": (lambda raw: _central_directory(raw) + 6, 0xFF,
                        "not a whole npz archive"),
    # the header no longer parses; the tokenizer's words vary by Python
    # version, so only this prefix is checked
    "header_brace": (lambda raw: _npy_header_brace(raw, "table.npy"), 0x80,
                     "table cannot be read ("),
}


def _unsupported(checkpoint, version):
    """The line that refuses a checkpoint of another format version."""
    return (f"error: {checkpoint}: unsupported checkpoint version {version}; "
            "this logicad reads version 3: run `logicad train` again")


@pytest.mark.parametrize("damage", ["truncated", "not_zip", "no_members",
                                    "corrupt_table", *BAD_MEMBERS,
                                    *ARCHIVE_DAMAGES])
def test_cli_score_reports_a_damaged_checkpoint_in_one_line(tmp_path, capsys,
                                                            damage):
    out = str(tmp_path)
    assert _run(["train", *ARGS, "--epochs", "1", "--out-dir", out]) == 0
    checkpoint = tmp_path / "tapes-white_bg.ckpt.npz"
    reason = "not a whole npz archive"
    if damage == "truncated":
        checkpoint.write_bytes(checkpoint.read_bytes()[:100])
    elif damage == "not_zip":
        checkpoint.write_text("not a checkpoint\n")
    elif damage == "corrupt_table":
        # one flipped byte in the stored array: the zip CRC no longer matches
        raw = bytearray(checkpoint.read_bytes())
        with np.load(checkpoint) as data:
            raw[raw.find(data["table"].tobytes())] ^= 0xFF
        checkpoint.write_bytes(raw)
        reason = "table cannot be read (Bad CRC-32 for file 'table.npy')"
    elif damage in BAD_MEMBERS:
        replaced, reason = BAD_MEMBERS[damage]
        with np.load(checkpoint) as data:
            members = dict(data)
        np.savez(checkpoint, **{**members, **replaced})
    elif damage in ARCHIVE_DAMAGES:
        offset, mask, reason = ARCHIVE_DAMAGES[damage]
        raw = bytearray(checkpoint.read_bytes())
        raw[offset(raw)] ^= mask
        checkpoint.write_bytes(raw)
    else:
        # a whole npz archive that holds none of the checkpoint's members
        np.savez(checkpoint, a=np.arange(3))
        reason = "it lacks header, table"
    capsys.readouterr()
    assert _run(["score", *ARGS, "--jobs", "1", "--out-dir", out]) == 1
    lines = capsys.readouterr().err.splitlines()
    line = (_unsupported(checkpoint, 2) if reason is None else
            f"error: {checkpoint} is not a readable checkpoint: {reason}")
    if damage == "header_brace":
        [got] = lines
        assert got.startswith(line) and got.endswith(")")
    else:
        assert lines == [line]
    assert not (tmp_path / "tapes-white_bg.scores.jsonl").exists()


def test_every_flipped_byte_of_the_zip_directory_is_refused_or_loads(tmp_path):
    # each byte of the central directory and the end records, flipped in turn
    config = replace(SMALL, skip_training=True)
    artifacts = _small_task(Condition.WHITE_BG)
    path = tmp_path / "task.ckpt.npz"
    pipeline.save_checkpoint(path, pipeline.train_task(config, artifacts)[0],
                             config, artifacts)
    good = path.read_bytes()
    start = _central_directory(good)
    escaped = []
    for offset in range(start, len(good)):
        raw = bytearray(good)
        raw[offset] ^= 0xFF
        path.write_bytes(raw)
        try:
            pipeline.load_checkpoint(path, config, artifacts)
        except pipeline.CheckpointError:
            pass
        except Exception as exc:
            if not (type(exc) is ValueError and str(exc).startswith(str(path))
                    and "\n" not in str(exc)):
                escaped.append((offset, repr(exc)))
    assert good[start:].count(b"PK\x01\x02") == 2
    assert good[-22:].startswith(b"PK\x05\x06")
    assert escaped == []


def _version_2_members(checkpoint):
    """The members version 2 stored for this checkpoint: the table beside
    its version, vocabulary, fingerprint and loss curve."""
    header = _header(checkpoint)
    with np.load(checkpoint) as data:
        table = data["table"]
    return {"version": np.int64(2), "table": table,
            "vocab_json": np.bytes_(json.dumps(header["vocab"]).encode()),
            "fingerprint": np.bytes_(json.dumps(header["fingerprint"]).encode()),
            "epoch_losses": np.array([0.5])}


def _score_refuses_an_old_checkpoint(tmp_path, capsys, version, members):
    out = str(tmp_path)
    checkpoint = tmp_path / "tapes-white_bg.ckpt.npz"
    np.savez(checkpoint, **members)
    capsys.readouterr()
    assert _run(["score", *ARGS, "--jobs", "1", "--out-dir", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        _unsupported(checkpoint, version)]
    assert not (tmp_path / "tapes-white_bg.scores.jsonl").exists()


def test_cli_score_refuses_a_version_1_checkpoint_in_one_line(tmp_path,
                                                              capsys):
    # version 1 stored the parameters, (V, D), (D, D) and (D,), in place of
    # the table
    assert _run(["train", *ARGS, "--epochs", "1", "--out-dir",
                 str(tmp_path)]) == 0
    members = _version_2_members(tmp_path / "tapes-white_bg.ckpt.npz")
    v, d = members.pop("table").shape
    members.update(version=np.int64(1), embedding=np.zeros((v, d)),
                   proj_w=np.zeros((d, d)), proj_b=np.zeros(d))
    _score_refuses_an_old_checkpoint(tmp_path, capsys, 1, members)


def test_cli_score_refuses_a_version_2_checkpoint_in_one_line(tmp_path,
                                                              capsys):
    assert _run(["train", *ARGS, "--epochs", "1", "--out-dir",
                 str(tmp_path)]) == 0
    _score_refuses_an_old_checkpoint(
        tmp_path, capsys, 2,
        _version_2_members(tmp_path / "tapes-white_bg.ckpt.npz"))


@pytest.mark.parametrize("skip_training", [False, True],
                         ids=["trained", "frozen"])
def test_a_checkpoint_holds_the_table_scoring_used_and_nothing_else(
        tmp_path, monkeypatch, skip_training):
    returned = []

    def recording(function):
        def call(*args, **kwargs):
            returned.append(function(*args, **kwargs))
            return returned[-1]
        return call

    monkeypatch.setattr(pipeline, "init_params",
                        recording(pipeline.init_params))
    monkeypatch.setattr(trainer, "fit", recording(trainer.fit))
    config = replace(SMALL, skip_training=skip_training)
    artifacts = _small_task(Condition.WHITE_BG)
    path = tmp_path / "task.ckpt.npz"
    pipeline.save_checkpoint(path, pipeline.train_task(config, artifacts)[0],
                             config, artifacts)
    # init_params returns the parameters, fit (parameters, losses)
    params = returned[-1] if skip_training else returned[-1][0]
    with np.load(path) as data:
        assert set(data.files) == {"header", "table"}
        assert data["table"].tobytes() == activation_table(params).tobytes()
    header = _header(path)
    assert sorted(header) == ["fingerprint", "version", "vocab"]
    assert header["version"] == 3
    assert header["fingerprint"]["skip_training"] is skip_training


# a score that is not a finite JSON number, by damage
BAD_SCORES = {"string_score": "0.5", "bool_score": True,
              "nan_score": float("nan")}


# damage to the lines of a score file: the file is parsed line by line, so
# the error names the first line that is not one score record
LINE_DAMAGES = {
    "blank_line": "2: not a score record (JSONDecodeError: Expecting value: "
                  "line 2 column 1 (char 1))",
    "blank_last_line": "161: not a score record (JSONDecodeError: Expecting "
                       "value: line 2 column 1 (char 1))",
    "two_on_one_line": "2: not a score record (JSONDecodeError: Extra data: "
                       "line 1 column 242 (char 241))",
    "array_line": "2: not a score record (TypeError: list indices must be "
                  "integers or slices, not str)",
    # as many values as lines: line 2 holds two, lines 3 and 4 one between them
    "split_and_merge": "2: not a score record (JSONDecodeError: Extra data: "
                       "line 1 column 241 (char 240))",
}


@pytest.mark.parametrize("damage", ["truncated", "no_score", "empty",
                                    "not_utf8", "nested", *BAD_SCORES,
                                    *LINE_DAMAGES])
def test_cli_reading_a_damaged_score_file_fails_in_one_line(tmp_path, capsys,
                                                            damage):
    out = str(tmp_path)
    assert _run(["all", *ARGS, "--baseline", "--out-dir", out]) == 0
    (tmp_path / "report.md").unlink()
    path = tmp_path / "tapes-white_bg.scores.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    if damage == "truncated":
        path.write_text("".join(lines[:-1]) + lines[-1][:59])
        where = f"{path}:{len(lines)}: not a score record"
    elif damage == "no_score" or damage in BAD_SCORES:
        record = json.loads(lines[1])
        if damage == "no_score":
            del record["score"]
        else:
            record["score"] = BAD_SCORES[damage]
        lines[1] = json.dumps(record, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        where = f"{path}:2: not a score record"
    elif damage == "not_utf8":
        path.write_bytes(b"".join(x.encode() for x in lines[:2]) + b"\xff\n")
        where = f"{path}:3: not a score record"
    elif damage == "nested":
        # json.loads recurses once per bracket
        lines[1] = "[" * 200_000 + "\n"
        path.write_text("".join(lines))
        where = f"{path}:2: not a score record"
    elif damage in LINE_DAMAGES:
        if damage == "blank_line":
            lines.insert(1, "\n")
        elif damage == "blank_last_line":
            lines.append("\n")
        elif damage == "two_on_one_line":
            lines[1:3] = [lines[1].rstrip("\n") + " " + lines[2]]
        elif damage == "array_line":
            lines[1] = f"[{lines[1].rstrip()}]\n"
        else:
            first, second, third = (json.loads(x) for x in lines[1:4])
            lines[1:4] = [json.dumps(first) + ", " + json.dumps(second) + "\n",
                          json.dumps({**third, "x": [{}]})[:-2] + "\n",
                          "{}]}\n"]
        path.write_text("".join(lines))
        where = f"{path}:{LINE_DAMAGES[damage]}"
    else:
        path.write_text("")
        where = f"{path} holds no scores"
    for command in ("eval", "report"):
        capsys.readouterr()
        assert _run([command, *ARGS, "--out-dir", out]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {where}")
        if damage in LINE_DAMAGES:
            assert line == f"error: {where}"
    assert not list(tmp_path.glob("report.*"))


def test_cli_reading_a_score_file_line_by_line_gives_the_same_result(
        tmp_path, capsys):
    """A file of one record per line with a NaN in a key no reader reads is
    read to the same scores; space around a record is JSON whitespace."""
    out = str(tmp_path)
    assert _run(["all", *ARGS, "--baseline", "--out-dir", out]) == 0
    want = pipeline.read_score_file(tmp_path, "tapes", Condition.WHITE_BG)
    assert _run(["eval", *ARGS, "--out-dir", out]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    path = tmp_path / "tapes-white_bg.scores.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, "note": float("nan")}) + "\n"
    lines[2] = " \t" + lines[2].rstrip("\n") + " \r\n"
    path.write_text("".join(lines))
    assert pipeline.read_score_file(tmp_path, "tapes", Condition.WHITE_BG) == want
    assert _run(["eval", *ARGS, "--out-dir", out]) == 0
    assert capsys.readouterr().out.splitlines() == [printed]


def test_cli_reading_a_score_file_without_a_last_newline_gives_the_same_result(
        tmp_path, capsys):
    out = str(tmp_path)
    assert _run(["all", *ARGS, "--baseline", "--out-dir", out]) == 0
    want = pipeline.read_score_file(tmp_path, "tapes", Condition.WHITE_BG)
    capsys.readouterr()
    assert _run(["eval", *ARGS, "--out-dir", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    path = tmp_path / "tapes-white_bg.scores.jsonl"
    data = path.read_bytes()
    assert data.endswith(b"}\n")
    path.write_bytes(data[:-1])
    assert pipeline.read_score_file(tmp_path, "tapes", Condition.WHITE_BG) == want
    assert _run(["eval", *ARGS, "--out-dir", out]) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_cli_reading_a_score_file_of_one_class_names_the_task(tmp_path,
                                                              capsys):
    out = str(tmp_path)
    assert _run(["all", *ARGS, "--baseline", "--out-dir", out]) == 0
    (tmp_path / "report.md").unlink()
    path = tmp_path / "tapes-white_bg.scores.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert 0 < sum(r["label"] == "normal" for r in records) < len(records)
    # every line stays, relabelled as normal, so the file is whole
    path.write_text("".join(json.dumps({**r, "label": "normal"},
                                       sort_keys=True) + "\n"
                            for r in records))
    for command in ("eval", "report"):
        capsys.readouterr()
        assert _run([command, *ARGS, "--out-dir", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: tapes-white_bg: AUROC needs at least one sample of each "
            "class"]
    assert not list(tmp_path.glob("report.*"))


@pytest.mark.parametrize("damage", ["every_other_line", "another_task",
                                    "duplicated_line"])
def test_cli_reading_a_score_file_of_part_or_another_task_fails_in_one_line(
        tmp_path, capsys, damage):
    out = str(tmp_path)
    assert _run(["all", *TWO_TASKS, "--baseline", "--jobs", "1",
                 "--out-dir", out]) == 0
    (tmp_path / "report.md").unlink()
    path = tmp_path / "tapes-white_bg.scores.jsonl"
    other = (tmp_path / "tapes-mesh_bg.scores.jsonl").read_text()
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == len(other.splitlines()) == 160
    if damage == "every_other_line":
        path.write_text("".join(lines[::2]))
        code, where = 1, (f"{path} holds 80 scores; the test split of "
                          "tapes-white_bg has 160")
    elif damage == "duplicated_line":
        # 160 lines still, one sample twice and another missing
        assert json.loads(lines[125])["sample_id"] == "test-singleB-0025"
        lines[125] = lines[51]
        path.write_text("".join(lines))
        code, where = 1, (f"{path}:126: a score of 'test-singleA-0001', not "
                          "test-singleB-0025: the test split of tapes-white_bg "
                          "has one line per sample, in order")
    else:
        # as many lines as this task's, all of them another task's
        path.write_text(other)
        code, where = 2, (f"{path}:1: a score of 'tapes-mesh_bg', not "
                          "tapes-white_bg: the file belongs to another run")
    for command in ("eval", "report"):
        capsys.readouterr()
        try:
            exit_code = _run([command, *TWO_TASKS, "--out-dir", out])
        except SystemExit as exc:
            exit_code = exc.code
        assert exit_code == code
        assert capsys.readouterr().err.splitlines() == [f"error: {where}"]
    assert not list(tmp_path.glob("report.*"))


def test_cli_training_that_overflows_names_the_task(tmp_path, capsys):
    """Training that overflows fails in one line that names the task and
    writes no checkpoint; numpy's overflow warnings stay quiet (pytest makes
    them errors).  A huge learning rate overflows in a step; a huge weight
    decay overflows in the last update, into a table of +-1 (64 per batch)
    or of NaN (25 per batch)."""
    runs = [(["--learning-rate", "1e308"], None),
            ([], "weight_decay = 1e308\nbatch_size = 64\n"),
            ([], "weight_decay = 1e308\nbatch_size = 25\n")]
    for i, (argv, setting) in enumerate(runs):
        out = tmp_path / str(i)
        if setting is not None:
            config = tmp_path / f"{i}.cfg"
            config.write_text(setting)
            argv = ["--config", str(config)]
        assert _run(["train", "--scenario", "ropes", "--condition", "white_bg",
                     "--epochs", "1", "--jobs", "1", *argv,
                     "--out-dir", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ropes-white_bg: ")
        assert not list(out.glob("*.ckpt.npz"))


def test_only_the_pipeline_imports_json():
    src = Path(__file__).resolve().parents[1] / "src" / "logicad"

    def imports_json(path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "json" for a in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "json":
                    return True
        return False

    assert [p.stem for p in sorted(src.glob("*.py")) if imports_json(p)] == [
        "pipeline"]
