"""Per-task orchestration: generate, describe, synthesize, train, score, report.

Each (scenario, condition) task is independent; its random streams are
named by the master seed, the task identity and the stage, so stages can
be rerun in isolation and tasks can run in parallel workers.  Every
per-task command goes through ``run_benchmark``, which runs ``run_task``
once per task.

Each stage regenerates what it reads instead of loading the files of an
earlier stage.  ``gen``, ``score`` and ``all`` generate the whole task:
``gen`` writes it out, and scoring reads the train and test texts.
``score`` synthesises the train negatives only so that ``load_checkpoint``
can build the task's vocabulary, the one dict that training, the checkpoint
and scoring read, and refuse a checkpoint whose vocabulary differs.
``train`` reads only the train pairs, so it generates only the train split;
that split leads the task's view stream and every render and negative is
seeded by its sample id, so its views, texts, negatives and vocabulary are
those of the whole task.  This module names
every stream a task draws: "scenes" for the views; "render" per sample and
"negative" per train sample, by sample id, each kind in one ``derive_rngs``
call and one pass; and "train", which ``init_params`` and ``fit`` each
start.  Each of the first three is read by one consumer and then dropped,
so it is read through ``Draws``, which gives the same values as the plain
generator; "train" stays a generator, since ``init_params`` and ``fit``
draw arrays.

Only the run-directory section at the end writes or reads a file of the
output directory; ``run_task`` and ``run_benchmark`` also name a task's
checkpoint.  The other modules hold no file format.  The section's writers
format the description, pair and score lines themselves, one ``%`` format
per record kind, under the README's line contract that each line is
``json.dumps(record, sort_keys=True)``; ``tests/test_pipeline_cli.py``
pins that contract against ``json.dumps``, for awkward strings and floats
and on every line of a run.  Each file is written in one call, and a score
file is parsed in one call unless it is damaged.  A checkpoint holds
the activation table that scoring reads under one JSON header (format
version, config fingerprint, the task's vocabulary); ``load_checkpoint`` is
the one place it is checked, against the run that loads it.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import describe, knn, metrics, negatives, scenarios, scenes, trainer
from .describe import CONDITION_RENDER_DEFAULTS
from .encoder import (EncodeError, activation_table, build_vocabulary,
                      encode_texts, init_params)
from .seeding import Draws, derive_rngs

CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class PipelineConfig:
    master_seed: int = 0
    scenario_ids: tuple[str, ...] = tuple(sorted(scenarios.SCENARIOS))
    conditions: tuple[scenes.Condition, ...] = tuple(scenes.Condition)
    train: trainer.TrainConfig = field(default_factory=trainer.TrainConfig)
    k: int = knn.DEFAULT_K
    dim: int = 64
    skip_training: bool = False  # frozen random-init encoder baseline
    jobs: int = 0  # 0 -> one per CPU this process may run on

    def __post_init__(self):
        if not self.scenario_ids or not self.conditions:
            raise ValueError("select at least one scenario and one condition")
        for kind, chosen in (("scenario", self.scenario_ids),
                             ("condition", [c.value for c in self.conditions])):
            repeated = sorted({x for x in chosen if chosen.count(x) > 1})
            if repeated:
                raise ValueError(f"{kind} selected more than once: "
                                 f"{', '.join(repeated)}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.dim < 2:
            raise ValueError("embedding dimension must be >= 2")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one per usable CPU)")

    def tasks(self) -> list[tuple[str, scenes.Condition]]:
        return [(s, c) for s in self.scenario_ids for c in self.conditions]


@dataclass
class TaskArtifacts:
    scenario_id: str
    condition: scenes.Condition
    samples: tuple[scenes.TaskSample, ...]  # train samples first
    records: tuple[describe.AttributeRecord, ...]  # one per sample, in order
    negatives: tuple[describe.AttributeRecord, ...]  # one per train sample

    @property
    def task_id(self) -> str:
        return scenes.task_id_for(self.scenario_id, self.condition)

    def split(self, name: str) -> tuple[list[scenes.TaskSample], list[str]]:
        """The samples of one split and their texts, in sample order."""
        chosen = [(s, r.text) for s, r in zip(self.samples, self.records)
                  if s.split == name]
        return [s for s, _ in chosen], [text for _, text in chosen]

    @functools.cached_property
    def vocabulary(self) -> dict[str, int]:
        """Token -> id of the train texts and negatives, built once, lazily."""
        _, train_texts = self.split("train")
        return build_vocabulary(train_texts + [n.text for n in self.negatives])


def generate_task(config: PipelineConfig, scenario_id: str,
                  condition: scenes.Condition,
                  counts: scenes.SplitCounts) -> TaskArtifacts:
    """Views, render records (in sample order) and train negatives of one
    task, one pass per stream kind.  Every sample has its own streams, so any
    counts with the same ``train_normal`` give the same train samples,
    records and negatives."""
    spec = scenarios.get_scenario(scenario_id)
    render_cfg = CONDITION_RENDER_DEFAULTS[condition]
    seed_parts = (config.master_seed, scenario_id, condition.value)
    (scene_rng,) = derive_rngs(*seed_parts, names=["scenes"])
    samples = scenes.build_task(spec, counts, Draws(scene_rng))
    render_rngs = derive_rngs(*seed_parts, "render",
                              names=[s.sample_id for s in samples])
    records = tuple(describe.render(s.view, render_cfg, Draws(rng), spec.grammar)
                    for s, rng in zip(samples, render_rngs))
    negative_rngs = derive_rngs(
        *seed_parts, "negative",
        names=[s.sample_id for s in samples if s.split == "train"])
    return TaskArtifacts(scenario_id, condition, samples, records, tuple(
        negatives.synthesize_negative(r, spec.grammar, Draws(rng))
        for r, rng in zip(records, negative_rngs)))


def train_task(config: PipelineConfig, artifacts: TaskArtifacts
               ) -> tuple[np.ndarray, list[float]]:
    """Fit (or, for the baseline, just initialize) the task's encoder; returns
    its (V, D) activation table with the mean loss of each epoch, none for the
    baseline.  A training error, or a table that overflowed, names the task."""
    _, train_texts = artifacts.split("train")
    vocab = artifacts.vocabulary
    # fit restarts init's stream: pinned bytes until ROADMAP item 5 renames it
    init_rng, fit_rng = derive_rngs(
        config.master_seed, artifacts.scenario_id, artifacts.condition.value,
        names=["train", "train"])
    params = init_params(len(vocab), dim=config.dim, rng=init_rng)
    losses = []
    try:
        if not config.skip_training:
            params, losses = trainer.fit(
                train_texts, [n.text for n in artifacts.negatives], vocab,
                config.train, params, fit_rng)
        table = activation_table(params)
    except (trainer.TrainingError, EncodeError) as exc:
        raise trainer.TrainingError(f"{artifacts.task_id}: {exc}") from None
    return table, losses


def score_task(config: PipelineConfig, artifacts: TaskArtifacts,
               table: np.ndarray
               ) -> tuple[metrics.TaskReport, np.ndarray, np.ndarray, np.ndarray]:
    """Score the test split against the train split's library through
    ``table``: the report, then ``knn.score``'s scores, distances and rows."""
    _, train_texts = artifacts.split("train")
    test, test_texts = artifacts.split("test")
    library, queries = (encode_texts(texts, table, artifacts.vocabulary)
                        for texts in (train_texts, test_texts))
    scores, means, nearest = knn.score(queries, library, config.k)
    report = metrics.make_task_report(
        artifacts.scenario_id, artifacts.condition, scores,
        [s.label for s in test])
    return report, scores, means, nearest


class CheckpointError(ValueError):
    """A run-directory input is missing or belongs to another run (exit 2)."""


STAGES = ("gen", "train", "score", "all")


def run_task(config: PipelineConfig, out_dir: Path, stages: str,
             scenario_id: str, condition: scenes.Condition
             ) -> tuple[str, Optional[metrics.TaskReport]]:
    """Run the stages of one command for one task and write the task's files.

    ``stages`` names the command: ``gen`` writes scenes, descriptions and
    pairs; ``train`` fits the encoder and writes its checkpoint and loss
    curve; ``score`` loads and checks the checkpoint and writes the scores;
    ``all`` does all three.  Returns the line to print and, when the task
    was scored, its report.
    """
    counts = scenarios.get_scenario(scenario_id).counts
    if stages == "train":
        # training reads only the train pairs: generate no test view
        counts = scenes.SplitCounts(counts.train_normal, 0, 0, 0, 0)
    artifacts = generate_task(config, scenario_id, condition, counts)
    task_id = artifacts.task_id
    if stages in ("gen", "all"):
        write_task_files(out_dir, artifacts)
        if stages == "gen":
            return f"gen {task_id}: {len(artifacts.samples)} samples", None
    checkpoint = _task_path(out_dir, task_id, "ckpt.npz")
    if stages == "score":
        table = load_checkpoint(checkpoint, config, artifacts)
    else:
        table, losses = train_task(config, artifacts)
        save_checkpoint(checkpoint, table, config, artifacts)
        write_loss_curve(out_dir, task_id, losses)
        if stages == "train":
            if config.skip_training:
                return f"train {task_id}: not trained (skip_training)", None
            return f"train {task_id}: final loss {losses[-1]:.4f}", None
    report, scores, means, nearest = score_task(config, artifacts, table)
    write_score_file(out_dir, artifacts, scores, means, nearest)
    prefix = "score " if stages == "score" else ""
    return f"{prefix}{task_id}: AUROC {report.auroc:.4f}", report


def usable_cpus() -> int:
    """The CPUs this process may run on; the machine's count where the
    platform cannot tell (macOS has no ``sched_getaffinity``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_benchmark(config: PipelineConfig, out_dir: Path, stages: str
                  ) -> Iterator[tuple[str, Optional[metrics.TaskReport]]]:
    """Run one command's stages over every selected task, yielding in task order.

    Each task writes its own files before its result is yielded.  Tasks run
    in this process at ``config.jobs == 1`` and in worker processes
    otherwise.  ``score`` first checks that every checkpoint exists, so a
    missing one stops the run before any task starts.
    """
    tasks = config.tasks()
    if stages == "score":
        for scenario_id, condition in tasks:
            task_id = scenes.task_id_for(scenario_id, condition)
            if not _task_path(out_dir, task_id, "ckpt.npz").exists():
                raise CheckpointError(
                    f"no checkpoint for {task_id}; run `logicad train` first")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = config.jobs if config.jobs > 0 else usable_cpus()
    if jobs == 1 or len(tasks) <= 1:
        for scenario_id, condition in tasks:
            yield run_task(config, out_dir, stages, scenario_id, condition)
        return
    # lazy: importing multiprocessing adds ~1.8 MB to a serial run's peak RSS
    from concurrent.futures import ProcessPoolExecutor
    n = len(tasks)
    with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
        # map yields in submission order, whatever order the workers finish in
        yield from pool.map(run_task, [config] * n, [out_dir] * n, [stages] * n,
                            [s for s, _ in tasks], [c for _, c in tasks])


# --- the run directory ----------------------------------------------------

def _task_path(out_dir: Path, task_id: str, kind: str) -> Path:
    """The file of one kind (``scenes.jsonl``, ``ckpt.npz``, ...) of a task."""
    return out_dir / f"{task_id}.{kind}"


def _write_lines(out_dir: Path, task_id: str, kind: str, lines: list[str]) -> None:
    """A task's file of one kind, its lines joined and written in one call."""
    _task_path(out_dir, task_id, kind).write_text("".join(lines),
                                                  encoding="utf-8")


# json.dumps's text for a str, as its default ensure_ascii=True writes it
_json_str = json.encoder.encode_basestring_ascii

# The line of each record kind, keys sorted: strings go in through _json_str,
# floats through %r, which is json's text for a finite float (scores and
# distances are finite: a distance between unit rows is at most 2).
_DESCRIPTION_LINE = ('{"label": %s, "sample_id": %s, "split": %s, '
                     '"task_id": %s, "text": %s}\n')
_PAIR_LINE = ('{"edits": [%s], "neg_text": %s, "pos_text": %s, '
              '"sample_id": %s, "task_id": %s}\n')
_EDIT = '{"aspect": %s, "new": %s, "old": %s, "slot": %s}'
_SCORE_LINE = ('{"label": %s, "mean_distance": %r, "neighbor_ids": [%s], '
               '"sample_id": %s, "score": %r, "task_id": %s}\n')


def _edits_json(edits: list[dict]) -> str:
    """The items of a pair line's ``edits`` list, as ``_PAIR_LINE`` holds them."""
    return ", ".join([_EDIT % (_json_str(e["aspect"]), _json_str(e["new"]),
                               _json_str(e["old"]), _json_str(e["slot"]))
                      for e in edits])


def write_task_files(out_dir: Path, artifacts: TaskArtifacts) -> None:
    """The task's scene, description and negative-pair files, each in one write.

    A scene line holds no sample id, so it is built here, for the scene file
    only, once per distinct (split, label, view) and written again for each
    later sample that repeats it.
    """
    task_id = artifacts.task_id
    spec = scenarios.get_scenario(artifacts.scenario_id)
    cached: dict[tuple, str] = {}
    lines = []
    for s in artifacts.samples:
        key = (s.split, s.label, repr(s.view))
        line = cached.get(key)
        if line is None:
            line = cached[key] = json.dumps(
                {"task_id": task_id, "scenario": artifacts.scenario_id,
                 "condition": artifacts.condition.value, "split": s.split,
                 "label": s.label.value,
                 "scene": spec.build(s.view)},
                sort_keys=True) + "\n"
        lines.append(line)
    _write_lines(out_dir, task_id, "scenes.jsonl", lines)
    task = _json_str(task_id)
    _write_lines(out_dir, task_id, "descriptions.jsonl", [
        _DESCRIPTION_LINE % (_json_str(s.label.value), _json_str(s.sample_id),
                             _json_str(s.split), task, _json_str(r.text))
        for s, r in zip(artifacts.samples, artifacts.records)])
    # train samples come first, so the negatives pair with the leading records
    _write_lines(out_dir, task_id, "pairs.jsonl", [
        _PAIR_LINE % (_edits_json(negatives.pair_edits(pos, neg, spec.grammar)),
                      _json_str(neg.text), _json_str(pos.text),
                      _json_str(s.sample_id), task)
        for s, pos, neg in zip(artifacts.samples, artifacts.records,
                               artifacts.negatives)])


def write_score_file(out_dir: Path, artifacts: TaskArtifacts, scores: np.ndarray,
                     means: np.ndarray, nearest: np.ndarray) -> None:
    task_id = artifacts.task_id
    (train, _), (test, _) = artifacts.split("train"), artifacts.split("test")
    task, train_ids = _json_str(task_id), [_json_str(s.sample_id) for s in train]
    _write_lines(out_dir, task_id, "scores.jsonl", [
        _SCORE_LINE % (_json_str(s.label.value), mean,
                       ", ".join([train_ids[i] for i in row]),
                       _json_str(s.sample_id), score, task)
        for s, score, mean, row in zip(test, scores.tolist(), means.tolist(),
                                       nearest.tolist())])


def _parse_lines(data: bytes) -> Optional[list]:
    """The JSON value of each line of ``data``, from one ``json.loads``; None
    unless every line is exactly one JSON value.

    The lines are parsed as one array with a ``NaN`` between each two, which
    ``parse_constant`` turns into a marker: the parse holds one value per line
    exactly when the markers alone fill every second place of the array and
    the file itself holds no NaN or Infinity.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    text = text.removesuffix("\n")
    marker, constants = object(), []

    def constant(name: str) -> object:
        constants.append(name)
        return marker

    try:
        values = json.loads("[" + text.replace("\n", ",NaN,") + "]",
                            parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    n = text.count("\n") + 1
    if (len(values) != 2 * n - 1 or len(constants) != n - 1
            or values[1::2].count(marker) != n - 1):
        return None
    return values[::2]


def read_score_file(out_dir: Path, scenario_id: str, condition: scenes.Condition
                    ) -> tuple[list[float], list[scenes.Label]]:
    """(scores, labels) of a task's score file: a damaged one, or one without
    a line per test sample in the split's order, raises ValueError; another
    task's CheckpointError.  The file is parsed in one piece where each line
    is one JSON value, and line by line otherwise, so that the first line
    that fails is named."""
    task_id = scenes.task_id_for(scenario_id, condition)
    path = _task_path(out_dir, task_id, "scores.jsonl")
    if not path.exists():
        raise CheckpointError(f"no score file for {task_id}; run `logicad score` "
                              "first")
    data = path.read_bytes()
    parsed = _parse_lines(data)
    scores, labels, sample_ids = [], [], []
    for lineno, line in enumerate(io.BytesIO(data) if parsed is None else parsed,
                                  start=1):
        try:  # json.loads decodes the bytes, so bad UTF-8 names its line
            record = line if parsed is not None else json.loads(line)
            owner = record["task_id"]
            score = record["score"]
            if (isinstance(score, bool) or not isinstance(score, (int, float))
                    or not math.isfinite(score)):
                raise ValueError(f"score {score!r} is not a finite number")
            scores.append(score)
            labels.append(scenes.Label(record["label"]))
            sample_ids.append(record["sample_id"])
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: not a score record "
                             f"({type(exc).__name__}: {exc})") from None
        if owner != task_id:
            raise CheckpointError(f"{path}:{lineno}: a score of {owner!r}, not "
                                  f"{task_id}: the file belongs to another run")
    expected = scenarios.get_scenario(scenario_id).counts.test_ids()
    if len(scores) != len(expected):
        raise ValueError(f"{path} holds {len(scores) or 'no'} scores; the test "
                         f"split of {task_id} has {len(expected)}")
    for lineno, (got, want) in enumerate(zip(sample_ids, expected), start=1):
        if got != want:
            raise ValueError(f"{path}:{lineno}: a score of {got!r}, not "
                             f"{want}: the test split of {task_id} has one "
                             "line per sample, in order")
    return scores, labels


def write_report(out_dir: Path, text: str, fmt: str) -> Path:
    """Write the aggregate report as report.csv or report.md; returns its path."""
    path = out_dir / f"report.{'csv' if fmt == 'csv' else 'md'}"
    path.write_text(text, encoding="utf-8")
    return path


def write_loss_curve(out_dir: Path, task_id: str, losses: list[float]) -> None:
    rows = [f"{i}\t{loss:.10f}\n" for i, loss in enumerate(losses, start=1)]
    _task_path(out_dir, task_id, "loss.txt").write_text(
        "epoch\tmean_loss\n" + "".join(rows), encoding="utf-8")


def _fingerprint(config: PipelineConfig, task_id: str) -> dict:
    # dropout_rate is kept for a reader of the file: no setting sets it and
    # nothing loads it
    return {"task_id": task_id, **asdict(config.train),
            "dropout_rate": trainer.DROPOUT_RATE, "dim": config.dim,
            "master_seed": config.master_seed,
            "skip_training": config.skip_training}


def save_checkpoint(path, table: np.ndarray, config: PipelineConfig,
                    artifacts: TaskArtifacts) -> None:
    """The activation table under one sorted-key JSON header: the format
    version, the config fingerprint and the task's vocabulary."""
    header = {"version": CHECKPOINT_VERSION,
              "fingerprint": _fingerprint(config, artifacts.task_id),
              "vocab": artifacts.vocabulary}
    np.savez(path, header=np.bytes_(json.dumps(header, sort_keys=True).encode()),
             table=table)


# A checkpoint is matched on these fingerprint settings and the vocabulary.
# Scoring reads no training setting, so none is compared, though
# ``score --config`` can set them.
_MATCHED_SETTINGS = ("task_id", "master_seed", "dim", "skip_training")


def load_checkpoint(path, config: PipelineConfig,
                    artifacts: TaskArtifacts) -> np.ndarray:
    """The activation table at ``path``, checked against this run's task.

    Every member is read through one guard; a file that is not a whole
    checkpoint raises ValueError naming the damaged member, or the archive
    when it cannot be opened.  A header that is not a JSON object, or whose
    ``fingerprint`` or ``vocab`` is not one, is refused alike; one of
    another version (1 and 2 held a ``version`` member and no header) is
    refused as such.  One made for another task, seed, dim, kind or
    vocabulary (``artifacts.vocabulary``, negatives included) raises
    CheckpointError naming what differs.  Only then is the table checked:
    finite floats of this run's (V, D).
    """
    def unreadable(reason: str) -> ValueError:
        return ValueError(f"{path} is not a readable checkpoint: {reason}")

    def unsupported(version) -> ValueError:
        return ValueError(f"{path}: unsupported checkpoint version {version}; "
                          f"this logicad reads version {CHECKPOINT_VERSION}: "
                          "run `logicad train` again")

    members, name = {}, None
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            for name in (m for m in ("version", "header", "table") if m in data):
                members[name] = data[name]
    except Exception as exc:  # zipfile and numpy each raise their own kinds
        raise unreadable("not a whole npz archive" if name is None
                         else f"{name} cannot be read ({exc})") from None
    if "version" in members and "header" not in members:
        raise unsupported(members["version"].tolist())
    missing = [m for m in ("header", "table") if m not in members]
    if missing:
        raise unreadable("it lacks " + ", ".join(missing))
    try:
        header = json.loads(bytes(members["header"]).decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or too deep
        header = None
    if not isinstance(header, dict):
        raise unreadable("header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise unsupported(header.get("version"))
    for key in ("fingerprint", "vocab"):
        if not isinstance(header.get(key), dict):
            raise unreadable(f"header {key} is not a JSON object")
    stored, vocab = header["fingerprint"], artifacts.vocabulary
    expected = _fingerprint(config, artifacts.task_id)
    problems = [f"{key} is {stored.get(key)!r}, expected {expected[key]!r}"
                for key in _MATCHED_SETTINGS if stored.get(key) != expected[key]]
    if header["vocab"] != vocab:
        problems.append("vocabulary differs from the one the training pairs build")
    if problems:
        raise CheckpointError(f"{path} was not trained for this run: "
                              + "; ".join(problems))
    table, shape = members["table"], (len(vocab), config.dim)
    if (not np.issubdtype(table.dtype, np.floating) or table.shape != shape
            or not np.isfinite(table).all()):
        raise unreadable(f"table is not a {shape} array of finite floats")
    return table
