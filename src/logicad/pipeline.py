"""Per-task orchestration: generate, describe, synthesize, train, score, report.

Each (scenario, condition) task is independent; its seeds are derived from
the master seed plus the task identity and pipeline stage, so stages can
be rerun in isolation and tasks can run in parallel workers.  Every
per-task command goes through ``run_benchmark``, which runs ``run_task``
once per task.

Each stage regenerates what it reads instead of loading the files of an
earlier stage.  ``gen``, ``score`` and ``all`` generate the whole task:
``gen`` writes it out, and scoring reads the test split.  ``score`` reads
only the train and test texts; it synthesises the train negatives only so
that ``load_checkpoint`` can rebuild the vocabulary from the train pairs
and refuse a checkpoint whose vocabulary differs.  ``train`` reads
only the train pairs, so it generates only the train split; that split
leads the task's view stream and every render and negative is seeded by
its sample id, so its views, texts, pairs and vocabulary are those of the
whole task.

Only the run-directory section at the end writes or reads a file of the
output directory; ``run_task`` and ``run_benchmark`` also name a task's
checkpoint.  The other modules hold no file format.  A checkpoint holds
the vocabulary and activation table that scoring reads; ``load_checkpoint``
is the one place it is checked, against the run that loads it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import describe, knn, metrics, negatives, scenarios, scenes, trainer
from .describe import CONDITION_RENDER_DEFAULTS
from .encoder import Vocabulary, activation_table, encode_texts, init_params
from .seeding import derive_rng, derive_seed

CHECKPOINT_VERSION = 2


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
    texts: dict[str, str]            # sample_id -> description
    # train sample_id -> (positive record, negative record)
    pairs: dict[str, tuple[describe.AttributeRecord, describe.AttributeRecord]]

    @property
    def task_id(self) -> str:
        return scenes.task_id_for(self.scenario_id, self.condition)

    def split(self, split: str) -> list[scenes.TaskSample]:
        return [s for s in self.samples if s.split == split]

    def train_pairs(self) -> tuple[list[str], list[str]]:
        ids = [s.sample_id for s in self.split("train")]
        pos = [self.pairs[i][0].text for i in ids]
        neg = [self.pairs[i][1].text for i in ids]
        return pos, neg

    def vocabulary(self) -> Vocabulary:
        pos, neg = self.train_pairs()
        return Vocabulary.build(pos + neg)


def generate_task(config: PipelineConfig, scenario_id: str,
                  condition: scenes.Condition,
                  counts: scenes.SplitCounts) -> TaskArtifacts:
    """Views, descriptions and negative pairs for one task.

    Any counts with the same ``train_normal`` give the same train samples,
    texts and pairs.
    """
    spec = scenarios.get_scenario(scenario_id)
    render_cfg = CONDITION_RENDER_DEFAULTS[condition]
    samples = scenes.build_task(
        spec, counts,
        derive_seed(config.master_seed, scenario_id, condition.value, "scenes"))
    texts = {}
    pairs = {}
    for sample in samples:
        # a config that draws nothing needs no stream: white_bg renders clean
        rng = derive_rng(config.master_seed, scenario_id, condition.value,
                         "render", sample.sample_id) if render_cfg.draws else None
        record = describe.render(sample.view, render_cfg, rng, spec.grammar)
        texts[sample.sample_id] = record.text
        if sample.split == "train":
            neg_rng = derive_rng(config.master_seed, scenario_id,
                                 condition.value, "negative", sample.sample_id)
            pairs[sample.sample_id] = (
                record, negatives.synthesize_negative(record, spec.grammar,
                                                      neg_rng))
    return TaskArtifacts(scenario_id, condition, samples, texts, pairs)


@dataclass
class TrainedTask:
    vocab: Vocabulary
    table: np.ndarray  # (V, D) activation table: all that scoring reads
    epoch_losses: list[float]


def train_task(config: PipelineConfig, artifacts: TaskArtifacts) -> TrainedTask:
    """Fit (or, for the baseline, just initialize) the task's encoder."""
    pos_texts, neg_texts = artifacts.train_pairs()
    vocab = artifacts.vocabulary()
    seed = derive_seed(config.master_seed, artifacts.scenario_id,
                       artifacts.condition.value, "train")
    params = init_params(vocab.size, dim=config.dim, seed=seed)
    losses = []
    if not config.skip_training:
        try:
            params, losses = trainer.fit(pos_texts, neg_texts, vocab,
                                         config.train, params, seed)
        except trainer.TrainingError as exc:
            raise trainer.TrainingError(f"{artifacts.task_id}: {exc}") from None
    return TrainedTask(vocab=vocab, table=activation_table(params),
                       epoch_losses=losses)


@dataclass
class ScoredTask:
    report: metrics.TaskReport
    # per test sample: (sample_id, label, score, mean distance, neighbor ids)
    results: list[tuple[str, scenes.Label, float, float, list[str]]]


def score_task(config: PipelineConfig, artifacts: TaskArtifacts,
               trained: TrainedTask) -> ScoredTask:
    """Encode the train split as the reference library and score the test split."""
    train, test = artifacts.split("train"), artifacts.split("test")
    library, queries = (
        encode_texts([artifacts.texts[s.sample_id] for s in samples],
                     trained.table, trained.vocab)
        for samples in (train, test))
    scores, means, nearest = knn.score(queries, library, config.k)
    results = [(s.sample_id, s.label, score, mean,
                [train[i].sample_id for i in row])
               for s, score, mean, row in zip(test, scores.tolist(),
                                              means.tolist(), nearest.tolist())]
    report = metrics.make_task_report(
        artifacts.scenario_id, artifacts.condition, scores,
        [s.label for s in test])
    return ScoredTask(report=report, results=results)


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
        trained = load_checkpoint(checkpoint, config, artifacts)
    else:
        trained = train_task(config, artifacts)
        save_checkpoint(checkpoint, trained, config, task_id)
        write_loss_curve(out_dir, task_id, trained.epoch_losses)
        if stages == "train":
            if not trained.epoch_losses:
                return f"train {task_id}: not trained (skip_training)", None
            return (f"train {task_id}: final loss "
                    f"{trained.epoch_losses[-1]:.4f}", None)
    scored = score_task(config, artifacts, trained)
    write_score_file(out_dir, scored)
    prefix = "score " if stages == "score" else ""
    return f"{prefix}{task_id}: AUROC {scored.report.auroc:.4f}", scored.report


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


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_task_files(out_dir: Path, artifacts: TaskArtifacts) -> None:
    """The task's scene, description and negative-pair files.

    A scene line holds no sample id, so it is built here, for the scene file
    only, once per distinct (split, label, view) and written again for each
    later sample that repeats it.
    """
    task_id = artifacts.task_id
    spec = scenarios.get_scenario(artifacts.scenario_id)
    lines: dict[tuple, str] = {}
    with open(_task_path(out_dir, task_id, "scenes.jsonl"), "w",
              encoding="utf-8") as fh:
        for s in artifacts.samples:
            key = (s.split, s.label, repr(s.view))
            line = lines.get(key)
            if line is None:
                line = lines[key] = json.dumps(
                    {"task_id": task_id, "scenario": artifacts.scenario_id,
                     "condition": artifacts.condition.value, "split": s.split,
                     "label": s.label.value,
                     "scene": spec.build(s.view)},
                    sort_keys=True) + "\n"
            fh.write(line)
    _write_jsonl(_task_path(out_dir, task_id, "descriptions.jsonl"), (
        {"task_id": task_id, "sample_id": s.sample_id, "split": s.split,
         "label": s.label.value, "text": artifacts.texts[s.sample_id]}
        for s in artifacts.samples))
    _write_jsonl(_task_path(out_dir, task_id, "pairs.jsonl"), (
        {"task_id": task_id, "sample_id": sample_id,
         "pos_text": pos.text, "neg_text": neg.text,
         "edits": negatives.pair_edits(pos, neg, spec.grammar)}
        for sample_id, (pos, neg) in artifacts.pairs.items()))


def write_score_file(out_dir: Path, scored: ScoredTask) -> None:
    task_id = scored.report.task_id
    _write_jsonl(_task_path(out_dir, task_id, "scores.jsonl"), (
        {"task_id": task_id, "sample_id": sample_id, "label": label.value,
         "score": score, "mean_distance": mean, "neighbor_ids": neighbor_ids}
        for sample_id, label, score, mean, neighbor_ids in scored.results))


def read_score_file(out_dir: Path, task_id: str
                    ) -> tuple[list[float], list[scenes.Label]]:
    """(scores, labels) of a task's score file; a damaged one raises ValueError."""
    path = _task_path(out_dir, task_id, "scores.jsonl")
    if not path.exists():
        raise CheckpointError(f"no score file for {task_id}; run `logicad score` "
                              "first")
    scores, labels = [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:  # json.loads decodes the bytes, so bad UTF-8 names its line
                record = json.loads(line)
                score = record["score"]
                if (isinstance(score, bool) or not isinstance(score, (int, float))
                        or not math.isfinite(score)):
                    raise ValueError(f"score {score!r} is not a finite number")
                scores.append(score)
                labels.append(scenes.Label(record["label"]))
            except (KeyError, TypeError, ValueError, OverflowError,
                    RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: not a score record "
                                 f"({type(exc).__name__}: {exc})") from None
    if not scores:
        raise ValueError(f"{path} holds no scores")
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
            "master_seed": config.master_seed}


_CHECKPOINT_MEMBERS = ("version", "table", "vocab_json", "fingerprint",
                       "epoch_losses")


def save_checkpoint(path, trained: TrainedTask, config: PipelineConfig,
                    task_id: str) -> None:
    """Versioned checkpoint: activation table + vocabulary + config digest."""
    fingerprint = json.dumps(_fingerprint(config, task_id), sort_keys=True)
    vocab_json = json.dumps(trained.vocab.token_to_id, sort_keys=True)
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        table=trained.table,
        vocab_json=np.bytes_(vocab_json.encode("utf-8")),
        fingerprint=np.bytes_(fingerprint.encode("utf-8")),
        epoch_losses=np.asarray(trained.epoch_losses, dtype=np.float64),
    )


# A checkpoint is matched on task, master seed, dim, vocabulary and
# skip_training: the fingerprint settings below, and the other two in
# ``load_checkpoint``.  Scoring reads no training setting, so none is
# compared, though ``score --config`` can set them.
_MATCHED_SETTINGS = ("task_id", "master_seed", "dim")


def load_checkpoint(path, config: PipelineConfig,
                    artifacts: TaskArtifacts) -> TrainedTask:
    """The checkpoint at ``path``, checked against this run's task.

    The archive is opened and every member read through one guard; a file
    that is not a whole checkpoint raises ValueError naming the damaged
    member, or the archive when it cannot be opened; one of another format
    version is refused as such, whatever members it lacks.  One of another
    task, seed, dim, vocabulary (rebuilt from the train pairs, negatives
    included) or kind (a trained checkpoint holds at least one epoch loss, a
    baseline one none) raises CheckpointError naming what differs.  Only then
    is the table checked: finite floats of this run's (V, D).
    """
    def unreadable(reason: str) -> ValueError:
        return ValueError(f"{path} is not a readable checkpoint: {reason}")

    members, name = {}, None
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            for name in (m for m in _CHECKPOINT_MEMBERS if m in data):
                members[name] = data[name]
    except Exception as exc:  # zipfile and numpy each raise their own kinds
        raise unreadable("not a whole npz archive" if name is None
                         else f"{name} cannot be read ({exc})") from None
    version = members.get("version")
    if version is not None:
        if version.ndim or not np.issubdtype(version.dtype, np.integer):
            raise unreadable("version is not an integer")
        if int(version) != CHECKPOINT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {version}; this "
                f"logicad reads version {CHECKPOINT_VERSION}: run `logicad "
                "train` again")
    missing = [m for m in _CHECKPOINT_MEMBERS if m not in members]
    if missing:
        raise unreadable("it lacks " + ", ".join(missing))

    def json_object(name: str) -> dict:
        try:
            value = json.loads(bytes(members[name]).decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            value = None
        if not isinstance(value, dict):
            raise unreadable(f"{name} is not a JSON object")
        return value

    def finite_floats(name: str, shape: tuple) -> np.ndarray:
        """Member ``name``, a float array of ``shape`` (None: any size)."""
        value = members[name]
        if (not np.issubdtype(value.dtype, np.floating)
                or value.ndim != len(shape)
                or any(n not in (None, m) for n, m in zip(shape, value.shape))
                or not np.isfinite(value).all()):
            size = "1-D" if None in shape else f"{shape}"
            raise unreadable(f"{name} is not a {size} array of finite floats")
        return value

    stored = json_object("fingerprint")
    vocab = Vocabulary(json_object("vocab_json"))
    losses = finite_floats("epoch_losses", (None,)).tolist()
    expected = _fingerprint(config, artifacts.task_id)
    problems = [f"{key} is {stored.get(key)!r}, expected {expected[key]!r}"
                for key in _MATCHED_SETTINGS if stored.get(key) != expected[key]]
    skipped = not losses
    if skipped != config.skip_training:
        problems.append(f"skip_training is {skipped}, expected "
                        f"{config.skip_training}")
    if vocab != artifacts.vocabulary():
        problems.append("vocabulary differs from the one the training pairs build")
    if problems:
        raise CheckpointError(f"{path} was not trained for this run: "
                              + "; ".join(problems))
    return TrainedTask(vocab=vocab,
                       table=finite_floats("table", (vocab.size, config.dim)),
                       epoch_losses=losses)
