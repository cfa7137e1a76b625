"""Command line interface: gen / train / score / eval / report / all.

Settings resolve in order: the defaults of ``PipelineConfig`` and
``TrainConfig``, then a flat ``key=value`` config file, then explicit flags.
Unknown config keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import metrics, pipeline, scenarios, scenes, trainer

OUT_DIR_ENV = "LOGICAD_OUT_DIR"

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, "
                         f"got {raw!r}") from None


_CONFIG_KEYS = {
    "seed": int,
    "out_dir": str,
    "k": int,
    "jobs": int,
    "dim": int,
    "scenario": str,
    "condition": str,
    "epochs": int,
    "batch_size": int,
    "temperature": float,
    "learning_rate": float,
    "weight_decay": float,
    "clip_norm": float,
    "skip_training": _parse_bool,
}
# config keys named after the TrainConfig and the PipelineConfig field they
# set; resolve_config maps seed, scenario, condition and out_dir itself
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(trainer.TrainConfig))
_PIPELINE_KEYS = ("k", "dim", "jobs", "skip_training")


class CliError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    values, set_on = {}, {}
    # read_text turns \r\n and \r into \n, so these are the file's lines
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise CliError(f"{path}:{lineno}: {key} is already set on line "
                           f"{set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _parse_names(raw: str, kind: str, choices) -> tuple[str, ...]:
    """The names of a comma list; an unknown one exits 2 and lists ``choices``."""
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    for name in names:
        if name not in choices:
            raise CliError(f"unknown {kind} {name!r}; choose from "
                           f"{', '.join(choices)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logicad",
        description="Logical anomaly detection over rendered scene descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master seed (default "
                       f"{pipeline.PipelineConfig.master_seed})")
        p.add_argument("--scenario", help="comma-separated scenario ids")
        p.add_argument("--condition", help="comma-separated capture conditions")
        p.add_argument("--out-dir", help=f"output directory (or ${OUT_DIR_ENV})")

    def add_task_common(p):
        add_common(p)
        p.add_argument("--jobs", type=int, help="parallel task workers (0=auto)")

    p_gen = sub.add_parser("gen", help="generate scenes, descriptions, pairs")
    add_task_common(p_gen)

    p_train = sub.add_parser("train", help="fit per-task encoders, save checkpoints")
    add_task_common(p_train)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--learning-rate", type=float)

    p_score = sub.add_parser("score", help="score test splits with saved encoders")
    add_task_common(p_score)
    p_score.add_argument("--k", type=int, help="neighbors (default "
                         f"{pipeline.PipelineConfig.k})")

    p_eval = sub.add_parser("eval", help="per-task AUROC from score files")
    add_common(p_eval)

    p_report = sub.add_parser("report", help="aggregate report over all tasks")
    add_common(p_report)
    p_report.add_argument("--format", choices=("csv", "markdown"),
                          default="markdown")

    p_all = sub.add_parser("all", help="run the whole pipeline end to end")
    add_task_common(p_all)
    p_all.add_argument("--k", type=int)
    p_all.add_argument("--epochs", type=int)
    p_all.add_argument("--learning-rate", type=float)
    p_all.add_argument("--format", choices=("csv", "markdown"),
                       default="markdown")
    p_all.add_argument("--baseline", action="store_true",
                       help="skip training; score with the random-init encoder")
    return parser


def resolve_config(args) -> tuple[pipeline.PipelineConfig, Path]:
    values = load_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_KEYS
                  if getattr(args, key, None) is not None)
    if getattr(args, "baseline", False):
        values["skip_training"] = True

    out_dir = values.pop("out_dir", None) or os.environ.get(OUT_DIR_ENV)
    if not out_dir:
        raise CliError(f"no output directory: pass --out-dir or set ${OUT_DIR_ENV}")

    fields = {key: values[key] for key in _PIPELINE_KEYS if key in values}
    if "seed" in values:
        fields["master_seed"] = values["seed"]
    if "scenario" in values:
        fields["scenario_ids"] = _parse_names(
            values["scenario"], "scenario", sorted(scenarios.SCENARIOS))
    if "condition" in values:
        names = _parse_names(values["condition"], "condition",
                             [c.value for c in scenes.Condition])
        fields["conditions"] = tuple(scenes.Condition(n) for n in names)
    try:
        fields["train"] = trainer.TrainConfig(
            **{key: values[key] for key in _TRAIN_KEYS if key in values})
        config = pipeline.PipelineConfig(**fields)
    except ValueError as exc:
        raise CliError(f"bad setting: {exc}")
    return config, Path(out_dir)


def _reports_from_files(config: pipeline.PipelineConfig,
                        out_dir: Path) -> list[metrics.TaskReport]:
    reports = []
    for scenario_id, condition in config.tasks():
        task_id = scenes.task_id_for(scenario_id, condition)
        scores, labels = pipeline.read_score_file(out_dir, task_id)
        reports.append(metrics.make_task_report(task_id, scenario_id,
                                                condition, scores, labels))
    return reports


def _write_report(config: pipeline.PipelineConfig, out_dir: Path,
                  reports: list[metrics.TaskReport], fmt: str
                  ) -> tuple[metrics.AggregateReport, Path]:
    """Aggregate, write the report file and print it."""
    agg = metrics.aggregate(reports, config.tasks())
    text = metrics.emit_report(agg, fmt)
    path = pipeline.write_report(out_dir, text, fmt)
    print(text, end="")
    return agg, path


def cmd_tasks(config: pipeline.PipelineConfig, out_dir: Path, args) -> int:
    """gen, train, score and all: every task through pipeline.run_benchmark."""
    reports = []
    for line, report in pipeline.run_benchmark(config, out_dir, args.command):
        print(line, flush=True)
        reports.append(report)
    if args.command == "all":
        agg, _ = _write_report(config, out_dir, reports, args.format)
        print(f"mean AUROC {agg.mean_of_means:.4f} +/- {agg.std_of_means:.4f}")
    return 0


def cmd_eval(config: pipeline.PipelineConfig, out_dir: Path, args) -> int:
    for report in _reports_from_files(config, out_dir):
        subsets = " ".join(
            f"{label.value}={value:.4f}"
            for label, value in sorted(report.subset_auroc.items(),
                                       key=lambda kv: kv[0].value)
        )
        print(f"{report.task_id}: AUROC {report.auroc:.4f} ({subsets})")
    return 0


def cmd_report(config: pipeline.PipelineConfig, out_dir: Path, args) -> int:
    _, path = _write_report(config, out_dir, _reports_from_files(config, out_dir),
                            args.format)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "gen": cmd_tasks,
    "train": cmd_tasks,
    "score": cmd_tasks,
    "eval": cmd_eval,
    "report": cmd_report,
    "all": cmd_tasks,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, out_dir = resolve_config(args)
        return _COMMANDS[args.command](config, out_dir, args)
    except CliError:
        raise
    except pipeline.CheckpointError as exc:
        raise CliError(str(exc))
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
