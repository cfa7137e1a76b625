"""Command line interface: gen / train / score / eval / report / all.

``COMMANDS`` holds each command's help line, and ``run_command`` runs every
command: it prints each task's line and, for ``report`` and ``all``, writes
and prints the aggregate report.  ``SETTINGS`` holds
one row per config key: its value parser, the ``PipelineConfig`` or
``TrainConfig`` field it sets, and the commands that also take it as a
``--flag``.  The config file, the flags and ``resolve_config`` read it.

Settings resolve in order: the dataclass defaults, then a flat ``key=value``
config file, then explicit flags.  An unknown config key is rejected so a
typo cannot silently fall back to a default; a known key is accepted by
every command, also by one that does not read it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import metrics, pipeline, scenarios, scenes, trainer

OUT_DIR_ENV = "LOGICAD_OUT_DIR"


class CliError(Exception):
    """A bad command line or config file; ``main`` prints it and exits 2."""


# command -> help line
COMMANDS = {
    "gen": "generate scenes, descriptions, pairs",
    "train": "fit per-task encoders, save checkpoints",
    "score": "score test splits with saved encoders",
    "eval": "per-task AUROC from score files",
    "report": "aggregate report over all tasks",
    "all": "run the whole pipeline end to end",
}

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, "
                         f"got {raw!r}") from None


def _parse_names(kind: str, choices: dict) -> Callable[[str], tuple]:
    """A parser of a comma list of ``choices`` keys into their values; an
    unknown name exits 2 and lists the keys."""
    def parse(raw: str) -> tuple:
        names = [s.strip() for s in raw.split(",") if s.strip()]
        for name in names:
            if name not in choices:
                raise CliError(f"unknown {kind} {name!r}; choose from "
                               f"{', '.join(choices)}")
        return tuple(choices[name] for name in names)
    return parse


def _parse_out_dir(raw: str) -> str:
    if not raw:
        raise CliError(f"empty output directory: give a path, or leave it "
                       f"unset to use ${OUT_DIR_ENV}")
    return raw


class Setting(NamedTuple):
    parse: Callable[[str], object]
    field: str | None  # the PipelineConfig or TrainConfig field it sets
    commands: tuple[str, ...] = ()  # the commands that take it as a --flag
    help: str | None = None


_EVERY_COMMAND = tuple(COMMANDS)
SETTINGS = {
    "seed": Setting(int, "master_seed", _EVERY_COMMAND, "master seed "
                    f"(default {pipeline.PipelineConfig.master_seed})"),
    "scenario": Setting(
        _parse_names("scenario", {s: s for s in sorted(scenarios.SCENARIOS)}),
        "scenario_ids", _EVERY_COMMAND, "comma-separated scenario ids"),
    "condition": Setting(
        _parse_names("condition", {c.value: c for c in scenes.Condition}),
        "conditions", _EVERY_COMMAND, "comma-separated capture conditions"),
    "out_dir": Setting(_parse_out_dir, None, _EVERY_COMMAND,
                       f"output directory (or ${OUT_DIR_ENV})"),
    "jobs": Setting(int, "jobs", ("gen", "train", "score", "all"),
                    "parallel task workers (0=auto)"),
    "k": Setting(int, "k", ("score", "all"),
                 f"neighbors (default {pipeline.PipelineConfig.k})"),
    "epochs": Setting(int, "epochs", ("train", "all")),
    "learning_rate": Setting(float, "learning_rate", ("train", "all")),
    "dim": Setting(int, "dim"),
    "batch_size": Setting(int, "batch_size"),
    "temperature": Setting(float, "temperature"),
    "weight_decay": Setting(float, "weight_decay"),
    "clip_norm": Setting(float, "clip_norm"),
    "skip_training": Setting(_parse_bool, "skip_training"),
}


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
        if key not in SETTINGS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise CliError(f"{path}:{lineno}: {key} is already set on line "
                           f"{set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = SETTINGS[key].parse(value.strip())
        except (ValueError, CliError) as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logicad",
        description="Logical anomaly detection over rendered scene descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_line in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="flat key=value config file")
        for key, setting in SETTINGS.items():
            if command in setting.commands:
                p.add_argument("--" + key.replace("_", "-"),
                               type=setting.parse, help=setting.help)
        if command in ("report", "all"):
            p.add_argument("--format", choices=("csv", "markdown"),
                           default="markdown")
        if command == "all":
            p.add_argument("--baseline", action="store_true",
                           help="skip training; score with the random-init encoder")
    return parser


def resolve_config(args) -> tuple[pipeline.PipelineConfig, Path]:
    values = load_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in SETTINGS
                  if getattr(args, key, None) is not None)
    if getattr(args, "baseline", False):
        values["skip_training"] = True

    out_dir = values.pop("out_dir", None) or os.environ.get(OUT_DIR_ENV)
    if not out_dir:
        raise CliError(f"no output directory: pass --out-dir or set ${OUT_DIR_ENV}")
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise CliError(f"output directory {out_dir} is not a directory")

    train_fields = {f.name for f in dataclasses.fields(trainer.TrainConfig)}
    fields, train = {}, {}
    for key, value in values.items():
        field = SETTINGS[key].field
        (train if field in train_fields else fields)[field] = value
    try:
        config = pipeline.PipelineConfig(
            **fields, train=trainer.TrainConfig(**train))
    except ValueError as exc:
        raise CliError(f"bad setting: {exc}")
    return config, Path(out_dir)


def run_command(config: pipeline.PipelineConfig, out_dir: Path, args) -> None:
    """Print each task's line in task order (``report`` prints none); for
    ``report`` and ``all``, then write and print the aggregate report."""
    if args.command in ("eval", "report"):
        results = pipeline.read_reports(config, out_dir)
    else:
        results = pipeline.run_benchmark(config, out_dir, args.command)
    reports = []
    for line, report in results:
        if args.command != "report":
            print(line, flush=True)
        reports.append(report)
    if args.command in ("report", "all"):
        agg = metrics.aggregate(reports)
        text = metrics.emit_report(agg, args.format)
        path = pipeline.write_report(out_dir, text, args.format)
        print(text, end="")
        print(f"wrote {path}" if args.command == "report" else
              f"mean AUROC {agg.mean_of_means:.4f} +/- {agg.std_of_means:.4f}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config, out_dir = resolve_config(args)
        run_command(config, out_dir, args)
        return 0
    except (CliError, pipeline.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
