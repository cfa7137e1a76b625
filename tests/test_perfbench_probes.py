"""The benchmark's probes still find the functions they time.

``perfbench/probes.py`` names each traced function as a (module, attribute)
pair under ``logicad``; a probe whose target is gone is skipped and its
metrics read 0.  This test reads ``PROBES`` from the file's syntax tree, so
it imports nothing from ``perfbench/``, and fails when a rename in ``src/``
leaves a probe without its target.  The six targets in ``DEAD`` were gone
before this check existed; ROADMAP item 14 drops them from the benchmark.

The benchmark's commands are checked the same way: ``WORKLOADS`` is read
from the syntax tree of ``perfbench/run.py``, and each command, with the
arguments that file adds, must still parse, so that a CLI rename fails here.
"""

import ast
import importlib
from pathlib import Path

from logicad import cli

PROBES_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
RUN_FILE = PROBES_FILE.with_name("run.py")

DEAD = {"describe.parse", "encoder.encode_tokens", "encoder.encode_backward",
        "knn.build_library", "knn.score_split", "knn.parse_score_record"}


def _probe_targets() -> list[tuple[str, str]]:
    tree = ast.parse(PROBES_FILE.read_text(encoding="utf-8"))
    [probes] = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["PROBES"]]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in probes.elts]


def _resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(f"logicad.{module_name}")
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_live_probe_target_resolves():
    targets = _probe_targets()
    assert targets
    unresolved = {f"{m}.{a}" for m, a in targets if not _resolves(m, a)}
    assert unresolved <= DEAD, sorted(unresolved - DEAD)
    assert {f"pipeline.{name}" for name in (
        "generate_task", "train_task", "score_task", "write_task_files",
        "write_score_file")} <= {f"{m}.{a}" for m, a in targets}


def _workloads() -> dict[str, tuple[tuple[tuple[str, ...], ...], str]]:
    """Each workload's commands and config text, as ``WORKLOADS`` states them."""
    tree = ast.parse(RUN_FILE.read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["WORKLOADS"]]
    workloads = {}
    for name, call in zip(table.keys, table.values):
        fields = dict(zip(("family", "commands", "config"), call.args))
        fields.update((keyword.arg, keyword.value) for keyword in call.keywords)
        config = ast.literal_eval(fields["config"]) if "config" in fields else ""
        workloads[ast.literal_eval(name)] = (ast.literal_eval(fields["commands"]),
                                             config)
    return workloads


def test_every_benchmark_command_parses(tmp_path):
    """``perfbench/run.py`` adds ``--seed`` and ``--out-dir`` to each command,
    and ``--config`` with the workload's config text when it has one."""
    workloads = _workloads()
    assert workloads
    for name, (commands, config_text) in workloads.items():
        extra = ["--seed", "0", "--out-dir", str(tmp_path / "out")]
        if config_text:
            path = tmp_path / f"{name}.txt"
            path.write_text(config_text, encoding="utf-8")
            extra += ["--config", str(path)]
        for command in commands:
            args = cli.build_parser().parse_args([*command, *extra])
            config, out_dir = cli.resolve_config(args)
            assert (config.master_seed, out_dir) == (0, tmp_path / "out"), command
