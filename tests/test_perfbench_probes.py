"""The benchmark's probes still find the functions they time.

``perfbench/probes.py`` names each traced function as a (module, attribute)
pair under ``logicad``; a probe whose target is gone is skipped and its
metrics read 0.  This test reads ``PROBES`` from the file's syntax tree, so
it imports nothing from ``perfbench/``, and fails when a rename in ``src/``
leaves a probe without its target.  The six targets in ``DEAD`` were gone
before this check existed; ROADMAP item 14 drops them from the benchmark.
"""

import ast
import importlib
from pathlib import Path

PROBES_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"

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
