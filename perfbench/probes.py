"""Where a traced run records spans and counts in logicad, and the per-layer metrics.

``install`` runs inside the program process before the command starts.  It
replaces each probed function with a wrapper that records a span, in every
loaded logicad module that holds a reference to it, so calls made through
``from .encoder import encode_tokens`` are traced as well.  A probe whose
target no longer exists is skipped and its metrics read 0.

``layer_metrics`` turns the spans and counts of one traced iteration into the
``per_layer`` metrics named in BENCHMARK.json; ``layers.json`` says which
layer each belongs to and which end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys

from spans import Recorder, tail_percentile


def _token_rows(rec, result, args, kwargs):
    token_ids = args[0] if args else kwargs["token_ids"]
    rec.count("encoder.token_rows", len(token_ids))


def _clipped(rec, result, args, kwargs):
    clip_norm = args[1] if len(args) > 1 else kwargs["clip_norm"]
    rec.count("trainer.clipped", float(result) > clip_norm)


def _library(rec, result, args, kwargs):
    rec.count("knn.library_size", result.size)


def _scored(rec, result, args, kwargs):
    rec.count("knn.scored", len(result))
    rec.count("knn.renormalized", sum(bool(r.renormalized) for r in result))


# (module, attribute, hook run on the result after the span closes)
PROBES = (
    ("cli", "main", None),
    ("scenes", "build_task", None),
    ("describe", "render", None),
    ("describe", "parse", None),
    ("negatives", "synthesize_negative", None),
    ("encoder", "encode_tokens", _token_rows),
    ("encoder", "encode_backward", None),
    ("trainer", "fit", None),
    ("trainer", "batch_step", None),
    ("trainer", "BatchMasks.sample", None),
    ("trainer", "clip_gradients", _clipped),
    ("trainer", "adam_update", None),
    ("knn", "build_library", _library),
    ("knn", "score_split", _scored),
    ("knn", "parse_score_record", None),
    ("metrics", "make_task_report", None),
    ("metrics", "aggregate", None),
    ("pipeline", "run_benchmark", None),
    ("pipeline", "run_task", None),
    ("pipeline", "generate_task", None),
    ("pipeline", "train_task", None),
    ("pipeline", "score_task", None),
    ("pipeline", "write_task_files", None),
    ("pipeline", "write_score_file", None),
    ("pipeline", "write_loss_curve", None),
    ("pipeline", "save_checkpoint", None),
    ("pipeline", "load_checkpoint", None),
)

EMIT_SPANS = ("pipeline.write_task_files", "pipeline.write_score_file",
              "pipeline.write_loss_curve", "pipeline.save_checkpoint")


def _traced(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            try:
                hook(rec, result, args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                rec.count("trace.probe_errors")
        return result
    return traced


def install(trace_dir) -> tuple[Recorder, list[str]]:
    """Wrap every probe; returns the recorder and the probes not found."""
    rec = Recorder(trace_dir)
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("logicad.") and m is not None]
    missing = []
    for module_name, attr, hook in PROBES:
        module = importlib.import_module(f"logicad.{module_name}")
        name = f"{module_name}.{attr}"
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(leaf) if owner is not None else None
        if raw is None:
            missing.append(name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, leaf, type(raw)(_traced(rec, name, raw.__func__, hook)))
            continue
        wrapped = _traced(rec, name, raw, hook)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, key, wrapped)
    return rec, missing


def layer_metrics(summary, counters: dict, emit_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced iteration, by name."""
    def total(name):
        return summary[name].total_s if name in summary else 0.0

    def self_time(name):
        return summary[name].self_s if name in summary else 0.0

    def calls(name):
        return summary[name].calls if name in summary else 0

    tasks = summary["pipeline.run_task"].durations if "pipeline.run_task" in summary else []
    tail = tail_percentile(tasks)
    steps = calls("trainer.batch_step")
    clips = calls("trainer.clip_gradients")
    return {
        "cli.main_s": total("cli.main"),
        "cli.main_self_s": self_time("cli.main"),
        "scenes.build_task_s": total("scenes.build_task"),
        "scenes.build_task_calls": calls("scenes.build_task"),
        "describe.render_s": total("describe.render"),
        "describe.render_calls": calls("describe.render"),
        "describe.parse_s": total("describe.parse"),
        "describe.parse_calls": calls("describe.parse"),
        "negatives.synthesize_negative_self_s": self_time("negatives.synthesize_negative"),
        "negatives.synthesize_negative_calls": calls("negatives.synthesize_negative"),
        "trainer.fit_s": total("trainer.fit"),
        "trainer.batch_step_s": total("trainer.batch_step"),
        "trainer.masks_s": total("trainer.BatchMasks.sample"),
        "trainer.adam_update_s": total("trainer.adam_update"),
        "trainer.clip_gradients_s": total("trainer.clip_gradients"),
        "trainer.steps": steps,
        "trainer.clip_rate": counters.get("trainer.clipped", 0.0) / clips if clips else 0.0,
        "encoder.encode_tokens_s": total("encoder.encode_tokens"),
        "encoder.encode_tokens_calls": calls("encoder.encode_tokens"),
        "encoder.encode_backward_s": total("encoder.encode_backward"),
        "encoder.encode_backward_calls": calls("encoder.encode_backward"),
        "encoder.token_rows": counters.get("encoder.token_rows", 0.0),
        "knn.build_library_s": total("knn.build_library"),
        "knn.score_split_s": total("knn.score_split"),
        "knn.parse_score_record_s": total("knn.parse_score_record"),
        "knn.library_size": counters.get("knn.library_size", 0.0),
        "knn.scored": counters.get("knn.scored", 0.0),
        "knn.renormalized": counters.get("knn.renormalized", 0.0),
        "metrics.task_report_s": total("metrics.make_task_report"),
        "metrics.aggregate_s": total("metrics.aggregate"),
        "pipeline.generate_task_s": total("pipeline.generate_task"),
        "pipeline.train_task_s": total("pipeline.train_task"),
        "pipeline.score_task_s": total("pipeline.score_task"),
        "pipeline.task_s_p50": statistics.median(tasks) if tasks else 0.0,
        "pipeline.task_s_tail": tail[1] if tail else 0.0,
        "pipeline.task_s_max": max(tasks, default=0.0),
        "pipeline.emit_s": sum(total(name) for name in EMIT_SPANS),
        "pipeline.emit_bytes": emit_bytes,
        "pipeline.load_checkpoint_s": total("pipeline.load_checkpoint"),
    }
