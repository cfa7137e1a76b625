"""Benchmark of the logicad pipeline, driving the unchanged program from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each workload runs ``logicad`` commands over
the full 10 x 5 task grid (paper defaults: 20 epochs, D = 64, k = 5) as child
processes, one at a time, with BLAS threads pinned to 1.  It repeats the
workload until S seconds have passed and it has run the workload's minimum
number of iterations, checks every iteration's outputs (see outputs.py) and
prints one line per metric, then the result as a JSON object on the last
line.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` also measures untraced iterations for S seconds, then runs one
iteration with span probes in the program (see probes.py) and reports the
per-layer metrics, including the tracing overhead.  Outputs, logs, digests
and results go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import probes
import spans

BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
DEADLINE_S = 160.0  # a run must end within 180 s, checks and trace analysis included
TRACE_RESERVE = 1.6  # a traced iteration takes up to this many untraced ones
MIN_SETUP_SAMPLES = 5  # set-up-only probe processes make up the rest
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    family: str  # runs of one family, seed and source must write identical files
    commands: tuple[tuple[str, ...], ...]
    config: str = ""
    min_iterations: int = 1  # an iteration of a few seconds is often hit by a slow spell


# Why each workload: see README.md in this directory.
WORKLOADS = {
    "trained-serial": Workload("trained", (("all", "--jobs", "1", "--format", "csv"),)),
    "frozen-serial": Workload(
        "frozen", (("all", "--baseline", "--jobs", "1", "--format", "csv"),), min_iterations=3),
    "stages-frozen": Workload(
        "frozen",
        (("gen",), ("train",), ("score",), ("eval",), ("report", "--format", "csv")),
        config="skip_training = true\njobs = 1\n"),
}


@dataclass
class Proc:
    spawned: float
    exit: int
    cpu_s: float
    maxrss_kb: int
    timing: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float | None:
        start = self.timing.get("work_start")
        return start - self.spawned if start is not None else None

    @property
    def work_s(self) -> float:
        return self.timing["work_end"] - self.timing["work_start"]


@dataclass
class Iteration:
    procs: list[Proc]
    problems: list[str]
    values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        time.sleep(0.01)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return


def spawn(argv: list[str], meta: Path, tag: str, trace_dir: Path | None,
          deadline: float) -> Proc:
    timing_path = meta / f"timing-{tag}.json"
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}
    with open(meta / "log.txt", "ab") as log:
        spawned = time.time()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(timing_path),
             str(trace_dir) if trace_dir else "-", *argv],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT, start_new_session=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                            _stop_group, [child.pid])
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:  # interrupted or terminated: leave no process behind
        _stop_group(child.pid)
        child.wait()
        raise
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(child.pid)
    timing = json.loads(timing_path.read_text()) if timing_path.exists() else {}
    return Proc(spawned, child.returncode, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss, timing)


def run_iteration(workload: Workload, seed: int, work: Path, digests: Path,
                  trace_dir: Path | None, deadline: float) -> Iteration:
    out, meta = work / "out", work / "meta"
    meta.mkdir(parents=True)
    extra = ["--seed", str(seed), "--out-dir", str(out)]
    if workload.config:
        (meta / "config.txt").write_text(workload.config, encoding="utf-8")
        extra += ["--config", str(meta / "config.txt")]
    procs, problems = [], []
    for i, command in enumerate(workload.commands):
        proc = spawn([*command, *extra], meta, str(i), trace_dir, deadline)
        procs.append(proc)
        if proc.exit != 0 or "work_start" not in proc.timing:
            problems.append(f"`logicad {command[0]}` exited with {proc.exit}")
            break
        module = Path(proc.timing["module"]).resolve()
        if not module.is_relative_to((ROOT / "src").resolve()):
            problems.append(f"logicad was imported from {module}, not from src/")
    iteration = Iteration(procs, problems)
    for name in sorted({n for p in procs for n in p.timing.get("missing_probes", ())}):
        iteration.notes.append(f"probe target {name} not found; its metrics read 0")
    if problems:
        return iteration
    auroc_mean, found = outputs.check(out, workload.family, seed)
    problems += found
    if not found:
        problems += outputs.check_digests(out, digests)
    scores = [p.stat().st_mtime for p in out.glob("*.scores.jsonl")]
    iteration.values = {
        "wall_s": sum(p.work_s for p in procs),
        "first_score_s": min(scores) - procs[0].spawned if scores else 0.0,
        "cpu_s": sum(p.cpu_s for p in procs),
        "peak_rss_mb": max(p.maxrss_kb for p in procs) / 1024.0,
        "auroc_mean": auroc_mean or 0.0,
        "emit_bytes": sum(p.stat().st_size for p in out.iterdir()
                          if not p.name.startswith("report.")),
    }
    shutil.rmtree(out)
    return iteration


def environment() -> dict:
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": NPROC, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS, "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def end_to_end(iterations: list[Iteration], setups: list[float],
               workload: Workload) -> dict[str, float]:
    done = [it.values for it in iterations if it.values]

    def median(key):
        return statistics.median(v[key] for v in done) if done else 0.0

    return {
        "wall_s": median("wall_s"),
        "setup_s": statistics.median(setups) * len(workload.commands) if setups else 0.0,
        "first_score_s": median("first_score_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "auroc_mean": median("auroc_mean"),
    }


def per_layer(traced: Iteration, trace_dir: Path, untraced_wall_s: float) -> dict[str, float]:
    recorded, counters = spans.load(trace_dir)
    values = probes.layer_metrics(spans.summarize(recorded), counters,
                                  int(traced.values["emit_bytes"]))
    values["trace.wall_s"] = traced.values["wall_s"]
    values["trace.overhead_s"] = traced.values["wall_s"] - untraced_wall_s
    if counters.get("trace.probe_errors"):
        traced.notes.append(f"{counters['trace.probe_errors']:.0f} probe hooks failed")
    return values


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, digests: Path, deadline: float) -> tuple[list[Iteration], list[float]]:
    """Untraced iterations for ``seconds`` and at least ``workload.min_iterations``,
    and the set-up samples of the run."""
    probe_dir = work / "probes"
    probe_dir.mkdir(parents=True)
    probe_runs: list[Proc] = []

    def probe():
        probe_runs.append(spawn([], probe_dir, f"probe-{len(probe_runs)}", None, deadline))

    iterations: list[Iteration] = []
    measured = 0.0
    reserve = TRACE_RESERVE if trace else 0.0
    if not trace:
        probe()  # also warms the bytecode and page caches
    while True:
        begun = time.monotonic()
        iterations.append(run_iteration(workload, seed, work / f"iter-{len(iterations)}",
                                        digests, None, deadline))
        took = time.monotonic() - begun
        measured += took
        if (iterations[-1].problems or time.monotonic() + took * (1.0 + reserve) > deadline
                or (measured >= seconds and len(iterations) >= workload.min_iterations)):
            break
    procs = [p for it in iterations for p in it.procs]
    while not trace and len(probe_runs) + len(procs) < MIN_SETUP_SAMPLES:
        probe()
    setups = [p.setup_s for p in probe_runs + procs if p.setup_s is not None]
    return iterations, setups


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)  # before numpy loads, in this process too
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "logicad" / "cli.py").is_file():
        print(f"error: no logicad sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    started = time.monotonic()
    deadline = started + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    env = environment()
    # only runs of the same sources must write identical files
    digests = (STATE / "digests" /
               f"{workload.family}-seed{args.seed}-{env['source_sha256'][:16]}.json")

    iterations, setups = measure(workload, args.seed, args.seconds, bool(args.trace),
                                 work, digests, deadline)
    metrics = end_to_end(iterations, setups, workload)
    samples = {"setup_s": len(setups)}
    wanted = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        trace_dir = work / "trace-spans"
        traced = run_iteration(workload, args.seed, work / "trace", digests, trace_dir,
                               deadline)
        iterations.append(traced)
        if not traced.problems:
            metrics.update(per_layer(traced, trace_dir, metrics["wall_s"]))
        wanted = [m["name"] for m in spec["per_layer"]]
        samples = dict.fromkeys(wanted, 1)

    failed = sum(1 for it in iterations if it.problems)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(iterations)} iteration(s), {failed} failed, "
          f"{time.monotonic() - started:.1f} s in all")
    for it in iterations:
        for problem in it.problems:
            print(f"  FAILED: {problem}")
        for note in it.notes:
            print(f"  note: {note}")
    measured = len([it for it in iterations if it.values])
    for name in wanted:
        print(f"  {name:40s} {metrics.get(name, 0.0):>16.6f} {units[name]:6s} "
              f"(n={samples.get(name, measured)})")
    print(f"env {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                    for name in wanted},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "setup_samples": setups,
                    "iterations": [{"values": it.values, "problems": it.problems,
                                    "notes": it.notes, "procs": [vars(p) for p in it.procs]}
                                   for it in iterations]}, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
