"""Fixtures shared by more than one test module."""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from logicad import pipeline


def _timed_run(config, out):
    """The reports of one serial `all` run and that run's own wall time."""
    start = time.monotonic()
    reports = [report for _, report in pipeline.run_benchmark(config, out, "all")]
    return reports, time.monotonic() - start


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """The trained and the baseline `all` runs over the 50 tasks at seed 0.

    Maps each family to (config, output directory, reports); returns the
    wall time of both runs as well.  The two families run at once, each
    serial in a worker process of its own; the time returned is the sum of
    their own wall times, as if they had run one after the other.  Workers
    are spawned, not forked, since this process may hold BLAS threads.
    """
    runs, futures = {}, {}
    with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        for family, skip_training in (("trained", False), ("baseline", True)):
            config = pipeline.PipelineConfig(master_seed=0,
                                             skip_training=skip_training, jobs=1)
            out = tmp_path_factory.mktemp(family)
            runs[family] = (config, out)
            futures[family] = pool.submit(_timed_run, config, out)
        results = {family: f.result() for family, f in futures.items()}
    return ({family: (*runs[family], results[family][0]) for family in runs},
            sum(elapsed for _, elapsed in results.values()))
