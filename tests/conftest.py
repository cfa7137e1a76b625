"""Fixtures shared by more than one test module."""

import time

import pytest

from logicad import pipeline


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """The trained and the baseline `all` runs over the 50 tasks at seed 0.

    Maps each family to (config, output directory, reports); returns the
    wall time of both runs as well.
    """
    start = time.monotonic()
    runs = {}
    for family, skip_training in (("trained", False), ("baseline", True)):
        config = pipeline.PipelineConfig(master_seed=0,
                                         skip_training=skip_training, jobs=1)
        out = tmp_path_factory.mktemp(family)
        runs[family] = (config, out, [
            report for _, report in pipeline.run_benchmark(config, out, "all")])
    return runs, time.monotonic() - start
