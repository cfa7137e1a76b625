"""Seed derivation: the batched streams are the streams numpy would make."""

import numpy as np

from logicad import pipeline
from logicad.describe import CONDITION_RENDER_DEFAULTS
from logicad.scenarios import get_scenario
from logicad.scenes import build_task
from logicad.seeding import derive_rngs, derive_seed, seed_words

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _numpy_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def test_seed_words_equal_numpys_seed_sequence_at_the_edges():
    words = seed_words(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(EDGE_SEEDS), 4)
    for seed, row in zip(EDGE_SEEDS, words):
        np.testing.assert_array_equal(row, _numpy_words(seed), err_msg=str(seed))


def test_seed_words_equal_numpys_seed_sequence_on_random_seeds():
    seeds = np.random.default_rng(20240).integers(
        0, 2**64, size=3000, dtype=np.uint64, endpoint=False)
    words = seed_words(seeds)
    for seed, row in zip(seeds.tolist(), words):
        np.testing.assert_array_equal(row, _numpy_words(seed), err_msg=str(seed))


def _grid_streams():
    """(qualifiers, names) of every render and negative stream that
    ``generate_task`` draws over the seed-0 grid."""
    config = pipeline.PipelineConfig()
    for scenario_id, condition in config.tasks():
        spec = get_scenario(scenario_id)
        parts = (0, scenario_id, condition.value)
        samples = build_task(spec, spec.counts,
                             derive_seed(*parts, "scenes"))
        if CONDITION_RENDER_DEFAULTS[condition].draws:
            yield (*parts, "render"), [s.sample_id for s in samples]
        yield (*parts, "negative"), [s.sample_id for s in samples
                                     if s.split == "train"]


def test_every_seed_0_stream_is_the_one_default_rng_makes():
    streams = 0
    for parts, names in _grid_streams():
        batch = list(derive_rngs(*parts, names=names))
        assert len(batch) == len(names)
        for name, rng in zip(names, batch):
            want = np.random.default_rng(derive_seed(*parts, name))
            assert rng.bit_generator.state == want.bit_generator.state, (
                parts, name)
        streams += len(names)
    assert streams == 10_816  # 8,316 render streams and 2,500 negative


def test_a_batch_over_a_prefix_of_the_names_is_the_prefix_of_the_batch():
    # train-only generation seeds the train ids alone
    names = [f"s{i:04d}" for i in range(40)]
    full = [rng.bit_generator.state
            for rng in derive_rngs(0, "tapes", "cable_bg", "negative",
                                   names=names)]
    for k in (0, 1, 17, 40):
        prefix = [rng.bit_generator.state
                  for rng in derive_rngs(0, "tapes", "cable_bg", "negative",
                                         names=names[:k])]
        assert prefix == full[:k]


def test_every_stream_of_a_batch_is_its_own_generator():
    a, b = derive_rngs(0, "sticks", "blurry_cd", "render", names=["x", "y"])
    assert a.bit_generator is not b.bit_generator
    a.random(3)
    assert b.bit_generator.state == np.random.default_rng(
        derive_seed(0, "sticks", "blurry_cd", "render", "y")).bit_generator.state
