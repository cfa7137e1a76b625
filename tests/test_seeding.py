"""Seed derivation: the batched streams are the streams numpy would make,
``Draws`` reads them as numpy's ``Generator`` would, and only ``seeding``
makes one."""

import ast
import hashlib
import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicad import pipeline
from logicad.scenarios import get_scenario
from logicad.scenes import Condition
from logicad.seeding import Draws, derive_rngs, seed_words

SRC = Path(__file__).resolve().parents[1] / "src" / "logicad"
README = Path(__file__).resolve().parents[1] / "README.md"
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _reference_rng(master_seed: int, *parts: str) -> np.random.Generator:
    """The stream a name is documented to be: ``default_rng`` of the first 8
    bytes, little-endian, of the SHA-256 of ``"master|part|...|name"``."""
    payload = "|".join([str(master_seed), *parts]).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


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


def _record_streams(monkeypatch) -> list:
    """Wrap ``pipeline.derive_rngs``; the list it returns fills with the
    (qualifiers, name, starting state) of every stream the pipeline makes."""
    made = []

    def recording(*parts, names):
        names = list(names)
        for name, rng in zip(names, derive_rngs(*parts, names=names)):
            made.append((parts, name, rng.bit_generator.state))
            yield rng

    monkeypatch.setattr(pipeline, "derive_rngs", recording)
    return made


def test_every_seed_0_stream_is_the_one_default_rng_makes(monkeypatch):
    made = _record_streams(monkeypatch)
    config = pipeline.PipelineConfig(skip_training=True)
    for scenario_id, condition in config.tasks():
        artifacts = pipeline.generate_task(config, scenario_id, condition,
                                           get_scenario(scenario_id).counts)
        pipeline.train_task(config, artifacts)
    for parts, name, state in made:
        assert state == _reference_rng(*parts, name).bit_generator.state, (
            parts, name)
    kinds = Counter(parts[3] if len(parts) > 3 else name
                    for parts, name, _ in made)
    # every sample renders from its own stream; one negative per train
    # sample; "train" starts twice per task, for init_params and for fit
    assert kinds == {"render": 10_395, "negative": 2_500, "scenes": 50,
                     "train": 100}
    readme = " ".join(README.read_text(encoding="utf-8").split())
    (streams,) = re.findall(r"seed-0 stream, ([\d,]+) of them", readme)
    assert int(streams.replace(",", "")) == len(
        {(parts, name) for parts, name, _ in made})


@pytest.mark.xfail(reason="init_params and fit both start the task's one "
                   "'train' stream; ROADMAP item 5 gives fit its own")
def test_no_task_starts_a_stream_twice(monkeypatch, tmp_path):
    made = _record_streams(monkeypatch)
    pipeline.run_task(pipeline.PipelineConfig(), tmp_path, "all", "tapes",
                      Condition.MESH_BG)
    repeated = [key for key, n in Counter(
        (parts, name) for parts, name, _ in made).items() if n > 1]
    assert not repeated


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
    assert b.bit_generator.state == _reference_rng(
        0, "sticks", "blurry_cd", "render", "y").bit_generator.state


# one call of the per-sample code: (method, positional arguments)
_CALLS = st.one_of(
    st.just(("random", ())),
    st.tuples(st.just("integers"), st.tuples(st.integers(1, 20))),
    st.tuples(st.just("permutation"), st.tuples(st.integers(1, 9))),
    st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just("choice"), st.tuples(st.just(n), st.integers(0, min(n, 2))))),
)


def _call(stream, method: str, args: tuple):
    kwargs = {"replace": False} if method == "choice" else {}
    return getattr(stream, method)(*args, **kwargs)


def _assert_same_values(seed: int, calls) -> None:
    """``Draws`` and its twin ``Generator`` give the same values, and a
    last ``random`` shows they took the same outputs and buffered half."""
    draws, twin = Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
    for method, args in [*calls, ("random", ())]:
        got, want = _call(draws, method, args), _call(twin, method, args)
        assert type(got) is type(np.asarray(want).tolist()), (method, args)
        assert got == np.asarray(want).tolist(), (seed, method, args)


@settings(max_examples=250, deadline=None)
@given(first_seed=st.integers(0, 2**64 - 8), calls=st.lists(_CALLS, max_size=30))
def test_draws_give_the_values_of_a_twin_generator(first_seed, calls):
    # 250 call sequences, each on 8 fresh seeds: 2,000 streams
    for seed in range(first_seed, first_seed + 8):
        _assert_same_values(seed, calls)


def _halves_taken(rng: np.random.Generator, seed: int) -> int:
    """The 32-bit halves ``rng`` has taken since ``default_rng(seed)``:
    two per raw output, less the half it still buffers."""
    fresh, state = np.random.default_rng(seed).bit_generator, rng.bit_generator.state
    for outputs in itertools.count():
        if fresh.state["state"] == state["state"]:
            return 2 * outputs - state["has_uint32"]
        fresh.random_raw()


# (call, the least share of its 32-bit draws that a rejection loop throws
# away): Lemire rejects below 2**32 % n, about half of the draws for
# 2**31 + 1 and a quarter for 3 * 2**30; the masked shuffle rejects up to
# 3/8 at each position whose bound is not one less than a power of two
REJECTING = [
    (("integers", (2**31 + 1,)), 0.5),
    (("integers", (3 * 2**30,)), 0.25),
    *[(("permutation", (n,)), 0.1) for n in range(5, 10)],
]


@pytest.mark.parametrize("call, share", REJECTING)
def test_the_rejection_loops_run_and_keep_the_twin_values(call, share):
    method, (n,) = call
    # 32-bit draws per call when nothing is rejected
    fewest = n - 1 if method == "permutation" else 1
    taken = least = 0
    for seed in range(200):
        twin = np.random.default_rng(seed)
        for _ in range(3):
            _call(twin, *call)
        taken += _halves_taken(twin, seed)
        least += 3 * fewest
        _assert_same_values(seed, [call] * 3)
    assert taken > least * (1 + share / 2)


@pytest.mark.parametrize("n", [2**32 - 1, 2**32])
def test_draws_give_the_twin_integers_at_the_32_bit_edge(n):
    # 2**32 - 1 is the widest Lemire span and almost never rejects; 2**32
    # takes the 32-bit draw as it is
    for seed in range(200):
        _assert_same_values(seed, [("integers", (n,))] * 4)


def test_draws_choose_as_the_twin_from_the_largest_population_they_take():
    for seed in range(3):
        _assert_same_values(seed, [("choice", (10_000, 10_000)),
                                   ("choice", (10_000, 500)),
                                   ("permutation", (1_000,))])


def test_draws_take_no_output_where_numpy_takes_none():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    draws = Draws(rng)
    assert (draws.integers(1), draws.permutation(1), draws.permutation(-1),
            draws.choice(0, 0, replace=False),
            draws.choice(1, 1, replace=False)) == (0, [0], [], [], [0])
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError):
        draws.choice(5, 2, replace=True)


def test_the_pipeline_gives_what_plain_generators_give(monkeypatch):
    """Every seed-0 view, text and negative that the pipeline draws through
    ``Draws`` is the one the same streams give as plain generators."""
    config = pipeline.PipelineConfig()
    for scenario_id, condition in config.tasks():
        counts = get_scenario(scenario_id).counts
        with monkeypatch.context() as plain:
            plain.setattr(pipeline, "Draws", lambda rng: rng)
            want = pipeline.generate_task(config, scenario_id, condition, counts)
        got = pipeline.generate_task(config, scenario_id, condition, counts)
        assert got.samples == want.samples, (scenario_id, condition)
        assert got.records == want.records, (scenario_id, condition)
        assert got.negatives == want.negatives, (scenario_id, condition)


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of the nodes in ``tree``'s annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            roots.append(node.returns)
    return {id(sub) for root in roots if root is not None
            for sub in ast.walk(root)}


def _random_uses(source: str) -> list[int]:
    """The lines of ``source`` that import from ``numpy.random`` or reach
    into it outside an annotation."""
    tree = ast.parse(source)
    numpy_names = {"numpy"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy" and alias.asname}
    annotated = _annotations(tree)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            bad = module.startswith("numpy.random") or module == "numpy" and any(
                a.name == "random" for a in node.names)
        else:
            bad = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names
                   and id(node) not in annotated)
        if bad:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, lines", [
    ("import numpy as np\nrng = np.random.default_rng(0)\n", [2]),
    ("import numpy\nnumpy.random.seed(1)\n", [2]),
    ("import numpy as xp\nf = xp.random.PCG64\n", [2]),
    ("from numpy.random import default_rng\n", [1]),
    ("from numpy import random\n", [1]),
    ("import numpy.random\n", [1]),
    ("import numpy as np\n"
     "def f(rng: np.random.Generator) -> np.random.Generator:\n"
     "    x: np.random.Generator = rng\n"
     "    return x\n", []),
])
def test_the_stream_maker_check_sees_calls_and_imports_not_annotations(
        source, lines):
    assert _random_uses(source) == lines


def test_only_seeding_makes_a_generator():
    uses = {path.name: _random_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "seeding.py"}
    assert len(uses) > 1
    assert {name: lines for name, lines in uses.items() if lines} == {}
