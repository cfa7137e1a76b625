"""End-to-end acceptance gate.

Each test checks one numbered release criterion and prints a single
PASS/FAIL line; thresholds and tolerances are pinned here, not imported.
"""

import ctypes
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from oracles import clause_masks, parse, validate_negative
from test_scenes import _ENUMERATIONS

from logicad import cli
from logicad.describe import RenderConfig, build_record, render
from logicad.encoder import UNKNOWN_ID, build_vocabulary, init_params
from logicad.knn import score
from logicad.metrics import TaskReport, aggregate, auroc, emit_report
from logicad.negatives import synthesize_negative
from logicad.scenarios import SCENARIOS
from logicad.scenes import Condition, classify, task_id_for
from logicad.seeding import Draws
from logicad.trainer import BatchMasks, TokenRows, batch_step, nt_xent


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_criterion_01_gradient_oracle():
    start = time.monotonic()
    pos_texts = ["There are three oranges and two kiwis.",
                 "The total number of items is five."]
    neg_texts = ["There are five oranges and two kiwis.",
                 "The total number of items is three."]
    vocab = build_vocabulary(pos_texts + neg_texts)
    params = init_params(len(vocab), dim=8, rng=np.random.default_rng(0))
    batch = TokenRows.build([*pos_texts, *pos_texts, *neg_texts], vocab)
    masks = BatchMasks.sample(int(batch.lengths.sum()) * 8, 0.1,
                              np.random.default_rng(1))
    grads, scratch = params.zeros_like(), params.zeros_like()
    batch_step(batch, params, masks, 0.5, grads)
    h = 1e-5
    worst = 0.0
    for target, grad in zip(
        (params.embedding, params.proj_w, params.proj_b), grads.arrays()
    ):
        it = np.nditer(target, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = target[idx]
            target[idx] = original + h
            up = batch_step(batch, params, masks, 0.5, scratch)
            target[idx] = original - h
            down = batch_step(batch, params, masks, 0.5, scratch)
            target[idx] = original
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - grad[idx]) / max(1e-3, abs(fd)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 5.0
    _verdict(1, ok, f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_loss_identities():
    a = np.array([[1.0, 0.0]])
    loss, _, _ = nt_xent(a, a.copy(), a.copy(), 0.5)
    ln2_ok = abs(loss - np.log(2.0)) < 1e-12
    rng = np.random.default_rng(20)
    nonneg = True
    for _ in range(10_000):
        anchors = _random_unit_rows(rng, 4, 8)
        positives = _random_unit_rows(rng, 4, 8)
        negatives = _random_unit_rows(rng, 6, 8)
        _, per_anchor, _ = nt_xent(anchors, positives, negatives, 0.5)
        if not np.all(per_anchor >= 0.0):
            nonneg = False
            break
    _verdict(2, ln2_ok and nonneg,
             f"symmetric loss {loss:.15f} vs ln2, "
             f"per-anchor nonneg over 10^4 batches: {nonneg}")


def test_criterion_03_scorer_oracle():
    rng = np.random.default_rng(30)
    worst = 0.0
    sets_match = True
    for _ in range(100):
        n = int(rng.integers(1, 201))
        d = int(rng.integers(2, 13))
        library = _random_unit_rows(rng, n, d)
        query = _random_unit_rows(rng, 1, d)[0]
        _, got_means, got_nearest = score(query[None], library, k=5)
        pairs = sorted(
            (float(np.linalg.norm(row - query)), i)
            for i, row in enumerate(library)
        )[: min(5, n)]
        mean = sum(p[0] for p in pairs) / len(pairs)
        worst = max(worst, abs(got_means[0] - mean))
        if got_nearest[0].tolist() != [i for _, i in pairs]:
            sets_match = False
    ok = worst < 1e-12 and sets_match
    _verdict(3, ok, f"max distance deviation {worst:.2e}, "
                    f"neighbor sets identical: {sets_match}")


def test_criterion_04_score_bounds():
    rng = np.random.default_rng(40)
    library = _random_unit_rows(rng, 60, 8)
    in_bounds = all(
        1.0 / 3.0 - 1e-12 <= score(q[None], library, k=5)[0][0] <= 1.0 + 1e-12
        for q in _random_unit_rows(rng, 300, 8)
    )
    base = _random_unit_rows(rng, 1, 8)[0]
    dup_library = np.stack([base] * 5 + list(_random_unit_rows(rng, 5, 8)))
    dup_is_one = score(base[None], dup_library, k=5)[0][0] == 1.0
    near_miss = score(base[None], library, k=5)[0][0] < 1.0
    ok = in_bounds and dup_is_one and near_miss
    _verdict(4, ok, f"bounds hold: {in_bounds}, duplicate scores 1.0: {dup_is_one}")


def test_criterion_05_auroc_oracle():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        is_normal = rng.random(n) < 0.5
        is_normal[0], is_normal[-1] = True, False
        scores = np.round(rng.random(n), 1 if rng.random() < 0.5 else 12)
        normals = [s for s, m in zip(scores, is_normal) if m]
        anomalies = [s for s, m in zip(scores, is_normal) if not m]
        wins = sum(
            1.0 if x > y else 0.5 if x == y else 0.0
            for x in normals for y in anomalies
        )
        oracle = wins / (len(normals) * len(anomalies))
        got = auroc(scores[is_normal], scores[~is_normal])
        worst = max(worst, abs(got - oracle))

    row = {Condition.WHITE_BG: 0.825, Condition.CABLE_BG: 0.811,
           Condition.MESH_BG: 0.848, Condition.LOWLIGHT_CD: 0.842,
           Condition.BLURRY_CD: 0.826}
    agg = aggregate([
        TaskReport("s", c, v, {}) for c, v in row.items()
    ])
    mean_ok = 0.830 <= agg.mean_of_means <= 0.831
    std_ok = 0.013 <= agg.std_of_means <= 0.014
    ok = worst == 0.0 and mean_ok and std_ok
    _verdict(5, ok, f"max AUROC deviation {worst:.2e}, summary "
                    f"{agg.mean_of_means:.4f}±{agg.std_of_means:.4f}")


def test_criterion_06_rule_engine_oracle():
    mismatches = 0
    checked = 0
    for scenario_id, enumerate_views in sorted(_ENUMERATIONS.items()):
        spec = SCENARIOS[scenario_id]
        for view, scene, expected in enumerate_views():
            checked += 1
            if spec.build(view) != scene or classify(view, spec) != expected:
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    _verdict(6, ok, f"{checked} enumerated views, {mismatches} disagreements")


def test_criterion_07_negative_validity():
    clean = RenderConfig(False, 0.0, 0.0)
    noisy = RenderConfig(True, 0.15, 0.05)
    failures = 0
    total = 0
    for scenario_id in sorted(SCENARIOS):
        spec = SCENARIOS[scenario_id]
        grammar = spec.grammar
        rng = Draws(np.random.default_rng(70))
        for i in range(1000):
            cfg = clean if i % 2 == 0 else noisy
            pos = render(spec.normal(rng), cfg, rng, spec.grammar)
            neg = synthesize_negative(pos, grammar, rng)
            total += 1
            if not validate_negative(pos.text, neg.text, grammar).passed:
                failures += 1
    ok = failures == 0 and total == 10_000
    _verdict(7, ok, f"{total} negatives synthesized, {failures} invalid")


def test_criterion_08_round_trip_identity():
    mismatches = 0
    texts = 0
    for scenario_id in sorted(SCENARIOS):
        spec = SCENARIOS[scenario_id]
        grammar = spec.grammar
        slots = grammar.view_slots(
            spec.normal(np.random.default_rng(0)))
        for variant in range(len(grammar.variants)):
            for mask in clause_masks(grammar, variant):
                built = build_record(grammar, (variant, mask), slots)
                record = parse(built.text, grammar)
                texts += 1
                rebuilt = build_record(grammar, record.skeleton, record.slots)
                if (rebuilt.text != built.text
                        or list(record.slots.items())
                        != list(built.slots.items())):
                    mismatches += 1
    ok = mismatches == 0 and texts > 0
    _verdict(8, ok, f"{texts} canonical texts round-tripped, "
                    f"{mismatches} mismatches")


def test_criterion_09_end_to_end_benchmark(benchmark_runs):
    runs, elapsed = benchmark_runs
    _, _, trained_reports = runs["trained"]
    _, _, baseline_reports = runs["baseline"]
    trained = aggregate(trained_reports).mean_of_means
    baseline = aggregate(baseline_reports).mean_of_means
    ok = (len(trained_reports) == 50 and trained >= 0.85
          and trained - baseline >= 0.10 and elapsed < 600.0)
    _verdict(9, ok, f"trained {trained:.4f}, baseline {baseline:.4f}, "
                    f"gap {trained - baseline:.4f}, {elapsed:.0f}s for 2x50 tasks")


# How far each degraded condition's trained mean AUROC must stay above a
# training-free bag of words; the smallest gap at seed 0 is 0.067 (Mesh BG)
BAG_OF_WORDS_MARGIN = 0.05


def _bag_of_words_auroc(out, task_id):
    """Test AUROC of kNN over L2-normalised token counts, <unk> zeroed."""
    def records(kind):
        with open(out / f"{task_id}.{kind}.jsonl", encoding="utf-8") as f:
            return [json.loads(line) for line in f]

    pairs, descriptions = records("pairs"), records("descriptions")
    vocab = build_vocabulary([p["pos_text"] for p in pairs]
                             + [p["neg_text"] for p in pairs])
    rows = {}
    for split in ("train", "test"):
        texts = [r for r in descriptions if r["split"] == split]
        counts = TokenRows.build([r["text"] for r in texts], vocab).counts
        counts[:, UNKNOWN_ID] = 0.0
        rows[split] = (counts / np.linalg.norm(counts, axis=1, keepdims=True),
                       np.array([r["label"] == "normal" for r in texts]))
    scores = score(rows["test"][0], rows["train"][0], k=5)[0]
    is_normal = rows["test"][1]
    return auroc(scores[is_normal], scores[~is_normal])


def test_trained_encoder_beats_a_bag_of_words_under_every_distraction(
        benchmark_runs):
    """The gain is not what token counts alone give: kNN over bag-of-words
    vectors of the same texts, k = 5, scores lower in each degraded
    condition.  White BG is left out, where both reach 1.000."""
    runs, _ = benchmark_runs
    config, out, reports = runs["trained"]
    trained = aggregate(reports).condition_means
    bag = {}
    for scenario_id, condition in config.tasks():
        bag.setdefault(condition, []).append(
            _bag_of_words_auroc(out, task_id_for(scenario_id, condition)))
    gaps = {c: trained[c] - float(np.mean(v)) for c, v in bag.items()}
    for condition, gap in gaps.items():
        if condition != Condition.WHITE_BG:
            assert gap > BAG_OF_WORDS_MARGIN, (condition, gap)


README = Path(__file__).resolve().parents[1] / "README.md"
# The README table at master seed 0: mean +/- std of the condition means.
README_TABLE = {"trained": "0.9681 +/- 0.0238", "baseline": "0.8612 +/- 0.0825"}
# sha256 over every task's file of one kind, concatenated in task order.
RUN_DIGESTS = {
    ("trained", "scores.jsonl"):
        "90821fc2b9efce261770ffd3796ca72e66b427946860c717a4d462a74de32cab",
    ("trained", "loss.txt"):
        "e861ea93ac2043662be6b8a9a85a13b5c9d2ef750642c386b0d8aba0fde876db",
    ("baseline", "scores.jsonl"):
        "245d90abc1d81e5443fbdebc2a5b74e3d849e15f94aaf3ad18589477bf3d2142",
}


def _blas_core() -> str:
    """The kernel of numpy's bundled OpenBLAS, which the pinned score bytes
    depend on; "unknown" without that library or its core-name symbol."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _dispatch_level() -> str:
    """The highest SIMD target numpy dispatches to here, which the last bits
    of its ``exp``, ``log`` and ``tanh`` and so the pinned score bytes depend
    on; "baseline" when it enables none of its dispatch targets, "unknown"
    without numpy's tables of them.  numpy lists the targets lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
        targets, enabled = umath.__cpu_dispatch__, umath.__cpu_features__
    except (ImportError, AttributeError):
        return "unknown"
    return ([t for t in targets if enabled.get(t)] or ["baseline"])[-1]


def _cells(row: str) -> list[str]:
    return [cell.strip("*") for cell in row.strip("| ").split(" | ")]


def test_seed_0_table_and_bytes_are_pinned(benchmark_runs):
    runs, _ = benchmark_runs
    # README's results row is what `report.md` prints for each family
    (readme_row,) = [line for line in README.read_text(encoding="utf-8")
                     .splitlines() if line.startswith("| **Mean ± Std** |")]
    printed = ["Mean ± Std"]
    for family, row in README_TABLE.items():
        config, _, reports = runs[family]
        agg = aggregate(reports)
        assert f"{agg.mean_of_means:.4f} +/- {agg.std_of_means:.4f}" == row
        (report_row,) = [line for line in emit_report(agg, "markdown")
                         .splitlines() if line.startswith("| Mean ± Std |")]
        printed.append(_cells(report_row)[1])
    assert _cells(readme_row) == printed
    for (family, suffix), digest in RUN_DIGESTS.items():
        config, out, _ = runs[family]
        h = hashlib.sha256()
        for scenario_id, condition in config.tasks():
            h.update((out / f"{task_id_for(scenario_id, condition)}.{suffix}"
                      ).read_bytes())
        assert h.hexdigest() == digest, (family, suffix,
                                         f"OpenBLAS core {_blas_core()}",
                                         f"numpy dispatch {_dispatch_level()}")


def test_criterion_10_pipeline_determinism(tmp_path):
    args = ["all", "--scenario", "sticks", "--seed", "3", "--epochs", "5",
            "--format", "csv"]
    dir_a, dir_b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli.main([*args, "--out-dir", str(dir_a)]) == 0
    assert cli.main([*args, "--out-dir", str(dir_b)]) == 0
    compared = 0
    identical = True
    for path_a in sorted(dir_a.iterdir()):
        path_b = dir_b / path_a.name
        compared += 1
        if path_a.read_bytes() != path_b.read_bytes():
            identical = False
    score_files = len(list(dir_a.glob("*.scores.jsonl")))
    ok = identical and score_files == 5 and (dir_a / "report.csv").exists()
    _verdict(10, ok, f"{compared} emitted files byte-identical across two "
                     f"full runs: {identical}")
