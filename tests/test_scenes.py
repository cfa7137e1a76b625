"""Rule engine checks: classification vs. independent predicate evaluators.

Every scenario gets a brute-force oracle written directly over the raw
object records (no shared helpers with the package), evaluated on an
exhaustively enumerated reduced view space: each view is classified, and
its scene record is the one the oracle judged.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import parse

from logicad import pipeline, templates
from logicad.scenarios import (
    BALLS_LAYOUT,
    COOKIES_LAYOUT,
    SCENARIOS,
    STICKS_LAYOUT,
    TOOLS_LAYOUT,
    get_scenario,
)
from logicad.scenes import (
    Condition,
    Label,
    SplitCounts,
    build_task,
    classify,
    sample_anomaly,
    task_id_for,
)
from logicad.seeding import Draws, derive_rngs

ANOMALY_LABELS = (Label.SINGLE_A, Label.SINGLE_B, Label.DUAL)


def _label(ok_a: bool, ok_b: bool, empty: bool) -> Label:
    if empty:
        return Label.DUAL
    if ok_a and ok_b:
        return Label.NORMAL
    if ok_b:
        return Label.SINGLE_A
    if ok_a:
        return Label.SINGLE_B
    return Label.DUAL


def _runs(keys):
    out = []
    for k in keys:
        if out and out[-1][0] == k:
            out[-1][1] += 1
        else:
            out.append([k, 1])
    return [(k, n) for k, n in out]


# --- per-scenario enumerations and oracles ---------------------------------

def _enum_sticks():
    for n_blue, n_red, len_blue, len_red in itertools.product(
        range(4), range(4), ("long", "short", "similar"), ("long", "short", "similar")
    ):
        objects = [
            {"category": "stick", "color": "blue", "length_class": len_blue,
             "order_index": i}
            for i in range(n_blue)
        ] + [
            {"category": "stick", "color": "red", "length_class": len_red,
             "order_index": n_blue + i}
            for i in range(n_red)
        ]
        scene = {"objects": objects, "context": {}}
        view = {"count_blue": n_blue, "len_blue": len_blue,
                "count_red": n_red, "len_red": len_red}
        ok_q = n_blue == 2 and n_red == 1
        ok_l = (n_blue == 0 or len_blue == "long") and (n_red == 0 or len_red == "short")
        yield view, scene, _label(ok_q, ok_l, not objects)


def _enum_fruits():
    cats = ("orange", "kiwi", "apple", "lemon", "banana")
    for ca, na, cb, nb in itertools.product(cats, range(5), cats, range(5)):
        objects = [{"category": ca, "order_index": i} for i in range(na)] + [
            {"category": cb, "order_index": na + i} for i in range(nb)
        ]
        scene = {"objects": objects, "context": {}}
        view = {"count_a": na, "cat_a": ca, "count_b": nb, "cat_b": cb}
        runs = _runs([o["category"] for o in objects])
        ok_q = len(runs) == 2 and runs[0][1] == 3 and runs[1][1] == 2
        ok_t = len(runs) == 2 and runs[0][0] == "orange" and runs[1][0] == "kiwi"
        yield view, scene, _label(ok_q, ok_t, not objects)


def _enum_tools():
    canon = {"bolt": "left", "washer": "middle", "nut": "right"}
    regions = ("left", "middle", "right")
    for counts in itertools.product(range(4), repeat=3):
        for placed in itertools.product(regions, repeat=3):
            objects = []
            order = 0
            for (cat, region), n in zip(zip(canon, placed), counts):
                for _ in range(n):
                    objects.append({"category": cat, "region": region,
                                    "order_index": order})
                    order += 1
            scene = {"objects": objects, "context": {}}
            view = {}
            for cat, region, n in zip(canon, placed, counts):
                view[f"count_{cat}"], view[f"region_{cat}"] = n, region
            ok_q = all(n == 2 for n in counts)
            ok_p = all(o["region"] == canon[o["category"]] for o in objects)
            yield view, scene, _label(ok_q, ok_p, not objects)


def _enum_cookies():
    colors = ("yellow", "black", "white", "brown", "pink")
    for ns, cs, nr, cr in itertools.product(range(4), colors, range(4), colors):
        objects = [
            {"category": "cookie", "color": cs, "region": "square_dish",
             "order_index": i}
            for i in range(ns)
        ] + [
            {"category": "cookie", "color": cr, "region": "round_dish",
             "order_index": ns + i}
            for i in range(nr)
        ]
        scene = {"objects": objects, "context": {}}
        view = {"count_square": ns, "color_square": cs,
                "count_round": nr, "color_round": cr}
        ok_q = ns == 2 and nr == 1
        ok_r = (ns == 0 or cs == "yellow") and (nr == 0 or cr == "black")
        yield view, scene, _label(ok_q, ok_r, not objects)


def _enum_tapes():
    lens = ("long", "short", "similar")
    colors = ("green", "red", "blue", "yellow", "black")
    for l1, c1, l2, c2 in itertools.product(lens, colors, lens, colors):
        objects = [
            {"category": "tape", "color": c1, "length_class": l1,
             "order_index": 0},
            {"category": "tape", "color": c2, "length_class": l2,
             "order_index": 1},
        ]
        scene = {"objects": objects, "context": {}}
        view = {"len_first": l1, "color_first": c1,
                "len_second": l2, "color_second": c2}
        ok_l = l1 == "long" and l2 == "short"
        ok_t = c1 == "green" and c2 == "red"
        yield view, scene, _label(ok_l, ok_t, False)


def _enum_stationery():
    canon = {
        ("left_bin", "pencil"): ("black", "long"),
        ("left_bin", "eraser"): ("blue", "long"),
        ("right_bin", "pencil"): ("red", "short"),
        ("right_bin", "eraser"): ("red", "short"),
    }
    lens = ("long", "short")
    for lp, le, rp, re_ in itertools.product(lens, repeat=4):
        length = {("left_bin", "pencil"): lp, ("left_bin", "eraser"): le,
                  ("right_bin", "pencil"): rp, ("right_bin", "eraser"): re_}
        for first_left, first_right in itertools.product(("eraser", "pencil"), repeat=2):
            objects = []
            order = 0
            for bin_, first in (("left_bin", first_left), ("right_bin", first_right)):
                for cat in (first, "pencil" if first == "eraser" else "eraser"):
                    objects.append({
                        "category": cat, "color": canon[(bin_, cat)][0],
                        "length_class": length[(bin_, cat)],
                        "region": bin_, "order_index": order})
                    order += 1
            scene = {"objects": objects, "context": {}}
            view = {"len_left_pencil": lp, "len_left_eraser": le,
                    "len_right_pencil": rp, "len_right_eraser": re_,
                    "order_left": first_left, "order_right": first_right}
            ok_l = all(length[k] == v[1] for k, v in canon.items())
            ok_p = first_left == "eraser" and first_right == "eraser"
            yield view, scene, _label(ok_l, ok_p, False)


def _enum_ropes():
    colors = ("red", "blue", "green", "yellow", "white")
    for rope_len, rope_color, label_color in itertools.product(
        ("similar", "long", "short"), colors, colors
    ):
        scene = {
            "objects": [{"category": "rope", "color": rope_color,
                         "length_class": rope_len, "order_index": 0}],
            "context": {"label": label_color},
        }
        view = {"rope_len": rope_len, "rope_color": rope_color,
                "label_color": label_color}
        ok_l = rope_len == "similar"
        ok_r = rope_color == label_color
        yield view, scene, _label(ok_l, ok_r, False)


def _enum_blocks():
    shapes = ("circle", "triangle", "square", "star", "hexagon")
    regions = ("top", "middle", "bottom")
    canon = (("circle", "top"), ("triangle", "middle"), ("square", "bottom"))
    for chosen_shapes in itertools.product(shapes, repeat=3):
        for chosen_regions in itertools.product(regions, repeat=3):
            objects = []
            order = 0
            for shape, region in zip(chosen_shapes, chosen_regions):
                for _ in range(2):
                    objects.append({"category": shape, "region": region,
                                    "order_index": order})
                    order += 1
            scene = {"objects": objects, "context": {}}
            view = {}
            for slot, shape, region in zip("abc", chosen_shapes, chosen_regions):
                view[f"shape_{slot}"], view[f"region_{slot}"] = shape, region
            runs = _runs([(o["category"], o["region"]) for o in objects])
            valid = len(runs) == 3 and all(n == 2 for _, n in runs)
            ok_t = valid and all(r[0][0] == c[0] for r, c in zip(runs, canon))
            ok_p = valid and all(r[0][1] == c[1] for r, c in zip(runs, canon))
            yield view, scene, _label(ok_t, ok_p, False)


def _enum_dishes():
    cats = ("fork", "plate", "spoon", "knife", "cup")
    rank = {"fork": 0, "plate": 1, "spoon": 2}
    for length in (2, 3, 4):
        for items in itertools.product(cats, repeat=length):
            objects = [{"category": cat, "order_index": i}
                       for i, cat in enumerate(items)]
            scene = {"objects": objects, "context": {}}
            ok_t = sorted(items) == sorted(("fork", "plate", "spoon"))
            ranks = [rank[c] for c in items if c in rank]
            ok_r = length == 3 and ranks == sorted(ranks)
            yield list(items), scene, _label(ok_t, ok_r, False)


def _enum_balls():
    regions = ("top_left", "top_right", "bottom_left", "bottom_right")
    slots = ("tl", "tr", "bl", "br")
    row_color = {"top": "orange", "bottom": "white"}
    colors = ("orange", "white", "green", "purple")
    # Count variation with canonical colors, then color variation at one ball
    # per compartment: both rule branches get exercised exhaustively.
    for counts in itertools.product(range(3), repeat=4):
        objects = []
        order = 0
        for region, n in zip(regions, counts):
            for _ in range(n):
                objects.append({
                    "category": "ball", "color": row_color[region.split("_")[0]],
                    "region": region, "order_index": order})
                order += 1
        scene = {"objects": objects, "context": {}}
        view = {}
        for slot, region, n in zip(slots, regions, counts):
            view[f"n_{slot}"] = n
            view[f"c_{slot}"] = row_color[region.split("_")[0]]
        ok_p = all(n == 1 for n in counts)
        yield view, scene, _label(ok_p, True, not objects)
    for chosen in itertools.product(colors, repeat=4):
        objects = [
            {"category": "ball", "color": c, "region": r, "order_index": i}
            for i, (r, c) in enumerate(zip(regions, chosen))
        ]
        scene = {"objects": objects, "context": {}}
        view = {}
        for slot, color in zip(slots, chosen):
            view[f"n_{slot}"], view[f"c_{slot}"] = 1, color
        ok_r = all(o["color"] == row_color[o["region"].split("_")[0]]
                   for o in objects)
        yield view, scene, _label(True, ok_r, False)


_ENUMERATIONS = {
    "sticks": _enum_sticks,
    "fruits": _enum_fruits,
    "tools": _enum_tools,
    "cookies": _enum_cookies,
    "tapes": _enum_tapes,
    "stationery": _enum_stationery,
    "ropes": _enum_ropes,
    "blocks": _enum_blocks,
    "dishes": _enum_dishes,
    "balls": _enum_balls,
}


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_classify_matches_enumeration_oracle(scenario_id):
    spec = get_scenario(scenario_id)
    checked = 0
    for view, scene, expected in _ENUMERATIONS[scenario_id]():
        assert spec.build(view) == scene, view
        assert classify(view, spec) == expected, (
            f"{scenario_id}: {view} -> expected {expected}"
        )
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_sampled_normals_are_normal(scenario_id):
    spec = get_scenario(scenario_id)
    rng = np.random.default_rng(7)
    for _ in range(50):
        assert classify(spec.normal(rng), spec) == Label.NORMAL


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
@pytest.mark.parametrize("target", ANOMALY_LABELS)
def test_sampled_anomalies_hit_their_target_exactly(scenario_id, target):
    spec = get_scenario(scenario_id)
    rng = np.random.default_rng(11)
    for _ in range(25):
        assert classify(sample_anomaly(spec, target, rng), spec) == target


def _changed(before: dict, after: dict) -> list[str]:
    assert before.keys() == after.keys()
    return [k for k in before if before[k] != after[k]]


@pytest.mark.parametrize("layout", [STICKS_LAYOUT, TOOLS_LAYOUT,
                                    COOKIES_LAYOUT, BALLS_LAYOUT],
                         ids=["sticks", "tools", "cookies", "balls"])
def test_grouped_mutators_edit_only_their_own_aspect(layout):
    counts = {g[1] for g in layout.groups}
    canon = {g[2]: g[4] for g in layout.groups}
    rng = np.random.default_rng(13)
    bumped_slots, changed_slots = set(), set()
    for _ in range(200):
        view = layout.normal(rng)
        bumped = dict(view)
        layout.bump_count(bumped, rng)
        (slot,) = _changed(view, bumped)
        assert slot in counts
        assert abs(bumped[slot] - view[slot]) == 1
        bumped_slots.add(slot)
        # The attribute edit also follows a count edit in a dual anomaly.
        for old in (view, bumped):
            new = dict(old)
            layout.change_attr(new, rng)
            (slot,) = _changed(old, new)
            assert slot in canon
            assert new[slot] in layout.values and new[slot] != canon[slot]
            changed_slots.add(slot)
    assert bumped_slots == counts
    assert changed_slots == set(canon)


def test_balls_placement_edit_moves_one_ball_within_its_row():
    spec = get_scenario("balls")
    rng = np.random.default_rng(17)
    for _ in range(100):
        view = spec.normal(rng)
        moved = dict(view)
        spec.constraints[0].breaks(moved, rng)
        src, dst = sorted(_changed(view, moved), key=lambda k: moved[k])
        assert src[2] == dst[2]  # n_tl/n_tr or n_bl/n_br: the same row
        assert (moved[src] - view[src], moved[dst] - view[dst]) == (-1, 1)


@pytest.mark.parametrize("index", (0, 1), ids=("a", "b"))
@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_one_edit_breaks_its_aspect_and_keeps_the_view(scenario_id, index):
    """One edit of a normal view breaks its own constraint and keeps the
    other, so a single-constraint anomaly takes exactly one edit."""
    spec = get_scenario(scenario_id)
    broken, kept = spec.constraints[index], spec.constraints[1 - index]
    rng = np.random.default_rng(19)
    for _ in range(100):
        view = spec.normal(rng)
        broken.breaks(view, rng)
        assert not broken.holds(view)
        assert kept.holds(view), view


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_capture_condition_never_changes_the_label(scenario_id):
    """``build_task`` takes no condition, so a sample's label is its view's."""
    spec = get_scenario(scenario_id)
    for sample in build_task(spec, SplitCounts(2, 2, 2, 2, 2),
                             np.random.default_rng(3)):
        assert classify(sample.view, spec) == sample.label


@pytest.mark.parametrize("scenario_id", ["sticks", "fruits", "tools",
                                         "cookies", "dishes", "balls"])
def test_empty_scene_violates_both_aspects(scenario_id):
    spec = get_scenario(scenario_id)
    normal = spec.normal(np.random.default_rng(0))
    # every count zero, or no dish at all
    empty = [] if isinstance(normal, list) else {
        k: 0 if isinstance(v, int) else v for k, v in normal.items()}
    assert spec.build(empty) == {"objects": [], "context": {}}
    assert not any(c.holds(empty) for c in spec.constraints)
    assert classify(empty, spec) == Label.DUAL


def test_the_readme_aspect_pairs_are_the_specs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split(
        "| Scenario | Aspect pair |", 1)[1].split("\n\n", 1)[0]
    rows = [line.strip("|").split("|")[:2] for line in table.split("\n")[2:]]
    pairs = {scenario.strip(): pair.strip() for scenario, pair in rows}
    assert sorted(pairs) == sorted(SCENARIOS)
    for scenario_id, pair in pairs.items():
        spec = get_scenario(scenario_id)
        assert pair == " + ".join(c.aspect.value for c in spec.constraints), (
            scenario_id)


def test_build_task_counts_and_ids():
    spec = get_scenario("fruits")
    counts = SplitCounts(5, 4, 3, 2, 1)
    samples = build_task(spec, counts, np.random.default_rng(42))
    assert [s.split for s in samples] == ["train"] * 5 + ["test"] * 10
    test_labels = [s.label for s in samples if s.split == "test"]
    assert test_labels.count(Label.NORMAL) == 4
    assert test_labels.count(Label.SINGLE_A) == 3
    assert test_labels.count(Label.SINGLE_B) == 2
    assert test_labels.count(Label.DUAL) == 1
    assert samples[0].sample_id == "train-normal-0000"
    for sample in samples:
        assert classify(sample.view, spec) == sample.label
    artifacts = pipeline.generate_task(pipeline.PipelineConfig(), "fruits",
                                       Condition.MESH_BG, counts)
    assert artifacts.task_id == "fruits-mesh_bg"
    assert artifacts.condition == Condition.MESH_BG


def test_build_task_is_seed_deterministic():
    spec = get_scenario("balls")
    counts = SplitCounts(4, 4, 2, 2, 1)
    a = build_task(spec, counts, np.random.default_rng(9))
    b = build_task(spec, counts, np.random.default_rng(9))
    c = build_task(spec, counts, np.random.default_rng(10))
    assert a == b
    assert a != c


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_train_views_read_through_draws_lead_the_task(scenario_id):
    """A train-only call on the scenes stream, read through ``Draws`` as the
    pipeline reads it, gives the full task's train samples, and both give
    what the plain stream gives."""
    spec = get_scenario(scenario_id)
    counts = spec.counts
    train_only = SplitCounts(counts.train_normal, 0, 0, 0, 0)

    def stream():
        (rng,) = derive_rngs(0, scenario_id, "mesh_bg", names=["scenes"])
        return rng

    full = build_task(spec, counts, Draws(stream()))
    assert full == build_task(spec, counts, stream())
    train = build_task(spec, train_only, Draws(stream()))
    assert train == full[:counts.train_normal]
    assert all(s.split == "train" for s in train)


def test_default_split_counts_cover_every_scenario():
    for spec in SCENARIOS.values():
        counts = spec.counts
        assert counts.train_normal == 50
        assert counts.test_normal == 50
        assert 44 <= counts.single_a <= 52
        assert 44 <= counts.single_b <= 52
        assert 6 <= counts.dual <= 15


# The blocks text names adjacent equal (shape, region) groups once
# (``scenarios._blocks_slots``): when a dual edit makes two adjacent groups
# equal, the freed slots keep the normal values, so the text describes
# another view.
_BLOCKS_TEXT_MERGES_GROUPS = pytest.mark.xfail(
    reason="seed 0: blocks-lowlight_cd test-dual-0007 reads as normal and "
    "blocks-cable_bg test-dual-0002 names square/bottom twice")


@pytest.mark.parametrize("scenario_id", [
    pytest.param(s, marks=_BLOCKS_TEXT_MERGES_GROUPS) if s == "blocks" else s
    for s in sorted(SCENARIOS)])
def test_view_rebuilds_every_generated_scene(scenario_id, benchmark_runs):
    """Every seed-0 sample's scene line is its drawn view built, and its
    text's logical slots are that view in words, as its grammar in
    ``templates`` words it."""
    spec = get_scenario(scenario_id)
    grammar = spec.grammar
    words = getattr(templates, f"{scenario_id.upper()}_GRAMMAR").logical_slots
    runs, _ = benchmark_runs
    _, out, _ = runs["trained"]
    wrong = []
    for condition in Condition:
        (rng,) = derive_rngs(0, scenario_id, condition.value, names=["scenes"])
        samples = build_task(spec, spec.counts, rng)
        task_id = task_id_for(scenario_id, condition)
        scene_lines = (out / f"{task_id}.scenes.jsonl").read_text().splitlines()
        text_lines = (out / f"{task_id}.descriptions.jsonl"
                      ).read_text().splitlines()
        assert len(scene_lines) == len(text_lines) == len(samples)
        for sample, scene_line, text_line in zip(samples, scene_lines,
                                                  text_lines):
            assert json.loads(scene_line)["scene"] == spec.build(sample.view)
            line = json.loads(text_line)
            assert line["sample_id"] == sample.sample_id
            record = parse(line["text"], grammar)
            logical = {name: value for name, value in record.slots.items()
                       if grammar.slots[name].aspect is not None}
            expected = words(sample.view)
            if logical != {name: expected[name] for name in logical}:
                wrong.append(f"{task_id} {sample.sample_id}")
    assert not wrong, wrong
