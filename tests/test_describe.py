"""Renderer and parser: canonical texts, degradation behavior, round-trips."""

import numpy as np
import pytest

from oracles import ParseError, clause_masks, parse

from logicad.describe import (
    CONDITION_RENDER_DEFAULTS,
    RenderConfig,
    build_record,
    render,
)
from logicad.scenarios import SCENARIOS, get_scenario
from logicad.scenes import Condition, build_task
from logicad.templates import SlotDef, _slot_table

CLEAN = RenderConfig(False, 0.0, 0.0)


def _canonical_view(scenario_id):
    return get_scenario(scenario_id).normal(np.random.default_rng(0))


def test_canonical_fruits_text_is_pinned():
    text = render(_canonical_view("fruits"), CLEAN, np.random.default_rng(0),
                  get_scenario("fruits").grammar)
    assert text.text == (
        "There are three oranges and two kiwis. "
        "The total number of items is five."
    )


def test_clean_rendering_is_deterministic_and_variant_zero():
    for scenario_id in sorted(SCENARIOS):
        view = _canonical_view(scenario_id)
        spec = get_scenario(scenario_id)
        texts = {
            render(view, CLEAN, np.random.default_rng(seed), spec.grammar).text
            for seed in range(5)
        }
        assert len(texts) == 1
        record = parse(texts.pop(), spec.grammar)
        variant, mask = record.skeleton
        assert variant == 0
        assert all(mask)


def test_same_rng_stream_gives_identical_noisy_renders():
    view = _canonical_view("tools")
    cfg = CONDITION_RENDER_DEFAULTS[Condition.LOWLIGHT_CD]
    spec = get_scenario("tools")
    a = render(view, cfg, np.random.default_rng(123), spec.grammar).text
    b = render(view, cfg, np.random.default_rng(123), spec.grammar).text
    assert a == b


def test_omission_frequency_matches_configured_probability():
    view = _canonical_view("sticks")
    spec = get_scenario("sticks")
    grammar = spec.grammar
    cfg = RenderConfig(False, 0.3, 0.0)
    optional_idx = [i for i, c in enumerate(grammar.variants[0]) if c.optional]
    assert optional_idx, "sticks variant 0 needs optional clauses for this check"
    included = np.zeros(len(optional_idx))
    n = 1000
    rng = np.random.default_rng(99)
    for _ in range(n):
        record = parse(render(view, cfg, rng, spec.grammar).text, grammar)
        _, mask = record.skeleton
        for j, i in enumerate(optional_idx):
            included[j] += mask[i]
    for frequency in included / n:
        assert abs(frequency - 0.7) < 0.05


def test_certain_corruption_flips_every_decorative_slot():
    view = _canonical_view("sticks")
    spec = get_scenario("sticks")
    grammar = spec.grammar
    clean_slots = grammar.view_slots(view)
    rendered = render(view, RenderConfig(False, 0.0, 1.0),
                      np.random.default_rng(5), spec.grammar)
    record = parse(rendered.text, grammar)
    seen_decorative = 0
    for name, value in record.slots.items():
        if grammar.slots[name].aspect is None:
            seen_decorative += 1
            assert value != clean_slots[name]
        else:
            assert value == clean_slots[name]
    assert seen_decorative > 0


def test_zero_corruption_never_touches_slots():
    view = _canonical_view("cookies")
    spec = get_scenario("cookies")
    grammar = spec.grammar
    clean_slots = grammar.view_slots(view)
    rng = np.random.default_rng(17)
    for _ in range(20):
        record = parse(render(view, RenderConfig(True, 0.2, 0.0), rng,
                              spec.grammar).text, grammar)
        for name, value in record.slots.items():
            assert value == clean_slots[name]


def test_paraphrase_selects_variants():
    view = _canonical_view("balls")
    spec = get_scenario("balls")
    grammar = spec.grammar
    rng = np.random.default_rng(31)
    variants = set()
    for _ in range(60):
        record = parse(render(view, RenderConfig(True, 0.0, 0.0), rng,
                              spec.grammar).text, grammar)
        variants.add(record.skeleton[0])
    assert variants == set(range(len(grammar.variants)))
    # without paraphrase only the canonical phrasing appears
    for _ in range(10):
        record = parse(render(view, RenderConfig(False, 0.0, 0.0), rng,
                              spec.grammar).text, grammar)
        assert record.skeleton[0] == 0


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_grammar_fits_its_scenario(scenario_id):
    """The grammar's slots are the ones its scenario's view fills, and each
    logical slot names one of the scenario's two aspects."""
    spec = get_scenario(scenario_id)
    grammar = spec.grammar
    slots = grammar.view_slots(spec.normal(np.random.default_rng(0)))
    assert set(slots) == set(grammar.slots)
    for slot in grammar.slots.values():
        assert slot.aspect is None or slot.aspect in spec.aspects, slot.name


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_round_trip_identity_on_every_skeleton(scenario_id):
    spec = get_scenario(scenario_id)
    grammar = spec.grammar
    slots = grammar.view_slots(_canonical_view(scenario_id))
    for variant in range(len(grammar.variants)):
        for mask in clause_masks(grammar, variant):
            text = build_record(grammar, (variant, mask), slots).text
            record = parse(text, grammar)
            assert record.skeleton == (variant, mask)
            assert build_record(grammar, record.skeleton,
                                record.slots).text == text


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_round_trip_identity_under_noisy_rendering(scenario_id):
    spec = get_scenario(scenario_id)
    grammar = spec.grammar
    rng = np.random.default_rng(47)
    cfg = RenderConfig(True, 0.2, 0.3)
    for _ in range(25):
        rendered = render(spec.normal(rng), cfg, rng, spec.grammar)
        record = parse(rendered.text, grammar)
        assert record == rendered
        assert build_record(grammar, record.skeleton,
                            record.slots).text == rendered.text


def test_every_drawn_view_renders_only_words_its_grammar_lists():
    """``render`` checks no value, so every view ``build_task`` draws must
    fill each slot of its grammar with a value that slot lists."""
    for scenario_id in sorted(SCENARIOS):
        spec = get_scenario(scenario_id)
        grammar = spec.grammar
        for seed in range(3):
            for sample in build_task(spec, spec.counts, seed):
                slots = grammar.view_slots(sample.view)
                assert slots.keys() == grammar.slots.keys()
                for name, value in slots.items():
                    assert value in grammar.slots[name].values, (
                        scenario_id, seed, sample.sample_id, name, value)
                record = render(sample.view, CLEAN, None, grammar)
                assert set(record.slots.items()) <= set(slots.items())


def test_parse_rejects_unmatched_text():
    grammar = get_scenario("fruits").grammar
    with pytest.raises(ParseError):
        parse("There are plenty of fruits on the tray.", grammar)
    with pytest.raises(ParseError):
        parse("", grammar)


def test_slot_table_keeps_the_order_and_rejects_a_repeated_name():
    a, b = SlotDef("a", ("x",)), SlotDef("b", ("y",))
    assert list(_slot_table(b, a)) == ["b", "a"]
    with pytest.raises(ValueError):
        _slot_table(a, b, SlotDef("a", ("z",)))


def test_condition_defaults_keep_white_background_clean():
    cfg = CONDITION_RENDER_DEFAULTS[Condition.WHITE_BG]
    assert (cfg.paraphrase, cfg.omission_prob, cfg.corruption_prob) \
        == (False, 0.0, 0.0)
    for condition in (Condition.CABLE_BG, Condition.MESH_BG):
        cfg = CONDITION_RENDER_DEFAULTS[condition]
        assert cfg.omission_prob == 0.0
        assert cfg.corruption_prob == 0.05
    for condition in (Condition.LOWLIGHT_CD, Condition.BLURRY_CD):
        cfg = CONDITION_RENDER_DEFAULTS[condition]
        assert cfg.omission_prob == 0.15
        assert cfg.corruption_prob == 0.05


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_build_record_equals_clause_by_clause_formatting(scenario_id):
    grammar = get_scenario(scenario_id).grammar
    for shift in range(3):
        slots = {name: slot.values[shift % len(slot.values)]
                 for name, slot in grammar.slots.items()}
        for variant, clauses in enumerate(grammar.variants):
            for mask in clause_masks(grammar, variant):
                included = [c for c, keep in zip(clauses, mask) if keep]
                record = build_record(grammar, (variant, mask), slots)
                assert record.text == " ".join(
                    c.template.format(**slots) for c in included)
                assert list(record.slots.items()) == [
                    (name, slots[name]) for c in included
                    for name in c.slot_names]
                assert record.skeleton == (variant, mask)


def test_a_config_that_draws_nothing_needs_no_stream():
    drawing = {c for c, cfg in CONDITION_RENDER_DEFAULTS.items() if cfg.draws}
    assert drawing == set(Condition) - {Condition.WHITE_BG}
    assert not CLEAN.draws
    for cfg in (RenderConfig(True), RenderConfig(omission_prob=0.1),
                RenderConfig(corruption_prob=0.1)):
        assert cfg.draws
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    for scenario_id in sorted(SCENARIOS):
        view = _canonical_view(scenario_id)
        spec = get_scenario(scenario_id)
        assert render(view, CLEAN, None, spec.grammar) \
            == render(view, CLEAN, rng, spec.grammar)
    assert rng.bit_generator.state == before
