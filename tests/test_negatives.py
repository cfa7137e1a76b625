"""Negative synthesis: contradiction pools, validity, and failure reporting."""

import numpy as np
import pytest

from oracles import clause_masks, parse, validate_negative

from logicad.describe import RenderConfig, build_record, render
from logicad.negatives import pair_edits, synthesize_negative
from logicad.scenarios import SCENARIOS, get_scenario
from logicad.scenes import Aspect, build_task
from logicad.seeding import Draws
from logicad.templates import (
    NUMBER_WORDS,
    Clause,
    SlotDef,
    TemplateGrammar,
    contradiction_pool,
    word_number,
)

CLEAN = RenderConfig(False, 0.0, 0.0)
NOISY = RenderConfig(True, 0.15, 0.05)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_synthesized_negatives_are_valid_and_edits_are_real(scenario_id):
    spec = get_scenario(scenario_id)
    grammar = spec.grammar
    rng = Draws(np.random.default_rng(2024))
    for i in range(200):
        cfg = CLEAN if i % 2 == 0 else NOISY
        pos = render(spec.normal(rng), cfg, rng, spec.grammar)
        neg = synthesize_negative(pos, grammar, rng)
        assert neg.text != pos.text
        assert parse(neg.text, grammar) == neg
        edits = pair_edits(pos, neg, grammar)
        assert 1 <= len(edits) <= 2
        report = validate_negative(pos.text, neg.text, grammar)
        assert report.passed, (scenario_id, pos.text, neg.text, report)
        assert report.differing_slots == tuple(e["slot"] for e in edits)
        for edit in edits:
            assert edit["aspect"] == grammar.slots[edit["slot"]].aspect.value
            if edit["old"] in NUMBER_WORDS and edit["new"] in NUMBER_WORDS:
                assert abs(word_number(edit["new"])
                           - word_number(edit["old"])) <= 2


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_record_slots_follow_the_template_order(scenario_id):
    """A record's slots are a dict, which compares without order, so the
    order ``pair_edits`` zips by is checked here: the included slots of the
    record's skeleton, in template order, for rendered, synthesized and
    parsed records alike."""
    spec = get_scenario(scenario_id)
    grammar = spec.grammar
    rng = Draws(np.random.default_rng(7))
    for i in range(100):
        cfg = CLEAN if i % 2 == 0 else NOISY
        pos = render(spec.normal(rng), cfg, rng, grammar)
        neg = synthesize_negative(pos, grammar, rng)
        for record in (pos, neg, parse(neg.text, grammar)):
            names = grammar.skeleton_plan(record.skeleton)[1]
            assert list(record.slots) == list(names), (scenario_id, i)


def test_synthesis_is_seed_deterministic():
    spec = get_scenario("tools")
    grammar = spec.grammar
    pos = render(spec.normal(np.random.default_rng(1)),
                 CLEAN, np.random.default_rng(1), spec.grammar)
    neg_a = synthesize_negative(pos, grammar, Draws(np.random.default_rng(8)))
    neg_b = synthesize_negative(pos, grammar, Draws(np.random.default_rng(8)))
    assert neg_a == neg_b


def _mini_grammar():
    slots = {
        "color": SlotDef("color", ("red", "blue"), Aspect.TYPE),
        "shade": SlotDef("shade", ("matte", "glossy")),
    }
    return TemplateGrammar(
        slots=slots,
        variants=((Clause("The {shade} item is {color}."),),),
    )


def test_single_editable_slot_forces_the_only_contradiction():
    grammar = _mini_grammar()
    pos = parse("The matte item is red.", grammar)
    rng = Draws(np.random.default_rng(0))
    for _ in range(10):
        neg = synthesize_negative(pos, grammar, rng)
        assert neg.text == "The matte item is blue."
        assert list(neg.slots.items()) == [("shade", "matte"),
                                           ("color", "blue")]
        assert pair_edits(pos, neg, grammar) == [
            {"slot": "color", "old": "red", "new": "blue", "aspect": "type"}]


def test_every_skeleton_includes_a_logical_slot_that_can_be_contradicted():
    # synthesize_negative edits only such a slot; in a skeleton without one
    # the negative would equal its positive and nothing would fail
    skeletons = 0
    for scenario_id in sorted(SCENARIOS):
        grammar = get_scenario(scenario_id).grammar
        for variant in range(len(grammar.variants)):
            for mask in clause_masks(grammar, variant):
                _, names = grammar.skeleton_plan((variant, mask))
                assert any(
                    grammar.slots[name].aspect is not None
                    and all(contradiction_pool(grammar.slots[name], value)
                            for value in grammar.slots[name].values)
                    for name in names), (scenario_id, variant, mask)
                skeletons += 1
    assert skeletons == 118


def test_contradiction_pool_respects_the_count_window():
    slot = SlotDef("count", NUMBER_WORDS)
    pool = contradiction_pool(slot, "five")
    assert sorted(pool) == sorted(["three", "four", "six", "seven"])


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_the_pool_table_is_the_pool_rule(scenario_id):
    grammar = get_scenario(scenario_id).grammar
    logical = [name for name, slot in grammar.slots.items()
               if slot.aspect is not None]
    table = grammar.contradiction_pools
    assert list(table) == logical
    for name in logical:
        slot = grammar.slots[name]
        assert list(table[name]) == list(slot.values)
        for value in slot.values:
            assert table[name][value] == contradiction_pool(slot, value)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_every_rendered_logical_value_is_a_key_of_the_pool_table(scenario_id):
    # synthesize_negative looks each logical slot of a record up in the table
    spec = get_scenario(scenario_id)
    table = spec.grammar.contradiction_pools
    rng = np.random.default_rng(7)
    for seed in range(3):
        for sample in build_task(spec, spec.counts,
                                 np.random.default_rng(seed)):
            for cfg in (CLEAN, NOISY):
                record = render(sample.view, cfg, rng, spec.grammar)
                for name, value in record.slots.items():
                    if spec.grammar.slots[name].aspect is not None:
                        assert value in table[name], (
                            scenario_id, seed, sample.sample_id, name, value)


def test_validation_flags_skeleton_changes():
    spec = get_scenario("sticks")
    grammar = spec.grammar
    slots = grammar.view_slots(spec.normal(np.random.default_rng(0)))
    masks = list(clause_masks(grammar, 0))
    full = build_record(grammar, (0, masks[0]), slots).text
    partial_mask = next(m for m in masks if not all(m))
    dropped = build_record(grammar, (0, partial_mask), slots).text
    report = validate_negative(full, dropped, grammar)
    assert not report.skeleton_preserved
    assert not report.passed


def test_validation_requires_an_actual_contradiction():
    spec = get_scenario("sticks")
    grammar = spec.grammar
    text = render(spec.normal(np.random.default_rng(0)),
                  CLEAN, np.random.default_rng(0), spec.grammar).text
    report = validate_negative(text, text, grammar)
    assert report.skeleton_preserved
    assert report.replacement_only
    assert not report.contradiction_present
    assert not report.passed


def test_validation_handles_unparseable_negatives():
    spec = get_scenario("sticks")
    grammar = spec.grammar
    text = render(spec.normal(np.random.default_rng(0)),
                  CLEAN, np.random.default_rng(0), spec.grammar).text
    report = validate_negative(text, "not a template at all", grammar)
    assert report == type(report)(False, False, False, False)


def test_validation_token_budget():
    grammar = _mini_grammar()
    pos = "The matte item is red."
    # identical token counts are always inside a 10% budget
    assert validate_negative(pos, "The matte item is blue.", grammar).token_budget_ok
