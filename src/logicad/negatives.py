"""Contradiction-based negative synthesis via replacement-only slot edits.

One negative per positive: take the slot record ``render`` returned for the
positive, replace one or two logical slot values with pool values that
genuinely contradict them, and re-render on the identical skeleton.  The
pools are read from the grammar's table, ``contradiction_pools``, which
``templates.contradiction_pool`` fills once per grammar.
``pair_edits`` reads the edits off the two records for the pair file,
which ``pipeline`` writes.  The tests check the synthesis constraints
(structure preserved, replacement-only, at least one real contradiction,
token budget respected) by parsing both texts with the oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from .describe import AttributeRecord, build_record
from .seeding import Draws
from .templates import TemplateGrammar

# "at least one" contradiction per the synthesis constraints; a second edit,
# drawn with probability 1 - ONE_EDIT_PROB, adds hardness without changing
# structure.
ONE_EDIT_PROB = 0.7


def synthesize_negative(
    pos: AttributeRecord,
    grammar: TemplateGrammar,
    rng: Draws,
) -> AttributeRecord:
    """Build one contradictory negative record for a positive's record.

    Its edits are the slots where it differs from the positive: no variant
    repeats a slot, and every pool excludes the current value.  Every
    skeleton includes a logical slot with a contradiction, which the tests
    check for each grammar.
    """
    slots = dict(pos.slots)
    pools = grammar.contradiction_pools
    editable = [name for name, value in slots.items()
                if name in pools and pools[name][value]]
    n_edits = 1 if rng.random() < ONE_EDIT_PROB else 2
    n_edits = min(n_edits, len(editable))
    chosen = list(rng.choice(len(editable), size=n_edits))
    for idx in sorted(int(i) for i in chosen):
        name = editable[idx]
        pool = pools[name][slots[name]]
        slots[name] = pool[int(rng.integers(len(pool)))]
    return build_record(grammar, pos.skeleton, slots)


def pair_edits(pos: AttributeRecord, neg: AttributeRecord,
               grammar: TemplateGrammar) -> list[dict]:
    """The slots where a negative differs from its positive, with their aspect."""
    return [{"slot": name, "old": old, "new": new,
             "aspect": grammar.slots[name].aspect.value}
            for (name, old), new in zip(pos.slots.items(), neg.slots.values())
            if old != new]
