"""Contradiction-based negative synthesis via replacement-only slot edits.

One negative per positive: take the slot record ``render`` returned for the
positive, replace one or two logical slot values with pool values that
genuinely contradict them, and re-render on the identical skeleton.
``pair_edits`` reads the edits off the two records for the pair file,
which ``pipeline`` writes.  The tests check the synthesis constraints
(structure preserved, replacement-only, at least one real contradiction,
token budget respected) by parsing both texts with the oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .describe import AttributeRecord, build_record
from .templates import NUMBER_WORDS, SlotDef, TemplateGrammar, word_number

# "at least one" contradiction per the synthesis constraints; a second edit,
# drawn with probability 1 - ONE_EDIT_PROB, adds hardness without changing
# structure.
ONE_EDIT_PROB = 0.7
COUNT_EDIT_WINDOW = 2  # count replacements stay within +/- this of the truth


def _is_count_slot(slot: SlotDef) -> bool:
    return all(v in NUMBER_WORDS for v in slot.values)


def contradiction_pool(slot: SlotDef, current: str) -> list[str]:
    """Values that genuinely contradict ``current`` for this slot."""
    pool = [v for v in slot.values if v != current]
    if _is_count_slot(slot) and current in NUMBER_WORDS:
        truth = word_number(current)
        pool = [v for v in pool if abs(word_number(v) - truth) <= COUNT_EDIT_WINDOW]
    return pool


def synthesize_negative(
    pos: AttributeRecord,
    grammar: TemplateGrammar,
    rng: np.random.Generator,
) -> AttributeRecord:
    """Build one contradictory negative record for a positive's record.

    Its edits are the slots where it differs from the positive: no variant
    repeats a slot, and every pool excludes the current value.  Every
    skeleton includes a logical slot with a contradiction, which the tests
    check for each grammar.
    """
    slots = dict(pos.slots)
    editable = [
        name for name, value in slots.items()
        if grammar.slots[name].aspect is not None
        and contradiction_pool(grammar.slots[name], value)
    ]
    n_edits = 1 if rng.random() < ONE_EDIT_PROB else 2
    n_edits = min(n_edits, len(editable))
    chosen = list(rng.choice(len(editable), size=n_edits, replace=False))
    for idx in sorted(int(i) for i in chosen):
        name = editable[idx]
        pool = contradiction_pool(grammar.slots[name], slots[name])
        slots[name] = pool[int(rng.integers(len(pool)))]
    return build_record(grammar, pos.skeleton, slots)


def pair_edits(pos: AttributeRecord, neg: AttributeRecord,
               grammar: TemplateGrammar) -> list[dict]:
    """The slots where a negative differs from its positive, with their aspect."""
    return [{"slot": name, "old": old, "new": new,
             "aspect": grammar.slots[name].aspect.value}
            for (name, old), new in zip(pos.slots.items(), neg.slots.values())
            if old != new]
