"""Test oracles: parse a rendered text back, and check a negative by parsing.

The pipeline never parses its own texts: ``render`` and
``synthesize_negative`` return the slot records they wrote.  These oracles
go the other way, from the text alone, so the tests can check that
render -> parse -> render is the identity and that every synthesized
negative keeps the constraints (structure preserved, replacement only, at
least one real contradiction, token budget respected).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from logicad.describe import AttributeRecord
from logicad.templates import Skeleton, TemplateGrammar, contradiction_pool


class ParseError(ValueError):
    """Text does not match any template skeleton of the grammar."""


def clause_masks(grammar: TemplateGrammar, variant: int):
    """All clause-inclusion masks (mandatory clauses always included)."""
    choices = [
        (True, False) if clause.optional else (True,)
        for clause in grammar.variants[variant]
    ]
    return itertools.product(*choices)


def _compile_patterns(grammar: TemplateGrammar
                      ) -> tuple[tuple[Skeleton, re.Pattern], ...]:
    patterns = []
    for variant in range(len(grammar.variants)):
        for mask in clause_masks(grammar, variant):
            pieces = []
            for clause, included in zip(grammar.variants[variant], mask):
                if not included:
                    continue
                pattern = ""
                pos = 0
                for m in re.finditer(r"\{(\w+)\}", clause.template):
                    pattern += re.escape(clause.template[pos:m.start()])
                    slot = grammar.slots[m.group(1)]
                    alternation = "|".join(
                        re.escape(v)
                        for v in sorted(slot.values, key=len, reverse=True))
                    pattern += f"(?P<{slot.name}>{alternation})"
                    pos = m.end()
                pattern += re.escape(clause.template[pos:])
                pieces.append(pattern)
            patterns.append(((variant, mask),
                             re.compile(re.escape(" ").join(pieces))))
    return tuple(patterns)


# id -> (grammar, patterns); holding the grammar keeps its id from being reused
_PATTERNS: dict[int, tuple[TemplateGrammar, tuple]] = {}


def parse_patterns(grammar: TemplateGrammar
                   ) -> tuple[tuple[Skeleton, re.Pattern], ...]:
    """(skeleton, full-text regex) for every variant and clause mask.

    Each slot becomes a named group over its values, longest first.
    Compiled once per grammar, in the order a parse tries them.
    """
    if id(grammar) not in _PATTERNS:
        _PATTERNS[id(grammar)] = (grammar, _compile_patterns(grammar))
    return _PATTERNS[id(grammar)][1]


def parse(text: str, grammar: TemplateGrammar) -> AttributeRecord:
    """Parse a rendered text back into the record ``render`` returned for it.

    Tries every paraphrase variant and clause-inclusion mask; an
    unparseable text raises rather than yielding a partial record.
    """
    if not text:
        raise ParseError("cannot parse an empty text")
    for skeleton, regex in parse_patterns(grammar):
        m = regex.fullmatch(text)
        if m is None:
            continue
        variant, mask = skeleton
        ordered = [name for clause, included
                   in zip(grammar.variants[variant], mask) if included
                   for name in clause.slot_names]
        return AttributeRecord(
            skeleton=skeleton,
            slots={name: m.group(name) for name in ordered},
            text=text,
        )
    raise ParseError(f"text does not match any template of the grammar: "
                     f"{text!r}")


@dataclass(frozen=True)
class NegativeValidation:
    skeleton_preserved: bool
    replacement_only: bool
    contradiction_present: bool
    token_budget_ok: bool
    differing_slots: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (self.skeleton_preserved and self.replacement_only
                and self.contradiction_present and self.token_budget_ok)


def _token_count(text: str) -> int:
    return len(text.split())


def validate_negative(
    pos: str,
    neg: str,
    grammar: TemplateGrammar,
    token_budget: float = 0.10,
) -> NegativeValidation:
    """Check the synthesis constraints on one pair.

    A failed constraint is a False field of the returned ``NegativeValidation``
    (``passed`` is False if any is), never an exception; text that does not
    parse fails every constraint.
    """
    try:
        pos_rec = parse(pos, grammar)
        neg_rec = parse(neg, grammar)
    except ParseError:
        return NegativeValidation(False, False, False, False)

    skeleton_ok = pos_rec.skeleton == neg_rec.skeleton
    pos_map, neg_map = pos_rec.slots, neg_rec.slots
    replacement_only = list(pos_map) == list(neg_map)

    differing = []
    contradiction = False
    if replacement_only:
        for name in pos_map:
            if pos_map[name] != neg_map[name]:
                differing.append(name)
                if neg_map[name] in contradiction_pool(
                    grammar.slots[name], pos_map[name]
                ):
                    contradiction = True

    n_pos = _token_count(pos)
    n_neg = _token_count(neg)
    token_ok = abs(n_neg - n_pos) <= token_budget * n_pos

    return NegativeValidation(
        skeleton_preserved=skeleton_ok,
        replacement_only=replacement_only,
        contradiction_present=bool(differing) and contradiction,
        token_budget_ok=token_ok,
        differing_slots=tuple(differing),
    )
