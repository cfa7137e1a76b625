"""Rendering views into logic-focused texts.

The built-in renderer stands in for a frozen image-to-text model: one text
per sample, which the grammar of the sample's scenario renders from the
view the sample was drawn as.  Capture conditions degrade the text
linguistically (dropped optional clauses, corrupted decorative adjectives,
paraphrase variation) without ever changing the logical label of the
underlying view.

``render`` returns the slot record it wrote along with the text, so the
pipeline never parses a text back; ``tests/oracles.py`` does, to check the
render -> parse -> render round trip.  ``pipeline`` writes the texts to the
description file.  ``render`` checks no view value: each is drawn from the
tuple its grammar slot lists, which the tests check for every view
``scenes.build_task`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .scenes import Condition
from .templates import Skeleton, TemplateGrammar


@dataclass(frozen=True)
class AttributeRecord:
    skeleton: Skeleton
    slots: dict[str, str]  # the included slots, in template order
    text: str


@dataclass(frozen=True)
class RenderConfig:
    # draw the paraphrase variant uniformly; False keeps variant 0
    paraphrase: bool = False
    omission_prob: float = 0.0
    corruption_prob: float = 0.0

    @property
    def draws(self) -> bool:
        """Whether rendering may take random draws; if not, it needs no rng."""
        return (self.paraphrase or self.omission_prob > 0.0
                or self.corruption_prob > 0.0)


# Per-condition renderer degradation.  White BG is clean by definition;
# background clutter corrupts decorative adjectives and varies phrasing;
# low light / blur additionally drop optional clauses.  These values are
# benchmark configuration, not measured ground truth.
CONDITION_RENDER_DEFAULTS: dict[Condition, RenderConfig] = {
    Condition.WHITE_BG: RenderConfig(False, 0.0, 0.0),
    Condition.CABLE_BG: RenderConfig(True, 0.0, 0.05),
    Condition.MESH_BG: RenderConfig(True, 0.0, 0.05),
    Condition.LOWLIGHT_CD: RenderConfig(True, 0.15, 0.05),
    Condition.BLURRY_CD: RenderConfig(True, 0.15, 0.05),
}


def build_record(grammar: TemplateGrammar, skeleton: Skeleton,
                 slots: dict[str, str]) -> AttributeRecord:
    """The record of a (skeleton, slots) pair: its included slots and its text."""
    template, names = grammar.skeleton_plan(skeleton)
    return AttributeRecord(
        skeleton=skeleton,
        slots={name: slots[name] for name in names},
        text=template.format(**slots),
    )


def render(view: Any, cfg: RenderConfig,
           rng: Optional[np.random.Generator],
           grammar: TemplateGrammar) -> AttributeRecord:
    """Render one view into one text of ``grammar`` under a degradation config.

    ``rng`` may be None when ``cfg.draws`` is False.
    """
    slots = grammar.view_slots(view)
    variant = int(rng.integers(len(grammar.variants))) if cfg.paraphrase else 0
    clauses = grammar.variants[variant]
    if cfg.omission_prob == 0.0:
        mask = (True,) * len(clauses)
    else:
        mask = tuple(not clause.optional or rng.random() >= cfg.omission_prob
                     for clause in clauses)
    if cfg.corruption_prob > 0.0:
        for name, slot_def in grammar.slots.items():
            if slot_def.aspect is None and rng.random() < cfg.corruption_prob:
                others = [v for v in slot_def.values if v != slots[name]]
                slots[name] = others[int(rng.integers(len(others)))]
    return build_record(grammar, (variant, mask), slots)

