"""Slot-grammar templates that turn a scenario's view into logic-focused texts.

Every scenario ships one grammar with three paraphrase variants.  A variant
is a sequence of clauses; a clause is a format string over named slots plus
an "optional" flag (optional clauses can be dropped by condition-dependent
omission).

A grammar renders the view it is given, the logical state its scenario's
spec draws and edits: its ``logical_slots`` turn that view into the words
of the logical slots, by default each count as its number word.
This module also holds the number words and the attribute domains that
the rules in ``scenarios`` and the grammars here share; it imports nothing
of ``scenarios``.  It holds the contradiction-pool rule too, so that each
grammar tabulates its pools once for ``negatives`` to read.

The skeleton of a text is its ``(variant, clause mask)`` pair; a
(skeleton, slots) pair determines the text byte for byte.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .scenes import Aspect

NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve",
)

# Attribute domains that the rules in ``scenarios`` and the grammars share.
# Edits draw from them by index, so the order is part of the data.
LENGTHS = ("long", "short", "similar")  # relative, of sticks and tapes
FRUIT_TYPES = ("orange", "kiwi", "apple", "lemon", "banana")
TOOL_BINS = ("left", "middle", "right")
COOKIE_COLORS = ("yellow", "black", "white", "brown", "pink")
TAPE_COLORS = ("green", "red", "blue", "yellow", "black")
ROPE_COLORS = ("red", "blue", "green", "yellow", "white")
ROPE_LENGTHS = ("similar", "long", "short")  # beside the reference stick
ORDER2 = ("eraser", "pencil")  # the first item of a stationery bin
BLOCK_SHAPES = ("circle", "triangle", "square", "star", "hexagon")
BLOCK_BINS = ("top", "middle", "bottom")
DISH_ITEMS = ("fork", "plate", "spoon")
DISH_INTRUDERS = ("knife", "cup")
BALL_COLORS = ("orange", "white", "green", "purple")


def number_word(n: int) -> str:
    return NUMBER_WORDS[n]


def word_number(w: str) -> int:
    return NUMBER_WORDS.index(w)


@dataclass(frozen=True)
class SlotDef:
    name: str
    values: tuple[str, ...]
    # A logical slot names the aspect a contradiction edit to it changes.
    # A decorative slot (None) is never edited: corruption targets it, and
    # its clean value is ``values[0]``.
    aspect: Optional[Aspect] = None


COUNT_EDIT_WINDOW = 2  # count replacements stay within +/- this of the truth


def contradiction_pool(slot: SlotDef, current: str) -> tuple[str, ...]:
    """Values that genuinely contradict ``current`` for this slot."""
    pool = [v for v in slot.values if v != current]
    if all(v in NUMBER_WORDS for v in slot.values) and current in NUMBER_WORDS:
        truth = word_number(current)
        pool = [v for v in pool if abs(word_number(v) - truth) <= COUNT_EDIT_WINDOW]
    return tuple(pool)


# a slot field of a clause template: ``{name}``
SLOT_FIELD = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class Clause:
    template: str
    optional: bool = False

    @functools.cached_property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(SLOT_FIELD.findall(self.template))


Skeleton = tuple[int, tuple[bool, ...]]  # (variant, clause mask)


def _number_words(view: dict) -> dict[str, str]:
    """The view's slot values, every count as its number word."""
    return {k: number_word(v) if isinstance(v, int) else v
            for k, v in view.items()}


@dataclass(frozen=True)
class TemplateGrammar:
    slots: dict[str, SlotDef]
    variants: tuple[tuple[Clause, ...], ...]
    # the words of the logical slots, from the scenario's view
    logical_slots: Callable[[dict], dict[str, str]] = _number_words

    def view_slots(self, view: dict) -> dict[str, str]:
        """The view's logical slot values plus every decorative slot's clean value."""
        slots = self.logical_slots(view)
        for name, values in self.decorative_slots:
            slots[name] = values[0]
        return slots

    def skeleton_plan(self, skeleton: Skeleton) -> tuple[str, tuple[str, ...]]:
        """One ``%`` format string for the skeleton's text, its included
        clauses joined by spaces with each slot field as ``%s``, and the
        slot names it fills in order; made once per skeleton.  ``%`` with
        the values in order writes what ``str.format`` would, in less time."""
        plan = self._plans.get(skeleton)
        if plan is None:
            variant, mask = skeleton
            clauses = [clause for clause, included
                       in zip(self.variants[variant], mask) if included]
            template = " ".join(clause.template for clause in clauses)
            plan = (SLOT_FIELD.sub("%s", template.replace("%", "%%")),
                    tuple(name for clause in clauses
                          for name in clause.slot_names))
            self._plans[skeleton] = plan
        return plan

    @functools.cached_property
    def _plans(self) -> dict[Skeleton, tuple[str, tuple[str, ...]]]:
        return {}

    @functools.cached_property
    def decorative_slots(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(name, values) of each slot with no aspect, in slot order."""
        return tuple((name, slot.values) for name, slot in self.slots.items()
                     if slot.aspect is None)

    @functools.cached_property
    def contradiction_pools(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """Each logical slot's ``contradiction_pool`` for each of its values."""
        return {name: {value: contradiction_pool(slot, value)
                       for value in slot.values}
                for name, slot in self.slots.items() if slot.aspect is not None}


def _plural_fruit(category: str) -> str:
    return f"{category}s"


_FRUIT_PLURALS = tuple(_plural_fruit(c) for c in FRUIT_TYPES)


def _slot_table(*slots: SlotDef) -> dict[str, SlotDef]:
    """Slots by name, in the given order; a repeated name raises."""
    table: dict[str, SlotDef] = {}
    for slot in slots:
        if slot.name in table:
            raise ValueError(f"slot {slot.name!r} is defined twice")
        table[slot.name] = slot
    return table


def _fruits_slots(view: dict) -> dict[str, str]:
    return {
        "count_a": number_word(view["count_a"]),
        "type_a": _plural_fruit(view["cat_a"]),
        "count_b": number_word(view["count_b"]),
        "type_b": _plural_fruit(view["cat_b"]),
        "total": number_word(view["count_a"] + view["count_b"]),
    }


FRUITS_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("count_a", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("type_a", _FRUIT_PLURALS, Aspect.TYPE),
        SlotDef("count_b", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("type_b", _FRUIT_PLURALS, Aspect.TYPE),
        SlotDef("total", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("decor_bowl", ("ceramic", "white", "wooden",
                               "deep", "wide", "glazed")),
        SlotDef("decor_towel", ("striped", "folded", "damp",
                                "cotton", "checkered", "gray")),
        SlotDef("decor_board", ("bamboo", "scratched", "oiled",
                                "thick", "pale", "worn")),
        SlotDef("decor_knife", ("steel", "small", "serrated",
                                "sharp", "dull", "clean")),
        SlotDef("decor_peeler", ("plastic", "swivel", "green",
                                 "cheap", "sturdy", "wet")),
        SlotDef("decor_scale", ("digital", "kitchen", "round",
                                "zeroed", "compact", "old")),
        SlotDef("decor_basket", ("wicker", "woven", "lidded",
                                 "brown", "airy", "squat")),
        SlotDef("decor_net", ("mesh", "produce", "knotted",
                              "orange", "fine", "stretchy")),
    ),
    variants=(
        # The first variant is the clean canonical phrasing; background props
        # only surface in the alternates used under degraded conditions.
        (
            Clause("There are {count_a} {type_a} and {count_b} {type_b}."),
            Clause("The total number of items is {total}.", optional=True),
        ),
        (
            Clause("The tray holds {count_a} {type_a} and {count_b} {type_b}."),
            Clause("Altogether there are {total} items.", optional=True),
            Clause("A {decor_bowl} bowl sits on a {decor_towel} towel behind "
                   "the tray, near a {decor_peeler} peeler and a "
                   "{decor_scale} scale."),
            Clause("A {decor_board} board and a {decor_knife} knife rest "
                   "beside it.", optional=True),
            Clause("A {decor_basket} basket and a {decor_net} net hang "
                   "above."),
        ),
        (
            Clause("I can see {count_a} {type_a} together with {count_b} {type_b}."),
            Clause("In total the item count is {total}.", optional=True),
            Clause("Behind them a {decor_bowl} bowl rests on a {decor_towel} "
                   "towel, close to a {decor_peeler} peeler and a "
                   "{decor_scale} scale."),
            Clause("Next to it lie a {decor_board} board and a {decor_knife} "
                   "knife.", optional=True),
            Clause("A {decor_basket} basket and a {decor_net} net hang "
                   "above."),
        ),
    ),
    logical_slots=_fruits_slots,
)


_STICK_DECOR = ("wooden", "plastic", "painted", "polished", "smooth", "matte")


STICKS_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("count_blue", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("count_red", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("len_blue", LENGTHS, Aspect.LENGTH),
        SlotDef("len_red", LENGTHS, Aspect.LENGTH),
        SlotDef("decor_sticks", _STICK_DECOR),
        SlotDef("decor_tray", ("metal", "white", "gray",
                               "shallow", "wide", "round")),
        SlotDef("decor_marker", ("black", "silver", "yellow",
                                 "square", "plastic", "folded")),
        SlotDef("decor_cloth", ("cotton", "checked", "plain",
                                "striped", "pale", "coarse")),
        SlotDef("decor_clip", ("bent", "small", "shiny",
                               "steel", "flat", "dark")),
        SlotDef("decor_band", ("rubber", "elastic", "paper",
                               "twisted", "broad", "loose")),
        SlotDef("decor_tag", ("lime", "tied", "printed",
                              "curled", "small", "torn")),
        SlotDef("decor_ring", ("brass", "split", "keyed",
                               "thin", "rusted", "wide")),
        SlotDef("decor_pin", ("push", "safety", "bright",
                              "long", "blunt", "glass")),
    ),
    variants=(
        (
            Clause("There are {count_blue} blue {decor_sticks} sticks and "
                   "{count_red} red sticks."),
            Clause("The blue sticks are {len_blue} and the red sticks are "
                   "{len_red}.", optional=True),
            Clause("The sticks rest on a {decor_tray} tray next to a "
                   "{decor_marker} marker, a {decor_band} band, and a "
                   "{decor_tag} tag."),
            Clause("A {decor_cloth} cloth and a {decor_clip} clip lie "
                   "nearby.", optional=True),
            Clause("A {decor_ring} ring and a {decor_pin} pin complete the "
                   "kit."),
        ),
        (
            Clause("The image shows {count_blue} blue {decor_sticks} sticks "
                   "with {count_red} red sticks."),
            Clause("By relative length the blue sticks are {len_blue} while "
                   "the red sticks are {len_red}.", optional=True),
            Clause("They rest on a {decor_tray} tray beside a {decor_marker} "
                   "marker, a {decor_band} band, and a {decor_tag} tag."),
            Clause("Nearby lie a {decor_cloth} cloth and a {decor_clip} "
                   "clip.", optional=True),
            Clause("A {decor_ring} ring and a {decor_pin} pin complete the "
                   "kit."),
        ),
        (
            Clause("A set of {count_blue} blue {decor_sticks} sticks and "
                   "{count_red} red sticks is present."),
            Clause("In comparison the blue sticks are {len_blue} and the red "
                   "sticks are {len_red}.", optional=True),
            Clause("Beneath them sits a {decor_tray} tray with a "
                   "{decor_marker} marker, a {decor_band} band, and a "
                   "{decor_tag} tag alongside."),
            Clause("Off to the side sit a {decor_cloth} cloth and a "
                   "{decor_clip} clip.", optional=True),
            Clause("A {decor_ring} ring and a {decor_pin} pin complete the "
                   "kit."),
        ),
    ),
)


_TOOL_DECOR = ("steel", "shiny", "small", "heavy", "standard", "gray")


def _tools_slots(view: dict) -> dict[str, str]:
    total = view["count_bolt"] + view["count_washer"] + view["count_nut"]
    return _number_words(view | {"total_tools": total})


TOOLS_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("count_bolt", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("region_bolt", TOOL_BINS, Aspect.PLACEMENT),
        SlotDef("count_washer", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("region_washer", TOOL_BINS, Aspect.PLACEMENT),
        SlotDef("count_nut", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("region_nut", TOOL_BINS, Aspect.PLACEMENT),
        SlotDef("total_tools", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("decor_tools", _TOOL_DECOR),
        SlotDef("decor_bench", ("scuffed", "clean", "broad",
                                "pine", "painted", "low")),
        SlotDef("decor_lamp", ("angled", "bright", "dim",
                               "tall", "clamped", "old")),
        SlotDef("decor_rag", ("oily", "torn", "folded",
                              "blue", "rough", "damp")),
        SlotDef("decor_box", ("red", "dented", "latched",
                              "stacked", "empty", "heavy")),
        SlotDef("decor_vise", ("blue", "mounted", "greased",
                               "open", "large", "iron")),
        SlotDef("decor_chart", ("wall", "torn", "laminated",
                                "faded", "taped", "metric")),
        SlotDef("decor_drawer", ("shallow", "locked", "oiled",
                                 "wide", "lower", "wooden")),
        SlotDef("decor_hammer", ("claw", "rubber", "worn",
                                 "small", "balanced", "black")),
    ),
    variants=(
        (
            Clause("There are {count_bolt} {decor_tools} bolts in the "
                   "{region_bolt} bin, {count_washer} washers in the "
                   "{region_washer} bin, and {count_nut} nuts in the "
                   "{region_nut} bin."),
            Clause("In total there are {total_tools} tools on the desk.",
                   optional=True),
            Clause("The bins sit on a {decor_bench} bench under a "
                   "{decor_lamp} lamp, by a {decor_vise} vise and a "
                   "{decor_chart} chart."),
            Clause("A {decor_rag} rag hangs over a {decor_box} box at the "
                   "edge.", optional=True),
            Clause("A {decor_drawer} drawer below stores a {decor_hammer} "
                   "hammer."),
        ),
        (
            Clause("The {region_bolt} bin holds {count_bolt} {decor_tools} "
                   "bolts, the {region_washer} bin holds {count_washer} "
                   "washers, and the {region_nut} bin holds {count_nut} nuts."),
            Clause("The desk carries {total_tools} tools altogether.",
                   optional=True),
            Clause("Everything stands on a {decor_bench} bench lit by a "
                   "{decor_lamp} lamp, with a {decor_vise} vise and a "
                   "{decor_chart} chart close by."),
            Clause("At the edge a {decor_rag} rag covers a {decor_box} "
                   "box.", optional=True),
            Clause("A {decor_drawer} drawer below stores a {decor_hammer} "
                   "hammer."),
        ),
        (
            Clause("I can see {count_bolt} {decor_tools} bolts in the "
                   "{region_bolt} bin, {count_washer} washers in the "
                   "{region_washer} bin, plus {count_nut} nuts in the "
                   "{region_nut} bin."),
            Clause("Counting everything there are {total_tools} tools.",
                   optional=True),
            Clause("Below the bins runs a {decor_bench} bench with a "
                   "{decor_lamp} lamp above, plus a {decor_vise} vise and a "
                   "{decor_chart} chart."),
            Clause("Beside them a {decor_rag} rag rests on a {decor_box} "
                   "box.", optional=True),
            Clause("A {decor_drawer} drawer below stores a {decor_hammer} "
                   "hammer."),
        ),
    ),
    logical_slots=_tools_slots,
)


_COOKIE_DECOR = ("baked", "sugar", "crunchy", "glazed", "plain", "soft")


COOKIES_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("count_square", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("color_square", COOKIE_COLORS, Aspect.RELATION),
        SlotDef("count_round", NUMBER_WORDS, Aspect.QUANTITY),
        SlotDef("color_round", COOKIE_COLORS, Aspect.RELATION),
        SlotDef("decor_cookies", _COOKIE_DECOR),
        SlotDef("decor_table", ("marble", "tiled", "waxed",
                                "narrow", "oak", "spotless")),
        SlotDef("decor_napkin", ("paper", "linen", "creased",
                                 "printed", "thin", "bright")),
        SlotDef("decor_jar", ("glass", "corked", "tall",
                              "labeled", "amber", "dusty")),
        SlotDef("decor_mug", ("ceramic", "chipped", "green",
                              "steaming", "plain", "squat")),
        SlotDef("decor_tray2", ("silver", "engraved", "oval",
                                "polished", "scuffed", "deep")),
        SlotDef("decor_cloth2", ("lace", "ivory", "pressed",
                                 "floral", "hemmed", "soft")),
        SlotDef("decor_teapot", ("iron", "floral", "warm",
                                 "enamel", "spotted", "short")),
        SlotDef("decor_doily", ("crochet", "round", "starched",
                                "vintage", "cream", "frilly")),
    ),
    variants=(
        (
            Clause("There are {count_square} {color_square} cookies on the "
                   "square dish and {count_round} {color_round} cookies on "
                   "the round dish."),
            Clause("The cookies look {decor_cookies}.", optional=True),
            Clause("Both dishes stand on a {decor_table} table beside a "
                   "{decor_napkin} napkin, a {decor_tray2} tray, and a "
                   "{decor_cloth2} cloth."),
            Clause("A {decor_jar} jar and a {decor_mug} mug sit further "
                   "back.", optional=True),
            Clause("A {decor_teapot} teapot waits on a {decor_doily} "
                   "doily."),
        ),
        (
            Clause("The square dish carries {count_square} {color_square} "
                   "cookies while the round dish carries {count_round} "
                   "{color_round} cookies."),
            Clause("All of the cookies appear {decor_cookies}.", optional=True),
            Clause("A {decor_table} table holds the dishes along with a "
                   "{decor_napkin} napkin, a {decor_tray2} tray, and a "
                   "{decor_cloth2} cloth."),
            Clause("Further back stand a {decor_jar} jar and a {decor_mug} "
                   "mug.", optional=True),
            Clause("A {decor_teapot} teapot waits on a {decor_doily} "
                   "doily."),
        ),
        (
            Clause("I can see {count_square} {color_square} cookies on the "
                   "square dish plus {count_round} {color_round} cookies on "
                   "the round dish."),
            Clause("Each cookie seems {decor_cookies}.", optional=True),
            Clause("Under the dishes is a {decor_table} table with a "
                   "{decor_napkin} napkin, a {decor_tray2} tray, and a "
                   "{decor_cloth2} cloth."),
            Clause("Behind them rest a {decor_jar} jar and a {decor_mug} "
                   "mug.", optional=True),
            Clause("A {decor_teapot} teapot waits on a {decor_doily} "
                   "doily."),
        ),
    ),
)


_TAPE_DECOR = ("adhesive", "glossy", "new", "wide", "narrow", "dusty")


TAPES_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("len_first", LENGTHS, Aspect.LENGTH),
        SlotDef("color_first", TAPE_COLORS, Aspect.TYPE),
        SlotDef("len_second", LENGTHS, Aspect.LENGTH),
        SlotDef("color_second", TAPE_COLORS, Aspect.TYPE),
        SlotDef("decor_tapes", _TAPE_DECOR),
        SlotDef("decor_desk", ("walnut", "laminate", "tidy",
                               "slim", "corner", "bare")),
        SlotDef("decor_ruler", ("clear", "metal", "bendy",
                                "marked", "short", "cracked")),
        SlotDef("decor_pad", ("yellow", "lined", "spiral",
                              "thick", "open", "fresh")),
        SlotDef("decor_cup", ("tin", "pen", "leaning",
                              "full", "black", "round")),
        SlotDef("decor_stand", ("wire", "angled", "chrome",
                                "weighted", "bare", "tall")),
        SlotDef("decor_folder", ("manila", "stuffed", "crisp",
                                 "labeled", "ragged", "flat")),
        SlotDef("decor_shade", ("green", "banker", "domed",
                                "frosted", "pleated", "dark")),
        SlotDef("decor_tin", ("biscuit", "square", "painted",
                              "rattling", "shut", "shallow")),
    ),
    variants=(
        (
            Clause("There is a {len_first} {color_first} tape and a "
                   "{len_second} {color_second} tape on the desk."),
            Clause("Both tapes are {decor_tapes}.", optional=True),
            Clause("The desk itself is {decor_desk} and a {decor_ruler} "
                   "ruler lies across it, next to a {decor_stand} stand and "
                   "a {decor_folder} folder."),
            Clause("A {decor_pad} pad and a {decor_cup} cup occupy the far "
                   "corner.", optional=True),
            Clause("A lamp with a {decor_shade} shade lights a {decor_tin} "
                   "tin."),
        ),
        (
            Clause("The desk shows a {len_first} {color_first} tape next to a "
                   "{len_second} {color_second} tape."),
            Clause("The two tapes look {decor_tapes}.", optional=True),
            Clause("It is a {decor_desk} desk crossed by a {decor_ruler} "
                   "ruler, holding a {decor_stand} stand and a "
                   "{decor_folder} folder too."),
            Clause("In the far corner sit a {decor_pad} pad and a "
                   "{decor_cup} cup.", optional=True),
            Clause("A lamp with a {decor_shade} shade lights a {decor_tin} "
                   "tin."),
        ),
        (
            Clause("A {len_first} {color_first} tape lies beside a "
                   "{len_second} {color_second} tape."),
            Clause("Each tape appears {decor_tapes}.", optional=True),
            Clause("Beneath them stretches a {decor_desk} desk with a "
                   "{decor_ruler} ruler on top, plus a {decor_stand} stand "
                   "and a {decor_folder} folder."),
            Clause("Toward the corner rest a {decor_pad} pad and a "
                   "{decor_cup} cup.", optional=True),
            Clause("A lamp with a {decor_shade} shade lights a {decor_tin} "
                   "tin."),
        ),
    ),
)


_STATIONERY_DECOR = ("new", "used", "clean", "branded", "cheap", "classic")
_LEN2 = ("long", "short")


STATIONERY_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("len_left_pencil", _LEN2, Aspect.LENGTH),
        SlotDef("len_left_eraser", _LEN2, Aspect.LENGTH),
        SlotDef("order_left", ORDER2, Aspect.PLACEMENT),
        SlotDef("len_right_pencil", _LEN2, Aspect.LENGTH),
        SlotDef("len_right_eraser", _LEN2, Aspect.LENGTH),
        SlotDef("order_right", ORDER2, Aspect.PLACEMENT),
        SlotDef("decor_stationery", _STATIONERY_DECOR),
        SlotDef("decor_shelf", ("white", "steel", "slanted",
                                "narrow", "high", "dusty")),
        SlotDef("decor_stapler", ("gray", "heavy", "mini",
                                  "open", "orange", "worn")),
        SlotDef("decor_tape", ("clear", "brown", "masking",
                               "double", "thin", "fresh")),
        SlotDef("decor_note", ("pink", "sticky", "curled",
                               "blank", "square", "bright")),
        SlotDef("decor_hook2", ("plastic", "white", "bent",
                                "screwed", "double", "small")),
        SlotDef("decor_sign", ("printed", "handwritten", "taped",
                               "tilted", "framed", "yellowed")),
        SlotDef("decor_pegs", ("wooden", "spring", "striped",
                               "mixed", "stubby", "spare")),
        SlotDef("decor_tub", ("clear", "stacked", "lidless",
                              "deep", "cracked", "blue")),
    ),
    variants=(
        (
            Clause("The left bin holds a {len_left_pencil} black pencil and a "
                   "{len_left_eraser} blue eraser with the {order_left} "
                   "placed first."),
            Clause("The right bin holds a {len_right_pencil} red pencil and a "
                   "{len_right_eraser} red eraser with the {order_right} "
                   "placed first."),
            Clause("All of the items look {decor_stationery}.", optional=True),
            Clause("Both bins hang from a {decor_shelf} shelf near a "
                   "{decor_stapler} stapler, a {decor_hook2} hook, and a "
                   "{decor_sign} sign."),
            Clause("A roll of {decor_tape} tape and a {decor_note} note sit "
                   "above.", optional=True),
            Clause("Some {decor_pegs} pegs fill a {decor_tub} tub at the "
                   "end."),
        ),
        (
            Clause("In the left bin there is a {len_left_pencil} black pencil "
                   "and a {len_left_eraser} blue eraser, the {order_left} "
                   "coming first."),
            Clause("In the right bin there is a {len_right_pencil} red pencil "
                   "and a {len_right_eraser} red eraser, the {order_right} "
                   "coming first."),
            Clause("Every item appears {decor_stationery}.", optional=True),
            Clause("A {decor_shelf} shelf carries both bins with a "
                   "{decor_stapler} stapler, a {decor_hook2} hook, and a "
                   "{decor_sign} sign alongside."),
            Clause("Above them rest a roll of {decor_tape} tape and a "
                   "{decor_note} note.", optional=True),
            Clause("Some {decor_pegs} pegs fill a {decor_tub} tub at the "
                   "end."),
        ),
        (
            Clause("The left bin contains a {len_left_pencil} black pencil "
                   "plus a {len_left_eraser} blue eraser where the "
                   "{order_left} sits first."),
            Clause("The right bin contains a {len_right_pencil} red pencil "
                   "plus a {len_right_eraser} red eraser where the "
                   "{order_right} sits first."),
            Clause("The items seem {decor_stationery}.", optional=True),
            Clause("Underneath runs a {decor_shelf} shelf that also holds a "
                   "{decor_stapler} stapler, a {decor_hook2} hook, and a "
                   "{decor_sign} sign."),
            Clause("Nearby lie a roll of {decor_tape} tape and a "
                   "{decor_note} note.", optional=True),
            Clause("Some {decor_pegs} pegs fill a {decor_tub} tub at the "
                   "end."),
        ),
    ),
)


_ROPE_DECOR = ("braided", "coiled", "thick", "thin", "frayed", "waxed")
_ROPE_LEN = ("similar", "longer", "shorter")
_ROPE_LEN_WORD = dict(zip(ROPE_LENGTHS, _ROPE_LEN))


def _ropes_slots(view: dict) -> dict[str, str]:
    return view | {"rope_len": _ROPE_LEN_WORD[view["rope_len"]]}


ROPES_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("rope_len", _ROPE_LEN, Aspect.LENGTH),
        SlotDef("rope_color", ROPE_COLORS, Aspect.RELATION),
        SlotDef("label_color", ROPE_COLORS, Aspect.RELATION),
        SlotDef("decor_ropes", _ROPE_DECOR),
        SlotDef("decor_hook", ("brass", "rusty", "double",
                               "bolted", "curved", "sturdy")),
        SlotDef("decor_board", ("cork", "pegged", "framed",
                                "leaning", "rough", "long")),
        SlotDef("decor_bag", ("canvas", "zipped", "bulging",
                              "khaki", "slack", "patched")),
        SlotDef("decor_knot", ("loose", "tight", "double",
                               "simple", "neat", "tangled")),
        SlotDef("decor_shelfr", ("metal", "slim", "welded",
                                 "gray", "long", "bare")),
        SlotDef("decor_bucket", ("green", "dented", "plastic",
                                 "upside", "stained", "deep")),
    ),
    variants=(
        (
            Clause("The {decor_ropes} rope is {rope_len} in length compared "
                   "to the reference stick."),
            Clause("The rope is {rope_color} and the label says {label_color}."),
            Clause("A reference stick lies next to the rope.", optional=True),
            Clause("The rope hangs from a {decor_hook} hook on a "
                   "{decor_board} board, over a {decor_shelfr} shelf and a "
                   "{decor_bucket} bucket."),
            Clause("A {decor_bag} bag rests below and the end carries a "
                   "{decor_knot} knot.", optional=True),
        ),
        (
            Clause("Compared to the reference stick the {decor_ropes} rope "
                   "is {rope_len} in length."),
            Clause("The rope color is {rope_color} while the label reads "
                   "{label_color}."),
            Clause("The reference stick sits beside the rope.", optional=True),
            Clause("A {decor_hook} hook fixed to a {decor_board} board "
                   "carries the rope, above a {decor_shelfr} shelf and a "
                   "{decor_bucket} bucket."),
            Clause("Below it sits a {decor_bag} bag and the end shows a "
                   "{decor_knot} knot.", optional=True),
        ),
        (
            Clause("Relative to the reference stick the {decor_ropes} rope "
                   "appears {rope_len} in length."),
            Clause("The rope shows {rope_color} and the label states "
                   "{label_color}."),
            Clause("Next to the rope lies the reference stick.", optional=True),
            Clause("It is suspended from a {decor_hook} hook set into a "
                   "{decor_board} board, past a {decor_shelfr} shelf and a "
                   "{decor_bucket} bucket."),
            Clause("Underneath waits a {decor_bag} bag and the tail ends in "
                   "a {decor_knot} knot.", optional=True),
        ),
    ),
    logical_slots=_ropes_slots,
)


_BLOCK_DECOR = ("wooden", "colorful", "stacked", "small", "large", "plastic")


BLOCKS_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("shape_a", BLOCK_SHAPES, Aspect.TYPE),
        SlotDef("region_a", BLOCK_BINS, Aspect.PLACEMENT),
        SlotDef("shape_b", BLOCK_SHAPES, Aspect.TYPE),
        SlotDef("region_b", BLOCK_BINS, Aspect.PLACEMENT),
        SlotDef("shape_c", BLOCK_SHAPES, Aspect.TYPE),
        SlotDef("region_c", BLOCK_BINS, Aspect.PLACEMENT),
        SlotDef("decor_blocks", _BLOCK_DECOR),
        SlotDef("decor_rack", ("beige", "welded", "tiered",
                               "mobile", "squat", "bolted")),
        SlotDef("decor_label", ("printed", "peeling", "taped",
                                "laminated", "faded", "crooked")),
        SlotDef("decor_crate", ("slatted", "stamped", "pale",
                                "upturned", "sturdy", "rough")),
        SlotDef("decor_floor", ("concrete", "swept", "gridded",
                                "sealed", "speckled", "matte")),
        SlotDef("decor_cart", ("steel", "wheeled", "parked",
                               "loaded", "narrow", "squeaky")),
        SlotDef("decor_poster", ("safety", "peeled", "glossy",
                                 "pinned", "large", "dated")),
        SlotDef("decor_pallet", ("oak", "chipped", "stacked",
                                 "blue", "flat", "heavy")),
        SlotDef("decor_cone", ("traffic", "striped", "toppled",
                               "bright", "small", "dirty")),
    ),
    variants=(
        (
            Clause("Two {shape_a} blocks are in the {region_a} bin, two "
                   "{shape_b} blocks are in the {region_b} bin, and two "
                   "{shape_c} blocks are in the {region_c} bin."),
            Clause("The blocks appear {decor_blocks}.", optional=True),
            Clause("The bins belong to a {decor_rack} rack with a "
                   "{decor_label} label, near a {decor_cart} cart and a "
                   "{decor_poster} poster."),
            Clause("A {decor_crate} crate waits on the {decor_floor} "
                   "floor.", optional=True),
            Clause("A {decor_pallet} pallet and a {decor_cone} cone flank "
                   "the aisle."),
        ),
        (
            Clause("The {region_a} bin shows two {shape_a} blocks, the "
                   "{region_b} bin shows two {shape_b} blocks, and the "
                   "{region_c} bin shows two {shape_c} blocks."),
            Clause("All of the blocks look {decor_blocks}.", optional=True),
            Clause("A {decor_rack} rack carrying a {decor_label} label "
                   "holds the bins, beside a {decor_cart} cart and a "
                   "{decor_poster} poster."),
            Clause("On the {decor_floor} floor stands a {decor_crate} "
                   "crate.", optional=True),
            Clause("A {decor_pallet} pallet and a {decor_cone} cone flank "
                   "the aisle."),
        ),
        (
            Clause("I can see two {shape_a} blocks in the {region_a} bin, two "
                   "{shape_b} blocks in the {region_b} bin, plus two "
                   "{shape_c} blocks in the {region_c} bin."),
            Clause("Every block seems {decor_blocks}.", optional=True),
            Clause("The bins slot into a {decor_rack} rack marked by a "
                   "{decor_label} label, close to a {decor_cart} cart and a "
                   "{decor_poster} poster."),
            Clause("Next to it a {decor_crate} crate sits on the "
                   "{decor_floor} floor.", optional=True),
            Clause("A {decor_pallet} pallet and a {decor_cone} cone flank "
                   "the aisle."),
        ),
    ),
)


_DISH_DECOR = ("gray", "bamboo", "striped", "woven", "rubber", "folded")
# Order matters for mean-pooled encoders, so position and item are fused into
# one token per slot.
_DISH_POS_VALUES = {
    word: tuple(f"{word}_{item}" for item in DISH_ITEMS + DISH_INTRUDERS)
    for word in ("first", "second", "third")
}


def _dishes_slots(view: dict) -> dict[str, str]:
    return {f"pos_{w}": f"{w}_{item}" for w, item in view.items()}


DISHES_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("pos_first", _DISH_POS_VALUES["first"], Aspect.TYPE),
        SlotDef("pos_second", _DISH_POS_VALUES["second"],
                Aspect.TYPE),
        SlotDef("pos_third", _DISH_POS_VALUES["third"], Aspect.TYPE),
        SlotDef("decor_dishes", _DISH_DECOR),
        SlotDef("decor_runner", ("linen", "red", "quilted",
                                 "long", "fringed", "ironed")),
        SlotDef("decor_candle", ("white", "lit", "stubby",
                                 "scented", "tilted", "waxy")),
        SlotDef("decor_vase", ("slender", "blue", "etched",
                               "empty", "squat", "shiny")),
        SlotDef("decor_chair", ("oak", "padded", "pushed",
                                "carved", "plain", "high")),
        SlotDef("decor_pitcher", ("glass", "frosted", "tall",
                                  "full", "handled", "clay")),
        SlotDef("decor_coaster", ("round", "cork", "slate",
                                  "woven", "thin", "spare")),
        SlotDef("decor_salt", ("glass", "twin", "capped",
                               "crystal", "half", "plain")),
        SlotDef("decor_trivet", ("iron", "tiled", "square",
                                 "heat", "braided", "worn")),
    ),
    variants=(
        (
            Clause("From left to right the arrangement is {pos_first}, then "
                   "{pos_second}, then {pos_third}."),
            Clause("The items rest on a {decor_dishes} mat.", optional=True),
            Clause("A {decor_runner} runner and a {decor_candle} candle "
                   "decorate the table, joined by a {decor_pitcher} pitcher "
                   "and a {decor_coaster} coaster."),
            Clause("A {decor_vase} vase stands behind a {decor_chair} "
                   "chair.", optional=True),
            Clause("A {decor_salt} shaker rests on a {decor_trivet} "
                   "trivet."),
        ),
        (
            Clause("Scanning left to right the layout reads {pos_first}, "
                   "{pos_second}, {pos_third}."),
            Clause("Underneath the items lies a {decor_dishes} mat.",
                   optional=True),
            Clause("The table is decorated with a {decor_runner} runner and "
                   "a {decor_candle} candle, plus a {decor_pitcher} pitcher "
                   "and a {decor_coaster} coaster."),
            Clause("Behind a {decor_chair} chair stands a {decor_vase} "
                   "vase.", optional=True),
            Clause("A {decor_salt} shaker rests on a {decor_trivet} "
                   "trivet."),
        ),
        (
            Clause("Left to right the order is {pos_first} followed by "
                   "{pos_second} followed by {pos_third}."),
            Clause("A {decor_dishes} mat sits under the items.", optional=True),
            Clause("Along the table run a {decor_runner} runner and a "
                   "{decor_candle} candle, with a {decor_pitcher} pitcher "
                   "and a {decor_coaster} coaster between."),
            Clause("A {decor_chair} chair fronts a {decor_vase} vase at "
                   "the back.", optional=True),
            Clause("A {decor_salt} shaker rests on a {decor_trivet} "
                   "trivet."),
        ),
    ),
    logical_slots=_dishes_slots,
)


_BALL_DECOR = ("rubber", "bouncy", "matte", "glossy", "new", "worn")


BALLS_GRAMMAR = TemplateGrammar(
    slots=_slot_table(
        SlotDef("n_tl", NUMBER_WORDS[:3], Aspect.PLACEMENT),
        SlotDef("c_tl", BALL_COLORS, Aspect.RELATION),
        SlotDef("n_tr", NUMBER_WORDS[:3], Aspect.PLACEMENT),
        SlotDef("c_tr", BALL_COLORS, Aspect.RELATION),
        SlotDef("n_bl", NUMBER_WORDS[:3], Aspect.PLACEMENT),
        SlotDef("c_bl", BALL_COLORS, Aspect.RELATION),
        SlotDef("n_br", NUMBER_WORDS[:3], Aspect.PLACEMENT),
        SlotDef("c_br", BALL_COLORS, Aspect.RELATION),
        SlotDef("decor_balls", _BALL_DECOR),
        SlotDef("decor_case", ("padded", "molded", "aluminum",
                               "scuffed", "latching", "slim")),
        SlotDef("decor_lid", ("hinged", "foam", "raised",
                              "snapped", "ribbed", "loose")),
        SlotDef("decor_strap", ("nylon", "woven", "buckled",
                                "frayed", "elastic", "wide")),
        SlotDef("decor_tag", ("paper", "laminated", "numbered",
                              "tied", "bent", "orange")),
        SlotDef("decor_foam", ("gray", "dense", "cut",
                               "eggshell", "soft", "thick")),
        SlotDef("decor_latch", ("chrome", "spring", "stiff",
                                "twin", "snapped", "tiny")),
        SlotDef("decor_pump", ("hand", "mini", "red",
                               "foot", "spent", "metal")),
        SlotDef("decor_mesh", ("drawstring", "black", "coarse",
                               "netted", "light", "roomy")),
    ),
    variants=(
        (
            Clause("The top left compartment holds {n_tl} {c_tl} balls, the "
                   "top right holds {n_tr} {c_tr} balls, the bottom left "
                   "holds {n_bl} {c_bl} balls, and the bottom right holds "
                   "{n_br} {c_br} balls."),
            Clause("The balls look {decor_balls}.", optional=True),
            Clause("The {decor_case} case opens with a {decor_lid} lid "
                   "over {decor_foam} foam and a {decor_latch} latch."),
            Clause("A {decor_strap} strap and a {decor_tag} tag hang from "
                   "the handle.", optional=True),
            Clause("A {decor_pump} pump sits in a {decor_mesh} mesh "
                   "pocket."),
        ),
        (
            Clause("In the case there are {n_tl} {c_tl} balls top left, "
                   "{n_tr} {c_tr} balls top right, {n_bl} {c_bl} balls "
                   "bottom left, and {n_br} {c_br} balls bottom right."),
            Clause("All of the balls appear {decor_balls}.", optional=True),
            Clause("It is a {decor_case} case under a {decor_lid} lid, "
                   "lined with {decor_foam} foam and shut by a "
                   "{decor_latch} latch."),
            Clause("From the handle hang a {decor_strap} strap and a "
                   "{decor_tag} tag.", optional=True),
            Clause("A {decor_pump} pump sits in a {decor_mesh} mesh "
                   "pocket."),
        ),
        (
            Clause("The case shows {n_tl} {c_tl} balls in the top left, "
                   "{n_tr} {c_tr} balls in the top right, {n_bl} {c_bl} "
                   "balls in the bottom left, plus {n_br} {c_br} balls in "
                   "the bottom right."),
            Clause("Every ball seems {decor_balls}.", optional=True),
            Clause("The whole {decor_case} case closes with a {decor_lid} "
                   "lid, {decor_foam} foam inside and a {decor_latch} latch "
                   "in front."),
            Clause("Its handle carries a {decor_strap} strap and a "
                   "{decor_tag} tag.", optional=True),
            Clause("A {decor_pump} pump sits in a {decor_mesh} mesh "
                   "pocket."),
        ),
    ),
)

