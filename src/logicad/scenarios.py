"""The ten scenarios, one ``ScenarioSpec`` each, in ``SCENARIOS``, the one
registry: modules index it directly; ``PipelineConfig`` refuses an id it lacks.

A spec is the whole record of its scenario: its two constraints, each an
aspect, a rule and the edit that breaks it, its split counts and its
grammar, which ``templates`` defines along with the attribute domains the
rules share.  Its view, the logical state (a dict of slot values), is
what ``normal`` draws, what each constraint's edit changes in place, what
the rules judge and what the grammar renders.
``scenes.sample_anomaly`` combines the edits with rejection sampling to hit
a target label exactly.  ``build`` makes the scene record of a view, for
the scene file only: each builder writes its objects' field names, and
``_scene`` numbers the objects and adds the context.

Nine scenarios state their one normal view once, and ``_fixed`` makes the
``normal`` that copies it: fruits, tapes, stationery, blocks and dishes as a
constant, the four grouped ones from their ``GroupLayout`` table.  Each rule
compares a view with it on one aspect's slots (``_agrees``, the grouped
counts rule too), ``_swap`` moves one slot away from it, and ``_kept`` makes
the constraint that pairs the two on the same slots.

A scene lists its objects in a fixed, meaningful order (groups are
contiguous runs), and an object's ``order_index`` is its position in that
list, which keeps the scene file reproducible.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Optional

from .scenes import Aspect, Constraint, ScenarioSpec, SplitCounts
from .seeding import Draws
from .templates import (
    BALL_COLORS, BALLS_GRAMMAR, BLOCK_BINS, BLOCK_SHAPES, BLOCKS_GRAMMAR,
    COOKIE_COLORS, COOKIES_GRAMMAR, DISH_INTRUDERS, DISH_ITEMS, DISHES_GRAMMAR,
    FRUIT_TYPES, FRUITS_GRAMMAR, LENGTHS, ORDER2, ROPE_COLORS, ROPE_LENGTHS,
    ROPES_GRAMMAR, STATIONERY_GRAMMAR, STICKS_GRAMMAR, TAPE_COLORS,
    TAPES_GRAMMAR, TOOL_BINS, TOOLS_GRAMMAR, TemplateGrammar,
)

MAX_COUNT = 6  # upper bound for any per-group object count


def _pick(rng: Draws, options):
    options = list(options)
    return options[int(rng.integers(len(options)))]


def _bump(rng: Draws, count: int, lo: int = 0) -> int:
    deltas = [d for d in (-1, 1) if lo <= count + d <= MAX_COUNT]
    return count + _pick(rng, deltas)


def _scene(objects: list[dict], **context: str) -> dict:
    """The scene record of ``objects``, each numbered by its list position."""
    for i, obj in enumerate(objects):
        obj["order_index"] = i
    return {"objects": objects, "context": context}


def _swap(slots: Sequence[str], values: Sequence[str], normal: dict):
    """The edit that sets one slot to a value other than its normal one.

    ``normal`` is the normal view.  The slot index and the value are two
    draws, in that order.
    """
    def edit(view, rng: Draws) -> None:
        slot = _pick(rng, slots)
        view[slot] = _pick(rng, [v for v in values if v != normal[slot]])
    return edit


def _fixed(view: dict):
    """The ``normal`` of a scenario with one normal view.

    Each call returns a copy, since edits work in place.
    """
    return lambda rng: dict(view)


def _agrees(normal, slots: Sequence[str], shape=lambda view: True):
    """The rule "the view has the normal's shape and equals the normal view
    on ``slots``"."""
    def rule(view) -> bool:
        return shape(view) and all(view[slot] == normal[slot] for slot in slots)
    return rule


def _kept(aspect: Aspect, normal, slots: Sequence[str], values: Sequence[str],
          shape=lambda view: True) -> Constraint:
    """The constraint that ``_agrees`` judges and ``_swap`` breaks."""
    return Constraint(aspect, _agrees(normal, slots, shape),
                      _swap(slots, values, normal))


@dataclasses.dataclass(frozen=True)
class GroupLayout:
    """Groups in a fixed order, one group per key.

    A group has a count and one attribute that all its objects share.  Each
    row of ``groups`` is (key, count slot, attribute slot, canonical count,
    canonical attribute); the slot names are both the view's keys and the
    grammar's slot names.  In the built scene a group is every object whose
    ``key`` field (a color, a category or a region) equals the group's key,
    with the attribute in its ``attr`` field.  ``category`` is the fixed
    category, or None when the key is the category.
    """

    key: str
    attr: str
    category: Optional[str]
    values: tuple[str, ...]  # allowed attribute values
    groups: tuple[tuple[str, str, str, int, str], ...]

    def build(self, view: dict) -> dict:
        objects = []
        for key, count, attr, _, _ in self.groups:
            fields = {"category": self.category, self.key: key,
                      self.attr: view[attr]}
            for _ in range(view[count]):
                objects.append(dict(fields))
        return _scene(objects)

    def placed(self, view: dict) -> bool:
        """Whether any group has an object: an empty tray breaks both rules."""
        return any(view[count] > 0 for _, count, _, _, _ in self.groups)

    def attrs_hold(self, view: dict) -> bool:
        """Every group that has objects has its canonical attribute."""
        return self.placed(view) and all(
            view[count] == 0 or view[attr] == canon
            for _, count, attr, _, canon in self.groups)

    def bump_count(self, view: dict, rng: Draws) -> None:
        count = _pick(rng, [g[1] for g in self.groups])
        view[count] = _bump(rng, view[count])

    def change_attr(self, view: dict, rng: Draws) -> None:
        _, _, attr, _, canon = _pick(rng, [g for g in self.groups if view[g[1]] > 0])
        view[attr] = _pick(rng, [v for v in self.values if v != canon])


def _grouped_spec(scenario_id: str, layout: GroupLayout,
                  aspects: tuple[Aspect, Aspect], counts: SplitCounts,
                  grammar: TemplateGrammar, count_edit=None) -> ScenarioSpec:
    """The first constraint is on the counts, the second on the attributes;
    the normal view holds the layout table's canonical counts and attributes."""
    view = {}
    for _, count, attr, n, canon in layout.groups:
        view[count], view[attr] = n, canon
    return ScenarioSpec(
        scenario_id=scenario_id,
        constraints=(
            Constraint(aspects[0],
                       _agrees(view, [g[1] for g in layout.groups], layout.placed),
                       count_edit or layout.bump_count),
            Constraint(aspects[1], layout.attrs_hold, layout.change_attr)),
        build=layout.build, normal=_fixed(view), counts=counts, grammar=grammar,
    )


# ---------------------------------------------------------------------------
# Sticks (Quantity + Length): two long blue sticks and one short red stick.
# ---------------------------------------------------------------------------

STICKS_LAYOUT = GroupLayout(
    key="color", attr="length_class", category="stick", values=LENGTHS,
    groups=(("blue", "count_blue", "len_blue", 2, "long"),
            ("red", "count_red", "len_red", 1, "short")),
)

STICKS = _grouped_spec("sticks", STICKS_LAYOUT, (Aspect.QUANTITY, Aspect.LENGTH),
                       SplitCounts(50, 50, 48, 48, 8), STICKS_GRAMMAR)


# ---------------------------------------------------------------------------
# Fruits (Quantity + Type): three oranges and two kiwifruits.
# ---------------------------------------------------------------------------

_FRUITS_NORMAL = {"count_a": 3, "cat_a": "orange", "count_b": 2, "cat_b": "kiwi"}


def _fruits_build(view: dict) -> dict:
    objects = []
    for side in ("a", "b"):
        for _ in range(view[f"count_{side}"]):
            objects.append({"category": view[f"cat_{side}"]})
    return _scene(objects)


def _two_kinds(view: dict) -> bool:
    """Two nonempty rows of two different fruits."""
    return (view["count_a"] > 0 and view["count_b"] > 0
            and view["cat_a"] != view["cat_b"])


def _fruits_edit_q(view: dict, rng: Draws) -> None:
    side = _pick(rng, ("a", "b"))
    view[f"count_{side}"] = _bump(rng, view[f"count_{side}"], lo=1)


def _fruits_edit_t(view: dict, rng: Draws) -> None:
    side = _pick(rng, ("a", "b"))
    other = view["cat_b" if side == "a" else "cat_a"]
    view[f"cat_{side}"] = _pick(
        rng, [c for c in FRUIT_TYPES if c not in (view[f"cat_{side}"], other)]
    )


FRUITS = ScenarioSpec(
    scenario_id="fruits",
    constraints=(
        Constraint(Aspect.QUANTITY,
                   _agrees(_FRUITS_NORMAL, ("count_a", "count_b"), _two_kinds),
                   _fruits_edit_q),
        Constraint(Aspect.TYPE,
                   _agrees(_FRUITS_NORMAL, ("cat_a", "cat_b"), _two_kinds),
                   _fruits_edit_t)),
    build=_fruits_build,
    normal=_fixed(_FRUITS_NORMAL),
    counts=SplitCounts(50, 50, 48, 44, 8), grammar=FRUITS_GRAMMAR,
)


# ---------------------------------------------------------------------------
# Tools (Quantity + Placement): two bolts/washers/nuts in left/middle/right bins.
# ---------------------------------------------------------------------------

TOOLS_LAYOUT = GroupLayout(
    key="category", attr="region", category=None, values=TOOL_BINS,
    groups=(("bolt", "count_bolt", "region_bolt", 2, "left"),
            ("washer", "count_washer", "region_washer", 2, "middle"),
            ("nut", "count_nut", "region_nut", 2, "right")),
)

TOOLS = _grouped_spec("tools", TOOLS_LAYOUT, (Aspect.QUANTITY, Aspect.PLACEMENT),
                      SplitCounts(50, 50, 52, 50, 8), TOOLS_GRAMMAR)


# ---------------------------------------------------------------------------
# Cookies (Quantity + Relation): two yellow cookies on the square dish, one
# black cookie on the round dish.
# ---------------------------------------------------------------------------

COOKIES_LAYOUT = GroupLayout(
    key="region", attr="color", category="cookie", values=COOKIE_COLORS,
    groups=(("square_dish", "count_square", "color_square", 2, "yellow"),
            ("round_dish", "count_round", "color_round", 1, "black")),
)

COOKIES = _grouped_spec("cookies", COOKIES_LAYOUT, (Aspect.QUANTITY, Aspect.RELATION),
                        SplitCounts(50, 50, 50, 50, 6), COOKIES_GRAMMAR)


# ---------------------------------------------------------------------------
# Tapes (Length + Type): a long green tape and a short red tape, length judged
# by relative comparison of the two.
# ---------------------------------------------------------------------------

_TAPES_NORMAL = {"len_first": "long", "color_first": "green",
                 "len_second": "short", "color_second": "red"}


def _tapes_build(view: dict) -> dict:
    return _scene([{"category": "tape", "color": view[f"color_{w}"],
                    "length_class": view[f"len_{w}"]}
                   for w in ("first", "second")])


TAPES = ScenarioSpec(
    scenario_id="tapes",
    constraints=(
        _kept(Aspect.LENGTH, _TAPES_NORMAL, ("len_first", "len_second"),
              LENGTHS),
        _kept(Aspect.TYPE, _TAPES_NORMAL, ("color_first", "color_second"),
              TAPE_COLORS)),
    build=_tapes_build,
    normal=_fixed(_TAPES_NORMAL),
    counts=SplitCounts(50, 50, 50, 50, 10), grammar=TAPES_GRAMMAR,
)


# ---------------------------------------------------------------------------
# Stationery (Length + Placement): long black pencil + long blue eraser in the
# left bin, short red pencil + short red eraser in the right bin; the eraser
# sits left of (before) the pencil within each bin.
# ---------------------------------------------------------------------------

_STATIONERY_NORMAL = {
    "len_left_pencil": "long", "len_left_eraser": "long",
    "len_right_pencil": "short", "len_right_eraser": "short",
    "order_left": "eraser", "order_right": "eraser",
}
_STATIONERY_COLORS = {("left", "pencil"): "black", ("left", "eraser"): "blue",
                      ("right", "pencil"): "red", ("right", "eraser"): "red"}


def _stationery_build(view: dict) -> dict:
    objects = []
    for side in ("left", "right"):
        first = view[f"order_{side}"]
        cats = (first, "pencil" if first == "eraser" else "eraser")
        for cat in cats:
            objects.append({"category": cat,
                            "color": _STATIONERY_COLORS[(side, cat)],
                            "length_class": view[f"len_{side}_{cat}"],
                            "region": f"{side}_bin"})
    return _scene(objects)


def _stationery_edit_l(view: dict, rng: Draws) -> None:
    side = _pick(rng, ("left", "right"))
    cat = _pick(rng, ("pencil", "eraser"))
    slot = f"len_{side}_{cat}"
    view[slot] = "short" if _STATIONERY_NORMAL[slot] == "long" else "long"


STATIONERY = ScenarioSpec(
    scenario_id="stationery",
    constraints=(
        Constraint(Aspect.LENGTH,
                   _agrees(_STATIONERY_NORMAL,
                           ("len_left_pencil", "len_left_eraser",
                            "len_right_pencil", "len_right_eraser")),
                   _stationery_edit_l),
        _kept(Aspect.PLACEMENT, _STATIONERY_NORMAL,
              ("order_left", "order_right"), ORDER2)),
    build=_stationery_build,
    normal=_fixed(_STATIONERY_NORMAL),
    counts=SplitCounts(50, 50, 50, 50, 10), grammar=STATIONERY_GRAMMAR,
)


# ---------------------------------------------------------------------------
# Ropes (Length + Relation): rope length similar to the reference stick, rope
# color matching the text label.
# ---------------------------------------------------------------------------

def _ropes_build(view: dict) -> dict:
    rope = {"category": "rope", "color": view["rope_color"],
            "length_class": view["rope_len"]}
    return _scene([rope], label=view["label_color"])


def _ropes_normal(rng: Draws) -> dict:
    color = _pick(rng, ROPE_COLORS)
    return {"rope_len": "similar", "rope_color": color, "label_color": color}


def _ropes_rule_r(view: dict) -> bool:
    return view["rope_color"] == view["label_color"]


def _ropes_edit_r(view: dict, rng: Draws) -> None:
    view["rope_color"] = _pick(
        rng, [c for c in ROPE_COLORS if c != view["label_color"]]
    )


ROPES = ScenarioSpec(
    scenario_id="ropes",
    constraints=(
        _kept(Aspect.LENGTH, {"rope_len": "similar"}, ("rope_len",), ROPE_LENGTHS),
        Constraint(Aspect.RELATION, _ropes_rule_r, _ropes_edit_r)),
    build=_ropes_build,
    normal=_ropes_normal,
    counts=SplitCounts(50, 50, 48, 50, 12), grammar=ROPES_GRAMMAR,
)


# ---------------------------------------------------------------------------
# Blocks (Type + Placement): two circle/triangle/square blocks in the
# top/middle/bottom bins.
# ---------------------------------------------------------------------------

_BLOCKS_NORMAL = {"shape_a": "circle", "region_a": "top",
                  "shape_b": "triangle", "region_b": "middle",
                  "shape_c": "square", "region_c": "bottom"}


def _blocks_build(view: dict) -> dict:
    objects = []
    for slot in ("a", "b", "c"):
        for _ in range(2):
            objects.append({"category": view[f"shape_{slot}"],
                            "region": view[f"region_{slot}"]})
    return _scene(objects)


def _blocks_distinct(view: dict) -> bool:
    """No two adjacent (shape, region) groups are equal."""
    a, b, c = ((view[f"shape_{s}"], view[f"region_{s}"]) for s in "abc")
    return a != b and b != c


def _blocks_slots(view: dict) -> dict[str, str]:
    """The words of a blocks view as its text reads them.

    Adjacent equal groups are named once, and the slots that frees keep the
    normal values; so a dual anomaly whose edits make two adjacent groups
    equal is described as another view.  ROADMAP item 5(a) renders every
    view as drawn, re-pins the seed-0 digests and deletes this shim.
    """
    groups: list[tuple[str, str]] = []
    for slot in ("a", "b", "c"):
        group = (view[f"shape_{slot}"], view[f"region_{slot}"])
        if not groups or groups[-1] != group:
            groups.append(group)
    slots = dict(_BLOCKS_NORMAL)
    for slot, (shape, region) in zip(("a", "b", "c"), groups):
        slots[f"shape_{slot}"], slots[f"region_{slot}"] = shape, region
    return slots


BLOCKS = ScenarioSpec(
    scenario_id="blocks",
    constraints=(
        _kept(Aspect.TYPE, _BLOCKS_NORMAL, ("shape_a", "shape_b", "shape_c"),
              BLOCK_SHAPES, _blocks_distinct),
        _kept(Aspect.PLACEMENT, _BLOCKS_NORMAL,
              ("region_a", "region_b", "region_c"), BLOCK_BINS,
              _blocks_distinct)),
    build=_blocks_build,
    normal=_fixed(_BLOCKS_NORMAL),
    counts=SplitCounts(50, 50, 52, 50, 8),
    grammar=dataclasses.replace(BLOCKS_GRAMMAR, logical_slots=_blocks_slots),
)


# ---------------------------------------------------------------------------
# Dishes (Type + Relation): a fork, a plate, and a spoon in left-to-right order.
# ---------------------------------------------------------------------------

_DISHES_NORMAL = {"first": "fork", "second": "plate", "third": "spoon"}
_DISH_RANK = {item: i for i, item in enumerate(DISH_ITEMS)}


def _dishes_build(view: dict) -> dict:
    return _scene([{"category": cat} for cat in view.values()])


def _dishes_rule_t(view: dict) -> bool:
    return sorted(view.values()) == sorted(DISH_ITEMS)


def _dishes_rule_r(view: dict) -> bool:
    ranks = [_DISH_RANK[c] for c in view.values() if c in _DISH_RANK]
    return ranks == sorted(ranks)


def _dishes_edit_r(view: dict, rng: Draws) -> None:
    while True:
        perm = rng.permutation(len(view))
        if list(perm) != list(range(len(view))):
            break
    slots, items = list(view), list(view.values())
    view.update(zip(slots, [items[j] for j in perm]))


DISHES = ScenarioSpec(
    scenario_id="dishes",
    constraints=(
        Constraint(Aspect.TYPE, _dishes_rule_t,
                   _swap(("first", "second", "third"), DISH_INTRUDERS,
                         _DISHES_NORMAL)),
        Constraint(Aspect.RELATION, _dishes_rule_r, _dishes_edit_r)),
    build=_dishes_build,
    normal=_fixed(_DISHES_NORMAL),
    counts=SplitCounts(50, 50, 48, 48, 15), grammar=DISHES_GRAMMAR,
)


# ---------------------------------------------------------------------------
# Balls (Placement + Relation): one ball per compartment of a 2x2 case, orange
# in the top row and white in the bottom row.
# ---------------------------------------------------------------------------

BALLS_LAYOUT = GroupLayout(
    key="region", attr="color", category="ball", values=BALL_COLORS,
    groups=(("top_left", "n_tl", "c_tl", 1, "orange"),
            ("top_right", "n_tr", "c_tr", 1, "orange"),
            ("bottom_left", "n_bl", "c_bl", 1, "white"),
            ("bottom_right", "n_br", "c_br", 1, "white")),
)


def _balls_edit_p(view: dict, rng: Draws) -> None:
    """Move one ball to the other compartment of its row: as the first edit it
    runs on a normal view, which holds one ball in every compartment."""
    row = _pick(rng, ("t", "b"))
    src, dst = (f"{row}l", f"{row}r") if rng.integers(2) else (f"{row}r", f"{row}l")
    view[f"n_{src}"] -= 1
    view[f"n_{dst}"] += 1


BALLS = _grouped_spec("balls", BALLS_LAYOUT, (Aspect.PLACEMENT, Aspect.RELATION),
                      SplitCounts(50, 50, 48, 48, 12), BALLS_GRAMMAR,
                      count_edit=_balls_edit_p)


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.scenario_id: spec
    for spec in (STICKS, FRUITS, TOOLS, COOKIES, TAPES,
                 STATIONERY, ROPES, BLOCKS, DISHES, BALLS)
}
