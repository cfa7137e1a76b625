"""Core scene model: scenario specs, classification and sampling.

A scenario's *view* is its logical state: the counts, attributes and
order that its two rules constrain (a dict; a list for dishes).  A
``ScenarioSpec`` is the one record of a scenario: its two rule aspects and
rules, its edits, its split counts and its text grammar.  Scenarios draw a
view and edit it; the rules judge the view, a view is normal iff both rule
predicates hold, and the grammar renders it.  Each sample holds the view it
was drawn as.
A scene is the record of a view that the scene file holds: its objects,
one field dict each, and its context (e.g. the text label the rope color
has to match); ``build`` makes it, for ``pipeline`` only.
Neither a view, a scene nor a task's samples hold a capture condition:
``build_task`` never sees one.  The condition reaches the views only through
the seed the pipeline derives, so it changes which views are drawn but never
how a view is judged; downstream it selects the rendering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # templates imports this module
    from .templates import TemplateGrammar

MUTATION_ATTEMPTS = 1000


class Aspect(enum.Enum):
    QUANTITY = "quantity"
    LENGTH = "length"
    TYPE = "type"
    PLACEMENT = "placement"
    RELATION = "relation"


class Condition(enum.Enum):
    WHITE_BG = "white_bg"
    CABLE_BG = "cable_bg"
    MESH_BG = "mesh_bg"
    LOWLIGHT_CD = "lowlight_cd"
    BLURRY_CD = "blurry_cd"


class Label(enum.Enum):
    NORMAL = "normal"
    SINGLE_A = "singleA"
    SINGLE_B = "singleB"
    DUAL = "dual"


class GenerationError(RuntimeError):
    """Targeted anomaly could not be realized within the attempt bound."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: its aspect pair, rules, edits, counts and grammar.

    ``rule_a``/``rule_b`` return True when a view satisfies the rule; a view
    with nothing on the tray satisfies neither.  ``build`` makes the scene
    record of a view, ``{"objects": [...], "context": {...}}``.  ``normal``
    draws a normal view, and ``edits`` map each aspect to a single
    rule-breaking edit of a view, made in place, used by targeted anomaly
    sampling.  ``counts`` are the sizes of each of its
    tasks' splits, and ``grammar`` renders its view as text.
    """

    scenario_id: str
    aspects: tuple[Aspect, Aspect]
    rule_a: Callable[[Any], bool]
    rule_b: Callable[[Any], bool]
    build: Callable[[Any], dict]
    normal: Callable[[np.random.Generator], Any]
    edits: dict[Aspect, Callable[[Any, np.random.Generator], None]]
    counts: SplitCounts
    grammar: TemplateGrammar


# (rule_a holds, rule_b holds) -> label
_LABELS = {(True, True): Label.NORMAL, (False, True): Label.SINGLE_A,
           (True, False): Label.SINGLE_B, (False, False): Label.DUAL}


def classify(view: Any, spec: ScenarioSpec) -> Label:
    return _LABELS[spec.rule_a(view), spec.rule_b(view)]


def sample_anomaly(
    spec: ScenarioSpec, target: Label, rng: np.random.Generator
) -> Any:
    """Sample a view whose classification is exactly ``target``.

    Constructive edits of a normal view, one per target aspect, then a
    classify check; rejection-sampled because a second edit can
    accidentally repair or extend the first one.
    """
    if target == Label.SINGLE_A:
        aspects = (spec.aspects[0],)
    elif target == Label.SINGLE_B:
        aspects = (spec.aspects[1],)
    else:
        aspects = spec.aspects
    for _ in range(MUTATION_ATTEMPTS):
        view = spec.normal(rng)
        for aspect in aspects:
            spec.edits[aspect](view, rng)
        if classify(view, spec) == target:
            return view
    raise GenerationError(
        f"could not realize {target.value} for {spec.scenario_id} "
        f"within {MUTATION_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class SplitCounts:
    train_normal: int
    test_normal: int
    single_a: int
    single_b: int
    dual: int


@dataclass(frozen=True)
class TaskSample:
    sample_id: str
    split: str  # "train" | "test"
    label: Label
    view: Any


def task_id_for(scenario_id: str, condition: Condition) -> str:
    return f"{scenario_id}-{condition.value}"


def build_task(spec: ScenarioSpec, counts: SplitCounts,
               seed: int) -> tuple[TaskSample, ...]:
    """Generate the labelled views of one task, train samples first.

    Every view is drawn from one stream seeded by ``seed``, train views
    first, so the train views depend only on ``counts.train_normal``: a
    call with the test counts set to zero gives the same train samples.
    """
    rng = np.random.default_rng(seed)
    samples: list[TaskSample] = []

    def add(split: str, label: Label, view: Any, index: int) -> None:
        sample_id = f"{split}-{label.value}-{index:04d}"
        samples.append(TaskSample(sample_id, split, label, view))

    for i in range(counts.train_normal):
        add("train", Label.NORMAL, spec.normal(rng), i)
    for i in range(counts.test_normal):
        add("test", Label.NORMAL, spec.normal(rng), i)
    for label, n in (
        (Label.SINGLE_A, counts.single_a),
        (Label.SINGLE_B, counts.single_b),
        (Label.DUAL, counts.dual),
    ):
        for i in range(n):
            add("test", label, sample_anomaly(spec, label, rng), i)
    return tuple(samples)
