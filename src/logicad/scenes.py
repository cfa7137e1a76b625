"""Core scene model: scenario specs, classification and sampling.

A scenario's *view* is its logical state: the counts, attributes and
order that its two constraints govern (a dict; a list for dishes).  A
``ScenarioSpec`` is the one record of a scenario: its two constraints, its
split counts and its text grammar.  A ``Constraint`` is one aspect, the rule
that judges a view on it and the edit that breaks it.  Scenarios draw a
view and edit it; a view is normal iff both constraints hold, and the
grammar renders it.  Each sample holds the view it was drawn as.
A scene is the record of a view that the scene file holds: its objects,
one field dict each, and its context (e.g. the text label the rope color
has to match); ``build`` makes it, for ``pipeline`` only.
Neither a view, a scene nor a task's samples hold a capture condition:
``build_task`` never sees one.  The condition reaches the views only through
the stream the pipeline names, so it changes which views are drawn but never
how a view is judged; downstream it selects the rendering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .seeding import Draws

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


class Constraint(NamedTuple):
    """One aspect of a scenario, the rule ``holds`` (True when a view
    satisfies it; an empty tray satisfies neither of a scenario's two) and
    ``breaks``, a single edit of a view, made in place, that breaks it."""

    aspect: Aspect
    holds: Callable[[Any], bool]
    breaks: Callable[[Any, Draws], None]


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: its two constraints, counts and grammar.

    ``build`` makes the scene record of a view, ``{"objects": [...],
    "context": {...}}``.  ``normal`` draws a normal view.  ``counts`` are
    the sizes of each of its tasks' splits, and ``grammar`` renders its
    view as text.
    """

    scenario_id: str
    constraints: tuple[Constraint, Constraint]
    build: Callable[[Any], dict]
    normal: Callable[[Draws], Any]
    counts: SplitCounts
    grammar: TemplateGrammar


# (first constraint holds, second holds) -> label
_LABELS = {(True, True): Label.NORMAL, (False, True): Label.SINGLE_A,
           (True, False): Label.SINGLE_B, (False, False): Label.DUAL}
# label -> the indices of the constraints it breaks
_BROKEN = {label: tuple(i for i, kept in enumerate(holds) if not kept)
           for holds, label in _LABELS.items()}


def classify(view: Any, spec: ScenarioSpec) -> Label:
    a, b = spec.constraints
    return _LABELS[a.holds(view), b.holds(view)]


def sample_anomaly(
    spec: ScenarioSpec, target: Label, rng: Draws
) -> Any:
    """Sample a view whose classification is exactly ``target``.

    Each constraint the target breaks edits a normal view once, in
    constraint order, then a classify check; rejection-sampled because a
    second edit can accidentally repair or extend the first one.
    """
    broken = _BROKEN[target]
    for _ in range(MUTATION_ATTEMPTS):
        view = spec.normal(rng)
        for i in broken:
            spec.constraints[i].breaks(view, rng)
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

    @property
    def test_groups(self) -> tuple[tuple[Label, int], ...]:
        """(label, count) of the test split, in the order it is drawn."""
        return ((Label.NORMAL, self.test_normal), (Label.SINGLE_A, self.single_a),
                (Label.SINGLE_B, self.single_b), (Label.DUAL, self.dual))

    def test_ids(self) -> list[str]:
        """The test split's sample ids, in the order ``build_task`` gives."""
        return [sample_id_for("test", label, i)
                for label, n in self.test_groups for i in range(n)]


@dataclass(frozen=True)
class TaskSample:
    sample_id: str
    split: str  # "train" | "test"
    label: Label
    view: Any


def task_id_for(scenario_id: str, condition: Condition) -> str:
    return f"{scenario_id}-{condition.value}"


def sample_id_for(split: str, label: Label, index: int) -> str:
    return f"{split}-{label.value}-{index:04d}"


def build_task(spec: ScenarioSpec, counts: SplitCounts,
               rng: Draws) -> tuple[TaskSample, ...]:
    """Generate the labelled views of one task, train samples first.

    Every view is drawn from ``rng``, train views first, so the train views
    depend only on ``counts.train_normal``: a call with the test counts set
    to zero on a stream in the same state gives the same train samples.
    """
    samples: list[TaskSample] = []

    def add(split: str, label: Label, view: Any, index: int) -> None:
        samples.append(TaskSample(sample_id_for(split, label, index), split,
                                  label, view))

    for i in range(counts.train_normal):
        add("train", Label.NORMAL, spec.normal(rng), i)
    for label, n in counts.test_groups:
        for i in range(n):
            add("test", label, spec.normal(rng) if label is Label.NORMAL
                else sample_anomaly(spec, label, rng), i)
    return tuple(samples)
