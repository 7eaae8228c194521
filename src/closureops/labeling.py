"""Labeling correspondences and the classifiers they induce.

A labeling assigns each element x a set of labels Φ(x) ⊆ L.  It classifies a
nonempty menu A by the labels common to all of A:

    f(A) = {x : ⋂_{y ∈ A} Φ(y) ⊆ Φ(x)},       f(∅) = ∅ by definition.

With the label extents E_l = {y : l ∈ Φ(y)} this is f(A) = ⋂{E_l : A ⊆ E_l},
so f is always a closure operator, the intersection of the binary classifiers
its extents cut.  Conversely every closure operator arises this way, and this
module builds two standard witnesses:

* :func:`canonical_labeling` — one label per nonempty closed set, with
  Φ(x) = {closed sets containing x}.  Label names are ``Class<i>`` with classes
  numbered in canonical (ascending mask) order.

* :func:`minimal_labeling` — one label per member of B(f), the proper
  meet-irreducible closed sets; no labeling with fewer labels can induce f, so
  the label count equals the binary-classifier complexity MNBC.  Label names
  spell out the subset (``{a,b}``), or its JSON member array if commas in
  element names make two such names equal, so outputs are self-describing.

Elements with Φ(x) = ∅ are permitted; the formula is applied literally, so such
an x belongs exactly to the classes whose common-label set is empty.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .core import GroundSet, Topology, _meet_images
from .complexity import meet_irreducibles

__all__ = [
    "Labeling",
    "canonical_labeling",
    "minimal_labeling",
]


@dataclass(frozen=True, repr=False)
class Labeling:
    """A labeling correspondence Φ: X → 2^L over named labels.

    Attributes:
        ground: the underlying ground set.
        labels: all label names, in a fixed order (distinct, nonempty).
        phi: per element (in ground order), the indices of its labels.
    """

    ground: GroundSet
    labels: tuple[str, ...]
    phi: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "phi", tuple(frozenset(s) for s in self.phi))
        seen = set()
        for name in self.labels:
            if not isinstance(name, str) or not name:
                raise ValueError(f"label names must be nonempty strings, got {name!r}")
            if name in seen:
                raise ValueError(f"duplicate label name {name!r}")
            seen.add(name)
        if len(self.phi) != self.ground.size:
            raise ValueError("phi must assign a label set to every element")
        for labels in self.phi:
            for i in labels:
                if not 0 <= i < len(self.labels):
                    raise ValueError(f"label index {i} out of range")

    @classmethod
    def from_names(
        cls,
        ground: GroundSet,
        labels: Iterable[str],
        phi: Mapping[str, Iterable[str]],
    ) -> Labeling:
        """Build from label names: ``phi`` maps each element to its labels
        (:class:`~closureops.errors.ForeignMask` for a key outside the
        ground set)."""
        for element in phi:
            ground.index(element)
        labels = tuple(labels)
        index = {name: i for i, name in enumerate(labels)}
        sets = []
        for element in ground:
            if element not in phi:
                raise ValueError(f"no label set given for element {element!r}")
            chosen = set()
            for name in phi[element]:
                if name not in index:
                    raise ValueError(f"unknown label {name!r} for element {element!r}")
                chosen.add(index[name])
            sets.append(frozenset(chosen))
        return cls(ground, labels, tuple(sets))

    def label_set(self, element: str) -> tuple[str, ...]:
        """The labels of one element, in label order."""
        indices = self.phi[self.ground.index(element)]
        return tuple(name for i, name in enumerate(self.labels) if i in indices)

    def classifier(self) -> Topology:
        """The closure operator induced by this labeling: common(A) is
        {l : A ⊆ E_l}, so x ∈ f(A) iff x lies in every extent holding A, and
        f is the meet images of the extents
        (:func:`~closureops.core._meet_images`)."""
        extents = [0] * len(self.labels)
        for i, indices in enumerate(self.phi):
            for j in indices:
                extents[j] |= 1 << i
        ground = self.ground
        return Topology._trusted(ground, _meet_images(ground.size, extents))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{element}:{{{','.join(self.label_set(element))}}}"
            for element in self.ground
        )
        return f"Labeling({parts})"


def canonical_labeling(f: Topology) -> Labeling:
    """One label per nonempty closed set; Φ(x) = {classes containing x}.

    Label names are ``Class1`` … ``ClassN`` for the nonempty closed sets in
    canonical (ascending mask) order.  The induced classifier always equals f.
    """
    ground = f.ground
    classes = f.bits[1:]  # the nonempty closed sets
    labels = tuple(f"Class{i + 1}" for i in range(len(classes)))
    phi = tuple(
        frozenset(i for i, c in enumerate(classes) if c >> e & 1)
        for e in range(ground.size)
    )
    return Labeling(ground, labels, phi)


def minimal_labeling(f: Topology) -> Labeling:
    """A smallest labeling inducing f: one label per member of B(f).

    Label names spell out the member subset, e.g. ``{a,b}``.  The label count
    equals MNBC; in particular the trivial operator gets zero labels.
    """
    ground = f.ground
    members = meet_irreducibles(f).b_of_f
    labels = tuple(m.label() for m in members)
    if len(set(labels)) < len(labels):
        labels = tuple(json.dumps(m.members(), ensure_ascii=False) for m in members)
    phi = tuple(
        frozenset(i for i, c in enumerate(members) if c.bits >> e & 1)
        for e in range(ground.size)
    )
    return Labeling(ground, labels, phi)
