"""Labeling correspondences and the classifiers they induce.

A labeling assigns each element x a set of labels Φ(x) ⊆ L.  It classifies a
nonempty menu A by the labels common to all of A:

    f(A) = {x : ⋂_{y ∈ A} Φ(y) ⊆ Φ(x)},       f(∅) = ∅ by definition,

which is always a closure operator.  Conversely every closure operator arises
this way, and this module builds two standard witnesses:

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

from .core import GroundSet, Topology
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
        """Build from label names: ``phi`` maps each element to its labels."""
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
        """The closure operator induced by this labeling.

        The common labels of a nonempty A are built from those of A minus its
        lowest element x: common(A) = common(A ∖ {x}) ∩ Φ(x), with
        common(∅) = L.  Each distinct common-label set is turned into its
        extent {y : common ⊆ Φ(y)} once.
        """
        ground = self.ground
        label_bits = [0] * ground.size
        for i, indices in enumerate(self.phi):
            for j in indices:
                label_bits[i] |= 1 << j
        size = ground.full_bits + 1
        common = [(1 << len(self.labels)) - 1] * size
        images = [0] * size
        extents: dict[int, int] = {}
        for bits in range(1, size):
            low = bits & -bits
            labels = common[bits ^ low] & label_bits[low.bit_length() - 1]
            common[bits] = labels
            image = extents.get(labels)
            if image is None:
                image = 0
                for i, row in enumerate(label_bits):
                    if labels & ~row == 0:
                        image |= 1 << i
                extents[labels] = image
            images[bits] = image
        return Topology._trusted(ground, tuple(images))

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
