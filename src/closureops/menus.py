"""Menu preferences over subsets and their state-space representations.

A menu preference assigns an exact rational utility U(A) to every nonempty
menu A ⊆ X (a value for ∅ may be supplied but plays no mathematical role).
Two axioms make a preference a preference *for flexibility*:

* flexibility: B ⊆ A implies U(A) ≥ U(B);
* ordinal submodularity: U(A ∪ B) = U(A) implies U(A ∪ B ∪ C) = U(A ∪ C).

Under these axioms the *Kreps operator*

    f(A) = ⋃ {B : U(A ∪ B) = U(A)},        f(∅) = ∅,

is a closure operator, the preference depends only on closures
(U(A) = U(f(A)), "respects" f), indifference is exactly closure containment
(U(A ∪ B) = U(A) ⟺ f(B) ⊆ f(A)), and strictly larger closures are strictly
better.  This module decides flexibility on adjacent pairs (A, A ∪ {x}) in
the loop that builds the Kreps map g, and submodularity as the monotonicity
of g in g's one closure-axiom validation, plus, for an inflexible
preference, a test on the equal-utility supersets of each menu, made in the
pass that lists its flexibility witnesses (:func:`check_axioms`); it
enumerates complete witness lists only for an axiom that fails, builds the Kreps operator with its consequences verified,
and constructs two state-space representations:

* :func:`kreps_representation` — a minimal set of weak-order states (one per
  chain of a minimum chain cover of P(f), so exactly MNWO states) with
  state utilities U(a, s) = 1-based indifference-class index, a signature
  σ(A) = (max_{a∈A} U(a, s))_s per menu, and a strictly monotone aggregator
  ranking achieved signatures; U(A) ≥ U(B) iff rank σ(A) ≥ rank σ(B).
  Since σ(A) = σ(f(A)), σ is computed and checked on the nonempty closed
  sets alone, |S(f)| − 1 signatures rather than 2^n − 1.

* :func:`additive_representation` — for any closure operator f the preference
  respects: the superset Möbius transform of U over all menus (Yates's
  algorithm, O(n·2^n)) yields weights h with U(A) = Σ{h(B) : A ⊆ B}, and h
  vanishes off S(f) exactly when U respects f; splitting h = h⁺ − h⁻ on the
  nonempty closed sets gives 2·(|S(f)|−1) states, each carrying a closed set
  B and a per-element utility (−weight inside B, 0 outside), whose
  sum-of-maxes evaluation reproduces U exactly.  The transform runs on the
  integer keys U·L, L the lcm of the utilities' denominators, and falls
  back to the Fractions when L grows past a bound.

Utilities are compared by their dense ranks, ints that order menus exactly as
U does, built once per preference from its distinct utilities; the exact
Fractions serve arithmetic, reports and :func:`_check_ranks`.

Everything is verified at construction; verification failures for
mathematically guaranteed facts raise
:class:`~closureops.errors.WitnessVerificationFailed` (an implementation bug),
while user-facing failures raise :class:`~closureops.errors.AxiomsViolated` or
:class:`~closureops.errors.DoesNotRespect` with witnesses.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from operator import ne

from .complexity import _weak_order_witness, meet_irreducibles
from .core import MAX_RATIONAL_DIGITS, GroundSet, SubsetMask, Topology, _exact_fraction
from .core import _first_superset
from .core import _validate_images
from .errors import (
    AxiomsViolated,
    DoesNotRespect,
    GroundSetMismatch,
    WitnessVerificationFailed,
)
from .generators import WeakOrder

__all__ = [
    "MenuPreference",
    "AxiomReport",
    "KrepsRepresentation",
    "AdditiveState",
    "AdditiveRepresentation",
    "check_axioms",
    "kreps_operator",
    "respects",
    "kreps_representation",
    "additive_representation",
]


@dataclass(frozen=True, repr=False)
class MenuPreference:
    """Exact rational utilities over the nonempty menus of a ground set.

    Attributes:
        ground: the underlying ground set.
        values: utilities indexed by menu bit pattern; index 0 (the empty
            menu) holds None or a Fraction, every other index a Fraction.
    """

    ground: GroundSet
    values: tuple[Fraction | None, ...]
    _ranks: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    _levels: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.ground.full_bits + 1:
            raise ValueError("one utility required per menu")
        if not (values[0] is None or isinstance(values[0], Fraction)):
            raise ValueError("missing or inexact utility for menu ∅")
        # Each distinct object is checked once, and only the distinct
        # Fractions are hashed and sorted: menus sharing a utility object (as
        # the JSON reader builds them) cost one lookup by identity each.
        utilities = values[1:]
        objects = dict(zip(map(id, utilities), utilities))
        if not all(isinstance(value, Fraction) for value in objects.values()):
            bits = next(
                bits for bits, value in enumerate(values)
                if bits and not isinstance(value, Fraction)
            )
            raise ValueError(
                f"missing or inexact utility for menu "
                f"{self.ground.mask(bits).label()}"
            )
        # The sorted distinct utilities, and each menu's dense rank among them.
        levels = tuple(sorted(set(objects.values())))
        level = {value: i for i, value in enumerate(levels)}
        for key, value in objects.items():  # each object's rank, in place
            objects[key] = level[value]
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(
            self, "_ranks", (None, *map(objects.__getitem__, map(id, utilities)))
        )

    @classmethod
    def from_utilities(
        cls,
        ground: GroundSet,
        utilities: Mapping[SubsetMask, Fraction | int | str],
    ) -> MenuPreference:
        """Build from a mask-keyed map covering every nonempty menu, reading
        each distinct (type, raw value) once by :func:`_exact_fraction`; the
        constructor checks and ranks the values, however each is written."""
        values: list[Fraction | None] = [None] * (ground.full_bits + 1)
        parsed: dict[tuple[type, object], Fraction] = {}
        for menu, raw in utilities.items():
            if menu.ground != ground:
                raise GroundSetMismatch("menu lives in a different ground set")
            key = (type(raw), raw)
            try:
                value = parsed[key]
            except (KeyError, TypeError):  # not read yet, or unhashable
                value = parsed[key] = _exact_fraction(raw, "utility")
            values[menu.bits] = value
        return cls(ground, tuple(values))

    def utility(self, menu: SubsetMask) -> Fraction:
        if menu.ground != self.ground:
            raise GroundSetMismatch("menu lives in a different ground set")
        value = self.values[menu.bits]
        if value is None:
            raise ValueError("no utility was supplied for the empty menu")
        return value

    def weakly_prefers(self, a: SubsetMask, b: SubsetMask) -> bool:
        return self.utility(a) >= self.utility(b)

    def strictly_prefers(self, a: SubsetMask, b: SubsetMask) -> bool:
        return self.utility(a) > self.utility(b)

    def indifferent(self, a: SubsetMask, b: SubsetMask) -> bool:
        return self.utility(a) == self.utility(b)

    def __repr__(self) -> str:
        return (
            f"MenuPreference({2 ** self.ground.size - 1} menus on "
            f"{{{','.join(self.ground.elements)}}})"
        )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the two menu axioms, with complete witness lists.

    Witnesses only: the Kreps map the deciding pass validates goes to
    :func:`kreps_operator` from the private call that makes the report.

    Attributes:
        flexibility_witnesses: pairs (A, B) with B ⊆ A but U(B) > U(A).
        submodularity_witnesses: triples (A, B, C) with U(A ∪ B) = U(A) but
            U(A ∪ B ∪ C) ≠ U(A ∪ C).
    """

    flexibility_witnesses: tuple[tuple[SubsetMask, SubsetMask], ...]
    submodularity_witnesses: tuple[tuple[SubsetMask, SubsetMask, SubsetMask], ...]

    @property
    def flexibility_ok(self) -> bool:
        return not self.flexibility_witnesses

    @property
    def submodularity_ok(self) -> bool:
        return not self.submodularity_witnesses

    @property
    def ok(self) -> bool:
        return self.flexibility_ok and self.submodularity_ok

    def summary(self) -> list[str]:
        lines: list[str] = []
        if self.flexibility_witnesses:
            a, b = self.flexibility_witnesses[0]
            lines.append(
                f"flexibility fails on {len(self.flexibility_witnesses)} pair(s), "
                f"e.g. U({b.label()}) > U({a.label()}) despite {b.label()} ⊆ {a.label()}"
            )
        if self.submodularity_witnesses:
            a, b, c = self.submodularity_witnesses[0]
            lines.append(
                f"ordinal submodularity fails on "
                f"{len(self.submodularity_witnesses)} triple(s), e.g. "
                f"(A,B,C)=({a.label()},{b.label()},{c.label()})"
            )
        if not lines:
            lines.append("both menu axioms hold")
        return lines


def _adjacent_pass(ranks: tuple, size: int) -> tuple[bool, list[int]]:
    """Decide flexibility on adjacent pairs (A, A ∪ {x}), A nonempty, x ∉ A,
    and build the Kreps map g(A) = {x : U(A ∪ {x}) = U(A)} in the same loop.

    Returns (flexible, g).  Flexibility holds iff U(A ∪ {x}) ≥ U(A) on every
    adjacent pair, since any B ⊆ A is joined to A by a chain of adjacent
    pairs.
    """
    full = (1 << size) - 1
    singles = [1 << i for i in range(size)]
    images = [0] * (full + 1)
    flexible = True
    for a in range(1, full + 1):
        u = ranks[a]
        image = a
        for x in singles:
            if not a & x:
                v = ranks[a | x]
                if v == u:
                    image |= x
                elif v < u:
                    flexible = False
        images[a] = image
    return flexible, images


def _submenu_pass(
    ranks: tuple, images: list[int], masks: list[SubsetMask]
) -> tuple[list[tuple[SubsetMask, SubsetMask]], bool]:
    """One pass over the pairs B ⊊ A of nonempty menus, g given by its
    images.  Returns the flexibility witnesses, the pairs (A, B) with
    U(B) > U(A), A ascending, then B descending; and whether A ⊆ g(B) on
    every pair with U(A) = U(B), condition (ii) of :func:`check_axioms`."""
    witnesses = []
    inside = True
    for a in range(1, len(ranks)):
        u = ranks[a]
        b = (a - 1) & a
        while b:
            v = ranks[b]
            if v > u:
                witnesses.append((masks[a], masks[b]))
            elif v == u and a & ~images[b]:
                inside = False
            b = (b - 1) & a
    return witnesses, inside


def _submodularity_witnesses(
    ranks: tuple, masks: list[SubsetMask]
) -> list[tuple[SubsetMask, SubsetMask, SubsetMask]]:
    """Every triple (A, B, C) with U(A ∪ B) = U(A) but U(A ∪ B ∪ C) ≠ U(A ∪ C),
    in (A, B, C)-lexicographic order.

    The C-list of (A, B) depends only on A and A ∪ B, so it is built once per
    distinct union and shared by every B with that union; B ⊆ A is skipped
    because its list is empty.
    """
    size = len(ranks)
    witnesses = []
    for a in range(1, size):
        u = ranks[a]
        lists: dict[int, list[SubsetMask]] = {}
        for b in range(size):
            union = a | b
            if union == a or ranks[union] != u:
                continue
            c_list = lists.get(union)
            if c_list is None:
                c_list = lists[union] = [
                    masks[c] for c in range(size) if ranks[union | c] != ranks[a | c]
                ]
            mask_a, mask_b = masks[a], masks[b]
            witnesses.extend((mask_a, mask_b, mask_c) for mask_c in c_list)
    return witnesses


def check_axioms(preference: MenuPreference) -> AxiomReport:
    """Check flexibility and ordinal submodularity, with complete witnesses.

    Flexibility is decided in O(n·2^n) on adjacent pairs, by the loop that
    also builds the Kreps map g (see :func:`_adjacent_pass`).  Ordinal
    submodularity holds iff (i) g is monotone, which
    :func:`~closureops.core._validate_images` decides on g's bit-planes in
    O(n²) word operations, and (ii) every menu D ⊇ A with U(D) = U(A) lies
    inside g(A):

    * necessity: the axiom with B = {x}, C = {y} turns x ∈ g(A) into
      U(A ∪ {x, y}) = U(A ∪ {y}), so x ∈ g(A ∪ {y}); g is monotone on
      adjacent pairs, hence along any chain of them, which is (i).  With
      B = D ∖ A and C = {y}, y ∈ D ∖ A, it turns U(D) = U(A) into
      U(A ∪ {y}) = U(D) = U(A), so y ∈ g(A), which is (ii);
    * sufficiency: if U(A ∪ B) = U(A), (ii) puts B in g(A), and (i) puts it
      in g(M) for every M ⊇ A ∪ C.  Adding the elements of B to A ∪ C one
      at a time then never changes U (each lies in g of the current menu),
      so U(A ∪ B ∪ C) = U(A ∪ C).

    Under flexibility (ii) holds with no scan, by the sandwich
    U(A) ≤ U(A ∪ {y}) ≤ U(D) = U(A) for y ∈ D ∖ A; for an inflexible
    preference it is read in the 3^n pass over the pairs A ⊊ D that lists
    the flexibility witnesses (:func:`_submenu_pass`), at no pass of its own.

    When both axioms hold, g is a closure operator: g(∅) = ∅ and A ⊆ g(A)
    by construction, and U(g(A)) = U(A) by the same one-at-a-time argument,
    so y ∈ g(g(A)) gives U(A) ≤ U(A ∪ {y}) ≤ U(g(A) ∪ {y}) = U(A) and
    y ∈ g(A).  The same validation report's extensivity, idempotence and
    f(∅) = ∅ are g's self-check, a failure raising
    :class:`WitnessVerificationFailed`.

    Witness lists are enumerated over 2^X only for an axiom found failing.
    g goes to :func:`kreps_operator`, not into the report
    (:func:`_decide_axioms`).
    """
    return _decide_axioms(preference)[0]


def _decide_axioms(preference: MenuPreference) -> tuple[AxiomReport, tuple | None]:
    """The :class:`AxiomReport` of :func:`check_axioms` and, when both axioms
    hold, the Kreps map g it validated, by menu bit pattern (None otherwise)."""
    ground = preference.ground
    ranks = preference._ranks
    flexible, images = _adjacent_pass(ranks, ground.size)
    validation = _validate_images(ground, images)
    if flexible and not validation.monotonicity:
        if not validation.ok:
            raise WitnessVerificationFailed(
                "Kreps construction produced a non-closure: "
                + "; ".join(validation.summary())
            )
        return AxiomReport((), ()), tuple(images)
    masks = [ground.mask(bits) for bits in range(len(ranks))]
    flexibility, inside = (
        ([], True) if flexible else _submenu_pass(ranks, images, masks)
    )
    submodular = inside and not validation.monotonicity
    return AxiomReport(
        flexibility_witnesses=tuple(flexibility),
        submodularity_witnesses=(
            () if submodular else tuple(_submodularity_witnesses(ranks, masks))
        ),
    ), None


def _unfaithful(ranks: tuple, images: tuple[int, ...]) -> int | None:
    """The first nonempty menu A with U(f(A)) ≠ U(A), f given by its images
    with f(∅) = ∅, or None if U respects f."""
    return next(
        compress(count(), map(ne, ranks, map(ranks.__getitem__, images))), None
    )


def kreps_operator(preference: MenuPreference) -> Topology:
    """The closure operator f(A) = ⋃{B : U(A ∪ B) = U(A)} of a preference.

    Requires the axioms (:class:`AxiomsViolated` otherwise, with the full
    report).  Under them, flexibility collapses the union to a per-element
    test — x ∈ f(A) iff U(A ∪ {x}) = U(A) — so f is the Kreps map that
    :func:`_decide_axioms` built and validated as a closure operator.  Checked
    here are respect, U(A) = U(f(A)) (:func:`_unfaithful`), and strict
    increase on the adjacent closed steps, U(S ∪ {x}) > U(S) for nonempty
    closed S and x ∉ S.  That proves the rest, f being a closure operator:

    * strict increase: if f(B) ⊊ f(A), the chain S₀ = f(B),
      Sᵢ₊₁ = f(Sᵢ ∪ {xᵢ}) with xᵢ ∈ f(A) ∖ Sᵢ climbs strictly inside f(A)
      to f(A), each step raising U (U(Sᵢ₊₁) = U(Sᵢ ∪ {xᵢ}) by respect), so
      U(A) = U(f(A)) > U(f(B)) = U(B);
    * indifference ⟸: f(B) ⊆ f(A) gives f(A ∪ B) = f(f(A) ∪ f(B)) = f(A),
      so U(A ∪ B) = U(A) by respect;
    * indifference ⟹: if f(B) ⊄ f(A) then B ⊄ f(A), so f(A) ⊊ f(A ∪ B) and
      U(A ∪ B) > U(A) by strict increase.

    Raises :class:`WitnessVerificationFailed` if a checked fact fails.
    """
    report, images = _decide_axioms(preference)
    if images is None:
        raise AxiomsViolated(report)
    ranks = preference._ranks
    if _unfaithful(ranks, images) is not None:
        raise WitnessVerificationFailed(
            "preference does not respect its own Kreps operator"
        )
    f = Topology._trusted(preference.ground, images)
    singles = [1 << i for i in range(preference.ground.size)]
    if any(ranks[c | x] <= ranks[c] for c in f.bits[1:] for x in singles if not c & x):
        raise WitnessVerificationFailed(
            "strictly larger closure is not strictly preferred"
        )
    return f


def respects(
    preference: MenuPreference, f: Topology
) -> tuple[bool, SubsetMask | None]:
    """Whether U(A) = U(f(A)) for every nonempty menu; the first menu where
    it fails as witness (see :func:`_unfaithful`)."""
    if preference.ground != f.ground:
        raise GroundSetMismatch("preference and operator use different ground sets")
    bits = _unfaithful(preference._ranks, f.tabulate_bits())
    return (True, None) if bits is None else (False, preference.ground.mask(bits))


def _signature(chains: list[tuple[int, ...]], bits: int) -> tuple[int, ...]:
    """σ(A) of a nonempty menu: per chain, the index of its first link holding
    A, which is the 1-based class index of A's best element in that state."""
    return tuple(chain.index(_first_superset(chain, bits)) for chain in chains)


@dataclass(frozen=True)
class KrepsRepresentation:
    """A minimal weak-order state space representing a menu preference.

    Each state s is a weak order with utilities U(a, s) = 1-based class index
    (worst class = 1).  A menu's signature σ(A) collects max_{a∈A} U(a, s)
    per state; menus share a signature iff they share a closure, and the
    aggregator ranks achieved signatures so that
    U(A) ≥ U(B) ⟺ rank σ(A) ≥ rank σ(B), strictly increasing in the
    product order on achieved signatures.  The achieved signatures are those
    of the nonempty closed sets, one each, as σ(A) = σ(f(A)).

    Attributes:
        ground: the underlying ground set.
        states: the weak-order states (exactly MNWO of the Kreps operator).
        ranks: achieved signatures → dense 1-based rank.
    """

    ground: GroundSet
    states: tuple[WeakOrder, ...]
    ranks: dict[tuple[int, ...], int]

    @property
    def state_count(self) -> int:
        return len(self.states)

    def state_utility(self, element: str, state: int) -> int:
        """U(element, state): the 1-based indifference-class index."""
        return self.states[state].class_index(element) + 1

    def signature(self, menu: SubsetMask) -> tuple[int, ...]:
        """σ(A) = (max_{a∈A} U(a, s))_s, per state the index of the first link
        of its (nested) chain holding A; requires a nonempty menu."""
        if menu.ground != self.ground:
            raise GroundSetMismatch("menu lives in a different ground set")
        if not menu:
            raise ValueError("the empty menu has no signature")
        return _signature([state.bits for state in self.states], menu.bits)

    def evaluate(self, menu: SubsetMask) -> int:
        """The rank of the menu's signature (a utility representing ⊵)."""
        return self.ranks[self.signature(menu)]


def _check_ranks(
    by_signature: dict[tuple[int, ...], Fraction], ranks: dict[tuple[int, ...], int]
) -> None:
    """Verify rank σ(A) ≥ rank σ(B) ⟺ U(A) ≥ U(B): along the signatures
    sorted by utility, the rank must rise exactly where the utility rises,
    which makes it a strictly increasing function of the utility."""
    ordered = sorted(by_signature.items(), key=lambda item: item[1])
    for (low_sig, low_value), (high_sig, high_value) in zip(ordered, ordered[1:]):
        low, high = ranks[low_sig], ranks[high_sig]
        if not ((low < high) if low_value < high_value else (low == high)):
            raise WitnessVerificationFailed("ranking does not represent ⊵")


def kreps_representation(preference: MenuPreference) -> KrepsRepresentation:
    """Build the minimal weak-order representation of an axiom-satisfying
    preference; see :class:`KrepsRepresentation`.

    States are the verified weak-order witness of the Kreps operator, built
    by the weak-order stage of its complexity profile alone, so the state
    count is exactly MNWO.  σ is computed and checked on the nonempty
    closed sets only, since the checks that already ran prove the rest:

    * σ(A) = σ(f(A)): the weak-order stage's generation check gives
      f = ⋂_s g_s, so A ⊆ f(A) ⊆ g_s(A) and g_s(f(A)) = g_s(A) per state s;
    * σ is injective on S(f), as C = ⋂_s g_s(C) for closed C; this is
      re-checked here as |S(f)| − 1 distinct signatures;
    * so menus sharing a signature share a closure, hence a utility, by
      respect; and σ(D) ≤ σ(C) gives D = ⋂_s g_s(D) ⊆ ⋂_s g_s(C) = C, so a
      strictly larger achieved signature is strictly preferred.  Respect and
      that strict increase are verified in :func:`kreps_operator`.

    Faithfulness of the ranking is verified by :func:`_check_ranks`.
    """
    f = kreps_operator(preference)
    states, _ = _weak_order_witness(meet_irreducibles(f))
    chains = [state.bits for state in states]
    # σ of each nonempty closed set
    signatures = {c: _signature(chains, c) for c in f.bits[1:]}
    rank_of, values = preference._ranks, preference.values
    ranks = {sig: rank_of[c] + 1 for c, sig in signatures.items()}
    if len(ranks) != len(signatures):
        raise WitnessVerificationFailed("signatures do not separate closures")
    _check_ranks({sig: values[c] for c, sig in signatures.items()}, ranks)
    return KrepsRepresentation(ground=preference.ground, states=states, ranks=ranks)


@dataclass(frozen=True)
class AdditiveState:
    """One state of an additive representation.

    Attributes:
        name: the state label (``p<i>`` for positive, ``n<i>`` for negative).
        carrier: the closed set B behind the state.
        weight: the nonnegative Möbius weight (h⁻(B) on positive states,
            h⁺(B) on negative ones).
    """

    name: str
    carrier: SubsetMask
    weight: Fraction

    def utility(self, element: str) -> Fraction:
        """U(element, state) = −weight inside the carrier, 0 outside."""
        return -self.weight if element in self.carrier else Fraction(0)


@dataclass(frozen=True)
class AdditiveRepresentation:
    """A sum-of-maxes additive state representation with exact weights.

    Evaluation reproduces the source utility exactly:

        U(A) = Σ_{s positive} max_{a∈A} U(a, s) − Σ_{s negative} max_{a∈A} U(a, s).

    There is one positive and one negative state per nonempty closed set of
    the operator used to build the representation (zero-weight states are
    kept, so the count is exactly 2·(|S(f)|−1)).

    Attributes:
        ground: the underlying ground set.
        positive_states: states entering the sum with +.
        negative_states: states entering the sum with −.
    """

    ground: GroundSet
    positive_states: tuple[AdditiveState, ...]
    negative_states: tuple[AdditiveState, ...]

    @property
    def state_count(self) -> int:
        return len(self.positive_states) + len(self.negative_states)

    def evaluate(self, menu: SubsetMask) -> Fraction:
        """Literal sum-of-maxes evaluation; requires a nonempty menu."""
        if menu.ground != self.ground:
            raise GroundSetMismatch("menu lives in a different ground set")
        if not menu:
            raise ValueError("the empty menu is outside the representation")
        members = [i for i in range(self.ground.size) if menu.bits >> i & 1]
        zero = Fraction(0)

        def best(state: AdditiveState) -> Fraction:
            # max over the members of U(a, s): −weight inside the carrier, 0 outside
            inside, outside = -state.weight, zero
            carrier = state.carrier.bits
            return max(inside if carrier >> i & 1 else outside for i in members)

        total = zero
        for state in self.positive_states:
            total += best(state)
        for state in self.negative_states:
            total -= best(state)
        return total


def _superset_transform(values: list, *, inverse: bool) -> list:
    """The superset zeta transform A ↦ Σ{values[B] : A ⊆ B}, or with
    ``inverse`` its Möbius inverse, in place over all 2^n menus: one pass per
    element (Yates), skipping zero terms.  The values are ints or Fractions."""
    step = 1
    while step < len(values):
        for block in range(0, len(values), 2 * step):
            for a in range(block, block + step):
                term = values[a + step]
                if term:
                    values[a] = values[a] - term if inverse else values[a] + term
        step *= 2
    return values


def _utility_keys(preference: MenuPreference) -> tuple[list, int]:
    """The keys U(A)·L by menu bit pattern (0 for ∅) and the scale L.

    L is the lcm of the denominators of the distinct utilities, so every key
    is an int, one per distinct utility, spread to the menus by their ranks.
    If L would exceed 10^MAX_RATIONAL_DIGITS, the largest denominator of one
    accepted rational string (:data:`~closureops.core.MAX_RATIONAL_DIGITS`),
    the keys are the Fractions themselves and L = 1: many distinct
    denominators must not make the integers grow without bound.
    """
    levels = preference._levels
    bound = 10**MAX_RATIONAL_DIGITS
    scale = 1
    for value in levels:
        scale = math.lcm(scale, value.denominator)
        if scale > bound:
            keys, scale = levels, 1
            break
    else:
        keys = tuple(value.numerator * (scale // value.denominator) for value in levels)
    return [0, *map(keys.__getitem__, preference._ranks[1:])], scale


def _scaled(weight: Fraction, scale: int) -> int | Fraction:
    """weight·scale, as an int when it is one."""
    quotient, remainder = divmod(scale, weight.denominator)
    return weight * scale if remainder else weight.numerator * quotient


def _check_additive_states(
    ground: GroundSet,
    keys: list,
    scale: int,
    positive: list[AdditiveState],
    negative: list[AdditiveState],
) -> None:
    """Verify that the states' sum-of-maxes evaluation equals U on every
    nonempty menu, in O(n·2^n), on the keys U·L of :func:`_utility_keys`.
    A state with carrier B and weight w ≥ 0 has max_{a∈A} U(a, s) = −w if
    A ⊆ B and 0 otherwise, so the evaluation of A, times L, is the superset
    sum at A of the net weights (negative minus positive) times L.  Each
    weight is read from its state, so the check does not rely on the
    inversion that produced it."""
    nets: list = [0] * (ground.full_bits + 1)
    for state in positive:
        nets[state.carrier.bits] -= _scaled(state.weight, scale)
    for state in negative:
        nets[state.carrier.bits] += _scaled(state.weight, scale)
    evaluated = _superset_transform(nets, inverse=False)
    if evaluated[1:] != keys[1:]:
        bits = next(b for b in range(1, len(keys)) if evaluated[b] != keys[b])
        raise WitnessVerificationFailed(
            f"additive evaluation differs from U at {ground.mask(bits).label()}"
        )


def additive_representation(
    preference: MenuPreference, f: Topology
) -> AdditiveRepresentation:
    """Additive states for a preference that respects f; see
    :class:`AdditiveRepresentation`.

    The weights h are the superset Möbius transform of U (U(∅) taken as 0),
    so U(A) = Σ{h(B) : A ⊆ B} for every nonempty A; n·2^(n−1) subtractions,
    run on the integer keys U·L of :func:`_utility_keys` and divided by L
    only for the weights reported.  h vanishes on the nonempty menus outside
    S(f) iff U respects f.  If U respects f, U(A) = U(f(A)) sums the Möbius
    weights over the closed sets B ⊇ f(A), which are the closed B ⊇ A, so by
    uniqueness of the transform those weights are h.  Conversely, if h
    vanishes off S(f), U(A) sums h over the closed B ⊇ A, which are the
    closed B ⊇ f(A), and equals U(f(A)).  Otherwise :class:`DoesNotRespect`
    names the witness :func:`respects` finds.  The finished states are
    verified against U on every nonempty menu by
    :func:`_check_additive_states`.
    """
    if preference.ground != f.ground:
        raise GroundSetMismatch("preference and operator use different ground sets")
    ground = preference.ground
    keys, scale = _utility_keys(preference)
    weights = _superset_transform(list(keys), inverse=True)
    if any(
        weights[bits] and not f.contains_bits(bits)
        for bits in range(1, ground.full_bits + 1)
    ):
        ok, witness = respects(preference, f)
        if ok:
            raise WitnessVerificationFailed("weights off S(f) although U respects f")
        raise DoesNotRespect(witness)
    zero = Fraction(0)
    positive = []
    negative = []
    for i, m in enumerate(f.closed[1:]):  # the nonempty closed sets
        h = weights[m.bits]
        positive.append(
            AdditiveState(f"p{i + 1}", m, Fraction(-h, scale) if h < 0 else zero)
        )
        negative.append(
            AdditiveState(f"n{i + 1}", m, Fraction(h, scale) if h > 0 else zero)
        )
    _check_additive_states(ground, keys, scale, positive, negative)
    return AdditiveRepresentation(
        ground=ground,
        positive_states=tuple(positive),
        negative_states=tuple(negative),
    )
