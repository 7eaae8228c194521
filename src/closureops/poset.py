"""Finite posets: Hasse diagrams, minimum chain covers, Möbius inversion.

The poset algorithms back the complexity measures (width of a family of
subsets under inclusion, computed through a minimum chain cover) and the
``hasse`` and ``mobius`` reports on a closed-set lattice; zeta sums and Möbius
inversion over an arbitrary finite order are exact, in rational arithmetic.
(Additive menu representations need these only over the Boolean lattice of
all menus, where :mod:`closureops.menus` runs Yates's transform instead.)
Everything is deterministic: items keep their construction order, algorithms
scan neighbors in that order, and all outputs are canonically sorted, so
equal inputs produce byte-equal outputs.

Internally a poset over n items stores one n-bit row per item (``up[i]`` has
bit j set iff item i ≤ item j), which keeps the O(n²)–O(n³) algorithms here in
cheap word operations.  A poset also keeps each item's upper covers, as index
lists, built when first read.  The Hasse diagram reads them.
:mod:`closureops.complexity` needs no order object: where P(f) or the
profile reads the covers of S(f), it walks them (:func:`_walked_covers`) on
the inclusion rows of S(f) (:func:`_inclusion_rows`) directly.  Nothing
outside this module computes covers.  There are two kinds of order, and which route runs:

* A :class:`FinitePoset` holds the rows it is given.  ``FinitePoset(items,
  up)`` from user data validates the order axioms eagerly, so malformed
  relations never reach the algorithms; :meth:`FinitePoset.from_masks`
  builds an inclusion order, which is an order by construction, so it skips
  those checks (a repeated subset is still rejected).  Its covers are walked
  on the rows (:func:`_walked_covers`), and only if something reads them: the
  lowest remaining item above is picked, and the items above the pick are
  dropped.  The walk is exact in any item order, and takes one step per
  cover when ascending index extends the order.  Its Möbius rows come from
  the interval loop (:func:`_interval_rows`).
* :meth:`FinitePoset.from_topology` returns a :class:`_ClosedSetOrder`, which
  keeps the closure operator and builds its items, rows and covers each at
  most once, when first read: the items are masks of the closed sets, and
  the rows take |S|² bits, 512 MB for the discrete family on 16 elements.
  Its covers are swept from the image table, about n steps per closed set
  (:func:`_swept_covers`), with no rows, or walked on the rows, one step
  per cover, since the canonical order of S(f) extends inclusion; the Hasse
  row of the table in :mod:`closureops._words` says which.  Only ``hasse``
  and API callers read swept covers.  Only this order compares by its
  topology and walks its Möbius rows.

A minimum chain cover is one function of items and int rows,
:func:`_matched_cover`, which :mod:`closureops.complexity` calls on P(f)
and S(f) with no poset object around them.

The Möbius function of S = S(f) is walked row by row
(:meth:`_ClosedSetOrder.mobius_walk`): per closed A, the closed C ⊇ A and
the few entries where μ(A, C) is not the sign (−1)^|C∖A|.  The ``mobius``
report is written from the walk, and the closed-set order's ``mobius``
builds the dict rows of a :class:`MobiusTable` from it for API callers.  The
walk reads the image table by Rota's closure theorem (:func:`_rota_walk`),
which builds neither the rows nor the covers, or sums μ over every interval
on the rows (:func:`_interval_rows`), as
:func:`~closureops._words._mobius_route` chooses.

The zeta sums and the inversion read the rows and the Möbius rows, one step
per comparable pair.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress

from ._words import _mobius_route
from .core import SubsetMask, Topology
from .errors import GroundSetMismatch, InvalidOrderRelation, WitnessVerificationFailed

__all__ = [
    "FinitePoset",
    "ChainCover",
    "MobiusTable",
    "to_dot",
]


@dataclass(frozen=True)
class ChainCover:
    """A minimum chain cover of a poset, with a maximum antichain as certificate.

    Dilworth's theorem says the minimum number of chains covering a poset
    equals the maximum size of an antichain; construction enforces
    ``len(chains) == len(antichain)``, so every instance carries its own proof
    of optimality.

    Attributes:
        chains: disjoint covering chains, each strictly increasing; ordered by
            the position of their minimal item in the poset's item order.
        antichain: a maximum antichain, in item order.
    """

    chains: tuple[tuple[Hashable, ...], ...]
    antichain: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.chains) != len(self.antichain):
            raise WitnessVerificationFailed(
                "chain cover and antichain certificate disagree "
                f"({len(self.chains)} chains vs {len(self.antichain)} antichain items)"
            )

    @property
    def width(self) -> int:
        return len(self.chains)


@dataclass(frozen=True)
class MobiusTable:
    """The Möbius function of a finite poset, as exact integers, row by row.

    μ is defined by μ(x, x) = 1 and μ(x, y) = −Σ_{x ≤ z < y} μ(x, z) for
    x < y; by convention :meth:`mu` returns 0 for incomparable pairs.  Row i
    holds μ(i, j) for every item j ≥ item i, zeros included, in ascending j,
    so the rows list exactly the comparable pairs in item order.
    :meth:`FinitePoset.mobius` fills them, for API callers: the ``mobius``
    report is written from the closed-set order's
    :meth:`~_ClosedSetOrder.mobius_walk` and builds no table.  :meth:`mu`
    and :meth:`pairs` read the rows alone, never the poset's order rows.

    Attributes:
        poset: the poset the table belongs to.
        rows: per item index i, a dict from index j to μ(i, j) over the items
            j ≥ i, in ascending j.
    """

    poset: FinitePoset
    rows: tuple[dict[int, int], ...] = field(repr=False, compare=False)

    def mu(self, x: Hashable, y: Hashable) -> int:
        return self.rows[self.poset.index(x)].get(self.poset.index(y), 0)

    def pairs(self) -> Iterable[tuple[Hashable, Hashable, int]]:
        """All comparable pairs (x, y, μ(x, y)) in item order."""
        items = self.poset.items
        for x, row in zip(items, self.rows):
            for j, value in row.items():
                yield x, items[j], value


@dataclass(frozen=True, repr=False, eq=False)
class FinitePoset:
    """An immutable finite partially ordered set over hashable items.

    A poset holds its given rows, and walks its covers on them when they
    are first read.  :meth:`from_topology` returns the other kind of order,
    the inclusion order on a topology's closed sets, which builds its items,
    rows and covers from the topology on first read and adds
    ``mobius_walk``.  Two posets are equal when their items and rows are;
    two built by :meth:`from_topology` compare their topologies instead, so
    neither builds its |S|² rows.  The hash reads the items alone.

    Attributes:
        items: the items, in construction order (used for all tie-breaking).
        up: per item i, a bitmask over item indices j with item i ≤ item j.
    """

    items: tuple[Hashable, ...]
    up: tuple[int, ...]
    _index: dict[Hashable, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "up", tuple(self.up))
        object.__setattr__(self, "_index", _index_of(items))
        n = len(items)
        if len(self.up) != n:
            raise InvalidOrderRelation("one relation row required per item")
        for i in range(n):
            if self.up[i] >> n:
                raise InvalidOrderRelation("relation row refers to unknown items")
            if not self.up[i] >> i & 1:
                raise InvalidOrderRelation(f"reflexivity fails at {items[i]!r}")
        for i in range(n):
            row = self.up[i]
            rest = row & ~(1 << i)
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if self.up[j] >> i & 1:
                    raise InvalidOrderRelation(
                        f"antisymmetry fails at ({items[i]!r}, {items[j]!r})"
                    )
                if self.up[j] & ~row:
                    k = ((self.up[j] & ~row) & -(self.up[j] & ~row)).bit_length() - 1
                    raise InvalidOrderRelation(
                        f"transitivity fails: {items[i]!r} ≤ {items[j]!r} ≤ "
                        f"{items[k]!r} but not {items[i]!r} ≤ {items[k]!r}"
                    )

    @classmethod
    def _trusted(cls, items: tuple[Hashable, ...], up: tuple[int, ...]) -> FinitePoset:
        """An order on distinct items known to be one (inclusion, or the
        reverse of a checked order), built without the order checks."""
        poset = object.__new__(cls)
        object.__setattr__(poset, "items", items)
        object.__setattr__(poset, "up", up)
        object.__setattr__(poset, "_index", _index_of(items))
        return poset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return (self.items, self.up) == (other.items, other.up)

    def __hash__(self) -> int:
        return hash(self.items)

    @cached_property
    def _covers(self) -> tuple[tuple[int, ...], ...]:
        return _walked_covers(self.up)

    @classmethod
    def from_masks(cls, masks: Sequence[SubsetMask]) -> FinitePoset:
        """The inclusion order on a family of subsets (kept in given order).

        Raises :class:`GroundSetMismatch` unless all subsets share one ground
        set, and :class:`InvalidOrderRelation` if a subset repeats.
        """
        masks = tuple(masks)
        if any(mask.ground != masks[0].ground for mask in masks):
            raise GroundSetMismatch("subsets live in different ground sets")
        return cls._trusted(masks, _inclusion_rows([mask.bits for mask in masks]))

    @classmethod
    def from_topology(cls, topology: Topology) -> FinitePoset:
        """The inclusion order on a topology's closed sets (canonical order).

        The order keeps the topology: its items (masks of the closed sets),
        covers, rows and item index are each built once, on first use, and
        its Möbius walk may read the topology's image table instead.
        """
        return _ClosedSetOrder(topology)

    @property
    def size(self) -> int:
        return len(self.items)

    def index(self, item: Hashable) -> int:
        try:
            return self._index[item]
        except KeyError:
            raise InvalidOrderRelation(f"{item!r} is not an item of this poset") from None

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return self.up[self.index(a)] >> self.index(b) & 1 == 1

    def dual(self) -> FinitePoset:
        """The same items under the reversed order."""
        return FinitePoset._trusted(self.items, tuple(_transpose(self.up)))

    def upper_cover_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per item, the indices of the items covering it, ascending: the Hasse arrows."""
        return self._covers

    def min_chain_cover(self) -> ChainCover:
        """A minimum chain cover with a maximum antichain certificate.

        Runs augmenting-path bipartite matching on the strict order (left copy
        below, right copy above); a matching edge links consecutive items of a
        chain, so the cover has n − |matching| chains.  The antichain is read
        off the matching by König's construction: items whose left copy is
        reachable by an alternating path from an unmatched left vertex and
        whose right copy is not.  Neighbor scans follow item order, so the
        result is deterministic.
        """
        return _matched_cover(self.items, self.up, ())

    def mobius(self) -> MobiusTable:
        """The Möbius function on all comparable pairs, as exact integers,
        by the interval loop on the rows (:func:`_interval_rows`)."""
        return MobiusTable(poset=self, rows=_interval_rows(self.up))

    def sum_below(
        self, values: Mapping[Hashable, Fraction | int]
    ) -> dict[Hashable, Fraction]:
        """The down-set sums g(x) = Σ_{y ≤ x} values(y) (the zeta transform),
        one step per comparable pair."""
        items = self.items
        totals = [Fraction(0)] * len(items)
        for y, row in zip(items, self.up):
            value = values[y]
            while row:
                x = (row & -row).bit_length() - 1
                row &= row - 1
                totals[x] += value
        return dict(zip(items, totals))

    def mobius_invert(
        self, values: Mapping[Hashable, Fraction | int]
    ) -> dict[Hashable, Fraction]:
        """Recover h from its down-set sums: h(x) = Σ_{y ≤ x} μ(y, x)·values(y).

        Inverse of :meth:`sum_below`: if ``values`` maps x to Σ_{y ≤ x} h(y)
        then the result maps x to h(x), exactly.  One step per comparable
        pair of the :meth:`mobius` rows.
        """
        items = self.items
        totals = [Fraction(0)] * len(items)
        for y, row in zip(items, self.mobius().rows):
            value = Fraction(values[y])
            for x, mu in row.items():
                totals[x] += mu * value
        return dict(zip(items, totals))

    def __repr__(self) -> str:
        return f"FinitePoset({self.size} items, {sum(map(len, self._covers))} covers)"


@dataclass(frozen=True, init=False, repr=False, eq=False)
class _ClosedSetOrder(FinitePoset):
    """The inclusion order on a topology's closed sets, which
    :meth:`FinitePoset.from_topology` returns.

    It keeps the topology, and builds its items, rows, item index and covers
    from it, each once, when first read.  The rows take |S|² bits; ``hasse``
    reads them only without an image table, and ``mobius`` only on the
    interval route.
    """

    def __init__(self, topology: Topology) -> None:
        object.__setattr__(self, "_topology", topology)

    @cached_property
    def items(self) -> tuple[SubsetMask, ...]:
        return self._topology.closed

    @cached_property
    def up(self) -> tuple[int, ...]:
        return _inclusion_rows(self._topology.bits)

    @cached_property
    def _index(self) -> dict[Hashable, int]:
        return _index_of(self.items)

    @cached_property
    def _covers(self) -> tuple[tuple[int, ...], ...]:
        topology = self._topology
        if topology._images is not None:
            return _swept_covers(topology.bits, topology._images)
        return _walked_covers(self.up)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ClosedSetOrder):
            return self._topology == other._topology
        return super().__eq__(other)

    __hash__ = FinitePoset.__hash__

    def mobius(self) -> MobiusTable:
        """The Möbius function on all comparable pairs, as exact integers,
        as dict rows built from :meth:`mobius_walk`.  The ``mobius`` report
        reads the walk itself, so these rows are built only for API callers.
        """
        closed = self._topology.bits
        signs = _signs(closed)
        rows = []
        for a, (above, corrections) in zip(closed, self.mobius_walk()):
            row = dict(zip(above, map(signs[a.bit_count() & 1].__getitem__, above)))
            row.update(corrections)
            rows.append(row)
        return MobiusTable(poset=self, rows=tuple(rows))

    def mobius_walk(self) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
        """The Möbius rows, lazily: per closed set A in index order, the
        ascending indices of the closed sets C ⊇ A, and the pairs (index of
        C, μ(A, C)) where μ(A, C) is not the sign (−1)^|C∖A|.

        It takes Rota's closure theorem on the image table (:func:`_rota_walk`)
        or the interval loop on the rows (:func:`_interval_rows`), as
        :func:`~closureops._words._mobius_route` chooses.
        """
        topology = self._topology
        size, closed = topology.ground.size, topology.bits
        tabulated = topology._images is not None
        if _mobius_route(size, closed, tabulated, lambda: self.up) == "rota":
            yield from _rota_walk(closed, topology.tabulate_bits())
        else:
            yield from _corrected(closed, _interval_rows(self.up))


def _index_of(items: tuple[Hashable, ...]) -> dict[Hashable, int]:
    index: dict[Hashable, int] = {}
    for i, item in enumerate(items):
        if item in index:
            raise InvalidOrderRelation(f"duplicate item {item!r}")
        index[item] = i
    return index


def _transpose(rows: Sequence[int]) -> list[int]:
    """The columns of a 0/1 matrix held as int rows: bit i of column j is
    bit j of row i, for every j below the highest bit set in any row."""
    columns = [0] * max(rows, default=0).bit_length()
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            row ^= low
            columns[low.bit_length() - 1] |= 1 << i
    return columns


def _inclusion_rows(bits: Sequence[int]) -> tuple[int, ...]:
    """Per subset (a bit pattern), the bitmask of the subsets that contain it.

    Column e is the set of items containing element e, and an item's row is
    the AND of the columns of its members, O(Σ|A|) big-int ANDs in all.
    """
    columns = _transpose(bits)
    every = (1 << len(bits)) - 1
    rows = []
    for a in bits:
        row = every
        rest = a
        while rest:
            low = rest & -rest
            rest ^= low
            row &= columns[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


def _matched_cover(
    items: Sequence[Hashable], up: Sequence[int], links: Iterable[tuple[int, int]]
) -> ChainCover:
    """A minimum chain cover of the order with rows ``up`` on ``items``,
    with the matching started from ``links``, index pairs (i, j) with
    item i < item j that share no endpoint.

    The breadth-first searches run on the strict up-rows as bitsets: a
    left vertex reaches, in one AND, every right vertex of its row that
    this search has not reached yet.  Each left vertex unmatched at the
    start is searched once; one that finds no augmenting path never gets
    one later (the classical invariant of Kuhn's method), so the matching
    ends maximum.
    """
    n = len(items)
    strict_up = [row & ~(1 << i) for i, row in enumerate(up)]
    match_l = [-1] * n
    match_r = [-1] * n
    for i, j in links:
        match_l[i] = j
        match_r[j] = i
    every = (1 << n) - 1
    for start in [u for u in range(n) if match_l[u] < 0]:
        parent: dict[int, int] = {}
        unreached = every
        queue = deque([start])
        goal = -1
        while queue and goal < 0:
            u = queue.popleft()
            row = strict_up[u] & unreached
            unreached &= ~row
            while row:
                low = row & -row
                row ^= low
                v = low.bit_length() - 1
                parent[v] = u
                w = match_r[v]
                if w < 0:
                    goal = v
                    break
                queue.append(w)
        v = goal
        while v >= 0:
            u = parent[v]
            previous = match_l[u]
            match_l[u] = v
            match_r[v] = u
            v = previous
    # König: Z = alternating reachability from unmatched left vertices.
    # A left vertex in Z is unmatched or entered through its partner, so
    # its row minus the right vertices already in Z holds no matched edge.
    unmatched = [u for u in range(n) if match_l[u] < 0]
    z_left = 0
    for u in unmatched:
        z_left |= 1 << u
    z_right = 0
    queue = deque(unmatched)
    while queue:
        row = strict_up[queue.popleft()] & ~z_right
        z_right |= row
        while row:
            low = row & -row
            row ^= low
            w = match_r[low.bit_length() - 1]
            if w >= 0 and not z_left >> w & 1:
                z_left |= 1 << w
                queue.append(w)
    antichain = z_left & ~z_right
    chains = []
    for i in range(n):
        if match_r[i] >= 0:
            continue  # i has a predecessor in some chain
        chain = [items[i]]
        j = match_l[i]
        while j >= 0:
            chain.append(items[j])
            j = match_l[j]
        chains.append(tuple(chain))
    return ChainCover(
        chains=tuple(chains),
        antichain=tuple(items[i] for i in range(n) if antichain >> i & 1),
    )


def _walked_covers(up: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per item, its upper covers, by a pick walk over its strict up-row.

    The lowest remaining candidate is picked, its strict up-row joins
    ``above``, and its up-row leaves the candidates; the covers are the picks
    not in ``above``.  This is exact for any item order.  A cover is never
    strictly above a pick, so it is picked and stays out of ``above``.  A
    non-cover k has some candidate m strictly between the item and k; m was
    picked, or it left with the up-row of a pick p ≤ m, and either way k is
    strictly above a pick, so k is in ``above`` if it was picked at all.
    When ascending index extends the order, as the canonical order of S(f)
    does, nothing lies strictly between the item and the lowest remaining
    candidate, so every pick is a cover: one step per cover.
    """
    covers = []
    for i, row in enumerate(up):
        rest = row & ~(1 << i)
        above = 0
        picks = []
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            picks.append(j)
            above |= up[j] ^ low
            rest &= ~up[j]
        covers.append(tuple(j for j in picks if not above >> j & 1))
    return tuple(covers)


def _rota_walk(
    closed: Sequence[int], images: Sequence[int]
) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
    """Möbius rows of the closed sets of a closure operator, by Rota's
    closure theorem: μ(A, C) = Σ (−1)^|B| over the B ⊆ X ∖ A with
    f(A ∪ B) = C, for closed A ⊆ C.

    Per closed A, in index order, yields the ascending indices of the closed
    sets C ⊇ A and the pairs (index of C, μ(A, C)) where μ(A, C) is not
    (−1)^|C∖A|.  One pass over the supersets D = A ∪ B reads 2^(n−|A|)
    images, 3^n in all on the discrete family, which is the number of
    entries.  Each closed C ⊇ A is one of them (B = C ∖ A) and gives the
    term (−1)^|C∖A|; only a D that is not closed adds (−1)^|D∖A| to the
    entry of f(D), so the discrete family has no corrections.
    """
    full = closed[-1]
    position = [-1] * (full + 1)  # index of each closed bit pattern, else −1
    for j, c in enumerate(closed):
        position[c] = j
    for a in closed:
        supersets = [a]  # ascending
        rest = full & ~a
        while rest:
            x = rest & -rest
            rest ^= x
            supersets += [x | d for d in supersets]
        above = list(map(position.__getitem__, supersets))
        corrections = []
        if -1 in above:
            tally: dict[int, int] = {}  # f(D) -> Σ (−1)^|D∖A| over non-closed D
            for d in compress(supersets, map((-1).__eq__, above)):
                c = images[d]
                tally[c] = tally.get(c, 0) + 1 - ((d ^ a).bit_count() & 1) * 2
            corrections = [
                (position[c], 1 - ((c ^ a).bit_count() & 1) * 2 + t)
                for c, t in tally.items()
                if t
            ]
            above = list(filter((-1).__ne__, above))
        yield above, corrections


def _corrected(
    closed: Sequence[int], rows: Iterable[dict[int, int]]
) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
    """Möbius rows ``rows`` of the closed sets, keyed by index, in the form
    :func:`_rota_walk` yields them."""
    signs = _signs(closed)
    for a, row in zip(closed, rows):
        sign = signs[a.bit_count() & 1]
        yield list(row), [(j, mu) for j, mu in row.items() if mu != sign[j]]


def _signs(closed: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per parity p of |A|, the list of (−1)^|C∖A| over the closed sets C."""
    even = [1 - (c.bit_count() & 1) * 2 for c in closed]
    return even, [-sign for sign in even]


def _interval_rows(up: Sequence[int]) -> tuple[dict[int, int], ...]:
    """Möbius rows of any finite order, from its rows ``up``, by the
    defining recursion μ(x, y) = −Σ_{x ≤ z < y} μ(x, z), taking y along a
    linear extension: |S|² scan steps plus one per z in each interval."""
    size = len(up)
    strict_down = [column & ~(1 << j) for j, column in enumerate(_transpose(up))]
    # a linear extension: ascending count of items strictly below
    order = sorted(range(size), key=lambda i: (strict_down[i].bit_count(), i))
    rows = []
    for x in range(size):
        row = up[x]
        mu = {x: 1}
        for y in order:
            if not row >> y & 1 or y == x:
                continue
            total = 1
            between = row & strict_down[y] & ~(1 << x)
            while between:
                z = (between & -between).bit_length() - 1
                between &= between - 1
                total += mu[z]
            mu[y] = -total
        rows.append(dict(sorted(mu.items())))
    return tuple(rows)


def _swept_covers(
    closed: Sequence[int], images: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Upper covers of each closed set, read from the image table in about
    n steps per closed set.

    A closed C ⊋ A covers A iff every y ∈ C ∖ A has f(A ∪ {y}) = C.  If C
    covers A, then A ⊊ f(A ∪ {y}) ⊆ C forces equality.  Conversely, a closed
    D with A ⊊ D ⊆ C contains some y ∈ C ∖ A, so D ⊇ f(A ∪ {y}) = C.  Each
    candidate C = f(A ∪ {x}) is therefore tested once, at the lowest element
    x of C ∖ A, and C = A ∪ {x} is a cover outright.
    """
    full = closed[-1]
    index = {c: i for i, c in enumerate(closed)}
    covers = []
    for a in closed:
        above = []
        rest = full & ~a
        while rest:
            x = rest & -rest
            rest ^= x
            c = images[a | x]
            new = c & ~a
            if new == x:
                above.append(index[c])
            elif x == new & -new:
                others = new ^ x
                while others:
                    y = others & -others
                    others ^= y
                    if images[a | y] != c:
                        break
                else:
                    above.append(index[c])
        above.sort()
        covers.append(tuple(above))
    return tuple(covers)


def _default_label(item: Hashable) -> str:
    if isinstance(item, SubsetMask):
        return item.label()
    return str(item)


def _dot_pieces(
    poset: FinitePoset,
    name: str = "hasse",
    label: Callable[[Hashable], str] | None = None,
) -> list[str]:
    """The text of :func:`to_dot` without its last newline, as pieces: the
    header and node lines in one, then the edge lines of each lower item."""
    label = label or _default_label
    lines = [f"digraph {name} {{\n", "  rankdir=BT;\n"]
    for i, item in enumerate(poset.items):
        text = label(item).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{text}"];\n')
    pieces = ["".join(lines)]
    for i, above in enumerate(poset.upper_cover_indices()):
        if above:
            pieces.append("".join([f"  n{i} -> n{j};\n" for j in above]))
    pieces.append("}")
    return pieces


def to_dot(
    poset: FinitePoset,
    *,
    name: str = "hasse",
    label: Callable[[Hashable], str] | None = None,
) -> str:
    """Render the Hasse diagram as Graphviz DOT text, bottom-up.

    Output is deterministic: nodes appear in item order, edges by the index
    of the lower item, then of the upper, so equal posets yield byte-equal
    text.
    """
    return "".join([*_dot_pieces(poset, name, label), "\n"])
