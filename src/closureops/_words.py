"""The 2^n-bit word kernel, and the step counts that choose every exact route.

A family of subsets of X, |X| = n, is one 2^n-bit integer whose bit A is set
iff A is in the family.  CPython works on such integers a machine word at a
time, so one AND, OR or shift of a whole family costs about as much as a
Python step while the words are short, and grows with 2^n beyond.

Four facts of S = S(f) each have exact routes that give the same answer, and
the caller runs the one these counts price cheapest, counted before any runs:

* intersection closure (:class:`~closureops.core.Topology`): the superset
  recursion, which leaves the image table behind, wherever it is cheaper
  than the pair loop and than the words plus the cheaper route to that
  table, min(fill, recursion), which a later stage may read
  (:func:`_recursion_pays`); else the words (:func:`_missing_meets`)
  wherever they are cheaper than the pair loop; else the pair loop.  When a
  meet is missing the pair loop runs too, over the members above one, so the
  error names the same pair whichever route decided;
* meet images (:func:`~closureops.core._meet_images`): the submask fill, or
  the superset recursion where strictly cheaper (the fill costs 3^n − 2^n
  on the discrete family);
* P(f) (:func:`~closureops.complexity.meet_irreducibles`): the words
  (:func:`_irreducible_words`) where strictly cheaper, else the covers of S
  walked on the rows.  Both read S alone, so one family takes one route
  whether or not it holds its image table;
* the Möbius function (:meth:`~closureops.poset._ClosedSetOrder.mobius_walk`,
  the walk of the closed-set order ``FinitePoset.from_topology`` returns):
  Rota's closure theorem, unless the interval loop is strictly cheaper.
  That loop costs 2·4^n on the discrete family, where Rota reads 3^n, but
  about |S|² on a chain, where Rota reads about 2^(n+1); its rows are built
  only when Rota costs more than its |S|² scan.

The profile's width and depth of S (:func:`~closureops.complexity._shape`)
take no count of their own: they follow P(f)'s choice (:func:`_words_pay`),
asked only of an f that holds its image table.  With the table and the
words cheaper, D gives P(f) and the depth (:func:`_depth_words`) and the
table the width's greedy; otherwise the covers walked on the rows give all
three.

Every count is in one unit, the pair test ``a & b not in S`` of the pair
loop (about 50 ns on CPython 3.11), with one weight per step kind: a
recursion step, a fill step, a Rota read and an interval step weigh 1, a
cover step :data:`_COVER_STEP`, and an operation on 2^n-bit words
2 + 2^n >> :data:`_WORD_SHIFT`.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from itertools import compress

#: An AND, OR or shift of 2^n-bit words counts as 2 + 2^n >> _WORD_SHIFT
#: pair tests: twice a pair test up to about a thousand bits, and growing
#: with the words' length beyond, as measured for n = 4-20.
_WORD_SHIFT = 11

#: A step of the covers walked on the rows (a column read ANDs rows of |S|
#: bits, a walk step picks a cover) takes about as long as this many pair
#: tests, as measured on the benchmark's families.
_COVER_STEP = 8

#: Per byte value, the positions of its set bits, ascending.
_BYTE_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))

#: Per bit b, the table mapping a byte to the digit "1" if bit b is set,
#: else "0": runs of 2^b zeros and 2^b ones.
_PLANE_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def _pair_steps(count: int) -> int:
    """The pair loop over ``count`` members: |S|(|S|−1)/2 pair tests."""
    return count * (count - 1) // 2


def _recursion_steps(size: int) -> int:
    """The superset recursion: n·2^(n−1) steps."""
    return size << (size - 1)


def _checked_recursion_steps(size: int) -> int:
    """The superset recursion and one membership test per subset:
    (n + 2)·2^(n−1) steps."""
    return (size + 2) << (size - 1)


def _fill_steps(size: int, family: Iterable[int]) -> int:
    """The submask fill: Σ_{C ≠ X} 2^|C| steps."""
    full = (1 << size) - 1
    return sum(1 << c.bit_count() for c in family if c != full)


def _recursion_pays(size: int, closed: Sequence[int], words: int) -> bool:
    """Whether the checked superset recursion costs less than ``words``,
    the words' count, plus the image table a later stage may read,
    min(fill, recursion).  The fill's sum reads the ascending ``closed``
    from the top, X last and left out, and stops once it passes the
    margin."""
    margin = _checked_recursion_steps(size) - words
    if margin >= _recursion_steps(size):
        return False
    fill = 0
    i = len(closed) - 1
    while fill <= margin and i:
        i -= 1
        fill += 1 << closed[i].bit_count()
    return fill > margin


def _word_steps(size: int, ops: int) -> int:
    """``ops`` operations on 2^size-bit words (:data:`_WORD_SHIFT`)."""
    return ops * (2 + ((1 << size) >> _WORD_SHIFT))


def _missing_meet_steps(size: int, count: int) -> int:
    """:func:`_missing_meets` on ``count`` members: one step per member for
    D, and n(3n + 7) word operations."""
    return count + _word_steps(size, size * (3 * size + 7))


def _irreducible_steps(size: int, count: int) -> int:
    """:func:`_irreducible_words` on ``count`` closed sets: one step per
    closed set for D, and n(7n + 2) word operations."""
    return count + _word_steps(size, size * (7 * size + 2))


def _cover_steps(closed: Sequence[int]) -> int:
    """The upper covers of the closed sets walked on the rows
    (:data:`_COVER_STEP`): the 2·Σ_{A ∈ S} |A| column reads that build the
    rows, plus at least one step of the walk per closed set below X."""
    members = sum(c.bit_count() for c in closed)
    return _COVER_STEP * (2 * members + len(closed) - 1)


def _words_pay(size: int, closed: Sequence[int]) -> bool:
    """Whether P(f) by the words (:func:`_irreducible_words`) costs strictly
    less than by the covers of the ascending ``closed`` walked on the rows."""
    return _irreducible_steps(size, len(closed)) < _cover_steps(closed)


def _rota_steps(size: int, closed: Sequence[int], tabulated: bool) -> int:
    """Rota's walk: R = Σ_{A ∈ S} 2^(n−|A|) image reads, plus the cheaper
    route to the image table when there is none."""
    reads = sum(1 << (size - c.bit_count()) for c in closed)
    if tabulated:
        return reads
    return reads + min(_fill_steps(size, closed), _recursion_steps(size))


def _interval_steps(up: Sequence[int]) -> int:
    """The interval loop on the rows of an order: |S|² scan steps, plus
    Σ_z |↓z|·|↑z| for the sums over every interval."""
    below = [0] * len(up)
    for row in up:
        while row:
            below[(row & -row).bit_length() - 1] += 1
            row &= row - 1
    return len(up) ** 2 + sum(b * row.bit_count() for b, row in zip(below, up))


def _element_words(size: int) -> list[int]:
    """M_x for every element x: the 2^size-bit word of the subsets that hold
    x, built by doubling its period of 2^(x+1) bits, never by division."""
    length = 1 << size
    words = []
    for x in range(size):
        span = 1 << x
        word = ((1 << span) - 1) << span
        span <<= 1
        while span < length:
            word |= word << span
            span <<= 1
        words.append(word)
    return words


def _indicator(size: int, family: Iterable[int]) -> int:
    """D: the 2^size-bit word of a family's bit patterns, set in a
    ``bytearray`` in one step per member and read as one integer."""
    buffer = bytearray(((1 << size) + 7) >> 3)
    for c in family:
        buffer[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buffer, "little")


def _down(word: int, elements: Sequence[int]) -> int:
    """The subsets of the members of ``word``: for each element x, every
    member holding x adds itself without x (n shift-OR steps)."""
    for x, m in enumerate(elements):
        word |= (word & m) >> (1 << x)
    return word


def _above(size: int, family: Iterable[int]) -> bytes:
    """The 2^size-bit word of the supersets of a family's members, as
    little-endian bytes, so that bit A is one byte read: for each element x,
    every set lacking x adds itself with x (n shift-OR steps)."""
    word = _indicator(size, family)
    for x, m in enumerate(_element_words(size)):
        word |= (word & ~m) << (1 << x)
    return word.to_bytes(((1 << size) + 7) >> 3, "little")


def _set_bits(word: int, size: int) -> list[int]:
    """The set bits of a 2^size-bit word, ascending, read through
    ``to_bytes`` (never by ``x & -x`` on the word): the nonzero bytes are
    found at C speed, and only they take Python steps."""
    if not word:
        return []
    data = word.to_bytes(((1 << size) + 7) >> 3, "little")
    nonzero = compress(range(len(data)), data)
    return [i << 3 | b for i in nonzero for b in _BYTE_BITS[data[i]]]


def _image_planes(size: int, images: Sequence[int]) -> list[int]:
    """P_e for every element e: the 2^size-bit word of the A with e ∈ f(A),
    for images indexed by bit pattern.  The images are packed as
    little-endian 4-byte integers, and each byte lane becomes eight planes
    through one ``bytes.translate`` table per bit, read as a binary
    numeral."""
    raw = struct.pack(f"<{len(images)}I", *images)
    lanes = [raw[k::4] for k in range((size + 7) >> 3)]
    digits = (lanes[e >> 3].translate(_PLANE_DIGITS[e & 7]) for e in range(size))
    return [int(plane[::-1], 2) for plane in digits]


def _missing_meets(size: int, family: Iterable[int]) -> list[int]:
    """The subsets A outside a family holding X that equal the meet of the
    members above them, ascending: ¬D ∧ ¬⋃_y (¬M_y ∧ ¬Q_y), with
    Q_y = down(D ∧ ¬M_y) the subsets of the members that lack y.

    For y ∉ A, A ∈ Q_y iff some member above A lacks y, so A escapes no
    ¬M_y ∧ ¬Q_y iff every y ∉ A is left out by a member above A, that is iff
    A is the meet of the members above it: A = DP(A) in the terms of
    :func:`~closureops.core._superset_dp`.  The family is
    intersection-closed iff the list is empty.
    """
    every = (1 << (1 << size)) - 1
    elements = _element_words(size)
    closed = _indicator(size, family)
    escapes = 0
    for m in elements:
        escapes |= every ^ (m | _down(closed & ~m, elements))
    return _set_bits(every ^ (closed | escapes), size)


def _irreducible_words(size: int, family: int) -> list[int]:
    """P(f), the meet-irreducible closed sets, ascending, from D, the
    indicator of the closed sets of f (:func:`_indicator`): {X} ∪ ⋃_y W_y with

        W_y = D ∧ ¬M_y ∧ ⋀_{x ≠ y} (M_x ∨ ((¬Q_y ∧ M_x) >> 2^x)),

    Q_y = down(D ∧ ¬M_y).  Bit A of (¬Q_y ∧ M_x) >> 2^x, for x ∉ A, says
    that no closed set above A ∪ {x} lacks y, i.e. y ∈ f(A ∪ {x}).  So W_y
    holds the closed A ∌ y with y ∈ f(A ∪ {x}) for every x ∉ A, and a
    closed A ≠ X is meet-irreducible iff some such y exists: if C alone
    covers A, every f(A ∪ {x}) contains C, so any y ∈ C ∖ A will do; if C
    and C′ both cover A, a y ∉ A misses one of them, say C, and then
    y ∉ f(A ∪ {x}) = C for x ∈ C ∖ A.
    """
    every = (1 << (1 << size)) - 1
    elements = _element_words(size)
    irreducible = 1 << ((1 << size) - 1)
    for y, m in enumerate(elements):
        lacking = family & ~m
        beyond = every ^ _down(lacking, elements)
        word = lacking
        for x, mx in enumerate(elements):
            if x != y:
                word &= mx | ((beyond & mx) >> (1 << x))
        irreducible |= word
    return _set_bits(irreducible, size)


def _depth_words(size: int, family: int) -> int:
    """The longest chain of nonempty closed sets, from D, the indicator of
    the closed sets of f (:func:`_indicator`): the last k with R_k ≠ 0,
    where R_0 = {∅} and R_{k+1} = D ∧ U_k, U_k the strict supersets of the
    members of R_k.

    U_k = up(⋃_x (R_k ∧ ¬M_x) << 2^x), up repeating U |= (U ∧ ¬M_x) << 2^x
    over x, and one sweep over x ascending builds both at once:
    U |= ((R_k ∨ U) ∧ ¬M_x) << 2^x.  A strict superset B of A ∈ R_k is
    reached by adding the elements of B ∖ A in ascending order, one per
    step, and each step lands in U; a set never shifted stays out of U.  So
    by induction R_k holds the closed sets that end a chain
    ∅ = C_0 ⊊ C_1 ⊊ … ⊊ C_k.  Every topology holds ∅, bit 0 of D, and ∅
    starts every longest chain, so the last such k is the depth; R_k is
    empty once k > n.
    """
    lacking = [~m for m in _element_words(size)]
    level = 1
    depth = -1
    while level:
        depth += 1
        above = 0
        for x, m in enumerate(lacking):
            above |= ((level | above) & m) << (1 << x)
        level = family & above
    return depth
