"""The 2^n-bit word kernel, and the one module that prices exact routes.

A family of subsets of X, |X| = n, is one 2^n-bit integer whose bit A is set
iff A is in the family.  CPython works on such integers a machine word at a
time, so one AND, OR or shift of a whole family costs about as much as a
Python step while the words are short, and grows with 2^n beyond.

Six facts of S = S(f) have exact routes that give the same answer.  Each
priced fact has one chooser here, which counts its routes' steps before any
runs and returns the name of the route; the caller dispatches on that name
and counts nothing itself.  This table is the one statement of the rules:

=================  =========  =============================  ==================
fact, caller       routes     price, and when it is taken    chooser
=================  =========  =============================  ==================
closure of S       recursion  (n + 2)·2^(n−1); below pairs,  _closure_route
Topology                      and below words plus the
                              table a later stage may
                              read, min(fill, n·2^(n−1))
                   words      |S| + W·n(3n + 7); below pairs
                   pairs      |S|(|S| − 1)/2; otherwise, and
                              over the members above a
                              missing meet, to name it
meet images        recursion  n·2^(n−1); below fill          _meet_route
_meet_images       fill       Σ_{C ≠ X} 2^|C| over members
P(f)               words      |S| + W·n(7n + 2); below       _irreducible_route
meet_irreducibles             walked
                   walked     C·(2·Σ_{A ∈ S} |A| + |S| − 1)
profile of S       table      none of its own: iff f holds   _profile_route
_shape                        its image table and P(f)
                              takes the words
                   covers     otherwise
Möbius function    rota       R = Σ_{A ∈ S} 2^(n−|A|), plus  _mobius_route
mobius_walk                   min(fill, n·2^(n−1)) without
                              the table; unless above both
                              |S|² and interval
                   interval   |S|² + Σ_z |↓z|·|↑z| on the
                              rows, built only when R is
                              above |S|²
Hasse covers       swept      none: iff f holds its image    one ``if``
_covers                       table                          in _covers
                   walked     otherwise
=================  =========  =============================  ==================

Both routes to P(f) read S alone, so one family takes one route whether or
not it holds its image table; the profile asks P(f)'s chooser only of an f
that holds it.

Every count is in one unit, the pair test ``a & b not in S`` of the pair
loop (about 50 ns on CPython 3.11), with one weight per step kind: a
recursion step, a fill step, a Rota read and an interval step weigh 1, a
cover step C = :data:`_COVER_STEP`, and an operation on 2^n-bit words
W = 2 + 2^n >> :data:`_WORD_SHIFT`.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Sequence
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


def _recursion_steps(size: int) -> int:
    """The superset recursion: n·2^(n−1) steps."""
    return size << (size - 1)


def _fill_steps(size: int, family: Iterable[int]) -> int:
    """The submask fill: Σ_{C ≠ X} 2^|C| steps."""
    full = (1 << size) - 1
    return sum(1 << c.bit_count() for c in family if c != full)


def _word_steps(size: int, ops: int) -> int:
    """``ops`` operations on 2^size-bit words (:data:`_WORD_SHIFT`)."""
    return ops * (2 + ((1 << size) >> _WORD_SHIFT))


def _closure_route(size: int, closed: Sequence[int]) -> str:
    """How intersection closure of the ascending ``closed`` is decided:
    ``"recursion"``, ``"words"`` (:func:`_missing_meets`) or ``"pairs"``.
    The fill's sum reads ``closed`` from the top, X last and left out, and
    stops once it passes the recursion's margin over the words."""
    count = len(closed)
    pairs = count * (count - 1) // 2
    words = count + _word_steps(size, size * (3 * size + 7))
    recursion = (size + 2) << (size - 1)
    margin = recursion - words
    if recursion < pairs and margin < _recursion_steps(size):
        fill = 0
        i = count - 1
        while fill <= margin and i:
            i -= 1
            fill += 1 << closed[i].bit_count()
        if fill > margin:
            return "recursion"
    return "words" if words < pairs else "pairs"


def _meet_route(size: int, family: Iterable[int]) -> str:
    """How the images of a family holding ∅ and X are tabulated:
    ``"recursion"`` or ``"fill"``."""
    return "recursion" if _recursion_steps(size) < _fill_steps(size, family) else "fill"


def _irreducible_route(size: int, closed: Sequence[int]) -> str:
    """How P(f) is found: ``"words"`` (:func:`_irreducible_words`) or
    ``"walked"``, the covers of ``closed`` walked on the rows."""
    words = len(closed) + _word_steps(size, size * (7 * size + 2))
    members = sum(c.bit_count() for c in closed)
    walked = _COVER_STEP * (2 * members + len(closed) - 1)
    return "words" if words < walked else "walked"


def _profile_route(size: int, closed: Sequence[int], tabulated: bool) -> str:
    """How the profile reads P(f), the width and the depth of S: ``"table"``
    or ``"covers"``.  P(f)'s chooser is asked only when ``tabulated``."""
    return "table" if tabulated and _irreducible_route(size, closed) == "words" else "covers"


def _mobius_route(
    size: int, closed: Sequence[int], tabulated: bool, rows: Callable[[], Sequence[int]]
) -> str:
    """How the Möbius function is walked: ``"rota"`` or ``"interval"``.
    ``rows()``, the up-rows of the order, is read only when Rota costs more
    than the interval loop's |S|² scan."""
    rota = sum(1 << (size - c.bit_count()) for c in closed)
    if not tabulated:
        rota += min(_fill_steps(size, closed), _recursion_steps(size))
    if rota <= len(closed) ** 2:
        return "rota"
    up = rows()
    below = [0] * len(up)
    for row in up:
        while row:
            below[(row & -row).bit_length() - 1] += 1
            row &= row - 1
    interval = len(up) ** 2 + sum(b * row.bit_count() for b, row in zip(below, up))
    return "rota" if rota <= interval else "interval"


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
