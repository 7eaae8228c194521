"""The route each exact chooser takes, pinned on fixed families of each size.

Four choices pick between exact routes by counting steps: intersection
closure in ``Topology`` (the superset recursion, the words or the pair
loop), P(f) in ``meet_irreducibles`` (the words, or covers swept from the
image table or walked on the rows), the meet images of a family (the submask
fill or the superset recursion) and the Möbius walk (Rota's theorem or the
interval loop).  A fifth follows from the first: the profile reads P(f), the
width and the depth of S(f) from the covers when validation left no image
table, else from the words and the table.  Every route gives the same
answer, so a change to a step weight shows only in which route runs; these
tests make it show as a failed choice.  The routes are seen by the names of
the functions that run, so the pins do not depend on which module holds a
route.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from conftest import chain_bits, crown_bits, truncated_bits

from closureops import FinitePoset, GroundSet, MenuPreference, Topology
from closureops import complexity, core
from closureops.complexity import meet_irreducibles
from closureops.menus import kreps_operator

ROUTES = {
    "_superset_dp": "recursion",
    "_missing_meets": "words",
    "_submask_fill": "fill",
    "_irreducible_words": "words",
    "_swept_covers": "swept",
    "_walked_covers": "walked",
    "_rota_walk": "rota",
    "_interval_rows": "interval",
    "_depth": "covers",
    "_depth_words": "table",
}


@contextmanager
def _routes_run():
    """The routes whose functions are called inside the block."""
    seen: set[str] = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ROUTES:
            seen.add(ROUTES[frame.f_code.co_name])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def _one(seen: set[str], default: str | None = None) -> str:
    assert len(seen) <= 1, seen
    return next(iter(seen), default)


def _family(name: str, n: int) -> list[int]:
    if name == "chain":
        return chain_bits(random.Random(n), n)
    if name == "crown":
        return crown_bits(n)
    if name == "discrete":
        return list(range(1 << n))
    if name == "truncated":
        return truncated_bits(n)
    # Every subset of the first n − 5 elements, every singleton and X: the
    # word route decides intersection closure at n = 11-13.
    return sorted({*range(1 << max(n - 5, 1)), *(1 << i for i in range(n)), (1 << n) - 1})


def _choices(bits: list[int], n: int) -> str:
    """The five routes taken on a family, as
    ``validation/irreducibles/profile/meet images/Möbius``."""
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    with _routes_run() as seen:
        t = Topology(g, bits)
    validation = _one(seen, "pairs")
    with _routes_run() as seen:
        meet_irreducibles(t)
    irreducibles = _one(seen)
    # The profile's S(f) stage, before Rota's walk can leave a table behind.
    with _routes_run() as seen:
        complexity._shape(t)
    profile = _one(seen & {"covers", "table"})
    # The covers route walks the covers; the table route builds only those
    # the chooser of P(f) asks for.
    assert seen - {profile} == ({"walked"} if profile == "covers" else {irreducibles})
    with _routes_run() as seen:
        core._meet_images(n, bits)
    images = _one(seen)
    poset = FinitePoset.from_topology(t)
    with _routes_run() as seen:
        next(iter(poset.mobius_walk()))
    mobius = _one(seen - {"fill", "recursion"})
    return f"{validation}/{irreducibles}/{profile}/{images}/{mobius}"


# Per family, the routes at n = 4, 5, ..., 18, as runs of (routes, sizes).
PINNED = {
    "block": [
        ("pairs/walked/covers/fill/rota", 1),
        ("pairs/walked/covers/fill/interval", 5),
        ("pairs/words/covers/fill/interval", 1),
        ("words/words/covers/fill/interval", 4),
        ("words/words/covers/fill/rota", 4),
    ],
    "chain": [("pairs/walked/covers/fill/rota", 1), ("pairs/walked/covers/fill/interval", 14)],
    "crown": [("pairs/words/covers/fill/rota", 2), ("pairs/walked/covers/fill/interval", 13)],
    "discrete": [
        ("recursion/swept/table/recursion/rota", 1),
        ("recursion/words/table/recursion/rota", 14),
    ],
    "truncated": [
        ("recursion/swept/table/recursion/rota", 1),
        ("recursion/words/table/recursion/rota", 14),
    ],
}


def _pinned(name: str, n: int) -> str:
    routes = [route for route, sizes in PINNED[name] for _ in range(sizes)]
    assert len(routes) == 15
    return routes[n - 4]


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("n", range(4, 19))
def test_each_chooser_keeps_its_route_on_fixed_families(name, n):
    assert _choices(_family(name, n), n) == _pinned(name, n)


@pytest.mark.parametrize("n", [6, 9, 14])
def test_the_discrete_family_takes_rota_and_the_chain_the_interval_loop(n):
    assert _choices(_family("discrete", n), n).endswith("/rota")
    assert _choices(_family("chain", n), n).endswith("/interval")


def _ladder_preference(n: int) -> MenuPreference:
    """The menu ladder's preference at size n: U(A) = |f(A)| for the
    classifier of n random attribute extents drawn from the ladder's seed."""
    rng = random.Random(f"closureops-envelope:menu-prefs:{n}")
    full = (1 << n) - 1
    extents = [rng.getrandbits(n) & full for _ in range(n)]
    images = core._meet_images(n, extents)
    values = (None, *(Fraction(images[a].bit_count()) for a in range(1, full + 1)))
    return MenuPreference(GroundSet(tuple(f"e{i}" for i in range(n))), values)


# The P(f) route of the menu ladder's Kreps operators at n = 5, 6, ..., 12.
PINNED_KREPS = ["swept"] * 3 + ["words"] * 5


@pytest.mark.parametrize("n", range(5, 13))
def test_the_kreps_operators_of_the_menu_ladder_keep_their_route(n):
    f = kreps_operator(_ladder_preference(n))
    with _routes_run() as seen:
        meet_irreducibles(f)
    assert _one(seen) == PINNED_KREPS[n - 5]
