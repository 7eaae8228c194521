"""The route each exact chooser takes, pinned on fixed families of each size.

The five choosers of ``closureops._words`` (its module docstring tables
their rules) pick intersection closure, meet images, P(f), the profile and
the Möbius walk; each caller dispatches on the name its chooser returns.
Every route gives the same answer, so a change to a step weight shows only
in which route runs; these tests make it show as a failed choice.  The
routes are seen by the names of the functions that run, so the pins do not
depend on which module holds a route, and each chooser's return value must
equal the route seen, so the table and the dispatch cannot drift apart.
The profile builds no order object on either route.

P(f) is chosen from S(f) alone: each family's twins with and without the
image table take one route to one P(f), and neither sweeps its covers.  The
menu ladder's Kreps operators hold their tables; at n = 14 and 16 P(f) walks,
so their profiles read the covers and equal their table-less twins'.  The
last tests run ``hasse`` and ``mobius`` with the other route's structures
refused: the sweep of a tabulated family builds no rows, and a table-less
family's covers and Möbius rows build no image table.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest
from conftest import chain_bits, crown_bits, truncated_bits

from closureops import FinitePoset, GroundSet, MenuPreference, Topology
from closureops import _words, complexity, core, poset
from closureops.cli import main
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
    "_cover_links": "covers",
    "_depth_words": "table",
    "_image_links": "table",
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


def _refuse(what: str):
    def refuse(*args):
        raise AssertionError(f"{what} was built")

    return refuse


def _irreducible_route(f: Topology) -> str:
    """The P(f) route of f, as its chooser returns it.  Twins of f, one
    holding its image table and one without, must take the same route to the
    same P(f): the chooser reads S(f) alone."""
    images = f._images or core._meet_images(f.ground.size, f.bits)
    tabulated = Topology._trusted(f.ground, images)
    tableless = Topology._trusted(f.ground, images)
    object.__setattr__(tableless, "_images", None)
    seen = []
    for twin in (tabulated, tableless):
        with _routes_run() as routes:
            p_of_f = meet_irreducibles(twin).p_of_f
        seen.append((_one(routes), p_of_f))
    assert seen[0] == seen[1]
    assert _words._irreducible_route(f.ground.size, f.bits) == seen[0][0]
    return seen[0][0]


def _profile_route(f: Topology) -> str:
    """The route of f's profile, ``covers`` or ``table``, as its chooser
    returns it, taken with no order object built.  The covers route walks
    the covers and reads neither the depth words nor the table's links; the
    table route builds no cover and reads P(f) from the words."""
    with pytest.MonkeyPatch.context() as patch, _routes_run() as seen:
        patch.setattr(FinitePoset, "from_topology", _refuse("an order object"))
        complexity._shape(f)
    route = _one(seen & {"covers", "table"})
    assert seen == {"covers": {"covers", "walked"}, "table": {"table", "words"}}[route]
    assert _words._profile_route(f.ground.size, f.bits, f._images is not None) == route
    return route


def _choices(bits: list[int], n: int) -> str:
    """The five routes taken on a family, as
    ``validation/irreducibles/profile/meet images/Möbius``, each the one its
    chooser returns."""
    g = GroundSet(tuple(f"e{i}" for i in range(n)))
    with _routes_run() as seen:
        t = Topology(g, bits)
    validation = _one(seen, "pairs")
    assert _words._closure_route(n, t.bits) == validation
    irreducibles = _irreducible_route(t)
    # The profile's S(f) stage, before Rota's walk can leave a table behind:
    # the table route needs the table and the words for P(f).
    profile = _profile_route(t)
    assert (profile == "table") == (t._images is not None and irreducibles == "words")
    with _routes_run() as seen:
        core._meet_images(n, bits)
    images = _one(seen)
    assert _words._meet_route(n, {0, g.full_bits, *bits}) == images
    poset = FinitePoset.from_topology(t)
    tabulated = t._images is not None
    with _routes_run() as seen:
        next(iter(poset.mobius_walk()))
    mobius = _one(seen - {"fill", "recursion"})
    assert _words._mobius_route(n, t.bits, tabulated, lambda: poset.up) == mobius
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
    "discrete": [("recursion/words/table/recursion/rota", 15)],
    "truncated": [("recursion/words/table/recursion/rota", 15)],
}


def _pinned(name: str, n: int) -> str:
    routes = [route for route, sizes in PINNED[name] for _ in range(sizes)]
    assert len(routes) == 15
    return routes[n - 4]


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("n", range(4, 19))
def test_each_chooser_keeps_its_route_on_fixed_families(name, n, monkeypatch):
    monkeypatch.setattr(poset, "_swept_covers", _refuse("a swept cover"))
    assert _choices(_family(name, n), n) == _pinned(name, n)


def test_only_the_word_module_prices_a_route():
    # The callers dispatch on the names the choosers return, so none of them
    # holds a step formula, a comparison of step counts or a step weight.
    for module in (core, complexity, poset):
        priced = [
            name
            for name in vars(module)
            if name.endswith(("_steps", "_pay", "_pays")) or name in ("_WORD_SHIFT", "_COVER_STEP")
        ]
        assert priced == [], module.__name__


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


# The P(f) and profile routes of the menu ladder's Kreps operators at
# n = 5, 6, ..., 12.  Each holds its image table, so the profile follows P(f).
PINNED_KREPS = [("walked", "covers")] * 3 + [("words", "table")] * 5


@pytest.mark.parametrize("n", range(5, 13))
def test_the_kreps_operators_of_the_menu_ladder_keep_their_route(n, monkeypatch):
    monkeypatch.setattr(poset, "_swept_covers", _refuse("a swept cover"))
    f = kreps_operator(_ladder_preference(n))
    assert (_irreducible_route(f), _profile_route(f)) == PINNED_KREPS[n - 5]


@pytest.mark.parametrize("n", [14, 16])
def test_a_large_kreps_operator_profiles_like_its_tableless_twin(n, monkeypatch):
    # P(f) walks here although the Kreps map holds its table, so its profile
    # reads the covers, as its twin without the table does, to the same
    # profile, and builds no order object.
    monkeypatch.setattr(poset, "_swept_covers", _refuse("a swept cover"))
    f = kreps_operator(_ladder_preference(n))
    assert f._images is not None and _irreducible_route(f) == "walked"
    tableless = Topology._trusted(f.ground, f._images)
    object.__setattr__(tableless, "_images", None)
    profiles = []
    for twin in (f, tableless):
        assert _profile_route(twin) == "covers"
        with monkeypatch.context() as patch:
            patch.setattr(FinitePoset, "from_topology", _refuse("an order object"))
            profiles.append(complexity.complexity_profile(twin))
    assert profiles[0] == profiles[1]


def _report(tmp_path, command: str, n: int, bits) -> dict:
    """``command`` run through the CLI on the topology of ``bits``."""
    names = [f"e{i}" for i in range(n)]
    closed = [[x for i, x in enumerate(names) if b >> i & 1] for b in bits]
    top, out = tmp_path / "t.json", tmp_path / "out.json"
    top.write_text(json.dumps({"elements": names, "closed_sets": closed}), encoding="utf-8")
    assert main(["--out", str(out), command, "--topology", str(top)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["discrete", "truncated"])
def test_hasse_sweeps_a_tabulated_family_without_rows(name, tmp_path, monkeypatch):
    # Validation leaves the image table behind, and the sweep reads it: the
    # walk would need |S|² bits of rows first.
    monkeypatch.setattr(poset, "_inclusion_rows", _refuse("an inclusion row"))
    monkeypatch.setattr(poset, "_walked_covers", _refuse("a walked cover"))
    n = 12
    # Each set of at most n − 3 elements is covered by its n − |A| one-element
    # extensions; each (n − 2)-set by X alone.
    edges = {
        "discrete": n << (n - 1),
        "truncated": sum(comb(n, k) * (n - k) for k in range(n - 2)) + comb(n, 2),
    }
    assert len(_report(tmp_path, "hasse", n, _family(name, n))["edges"]) == edges[name]


@pytest.mark.parametrize("command, count", [("hasse", 18), ("mobius", 19 * 20 // 2)])
def test_a_tableless_chain_builds_no_image_table(command, count, tmp_path, monkeypatch):
    # The pair loop validates the chain and leaves no table; its covers are
    # walked on the rows and its Möbius rows come from the interval loop.
    monkeypatch.setattr(core, "_superset_dp", _refuse("an image table"))
    monkeypatch.setattr(core, "_submask_fill", _refuse("an image table"))
    n = 18
    report = _report(tmp_path, command, n, [(1 << k) - 1 for k in range(n + 1)])
    assert len(report["edges" if command == "hasse" else "entries"]) == count
