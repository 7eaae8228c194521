"""Seeded input corpora for the closureops benchmark.

Every workload is a list of calls.  A call is one ``closureops`` argv whose
file arguments point at JSON documents written here, plus the facts its
output must show (``expect``).  The program under test only ever sees those
files; the seed never reaches it.

Every random structure (labelings, chains, dense families, utilities, the
invalid inputs' defects) is drawn from the seed.  Sizes are fixed, and two
rules keep the cost of a seed's corpus near that of any other: a random
labeling is the draw of median cost out of DRAWS, and a dense family is
redrawn until |S| falls in the narrow band DENSE_BAND.

The expected facts are computed here by code that shares nothing with
``src/``: closed sets come from intersecting attribute extents, B(f) from the
extent test of formal concept analysis, and the discrete, chain and crown
families from their closed forms.

The same (workload, seed) always writes byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import comb

WORKLOADS = ("sparse-lattice", "dense-lattice", "menu-prefs")

# Inputs per ground-set size.  Chosen so that one pass over a corpus takes
# 7-9 s at the seed commit on a 2-core x86 host, so that a 25 s run times
# every call two to four times, while every corpus keeps 100+ calls
# and several inputs in each costly class.  The largest sizes (menus at
# n >= 7, discrete topologies at n >= 10, labelings at n >= 16) are left to
# the envelope ladders, where one input costs seconds.
SPARSE_LABELINGS = {10: 6, 11: 4, 12: 3, 13: 1, 14: 1}
SPARSE_CHAINS = (10, 11, 12)
SPARSE_CROWNS = (10, 11)
SPARSE_TABLES = 3
DENSE_DISCRETE = (6, 7, 8, 9)
DENSE_LABELINGS = {6: 6, 7: 5, 8: 5, 9: 2}
MENU_VALID = {4: 24, 5: 16, 6: 12}
MENU_INVALID = (4, 5, 6, 5, 6, 6)
# Random labelings are drawn this many times and the draw of median cost is
# kept (cost: |S| for lattices, the pairs check_axioms enters for menus),
# so that every seed's structures are typical ones.
DRAWS = 7
# Dense families have DENSE_BAND[0] * 2^n <= |S| < DENSE_BAND[1] * 2^n.
DENSE_BAND = (0.74, 0.78)

# The size ladders behind ``envelope_n``.  They use one fixed draw, so that
# envelope_n measures the program rather than the luck of the seed.
LADDER_SEED = "closureops-envelope"
LADDERS = {
    "sparse-lattice": tuple(range(12, 21, 2)),
    "dense-lattice": tuple(range(8, 17)),
    "menu-prefs": tuple(range(5, 13)),
}


# ------------------------------------------------------------ set algebra


def elements(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


def names_of(bits: int, names: list[str]) -> list[str]:
    return [name for i, name in enumerate(names) if bits >> i & 1]


def closure_system(extents: list[int], full: int) -> list[int]:
    """All intersections of the extents, with the empty set and X added.

    These are exactly the closed sets of the classifier a labeling with
    these attribute extents induces.
    """
    closed = {full}
    frontier = [full]
    while frontier:
        found = []
        for c in frontier:
            for e in extents:
                m = c & e
                if m not in closed:
                    closed.add(m)
                    found.append(m)
        frontier = found
    closed.add(0)
    return sorted(closed)


def proper_irreducible_extents(extents: list[int], full: int) -> list[int]:
    """B(f) of a labeling classifier, from its extents alone.

    A proper nonempty extent is meet-irreducible iff it differs from the
    intersection of the extents that strictly contain it; no other closed
    set can be (Ganter and Wille, Formal Concept Analysis).
    """
    distinct = sorted(set(extents))
    members = []
    for e in distinct:
        if e in (0, full):
            continue
        meet = full
        for other in distinct:
            if other != e and e & ~other == 0:
                meet &= other
        if meet != e:
            members.append(e)
    return members


def images_of(closed: list[int], n: int) -> list[int]:
    """Smallest closed superset of every subset (ascending order extends ⊆)."""
    images = []
    for bits in range(1 << n):
        images.append(next(c for c in closed if bits & ~c == 0))
    return images


def closed_key(closed_bits: list[int]) -> str:
    """Order-free fingerprint of a family of subsets."""
    text = ",".join(str(b) for b in sorted(closed_bits))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def comparable_pairs(closed: list[int]) -> int:
    return sum(1 for a in closed for b in closed if a & ~b == 0)


def random_extents(rng: random.Random, n: int, labels: int) -> list[int]:
    full = (1 << n) - 1
    return [rng.getrandbits(n) & full for _ in range(labels)]


def typical_extents(rng: random.Random, n: int, labels: int, cost=None) -> list[int]:
    """The draw of median ``cost`` (default |S|) of DRAWS random labelings."""
    full = (1 << n) - 1
    if cost is None:
        cost = lambda extents: len(closure_system(extents, full))  # noqa: E731
    draws = [random_extents(rng, n, labels) for _ in range(DRAWS)]
    draws.sort(key=cost)
    return draws[DRAWS // 2]


def chain_extents(rng: random.Random, n: int) -> list[int]:
    """A random chain ∅ ⊂ B_1 ⊂ … ⊂ X: shuffled elements, random cut points."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(2, n - 2)))
    return [sum(1 << order[i] for i in range(cut)) for cut in cuts]


def crown_extents(rng: random.Random, n: int) -> list[int]:
    """The n cyclic pairs {x_i, x_{i+1}} of a shuffled cycle.

    Their closure system {∅, singletons, pairs, X} ordered by inclusion is a
    crown: MNWO = MNBC = width = n and depth 3.
    """
    order = list(range(n))
    rng.shuffle(order)
    return [1 << order[i] | 1 << order[(i + 1) % n] for i in range(n)]


def dense_extents(rng: random.Random, n: int) -> list[int]:
    """Extents that are complements of random 1-2 element sets.

    Intersections of co-small extents cover most of 2^X; the draw is
    retried until |S| lies in DENSE_BAND, narrow enough that dense inputs of
    one size cost about the same.
    """
    full = (1 << n) - 1
    while True:
        holes = set()
        while len(holes) < 2 * n:
            size = rng.choice((1, 1, 2))
            holes.add(sum(1 << i for i in rng.sample(range(n), size)))
        extents = sorted(full & ~h for h in holes)
        size = len(closure_system(extents, full))
        low, high = DENSE_BAND
        if low * (1 << n) <= size < high * (1 << n):
            return extents


# ------------------------------------------------------------ documents


def labeling_doc(n: int, extents: list[int]) -> dict:
    names = elements(n)
    labels = [f"l{j}" for j in range(len(extents))]
    phi = {
        name: [labels[j] for j, e in enumerate(extents) if e >> i & 1]
        for i, name in enumerate(names)
    }
    return {"elements": names, "labels": labels, "phi": phi}


def topology_doc(n: int, closed: list[int]) -> dict:
    names = elements(n)
    return {"elements": names, "closed_sets": [names_of(c, names) for c in closed]}


def table_doc(n: int, images: list[int]) -> dict:
    names = elements(n)
    return {
        "elements": names,
        "map": [
            {"from": names_of(bits, names), "to": names_of(img, names)}
            for bits, img in enumerate(images)
        ],
    }


def preference_doc(n: int, values: dict[int, Fraction]) -> dict:
    names = elements(n)
    return {
        "elements": names,
        "utilities": [
            {"menu": names_of(bits, names), "value": str(values[bits])}
            for bits in range(1, 1 << n)
        ],
    }


# ------------------------------------------------------------ corpus building


class Corpus:
    """Calls of one workload and the files they read, under ``directory``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.calls: list[dict] = []
        os.makedirs(directory, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.directory, name)
        text = json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def add(self, call_id: str, argv: list[str], expect: dict, hint=None) -> None:
        call = {"id": call_id, "argv": argv, "expect": expect}
        if hint is not None:
            call["hint"] = hint
        self.calls.append(call)


def _lattice_group(corpus: Corpus, tag: str, n: int, extents: list[int]) -> None:
    """The five sparse-lattice calls on one labeling and its topology."""
    full = (1 << n) - 1
    closed = closure_system(extents, full)
    mnbc = len(proper_irreducible_extents(extents, full))
    lab = corpus.write(f"{tag}.labels.json", labeling_doc(n, extents))
    top = corpus.write(f"{tag}.topology.json", topology_doc(n, closed))
    corpus.add(f"{tag}/topology", ["topology", "--from-labels", lab],
               {"code": 0, "closed_key": closed_key(closed)})
    corpus.add(f"{tag}/complexity", ["complexity", "--topology", top],
               {"code": 0, "class_count": len(closed) - 1, "mnbc": mnbc})
    corpus.add(f"{tag}/decompose-wo",
               ["decompose", "--topology", top, "--kind", "weak-orders"],
               {"code": 0, "count": {"ref": f"{tag}/complexity", "key": "mnwo"},
                "generates": True, "pointwise_equal": True})
    corpus.add(f"{tag}/decompose-bin",
               ["decompose", "--topology", top, "--kind", "binary"],
               {"code": 0, "count": mnbc, "generates": True, "pointwise_equal": True})
    corpus.add(f"{tag}/labels", ["labels", "--topology", top, "--minimal"],
               {"code": 0, "label_count": mnbc})


def _non_intersection_closed(rng: random.Random, closed: list[int]) -> tuple[list[int], int]:
    """Drop one closed set that is the intersection of two others."""
    full = closed[-1]
    candidates = sorted(
        {a & b for a in closed for b in closed if a != b and a & b not in (0, full, a, b)}
    )
    victim = rng.choice(candidates)
    return [c for c in closed if c != victim], victim


def sparse_lattice(seed: int, directory: str) -> Corpus:
    rng = random.Random(f"sparse-lattice:{seed}")
    corpus = Corpus(directory)
    labelings = []
    for n, count in SPARSE_LABELINGS.items():
        for slot in range(count):
            labels = (n // 2, n, 3 * n // 2, 2 * n)[slot % 4]
            labelings.append((n, typical_extents(rng, n, labels)))
    for k, (n, extents) in enumerate(labelings):
        _lattice_group(corpus, f"lab{k:02d}-n{n}", n, extents)
    for n in SPARSE_CHAINS:
        extents = chain_extents(rng, n)
        tag = f"chain-n{n}"
        _lattice_group(corpus, tag, n, extents)
        size = len(extents) + 2
        corpus.calls[-4]["expect"].update({"mnwo": 1, "width_s": 1, "depth_s": size - 1})
    for n in SPARSE_CROWNS:
        tag = f"crown-n{n}"
        _lattice_group(corpus, tag, n, crown_extents(rng, n))
        corpus.calls[-4]["expect"].update({"mnwo": n, "mnbc": n, "width_s": n, "depth_s": 3})
    # Operator tables of the first (n = 10) operators, valid and broken.
    for k, (n, extents) in enumerate(labelings[:SPARSE_TABLES]):
        closed = closure_system(extents, (1 << n) - 1)
        images = images_of(closed, n)
        tag = f"table{k}-n{n}"
        good = corpus.write(f"{tag}.json", table_doc(n, images))
        corpus.add(f"{tag}/validate", ["validate", "--table", good],
                   {"code": 0, "ok": True})
        corpus.add(f"{tag}/topology", ["topology", "--from-table", good],
                   {"code": 0, "closed_key": closed_key(closed)})
        # Invalid: drop one member of A from f(A), breaking extensivity at A.
        at = rng.choice([b for b in range(1, 1 << n) if b.bit_count() >= 2])
        broken = list(images)
        broken[at] &= ~(at & -at)
        bad = corpus.write(f"{tag}.broken.json", table_doc(n, broken))
        hint = {"extensivity": names_of(at, elements(n))}
        corpus.add(f"{tag}/validate-broken", ["validate", "--table", bad],
                   {"code": 1, "ok": False, "witness": True}, hint)
        corpus.add(f"{tag}/topology-broken", ["topology", "--from-table", bad],
                   {"code": 1, "ok": False, "witness": True}, hint)
    # Invalid topologies: one intersection missing.
    for n, extents in labelings[:4]:
        closed = closure_system(extents, (1 << n) - 1)
        family, _ = _non_intersection_closed(rng, closed)
        tag = f"open-n{n}-{len(corpus.calls)}"
        path = corpus.write(f"{tag}.json", topology_doc(n, family))
        corpus.add(f"{tag}/complexity", ["complexity", "--topology", path],
                   {"code": 1, "error": True})
    return corpus


def dense_lattice(seed: int, directory: str) -> Corpus:
    rng = random.Random(f"dense-lattice:{seed}")
    corpus = Corpus(directory)
    inputs = []
    for n in DENSE_DISCRETE:
        inputs.append((f"discrete-n{n}", n, None))
    k = 0
    for n, count in DENSE_LABELINGS.items():
        for _ in range(count):
            extents = dense_extents(rng, n)
            inputs.append((f"dense{k:02d}-n{n}", n, extents))
            k += 1
    for tag, n, extents in inputs:
        full = (1 << n) - 1
        if extents is None:
            closed = list(range(full + 1))
            mnbc = n
        else:
            closed = closure_system(extents, full)
            mnbc = len(proper_irreducible_extents(extents, full))
        top = corpus.write(f"{tag}.json", topology_doc(n, closed))
        profile = {"code": 0, "class_count": len(closed) - 1, "mnbc": mnbc}
        hasse: dict = {"code": 0}
        if extents is None:
            profile.update({"mnwo": n, "width_s": comb(n, n // 2), "depth_s": n})
            hasse["edges"] = n << (n - 1)
        corpus.add(f"{tag}/complexity", ["complexity", "--topology", top], profile)
        corpus.add(f"{tag}/decompose-wo",
                   ["decompose", "--topology", top, "--kind", "weak-orders"],
                   {"code": 0, "count": {"ref": f"{tag}/complexity", "key": "mnwo"},
                    "generates": True, "pointwise_equal": True})
        corpus.add(f"{tag}/hasse", ["hasse", "--topology", top], hasse)
        corpus.add(f"{tag}/mobius", ["mobius", "--topology", top],
                   {"code": 0, "entries": comparable_pairs(closed)})
        corpus.add(f"{tag}/labels", ["labels", "--topology", top, "--canonical"],
                   {"code": 0, "label_count": len(closed) - 1})
    # Invalid: a dense family with one intersection missing.
    for j, n in enumerate((6, 7, 8, 7, 8, 9)):
        family, _ = _non_intersection_closed(rng, list(range(1 << n)))
        tag = f"open{j}-n{n}"
        path = corpus.write(f"{tag}.json", topology_doc(n, family))
        sub = ("complexity", "hasse", "mobius")[j % 3]
        corpus.add(f"{tag}/{sub}", [sub, "--topology", path], {"code": 1, "error": True})
    return corpus


def _weights(rng: random.Random, n: int) -> list[Fraction] | None:
    """Element weights for w(C) = Σ weights; None means w(C) = |C|."""
    if rng.random() < 0.5:
        return None
    return [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]


def menu_values(n: int, extents: list[int], weights) -> tuple[dict[int, Fraction], list[int]]:
    """U(A) = w(f(A)) for the labeling classifier f; also returns S(f)."""
    closed = closure_system(extents, (1 << n) - 1)
    images = images_of(closed, n)

    def w(bits: int) -> Fraction:
        if weights is None:
            return Fraction(bits.bit_count())
        return sum((weights[i] for i in range(n) if bits >> i & 1), Fraction(0))

    return {bits: w(images[bits]) for bits in range(1, 1 << n)}, closed


def axiom_pairs(n: int, extents: list[int]) -> int:
    """Pairs (A, B) with U(A ∪ B) = U(A), i.e. B ⊆ f(A), for U = w(f(A)) with
    w strictly increasing: the pairs whose C loop ``check_axioms`` enters."""
    closed = closure_system(extents, (1 << n) - 1)
    return sum(1 << image.bit_count() for image in images_of(closed, n)[1:])


def menu_prefs(seed: int, directory: str) -> Corpus:
    rng = random.Random(f"menu-prefs:{seed}")
    corpus = Corpus(directory)
    k = 0
    for n, count in MENU_VALID.items():
        for _ in range(count):
            extents, weights = typical_extents(rng, n, n, lambda e: axiom_pairs(n, e)), _weights(rng, n)
            values, closed = menu_values(n, extents, weights)
            tag = f"pref{k:02d}-n{n}"
            k += 1
            path = corpus.write(f"{tag}.json", preference_doc(n, values))
            corpus.add(f"{tag}/kreps",
                       ["menu-rep", "--preference", path, "--style", "kreps"],
                       {"code": 0, "aggregator": len(closed) - 1})
            corpus.add(f"{tag}/additive",
                       ["menu-rep", "--preference", path, "--style", "additive"],
                       {"code": 0, "state_count": 2 * (len(closed) - 1)})
    for j, n in enumerate(MENU_INVALID):
        full = (1 << n) - 1
        names = elements(n)
        if j % 2 == 0:
            # Flexibility: one singleton beats every menu containing it.
            extents = random_extents(rng, n, n)
            values, _ = menu_values(n, extents, None)
            x = 1 << rng.randrange(n)
            values[x] = max(values.values()) + 1
            hint = {"flexibility": [names_of(full, names), names_of(x, names)]}
        else:
            # Ordinal submodularity alone: U = |A| except U({x,y}) = U({x}),
            # so ({x}, {y}, {z}) is a witness while flexibility holds.
            x, y, z = (1 << i for i in rng.sample(range(n), 3))
            values = {bits: Fraction(bits.bit_count()) for bits in range(1, full + 1)}
            values[x | y] = values[x]
            hint = {"submodularity": [names_of(m, names) for m in (x, y, z)]}
        tag = f"bad{j}-n{n}"
        path = corpus.write(f"{tag}.json", preference_doc(n, values))
        for style in ("kreps", "additive"):
            corpus.add(f"{tag}/{style}",
                       ["menu-rep", "--preference", path, "--style", style],
                       {"code": 1, "ok": False, "witness": True}, hint)
    return corpus


BUILDERS = {
    "sparse-lattice": sparse_lattice,
    "dense-lattice": dense_lattice,
    "menu-prefs": menu_prefs,
}


def build(workload: str, seed: int, directory: str) -> Corpus:
    return BUILDERS[workload](seed, directory)


def ladder_call(workload: str, n: int, directory: str) -> dict:
    """The envelope call at size n, with its expected facts."""
    corpus = Corpus(directory)
    rng = random.Random(f"{LADDER_SEED}:{workload}:{n}")
    full = (1 << n) - 1
    tag = f"ladder-{workload}-n{n}"
    if workload == "sparse-lattice":
        extents = random_extents(rng, n, n)
        closed = closure_system(extents, full)
        path = corpus.write(f"{tag}.json", topology_doc(n, closed))
        expect = {"code": 0, "class_count": len(closed) - 1,
                  "mnbc": len(proper_irreducible_extents(extents, full))}
        argv = ["complexity", "--topology", path]
    elif workload == "dense-lattice":
        path = corpus.write(f"{tag}.json", topology_doc(n, list(range(full + 1))))
        expect = {"code": 0, "mnwo": n, "mnbc": n, "width_s": comb(n, n // 2),
                  "class_count": full}
        argv = ["complexity", "--topology", path]
    else:
        values, closed = menu_values(n, random_extents(rng, n, n), None)
        path = corpus.write(f"{tag}.json", preference_doc(n, values))
        expect = {"code": 0, "aggregator": len(closed) - 1}
        argv = ["menu-rep", "--preference", path, "--style", "kreps"]
    return {"id": tag, "argv": argv, "expect": expect}
