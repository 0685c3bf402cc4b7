"""Seeded input generators, written against plain ``Fraction`` pairs.

Nothing here imports ``goodmeasures`` or the test suite, so edits to either
cannot change what the benchmark feeds the package.  A number is a pair
``(q, c)`` standing for ``q + c*s2`` with ``s2 = sqrt(2) - 1``; over Q the
second component is zero.  Sign questions are decided algebraically
(``a + c*sqrt(2)`` against zero by comparing squares), not by enclosures.
"""

from __future__ import annotations

import random
from fractions import Fraction

Num = tuple[Fraction, Fraction]

ZERO: Num = (Fraction(0), Fraction(0))
ONE: Num = (Fraction(1), Fraction(0))

#: Z[1/2] + Z[1/2]*(sqrt(2)-1), intersected with [0,1].
SQRT2_DYADIC = {
    "rational": {"default": "0", "exceptions": {"2": "inf"}},
    "irrationals": [
        {
            "name": "s2",
            "enclosure": {"kind": "sqrt", "radicand": 2, "shift": "-1"},
            "group": {"default": "0", "exceptions": {"2": "inf"}},
        }
    ],
}

#: All rationals in [0,1].
RATIONALS = {"rational": {"default": "inf", "exceptions": {}}, "irrationals": []}


# -- arithmetic --------------------------------------------------------------


def add(a: Num, b: Num) -> Num:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Num, b: Num) -> Num:
    return (a[0] - b[0], a[1] - b[1])


def sign(v: Num) -> int:
    """Exact sign of q + c*(sqrt(2)-1) = (q - c) + c*sqrt(2)."""
    a, c = v[0] - v[1], v[1]
    sa = (a > 0) - (a < 0)
    sc = (c > 0) - (c < 0)
    if sc == 0 or sa == sc:
        return sa or sc
    if sa == 0:
        return sc
    # opposite signs: the larger square wins
    if a * a > 2 * c * c:
        return sa
    return sc


def total(values) -> Num:
    acc = ZERO
    for v in values:
        acc = add(acc, v)
    return acc


def num_json(v: Num) -> dict:
    out = {"q": _fmt(v[0])}
    if v[1]:
        out["irr"] = {"s2": _fmt(v[1])}
    return out


def num_from_json(d: dict) -> Num:
    irr = d.get("irr", {})
    if set(irr) - {"s2"}:
        raise ValueError(f"unexpected symbols {sorted(irr)}")
    return (Fraction(d["q"]), Fraction(irr.get("s2", "0")))


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- value pools and object challenges --------------------------------------------


def value_pool(rng: random.Random, size: int) -> list[Num]:
    """Distinct values q + c*s2 in (0,1) with dyadic q, c of denominator <= 8."""
    out: set[Num] = set()
    while len(out) < size:
        den = 1 << rng.randint(0, 3)
        v = (Fraction(rng.randint(-8, 8), den), Fraction(rng.randint(-4, 4), den))
        if sign(v) > 0 and sign(sub(ONE, v)) > 0:
            out.add(v)
    return sorted(out)


def object_challenge(rng: random.Random, pool: list[Num], parts: int) -> list[Num]:
    """Weights of a partition of the whole space into at most ``parts`` cells,
    made by splitting pool values off seeded cells."""
    out = [ONE]
    for _ in range(4 * parts):
        if len(out) >= parts:
            break
        i = rng.randrange(len(out))
        options = [v for v in pool if sign(sub(out[i], v)) > 0]
        if options:
            a = rng.choice(options)
            out[i: i + 1] = [a, sub(out[i], a)]
    return out


# -- the Q tower ----------------------------------------------------------------------


_SPLITS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4),
           Fraction(2, 5), Fraction(3, 5)]


def q_tower_snapshot(rng: random.Random, depth: int) -> dict:
    """Snapshot JSON of a chain over Q: each of ``depth`` levels splits one top
    cell in two by a seeded ratio, so the top has depth + 1 cells.  Cells are
    split oldest first, so every seed gives a tower of the same shape and
    only the weights differ."""
    top: list[tuple[str, Fraction]] = [("r", Fraction(1))]
    levels = [top]
    links = []
    queue = ["r"]
    for _ in range(depth):
        i = [c for c, _ in top].index(queue.pop(0))
        cid, w = top[i]
        f = rng.choice(_SPLITS)
        kids = [(f"{cid}/0", w * f), (f"{cid}/1", w * (1 - f))]
        link = {c: c for c, _ in top if c != cid}
        link.update({k: cid for k, _ in kids})
        top = top[:i] + kids + top[i + 1:]
        queue += [k for k, _ in kids]
        levels.append(top)
        links.append(link)
    return {
        "descriptor": RATIONALS,
        "levels": [
            {
                "cells": [{"id": c, "w": num_json((w, Fraction(0)))} for c, w in lvl],
                "total": {"q": "1"},
            }
            for lvl in levels
        ],
        "links": [{"map": dict(sorted(m.items()))} for m in links],
        "ledger": [],
    }


# -- matrices, permutations, clopen pairs ------------------------------------------------


def balanced_matrix(
    rng: random.Random, cells: list[tuple[str, Num]], moves: int, pool: list[Num]
) -> dict[tuple[str, str], Num]:
    """Start from the diagonal and rotate mass around random 2- and 3-cycles;
    row and column sums stay equal to the cell weights."""
    entries = {(c, c): w for c, w in cells}
    ids = [c for c, _ in cells]
    for _ in range(moves):
        if len(ids) < 2:
            break
        k = rng.choice([2, 2, 3]) if len(ids) >= 3 else 2
        ring = rng.sample(ids, k)
        cap = min((entries.get((c, c), ZERO) for c in ring), key=_SortKey)
        options = [v for v in pool if sign(sub(cap, v)) >= 0]
        if sign(cap) <= 0 or not options:
            continue
        delta = rng.choice(options)
        for i, c in enumerate(ring):
            nxt = ring[(i + 1) % k]
            entries[(c, c)] = sub(entries[(c, c)], delta)
            entries[(c, nxt)] = add(entries.get((c, nxt), ZERO), delta)
        entries = {e: w for e, w in entries.items() if sign(w) > 0}
    return entries


def fraction_pool(cells: list[tuple[str, Num]], divisors: tuple[int, ...]) -> list[Num]:
    """The given weights divided by each divisor: masses that always fit under
    some diagonal entry, and stay in V when V is closed under the divisors."""
    out = set()
    for _, w in cells:
        for d in divisors:
            out.add((w[0] / d, w[1] / d))
    return sorted(out)


def matrix_json(level: int, entries: dict[tuple[str, str], Num]) -> dict:
    return {
        "level": level,
        "entries": [
            {"from": a, "to": b, "w": num_json(w)} for (a, b), w in sorted(entries.items())
        ],
    }


def fiber_permutation(
    rng: random.Random, top: list[tuple[str, Num]], group_of: dict[str, str]
) -> dict[str, str]:
    """A weight-preserving permutation of the top cells that moves cells only
    within the fibers given by ``group_of`` (a rotation of each equal-weight
    class, in seeded order)."""
    classes: dict[tuple[str, Num], list[str]] = {}
    for c, w in top:
        classes.setdefault((group_of[c], w), []).append(c)
    mapping = {}
    for members in classes.values():
        rng.shuffle(members)
        for x, y in zip(members, members[1:] + members[:1]):
            mapping[x] = y
    return mapping


def clopen_pair(
    rng: random.Random, cells: list[tuple[str, Num]]
) -> tuple[list[str], list[str]]:
    """Cell sets U and W of one level with measure(U) < measure(W)."""
    ids = [c for c, _ in cells]
    weight = dict(cells)
    while True:
        W = rng.sample(ids, rng.randint(2, len(ids)))
        U = rng.sample(ids, rng.randint(1, len(ids) - 1))
        if sign(sub(total(weight[c] for c in W), total(weight[c] for c in U))) > 0:
            return sorted(U), sorted(W)


class _SortKey:
    """Exact ordering of numbers for ``min``/``sorted``."""

    def __init__(self, v: Num) -> None:
        self.v = v

    def __lt__(self, other: "_SortKey") -> bool:
        return sign(sub(self.v, other.v)) < 0
