"""Brute-force oracles the tests check the engine against.

Each one is independent of the construction it checks: it enumerates or
searches where the engine decides in closed form or by induction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from goodmeasures.partitions import PartitionMorphism, WeightedPartition, _assemble
from goodmeasures.values import ExactValue, GroupDescriptor, ONE, ZERO


def refinement_feasible(
    parts: Sequence[ExactValue], targets: Sequence[ExactValue], limit: int = 200_000
) -> bool:
    """Brute-force check that the parts can be grouped into blocks with the
    given sums.  Independent of the inductive construction; used as an oracle.
    """
    order = sorted(range(len(parts)), key=lambda i: parts[i].sort_key(), reverse=True)
    remaining = [targets[j] for j in range(len(targets))]
    budget = [limit]

    def place(pos: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("feasibility search budget exhausted")
        if pos == len(order):
            return all(r == ZERO for r in remaining)
        p = parts[order[pos]]
        seen = set()
        for j in range(len(remaining)):
            key = remaining[j]
            if key in seen:
                continue
            seen.add(key)
            if remaining[j] >= p:
                remaining[j] = remaining[j] - p
                if place(pos + 1):
                    return True
                remaining[j] = remaining[j] + p
        return False

    return place(0)


def sampled_closure_violations(V: GroupDescriptor, samples: int) -> list[dict]:
    """Sampled closure test of Q = {n : 1/n in V} and of division of V by Q.

    Tries the first ``samples`` members of Q (searched up to 16 * samples + 64)
    against each other and against the first ``samples`` enumerated values of
    V, and reports every pair that leaves V.  It can miss violations, never
    invent one, so it is a soundness reference for the exact decision.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    qs: list[int] = []
    n = 2
    while len(qs) < samples and n <= 16 * samples + 64:
        if V.member(ExactValue.of(Fraction(1, n))):
            qs.append(n)
        n += 1
    budget = 4
    vals = V.enumerate_values(budget)
    while len(vals) < samples and budget < 64:
        budget *= 2
        vals = V.enumerate_values(budget)
    vals = vals[:samples]
    violations: list[dict] = []
    for i, a in enumerate(qs):
        for b in qs[i:]:
            if not V.member(ExactValue.of(Fraction(1, a * b))):
                violations.append({"kind": "product", "n": a, "m": b})
    for v in vals:
        for a in qs:
            if not V.member(v.scale(Fraction(1, a))):
                violations.append({"kind": "quotient", "v": v.to_json(), "n": a})
    return violations


def index_sums_to_one(
    values: list[ExactValue], lo: int, acc: ExactValue, room: int
) -> Iterator[tuple[int, ...]]:
    """Index tuples lo <= i1 <= i2 <= ... of at most ``room`` entries with
    acc + values[i1] + values[i2] + ... == 1, depth first.

    The engine's former enumeration of object challenges: every partial sum
    is an ``ExactValue``, and ``> 1`` is decided afresh for each one.  The
    reference for the packed-integer enumeration ``chain._sums_to_one``.
    """
    for i in range(lo, len(values)):
        nxt = acc + values[i]
        if nxt == ONE:
            yield (i,)
        elif room > 1 and not nxt > ONE:
            for rest in index_sums_to_one(values, i, nxt, room - 1):
                yield (i, *rest)


def peel_refinement(left, right) -> list[tuple[ExactValue, int, int]]:
    """The common refinement by the induction on the combined length, as a
    loop: (part, left index, right index) in part order.

    Compare the last entries, peel both when they are equal, otherwise
    subtract the smaller from the larger and peel the smaller.  The parts of
    the base case (one side down to a single entry) come first, then the
    peeled parts in reverse peeling order, so part indices are those of the
    inductive construction and every block comes out ascending.  The engine's
    former refinement kernel; the reference for ``partitions._refine``.
    """
    left, right = list(left), list(right)
    peeled = []
    while len(left) > 1 and len(right) > 1:
        i, j = len(left) - 1, len(right) - 1
        a, b = left[i], right[j]
        if a == b:
            peeled.append((a, i, j))
            left.pop()
            right.pop()
            continue
        # one difference decides the order and is the remainder; -d keeps its sign
        d = a - b
        if ZERO < d:
            peeled.append((b, i, j))
            left[i] = d
            right.pop()
        else:
            peeled.append((a, i, j))
            right[j] = -d
            left.pop()
    if len(left) == 1:
        base = [(w, 0, j) for j, w in enumerate(right)]
    else:
        base = [(w, i, 0) for i, w in enumerate(left)]
    return base + peeled[::-1]


def peel_amalgam(
    f1: PartitionMorphism, f2: PartitionMorphism
) -> tuple[WeightedPartition, PartitionMorphism, PartitionMorphism]:
    """The amalgam of a cospan of valid morphisms, each fiber refined by
    ``peel_refinement`` and assembled as the engine assembles its own."""
    w1, w2 = f1.source.weights, f2.source.weights
    fibers1, fibers2 = f1.fibers(), f2.fibers()
    refined = []
    for x in f1.target.cells:
        ys, zs = fibers1[x], fibers2[x]
        refined.append((ys, zs, peel_refinement([w1[y] for y in ys], [w2[z] for z in zs])))
    return _assemble(f1.source, f2.source, refined)


def morphism_by_sets(m: PartitionMorphism) -> bool:
    """True iff the map is a well-defined, surjective, mass-preserving cell
    map, decided by comparing the key and image sets and then adding each
    fiber's values.  The engine's former ``verify_morphism``; the reference
    for ``partitions.maps_onto``.
    """
    if set(m.mapping) != set(m.source.cells):
        return False
    if set(m.mapping.values()) != set(m.target.cells):
        return False
    weight = m.source.weights
    for x, (first, *rest) in m.fibers().items():
        s = weight[first]
        for y in rest:
            s = s + weight[y]
        if s != m.target.weight(x):
            return False
    return True
