"""Measured clopen partitions, their morphisms, and amalgamation.

Objects are finite partitions with positive weights from a group-like value
set; morphisms are mass-preserving surjections of cells.  The common
refinement of two equal-sum weight tuples is computed by the deterministic
peel-the-last-entry induction, and amalgamation of a cospan is assembled
cellwise over the common target from such refinements.

Public functions check their arguments.  The kernels ``refine_fibers``,
``lift_edges`` and ``amalgamate_valid`` check nothing: they only see checked
or derived data, and each states the precondition it relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import SumMismatch
from .values import ExactValue, GroupDescriptor, ZERO, check_all_in


@dataclass(frozen=True)
class WeightedPartition:
    """Ordered cells with positive weights; ``total`` is their exact sum."""

    cells: tuple[str, ...]
    weights: Mapping[str, ExactValue]
    total: ExactValue = field(init=False)

    def __post_init__(self):
        if not self.cells:
            raise ValueError("partitions must be nonempty")
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("cell identifiers must be unique")
        if set(self.cells) != set(self.weights):
            raise ValueError("cells and weights disagree")
        total = ZERO
        for c in self.cells:
            w = self.weights[c]
            if w.sign() <= 0:
                raise ValueError(f"weight of {c} must be positive")
            total = total + w
        object.__setattr__(self, "total", total)

    @staticmethod
    def make(weights: Sequence[tuple[str, ExactValue]]) -> "WeightedPartition":
        return WeightedPartition(tuple(c for c, _ in weights), dict(weights))

    def weight(self, cell: str) -> ExactValue:
        return self.weights[cell]

    def weight_list(self) -> list[ExactValue]:
        return [self.weights[c] for c in self.cells]

    def sorted_weight_key(self):
        return tuple(sorted(w.sort_key() for w in self.weight_list()))

    def to_json(self) -> dict:
        return {
            "cells": [{"id": c, "w": self.weights[c].to_json()} for c in self.cells],
            "total": self.total.to_json(),
        }

    @staticmethod
    def from_json(data: Mapping, symbols, memo: dict | None = None) -> "WeightedPartition":
        """The partition of data.  ``memo``, kept for one snapshot, maps the
        repr of a weight's JSON to its value, so that each distinct weight is
        parsed once and its value shared.  The repr keeps JSON types apart
        where a dict key would not: ``1 == True``, but ``"1" != "True"``."""
        if memo is None:
            memo = {}
        cells = []
        for e in data["cells"]:
            w = e["w"]
            key = repr(w)
            value = memo.get(key)
            if value is None:
                value = memo[key] = ExactValue.from_json(w, symbols)
            cells.append((e["id"], value))
        return WeightedPartition.make(cells)


@dataclass(frozen=True)
class PartitionMorphism:
    """A surjection of cells from source to target."""

    source: WeightedPartition
    target: WeightedPartition
    mapping: Mapping[str, str]

    def fibers(self) -> dict[str, list[str]]:
        """The source cells over each target cell, in source order, in one pass."""
        out: dict[str, list[str]] = {x: [] for x in self.target.cells}
        for c in self.source.cells:
            out[self.mapping[c]].append(c)
        return out

    def to_json(self) -> dict:
        return {"map": {c: self.mapping[c] for c in self.source.cells}}


def verify_morphism(m: PartitionMorphism) -> bool:
    """True iff the map is a well-defined, surjective, mass-preserving cell map."""
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


def compose(outer: PartitionMorphism, inner: PartitionMorphism) -> PartitionMorphism:
    """outer ∘ inner, requiring inner.target is outer.source."""
    if inner.target is not outer.source and inner.target.cells != outer.source.cells:
        raise ValueError("morphisms are not composable")
    return PartitionMorphism(
        inner.source, outer.target, {c: outer.mapping[inner.mapping[c]] for c in inner.source.cells}
    )


def identity(P: WeightedPartition) -> PartitionMorphism:
    return PartitionMorphism(P, P, {c: c for c in P.cells})


# ---------------------------------------------------------------------------
# common refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonRefinement:
    """Parts z_1..z_m with a block per left entry and a block per right entry.

    Blocks hold 0-based part indices; the s-th part contributes to exactly one
    left block and one right block, and blockwise sums reproduce the inputs.
    """

    parts: tuple[ExactValue, ...]
    left_blocks: tuple[tuple[int, ...], ...]
    right_blocks: tuple[tuple[int, ...], ...]


def common_refinement(
    left: Sequence[ExactValue], right: Sequence[ExactValue], V: GroupDescriptor
) -> CommonRefinement:
    """Joint refinement of two equal-sum tuples of positive V-values.

    Follows the induction on the combined length: compare the last entries,
    peel both when they are equal, otherwise subtract the smaller from the
    larger and peel the smaller.  Output has at most len(left)+len(right)-1
    parts, all in V.
    """
    if not left or not right:
        raise ValueError("tuples must be nonempty")
    check_all_in(left, V, "left entry")
    check_all_in(right, V, "right entry")
    sl = sum(left[1:], left[0])
    sr = sum(right[1:], right[0])
    if sl != sr:
        raise SumMismatch(f"left sums to {sl}, right sums to {sr}")
    parts = _refine(left, right)
    lb: list[list[int]] = [[] for _ in left]
    rb: list[list[int]] = [[] for _ in right]
    for s, (_, i, j) in enumerate(parts):
        lb[i].append(s)
        rb[j].append(s)
    return CommonRefinement(
        tuple(w for w, _, _ in parts), tuple(map(tuple, lb)), tuple(map(tuple, rb))
    )


def _refine(left, right) -> list[tuple[ExactValue, int, int]]:
    """The induction as a loop: (part, left index, right index) in part order.

    The parts of the base case (one side down to a single entry) come first,
    then the peeled parts in reverse peeling order, so part indices are those
    of the inductive construction and every block comes out ascending.
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


def refine_fibers(
    left: Sequence[tuple[str, ExactValue]], right: Sequence[tuple[str, ExactValue]]
) -> list[tuple[str, str, ExactValue]]:
    """Common refinement of two equal-mass fibers given as (cell, weight) lists.

    Lists (left cell, right cell, part) in part order.  Precondition: both
    sides are nonempty, their weights are positive V-values and their sums
    are equal; the caller guarantees this, nothing here re-checks it.  Each
    part is an input weight or a difference a - b of two V-values with
    b < a, so it stays in V because V is group-like.
    """
    parts = _refine([w for _, w in left], [w for _, w in right])
    return [(left[i][0], right[j][0], w) for w, i, j in parts]


def lift_edges(
    p: PartitionMorphism, edges: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], ExactValue]:
    """Entries on p's source lifting edges between cells of p's target.

    For each edge (c, d) the fibers of c and d are refined jointly and each
    part adds its weight to the entry of its (left cell, right cell).
    Precondition: p is a valid morphism and every edge joins two cells of
    equal weight, so the two fibers have equal mass (``refine_fibers``).
    """
    R = p.source
    fibers = p.fibers()
    entries: dict[tuple[str, str], ExactValue] = {}
    for c, d in edges:
        ys = [(y, R.weight(y)) for y in fibers[c]]
        zs = [(z, R.weight(z)) for z in fibers[d]]
        for y, z, w in refine_fibers(ys, zs):
            entries[(y, z)] = entries.get((y, z), ZERO) + w
    return entries


# ---------------------------------------------------------------------------
# amalgamation and splitting
# ---------------------------------------------------------------------------


def _child_ids(parent: str, count: int) -> list[str]:
    if count == 1:
        return [parent]
    return [f"{parent}/{i}" for i in range(count)]


def amalgamate(
    f1: PartitionMorphism, f2: PartitionMorphism, V: GroupDescriptor
) -> tuple[WeightedPartition, PartitionMorphism, PartitionMorphism]:
    """Amalgamate a cospan f1: E1 -> F <- E2 :f2 into (G, p1: G -> E1, p2: G -> E2).

    Checks that both maps are valid morphisms onto one shared target and
    that every source weight lies in V, then builds the amalgam with
    ``amalgamate_valid``.
    """
    if not verify_morphism(f1) or not verify_morphism(f2):
        raise ValueError("amalgamation needs valid morphisms")
    if f1.target.cells != f2.target.cells:
        raise ValueError("morphisms must share their target")
    check_all_in(f1.source.weight_list(), V, "left entry")
    check_all_in(f2.source.weight_list(), V, "right entry")
    return amalgamate_valid(f1, f2)


def amalgamate_valid(
    f1: PartitionMorphism, f2: PartitionMorphism
) -> tuple[WeightedPartition, PartitionMorphism, PartitionMorphism]:
    """The amalgam of a cospan of valid morphisms with V-valued sources.

    Each fiber of F is refined jointly via ``refine_fibers``: both fibers of
    a target cell carry its weight, so their masses agree, and every cell of
    G is a refinement part, hence in V.  The square f1 ∘ p1 = f2 ∘ p2
    commutes exactly by construction.  New cells are named after their
    p1-image, one suffix per sibling, so chains built onto E1 keep a
    readable refinement history.
    """
    cells: list[tuple[str, ExactValue]] = []
    m1: dict[str, str] = {}
    m2: dict[str, str] = {}
    pending: dict[str, list[tuple[ExactValue, str]]] = {y: [] for y in f1.source.cells}
    fibers1, fibers2 = f1.fibers(), f2.fibers()
    for x in f1.target.cells:
        ys = [(y, f1.source.weight(y)) for y in fibers1[x]]
        zs = [(z, f2.source.weight(z)) for z in fibers2[x]]
        for y, z, w in refine_fibers(ys, zs):
            pending[y].append((w, z))
    for y in f1.source.cells:
        group = pending[y]
        ids = _child_ids(y, len(group))
        for cid, (w, z) in zip(ids, group):
            cells.append((cid, w))
            m1[cid] = y
            m2[cid] = z
    G = WeightedPartition.make(cells)
    p1 = PartitionMorphism(G, f1.source, m1)
    p2 = PartitionMorphism(G, f2.source, m2)
    return G, p1, p2


def split_cell(
    P: WeightedPartition, cell: str, parts: Sequence[ExactValue], V: GroupDescriptor
) -> tuple[WeightedPartition, PartitionMorphism]:
    """Replace one cell by new cells carrying the given weights.

    Returns the refined partition and the merge morphism back onto P.
    """
    if cell not in P.weights:
        raise ValueError(f"no cell {cell!r}")
    check_all_in(parts, V, "part")
    total = sum(parts[1:], parts[0])
    if total != P.weight(cell):
        raise SumMismatch(f"parts sum to {total}, cell has weight {P.weight(cell)}")
    new_cells: list[tuple[str, ExactValue]] = []
    mapping: dict[str, str] = {}
    for c in P.cells:
        if c == cell:
            for cid, w in zip(_child_ids(cell, len(parts)), parts):
                new_cells.append((cid, w))
                mapping[cid] = cell
        else:
            new_cells.append((c, P.weight(c)))
            mapping[c] = c
    R = WeightedPartition.make(new_cells)
    return R, PartitionMorphism(R, P, mapping)
