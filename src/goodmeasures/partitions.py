"""Measured clopen partitions, their morphisms, and amalgamation.

Objects are finite partitions with positive weights from a group-like value
set; morphisms are mass-preserving surjections of cells.  Two equal-sum
weight tuples are refined jointly as intervals of one mass: each cumulative
sum of one is placed among the other's (``_place``) and the pieces between
breakpoints are read off in order (``_parts``).  Every derived level (an
amalgam, a split, a cycle split) is built by one kernel, ``_subdivide``,
from the cells it cuts: every stretch of uncut cells is copied by slices,
each an only child that keeps its parent's id and weight, and only the
pieces of a cut cell are walked and, over a packed table, read back.

Public functions and ``WeightedPartition.make`` check their arguments.  The
kernels ``lift_edges``, ``_refine``, ``_place``, ``_parts`` and
``_subdivide`` check nothing: they only see checked or derived data, and each
states the precondition it relies on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .errors import SumMismatch
from .jsonutil import parse_object
from .values import ExactValue, GroupDescriptor, PackedValues, ZERO, check_all_in


@dataclass(frozen=True)
class WeightedPartition:
    """Ordered cells with positive weights; ``total`` is their exact sum.  The
    constructor checks nothing; ``make`` and ``from_json`` check partitions
    from outside."""

    cells: tuple[str, ...]
    weights: Mapping[str, ExactValue]

    @staticmethod
    def make(weights: Sequence[tuple[str, ExactValue]]) -> "WeightedPartition":
        """Nonempty, with unique ids and positive weights, or ValueError."""
        return _checked(weights, weights)

    @cached_property
    def total(self) -> ExactValue:
        return sum(self.weight_list(), ZERO)

    def weight(self, cell: str) -> ExactValue:
        return self.weights[cell]

    def weight_list(self) -> list[ExactValue]:
        return [self.weights[c] for c in self.cells]

    def sorted_weight_key(self):
        return tuple(sorted([w.sort_key() for w in self.weights.values()]))

    def to_json(self) -> dict:
        return {
            "cells": [{"id": c, "w": self.weights[c].to_json()} for c in self.cells],
            "total": self.total.to_json(),
        }

    @staticmethod
    def from_json(
        data: Mapping, symbols, memo: dict, what: str = "partition"
    ) -> "WeightedPartition":
        """The partition of data, whose cells are a JSON array, refused as
        ``make`` refuses (``_checked``); a cell that is not a JSON object is
        refused by a one-line ValueError naming ``what`` and the cell's index.

        ``memo``, kept for one snapshot, maps the repr of a weight's JSON to
        its value, so that each distinct weight is parsed, and its sign
        checked, once, and its value shared; a cell only looks its weight up.
        The weights new to the memo enter it once their partition is
        accepted, so it holds positive weights only.  The repr keeps JSON
        types apart where a dict key would not: ``1 == True``, but
        ``"1" != "True"``.  The cells are not tested one by one: a cell that
        is not an object raises TypeError where it is read, and only then
        is that cell named."""
        cells = []
        fresh: dict = {}  # repr -> (first cell, value) of each weight new to the memo
        try:
            for e in data["cells"]:
                w = e["w"]
                key = repr(w)
                value = memo.get(key)
                if value is None:
                    first = fresh.get(key)
                    if first is None:
                        value = ExactValue.from_json(w, symbols)
                        fresh[key] = (e["id"], value)
                    else:
                        value = first[1]
                cells.append((e["id"], value))
        except TypeError:
            k = len(cells)  # the cell being read
            parse_object(data["cells"][k], f"{what} cell {k}")
            raise
        P = _checked(cells, fresh.values())
        memo.update((key, value) for key, (_, value) in fresh.items())
        return P


def _checked(cells: Sequence[tuple[str, ExactValue]], unchecked) -> WeightedPartition:
    """The partition of (id, weight) pairs, or the ValueError of its first
    fault: no cell, then a repeated id, then the first of the ``unchecked``
    (id, weight) pairs, in cell order, whose weight is not positive.  The
    other cells carry weights already known to be positive."""
    if not cells:
        raise ValueError("partitions must be nonempty")
    weights = dict(cells)
    if len(weights) != len(cells):
        raise ValueError("cell identifiers must be unique")
    for c, w in unchecked:
        if w.sign() <= 0:
            raise ValueError(f"weight of {c} must be positive")
    return WeightedPartition(tuple(weights), weights)


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

    def fiber_positions(self) -> dict[str, list[int]]:
        """``fibers`` as the positions of those cells in the source."""
        out: dict[str, list[int]] = {x: [] for x in self.target.cells}
        mapping = self.mapping
        for i, c in enumerate(self.source.cells):
            out[mapping[c]].append(i)
        return out

    def to_json(self) -> dict:
        return {"map": {c: self.mapping[c] for c in self.source.cells}}


def verify_morphism(m: PartitionMorphism) -> bool:
    """True iff the map is a well-defined, surjective, mass-preserving cell map."""
    return maps_onto(m.mapping, m.source.weights, m.target.weights)


def maps_onto(mapping: Mapping, source: Mapping, target: dict) -> bool:
    """True iff ``mapping`` is defined on exactly the cells of ``source`` and
    its ``pushforward`` is the dict ``target``: the image is exactly the
    target's cells, and the weights over each sum to its weight.  A target
    cell with no preimage fails whatever its weight."""
    return pushforward(mapping, source) == target


def positions_onto(positions: Sequence, source: Sequence, target: Sequence) -> bool:
    """``maps_onto`` for a map held as positions: True iff ``positions``
    gives, for each entry of the weight list ``source``, the position of
    its image in the weight list ``target``, every target entry is an
    image, and the weights over each sum to it.  A position out of range
    names no target entry and fails.  Weights as in ``pushforward``."""
    return len(positions) == len(source) and (
        _image_sums(zip(positions, source)) == dict(enumerate(target))
    )


def pushforward(mapping: Mapping, source: Mapping) -> dict | None:
    """The mass ``mapping`` carries onto each image cell, in the order the
    images first appear, or None unless it is defined on exactly the cells
    of ``source``.

    ``source`` maps cells to weights that add and compare exactly:
    ``ExactValue``s, or the packed ints of one ``PackedValues`` whose
    ``room`` is at least the number of source cells, so that no sum carries.
    """
    if len(mapping) != len(source):
        return None
    return _image_sums(zip(mapping.values(), map(source.get, mapping)))


def _image_sums(pairs: Iterable[tuple]) -> dict | None:
    """The sum of the weights paired with each image, in the order the
    images first appear, or None if a weight is None (its cell is not a
    source cell).  Every mass identity of the package is summed here."""
    sums: dict = {}
    get = sums.get
    for x, w in pairs:
        if w is None:
            return None
        s = get(x)
        sums[x] = w if s is None else s + w
    return sums


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

    Both tuples are laid out as consecutive intervals of [0, total); the
    parts are the pieces between consecutive breakpoints of either side, in
    interval order.  Output has at most len(left)+len(right)-1 parts, each
    an input entry or the difference of two cumulative sums, so all in V.
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


def _refine(left, right, pv: PackedValues | None = None) -> list[tuple[ExactValue, int, int]]:
    """(part, left index, right index) in interval order; a one-entry side
    is cut by all of the other's breakpoints.  Precondition: see ``_place``."""
    if len(left) == 1:
        return [(w, 0, j) for j, w in enumerate(right)]
    if len(right) == 1:
        return [(w, i, 0) for i, w in enumerate(left)]
    sums, index = _cumulative(left)
    return _parts(left, right, sums, _place(sums, index, right, pv))


def _cumulative(weights) -> tuple[list[ExactValue], dict[ExactValue, int]]:
    """The increasing cumulative sums of positive weights, and each sum
    mapped to the number of entries it covers."""
    sums = list(accumulate(weights))
    return sums, {s: n for n, s in enumerate(sums, 1)}


def _place(
    sums, index, right, pv: PackedValues | None = None
) -> list[tuple[int, ExactValue | None]]:
    """Where each cumulative sum of ``right`` lies among a left tuple's
    ``_cumulative`` sums: (n, None) when it is the n-th, found in ``index``
    with no comparison, or (n, sum) when it cuts left entry n (0-based),
    found by bisection.  Precondition: both tuples are nonempty, of positive
    V-values and equal totals; every part is then in V, as V is group-like.

    The weights are ``ExactValue``s, or the packed ints of the table pv
    with room for both tuples together, bisected by ``pv.bisect``.
    """
    out: list[tuple[int, ExactValue | None]] = []
    lo, hi = 0, len(sums) - 1  # every sum before the last lies below the total
    bisect = bisect_right if pv is None else pv.bisect
    for acc in accumulate(right[:-1]):
        n = index.get(acc)
        if n is None:
            lo = bisect(sums, acc, lo, hi)
            out.append((lo, acc))
        else:
            lo = n
            out.append((n, None))
    out.append((len(sums), None))
    return out


def _parts(left, right, sums, places) -> list[tuple[ExactValue, int, int]]:
    """(part, left index, right index) in interval order from ``_place``: a
    piece between two breakpoints of one side is that side's entry, any
    other a difference of two cumulative sums."""
    out: list[tuple[ExactValue, int, int]] = []
    i, cut = 0, None  # the left entry the next piece starts in, and where it was cut
    for j, (n, acc) in enumerate(places):
        for k in range(i, n):  # left entries ending at or before this right sum
            if k > i or cut is None:
                w = left[k]
            elif acc is None and k == n - 1:
                w = right[j]
            else:
                w = sums[k] - cut
            out.append((w, k, j))
        if acc is not None:  # this right sum cuts left entry n
            out.append((right[j] if n == i else acc - sums[n - 1], n, j))
        i, cut = n, acc
    return out


def lift_edges(
    p: PartitionMorphism,
    edges: Iterable[tuple[str, str]],
    weight: Mapping[str, int],
    pv: PackedValues,
) -> dict[tuple[str, str], int]:
    """Entries on p's source lifting edges between cells of p's target, as
    packed ints of the table pv.

    For each edge (c, d) the fibers of c and d are refined jointly and each
    part adds its weight to the entry of its (left cell, right cell).
    ``weight`` holds p's source weights as pv's packed ints, and pv has room
    for twice the source's cells.  Precondition: p is a valid morphism and
    every edge joins two cells of equal weight, so the two fibers have equal
    mass (``_refine``).
    """
    fibers = p.fibers()
    entries: dict[tuple[str, str], int] = {}
    for c, d in edges:
        ys, zs = fibers[c], fibers[d]
        for w, i, j in _refine([weight[y] for y in ys], [weight[z] for z in zs], pv):
            entries[(ys[i], zs[j])] = entries.get((ys[i], zs[j]), 0) + w
    return entries


# ---------------------------------------------------------------------------
# amalgamation and splitting
# ---------------------------------------------------------------------------


def _subdivide(
    P: WeightedPartition,
    cuts: Iterable[tuple[int, Sequence]],
    pv: PackedValues | None = None,
    packed: Sequence[int] = (),
) -> tuple[WeightedPartition, list[str], list[int] | None]:
    """The partition that cuts P's cells as ``cuts`` says, the parent in P
    of each of its cells, and with pv each cell's packed int, in cell order.

    ``cuts`` lists (position in P, pieces) pairs in P's order, each with
    at least two pieces.  A cell it does not name is an only child, which
    keeps its id and its weight object; a cut cell c has the children
    ``c/0``, ``c/1``, ... carrying its pieces.  Every stretch of uncut
    cells is copied by slices: their ids, which are also their parents,
    their weights and, with pv, their ints in ``packed``, P's packed ints in
    cell order.  Only the pieces are walked one by one, so an append costs
    Python steps per piece of a cut cell, not per cell.  With pv the
    pieces are pv's packed ints, and only they are read back, in order.  A
    P holding both c and c/0 is refused as ``_checked`` refuses a repeated
    id.  Precondition: each cut cell's pieces are positive V-values summing
    to its weight."""
    cells = P.cells
    cell_weights = list(map(P.weights.__getitem__, cells))
    ids: list[str] = []
    up: list[str] = []
    ws: list[ExactValue] = []
    given = None if pv is None else []
    unpack = None if pv is None else pv.unpack
    start = 0  # the first cell not yet copied
    for k, pieces in cuts:
        if start < k:
            ids += cells[start:k]
            up += cells[start:k]
            ws += cell_weights[start:k]
            if given is not None:
                given += packed[start:k]
        c = cells[k]
        for i, w in enumerate(pieces):
            ids.append(f"{c}/{i}")
            up.append(c)
            ws.append(w if unpack is None else unpack(w))
        if given is not None:
            given += pieces
        start = k + 1
    ids += cells[start:]
    up += cells[start:]
    ws += cell_weights[start:]
    if given is not None:
        given += packed[start:]
    weights = dict(zip(ids, ws))
    if len(weights) != len(ids):  # P held both c and c/0
        raise ValueError("cell identifiers must be unique")
    return WeightedPartition(tuple(ids), weights), up, given


def amalgamate(
    f1: PartitionMorphism, f2: PartitionMorphism, V: GroupDescriptor
) -> tuple[WeightedPartition, PartitionMorphism, PartitionMorphism]:
    """Amalgamate a cospan f1: E1 -> F <- E2 :f2 into (G, p1: G -> E1, p2: G -> E2).

    Checks that both maps are valid morphisms onto one shared target and
    that every source weight lies in V.  Both fibers of a cell of F carry
    its weight, so each pair is refined jointly (``_refine``).  Each part
    (w, i, j) is a cell of weight w over E1's cell ys[i] and E2's cell
    zs[j]: gathered per cell of E1, each cell's parts in interval order,
    a cell with several parts is cut into them (``_subdivide``), and the
    square commutes.
    """
    if not verify_morphism(f1) or not verify_morphism(f2):
        raise ValueError("amalgamation needs valid morphisms")
    if f1.target.cells != f2.target.cells:
        raise ValueError("morphisms must share their target")
    w1, w2 = f1.source.weight_list(), f2.source.weight_list()
    check_all_in(w1, V, "left entry")
    check_all_in(w2, V, "right entry")
    fibers1, fibers2 = f1.fiber_positions(), f2.fiber_positions()
    pieces: list[list[ExactValue]] = [[] for _ in w1]  # per cell of E1: its parts' weights
    images: list[list[int]] = [[] for _ in w1]  # and the position in E2 of each part's image
    for x in f1.target.cells:
        ys, zs = fibers1[x], fibers2[x]
        for w, i, j in _refine([w1[y] for y in ys], [w2[z] for z in zs]):
            pieces[ys[i]].append(w)
            images[ys[i]].append(zs[j])
    G, up, _ = _subdivide(f1.source, [(y, ws) for y, ws in enumerate(pieces) if len(ws) > 1])
    p2 = dict(zip(G.cells, [f2.source.cells[z] for zs in images for z in zs]))
    p1 = dict(zip(G.cells, up))
    return G, PartitionMorphism(G, f1.source, p1), PartitionMorphism(G, f2.source, p2)


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
    cuts = [(P.cells.index(cell), list(parts))] if len(parts) > 1 else []
    G, up, _ = _subdivide(P, cuts)
    return G, PartitionMorphism(G, P, dict(zip(G.cells, up)))
