"""Greedy decomposition of equi-summed nonnegative matrices into directed cycles.

Shared by the chain engine (transport refinement) and the balanced-matrix
module.  Entries are keyed by (from, to) vertex pairs; vertices are strings.
The peeling order is deterministic: walks start at the smallest vertex with an
outgoing edge and always follow the smallest successor.  The peel is one
pass: successor lists are sorted once and only shrink, so no cycle rebuilds
them.  The module also owns the equi-summed check the peel presumes, and
the two walks over cycles that both users need: the cycles through each
vertex, and the orbits of a permutation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import NotEquiSummed
from .partitions import pushforward
from .values import ExactValue, PackedValues, ZERO


def check_equi_summed(entries: Mapping[tuple[str, str], ExactValue]) -> None:
    """Raise NotEquiSummed unless all row sums equal the matching column
    sums, naming the first negative entry or the least differing vertex."""
    for (a, b), w in entries.items():
        if w.sign() < 0:
            raise NotEquiSummed(f"negative entry at ({a},{b})")
    rows = pushforward({e: e[0] for e in entries}, entries)
    cols = pushforward({e: e[1] for e in entries}, entries)
    for v in sorted(rows.keys() | cols.keys()):
        if rows.get(v, ZERO) != cols.get(v, ZERO):
            raise NotEquiSummed(f"row/column sums differ at {v}")


def _canonical_rotation(vertices: list[str]) -> tuple[str, ...]:
    k = vertices.index(min(vertices))
    return tuple(vertices[k:] + vertices[:k])


def decompose_entries(
    entries: Mapping[tuple[str, str], ExactValue | int], pv: PackedValues | None = None
) -> list[tuple[tuple[str, ...], ExactValue | int]]:
    """Peel directed cycles off an equi-summed matrix until nothing remains.

    Returns (vertices, weight) pairs whose cycle matrices sum back to the
    input exactly; at most one cycle per nonzero entry is produced.  Cycles
    are rotated to start at their smallest vertex.  Precondition: the
    entries are nonnegative and equi-summed (``check_equi_summed``).

    Entries and cycle weights are the packed ints of the table pv, or
    ``ExactValue``s with no table.  Ints with no symbol slot are ordered
    and subtract as the values do.  With a symbol slot the entries are
    read back, peeled as values (a rest can be a signed sum of more entries
    than any room allows) and each cycle weight is packed again; one that
    no longer fits a slot raises RuntimeError.

    One pass: each vertex's successors are sorted once, descending, so the
    smallest is last.  A walk leaves every vertex by its smallest successor,
    so each edge a peel empties is the last of its vertex's list and is
    popped.  Vertices never gain edges, so the smallest vertex with an edge
    left is found by a cursor that only moves forward.
    """
    readback = pv is not None and pv.syms
    if readback:
        entries = pv.unpacked(entries)
    zero = ZERO if pv is None or readback else 0
    rest = {e: w for e, w in entries.items() if w > zero}
    succ: dict[str, list[str]] = {}
    for a, b in rest:
        succ.setdefault(a, []).append(b)
    for bs in succ.values():
        bs.sort(reverse=True)
    starts = sorted(succ)
    cursor = 0
    out: list[tuple[tuple[str, ...], ExactValue | int]] = []
    while rest:
        while not succ[starts[cursor]]:
            cursor += 1
        start = starts[cursor]
        path = [start]
        seen = {start: 0}
        while True:
            nxt = succ[path[-1]][-1]
            if nxt in seen:
                cycle = path[seen[nxt]:]
                break
            seen[nxt] = len(path)
            path.append(nxt)
        edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        w = min(rest[e] for e in edges)
        for e in edges:
            if rest[e] == w:
                del rest[e]
                succ[e[0]].pop()
            else:
                rest[e] = rest[e] - w
        if readback and (w := pv.pack(w)) is None:
            raise RuntimeError("a cycle weight does not fit the slots of its weight table")
        out.append((_canonical_rotation(cycle), w))
    return out


def cycles_through(
    cells: Iterable[str], cycles: Sequence[Sequence[str]]
) -> dict[str, list[tuple[int, str]]]:
    """For each cell, the (cycle index, successor) pairs of the cycles through it.

    ``cycles`` are vertex sequences; pairs are listed in cycle order.
    """
    through: dict[str, list[tuple[int, str]]] = {c: [] for c in cells}
    for ci, verts in enumerate(cycles):
        for i, v in enumerate(verts):
            through[v].append((ci, verts[(i + 1) % len(verts)]))
    return through


def orbits(perm: Mapping[str, str], order: Iterable[str]) -> list[list[str]]:
    """The orbits of a permutation, each walked from its first element in ``order``."""
    out: list[list[str]] = []
    seen: set[str] = set()
    for start in order:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        out.append(orbit)
    return out
