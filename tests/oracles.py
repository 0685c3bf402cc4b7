"""Brute-force oracles the tests check the engine against.

Each one is independent of the construction it checks: it enumerates or
searches where the engine decides in closed form or by induction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from goodmeasures.chain import AutomorphismPrefix, GoodMeasureChain
from goodmeasures.cycles import CycleTuple, TupleMorphism, _sorted_with_positions
from goodmeasures.errors import DepthTooShallow, MassMismatch, NotEquiSummed, PrecisionExhausted
from goodmeasures.matrices import BalancedMatrix, MatrixMorphism
from goodmeasures.partitions import (
    PartitionMorphism,
    WeightedPartition,
    _cumulative,
    _parts,
    _place,
    verify_morphism,
)
from goodmeasures.symbols import enclose, stages
from goodmeasures.values import (
    ExactValue,
    GroupDescriptor,
    ONE,
    PackedValues,
    ZERO,
    _from_ratios,
    _heights,
    _reduced,
)


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
    reference for the packed-integer enumeration ``values._sums_to_one``.
    """
    for i in range(lo, len(values)):
        nxt = acc + values[i]
        if nxt == ONE:
            yield (i,)
        elif room > 1 and not nxt > ONE:
            for rest in index_sums_to_one(values, i, nxt, room - 1):
                yield (i, *rest)


def values_by_filter(V: GroupDescriptor, budget: int) -> list[ExactValue]:
    """V ∩ (0,1] up to the given height, listed as ``enumerate_values``
    lists it, by the engine's former loop: every candidate tuple of
    components becomes an ``ExactValue``, which is kept iff its sign is
    positive and it is at most 1.  The reference for ``values._in_unit``."""
    symbols = [s for s, _ in V.irr]
    heights = [_heights(V.rational, with_negative=bool(symbols))]
    heights += [_heights(g, with_negative=True) for _, g in V.irr]
    below: list[list[tuple[int, int]]] = [[] for _ in heights]
    out: list[ExactValue] = []
    for _ in range(budget):
        exact = [next(it) for it in heights]
        layer = []
        for i in range(len(heights)):
            upto = [b + e for b, e in zip(below[i + 1:], exact[i + 1:])]
            for ratios in itertools.product(*below[:i], exact[i], *upto):
                v = _from_ratios(ratios, symbols)
                if v.sign() > 0 and v._cmp(1) <= 0:
                    layer.append(v)
        out += sorted(layer, key=ExactValue.sort_key)
        for b, e in zip(below, exact):
            b += e
    return out


def unpack(pv: PackedValues, p: int) -> ExactValue:
    """The value of a packed sum of at most ``pv``'s room of its values, read
    back digit by digit: a signed digit of ``width`` bits per slot, or the
    whole int in a table with no symbol, whose one slot is unbounded.  The
    engine's former way to decide ``> 1``, as
    ``unpack(pv, p) > ONE``; the reference for ``PackedValues.sign`` of a
    packed sum minus 1."""
    if not pv.syms:  # one slot, which cannot carry
        return _reduced(pv.den, [p], ())
    w = pv.width
    mask, half = (1 << w) - 1, 1 << (w - 1)
    nums = []
    for _ in range(len(pv.syms) + 1):
        x = p & mask
        if x >= half:
            x -= 1 << w
        nums.append(x)
        p = (p - x) >> w
    return _reduced(pv.den, nums, pv.syms)


def floor_by_enclosures(v: ExactValue) -> int | None:
    """The floor of v read off the first of its stage enclosures whose two
    ends have one floor, or None when no stage decides it: the engine's
    former ``ExactValue.floor``, the reference wherever it decides."""
    for bits in stages(v.syms):
        try:
            lo, hi, d = enclose(v.nums, v.syms, bits)
        except PrecisionExhausted:
            return None
        d *= v.den
        if lo // d == hi // d:
            return lo // d
    return None


def fiber_index_by_walk(chain: GoodMeasureChain, level: int) -> dict[str, tuple]:
    """Per cell x of a level: the top cells over x in top order, their
    weights, the running sums of those weights and each sum mapped to its
    count, with the top's projection walked afresh link by link.  The
    reference for the top's fibers in ``respond_by_fibers``."""
    over = {c: c for c in chain.top.cells}
    for k in range(chain.depth, level, -1):
        link = chain.links[k - 1].mapping
        over = {c: link[a] for c, a in over.items()}
    out: dict[str, tuple] = {x: ([], [], [], {}) for x in chain.levels[level].cells}
    for c in chain.top.cells:
        ys, ws, sums, index = out[over[c]]
        w = chain.top.weights[c]
        ys.append(c)
        ws.append(w)
        sums.append(sums[-1] + w if sums else w)
        index[sums[-1]] = len(sums)
    return out


def respond_by_fibers(
    chain: GoodMeasureChain, f2: PartitionMorphism, level: int
) -> tuple[list[int], tuple[WeightedPartition, dict[str, str]] | None]:
    """The chain's answer to the challenge f2 onto a level, fiber by fiber,
    with the chain left as it is: the response as positions in f2's source,
    and the new top with its link map onto the top, or None when the top
    answers with no new level.

    Each challenge fiber is placed among the top's cumulative sums over its
    cell, taken from ``fiber_index_by_walk``, in exact values: if no sum
    cuts a top cell, each top cell maps to the challenge cell whose interval
    holds it; otherwise the placements give the amalgam of the top's
    projection with f2.  The engine's former ``_respond``, with its former
    ``_fiber_index``; the reference for the one walk over the whole top.
    """
    top = chain.top
    at = {c: i for i, c in enumerate(top.cells)}
    fibers = fiber_index_by_walk(chain, level)
    weight = f2.source.weight_list()
    walks = []
    for x, zs in f2.fiber_positions().items():
        ys, left, sums, index = fibers[x]
        right = [weight[z] for z in zs]
        walks.append(([at[y] for y in ys], zs, left, right, sums, _place(sums, index, right)))
    if all(acc is None for *_, places in walks for _, acc in places):
        response = [0] * len(top.cells)
        for ys, zs, *_, places in walks:
            start = 0
            for z, (end, _) in zip(zs, places):
                for y in ys[start:end]:
                    response[y] = z
                start = end
        return response, None
    refined = [
        (ys, zs, _parts(left, right, sums, places))
        for ys, zs, left, right, sums, places in walks
    ]
    G, p1, p2 = assemble_by_cells(top, refined)
    return p2, (G, dict(p1.mapping))


def subdivide_by_children(P: WeightedPartition, children) -> PartitionMorphism:
    """The merge morphism onto P from the partition of the children of P's
    cells, in order, with the given weights: ``children`` maps each cell to
    its list of child weights.  An only child keeps its parent's id;
    siblings are ``parent/0``, ``parent/1``, ...  The engine's former
    ``_subdivide``; the reference for the cut kernel."""
    weights = {}
    link = {}
    for c in P.cells:
        ws = children[c]
        if len(ws) == 1:
            weights[c] = ws[0]
            link[c] = c
            continue
        for i, w in enumerate(ws):
            weights[f"{c}/{i}"] = w
            link[f"{c}/{i}"] = c
    if len(weights) != sum(map(len, children.values())):  # P held both c and c/0
        raise ValueError("cell identifiers must be unique")
    return PartitionMorphism(WeightedPartition(tuple(weights), weights), P, link)


def assemble_by_cells(E1: WeightedPartition, refined):
    """The amalgam (G, p1: G -> E1, p2) of jointly refined fibers of a
    cospan E1 -> F <- E2, p2 as the position in E2 of the image of each
    cell of G.  ``refined`` holds (ys, zs, parts) per cell of F, ys and zs
    the positions of its fibers in E1 and E2, each part (w, i, j) a cell
    over E1's cell ys[i] and E2's cell zs[j]: the parts are grouped into
    per-cell lists, then named by ``subdivide_by_children``.  The engine's
    former ``_assemble``."""
    weights = [[] for _ in E1.cells]
    images = [[] for _ in E1.cells]
    for ys, zs, parts in refined:
        for w, i, j in parts:
            weights[ys[i]].append(w)
            images[ys[i]].append(zs[j])
    p1 = subdivide_by_children(E1, dict(zip(E1.cells, weights)))
    return p1.source, p1, [z for zs in images for z in zs]


def respond_two_pass(chain: GoodMeasureChain, f2: PartitionMorphism, level: int):
    """The chain's answer to the challenge f2 onto a level by the engine's
    former two-pass route, with the chain's levels left as they are: the
    response as positions in f2's source, and the new top's partition, its
    link map and its cells' packed ints, or None when the top answers.

    The walk over the top's index is the engine's; an amalgam's parts are
    grouped per top cell and named (``assemble_by_cells``) as a partition
    of packed ints, and every cell is then read back (``unpacked``).  The
    reference for ``partitions._subdivide`` on packed pieces."""
    source, top = f2.source, chain.top
    pv, weight, packed = chain._table(
        chain.depth, source.weight_list(), len(top.cells) + len(source.cells)
    )
    below = {c: i for i, c in enumerate(chain.levels[level].cells)}
    order = sorted(range(len(source.cells)), key=lambda z: below[f2.mapping[source.cells[z]]])
    left = [weight[c] for c in top.cells]
    sums, index = _cumulative(left)
    right = [packed[z] for z in order]
    places = _place(sums, index, right, pv)
    if all(acc is None for _, acc in places):
        response, start = [], 0
        for z, (end, _) in zip(order, places):
            response += [z] * (end - start)
            start = end
        return response, None
    refined = [(range(len(top.cells)), order, _parts(left, right, sums, places))]
    Gp, p1, p2 = assemble_by_cells(top, refined)
    G = WeightedPartition(Gp.cells, pv.unpacked(Gp.weights))
    return p2, (G, dict(p1.mapping), dict(Gp.weights))


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
    ``peel_refinement`` and assembled as the engine assembles its own, p2
    read back from positions as a morphism."""
    w1, w2 = f1.source.weight_list(), f2.source.weight_list()
    fibers1, fibers2 = f1.fiber_positions(), f2.fiber_positions()
    refined = []
    for x in f1.target.cells:
        ys, zs = fibers1[x], fibers2[x]
        refined.append((ys, zs, peel_refinement([w1[y] for y in ys], [w2[z] for z in zs])))
    G, p1, p2 = assemble_by_cells(f1.source, refined)
    images = f2.source.cells
    return G, p1, PartitionMorphism(G, f2.source, {g: images[z] for g, z in zip(G.cells, p2)})


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


# -- mass identities, each summed by its own loop ------------------------------
#
# The engine's former checks of matrices, tuple morphisms and prefix maps,
# each adding ``ExactValue``s from ``ZERO`` in a loop of its own; the
# references for the ``partitions.pushforward`` kernel that decides them now.


def matrix_by_rows(chain: GoodMeasureChain, A: BalancedMatrix) -> bool:
    """Nonnegative V-entries between cells of A's level, equal row and
    column sums, and row sums equal to the cell measures: the reference for
    ``matrices.validate``."""
    if not 0 <= A.level <= chain.depth:
        return False
    P = chain.levels[A.level]
    cells = set(P.cells)
    rows: dict[str, ExactValue] = {c: ZERO for c in cells}
    cols: dict[str, ExactValue] = {c: ZERO for c in cells}
    for (a, b), w in A.entries.items():
        if a not in cells or b not in cells:
            return False
        if w.sign() <= 0 or not chain.V.member(w):
            return False
        rows[a] = rows[a] + w
        cols[b] = cols[b] + w
    if any(rows[c] != cols[c] for c in cells):
        return False
    return all(rows[c] == P.weight(c) for c in cells)


def matrix_morphism_by_fibers(chain: GoodMeasureChain, m: MatrixMorphism) -> bool:
    """A valid underlying morphism between the matrices' levels along whose
    fibers the source entries add up to the target's: the reference for
    ``matrices.verify_matrix_morphism``."""
    if not verify_morphism(m.underlying):
        return False
    if m.underlying.source.cells != chain.levels[m.source.level].cells:
        return False
    if m.underlying.target.cells != chain.levels[m.target.level].cells:
        return False
    acc: dict[tuple[str, str], ExactValue] = {}
    f = m.underlying.mapping
    for (q, q2), w in m.source.entries.items():
        key = (f[q], f[q2])
        acc[key] = acc.get(key, ZERO) + w
    return acc == dict(m.target.entries)


def transport_by_cells(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, level: int
) -> dict[tuple[str, str], ExactValue]:
    """The mass the prefix's top bijection carries between the cells of a
    level, cell by cell: the reference for ``matrices.transport_entries``."""
    if sigma.depth < level:
        raise DepthTooShallow(f"prefix depth {sigma.depth} < level {level}")
    T = sigma.depth
    anc = chain.composite_mapping(T, level)
    top = chain.levels[T]
    acc: dict[tuple[str, str], ExactValue] = {}
    m = sigma.top_map
    for c in top.cells:
        key = (anc[c], anc[m[c]])
        acc[key] = acc.get(key, ZERO) + top.weight(c)
    return acc


def tuple_morphism_by_blocks(m: TupleMorphism, src: CycleTuple, tgt: CycleTuple) -> bool:
    """Each block's winding numbers divide and its masses add up to its
    target entry's: the reference for ``cycles.verify_tuple_morphism``."""
    if src.mass != tgt.mass:
        raise MassMismatch(f"masses differ: {src.mass} vs {tgt.mass}")
    if len(m.blocks) != len(tgt.entries):
        return False
    flat = [i for b in m.blocks for i in b]
    if sorted(flat) != list(range(len(src.entries))):
        return False
    for j, block in enumerate(m.blocks):
        w_j, k_j = tgt.entries[j]
        s = ZERO
        for i in block:
            v_i, n_i = src.entries[i]
            if n_i % k_j != 0:
                return False
            s = s + v_i.scale(n_i)
        if s != w_j.scale(k_j):
            return False
    return True


def tuple_sum_with_positions(
    c: CycleTuple, d: CycleTuple
) -> tuple[CycleTuple, list[int], list[int]]:
    """The sum of two tuples (their concatenation, canonically sorted) and the
    new positions of c's and d's entries in it."""
    out, pos = _sorted_with_positions([*c.entries, *d.entries])
    return out, pos[: len(c.entries)], pos[len(c.entries):]


def sum_tuple_morphisms(
    m_c: TupleMorphism,
    m_d: TupleMorphism,
    src_pos_c: Sequence[int],
    src_pos_d: Sequence[int],
    tgt_pos_c: Sequence[int],
    tgt_pos_d: Sequence[int],
) -> TupleMorphism:
    """The blockwise sum of two morphisms after their tuples were summed.

    Position lists say where each original entry landed in the canonical
    concatenations (``tuple_sum_with_positions``).
    """
    blocks: list[list[int]] = [[] for _ in range(len(tgt_pos_c) + len(tgt_pos_d))]
    for j, block in enumerate(m_c.blocks):
        blocks[tgt_pos_c[j]] = [src_pos_c[i] for i in block]
    for j, block in enumerate(m_d.blocks):
        blocks[tgt_pos_d[j]] = [src_pos_d[i] for i in block]
    return TupleMorphism.make(blocks)


def equi_summed_by_vertices(entries) -> None:
    """NotEquiSummed at the first negative entry or the least vertex whose
    row and column sums differ: the reference for ``flows.check_equi_summed``."""
    rows: dict[str, ExactValue] = {}
    cols: dict[str, ExactValue] = {}
    for (a, b), w in entries.items():
        if w.sign() < 0:
            raise NotEquiSummed(f"negative entry at ({a},{b})")
        rows[a] = rows.get(a, ZERO) + w
        cols[b] = cols.get(b, ZERO) + w
    for v in sorted(set(rows) | set(cols)):
        if rows.get(v, ZERO) != cols.get(v, ZERO):
            raise NotEquiSummed(f"row/column sums differ at {v}")


def measure_by_cells(chain: GoodMeasureChain, U) -> ExactValue:
    """The weights of U's cells added in level order: the reference for
    ``GoodMeasureChain.measure``."""
    P = chain.levels[U.level]
    total = ZERO
    for c in P.cells:
        if c in U.cells:
            total = total + P.weight(c)
    return total


def bijection_by_sets(P: WeightedPartition, m) -> bool:
    """True iff m permutes P's cells and keeps each cell's weight."""
    if set(m) != set(P.cells) or set(m.values()) != set(P.cells):
        return False
    return all(P.weight(m[c]) == P.weight(c) for c in P.cells)


def prefix_by_sets(chain: GoodMeasureChain, sigma: AutomorphismPrefix) -> bool:
    """Each stored map a weight-preserving bijection of its level, and
    consecutive maps commuting with the chain: the reference for
    ``GoodMeasureChain.prefix_valid``."""
    if not all(bijection_by_sets(chain.levels[k], sigma.maps[k]) for k in sigma.levels):
        return False
    for lo, hi in zip(sigma.levels, sigma.levels[1:]):
        anc = chain.composite_mapping(hi, lo)
        lo_map, hi_map = sigma.maps[lo], sigma.maps[hi]
        if any(anc[hi_map[c]] != lo_map[anc[c]] for c in chain.levels[hi].cells):
            return False
    return True


def peel_cycles_by_rebuild(entries) -> list[tuple[tuple[str, ...], ExactValue]]:
    """Cycles peeled off an equi-summed matrix, the successor map rebuilt
    and re-sorted from the remaining entries before every cycle: each walk
    starts at the least vertex with an edge left and follows the least
    successor.  The engine's former peel; the reference for
    ``flows.decompose_entries``."""
    rest = {e: w for e, w in entries.items() if w.sign() > 0}
    out = []
    while rest:
        succ: dict[str, list[str]] = {}
        for a, b in rest:
            succ.setdefault(a, []).append(b)
        for a in succ:
            succ[a].sort()
        start = min(succ)
        path = [start]
        seen = {start: 0}
        while True:
            nxt = succ[path[-1]][0]
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
            else:
                rest[e] = rest[e] - w
        k = min(range(len(cycle)), key=lambda i: cycle[i])
        out.append((tuple(cycle[k:]) + tuple(cycle[:k]), w))
    return out


def snapshot_format1(chain: GoodMeasureChain) -> dict:
    """The chain's snapshot in format 1, the format before positions: link,
    response and challenge maps as objects from cell ids to cell ids, and
    each ledger challenge as a partition with its weights and total.  The
    reference writer of the format-1 golden digests and fixture; every total
    is summed here, where the engine writes the 1 it knows."""
    ledger = []
    for e in chain.ledger:
        entry = {
            "kind": e.kind,
            "stage": e.stage,
            "challenge": e.challenge_object.to_json(),
            "response": {"map": dict(e.response_map)},
        }
        if e.kind == "morphism":
            entry["target_level"] = e.target_level
            entry["challenge_map"] = dict(e.challenge_map)
        ledger.append(entry)
    return {
        "descriptor": chain.V.to_json(),
        "levels": [P.to_json() for P in chain.levels],
        "links": [link.to_json() for link in chain.links],
        "ledger": ledger,
    }


def snapshot_format2(chain: GoodMeasureChain) -> dict:
    """The chain's snapshot in format 2 as a JSON value, built as dicts and
    lists: the reference writer of format 2, which ``GoodMeasureChain.to_text``
    wrote before format 3, of the format-2 golden digests, fixture and
    refusal tests.  Each level total is the 1 of the chain's invariant; the
    distinct ledger challenge weights form the ``weights`` table in the
    order they are first met."""
    table: dict[ExactValue, int] = {}
    ledger = []
    for e in chain.ledger:
        obj = e.challenge_object
        entry = {
            "kind": e.kind,
            "stage": e.stage,
            "cells": list(obj.cells),
            "weights": [table.setdefault(w, len(table)) for w in obj.weight_list()],
            "response": list(e.response),
        }
        if e.kind == "morphism":
            entry["target_level"] = e.target_level
            entry["challenge_map"] = list(e.challenge)
        ledger.append(entry)
    links = []
    for P, link in zip(chain.levels, chain.links):
        below = {c: i for i, c in enumerate(P.cells)}
        links.append([below[link.mapping[c]] for c in link.source.cells])
    return {
        "descriptor": chain.V.to_json(),
        "format": 2,
        "levels": [
            {"cells": [{"id": c, "w": P.weights[c].to_json()} for c in P.cells],
             "total": ONE.to_json()}
            for P in chain.levels
        ],
        "links": links,
        "weights": [v.to_json() for v in table],
        "ledger": ledger,
    }


def snapshot_format3(chain: GoodMeasureChain) -> dict:
    """The chain's snapshot in format 3 as a JSON value: the reference of
    ``GoodMeasureChain.to_text``, whose text is ``jsonutil.dumps`` of this.
    It is format 2 (``snapshot_format2``) with no level totals, and with no
    ``response`` in a ledger entry whose response is non-decreasing in stage
    order, tested pair by pair."""
    data = snapshot_format2(chain)
    data["format"] = 3
    for level in data["levels"]:
        del level["total"]
    for entry in data["ledger"]:
        r = entry["response"]
        if all(a <= b for a, b in zip(r, r[1:])):
            del entry["response"]
    return data
