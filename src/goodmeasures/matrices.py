"""Balanced matrices over a chain: transport patterns of measure automorphisms.

A balanced matrix anchored at a chain level records how much mass a
homeomorphism carries from each cell to each other cell.  Matrices whose rows
have a single nonzero entry are permutations with weights (the cycle
category); every matrix decomposes into weighted cycles, every matrix lifts
along refinements, and every matrix admits a compatible automorphism prefix,
which is the finite-level content of the neighbourhood-nonemptiness and
conjugation-transport facts this module machine-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .chain import AutomorphismPrefix, GoodMeasureChain, invert_prefix
from .errors import DepthTooShallow, NotCycleObject, PreconditionFailed
from .flows import check_equi_summed, cycles_through, decompose_entries, orbits
from .jsonutil import Place, parse_array, parse_ids, parse_int, parse_object
from .partitions import (
    PartitionMorphism,
    WeightedPartition,
    compose,
    identity,
    lift_edges,
    maps_onto,
    pushforward,
    verify_morphism,
)
from .values import ExactValue, PackedValues


@dataclass(frozen=True)
class BalancedMatrix:
    """Nonnegative V-valued matrix indexed by the cells of a chain level.

    Zero entries are omitted.  Validity (see ``validate``) requires equal row
    and column sums, total mass one, and row sums equal to the cell measures.
    """

    level: int
    entries: Mapping[tuple[str, str], ExactValue]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "entries": [
                {"from": a, "to": b, "w": w.to_json()}
                for (a, b), w in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_json(data: Mapping, symbols) -> "BalancedMatrix":
        data = parse_object(data, "matrix")
        return BalancedMatrix(parse_int(data["level"]), entries_from_json(data, symbols))


def entries_from_json(data: Mapping, symbols) -> dict[tuple[str, str], ExactValue]:
    """The entries of a matrix's JSON by (from, to) pair.  A matrix that is
    not an object, entries that are not an array, an entry that is not an
    object or whose ends are not cell ids, and a pair listed twice (rather
    than read as its last entry) are refused by a one-line ValueError that
    names the place."""
    entries: dict[tuple[str, str], ExactValue] = {}
    n = 0  # the entry being read, formatted only in a refusal
    at = Place(lambda: f"matrix entry {n}")
    for n, e in enumerate(parse_array(parse_object(data, "matrix")["entries"], "matrix entries")):
        e = parse_object(e, at)
        pair = parse_ids((e["from"], e["to"]), at)
        if pair in entries:
            raise ValueError(f"matrix entry {pair[0]}->{pair[1]} is repeated")
        entries[pair] = ExactValue.from_json(e["w"], symbols)
    return entries


@dataclass(frozen=True)
class CycleMatrix:
    """A single directed cycle, all entries equal to ``weight``."""

    vertices: tuple[str, ...]
    weight: ExactValue

    def edges(self) -> list[tuple[str, str]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def entries(self) -> dict[tuple[str, str], ExactValue]:
        return {e: self.weight for e in self.edges()}


@dataclass(frozen=True)
class MatrixMorphism:
    """A mass-preserving cell surjection that also transports matrix entries."""

    underlying: PartitionMorphism
    source: BalancedMatrix
    target: BalancedMatrix


def validate(chain: GoodMeasureChain, A: BalancedMatrix) -> bool:
    """All invariants, checked exactly: nonnegative V-entries, equal row and
    column sums, and row sums equal to the level's cell measures (so no zero
    rows, and the entries sum to the level's total, one).

    Both marginals are decided on packed ints of the level's table, which
    takes the entries too.  In a table with no symbol whose denominator D
    V's rational group admits, every n/D lies in V + Z, so an entry n/D is
    a positive member of V iff 0 < n <= D; otherwise each entry is tested
    as a value.
    """
    if not 0 <= A.level <= chain.depth:
        return False
    entries = A.entries
    pv, weights, packed = chain._table(A.level, entries.values(), len(entries))
    packed_entries = dict(zip(entries, packed))
    if not all(maps_onto({e: e[i] for e in entries}, packed_entries, weights) for i in (0, 1)):
        return False
    if not pv.syms and chain.V.rational.admits(pv.den):
        return all(0 < n <= pv.den for n in packed)
    return all(w.sign() > 0 and chain.V.member(w) for w in entries.values())


def in_cycle_category(A: BalancedMatrix) -> bool:
    """True iff every row has exactly one nonzero entry."""
    seen: set[str] = set()
    for (a, _b), _w in A.entries.items():
        if a in seen:
            return False
        seen.add(a)
    return True


def cycle_decompose(A) -> list[CycleMatrix]:
    """Greedy cycle peeling of an equi-summed matrix; cycles sum back exactly.

    Accepts a BalancedMatrix or a raw entries mapping, checked to be equi-summed.
    """
    entries = A.entries if isinstance(A, BalancedMatrix) else A
    check_equi_summed(entries)
    return [CycleMatrix(v, w) for v, w in decompose_entries(entries)]


def verify_matrix_morphism(chain: GoodMeasureChain, m: MatrixMorphism) -> bool:
    """Underlying map is a valid morphism of the index partitions and the
    entries aggregate exactly along its fibers.

    Both mass identities are decided on packed ints of the source level's
    table, which takes both matrices' entries.  When the underlying
    partitions are the chain's level objects, the source's weights are the
    packed ints that table holds, and the target's are the ones its own
    table holds if it is the same table, or else the source's carried onto
    the target level by the chain's projection, which the chain's links
    make mass-preserving.  Any other partition, a caller's copy of a level
    included, is checked on its own weights, packed with the entries."""
    S, T = m.underlying.source, m.underlying.target
    if not (0 <= m.source.level <= chain.depth and 0 <= m.target.level <= chain.depth):
        return False
    lo, hi = m.target.level, m.source.level
    if S.cells != chain.levels[hi].cells or T.cells != chain.levels[lo].cells:
        return False
    f, source, target = m.underlying.mapping, m.source.entries, m.target.entries
    entries, s, n = [*source.values(), *target.values()], len(S.cells), len(source)
    if S is chain.levels[hi] and T is chain.levels[lo] and lo <= hi:
        pv, s_weights, packed = chain._table(hi, entries, s + n)
        kept = chain._tables.get(lo)
        if kept is not None and kept[0] is pv:
            t_weights = kept[1]
        else:
            t_weights = pushforward(chain.composite_mapping(hi, lo), s_weights)
    else:
        values = [*S.weight_list(), *T.weight_list(), *entries]
        _, _, packed = chain._table(hi, values, s + n)
        t = s + len(T.cells)
        s_weights, t_weights = dict(zip(S.cells, packed)), dict(zip(T.cells, packed[s:t]))
        packed = packed[t:]
    if not maps_onto(f, s_weights, t_weights):
        return False
    source = dict(zip(source, packed))
    return maps_onto({e: (f[e[0]], f[e[1]]) for e in source}, source, dict(zip(target, packed[n:])))


def identity_matrix_morphism(chain: GoodMeasureChain, A: BalancedMatrix) -> MatrixMorphism:
    return MatrixMorphism(identity(chain.levels[A.level]), A, A)


def compose_matrix_morphisms(m_outer: MatrixMorphism, m_inner: MatrixMorphism) -> MatrixMorphism:
    return MatrixMorphism(
        compose(m_outer.underlying, m_inner.underlying), m_inner.source, m_outer.target
    )


# ---------------------------------------------------------------------------
# cycle lifts
# ---------------------------------------------------------------------------


def _cycles_of_cycle_object(A: BalancedMatrix) -> list[CycleMatrix]:
    if not in_cycle_category(A):
        raise NotCycleObject("matrix has a row with several nonzero entries")
    succ = {a: b for (a, b) in A.entries}
    weight = {a: w for (a, _b), w in A.entries.items()}
    return [CycleMatrix(tuple(o), weight[o[0]]) for o in orbits(succ, sorted(succ))]


def lift_cycle(
    chain: GoodMeasureChain,
    A: BalancedMatrix,
    p: PartitionMorphism,
    source_level: int,
) -> BalancedMatrix:
    """Lift a cycle-category matrix along a partition morphism onto its level.

    ``p`` maps the partition of ``source_level`` onto the index partition of
    A; the result is a valid matrix on ``source_level`` that ``p`` projects
    onto A.  A valid cycle-category matrix joins cells of equal weight only,
    which is what ``lift_edges`` needs.
    """
    if not validate(chain, A):
        raise ValueError("matrix is not a valid balanced matrix over the chain")
    cycles = _cycles_of_cycle_object(A)
    P_A, P = chain.levels[A.level], chain.levels[source_level]
    if p.target.cells != P_A.cells:
        raise ValueError("morphism target is not the matrix index partition")
    if p.source.cells != P.cells:
        raise ValueError("morphism source is not the given chain level")
    if p.target.weights != P_A.weights:
        raise ValueError("morphism target weights differ from the matrix index partition's")
    if p.source.weights != P.weights:
        raise ValueError("morphism source weights differ from the given chain level's")
    if not verify_morphism(p):
        raise ValueError("p is not a valid morphism")
    return BalancedMatrix(source_level, _lifted(chain, p, source_level, [
        e for cyc in cycles for e in cyc.edges()
    ]))


def _lifted(
    chain: GoodMeasureChain, p: PartitionMorphism, level: int, edges
) -> dict[tuple[str, str], ExactValue]:
    """``lift_edges`` along p from a chain level, whose weights p's source
    has, on the packed weights the level's table holds, each entry read
    back once."""
    pv, weight, _ = chain._table(level, summands=2 * len(p.source.cells))
    return pv.unpacked(lift_edges(p, edges, weight, pv))


def _cycles(chain: GoodMeasureChain, A: BalancedMatrix):
    """A's cycles (``decompose_entries``), their weights packed ints of the
    table of A's level, which takes A's entries, and that table.
    Precondition: A is valid."""
    pv, _, packed = chain._table(A.level, A.entries.values(), len(A.entries))
    return decompose_entries(dict(zip(A.entries, packed)), pv), pv


# ---------------------------------------------------------------------------
# cofinality: cycle representatives
# ---------------------------------------------------------------------------


def _split_at_top(
    chain: GoodMeasureChain, A: BalancedMatrix
) -> tuple[BalancedMatrix, MatrixMorphism]:
    """Split every top cell by the cycles through it; the split level carries
    a cycle-category representative projecting onto A.  Each child cell
    weighs exactly its cycle's weight, which is its entry in the result."""
    perm = chain._append_cycle_split(*_cycles(chain, A))
    top = chain.top
    C = BalancedMatrix(chain.depth, {(x, y): top.weight(x) for x, y in perm.items()})
    return C, MatrixMorphism(chain.links[-1], C, A)


def _lift_to_response_level(
    chain: GoodMeasureChain, A: BalancedMatrix
) -> tuple[BalancedMatrix, MatrixMorphism]:
    """Absorb the abstract cycle split of A as a morphism challenge and lift
    A's cycles onto the responding level: the current top when it already
    refines the split, otherwise a new level.  All cells of one cycle of D
    carry the cycle's weight, so every lifted edge joins fibers of equal mass.
    A is valid, so D is a valid challenge, absorbed without the public checks."""
    P_A = chain.levels[A.level]
    cycles, pv = _cycles(chain, A)
    weights = pv.unpack_all([w for _, w in cycles])
    through = cycles_through(P_A.cells, [verts for verts, _ in cycles])
    d_weights = {f"{c}@{ci}": weights[ci] for c in P_A.cells for ci, _ in through[c]}
    D = WeightedPartition(tuple(d_weights), d_weights)
    projD = PartitionMorphism(D, P_A, {cid: cid.rsplit("@", 1)[0] for cid in d_weights})
    d_cycles = [
        CycleMatrix(tuple(f"{v}@{ci}" for v in verts), weights[ci])
        for ci, (verts, _) in enumerate(cycles)
    ]
    entry = chain._absorb_morphism(projD, A.level)
    stage = entry.stage
    r = PartitionMorphism(chain.levels[stage], D, entry.response_map)
    edges = [e for cyc in d_cycles for e in cyc.edges()]
    B = BalancedMatrix(stage, _lifted(chain, r, stage, edges))
    return B, MatrixMorphism(compose(projD, r), B, A)


def to_cycle_object(
    chain: GoodMeasureChain, A: BalancedMatrix
) -> tuple[BalancedMatrix, MatrixMorphism]:
    """A cycle-category representative over A (cofinality of the cycle
    category), together with the verified projection onto A.

    Matrices already in the cycle category are returned unchanged with the
    identity projection; otherwise the chain is extended.
    """
    if not validate(chain, A):
        raise ValueError("matrix is not a valid balanced matrix over the chain")
    if in_cycle_category(A):
        return A, identity_matrix_morphism(chain, A)
    cur, proj = A, None
    for _ in range(64):
        if in_cycle_category(cur):
            break
        if cur.level == chain.depth:
            cur, step = _split_at_top(chain, cur)
        else:
            cur, step = _lift_to_response_level(chain, cur)
        proj = step if proj is None else compose_matrix_morphisms(proj, step)
    else:
        raise RuntimeError("cycle representative did not stabilise; this is a bug")
    if not verify_matrix_morphism(chain, proj):
        raise RuntimeError("cycle projection failed to verify; this is a bug")
    return cur, proj


def reverse_projection(
    chain: GoodMeasureChain, p: MatrixMorphism
) -> tuple[BalancedMatrix, MatrixMorphism]:
    """Given p: B -> A, produce C on a chain level and r: C -> B with
    p ∘ r equal to the chain projection from C's level onto A's level."""
    if not verify_matrix_morphism(chain, p):
        raise ValueError("p is not a valid matrix morphism")
    B, A = p.source, p.target
    Bc, projB = to_cycle_object(chain, B)
    challenge = compose(p.underlying, projB.underlying)
    stage, r_part = chain.absorb_morphism(challenge, target_level=A.level)
    C = lift_cycle(chain, Bc, r_part, stage)
    r = MatrixMorphism(compose(projB.underlying, r_part), C, B)
    if not verify_matrix_morphism(chain, r):
        raise RuntimeError("reverse projection failed to verify; this is a bug")
    proj = chain.composite_mapping(stage, A.level)
    f = p.underlying.mapping
    if any(f[r.underlying.mapping[c]] != proj[c] for c in chain.levels[stage].cells):
        raise RuntimeError("reverse projection triangle failed; this is a bug")
    return C, r


# ---------------------------------------------------------------------------
# compatibility of prefixes with matrices
# ---------------------------------------------------------------------------


def _transport(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, level: int, values=()
) -> tuple[PackedValues, dict[tuple[str, str], int], list[int]]:
    """The prefix top level's table, the transport onto a level as its packed
    ints, and the given values packed in the same table.  A top map that
    misses a cell of its level, or sends one outside it, is refused."""
    if sigma.depth < level:
        raise DepthTooShallow(f"prefix depth {sigma.depth} < level {level}")
    T = sigma.depth
    anc, m = chain.composite_mapping(T, level), sigma.top_map
    top = chain.levels[T]
    try:
        pairs = {c: (anc[c], anc[m[c]]) for c in top.cells}
    except KeyError:
        raise ValueError(f"prefix map at level {T} does not cover its level") from None
    pv, weights, packed = chain._table(T, values, len(top.cells))
    return pv, pushforward(pairs, weights), packed


def transport_entries(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, level: int
) -> dict[tuple[str, str], ExactValue]:
    """Mass carried between the cells of a level by the prefix's top
    bijection: the top's packed weights added per pair, each sum read back
    once."""
    pv, entries, _ = _transport(chain, sigma, level)
    return pv.unpacked(entries)


def compatible(chain: GoodMeasureChain, sigma: AutomorphismPrefix, A: BalancedMatrix) -> bool:
    """Membership of the prefix in the neighbourhood determined by A,
    decided on packed ints of the prefix top level's table."""
    _, entries, packed = _transport(chain, sigma, A.level, A.entries.values())
    return entries == dict(zip(A.entries, packed))


def matrix_of_prefix(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, level: int
) -> BalancedMatrix:
    """The balanced matrix a prefix induces at a level; the prefix is always
    compatible with it (finite-level basis property)."""
    return BalancedMatrix(level, transport_entries(chain, sigma, level))


def compatible_witness(chain: GoodMeasureChain, A: BalancedMatrix) -> AutomorphismPrefix:
    """An automorphism prefix compatible with A (the neighbourhood of any
    valid matrix is nonempty): take the cycle representative, read off its
    permutation, and extend it to a prefix.  A matrix already in the cycle
    category is its own representative, and is checked once."""
    C, _proj = to_cycle_object(chain, A)
    perm = {a: b for (a, b) in C.entries}
    sigma = chain.extend_partial_isomorphism(C.level, perm)
    if not compatible(chain, sigma, C) or (C is not A and not compatible(chain, sigma, A)):
        raise RuntimeError("constructed witness is not compatible; this is a bug")
    return sigma


def in_morphism_neighbourhood(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, p: PartitionMorphism,
    source_level: int, target_level: int,
) -> bool:
    """True iff the prefix maps each source-level cell into its p-image."""
    if sigma.depth < source_level:
        raise DepthTooShallow(f"prefix depth {sigma.depth} < level {source_level}")
    T = sigma.depth
    anc_src = chain.composite_mapping(T, source_level)
    anc_tgt = chain.composite_mapping(T, target_level)
    m = sigma.top_map
    return all(
        p.mapping[anc_src[c]] == anc_tgt[m[c]] for c in chain.levels[T].cells
    )


def conjugate_transport_check(
    chain: GoodMeasureChain,
    sigma_f: AutomorphismPrefix,
    sigma_g: AutomorphismPrefix,
    p: MatrixMorphism,
) -> bool:
    """Machine-check that conjugating a member of [B] by a member of [p]
    lands in [A], for p: B -> A.  Always true; a False return is a bug in
    the caller's inputs or this package."""
    if not verify_matrix_morphism(chain, p):
        raise ValueError("p is not a valid matrix morphism")
    B, A = p.source, p.target
    if not compatible(chain, sigma_f, B):
        raise PreconditionFailed("f in [B]", "prefix is not compatible with the source matrix")
    if not in_morphism_neighbourhood(chain, sigma_g, p.underlying, B.level, A.level):
        raise PreconditionFailed("g in [p]", "prefix does not respect the morphism fibers")
    inner = chain.compose_prefixes(sigma_f, invert_prefix(sigma_g))
    comp = chain.compose_prefixes(sigma_g, inner)
    return compatible(chain, comp, A)
