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
from .jsonutil import parse_int
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
from .values import ExactValue


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
        entries = {
            (e["from"], e["to"]): ExactValue.from_json(e["w"], symbols)
            for e in data["entries"]
        }
        return BalancedMatrix(parse_int(data["level"]), entries)


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
    rows, and the entries sum to the level's total, one)."""
    if not 0 <= A.level <= chain.depth:
        return False
    weights, entries = chain.levels[A.level].weights, A.entries
    if not all(maps_onto({e: e[i] for e in entries}, entries, weights) for i in (0, 1)):
        return False
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
    entries aggregate exactly along its fibers."""
    if not verify_morphism(m.underlying):
        return False
    if m.underlying.source.cells != chain.levels[m.source.level].cells:
        return False
    if m.underlying.target.cells != chain.levels[m.target.level].cells:
        return False
    f, entries = m.underlying.mapping, m.source.entries
    return maps_onto({e: (f[e[0]], f[e[1]]) for e in entries}, entries, dict(m.target.entries))


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
    P_A = chain.levels[A.level]
    if p.target.cells != P_A.cells:
        raise ValueError("morphism target is not the matrix index partition")
    if p.source.cells != chain.levels[source_level].cells:
        raise ValueError("morphism source is not the given chain level")
    if not verify_morphism(p):
        raise ValueError("p is not a valid morphism")
    entries = lift_edges(p, [e for cyc in cycles for e in cyc.edges()])
    return BalancedMatrix(source_level, entries)


# ---------------------------------------------------------------------------
# cofinality: cycle representatives
# ---------------------------------------------------------------------------


def _split_at_top(
    chain: GoodMeasureChain, A: BalancedMatrix
) -> tuple[BalancedMatrix, MatrixMorphism]:
    """Split every top cell by the cycles through it; the split level carries
    a cycle-category representative projecting onto A.  Each child cell
    weighs exactly its cycle's weight, which is its entry in the result."""
    perm = chain._append_cycle_split(decompose_entries(A.entries))
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
    cycles = decompose_entries(A.entries)
    through = cycles_through(P_A.cells, [verts for verts, _ in cycles])
    d_weights = {f"{c}@{ci}": cycles[ci][1] for c in P_A.cells for ci, _ in through[c]}
    D = WeightedPartition(tuple(d_weights), d_weights)
    projD = PartitionMorphism(D, P_A, {cid: cid.rsplit("@", 1)[0] for cid in d_weights})
    d_cycles = [
        CycleMatrix(tuple(f"{v}@{ci}" for v in verts), w)
        for ci, (verts, w) in enumerate(cycles)
    ]
    stage, r = chain._absorb_morphism(projD, A.level)
    entries = lift_edges(r, [e for cyc in d_cycles for e in cyc.edges()])
    B = BalancedMatrix(stage, entries)
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


def transport_entries(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, level: int
) -> dict[tuple[str, str], ExactValue]:
    """Mass carried between the cells of a level by the prefix's top bijection."""
    if sigma.depth < level:
        raise DepthTooShallow(f"prefix depth {sigma.depth} < level {level}")
    anc, m = chain.composite_mapping(sigma.depth, level), sigma.top_map
    top = chain.levels[sigma.depth]
    return pushforward({c: (anc[c], anc[m[c]]) for c in top.cells}, top.weights)


def compatible(chain: GoodMeasureChain, sigma: AutomorphismPrefix, A: BalancedMatrix) -> bool:
    """Membership of the prefix in the neighbourhood determined by A."""
    return transport_entries(chain, sigma, A.level) == dict(A.entries)


def matrix_of_prefix(
    chain: GoodMeasureChain, sigma: AutomorphismPrefix, level: int
) -> BalancedMatrix:
    """The balanced matrix a prefix induces at a level; the prefix is always
    compatible with it (finite-level basis property)."""
    return BalancedMatrix(level, transport_entries(chain, sigma, level))


def compatible_witness(chain: GoodMeasureChain, A: BalancedMatrix) -> AutomorphismPrefix:
    """An automorphism prefix compatible with A (the neighbourhood of any
    valid matrix is nonempty): take the cycle representative, read off its
    permutation, and extend it to a prefix."""
    C, _proj = to_cycle_object(chain, A)
    perm = {a: b for (a, b) in C.entries}
    sigma = chain.extend_partial_isomorphism(C.level, perm)
    if not compatible(chain, sigma, C) or not compatible(chain, sigma, A):
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
