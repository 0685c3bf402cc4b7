"""Shared descriptors and seeded random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from goodmeasures.chain import GoodMeasureChain
from goodmeasures.cycles import CycleTuple, TupleMorphism
from goodmeasures.matrices import BalancedMatrix
from goodmeasures.partitions import PartitionMorphism, WeightedPartition
from goodmeasures.values import (
    INF,
    ExactValue,
    GroupDescriptor,
    IrrationalSymbol,
    ONE,
    RationalGroup,
    ZERO,
)


def E(q, coeffs=None) -> ExactValue:
    return ExactValue.of(Fraction(q), coeffs)


@pytest.fixture(scope="session")
def dyadic() -> GroupDescriptor:
    return GroupDescriptor.dyadic()


@pytest.fixture(scope="session")
def triadic() -> GroupDescriptor:
    return GroupDescriptor.p_adic(3)


@pytest.fixture(scope="session")
def rationals() -> GroupDescriptor:
    return GroupDescriptor.rationals()


@pytest.fixture(scope="session")
def sixth_adic() -> GroupDescriptor:
    return GroupDescriptor.make(RationalGroup.make(0, {2: INF, 3: INF}))


@pytest.fixture(scope="session")
def mixed_23() -> GroupDescriptor:
    """n_2 infinite, n_3 = 1: group-like but not ring-like."""
    return GroupDescriptor.make(RationalGroup.make(0, {2: INF, 3: 1}))


def sqrt2_symbol() -> IrrationalSymbol:
    return IrrationalSymbol.sqrt("s2", 2, -1)


def sqrt2_unit_power(n: int) -> tuple[int, int]:
    """(a, b) with (sqrt(2) - 1)**n = a + b*s for s = sqrt(2) - 1, by s**2 = 1 - 2s."""
    a, b = 1, 0
    for _ in range(n):
        a, b = b, a - 2 * b
    return a, b


@pytest.fixture(scope="session")
def sqrt2_module() -> GroupDescriptor:
    """Z + Z*sqrt(2), presented through the shifted symbol sqrt(2)-1."""
    return GroupDescriptor.make(
        RationalGroup.integers(), {sqrt2_symbol(): RationalGroup.integers()}
    )


@pytest.fixture(scope="session")
def sqrt2_dyadic() -> GroupDescriptor:
    """Z[1/2] + Z[1/2]*(sqrt(2)-1), the value set of the benchmark's schedule."""
    dyadic = RationalGroup.make(0, {2: INF})
    return GroupDescriptor.make(dyadic, {sqrt2_symbol(): dyadic})


@pytest.fixture(scope="session")
def two_symbol() -> GroupDescriptor:
    """Z[1/2] + Z[1/2]*(sqrt(2)-1) + Z*(sqrt(3)-1): two symbols, two groups."""
    dyadic = RationalGroup.make(0, {2: INF})
    return GroupDescriptor.make(
        dyadic,
        {sqrt2_symbol(): dyadic, IrrationalSymbol.sqrt("s3", 3, -1): RationalGroup.integers()},
    )


def alpha_symbol() -> IrrationalSymbol:
    return IrrationalSymbol.sqrt("alpha", 2, -1)


def alpha_module() -> GroupDescriptor:
    return GroupDescriptor.make(
        RationalGroup.integers(), {alpha_symbol(): RationalGroup.integers()}
    )


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def value_pool(V: GroupDescriptor, budget: int = 6) -> list[ExactValue]:
    return V.enumerate_values(budget)


def random_split(
    rng: random.Random,
    V: GroupDescriptor,
    total: ExactValue,
    max_parts: int,
    pool: list[ExactValue] | None = None,
) -> list[ExactValue]:
    """Split a positive V-value into 1..max_parts positive V-parts."""
    pool = pool if pool is not None else value_pool(V)
    parts = [total]
    want = rng.randint(1, max_parts)
    attempts = 0
    while len(parts) < want and attempts < 50:
        attempts += 1
        i = rng.randrange(len(parts))
        options = [v for v in pool if (v - parts[i]).sign() < 0]
        if not options:
            continue
        a = rng.choice(options)
        parts[i: i + 1] = [a, parts[i] - a]
    return parts


def random_partition(
    rng: random.Random, V: GroupDescriptor, max_parts: int, prefix: str = "x"
) -> WeightedPartition:
    parts = random_split(rng, V, ONE, max_parts)
    return WeightedPartition.make([(f"{prefix}{i}", w) for i, w in enumerate(parts)])


def random_refining_morphism(
    rng: random.Random, V: GroupDescriptor, F: WeightedPartition, max_split: int, prefix: str
) -> PartitionMorphism:
    """A random object refining F cellwise, with its merge onto F."""
    cells = []
    mapping = {}
    k = 0
    for c in F.cells:
        for w in random_split(rng, V, F.weight(c), max_split):
            cid = f"{prefix}{k}"
            k += 1
            cells.append((cid, w))
            mapping[cid] = c
    src = WeightedPartition.make(cells)
    return PartitionMorphism(src, F, mapping)


def random_balanced_matrix(
    rng: random.Random, chain: GoodMeasureChain, level: int, moves: int = 8
) -> BalancedMatrix:
    """Random valid matrix: start from the diagonal and rotate mass around
    random short cycles (keeps row and column sums intact)."""
    P = chain.levels[level]
    cells = list(P.cells)
    entries: dict[tuple[str, str], ExactValue] = {(c, c): P.weight(c) for c in P.cells}
    pool = value_pool(chain.V)
    for _ in range(moves):
        if len(cells) < 2:
            break
        k = rng.choice([2, 2, 3]) if len(cells) >= 3 else 2
        ring = rng.sample(cells, k)
        diag = [entries.get((c, c), ZERO) for c in ring]
        cap = diag[0]
        for d in diag[1:]:
            if (d - cap).sign() < 0:
                cap = d
        options = [v for v in pool if (v - cap).sign() <= 0]
        if not options:
            continue
        delta = rng.choice(options)
        for i, c in enumerate(ring):
            nxt = ring[(i + 1) % k]
            entries[(c, c)] = entries[(c, c)] - delta
            entries[(c, nxt)] = entries.get((c, nxt), ZERO) + delta
        entries = {e: w for e, w in entries.items() if w.sign() > 0}
    return BalancedMatrix(level, entries)


def random_equi_summed(
    rng: random.Random, V: GroupDescriptor, size: int, cycles: int
) -> dict[tuple[str, str], ExactValue]:
    """A random equi-summed matrix built as a sum of random cycle matrices."""
    ids = [f"v{i}" for i in range(size)]
    pool = value_pool(V)
    entries: dict[tuple[str, str], ExactValue] = {}
    for _ in range(cycles):
        k = rng.randint(1, size)
        verts = rng.sample(ids, k)
        w = rng.choice(pool)
        for i, a in enumerate(verts):
            b = verts[(i + 1) % k]
            entries[(a, b)] = entries.get((a, b), ZERO) + w
    return entries


def allowed_lengths(V: GroupDescriptor, up_to: int = 6) -> list[int]:
    """Cycle lengths n with 1/n in V."""
    return [n for n in range(1, up_to + 1) if V.member(E(Fraction(1, n)))]


def random_cycle_tuple(
    rng: random.Random, V: GroupDescriptor, max_entries: int, mass: ExactValue = ONE
) -> CycleTuple:
    """Random tuple of total mass `mass` over a ring-like V: each mass part
    m becomes the cycle (m/n, n) for an admitted length n."""
    parts = random_split(rng, V, mass, max_entries)
    lengths = allowed_lengths(V)
    entries = []
    for p in parts:
        n = rng.choice(lengths)
        entries.append((p.scale(Fraction(1, n)), n))
    return CycleTuple.make(entries)


def random_tuple_cospan(rng: random.Random, V: GroupDescriptor):
    """Random A with two covers p_i: B_i -> A (sizes <= 4, windings <= 3)."""
    a_parts = random_split(rng, V, ONE, 2)
    A_entries = []
    for p in a_parts:
        n = rng.randint(1, 3)
        A_entries.append((p.scale(Fraction(1, n)), n))
    A = CycleTuple.make(A_entries)

    def cover(side: str):
        raw_entries = []
        raw_blocks: list[list[int]] = []
        for z_t, n_t in A.entries:
            pieces = random_split(rng, V, z_t, 2)
            block = []
            for x in pieces:
                w = rng.randint(1, 3)
                block.append(len(raw_entries))
                raw_entries.append((x.scale(Fraction(1, w)), w * n_t))
            raw_blocks.append(block)
        from goodmeasures.cycles import _sorted_with_positions

        B, pos = _sorted_with_positions(raw_entries)
        blocks = [[pos[i] for i in blk] for blk in raw_blocks]
        return B, TupleMorphism.make(blocks)

    B0, p0 = cover("l")
    B1, p1 = cover("r")
    return A, B0, p0, B1, p1
