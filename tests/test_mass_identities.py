"""Every mass identity the engine decides with ``partitions.pushforward``,
against the summing loop that decided it before, on valid and doctored
inputs: the same verdict, or the same exception type.

The chain's identities run on packed ints of its per-level weight tables,
so the cases include a level whose table has a symbol slot, entries that do
not lie over the level's denominator, and sums of more entries than the
level has cells."""

import random
from fractions import Fraction

import pytest

from goodmeasures.chain import AutomorphismPrefix, ClopenSet, GoodMeasureChain
from goodmeasures.cycles import CycleTuple, TupleMorphism, verify_tuple_morphism
from goodmeasures.errors import WeightMismatch
from goodmeasures.flows import check_equi_summed
from goodmeasures.matrices import (
    BalancedMatrix,
    MatrixMorphism,
    compatible,
    compatible_witness,
    matrix_of_prefix,
    transport_entries,
    validate,
    verify_matrix_morphism,
)
from goodmeasures.partitions import PartitionMorphism, WeightedPartition, pushforward
from goodmeasures.values import ONE, ZERO

from conftest import (
    E,
    random_balanced_matrix,
    random_equi_summed,
    random_partition,
    random_tuple_cospan,
    sqrt2_symbol,
)
from oracles import (
    bijection_by_sets,
    equi_summed_by_vertices,
    matrix_by_rows,
    matrix_morphism_by_fibers,
    measure_by_cells,
    prefix_by_sets,
    transport_by_cells,
    tuple_morphism_by_blocks,
)


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return ("returned", fn(*args))
    except Exception as exc:  # the references raise what the engine should
        return ("raised", type(exc), str(exc))


def doctored_entries(rng, entries):
    """The entries, then copies with one fault each: an entry moved to an
    unknown cell, mass moved between two entries, a zero entry, a cell with
    no row and a negative entry."""
    entries = dict(entries)
    yield entries
    keys = sorted(entries)
    (a, b), f = rng.choice(keys), rng.choice(keys)
    w = entries[(a, b)]
    yield {**{e: x for e, x in entries.items() if e != (a, b)}, (a, "ghost"): w}
    if f != (a, b):
        half = w.scale(Fraction(1, 2))
        yield {**entries, (a, b): w - half, f: entries[f] + half}
    cells = sorted({v for e in entries for v in e})
    zero = next(((x, y) for x in cells for y in cells if (x, y) not in entries), (a, b))
    yield {**entries, zero: ZERO}
    yield {e: x for e, x in entries.items() if e[0] != a}
    yield {**entries, (a, b): -w}


def doctored_maps(rng, m):
    """The cell map, then copies with one fault each: two images swapped
    (valid iff the weights agree), two cells onto one image, a cell left
    out, a cell added and an image outside the level."""
    m = dict(m)
    yield m
    cells = sorted(m)
    a, b = rng.choice(cells), rng.choice(cells)
    yield {**m, a: m[b], b: m[a]}
    yield {**m, a: m[b]}
    yield {c: x for c, x in m.items() if c != a}
    yield {**m, "ghost": m[a]}
    yield {**m, a: "ghost"}


def chain_with_prefix(rng, V, first=None):
    """A chain with two random absorbed objects, after ``first`` if given,
    and a prefix compatible with a random matrix on its top, which may
    refine the chain further."""
    chain = GoodMeasureChain(V)
    if first is not None:
        chain.absorb_object(first)
    for i in range(2):
        chain.absorb_object(random_partition(rng, V, 3, prefix=f"o{i}"))
    sigma = compatible_witness(chain, random_balanced_matrix(rng, chain, chain.depth))
    return chain, sigma


@pytest.mark.parametrize("seed", range(4))
def test_matrix_checks_agree_with_their_references(dyadic, seed):
    _matrix_checks_agree(random.Random(1700 + seed), dyadic)


@pytest.mark.parametrize("seed", range(3))
def test_matrix_checks_agree_on_levels_with_a_symbol_slot(sqrt2_dyadic, seed):
    """The same, over the sqrt(2)-dyadic module, after an object with an
    irrational weight: the tables have a symbol slot."""
    s = E(0, {sqrt2_symbol(): 1})
    first = WeightedPartition.make([("s", s), ("c", ONE - s)])
    chain = _matrix_checks_agree(random.Random(1740 + seed), sqrt2_dyadic, first)
    assert chain._table(chain.depth)[0].syms


def _matrix_checks_agree(rng, V, first=None):
    chain, sigma = chain_with_prefix(rng, V, first)
    verdicts, repeated = set(), False
    for level in range(sigma.depth + 1):
        want = transport_by_cells(chain, sigma, level)
        got = transport_entries(chain, sigma, level)
        assert got == want and list(got) == list(want)
        repeated |= len(want) < len(chain.levels[sigma.depth].cells)
        for entries in doctored_entries(rng, random_balanced_matrix(rng, chain, level).entries):
            A = BalancedMatrix(level, entries)
            want = matrix_by_rows(chain, A)
            verdicts.add(want)
            assert validate(chain, A) is want
    assert repeated and verdicts == {True, False}
    verdicts = set()
    for lo in range(sigma.depth):
        hi = rng.randint(lo + 1, sigma.depth)
        p = PartitionMorphism(chain.levels[hi], chain.levels[lo], chain.composite_mapping(hi, lo))
        B, A = matrix_of_prefix(chain, sigma, hi), matrix_of_prefix(chain, sigma, lo)
        morphisms = [MatrixMorphism(p, BalancedMatrix(hi, e), A)
                     for e in doctored_entries(rng, B.entries)]
        morphisms += [MatrixMorphism(p, B, BalancedMatrix(lo, e))
                      for e in doctored_entries(rng, A.entries)]
        # a copy of the source level, and one with two weights swapped, are
        # checked on their own weights, packed in the level's table
        S = chain.levels[hi]
        weights = dict(S.weights)
        a, b = rng.sample(S.cells, 2) if len(S.cells) > 1 else (S.cells[0],) * 2
        for W in (dict(weights), {**weights, a: weights[b], b: weights[a]}):
            q = PartitionMorphism(WeightedPartition(S.cells, W), p.target, p.mapping)
            morphisms.append(MatrixMorphism(q, B, A))
        for m in morphisms:
            want = outcome(matrix_morphism_by_fibers, chain, m)
            verdicts.add(want)
            assert outcome(verify_matrix_morphism, chain, m) == want
    assert {("returned", True), ("returned", False)} <= verdicts
    for level in range(sigma.depth + 1):
        A = matrix_of_prefix(chain, sigma, level)
        for entries in doctored_entries(rng, A.entries):
            B = BalancedMatrix(level, entries)
            want = entries == transport_by_cells(chain, sigma, level)
            assert compatible(chain, sigma, B) is want
    return chain


def thirds_chain(V):
    """A chain whose top is a level of thirds."""
    chain = GoodMeasureChain(V)
    chain.absorb_object(WeightedPartition.make([(f"t{i}", E("1/3")) for i in range(3)]))
    return chain


def sixths(chain):
    """A valid matrix of sixths on the chain's level of thirds: none of its
    entries lies over the level's denominator 3."""
    a, b, c = chain.top.cells
    six = E("1/6")
    return BalancedMatrix(chain.depth, {(a, a): six, (a, b): six, (b, a): six, (b, b): six,
                                        (c, c): E("1/3")})


def thirds_and_sixths(V):
    """Entries of 1/6 on a level of thirds, whose table has the denominator 3."""
    chain = thirds_chain(V)
    return chain, sixths(chain)


def swap(chain, eps):
    """A matrix on the top moving eps from each of its first two cells to the other."""
    top = chain.top
    a, b = top.cells[:2]
    entries = {(c, c): top.weight(c) for c in top.cells}
    entries.update({(a, a): top.weight(a) - eps, (a, b): eps,
                    (b, a): eps, (b, b): top.weight(b) - eps})
    return BalancedMatrix(chain.depth, entries)


def finer_than_the_table(V):
    """An entry of 2**-20 on the top of a budget-2 schedule, whose table
    (with a symbol slot) has the denominator 16."""
    chain = GoodMeasureChain(V)
    chain.run_schedule(2)
    assert chain._table(chain.depth)[0].den == 16
    return chain, swap(chain, E(Fraction(1, 2**20)))


def a_symbol_the_table_lacks(V):
    """An entry with sqrt(3) on a level of sqrt(2) - 1 and 2 - sqrt(2),
    whose table has a sqrt(2) slot only."""
    chain = GoodMeasureChain(V)
    s2, s3 = V.symbols()["s2"], V.symbols()["s3"]
    s = E(0, {s2: 1})
    chain.absorb_object(WeightedPartition.make([("a", s), ("b", ONE - s)]))
    assert [t.name for t in chain._table(chain.depth)[0].syms] == ["s2"]
    return chain, swap(chain, E("-1/2", {s3: 1}))


#: per value set: a chain and a matrix on a level whose table cannot take
#: the matrix's entries, and whether the matrix is valid over the value set
UNPACKED_CASES = {
    "rationals": (thirds_and_sixths, True),
    "triadic": (thirds_and_sixths, False),
    "sqrt2_dyadic": (finer_than_the_table, True),
    "two_symbol": (a_symbol_the_table_lacks, True),
}


@pytest.mark.parametrize("name", sorted(UNPACKED_CASES))
def test_entries_that_do_not_pack_over_the_level(name, request):
    """Entries the level's table cannot take: 1/6 on a level of thirds
    (valid over Q, not over the triadic rationals), one finer than the
    table's denominator, or one with a symbol the table has no slot for.
    Each check says what its reference says."""
    V = request.getfixturevalue(name)
    rng = random.Random(1750)
    build, valid = UNPACKED_CASES[name]
    chain, A = build(V)
    assert chain._table(A.level)[0].pack_all(list(A.entries.values())) is None
    assert validate(chain, A) is matrix_by_rows(chain, A) is valid
    if valid:  # the level's table was rebuilt over its weights and the entries
        assert chain._table(A.level)[0].pack_all(list(A.entries.values())) is not None
    for entries in doctored_entries(rng, A.entries):
        B = BalancedMatrix(chain.depth, entries)
        assert validate(chain, B) is matrix_by_rows(chain, B)
        sigma = chain.identity_prefix()
        assert compatible(chain, sigma, B) is (entries == transport_by_cells(chain, sigma, B.level))
        top = chain.levels[chain.depth]
        p = PartitionMorphism(top, top, {c: c for c in top.cells})
        m = MatrixMorphism(p, B, A)
        want = outcome(matrix_morphism_by_fibers, chain, m)
        assert outcome(verify_matrix_morphism, chain, m) == want
    if valid:
        sigma = compatible_witness(chain, A)
        assert compatible(chain, sigma, A)
        assert transport_entries(chain, sigma, A.level) == transport_by_cells(chain, sigma, A.level)


@pytest.mark.parametrize("seed", range(3))
def test_sums_of_more_entries_than_cells_on_a_symbol_level(sqrt2_dyadic, seed):
    """A matrix with more entries than its level has cells, over a table
    with a symbol slot, and a table asked for more room than it has."""
    rng = random.Random(1760 + seed)
    chain = GoodMeasureChain(sqrt2_dyadic)
    for i in range(3):
        chain.absorb_object(random_partition(rng, sqrt2_dyadic, 4, prefix=f"o{i}"))
    level = chain.depth
    A = random_balanced_matrix(rng, chain, level, moves=24)
    assert len(A.entries) > len(chain.levels[level].cells)
    for entries in doctored_entries(rng, A.entries):
        B = BalancedMatrix(level, entries)
        assert validate(chain, B) is matrix_by_rows(chain, B)
    pv = chain._table(level)[0]
    wider, weights, _ = chain._table(level, summands=pv.room + 1)
    assert wider.room > pv.room
    assert wider.unpacked(weights) == chain.levels[level].weights


@pytest.mark.parametrize("name", ["dyadic", "sqrt2_dyadic"])
def test_measures_and_subset_witnesses_agree_with_the_cell_sums(name, request):
    V = request.getfixturevalue(name)
    rng = random.Random(1770)
    chain, _ = chain_with_prefix(rng, V)
    for _ in range(12):
        level = rng.randint(0, chain.depth)
        cells = chain.levels[level].cells
        U = ClopenSet.of(level, [c for c in cells if rng.random() < 0.4])
        W = ClopenSet.of(level, [c for c in cells if rng.random() < 0.7])
        mU, mW = measure_by_cells(chain, U), measure_by_cells(chain, W)
        assert chain.measure(U) == mU and chain.measure(W) == mW
        if mU < mW:
            Wp = chain.subset_witness(U, W)
            assert measure_by_cells(chain, Wp) == mU
            assert set(Wp.cells) <= set(chain.project(W, Wp.level).cells)


@pytest.mark.parametrize("seed", range(4))
def test_equi_summed_check_agrees_with_its_reference(dyadic, seed):
    rng = random.Random(1710 + seed)
    verdicts = set()
    for _ in range(6):
        for entries in doctored_entries(rng, random_equi_summed(rng, dyadic, 4, 3)):
            want = outcome(equi_summed_by_vertices, entries)
            verdicts.add(want[0])
            assert outcome(check_equi_summed, entries) == want
    assert verdicts == {"returned", "raised"}


def doctored_tuple_morphisms(rng, m, src, tgt):
    """(m, src, tgt), then copies with one fault each: a source index listed
    in two blocks, an emptied block, an extra empty block, mass moved
    between two target entries, a winding number that no longer divides,
    and a source of another mass."""
    blocks = [list(b) for b in m.blocks]
    yield m, src, tgt
    j = rng.randrange(len(blocks))
    i = rng.choice(blocks[j])
    others = [k for k in range(len(blocks)) if k != j]
    j2 = rng.choice(others) if others else j
    yield TupleMorphism.make([b + [i] if k == j2 else b for k, b in enumerate(blocks)]), src, tgt
    if others:
        emptied = [[] if k == j else b + blocks[j] if k == j2 else b for k, b in enumerate(blocks)]
        yield TupleMorphism.make(emptied), src, tgt
        (w, k), (w2, k2) = tgt.entries[j], tgt.entries[j2]
        x = min(w.scale(k), w2.scale(k2)).scale(Fraction(1, 2))
        moved = list(tgt.entries)
        moved[j], moved[j2] = (w + x.scale(Fraction(1, k)), k), (w2 - x.scale(Fraction(1, k2)), k2)
        yield m, src, CycleTuple(tuple(moved))
    yield TupleMorphism.make(blocks + [[]]), src, tgt
    v, n = src.entries[i]
    wound = list(src.entries)
    wound[i] = (v.scale(Fraction(n, n + 1)), n + 1)
    yield m, CycleTuple(tuple(wound)), tgt
    wound[i] = (v.scale(Fraction(1, 2)), n)
    yield m, CycleTuple(tuple(wound)), tgt


@pytest.mark.parametrize("seed", range(4))
def test_tuple_morphism_check_agrees_with_its_reference(rationals, seed):
    rng = random.Random(1720 + seed)
    verdicts = set()
    for _ in range(10):
        A, B0, p0, B1, p1 = random_tuple_cospan(rng, rationals)
        for m, src, tgt in [*doctored_tuple_morphisms(rng, p0, B0, A),
                            *doctored_tuple_morphisms(rng, p1, B1, A)]:
            want = outcome(tuple_morphism_by_blocks, m, src, tgt)
            verdicts.add(want[:2])
            assert outcome(verify_tuple_morphism, m, src, tgt) == want
    assert len(verdicts) == 3  # accepted, refused, and MassMismatch raised


@pytest.mark.parametrize("seed", range(4))
def test_prefix_checks_agree_with_their_references(dyadic, seed):
    rng = random.Random(1730 + seed)
    chain, sigma = chain_with_prefix(rng, dyadic)
    verdicts = set()
    for k in sigma.levels:
        for m in doctored_maps(rng, sigma.maps[k]):
            doctored = AutomorphismPrefix({**sigma.maps, k: m})
            want = prefix_by_sets(chain, doctored)
            verdicts.add(want)
            assert chain.prefix_valid(doctored) is want
            top = AutomorphismPrefix({k: m})
            if bijection_by_sets(chain.levels[k], m):
                assert chain.extend_prefix(top, k).maps == {k: m}
            else:
                with pytest.raises(WeightMismatch):
                    chain.extend_prefix(top, k)
    assert verdicts == {True, False}


def test_prefix_checks_refuse_two_cells_onto_one_of_their_summed_weight(dyadic):
    chain = GoodMeasureChain(dyadic)
    chain.absorb_object(WeightedPartition.make([("q0", E("1/4")), ("q1", E("1/4")), ("h", E("1/2"))]))
    W = chain.top.weights
    a, b = [x for x in W if W[x] == E("1/4")]
    (c,) = [x for x in W if W[x] == E("1/2")]
    m = {a: c, b: c, c: a}  # 1/4 + 1/4 onto the cell of 1/2
    assert pushforward(m, W) == {c: W[c], a: W[c]}
    assert not bijection_by_sets(chain.top, m)
    assert not chain.prefix_valid(AutomorphismPrefix({chain.depth: m}))
    with pytest.raises(WeightMismatch):
        chain.extend_prefix(AutomorphismPrefix({chain.depth: m}), chain.depth)


def test_pushforward_sums_in_image_order_and_needs_exactly_the_source_cells():
    W = {"a": E("1/4"), "b": E("1/4"), "c": E("1/2")}
    assert list(pushforward({"c": "y", "a": "x", "b": "x"}, W).items()) == [
        ("y", E("1/2")), ("x", E("1/2"))]
    assert pushforward({"a": "x", "b": "x"}, W) is None
    assert pushforward({"a": "x", "b": "x", "d": "x"}, W) is None
