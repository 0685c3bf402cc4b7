"""Every mass identity the engine decides with ``partitions.pushforward``,
against the summing loop that decided it before, on valid and doctored
inputs: the same verdict, or the same exception type."""

import random
from fractions import Fraction

import pytest

from goodmeasures.chain import AutomorphismPrefix, GoodMeasureChain
from goodmeasures.cycles import CycleTuple, TupleMorphism, verify_tuple_morphism
from goodmeasures.errors import WeightMismatch
from goodmeasures.flows import check_equi_summed
from goodmeasures.matrices import (
    BalancedMatrix,
    MatrixMorphism,
    compatible_witness,
    matrix_of_prefix,
    transport_entries,
    validate,
    verify_matrix_morphism,
)
from goodmeasures.partitions import PartitionMorphism, WeightedPartition, pushforward
from goodmeasures.values import ZERO

from conftest import (
    E,
    random_balanced_matrix,
    random_equi_summed,
    random_partition,
    random_tuple_cospan,
)
from oracles import (
    bijection_by_sets,
    equi_summed_by_vertices,
    matrix_by_rows,
    matrix_morphism_by_fibers,
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


def chain_with_prefix(rng, V):
    """A chain with two random absorbed objects and a prefix compatible with
    a random matrix on its top, which may refine the chain further."""
    chain = GoodMeasureChain(V)
    for i in range(2):
        chain.absorb_object(random_partition(rng, V, 3, prefix=f"o{i}"))
    sigma = compatible_witness(chain, random_balanced_matrix(rng, chain, chain.depth))
    return chain, sigma


@pytest.mark.parametrize("seed", range(4))
def test_matrix_checks_agree_with_their_references(dyadic, seed):
    rng = random.Random(1700 + seed)
    chain, sigma = chain_with_prefix(rng, dyadic)
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
        for m in morphisms:
            want = outcome(matrix_morphism_by_fibers, chain, m)
            verdicts.add(want)
            assert outcome(verify_matrix_morphism, chain, m) == want
    assert {("returned", True), ("returned", False)} <= verdicts


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
