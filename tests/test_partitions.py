"""Weighted partitions, morphisms, common refinement, amalgamation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodmeasures.errors import NotInV, SumMismatch
from goodmeasures.partitions import (
    PartitionMorphism,
    WeightedPartition,
    _refine,
    amalgamate,
    common_refinement,
    compose,
    identity,
    maps_onto,
    split_cell,
    verify_morphism,
)
from goodmeasures.values import IrrationalSymbol, ONE, PackedValues, ZERO

from conftest import (
    E,
    random_partition,
    random_refining_morphism,
    random_split,
    sqrt2_symbol,
    value_pool,
)
from oracles import morphism_by_sets, peel_refinement, refinement_feasible


def P(*weights, prefix="c"):
    return WeightedPartition.make([(f"{prefix}{i}", E(w)) for i, w in enumerate(weights)])


S = E(0, {sqrt2_symbol(): 1})  # sqrt(2) - 1


# -- the checked constructor --------------------------------------------------------


_REFUSED = [
    ([], "partitions must be nonempty"),
    ([("a", E("1/2")), ("a", E("1/2"))], "cell identifiers must be unique"),
    ([("a", ONE), ("b", ZERO)], "weight of b must be positive"),
    ([("a", E("3/2")), ("b", E("-1/2"))], "weight of b must be positive"),
    ([("a", ONE), ("b", S - S)], "weight of b must be positive"),
    ([("a", E("3/2") - S), ("b", S - E("1/2"))], "weight of b must be positive"),
    # a repeated id is reported before a non-positive weight, wherever each lies
    ([("a", ZERO), ("b", ONE), ("b", ONE)], "cell identifiers must be unique"),
    ([("a", ONE), ("a", ZERO)], "cell identifiers must be unique"),
    # the first cell of non-positive weight, in cell order
    ([("a", ONE), ("b", E("-1/2")), ("c", ZERO), ("d", E("-1/2"))],
     "weight of b must be positive"),
]


@pytest.mark.parametrize("weights,reason", _REFUSED)
def test_make_rejects(weights, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        WeightedPartition.make(weights)


@pytest.mark.parametrize("weights,reason", _REFUSED)
def test_from_json_refuses_as_make_does(weights, reason):
    """Each weight is parsed and its sign checked once per memo, and a
    second partition read with the same memo is refused the same way."""
    data = {"cells": [{"id": c, "w": w.to_json()} for c, w in weights]}
    symbols = {s.name: s for s in S.syms}
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            WeightedPartition.from_json(data, symbols, memo)
    assert all(v.sign() > 0 for v in memo.values())


_X = IrrationalSymbol.digits("x", 2, "1" * 4096)  # 1 - 2**-4096 <= x <= 1
_UNDECIDED = {"q": "-1", "irr": {"x": "1"}}  # x - 1: its sign is undecided


@pytest.mark.parametrize("cells,reason", [
    ([("a", _UNDECIDED), ("a", {"q": "1/2"})], "cell identifiers must be unique"),
    ([("a", _UNDECIDED), ("b", {"q": "1", "irr": []})],
     "irrational part is a JSON array, not an object"),
])
def test_from_json_checks_signs_after_parsing_and_ids(cells, reason):
    """A sign is decided only once every weight is parsed and every id
    known to be unique, as ``make`` decides it."""
    data = {"cells": [{"id": c, "w": w} for c, w in cells]}
    with pytest.raises(ValueError, match=f"^{reason}$"):
        WeightedPartition.from_json(data, {"x": _X}, {})
    with pytest.raises(ArithmeticError, match="sign undecided"):
        WeightedPartition.from_json({"cells": data["cells"][:1]}, {"x": _X}, {})


def test_from_json_shares_one_value_per_distinct_weight():
    data = {"cells": [{"id": f"c{i}", "w": w} for i, w in
                      enumerate([{"q": "1/4"}, {"q": "1/2"}, {"q": "1/4"}])]}
    memo: dict = {}
    part = WeightedPartition.from_json(data, {}, memo)
    again = WeightedPartition.from_json(data, {}, memo)
    assert part.cells == ("c0", "c1", "c2") and part.weight_list() == [E("1/4"), E("1/2"), E("1/4")]
    assert part.weights["c0"] is part.weights["c2"] is again.weights["c0"]
    assert len(memo) == 2 and "total" not in vars(part)


def test_make_sums_the_total_on_first_use():
    part = WeightedPartition.make([("a", S), ("b", E("1/2")), ("c", E("1/2") - S)])
    assert "total" not in vars(part)
    assert part.total == ONE and vars(part)["total"] is part.total


# -- common refinement ---------------------------------------------------------


def test_refinement_single_left(dyadic):
    ref = common_refinement([ONE], [E("1/4"), E("3/4")], dyadic)
    assert list(ref.parts) == [E("1/4"), E("3/4")]
    assert ref.left_blocks == ((0, 1),)
    assert ref.right_blocks == ((0,), (1,))


def test_refinement_dyadic_example(dyadic):
    ref = common_refinement([E("1/2"), E("1/2")], [E("1/4"), E("3/4")], dyadic)
    assert list(ref.parts) == [E("1/4"), E("1/4"), E("1/2")]
    assert ref.left_blocks == ((0, 1), (2,))
    assert ref.right_blocks == ((0,), (1, 2))


def test_refinement_triadic_example(triadic):
    ref = common_refinement([E("1/3"), E("2/3")], [E("2/3"), E("1/3")], triadic)
    assert list(ref.parts) == [E("1/3")] * 3
    assert ref.left_blocks == ((0,), (1, 2))
    assert ref.right_blocks == ((0, 1), (2,))


def test_refinement_errors(dyadic):
    with pytest.raises(SumMismatch):
        common_refinement([E("1/2")], [E("1/4")], dyadic)
    with pytest.raises(NotInV):
        common_refinement([E("1/3"), E("2/3")], [ONE], dyadic)
    with pytest.raises(ValueError):
        common_refinement([], [], dyadic)


def _check_refinement(ref, left, right):
    for i, block in enumerate(ref.left_blocks):
        total = ZERO
        for s in block:
            total = total + ref.parts[s]
        assert total == left[i]
    for j, block in enumerate(ref.right_blocks):
        total = ZERO
        for s in block:
            total = total + ref.parts[s]
        assert total == right[j]
    flat = sorted(s for b in ref.left_blocks for s in b)
    assert flat == list(range(len(ref.parts)))
    flat = sorted(s for b in ref.right_blocks for s in b)
    assert flat == list(range(len(ref.parts)))
    assert len(ref.parts) <= len(left) + len(right) - 1


def test_refinement_random_instances(dyadic, triadic):
    rng = random.Random(202)
    for V in (dyadic, triadic):
        for _ in range(60):
            total = rng.choice(V.enumerate_values(4))
            left = random_split(rng, V, total, 6)
            right = random_split(rng, V, total, 6)
            ref = common_refinement(left, right, V)
            _check_refinement(ref, left, right)
            for v in ref.parts:
                assert V.member(v)
            if len(ref.parts) <= 8:
                assert refinement_feasible(ref.parts, left)
                assert refinement_feasible(ref.parts, right)


def _runs(atoms, cuts):
    """Sums of the runs of atoms between the given cut positions."""
    bounds = [0, *sorted(cuts), len(atoms)]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        acc = atoms[a]
        for w in atoms[a + 1:b]:
            acc = acc + w
        out.append(acc)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(["rationals", "sqrt2_dyadic"]))
def test_refine_matches_peel(data, name, request):
    """Both tuples group one row of atoms into runs of 1 to 8 entries: a cut
    of both sides is a shared breakpoint, a cut of one side a missing one;
    ``coarsen`` keeps only cuts of the left, and one side may have a single
    entry."""
    pool = value_pool(request.getfixturevalue(name), 5)
    atoms = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    between = list(range(1, len(atoms)))
    cuts = st.lists(st.sampled_from(between), max_size=7, unique=True) if between else st.just([])
    left_cuts = data.draw(cuts)
    if data.draw(st.booleans(), label="coarsen"):
        right_cuts = data.draw(st.lists(st.sampled_from(left_cuts), unique=True)
                               if left_cuts else st.just([]))
    else:
        right_cuts = data.draw(cuts)
    left, right = _runs(atoms, left_cuts), _runs(atoms, right_cuts)
    if data.draw(st.booleans(), label="swap"):
        left, right = right, left
    assert _refine(left, right) == peel_refinement(left, right)


# -- morphisms --------------------------------------------------------------------


def test_verify_identity():
    part = P("1/2", "1/4", "1/4")
    assert verify_morphism(identity(part))


def test_verify_merge():
    src = P("1/4", "1/4")
    tgt = WeightedPartition.make([("m", E("1/2"))])
    assert verify_morphism(PartitionMorphism(src, tgt, {"c0": "m", "c1": "m"}))


def test_verify_bad_mass():
    src = P("1/4", "1/4")
    tgt = WeightedPartition.make([("m", E("3/4"))])
    assert not verify_morphism(PartitionMorphism(src, tgt, {"c0": "m", "c1": "m"}))


def test_verify_not_surjective():
    src = P("1/2", "1/2")
    tgt = P("1/2", "1/2", prefix="t")
    assert not verify_morphism(PartitionMorphism(src, tgt, {"c0": "t0", "c1": "t0"}))


def _doctored_maps(rng, source, target, mapping):
    """The map, then copies that swap two images, move one, drop a key, add
    a key, rename a key, send a cell off the target, and a map drawn at
    random."""
    cells = list(mapping)
    yield dict(mapping)
    a, b = rng.choice(cells), rng.choice(cells)
    yield {**mapping, a: mapping[b], b: mapping[a]}  # valid iff equal weights or one fiber
    yield {**mapping, a: rng.choice(target.cells)}
    yield {c: x for c, x in mapping.items() if c != a}
    yield {**mapping, "ghost": mapping[a]}
    yield {("ghost" if c == a else c): x for c, x in mapping.items()}
    yield {**mapping, a: "nowhere"}
    yield {c: rng.choice(target.cells) for c in source.cells}


def _packed_verdict(m: PartitionMorphism) -> bool:
    """``maps_onto`` over one packing of both sides' weights, with room for
    the source cells."""
    n = len(m.source.cells)
    pv = PackedValues([*m.source.weight_list(), *m.target.weight_list()], n)
    source = dict(zip(m.source.cells, pv.packed[:n]))
    target = dict(zip(m.target.cells, pv.packed[n:]))
    return maps_onto(m.mapping, source, target)


@pytest.mark.parametrize("descriptor", ["dyadic", "triadic", "sqrt2_dyadic"])
def test_verify_agrees_with_the_set_oracle_over_values_and_packed_ints(descriptor, request):
    V = request.getfixturevalue(descriptor)
    rng = random.Random(1601)
    verdicts = set()
    for _ in range(25):
        F = random_partition(rng, V, 4, prefix="f")
        m = random_refining_morphism(rng, V, F, 3, "a")
        if rng.random() < 0.25:  # a zero-weight target cell, from the bare constructor
            F = WeightedPartition((*F.cells, "z"), {**F.weights, "z": ZERO})
        for mapping in _doctored_maps(rng, m.source, F, m.mapping):
            mor = PartitionMorphism(m.source, F, mapping)
            want = morphism_by_sets(mor)
            verdicts.add(want)
            assert verify_morphism(mor) is want
            assert _packed_verdict(mor) is want
    assert verdicts == {True, False}


def test_verify_rejects_an_unreached_zero_weight_cell():
    src = P("1/2", "1/2")
    tgt = WeightedPartition(("t0", "z"), {"t0": ONE, "z": ZERO})
    mor = PartitionMorphism(src, tgt, {"c0": "t0", "c1": "t0"})
    assert not morphism_by_sets(mor)
    assert not verify_morphism(mor) and not _packed_verdict(mor)


def test_morphism_composition_valid(dyadic):
    rng = random.Random(5)
    for _ in range(20):
        F = random_partition(rng, dyadic, 3)
        m1 = random_refining_morphism(rng, dyadic, F, 3, "a")
        m2 = random_refining_morphism(rng, dyadic, m1.source, 2, "b")
        assert verify_morphism(m1) and verify_morphism(m2)
        assert verify_morphism(compose(m1, m2))


# -- amalgamation -------------------------------------------------------------------


def test_amalgamate_identities(dyadic):
    F = P("1/2", "1/2")
    G, p1, p2 = amalgamate(identity(F), identity(F), dyadic)
    assert G.sorted_weight_key() == F.sorted_weight_key()
    assert verify_morphism(p1) and verify_morphism(p2)


def test_amalgamate_one_cell_base(dyadic):
    base = WeightedPartition.make([("r", ONE)])
    e1 = P("1/2", "1/2", prefix="a")
    e2 = P("1/4", "3/4", prefix="b")
    f1 = PartitionMorphism(e1, base, {"a0": "r", "a1": "r"})
    f2 = PartitionMorphism(e2, base, {"b0": "r", "b1": "r"})
    G, p1, p2 = amalgamate(f1, f2, dyadic)
    assert [G.weight(c) for c in G.cells] == [E("1/4"), E("1/4"), E("1/2")]
    for c in G.cells:
        assert f1.mapping[p1.mapping[c]] == f2.mapping[p2.mapping[c]]


def test_amalgamate_refines_only_shared_fiber(triadic):
    F = P("1/3", "2/3", prefix="f")
    e1 = WeightedPartition.make(
        [("a0", E("1/3")), ("a1", E("1/3")), ("a2", E("1/3"))]
    )
    e2 = WeightedPartition.make(
        [("b0", E("1/3")), ("b1", E("2/9")), ("b2", E("4/9"))]
    )
    f1 = PartitionMorphism(e1, F, {"a0": "f0", "a1": "f1", "a2": "f1"})
    f2 = PartitionMorphism(e2, F, {"b0": "f0", "b1": "f1", "b2": "f1"})
    G, p1, p2 = amalgamate(f1, f2, triadic)
    assert verify_morphism(p1) and verify_morphism(p2)
    # the f0 fiber stays a single cell
    fiber0 = [c for c in G.cells if f1.mapping[p1.mapping[c]] == "f0"]
    assert len(fiber0) == 1
    for c in G.cells:
        assert f1.mapping[p1.mapping[c]] == f2.mapping[p2.mapping[c]]


def test_amalgamate_random_commuting_squares(dyadic, triadic):
    rng = random.Random(77)
    for V in (dyadic, triadic):
        for _ in range(40):
            F = random_partition(rng, V, 3, prefix="f")
            f1 = random_refining_morphism(rng, V, F, 3, "a")
            f2 = random_refining_morphism(rng, V, F, 3, "b")
            G, p1, p2 = amalgamate(f1, f2, V)
            assert verify_morphism(p1) and verify_morphism(p2)
            assert G.total == F.total
            for c in G.cells:
                assert V.member(G.weight(c))
                assert f1.mapping[p1.mapping[c]] == f2.mapping[p2.mapping[c]]


# -- splitting ----------------------------------------------------------------------


def test_split_cell_basic(dyadic):
    part = P("1/2", "1/2")
    R, pi = split_cell(part, "c0", [E("1/4"), E("1/4")], dyadic)
    assert len(R.cells) == 3
    assert verify_morphism(pi)
    assert R.weight("c0/0") == E("1/4")
    assert R.weight("c1") == E("1/2")


def test_split_whole_space_triadic(triadic):
    part = WeightedPartition.make([("r", ONE)])
    R, pi = split_cell(part, "r", [E("1/3")] * 3, triadic)
    assert verify_morphism(pi)
    assert R.total == ONE


def test_split_rejects_foreign_values(dyadic):
    part = P("1/2", "1/2")
    with pytest.raises(NotInV):
        split_cell(part, "c0", [E("1/3"), E("1/6")], dyadic)
    with pytest.raises(SumMismatch):
        split_cell(part, "c0", [E("1/4"), E("1/8")], dyadic)


def test_children_may_not_take_a_cell_id(dyadic):
    """A cell c next to a cell c/0 cannot be split or refined: its children
    would be named c/0 and c/1."""
    part = WeightedPartition.make([("c", E("1/2")), ("c/0", E("1/2"))])
    with pytest.raises(ValueError, match="^cell identifiers must be unique$"):
        split_cell(part, "c", [E("1/4"), E("1/4")], dyadic)
    base = WeightedPartition.make([("r", ONE)])
    f1 = PartitionMorphism(part, base, {"c": "r", "c/0": "r"})
    f2 = PartitionMorphism(P("1/4", "3/4"), base, {"c0": "r", "c1": "r"})
    with pytest.raises(ValueError, match="^cell identifiers must be unique$"):
        amalgamate(f1, f2, dyadic)
