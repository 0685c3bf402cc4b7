"""The chain's per-level weight tables: the mass identities and order tests
over chain weights add and compare packed ints, so the witness path on Q
towers, the schedule's answers and checks along a copy of a level make no
``ExactValue`` addition, and matrix checks on level objects pack no level
weight again; a loaded snapshot keeps the one table it was checked with;
every table the chain keeps, built, inherited or rebuilt, reads back its
level's weights; and the whole-list kernels agree with the per-value ones."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodmeasures import matrices as matrices_module
from goodmeasures import values as values_module
from goodmeasures.chain import AutomorphismPrefix, ClopenSet, GoodMeasureChain
from goodmeasures.matrices import (
    BalancedMatrix,
    MatrixMorphism,
    _lifted,
    compatible,
    compatible_witness,
    conjugate_transport_check,
    lift_cycle,
    matrix_of_prefix,
    reverse_projection,
    to_cycle_object,
    transport_entries,
    validate,
    verify_matrix_morphism,
)
from goodmeasures.partitions import PartitionMorphism, WeightedPartition, pushforward
from goodmeasures.values import ONE, ExactValue, IrrationalSymbol, PackedValues

from conftest import E, random_balanced_matrix, random_partition, sqrt2_symbol
from oracles import matrix_morphism_by_fibers, unpack

WATCHED = {
    "pushforward": pushforward,
    "validate": validate,
    "compatible": compatible,
    "_respond": GoodMeasureChain._respond,
    "_answer": GoodMeasureChain._answer,
    "absorb_object": GoodMeasureChain.absorb_object,
    "verify_matrix_morphism": verify_matrix_morphism,
    "_lifted": _lifted,
}


def additions_inside(monkeypatch, names, run) -> list[str]:
    """Run run(); return, per ``ExactValue`` addition or subtraction made
    while one of the named functions was on the stack, that function's name."""
    codes = {WATCHED[n].__code__: n for n in names}
    seen: list[str] = []

    def watched(real):
        def op(self, other):
            frame = sys._getframe(1)
            while frame is not None:
                name = codes.get(frame.f_code)
                if name is not None:
                    seen.append(name)
                    break
                frame = frame.f_back
            return real(self, other)
        return op

    for op in ("__add__", "__sub__"):
        monkeypatch.setattr(ExactValue, op, watched(getattr(ExactValue, op)))
    run()
    monkeypatch.undo()
    return seen


def q_tower(rng, rationals) -> GoodMeasureChain:
    """A chain over Q of a few random absorbed objects, saved and loaded."""
    chain = GoodMeasureChain(rationals)
    for i in range(4):
        chain.absorb_object(random_partition(rng, rationals, 4, prefix=f"o{i}"))
    return GoodMeasureChain.from_json(chain.to_json())


def assert_tables_fresh(chain: GoodMeasureChain) -> None:
    """Each kept table holds exactly its level's cells, and reads back
    their weights."""
    for level, (pv, packed) in chain._tables.items():
        assert pv.unpacked(packed) == chain.levels[level].weights


@pytest.mark.parametrize("seed", range(4))
def test_witness_path_on_a_q_tower_adds_no_value(rationals, seed, monkeypatch):
    rng = random.Random(2100 + seed)
    chain = q_tower(rng, rationals)
    level = rng.randint(1, chain.depth)
    A = random_balanced_matrix(rng, chain, level)
    out = {}

    def run():
        B, p = to_cycle_object(chain, A)
        f = compatible_witness(chain, B)
        out["compatible"] = compatible(chain, f, A)
        g = chain.identity_prefix(f.depth)  # keeps every fiber of p
        out["transported"] = conjugate_transport_check(chain, f, g, p)
        cells = chain.levels[level].cells
        U, W = ClopenSet.of(level, cells[:1]), ClopenSet.of(level, cells)
        out["subset"] = chain.subset_witness(U, W)
        out["measures"] = (chain.measure(out["subset"]), chain.measure(U))

    seen = additions_inside(monkeypatch, WATCHED, run)
    assert seen == []
    assert out["compatible"] and out["transported"]
    assert out["measures"][0] == out["measures"][1]
    assert_tables_fresh(chain)


def sevenths(rng, chain: GoodMeasureChain, level: int) -> BalancedMatrix:
    """The level's diagonal with a seventh of the lighter of two cells
    moved each way between them: entries off the level's denominator."""
    P = chain.levels[level]
    a, b = rng.sample(P.cells, 2)
    eps = min(P.weights[a], P.weights[b]).scale(Fraction(1, 7))
    entries = {(c, c): P.weights[c] for c in P.cells}
    entries.update({(a, a): P.weights[a] - eps, (a, b): eps,
                    (b, a): eps, (b, b): P.weights[b] - eps})
    return BalancedMatrix(level, entries)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("matrix", [random_balanced_matrix, sevenths])
def test_witness_path_hands_pack_all_no_level_weight(rationals, seed, matrix, monkeypatch):
    """On a loaded Q tower, ``verify_matrix_morphism`` on the chain's level
    objects hands ``pack_all`` the two matrices' entries and nothing else,
    and ``_lifted`` hands it nothing: the levels' weights are the packed
    ints their tables hold.  A matrix of sevenths gives its level a table
    of its own, so the target's weights are the source's carried down."""
    rng = random.Random(2140 + seed)
    chain = q_tower(rng, rationals)
    A = matrix(rng, chain, rng.randint(1, chain.depth - 1))
    names = ("verify_matrix_morphism", "_lifted")
    codes = {WATCHED[n].__code__: n for n in names}
    handed = dict.fromkeys(names, 0)
    entries, lifts = [], 0
    pack_all = PackedValues.pack_all

    def counting(self, values):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in codes:
            frame = frame.f_back
        if frame is not None:
            handed[codes[frame.f_code]] += len(values)
        return pack_all(self, values)

    def verifying(chain, m):
        entries.append(len(m.source.entries) + len(m.target.entries))
        return verify_matrix_morphism(chain, m)

    def lifting(*args):
        nonlocal lifts
        lifts += 1
        return _lifted(*args)

    monkeypatch.setattr(PackedValues, "pack_all", counting)
    monkeypatch.setattr(matrices_module, "verify_matrix_morphism", verifying)
    monkeypatch.setattr(matrices_module, "_lifted", lifting)
    B, p = to_cycle_object(chain, A)
    f = compatible_witness(chain, B)
    transported = conjugate_transport_check(chain, f, chain.identity_prefix(f.depth), p)
    C, r = reverse_projection(chain, p)
    monkeypatch.undo()
    assert transported and validate(chain, C)
    assert len(entries) >= 3 and lifts
    assert handed == {"verify_matrix_morphism": sum(entries), "_lifted": 0}
    assert_tables_fresh(chain)


def test_schedule_answers_add_no_value(sqrt2_dyadic, monkeypatch):
    """A budget-2 schedule over the sqrt(2)-dyadic module, whose tables have
    a symbol slot."""
    chain = GoodMeasureChain(sqrt2_dyadic)
    seen = additions_inside(
        monkeypatch, ["pushforward", "_respond", "_answer"], lambda: chain.run_schedule(2)
    )
    assert seen == []
    assert any(pv.syms for pv, _ in chain._tables.values())
    assert_tables_fresh(chain)


def test_an_accepted_object_challenge_adds_no_value(sqrt2_dyadic, monkeypatch):
    """``absorb_object`` decides the total of a challenge it accepts on
    packed ints of the top's table, and answers it with no ``ExactValue``
    addition, whether the top answers it or a level is appended."""
    s = E(0, {sqrt2_symbol(): 1})
    chain = GoodMeasureChain(sqrt2_dyadic).run_schedule(1)
    challenges = [
        WeightedPartition.make([("a", s), ("b", E("1/2") - s), ("c", E("1/2"))]),
        WeightedPartition.make([("a", E("1/8")), ("b", s), ("c", E("7/8") - s)]),
        WeightedPartition.make([("a", E("1/2")), ("b", E("1/2"))]),
    ]
    depth = chain.depth

    def absorb():
        for P in challenges:
            chain.absorb_object(P)

    assert additions_inside(monkeypatch, ["absorb_object"], absorb) == []
    assert chain.depth > depth
    assert_tables_fresh(chain)


def _near_cancelling(rng, s: IrrationalSymbol) -> ExactValue:
    """(a + b*s)/den with |b| up to 10**30 and a within a few units of -b*s."""
    d, cn, cd = s.root
    b = rng.choice([-1, 1]) * rng.randint(1, 10**30)
    t = math.isqrt(b * b * d)
    a = -(t if b > 0 else -t) - b * cn // cd + rng.randint(-3, 3)
    den = rng.choice([1, 2, 3, 8])
    return E(Fraction(a, den), {s: Fraction(b, den)})


@pytest.mark.parametrize("seed", range(4))
def test_sign_on_a_one_sqrt_table_is_the_sign_read_back(seed, monkeypatch):
    """On a table whose one symbol is ``sqrt``, the sign of a packed signed
    sum is decided from its two coordinates, with no ``_split`` and no
    ``compare``, and is the sign of the value read back; where a 4096-bit
    enclosure of that value lies on one side of 0, it is that side."""
    rng = random.Random(f"one-sqrt/{seed}")
    s = [sqrt2_symbol(), IrrationalSymbol.sqrt("s7", 7, "-5/2")][seed % 2]
    values = [_near_cancelling(rng, s) for _ in range(6)]
    values += [E(Fraction(rng.randint(-9, 9), 4), {s: Fraction(rng.randint(-9, 9), 2)})
               for _ in range(6)]
    room = 5
    pv = PackedValues(values, room)
    sums = []
    for _ in range(200):
        picked = rng.sample(range(len(values)), rng.randint(1, room))
        sums.append(sum(rng.choice([-1, 1]) * pv.packed[i] for i in picked))

    def forbidden(*args):
        raise AssertionError("a one-sqrt table splits no list and calls no compare")

    monkeypatch.setattr(values_module, "compare", forbidden)
    monkeypatch.setattr(PackedValues, "_split", forbidden)
    signs = [pv.sign(p) for p in sums]
    monkeypatch.undo()
    for p, sign in zip(sums, signs):
        v = unpack(pv, p)
        assert sign == v.sign()
        lo, hi = v.interval(4096)
        assert (lo > 0) <= (sign > 0) and (hi < 0) <= (sign < 0)
    assert {-1, 1} <= set(signs)


def test_from_json_builds_one_table_and_keeps_it(sqrt2_dyadic, monkeypatch):
    snapshot = GoodMeasureChain(sqrt2_dyadic).run_schedule(2).to_json()
    built = []
    real = values_module.PackedValues.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(values_module.PackedValues, "__init__", counting)
    chain = GoodMeasureChain.from_json(snapshot)
    assert len(built) == 1
    assert sorted(chain._tables) == list(range(chain.depth + 1))
    assert {id(pv) for pv, _ in chain._tables.values()} == {id(built[0])}
    assert_tables_fresh(chain)


def test_morphisms_along_a_copy_of_a_level_add_no_value(dyadic, monkeypatch):
    """A matrix morphism or a cycle lift along a partition that only copies
    its level's cells, with the level's weights or with two of them
    swapped, is decided on packed ints of the level's table, like one along
    the level itself."""
    chain = GoodMeasureChain(dyadic)
    chain.absorb_object(WeightedPartition.make([("x0", E("1/2")), ("x1", E("1/2"))]))
    chain.absorb_object(WeightedPartition.make([("y0", E("1/8")), ("y1", E("7/8"))]))
    a, b = chain.levels[1].cells
    A = BalancedMatrix(1, {(a, b): E("1/2"), (b, a): E("1/2")})
    T = chain.depth
    p, S = chain.composite_morphism(T, 1), chain.levels[T]
    B = lift_cycle(chain, A, p, T)
    x, y = next(
        (x, y) for x in S.cells for y in S.cells
        if p.mapping[x] != p.mapping[y] and S.weights[x] != S.weights[y]
    )
    copies = [
        PartitionMorphism(WeightedPartition(S.cells, W), p.target, p.mapping)
        for W in (dict(S.weights), {**S.weights, x: S.weights[y], y: S.weights[x]})
    ]
    out = {}

    def run():
        out["verdicts"] = [verify_matrix_morphism(chain, MatrixMorphism(q, B, A)) for q in copies]
        out["lifted"] = lift_cycle(chain, A, copies[0], T)

    assert additions_inside(monkeypatch, ["verify_matrix_morphism", "_lifted"], run) == []
    want = [matrix_morphism_by_fibers(chain, MatrixMorphism(q, B, A)) for q in copies]
    assert out["verdicts"] == want == [True, False]
    assert out["lifted"] == B
    assert validate(chain, B)


@pytest.mark.parametrize("name", ["dyadic", "sqrt2_dyadic"])
def test_inherited_tables_read_back_their_levels(name, request):
    """Levels appended by amalgams, cycle splits, orbit splits and subset
    splits inherit or build tables that match their weights."""
    V = request.getfixturevalue(name)
    rng = random.Random(2110)
    chain = GoodMeasureChain(V)
    for i in range(3):
        chain.absorb_object(random_partition(rng, V, 4, prefix=f"o{i}"))
    for _ in range(3):
        level = rng.randint(0, chain.depth)
        compatible_witness(chain, random_balanced_matrix(rng, chain, level))
        cells = chain.levels[level].cells
        U, W = ClopenSet.of(level, cells[:1]), ClopenSet.of(level, cells)
        if len(cells) > 1:
            chain.subset_witness(U, W)
    chain.ensure_depth(chain.depth + 1)
    for k in range(chain.depth + 1):
        chain._table(k)
    assert_tables_fresh(chain)


def test_a_save_after_a_witness_sums_no_partition(sqrt2_dyadic, monkeypatch):
    """On a loaded sqrt(2)-dyadic budget-2 snapshot, ``compatible_witness``
    absorbs a cycle split as a challenge and appends a cycle split level,
    which keeps the table, symbol slot and all, its cycles crossed in.  A
    save then adds no value: every level and ledger challenge has total 1 by
    the chain's invariant, and format 3 writes no total."""
    chain = GoodMeasureChain.from_json(GoodMeasureChain(sqrt2_dyadic).run_schedule(2).to_json())
    rng = random.Random(0)
    A = random_balanced_matrix(rng, chain, rng.randint(1, chain.depth))
    ledger, split = len(chain.ledger), []
    real = GoodMeasureChain._append_cycle_split

    def recording(self, cycles, pv):
        perm = real(self, cycles, pv)
        split.append((self.depth, pv))
        return perm

    monkeypatch.setattr(GoodMeasureChain, "_append_cycle_split", recording)
    compatible_witness(chain, A)
    monkeypatch.undo()
    assert len(chain.ledger) > ledger and split
    for level, pv in split:
        kept, packed = chain._tables[level]
        assert kept is pv and pv.syms and pv.unpacked(packed) == chain.levels[level].weights
    calls = []

    def counted(real):
        def op(self, other):
            calls.append(real.__name__)
            return real(self, other)
        return op

    for op in ("__add__", "__sub__"):
        monkeypatch.setattr(ExactValue, op, counted(getattr(ExactValue, op)))
    data = chain.to_json()
    monkeypatch.undo()
    assert calls == []
    assert all(P.keys() == {"cells"} for P in data["levels"])
    assert all(P.total == ONE for P in [*chain.levels, *(e.challenge_object for e in chain.ledger)])


# -- the whole-list kernels against their per-value references ----------------

S3 = IrrationalSymbol.sqrt("s3", 3, -1)


@st.composite
def tables_and_values(draw):
    """Two twin tables, rational or over sqrt(2) - 1, and values to pack in
    them: members, equal copies, values over a finer denominator, values
    with a foreign symbol and values over the table's denominator."""
    s = sqrt2_symbol() if draw(st.booleans()) else None
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8]), min_size=1, max_size=3))

    def value(den):
        q = Fraction(draw(st.integers(-30, 30)), den)
        c = Fraction(draw(st.integers(-30, 30)), den) if s is not None else 0
        return E(q, {s: c} if c else None)

    members = [value(draw(st.sampled_from(dens))) for _ in range(draw(st.integers(1, 6)))]
    room, slack = draw(st.integers(1, 8)), draw(st.sampled_from([1, 2]))
    twins = [PackedValues(members, room, slack) for _ in range(2)]
    den = twins[0].den
    def copy(v):
        return ExactValue(v.den, v.nums, v.syms)

    kinds = {
        "member": lambda: draw(st.sampled_from(members)),
        "copy": lambda: copy(draw(st.sampled_from(members))),
        "finer": lambda: value(den * draw(st.sampled_from([2, 3, 5]))),
        "foreign": lambda: E(Fraction(1, den), {S3: Fraction(draw(st.integers(1, 9)), den)}),
        "over_den": lambda: value(den),
    }
    values = [kinds[k]() for k in draw(st.lists(st.sampled_from(sorted(kinds)), max_size=8))]
    return twins, members, values


@settings(max_examples=150, deadline=None)
@given(tables_and_values())
def test_pack_all_is_pack_of_each_value(case):
    (pv, twin), _, values = case
    want = [twin.pack(v) for v in values]
    assert pv.pack_all(values) == (None if None in want else want)


@settings(max_examples=150, deadline=None)
@given(tables_and_values(), st.randoms(use_true_random=False))
def test_unpack_all_and_unpacked_read_back_as_unpack(case, rng):
    """Known ints give the very value ``unpack`` gives; ints not met give
    an equal value, the one the digit-by-digit oracle reads back."""
    (pv, _), members, _ = case
    k = len(members)
    ints = [*pv.packed]
    for _ in range(6):
        picked = rng.sample(range(k), rng.randint(1, min(k, pv.room)))
        ints.append(sum(rng.choice([-1, 1]) * pv.packed[i] for i in picked))
    rng.shuffle(ints)
    known = {p: pv._values[p] for p in ints if p in pv._values}
    listed, keyed = pv.unpack_all(ints), pv.unpacked(dict(enumerate(ints)))
    assert list(keyed) == list(range(len(ints)))
    for p, v, w in zip(ints, listed, keyed.values()):
        assert v is w is pv.unpack(p)
        if p in known:
            assert v is known[p]
        else:
            assert v == unpack(pv, p)


def test_oracle_reads_a_rational_int_as_one_slot():
    """A table with no symbol has one unbounded slot: the sum 2 of members
    0, -1, 1, 0 is read back as 2, not as a signed digit of ``width`` bits."""
    pv = PackedValues([E(0), E(-1), E(1), E(0)], 1)
    assert pv.width == 2
    assert unpack(pv, 2) == E(2) == pv.unpack(2)


# -- arguments outside the chain --------------------------------------------------


def test_measure_refuses_a_level_outside_the_chain(dyadic):
    chain = GoodMeasureChain(dyadic).run_schedule(1)
    for level in (-1, chain.depth + 1):
        refused = f"^clopen set level {level} is not a level of the chain$"
        with pytest.raises(ValueError, match=refused):
            chain.measure(ClopenSet.of(level, ["r/0"]))
        with pytest.raises(ValueError, match=f"^clopen set level {level} is not"):
            chain.subset_witness(ClopenSet.of(level, []), ClopenSet.of(0, ["r"]))


def test_prefixes_at_levels_outside_the_chain_are_refused(dyadic):
    chain = GoodMeasureChain(dyadic).run_schedule(1)
    below = AutomorphismPrefix({-1: {"r/0": "r/0"}})
    assert not chain.prefix_valid(below)
    assert not chain.prefix_valid(AutomorphismPrefix({chain.depth + 1: {"r": "r"}}))
    with pytest.raises(ValueError, match="^prefix level -1 is not a level of the chain$"):
        chain.extend_prefix(below, chain.depth)


def test_top_maps_that_miss_their_level_are_refused(dyadic):
    chain = GoodMeasureChain(dyadic).run_schedule(1)
    T = chain.depth
    cells = chain.levels[T].cells
    A = matrix_of_prefix(chain, chain.identity_prefix(), 0)
    missing = AutomorphismPrefix({T: {c: c for c in cells[1:]}})
    outside = AutomorphismPrefix({T: {**{c: c for c in cells}, cells[0]: "ghost"}})
    for sigma in (missing, outside):
        for call in (
            lambda: transport_entries(chain, sigma, 0),
            lambda: compatible(chain, sigma, A),
            lambda: matrix_of_prefix(chain, sigma, 0),
        ):
            with pytest.raises(ValueError, match=f"^prefix map at level {T} does not cover"):
                call()
    assert validate(chain, BalancedMatrix(0, A.entries))
