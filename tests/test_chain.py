"""Chain engine: absorption, schedule, witnesses, automorphism prefixes."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodmeasures import chain as chain_module
from goodmeasures import cli, jsonutil, partitions, values
from goodmeasures.chain import AutomorphismPrefix, ClopenSet, GoodMeasureChain, invert_prefix
from goodmeasures.errors import (
    InvalidChallenge,
    NotGroupLike,
    NotInV,
    NotSmaller,
    PrecisionExhausted,
    SumMismatch,
    WeightMismatch,
)
from goodmeasures.matrices import (
    BalancedMatrix,
    compatible,
    compatible_witness,
    to_cycle_object,
)
from goodmeasures.partitions import (
    PartitionMorphism,
    WeightedPartition,
    _refine,
    _subdivide,
    split_cell,
    verify_morphism,
)
from goodmeasures.values import (
    ExactValue,
    GroupDescriptor,
    ONE,
    PackedValues,
    RationalGroup,
    ZERO,
    check_all_in,
)

from conftest import (
    E,
    random_balanced_matrix,
    random_partition,
    random_refining_morphism,
    sqrt2_symbol,
    value_pool,
)
from oracles import (
    fiber_index_by_walk,
    index_sums_to_one,
    peel_amalgam,
    prefix_by_sets,
    respond_by_fibers,
    respond_two_pass,
    snapshot_format1,
    snapshot_format2,
    snapshot_format3,
)

FIXTURES = Path(__file__).parent / "fixtures"


def obj(*weights):
    return WeightedPartition.make([(f"x{i}", E(w)) for i, w in enumerate(weights)])


def check_chain_valid(chain):
    assert chain.levels[0].cells == ("r",)
    assert chain.levels[0].total == ONE
    for link in chain.links:
        assert verify_morphism(link)
    for L in chain.levels:
        for c in L.cells:
            assert chain.V.member(L.weight(c))


# -- construction ----------------------------------------------------------------


def test_fresh_chain(dyadic, rationals):
    for V in (dyadic, rationals):
        ch = GoodMeasureChain(V)
        assert ch.depth == 0
        check_chain_valid(ch)


def test_fresh_chain_rejects_finite():
    V = GroupDescriptor.make(RationalGroup.make(0, {2: 0}))
    with pytest.raises(NotGroupLike):
        GoodMeasureChain(V)


# -- object absorption --------------------------------------------------------------


def test_absorb_object_halves(dyadic):
    ch = GoodMeasureChain(dyadic)
    stage = ch.absorb_object(obj("1/2", "1/2"))
    assert stage == 1
    assert [ch.top.weight(c) for c in ch.top.cells] == [E("1/2"), E("1/2")]
    check_chain_valid(ch)


def test_absorb_object_top_is_noop(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    depth = ch.depth
    stage = ch.absorb_object(obj("1/2", "1/2"))
    assert stage == depth and ch.depth == depth


def test_absorb_object_rejects_foreign(dyadic):
    ch = GoodMeasureChain(dyadic)
    with pytest.raises(NotInV):
        ch.absorb_object(obj("1/3", "1/3", "1/3"))
    with pytest.raises(SumMismatch):
        ch.absorb_object(obj("1/2", "1/4"))


def test_absorbed_object_lift_verifies(dyadic):
    ch = GoodMeasureChain(dyadic)
    target = obj("1/4", "1/4", "1/2")
    stage = ch.absorb_object(target)
    entry = ch.ledger[-1]
    lift = PartitionMorphism(ch.levels[stage], target, dict(entry.response_map))
    assert verify_morphism(lift)


# -- morphism absorption --------------------------------------------------------------


def test_absorb_identity_morphism(dyadic):
    """An identity challenge is answered by the chain projection from the top,
    at the top and below it, with no new level."""
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    ch.ensure_depth(2)
    for level in (2, 1):
        L = ch.levels[level]
        challenge = PartitionMorphism(L, L, {c: c for c in L.cells})
        stage, r = ch.absorb_morphism(challenge, target_level=level)
        assert stage == ch.depth == 2
        assert ch.ledger[-1].response_map == r.mapping == ch.composite_mapping(stage, level)


def test_absorb_split_challenge(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    level1 = ch.levels[1]
    cell = level1.cells[0]
    src = WeightedPartition.make(
        [("s0", E("1/4")), ("s1", E("1/4")), ("s2", E("1/2"))]
    )
    challenge = PartitionMorphism(
        src, level1, {"s0": cell, "s1": cell, "s2": level1.cells[1]}
    )
    stage, _ = ch.absorb_morphism(challenge, target_level=1)
    entry = ch.ledger[-1]
    proj = ch.composite_mapping(stage, 1)
    for c in ch.levels[stage].cells:
        assert challenge.mapping[entry.response_map[c]] == proj[c]
    check_chain_valid(ch)


def test_absorb_morphism_rejects_invalid(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    level1 = ch.levels[1]
    src = WeightedPartition.make([("s0", E("1/4")), ("s1", E("3/4"))])
    bad = PartitionMorphism(src, level1, {"s0": level1.cells[0], "s1": level1.cells[1]})
    with pytest.raises(InvalidChallenge):
        ch.absorb_morphism(bad, target_level=1)


# -- challenges the top already refines ------------------------------------------------


def test_relabelled_object_appends_no_level(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    target = obj("1/2", "1/2")
    stage = ch.absorb_object(target)
    assert stage == ch.depth == 1
    entry = ch.ledger[-1]
    assert verify_morphism(PartitionMorphism(ch.top, target, dict(entry.response_map)))


def test_relabelled_morphism_appends_no_level(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    assert ch.depth == 2 and ch.composite_mapping(2, 1) == {
        "r/0/0": "r/0", "r/0/1": "r/0", "r/1": "r/1"
    }
    level1 = ch.levels[1]
    # the split of r/0 into quarters, which the top already carries
    src = WeightedPartition.make([("s0", E("1/2")), ("s1", E("1/4")), ("s2", E("1/4"))])
    challenge = PartitionMorphism(src, level1, {"s0": "r/1", "s1": "r/0", "s2": "r/0"})
    stage, r = ch.absorb_morphism(challenge, target_level=1)
    assert stage == ch.depth == 2
    assert verify_morphism(r) and r.source is ch.top
    proj = ch.composite_mapping(stage, 1)
    assert all(challenge.mapping[r.mapping[c]] == proj[c] for c in ch.top.cells)


def test_relabelling_keeps_sqrt2_dyadic_budget3_short(sqrt2_dyadic):
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.run_schedule(3)
    assert len(ch.levels) <= 130
    for entry in ch.ledger:
        r = PartitionMorphism(ch.levels[entry.stage], entry.challenge_object, entry.response_map)
        assert verify_morphism(r)


def _coarsening(rng, cells, weights, prefix):
    """Merge random runs of consecutive cells into (cell, weight) pairs."""
    out, acc = [], None
    for n, c in enumerate(cells):
        acc = weights[c] if acc is None else acc + weights[c]
        if n == len(cells) - 1 or rng.random() < 0.5:
            out.append((f"{prefix}{len(out)}", acc))
            acc = None
    return out


def _interval_challenge(rng, ch, kind):
    """A challenge onto some level of ch, as (f2, level).

    ``coarsen`` merges runs of the top's fibers in order, so the top refines
    it; ``permute`` first shuffles each fiber; ``random`` draws an object or
    a refinement of the level cell by cell, and ``split`` splits one cell of
    the level in two, as the schedule does.  The last three often need a
    finer level.
    """
    V, top = ch.V, ch.top
    level = rng.choice([0, rng.randint(0, ch.depth)])
    L = ch.levels[level]
    if kind in ("coarsen", "permute"):
        proj = ch.composite_mapping(ch.depth, level)
        cells, mapping = [], {}
        for x in L.cells:
            fiber = [y for y in top.cells if proj[y] == x]
            if kind == "permute":
                rng.shuffle(fiber)
            merged = _coarsening(rng, fiber, top.weights, f"{x}:")
            cells += merged
            mapping.update((cid, x) for cid, _ in merged)
        A = WeightedPartition.make(cells)
        return PartitionMorphism(A, L, mapping), level
    if kind == "random":
        if level == 0:
            A = random_partition(rng, V, 5, prefix="z")
            collapse = dict.fromkeys(A.cells, chain_module.ROOT_CELL)
            return PartitionMorphism(A, ch.levels[0], collapse), 0
        return random_refining_morphism(rng, V, L, 3, "z"), level
    c = rng.choice(L.cells)
    w = L.weight(c)
    parts = [a for a in value_pool(V, 4) if a < w]
    if not parts:
        return PartitionMorphism(L, L, {x: x for x in L.cells}), level
    a = rng.choice(parts)
    _, pi = split_cell(L, c, [a, w - a], V)
    return pi, level


def _interval_top(rng, V):
    """A chain whose top comes from a few random object challenges."""
    ch = GoodMeasureChain(V)
    for _ in range(rng.randint(1, 4)):
        ch.absorb_object(random_partition(rng, V, 4))
    return ch


@settings(max_examples=80, deadline=None)
@given(
    irrational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["coarsen", "permute", "random", "split"]),
)
def test_respond_matches_peel_amalgam(irrational, seed, kind, dyadic, sqrt2_dyadic):
    """Against the amalgam G of the challenge with the top, built by the
    peel: when G has as many cells as the top, the top answers with no new
    level and with G's p2 ∘ p1⁻¹; otherwise G becomes the new top, linked by
    its p1, and its p2 is the response."""
    rng = random.Random(seed)
    ch = _interval_top(rng, sqrt2_dyadic if irrational else dyadic)
    f2, level = _interval_challenge(rng, ch, kind)
    top, depth = ch.top, ch.depth
    G, p1, p2 = peel_amalgam(ch.composite_morphism(depth, level), f2)
    positions = ch._respond(f2, level)
    assert len(positions) == len(ch.top.cells) and all(type(z) is int for z in positions)
    response = dict(zip(ch.top.cells, [f2.source.cells[z] for z in positions]))
    if len(G.cells) == len(top.cells):
        assert ch.depth == depth
        assert response == {p1.mapping[g]: p2.mapping[g] for g in G.cells}
    else:
        assert ch.depth == depth + 1
        assert ch.top.cells == G.cells and ch.top.weights == G.weights
        assert ch.links[-1].target is top and ch.links[-1].mapping == p1.mapping
        assert response == p2.mapping
    if kind == "coarsen":
        assert ch.depth == depth


def _assert_top_index_fresh(ch) -> None:
    """The top's index, if one is kept, read back in the chain's table, is
    the top's weights in top order with their running sums, each sum
    mapped to its count: the one fiber over level 0, walked link by link."""
    if ch._top_index is None:
        return
    value = ch._pv.unpack
    left, (sums, at) = ch._weights[ch.depth].values(), ch._top_index
    (cells, weights, walked, counts), = fiber_index_by_walk(ch, 0).values()
    assert cells == list(ch.top.cells)
    assert [*map(value, left)] == weights and [*map(value, sums)] == walked
    assert {value(s): n for s, n in at.items()} == counts


def _listed_out_of_order(rng, f2: PartitionMorphism) -> PartitionMorphism:
    """f2 with its source's cells shuffled, weights and map kept."""
    cells = list(f2.source.cells)
    rng.shuffle(cells)
    A = WeightedPartition(tuple(cells), {c: f2.source.weights[c] for c in cells})
    return PartitionMorphism(A, f2.target, f2.mapping)


@settings(max_examples=80, deadline=None)
@given(
    irrational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["coarsen", "permute", "random", "split"]), min_size=1, max_size=3
    ),
    shuffled=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_respond_matches_the_per_fiber_walk(
    irrational, seed, kinds, shuffled, dyadic, sqrt2_dyadic
):
    """One walk over the whole top gives the per-fiber walk's response,
    depth and appended level (cells, weights and link map), challenge after
    challenge on one chain, with challenges listed in image order or not."""
    rng = random.Random(seed)
    ch = _interval_top(rng, sqrt2_dyadic if irrational else dyadic)
    for kind, out_of_order in zip(kinds, shuffled):
        f2, level = _interval_challenge(rng, ch, kind)
        if out_of_order:
            f2 = _listed_out_of_order(rng, f2)
        top, depth = ch.top, ch.depth
        want, appended = respond_by_fibers(ch, f2, level)
        assert ch._respond(f2, level) == want
        if appended is None:
            assert ch.depth == depth
        else:
            G, link = appended
            assert ch.depth == depth + 1
            assert ch.top.cells == G.cells and ch.top.weights == G.weights
            assert ch.links[-1].target is top and ch.links[-1].mapping == link


@settings(max_examples=80, deadline=None)
@given(
    irrational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["coarsen", "permute", "random", "split"]), min_size=1, max_size=3
    ),
    shuffled=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_subdivide_matches_the_two_pass_route(
    irrational, seed, kinds, shuffled, dyadic, sqrt2_dyadic
):
    """The cut kernel on packed pieces builds the level the former
    route built (per-cell lists, a partition of packed ints, every cell
    read back): the same ids, weights, link, response and packed ints,
    challenge after challenge, listed in image order or not."""
    rng = random.Random(seed)
    ch = _interval_top(rng, sqrt2_dyadic if irrational else dyadic)
    for kind, out_of_order in zip(kinds, shuffled):
        f2, level = _interval_challenge(rng, ch, kind)
        if out_of_order:
            f2 = _listed_out_of_order(rng, f2)
        depth = ch.depth
        want, appended = respond_two_pass(ch, f2, level)
        assert ch._respond(f2, level) == want
        if appended is None:
            assert ch.depth == depth
            continue
        G, link, packed = appended
        assert ch.depth == depth + 1
        assert ch.top.cells == G.cells and ch.top.weights == G.weights
        assert ch.links[-1].mapping == link
        assert ch._weights[ch.depth] == packed


def test_an_only_child_is_its_parents_weight(sqrt2_dyadic):
    """A cell the kernel does not cut keeps its parent's weight object,
    whether the parts are values or packed ints, and so does every uncut
    top cell of an amalgam; a cut cell's parts are read back as values."""
    s = E(0, {sqrt2_symbol(): 1})
    P = WeightedPartition.make([("a", E("1/2")), ("b", s), ("c", E("1/2") - s)])
    weights = [E("1/2"), s, E("1/16"), E("7/16") - s]
    pv = PackedValues(weights, 8)
    G, up, packed = _subdivide(P, [(2, weights[2:])])
    assert packed is None and G.cells == ("a", "b", "c/0", "c/1") and up == ["a", "b", "c", "c"]
    assert G.weights["a"] is P.weights["a"] and G.weights["b"] is P.weights["b"]
    G, _, packed = _subdivide(P, [(2, pv.packed[2:])], pv, pv.pack_all(P.weight_list()))
    assert G.weights["a"] is P.weights["a"] and G.weights["b"] is P.weights["b"]
    assert G.weights == dict(zip(G.cells, weights))
    assert packed == pv.packed
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    top = ch.top
    ch.absorb_object(obj("1/8", "1/8", "1/4", "1/2"))
    kept = [c for c in ch.top.cells if c in top.weights]
    assert ch.depth == 2 and kept
    assert all(ch.top.weights[c] is top.weights[c] for c in kept)


def test_unpack_runs_only_for_split_parts(sqrt2_dyadic, monkeypatch):
    """An amalgam reads back the packed ints of its cut cells' parts, each
    once and in part order, and no other."""
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    top = ch.top
    seen = []
    real = PackedValues.unpack

    def unpack(self, p):
        seen.append(p)
        return real(self, p)

    monkeypatch.setattr(PackedValues, "unpack", unpack)
    s = E(0, {sqrt2_symbol(): 1})
    ch.absorb_object(WeightedPartition.make([("a", s), ("b", ONE - s)]))
    monkeypatch.undo()
    assert ch.links[-1].target is top
    packed = ch._weights[ch.depth]
    split = [c for c in ch.top.cells if c not in top.weights]
    assert split and len(split) < len(ch.top.cells)
    assert seen == [packed[c] for c in split]


def test_a_top_holding_c_and_c0_refuses_a_cut_of_c(dyadic):
    """A loaded top whose cells are c and c/0 cannot take a challenge that
    cuts c, whose children would be c/0 and c/1: the level kernel refuses
    it with the message of a repeated id, and the chain keeps its depth and
    ledger."""
    built = GoodMeasureChain(dyadic)
    built.absorb_object(obj("1/2", "1/2"))
    data = built.to_json()
    for cell, cid in zip(data["levels"][1]["cells"], ["c", "c/0"]):
        cell["id"] = cid
    ch = GoodMeasureChain.from_json(data)
    assert ch.top.cells == ("c", "c/0")
    ledger = list(ch.ledger)
    with pytest.raises(ValueError, match="^cell identifiers must be unique$"):
        ch.absorb_object(obj("1/4", "1/4", "1/2"))
    assert ch.depth == 1 and ch.ledger == ledger and len(ch._ledger_index) == len(ledger)


def test_a_challenge_of_another_total_is_refused_on_packed_ints(sqrt2_dyadic):
    """The total of an object challenge is decided on the top table's
    packed ints; a sqrt(2)-dyadic challenge of another total is refused
    with its total formatted as the values' sum."""
    s = E(0, {sqrt2_symbol(): 1})
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(1)
    depth = ch.depth
    for weights in ([s, E("1/2")], [s, s, E("1/4")], [ONE - s, s, s]):
        P = WeightedPartition.make([(f"x{i}", w) for i, w in enumerate(weights)])
        total = sum(weights[1:], weights[0])
        with pytest.raises(SumMismatch) as refused:
            ch.absorb_object(P)
        assert str(refused.value) == f"object challenge has total {total}, expected 1"
    assert ch.depth == depth


@settings(max_examples=60, deadline=None)
@given(
    irrational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["permute", "random", "split", "deepen"]), min_size=1, max_size=4
    ),
)
def test_fiber_indexes_stay_fresh_across_challenges(irrational, seed, kinds, dyadic, sqrt2_dyadic):
    """After each challenge the top answers, the top's index is kept and is
    the walked one; a level appended by an amalgam or by a cycle split
    (``deepen``) drops it, until the next challenge asks for it."""
    rng = random.Random(seed)
    ch = _interval_top(rng, sqrt2_dyadic if irrational else dyadic)
    for kind in kinds:
        if kind == "deepen":
            ch.ensure_depth(ch.depth + 1)
            assert ch._top_index is None
            continue
        f2, level = _interval_challenge(rng, ch, kind)
        depth = ch.depth
        ch._respond(f2, level)
        assert (ch._top_index is None) == (ch.depth > depth)
        _assert_top_index_fresh(ch)


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_schedule_keeps_fiber_indexes_fresh(budget, sqrt2_dyadic, monkeypatch):
    """After each challenge the schedule answers (``_answer``, over level 0
    for an object and over the level ``_absorb_splits`` splits for a
    morphism), the top's index is the walked one, or none once a level is
    appended; the snapshot is the one an unwatched run writes."""
    real, splits = GoodMeasureChain._answer, GoodMeasureChain._absorb_splits
    answered = []
    levels = []  # the level of the morphism challenge being answered, if any

    def checked(self, packed, order):
        depth = self.depth
        level = levels[-1] if levels else 0
        response = real(self, packed, order)
        answered.append((level, self.depth > depth))
        assert (self._top_index is None) == (self.depth > depth)
        _assert_top_index_fresh(self)
        return response

    def onto(self, level, values_):
        levels.append(level)
        try:
            return splits(self, level, values_)
        finally:
            levels.pop()

    want = jsonutil.dumps(GoodMeasureChain(sqrt2_dyadic).run_schedule(budget).to_json())
    monkeypatch.setattr(GoodMeasureChain, "_answer", checked)
    monkeypatch.setattr(GoodMeasureChain, "_absorb_splits", onto)
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(budget)
    appended = [level for level, grew in answered if grew]
    assert len(appended) == ch.depth
    assert (max(appended) > 0) == (budget > 1)
    assert jsonutil.dumps(ch.to_json()) == want


def test_a_rebuilt_top_table_drops_the_top_index(dyadic):
    """A value off the top table's denominator rebuilds the table, and the
    index in the old table's packing goes with it."""
    ch = GoodMeasureChain(dyadic).run_schedule(1)
    ch._respond(ch.composite_morphism(ch.depth, 0), 0)  # answered by the top, which indexes it
    assert ch._top_index is not None
    ch._table(ch.depth)
    assert ch._top_index is not None
    finer = E(Fraction(1, 2 * ch._pv.den))
    ch._table(ch.depth, [finer])
    assert ch._top_index is None


def test_respond_draws_need_finer_levels(dyadic, sqrt2_dyadic):
    """The oracle's draws reach both answers for every kind but ``coarsen``."""
    answered = {}
    for seed in range(60):
        for kind in ("coarsen", "permute", "random", "split"):
            rng = random.Random(seed)
            ch = _interval_top(rng, sqrt2_dyadic if seed % 2 else dyadic)
            f2, level = _interval_challenge(rng, ch, kind)
            depth = ch.depth
            ch._respond(f2, level)
            answered.setdefault(kind, set()).add(ch.depth == depth)
    assert answered == {"coarsen": {True}, "permute": {True, False},
                        "random": {True, False}, "split": {True, False}}


def _in_order_answers_do_not_decrease(ledger) -> int:
    """Assert over recorded entries that each one whose challenge is listed
    in image order (an object's, over the one cell of level 0, always is)
    has a non-decreasing response, and return how many it checked.
    ``_respond`` answers so by its invariant; an object paired with the top
    by weight (``_match_by_weight``) could have a descent, but none of the
    runs below records one."""
    checked = 0
    for e in ledger:
        if e.challenge is None or e.challenge == sorted(e.challenge):
            assert e.response == sorted(e.response), (e.kind, e.stage)
            checked += 1
    return checked


@pytest.mark.parametrize("name", ["dyadic", "triadic", "sqrt2_dyadic"])
@pytest.mark.parametrize("budget", [1, 2, 3])
def test_schedule_responses_do_not_decrease(name, budget, request):
    """The schedule lists every challenge in image order, so no response it
    records has a descent."""
    ch = GoodMeasureChain(request.getfixturevalue(name)).run_schedule(budget)
    assert _in_order_answers_do_not_decrease(ch.ledger) == len(ch.ledger) > 0


def test_witness_extensions_of_q_towers_record_no_descent(rationals):
    """``witness`` on loaded towers over Q (a few absorbed objects) records
    responses with no descent."""
    checked = 0
    for seed in range(12):
        rng = random.Random(2100 + seed)
        built = GoodMeasureChain(rationals)
        for i in range(4):
            built.absorb_object(random_partition(rng, rationals, 4, prefix=f"o{i}"))
        chain = GoodMeasureChain.from_json(built.to_json())
        loaded = len(chain.ledger)
        A = random_balanced_matrix(rng, chain, rng.randint(1, chain.depth))
        assert compatible(chain, compatible_witness(chain, A), A)
        checked += _in_order_answers_do_not_decrease(chain.ledger[loaded:])
    assert checked > 0


def test_check_good_absorptions_record_no_descent(dyadic, triadic, sqrt2_dyadic, tmp_path,
                                                  monkeypatch, capsys):
    """``check-good`` on budget-1 snapshots records responses with no descent."""
    loaded = []
    real = GoodMeasureChain.from_json

    def keeping(data):
        loaded.append(real(data))
        return loaded[-1]

    monkeypatch.setattr(GoodMeasureChain, "from_json", staticmethod(keeping))
    checked = 0
    for V in (dyadic, triadic, sqrt2_dyadic):
        snap = tmp_path / "snap.json"
        snap.write_text(GoodMeasureChain(V).run_schedule(1).to_text(), encoding="utf-8")
        for depth in (1, 2):
            loaded.clear()
            assert cli.main(["check-good", "--snapshot", str(snap), "--depth", str(depth)]) == 0
            capsys.readouterr()
            chain = loaded[0]
            written = len(real(jsonutil.read(snap)).ledger)
            checked += _in_order_answers_do_not_decrease(chain.ledger[written:])
    assert checked > 0


def test_schedule_builds_one_amalgam_per_level(sqrt2_dyadic, monkeypatch):
    """Only a challenge that needs a finer level builds an amalgam: the
    level kernel runs once inside ``_answer``, which answers every
    challenge, per appended level."""
    calls = []
    responding = []
    respond = GoodMeasureChain._answer

    def counting(P, *args):
        if responding:
            calls.append(P)
        return _subdivide(P, *args)

    def watched(self, *args):
        responding.append(True)
        try:
            return respond(self, *args)
        finally:
            responding.pop()

    monkeypatch.setattr(chain_module, "_subdivide", counting)
    monkeypatch.setattr(GoodMeasureChain, "_answer", watched)
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.run_schedule(3)
    assert ch.depth == 89 and len(calls) == 89


def test_schedule_objects_build_no_morphism_and_pack_no_table(sqrt2_dyadic, monkeypatch):
    """A budget-2 schedule absorbs its object challenges from the tuples:
    while it does, the only morphisms built are the links of the levels it
    appends, and every ``_table`` call builds a table (none the first
    challenge, none after), so none is made per object challenge."""
    real_init, real_table = PartitionMorphism.__init__, GoodMeasureChain._table
    absorb_tuples, absorb_object = GoodMeasureChain._absorb_tuples, GoodMeasureChain._absorb_object
    seen = {"objects": 0, "appended": 0, "morphisms": 0, "tables": 0, "built": 0}
    inside = []

    def tuples(self, *args):
        depth = self.depth
        inside.append(True)
        try:
            absorb_tuples(self, *args)
        finally:
            inside.pop()
        seen["appended"] += self.depth - depth

    def morphism(self, *args):
        seen["morphisms"] += bool(inside)
        real_init(self, *args)

    def table(self, level, *args):
        kept = self._pv
        out = real_table(self, level, *args)
        if inside:
            seen["tables"] += 1
            seen["built"] += self._pv is not kept
        return out

    def objects(self, *args):
        seen["objects"] += 1
        return absorb_object(self, *args)

    monkeypatch.setattr(GoodMeasureChain, "_absorb_tuples", tuples)
    monkeypatch.setattr(PartitionMorphism, "__init__", morphism)
    monkeypatch.setattr(GoodMeasureChain, "_table", table)
    monkeypatch.setattr(GoodMeasureChain, "_absorb_object", objects)
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(2)
    assert seen["objects"] == 38 and seen["appended"] > 0
    assert seen["morphisms"] == seen["appended"]
    assert seen["tables"] == seen["built"] == 1
    assert all(ch._pv.unpacked(w) == ch.levels[k].weights for k, w in ch._weights.items())


def test_schedule_splits_build_no_link_and_pack_no_table(sqrt2_dyadic, monkeypatch):
    """A budget-2 schedule absorbs its split challenges on packed ints of
    the chain's table: while it does, ``_respond`` is never called, the only
    morphisms built are the links of the levels it appends, and the only
    ``_table`` call is the one per height for the split level, since every
    level is packed in the chain's one table."""
    real_init, real_table = PartitionMorphism.__init__, GoodMeasureChain._table
    absorb_splits, respond = GoodMeasureChain._absorb_splits, GoodMeasureChain._respond
    seen = {"splits": 0, "appended": 0, "morphisms": 0, "responds": 0, "tables": []}
    inside = []

    def splits(self, level, values_):
        depth, held = self.depth, len(self.ledger)
        inside.append(True)
        try:
            absorb_splits(self, level, values_)
        finally:
            inside.pop()
        seen["appended"] += self.depth - depth
        seen["splits"] += len(self.ledger) - held

    def morphism(self, *args):
        seen["morphisms"] += bool(inside)
        real_init(self, *args)

    def table(self, level, *args):
        if inside:
            seen["tables"].append((level, len(args[0]) if args else 0))
        return real_table(self, level, *args)

    def responding(self, *args):
        seen["responds"] += bool(inside)
        return respond(self, *args)

    monkeypatch.setattr(GoodMeasureChain, "_absorb_splits", splits)
    monkeypatch.setattr(PartitionMorphism, "__init__", morphism)
    monkeypatch.setattr(GoodMeasureChain, "_table", table)
    monkeypatch.setattr(GoodMeasureChain, "_respond", responding)
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(2)
    assert seen["splits"] == 18 and seen["appended"] > 0
    assert seen["responds"] == 0
    assert seen["morphisms"] == seen["appended"]
    values_ = [len(sqrt2_dyadic.enumerate_values(h + 1)) for h in (1, 2)]
    assert seen["tables"] == [(0, values_[0]), (1, values_[1])]
    assert all(ch._pv.unpacked(w) == ch.levels[k].weights for k, w in ch._weights.items())


def test_schedule_split_keys_are_mor_keys(sqrt2_dyadic):
    """The ledger key each split challenge is recorded under is ``_mor_key``
    of its partition and its images, which a loaded snapshot keys it by."""
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(2)
    morphisms = [(n, e) for n, e in enumerate(ch.ledger) if e.kind == "morphism"]
    assert len(morphisms) == 18 and len(ch._ledger_index) == len(ch.ledger)
    for n, e in morphisms:
        images = [e.challenge_map[c] for c in e.challenge_object.cells]
        assert ch._ledger_index[chain_module._mor_key(e.target_level, e.challenge_object, images)] == n


@pytest.mark.parametrize("name", ["dyadic", "triadic", "sqrt2_dyadic"])
@pytest.mark.parametrize("budget", [1, 2, 3])
def test_a_loaded_schedule_runs_again_with_no_new_entry(name, budget, request):
    """A chain loaded from its snapshot holds every challenge of its
    schedule under the key the schedule looks up, so running the schedule
    again appends no level and records no entry."""
    V = request.getfixturevalue(name)
    text = GoodMeasureChain(V).run_schedule(budget).to_text()
    ch = GoodMeasureChain.from_json(jsonutil.loads(text))
    depth, held = ch.depth, len(ch.ledger)
    ch.run_schedule(budget)
    assert (ch.depth, len(ch.ledger)) == (depth, held)
    assert ch.to_text() == text


@pytest.mark.parametrize("name", ["dyadic", "triadic", "sqrt2_dyadic"])
@pytest.mark.parametrize("rebuilt", [False, True])
def test_schedule_splits_answer_as_absorb_morphism(name, rebuilt, request, monkeypatch):
    """The splits of a level absorbed on packed ints (``_absorb_splits``)
    record the entries and append the levels that ``_absorb_morphism``
    records and appends for the same split morphisms (``split_cell``), in
    the same order.  The chain's table has room for the top and a split,
    so the splits' packed weights are the level's; with a table that has
    room for the level's own call only (``rebuilt``) it has not, and they
    go to ``_table``, which builds the table again."""
    V = request.getfixturevalue(name)
    by_splits, by_links = GoodMeasureChain(V).run_schedule(1), GoodMeasureChain(V).run_schedule(1)
    for ch in (by_splits, by_links):
        for A in [*ch.object_challenges(2), *ch.object_challenges(3)]:
            ch.absorb_object(A)
    values_ = V.enumerate_values(4)  # finer than the schedule's, so some splits are new
    level = min(1, by_splits.depth - 1)
    assert level >= 0
    if rebuilt:
        for ch in (by_splits, by_links):
            ch._table(level, values_, 3)[0].room = 3
    assert (by_splits._table(level, values_, 3)[0].room > len(by_splits.top.cells)) != rebuilt
    P = by_links.levels[level]
    by_links._table(level, values_, 3)
    for c in P.cells:
        w = P.weights[c]
        for a in values_:
            if a <= w - a:
                by_links._absorb_morphism(split_cell(P, c, [a, w - a], V)[1], level)
    tables = []
    real_table = GoodMeasureChain._table

    def table(self, *args):
        tables.append(args[0])
        return real_table(self, *args)

    held = len(by_splits.ledger)
    monkeypatch.setattr(GoodMeasureChain, "_table", table)
    by_splits._absorb_splits(level, values_)
    monkeypatch.undo()
    assert len(by_splits.ledger) > held
    assert tables[0] == level and (len(tables) > 1) == rebuilt
    assert by_splits.to_text() == by_links.to_text()
    # a non-decreasing response is left out of the text, so compare the entries too
    assert [(e.stage, e.response, e.challenge) for e in by_splits.ledger] == [
        (e.stage, e.response, e.challenge) for e in by_links.ledger
    ]


def _collapse(ch: GoodMeasureChain, A: WeightedPartition) -> PartitionMorphism:
    return PartitionMorphism(A, ch.levels[0], dict.fromkeys(A.cells, chain_module.ROOT_CELL))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["dyadic", "triadic", "sqrt2_dyadic"]),
    height=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_objects_answer_as_absorb_object_and_the_fiber_walk(
    name, height, seed, dyadic, triadic, sqrt2_dyadic
):
    """Tuples of a height drawn at random, repeats included, absorbed one by
    one by the schedule's path (``_absorb_tuples``) on one chain and by
    ``absorb_object`` on another: both record the same stage and response,
    and the chains stay equal.  A challenge the top does not pair by weight
    gets the fiber walk's response and new top (``respond_by_fibers``)."""
    V = {"dyadic": dyadic, "triadic": triadic, "sqrt2_dyadic": sqrt2_dyadic}[name]
    rng = random.Random(seed)
    values, tuples = V.enumerate_values(height + 1), V.mass_one_tuples(height)
    by_schedule, by_public = GoodMeasureChain(V), GoodMeasureChain(V)
    for seq in (rng.choice(tuples) for _ in range(8)):
        cells = tuple(f"x{k}" for k in range(len(seq)))
        A = WeightedPartition(cells, dict(zip(cells, [values[i] for i in seq])))
        held, top = len(by_schedule.ledger), by_schedule.top
        key = sorted(values[i].sort_key() for i in seq)
        paired = sorted(w.sort_key() for w in top.weight_list()) == key
        want = None if paired else respond_by_fibers(by_schedule, _collapse(by_schedule, A), 0)
        by_schedule._absorb_tuples(values, [seq])
        stage = by_public.absorb_object(A)
        assert len(by_schedule.ledger) == len(by_public.ledger)
        entry, other = by_schedule.ledger[-1], by_public.ledger[-1]
        assert (entry.stage, entry.response) == (other.stage, other.response)
        assert by_schedule.depth == by_public.depth
        if len(by_schedule.ledger) == held:  # a ledger hit builds nothing
            assert by_public.ledger[by_public._ledger_index["object", tuple(key)]].stage == stage
            continue
        assert entry.stage == stage == by_schedule.depth
        assert entry.challenge_object == A
        if want is not None:
            response, appended = want
            assert entry.response == response
            if appended is None:
                assert by_schedule.top is top
            else:
                G, link = appended
                assert by_schedule.top.cells == G.cells and by_schedule.top.weights == G.weights
                assert by_schedule.links[-1].mapping == link
    assert by_schedule.to_text() == by_public.to_text()


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize(
    "name", ["dyadic", "triadic", "sqrt2_module", "sqrt2_dyadic", "two_symbol"]
)
def test_sums_to_one_matches_oracle(name, height, request):
    """The packed enumeration lists the oracle's tuples in the oracle's order.

    Two symbols at height 3 give 62,840 tuples, which the oracle takes
    minutes to list; there the first 200 are compared.
    """
    V = request.getfixturevalue(name)
    vals = V.enumerate_values(height + 1)
    got = values._sums_to_one(vals, height + 1)
    want = index_sums_to_one(vals, 0, ZERO, height + 1)
    if name == "two_symbol" and height == 3:
        assert len(got) == 62840
        got, want = got[:200], itertools.islice(want, 200)
    assert got == list(want)


def test_a_second_chain_reuses_the_descriptors_listing(sqrt2_dyadic, monkeypatch):
    """V's values and mass-1 tuples are held by the descriptor instance: a
    second chain's schedule over it lists no candidate and walks no tuple,
    and writes the same snapshot.  Callers get lists of their own."""
    V = GroupDescriptor.from_json(sqrt2_dyadic.to_json())
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(values, "_in_unit", counted("_in_unit", values._in_unit))
    monkeypatch.setattr(values, "_sums_to_one", counted("walk", values._sums_to_one))
    digest = "0f85b66bdc1dcca52552ed23200cc13d3ac69787a76c5d80b92a91a3e8eec50a"
    first = GoodMeasureChain(V).run_schedule(2).to_text()
    assert "_in_unit" in calls and calls.count("walk") == 2
    calls.clear()
    ch = GoodMeasureChain(V)
    second = ch.run_schedule(2).to_text()
    assert calls == []
    for text in (first, second):
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    listed, tuples, challenges = V.enumerate_values(3), V.mass_one_tuples(2), ch.object_challenges(2)
    kept = [list(listed), list(tuples), [P.weight_list() for P in challenges]]
    for got in (listed, tuples, challenges):
        got.reverse()
        got.pop()
    challenges[0].weights["x0"] = ONE
    again = V.enumerate_values(3), V.mass_one_tuples(2), ch.object_challenges(2)
    assert [again[0], again[1], [P.weight_list() for P in again[2]]] == kept
    assert calls == []


def test_a_descriptor_keeps_a_bounded_number_of_tuples(sqrt2_dyadic, monkeypatch):
    """A height whose mass-1 tuples would take the descriptor past
    ``_KEPT_TUPLES`` is walked again on each call, with the same tuples."""
    V = GroupDescriptor.from_json(sqrt2_dyadic.to_json())
    monkeypatch.setattr(values, "_KEPT_TUPLES", 40)
    walks = []
    walk = values._sums_to_one
    monkeypatch.setattr(values, "_sums_to_one", lambda *a: walks.append(a[1]) or walk(*a))
    first = [V.mass_one_tuples(h) for h in (1, 2, 1, 2)]
    assert walks == [2, 3, 3] and list(V._listing.tuples) == [1]
    assert first[2:] == first[:2] and [len(t) for t in first[:2]] == [7, 38]
    snapshot = GoodMeasureChain(V).run_schedule(2).to_text()
    assert hashlib.sha256(snapshot.encode("utf-8")).hexdigest() == (
        "0f85b66bdc1dcca52552ed23200cc13d3ac69787a76c5d80b92a91a3e8eec50a"
    )


def test_schedule_lists_V_before_it_appends_a_level(dyadic, monkeypatch):
    """``run_schedule`` lists V up to height budget + 1 first, so a listing
    that fails (a ``digits`` symbol can run out of precision) fails before
    the chain changes."""
    V = GroupDescriptor.from_json(dyadic.to_json())
    real = GroupDescriptor.enumerate_values

    def listing(self, budget):
        if budget > 2:
            raise PrecisionExhausted("no deeper enclosure")
        return real(self, budget)

    monkeypatch.setattr(GroupDescriptor, "enumerate_values", listing)
    ch = GoodMeasureChain(V)
    with pytest.raises(PrecisionExhausted):
        ch.run_schedule(2)
    assert ch.depth == 0 and ch.ledger == []
    assert ch.run_schedule(1).depth > 0


# -- schedule ---------------------------------------------------------------------------


def test_schedule_budget1_dyadic(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(1)
    keys = {tuple(sorted(str(w) for w in e.challenge_object.weight_list()))
            for e in ch.ledger if e.kind == "object"}
    assert ("1",) in keys
    assert ("1/2", "1/2") in keys


def test_schedule_rejects_zero_budget(dyadic):
    with pytest.raises(ValueError):
        GoodMeasureChain(dyadic).run_schedule(0)


def test_schedule_idempotent(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    snapshot = jsonutil.dumps(ch.to_json())
    ch.run_schedule(2)
    assert jsonutil.dumps(ch.to_json()) == snapshot


def test_schedule_budget_growth_appends(triadic):
    ch = GoodMeasureChain(triadic)
    ch.run_schedule(1)
    levels_before = [L.to_json() for L in ch.levels]
    ch.run_schedule(2)
    assert [L.to_json() for L in ch.levels][: len(levels_before)] == levels_before


def test_schedule_absorptions_verified(dyadic, triadic):
    for V in (dyadic, triadic):
        ch = GoodMeasureChain(V)
        ch.run_schedule(3)
        check_chain_valid(ch)
        for entry in ch.ledger:
            src = ch.levels[entry.stage]
            lift = PartitionMorphism(src, entry.challenge_object, dict(entry.response_map))
            assert verify_morphism(lift)
            if entry.kind == "morphism":
                proj = ch.composite_mapping(entry.stage, entry.target_level)
                for c in src.cells:
                    assert entry.challenge_map[entry.response_map[c]] == proj[c]


# -- measures and witnesses ---------------------------------------------------------------


def test_measure_trivials(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    assert ch.measure(ClopenSet.of(1, [])) == ZERO
    assert ch.measure(ClopenSet.of(1, ch.levels[1].cells)) == ONE
    c = ch.levels[1].cells[0]
    assert ch.measure(ClopenSet.of(1, [c])) == ch.levels[1].weight(c)


def test_subset_witness_split(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/4", "1/4"))
    U = ClopenSet.of(1, [ch.levels[1].cells[1]])  # mass 1/4
    W = ClopenSet.of(1, [ch.levels[1].cells[0]])  # mass 1/2
    Wp = ch.subset_witness(U, W)
    assert ch.measure(Wp) == E("1/4")
    inside = ch.project(W, Wp.level)
    assert set(Wp.cells) <= set(inside.cells)


def test_subset_witness_not_smaller(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    U = ClopenSet.of(1, [ch.levels[1].cells[0]])
    with pytest.raises(NotSmaller):
        ch.subset_witness(U, U)


def test_subset_witness_triadic_third_of_space(triadic):
    ch = GoodMeasureChain(triadic)
    ch.absorb_object(obj("1/3", "2/3"))
    U = ClopenSet.of(1, [ch.levels[1].cells[0]])
    W = ClopenSet.of(0, ["r"])
    Wp = ch.subset_witness(U, W)
    assert ch.measure(Wp) == E("1/3")


def test_maximal_partition_witness(dyadic, triadic):
    ch = GoodMeasureChain(dyadic)
    assert ch.maximal_partition_witness([E("1/2"), E("1/2")]) == 1
    ch3 = GoodMeasureChain(triadic)
    ch3.maximal_partition_witness([E("1/3")] * 3)
    with pytest.raises(NotInV):
        ch.maximal_partition_witness([E("1/3"), E("2/3")])
    with pytest.raises(SumMismatch):
        ch.maximal_partition_witness([E("1/2"), E("1/4")])
    with pytest.raises(NotInV):
        ch.maximal_partition_witness([E("3/2"), E("-1/2")])


def test_no_atoms_every_cell_splits(dyadic, triadic):
    """Every cell of every level admits a further split with parts in V."""
    from goodmeasures.partitions import split_cell

    for V in (dyadic, triadic):
        ch = GoodMeasureChain(V)
        ch.run_schedule(2)
        for L in ch.levels:
            for c in L.cells:
                a = V.smallest_below(L.weight(c))
                R, pi = split_cell(L, c, [a, L.weight(c) - a], V)
                assert verify_morphism(pi)


# -- automorphism prefixes --------------------------------------------------------------------


def test_extend_identity(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    L = ch.levels[1]
    sigma = ch.extend_partial_isomorphism(1, {c: c for c in L.cells})
    assert ch.prefix_valid(sigma)
    assert sigma.depth == ch.depth
    assert all(v == c for c, v in sigma.maps[1].items())


def test_extend_swap(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    a, b = ch.levels[1].cells
    sigma = ch.extend_partial_isomorphism(1, {a: b})
    assert ch.prefix_valid(sigma)
    assert sigma.maps[1] == {a: b, b: a}


def test_extend_weight_mismatch(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    cells = ch.levels[1].cells
    with pytest.raises(WeightMismatch):
        ch.extend_partial_isomorphism(1, {cells[0]: cells[2]})


def test_extend_partial_isomorphism_refuses_a_level_outside_the_chain(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    assert ch.depth == 2
    a, b = ch.levels[1].cells
    for level in (-1, ch.depth + 1):
        with pytest.raises(ValueError, match=f"^level {level} is not a level of the chain$"):
            ch.extend_partial_isomorphism(level, {a: b, b: a})
    assert ch.depth == 2


def test_extend_needs_transport_split(dyadic):
    """Swapping cells whose fibers differ forces a refinement level."""
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    a, b = ch.levels[1].cells
    # split only cell a one level deeper
    from goodmeasures.partitions import split_cell

    R, pi = split_cell(ch.levels[1], a, [E("1/4"), E("1/4")], dyadic)
    ch._append_level(R, pi)
    sigma = ch.extend_partial_isomorphism(1, {a: b})
    assert ch.prefix_valid(sigma)
    assert sigma.depth >= 2
    anc = ch.composite_mapping(sigma.depth, 1)
    for c, d in sigma.maps[sigma.depth].items():
        assert anc[d] == sigma.maps[1][anc[c]]


def test_fiber_crossing_partial_iso(dyadic):
    """A partial isomorphism moving mass across parent cells still extends."""
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    ch.absorb_object(obj("1/4", "1/4", "1/4", "1/4"))
    anc = ch.composite_mapping(2, 1)
    quarters = list(ch.levels[2].cells)
    src = quarters[0]
    tgt = next(c for c in quarters if anc[c] != anc[src])
    sigma = ch.extend_partial_isomorphism(2, {src: tgt, tgt: src})
    assert ch.prefix_valid(sigma)
    assert sigma.maps[2][src] == tgt
    # no coherent bijection exists at level 1 for this prefix necessarily,
    # but all stored squares commute
    assert sigma.base >= 1


def test_extend_prefix_noop_and_deeper(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    sigma = ch.identity_prefix(1)
    same = ch.extend_prefix(sigma, 1)
    assert same.maps[1] == sigma.maps[1]
    deeper = ch.extend_prefix(sigma, ch.depth)
    assert deeper.depth >= ch.depth - 1 and ch.prefix_valid(deeper)


def test_extend_prefix_beyond_chain_splits_orbits(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/2", "1/2"))
    a, b = ch.levels[1].cells
    sigma = ch.extend_partial_isomorphism(1, {a: b})
    want = ch.depth + 2
    deeper = ch.extend_prefix(sigma, want)
    assert deeper.depth >= want
    assert ch.prefix_valid(deeper)


def test_extend_prefix_from_below_the_top(sqrt2_dyadic):
    """A rotation of each class of equal-weight cells at a level below the
    top, extended to the top: a valid prefix that keeps the given map."""
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(2)
    rotated = 0
    for k in range(ch.depth):
        level = ch.levels[k]
        classes: dict[ExactValue, list[str]] = {}
        for c in level.cells:
            classes.setdefault(level.weight(c), []).append(c)
        m = {x: y for cells in classes.values() for x, y in zip(cells, cells[1:] + cells[:1])}
        if all(x == y for x, y in m.items()):
            continue  # no two cells of one weight
        rotated += 1
        top = ch.depth
        sigma = ch.extend_prefix(AutomorphismPrefix({k: m}), top)
        assert sigma.maps[k] == m and sigma.depth >= top
        assert ch.prefix_valid(sigma) and prefix_by_sets(ch, sigma)
    assert rotated >= 10


def test_compose_and_invert(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    a, b = ch.levels[1].cells[:2]
    swap = ch.extend_partial_isomorphism(1, {a: b})
    comp = ch.compose_prefixes(swap, invert_prefix(swap))
    assert ch.prefix_valid(comp)
    top = comp.depth
    assert all(comp.maps[top][c] == c for c in ch.levels[top].cells)


# -- snapshots -------------------------------------------------------------------------------


def test_snapshot_round_trip(dyadic, triadic):
    for V in (dyadic, triadic):
        ch = GoodMeasureChain(V)
        ch.run_schedule(2)
        data = jsonutil.dumps(ch.to_json())
        again = GoodMeasureChain.from_json(jsonutil.loads(data))
        assert jsonutil.dumps(again.to_json()) == data


def test_snapshot_reload_and_continue(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    again = GoodMeasureChain.from_json(ch.to_json())
    ch.run_schedule(3)
    again.run_schedule(3)
    assert jsonutil.dumps(again.to_json()) == jsonutil.dumps(ch.to_json())


def test_load_verifies_masses_without_adding_values(sqrt2_dyadic, monkeypatch):
    """``from_json`` checks every link, challenge map and response on packed
    ints: it calls no ``verify_morphism`` and adds no two values."""
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.run_schedule(2)
    data = jsonutil.loads(jsonutil.dumps(ch.to_json()))
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(ExactValue, name, counted(name, getattr(ExactValue, name)))
    monkeypatch.setattr(chain_module, "verify_morphism", counted("verify", verify_morphism))
    loaded = GoodMeasureChain.from_json(data)
    assert calls == []
    assert len(loaded.ledger) == len(ch.ledger) and jsonutil.dumps(loaded.to_json()) == (
        jsonutil.dumps(ch.to_json())
    )


def _loaded_sqrt2_dyadic(V):
    ch = GoodMeasureChain(V)
    ch.run_schedule(2)
    return GoodMeasureChain.from_json(jsonutil.loads(jsonutil.dumps(ch.to_json())))


def test_save_formats_each_distinct_weight_once(sqrt2_dyadic, monkeypatch):
    """A loaded chain is written with one ``ExactValue.to_json`` per distinct
    weight and no addition: the loader recorded each partition's total."""
    loaded = _loaded_sqrt2_dyadic(sqrt2_dyadic)
    partitions_ = [*loaded.levels, *(e.challenge_object for e in loaded.ledger)]
    distinct = {w for P in partitions_ for w in P.weight_list()}
    assert ONE in distinct and len(distinct) < sum(len(P.cells) for P in partitions_) // 10
    calls = []

    def counted(name):
        real = getattr(ExactValue, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("to_json", "__add__", "__sub__"):
        monkeypatch.setattr(ExactValue, name, counted(name))
    loaded.to_json()
    assert calls.count("__add__") == calls.count("__sub__") == 0
    assert calls.count("to_json") == len(distinct)


def _written_weights(out) -> list[str]:
    """Every weight dict of a written snapshot, cells and the ledger's
    weight table, as text."""
    levels = [c["w"] for P in out["levels"] for c in P["cells"]]
    return [jsonutil.dumps(w) for w in [*levels, *out["weights"]]]


def test_saved_cells_share_no_dict(sqrt2_dyadic):
    """Cells and table entries of equal weight get weight dicts of their
    own: editing one in place changes nothing else and no later
    ``to_json``."""
    loaded = _loaded_sqrt2_dyadic(sqrt2_dyadic)
    text = jsonutil.dumps(loaded.to_json())
    out = loaded.to_json()
    cells = [c for P in out["levels"] for c in P["cells"]]
    edits = [c["w"] for c in cells if c["w"] == {"q": "1/2"}][:1]
    edits += [c["w"] for c in cells if "irr" in c["w"]][:1]
    edits += [c["w"] for c in cells if c["w"] == {"q": "1"}][:1]
    edits += [w for w in out["weights"] if w == {"q": "1/2"}][:1]
    for w in edits:
        before = _written_weights(out)
        w["q"] = "1/3"
        w.setdefault("irr", {})["s2"] = "-5"
        after = _written_weights(out)
        assert sum(a != b for a, b in zip(before, after)) == 1
    assert jsonutil.dumps(loaded.to_json()) == text


def _tower_snapshot(V, levels):
    """Snapshot JSON of a tower with no ledger.  ``levels`` lists each level's
    cells as (id, q, c), weight q + c·(√2−1); a cell's parent is its id up to
    the last slash."""
    def weight(q, c):
        return {"q": str(q), "irr": {"s2": str(c)}} if c else {"q": str(q)}
    return {
        "descriptor": V.to_json(),
        "levels": [{"cells": [{"id": i, "w": weight(q, c)} for i, q, c in cells]}
                   for cells in levels],
        "links": [{"map": {i: i.rsplit("/", 1)[0] for i, _, _ in cells}} for cells in levels[1:]],
        "ledger": [],
    }


def _split_in_two(rng, cells):
    """Each (id, q, c) cut into two, at a random numerator over the cell's
    own denominator in whichever coordinate is not zero."""
    out = []
    for i, q, c in cells:
        x = q or c
        a = Fraction(rng.randrange(1, x.numerator), x.denominator)
        out += [(f"{i}/0", a, 0), (f"{i}/1", x - a, 0)] if q else [
            (f"{i}/0", 0, a), (f"{i}/1", 0, x - a)]
    return out


def _triadic_tower(rng):
    """Level 1: 70 cells over 3**40 (some reduce to 3**39); level 2 halves each."""
    den = 3**40
    nums = [rng.randrange(den // 140, den // 70) for _ in range(69)]
    nums[::7] = [n - n % 3 for n in nums[::7]]
    nums.append(den - sum(nums))
    level1 = [(f"r/{k}", Fraction(n, den), 0) for k, n in enumerate(nums)]
    return level1, _split_in_two(rng, level1), Fraction(1, den)


def _sqrt2_dyadic_tower(rng):
    """Level 1: 33 cells k·s/2**64 and one cell 1 − K·s/2**64; level 2 halves
    the first 33 and cuts the last into 32 cells 1/32 − m·s/2**64, whose
    negative s-coordinates borrow from the rational one when packed."""
    den = 2**64
    ks = [rng.randrange(2**57, 2**58) for _ in range(33)]
    K = sum(ks)
    ms = [K // 32 + rng.randrange(-(2**50), 2**50) for _ in range(31)]
    ms.append(K - sum(ms))
    level1 = [(f"r/{k}", 0, Fraction(n, den)) for k, n in enumerate(ks)]
    level1.append(("r/33", 1, -Fraction(K, den)))
    level2 = _split_in_two(rng, level1[:-1])
    level2 += [(f"r/33/{j}", Fraction(1, 32), -Fraction(m, den)) for j, m in enumerate(ms)]
    return level1, level2, Fraction(1, den)


@pytest.mark.parametrize("descriptor,tower", [
    ("triadic", _triadic_tower), ("sqrt2_dyadic", _sqrt2_dyadic_tower)])
def test_huge_denominators_load_and_a_numerator_moved_by_one_does_not(descriptor, tower, request):
    """The packed mass checks neither carry nor lose a unit: the tower loads,
    and moving one numerator of either level by 1 over its denominator
    breaks the link above it."""
    V = request.getfixturevalue(descriptor)
    level1, level2, unit = tower(random.Random(4040))
    root = [("r", 1, 0)]
    chain = GoodMeasureChain.from_json(_tower_snapshot(V, [root, level1, level2]))
    assert len(chain.top.cells) >= 64 and chain.top.total == ONE
    assert max(w.den for w in chain.top.weight_list()) == unit.denominator
    for k, level in ((1, level1), (2, level2)):
        i, q, c = level[-1]
        moved = [*level[:-1], (i, q, c + unit) if c else (i, q + unit, c)]
        levels = [root, level1, level2]
        levels[k] = moved
        with pytest.raises(ValueError, match=f"^snapshot link {k - 1} does not map level {k} "):
            GoodMeasureChain.from_json(_tower_snapshot(V, levels))


def test_snapshot_written_before_relabelling_still_answers():
    """A dyadic budget-3 snapshot from when every absorption appended a level
    loads; each ledger challenge is answered at its recorded stage with no new
    level, and rerunning the schedule leaves its bytes unchanged."""
    text = (FIXTURES / "dyadic_budget3_before_relabel.json").read_text(encoding="utf-8")
    ch = GoodMeasureChain.from_json(jsonutil.loads(text))
    assert len(ch.levels) == 8
    for entry in list(ch.ledger):
        if entry.kind == "object":
            assert ch.absorb_object(entry.challenge_object) == entry.stage
        else:
            target = ch.levels[entry.target_level]
            challenge = PartitionMorphism(entry.challenge_object, target, entry.challenge_map)
            stage, r = ch.absorb_morphism(challenge, entry.target_level)
            assert stage == entry.stage and r.mapping == entry.response_map
    assert len(ch.levels) == 8
    ch.run_schedule(3)
    assert jsonutil.dumps(snapshot_format1(ch)) == text
    # written in format 3 and read back, it still has the fixture's format-1 bytes
    again = GoodMeasureChain.from_json(jsonutil.loads(ch.to_text()))
    assert jsonutil.dumps(snapshot_format1(again)) == text


def _answers(ch: GoodMeasureChain) -> list:
    """Each ledger challenge absorbed again: its stage, its response map and
    the chain's levels after it; a ledger hit appends no level."""
    out = []
    for entry in list(ch.ledger):
        if entry.kind == "object":
            stage, response = ch.absorb_object(entry.challenge_object), entry.response_map
        else:
            target = ch.levels[entry.target_level]
            challenge = PartitionMorphism(entry.challenge_object, target, entry.challenge_map)
            stage, r = ch.absorb_morphism(challenge, entry.target_level)
            response = r.mapping
        out.append((stage, dict(response), len(ch.levels)))
    return out


def test_format2_fixture_and_its_format3_save_answer_the_same():
    """A dyadic budget-2 snapshot written in format 2 by
    ``oracles.snapshot_format2`` loads.  Saved in format 3 and loaded again,
    it answers each ledger challenge at its recorded stage with its
    recorded response and no new level, as the format-2 load does, and both
    give the fixture's bytes back through the format-2 writer."""
    text = (FIXTURES / "dyadic_budget2_format2.json").read_text(encoding="utf-8")
    ch = GoodMeasureChain.from_json(jsonutil.loads(text))
    again = GoodMeasureChain.from_json(jsonutil.loads(ch.to_text()))
    assert jsonutil.dumps(snapshot_format2(ch)) == jsonutil.dumps(snapshot_format2(again)) == text
    answers = _answers(ch)
    assert answers == _answers(again)
    assert answers == [(e.stage, dict(e.response_map), len(ch.levels)) for e in ch.ledger]


@settings(max_examples=40, deadline=None)
@given(
    irrational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from(["object", "morphism", "shuffled", "witness", "deepen"]),
        min_size=1, max_size=5,
    ),
)
def test_format2_round_trip_gives_identical_bytes(irrational, seed, steps, dyadic, sqrt2_dyadic):
    """A chain grown by random absorptions, witnesses and splits, written in
    format 2 (``oracles.snapshot_format2``), read back and written again,
    gives the same bytes, the same format-1 snapshot and the same format-3
    text.  A ``shuffled`` challenge lists its cells out of the target's
    order, so its challenge map and response are not monotone."""
    rng = random.Random(seed)
    V = sqrt2_dyadic if irrational else dyadic
    ch = GoodMeasureChain(V)
    for n, step in enumerate(steps):
        level = rng.randint(0, ch.depth)
        if step == "object":
            ch.absorb_object(random_partition(rng, V, 4, f"o{n}/"))
        elif step in ("morphism", "shuffled"):
            m = random_refining_morphism(rng, V, ch.levels[level], 3, f"m{n}/")
            if step == "shuffled":
                cells = rng.sample(m.source.cells, len(m.source.cells))
                src = WeightedPartition.make([(c, m.source.weight(c)) for c in cells])
                m = PartitionMorphism(src, m.target, m.mapping)
            ch.absorb_morphism(m, level)
        elif step == "witness":
            compatible_witness(ch, random_balanced_matrix(rng, ch, level))
        else:
            ch.ensure_depth(ch.depth + 1)
    text = jsonutil.dumps(snapshot_format2(ch))
    loaded = GoodMeasureChain.from_json(jsonutil.loads(text))
    assert jsonutil.dumps(snapshot_format2(loaded)) == text
    assert snapshot_format1(loaded) == snapshot_format1(ch)
    assert loaded.to_text() == ch.to_text()


#: Cell ids whose JSON text needs escaping, or is not ASCII.
_ESCAPED_IDS = ['"', "\\", "\n", "\t", "\u2028", "é", "\U0001f600"]
_WRITER_SETS = ["dyadic", "triadic", "rationals", "sqrt2_dyadic"]


def _each_writer_case(test):
    """An ``example`` of each schedule, and of each other case once."""
    for name in _WRITER_SETS:
        for budget in (1, 2, 3):
            test = example(case="schedule", name=name, budget=budget, seed=0, ids=["é"])(test)
    for case in ("witness", "fixture", "depth 0"):
        test = example(case=case, name="sqrt2_dyadic", budget=2, seed=1, ids=["é"])(test)
    return example(case="escaped", name="sqrt2_dyadic", budget=1, seed=2, ids=_ESCAPED_IDS)(test)


@settings(max_examples=60, deadline=None)
@_each_writer_case
@given(
    case=st.sampled_from(["schedule", "witness", "fixture", "depth 0", "escaped"]),
    name=st.sampled_from(_WRITER_SETS),
    budget=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    ids=st.lists(st.sampled_from(_ESCAPED_IDS), min_size=1, max_size=3),
)
def test_to_text_writes_the_bytes_of_the_reference_snapshot(
    case, name, budget, seed, ids, dyadic, triadic, rationals, sqrt2_dyadic
):
    """``to_text`` is ``jsonutil.dumps`` of the dict-built reference
    (``oracles.snapshot_format3``), and canonical: on schedules, on chains
    extended by witnesses (cycle splits and morphism entries), on the loaded
    format-1 fixture, on a depth-0 chain (no links, ledger or weights), and
    on challenges whose cell ids need escaping."""
    V = {"dyadic": dyadic, "triadic": triadic, "rationals": rationals,
         "sqrt2_dyadic": sqrt2_dyadic}[name]
    rng = random.Random(seed)
    if case == "schedule":
        ch = GoodMeasureChain(V)
        ch.run_schedule(budget)
    elif case == "witness":
        ch = GoodMeasureChain(V)
        ch.run_schedule(2)
        for _ in range(budget):
            compatible_witness(ch, random_balanced_matrix(rng, ch, rng.randint(0, ch.depth)))
    elif case == "fixture":
        text = (FIXTURES / "dyadic_budget3_before_relabel.json").read_text(encoding="utf-8")
        ch = GoodMeasureChain.from_json(jsonutil.loads(text))
    elif case == "depth 0":
        ch = GoodMeasureChain(V)
    else:
        ch = GoodMeasureChain(V)
        prefix = "".join(ids)
        ch.absorb_object(random_partition(rng, V, 4, prefix))
        ch.absorb_morphism(random_refining_morphism(rng, V, ch.top, 3, prefix + "/"), ch.depth)
        assert prefix + "0" in ch.ledger[0].challenge_object.cells
    text = ch.to_text()
    reference = snapshot_format3(ch)
    assert text == jsonutil.dumps(reference)
    assert jsonutil.dumps(jsonutil.loads(text)) == text
    assert ch.to_json() == reference
    if case == "depth 0":
        assert reference["links"] == reference["ledger"] == reference["weights"] == []


# -- the ledger held as positions ----------------------------------------------------------


def assert_ledger_positional(chain):
    """Each entry holds its response, and a morphism entry its challenge
    map, as a list of ints of its own, one per source cell, each a position
    in the target; its maps read those positions."""
    for e in chain.ledger:
        stage, obj = chain.levels[e.stage].cells, e.challenge_object.cells
        assert type(e.response) is list and len(e.response) == len(stage)
        assert all(type(p) is int and 0 <= p < len(obj) for p in e.response)
        assert e.stage_cells is stage
        assert dict(e.response_map) == {c: obj[p] for c, p in zip(stage, e.response)}
        if e.kind == "object":
            assert e.challenge is None and e.challenge_map is None
            continue
        below = chain.levels[e.target_level].cells
        assert type(e.challenge) is list and len(e.challenge) == len(obj)
        assert all(type(p) is int and 0 <= p < len(below) for p in e.challenge)
        assert dict(e.challenge_map) == {c: below[p] for c, p in zip(obj, e.challenge)}


def test_ledger_holds_positions_built_and_loaded_from_either_format(dyadic, sqrt2_dyadic):
    text = (FIXTURES / "dyadic_budget3_before_relabel.json").read_text(encoding="utf-8")
    for V in (dyadic, sqrt2_dyadic):
        built = GoodMeasureChain(V).run_schedule(2)
        assert_ledger_positional(built)
        assert_ledger_positional(GoodMeasureChain.from_json(jsonutil.loads(built.to_text())))
        data = jsonutil.loads(jsonutil.dumps(snapshot_format2(built)))
        loaded = GoodMeasureChain.from_json(data)
        assert_ledger_positional(loaded)
        # the loaded entries own their positions: changing the JSON changes no entry
        before = [list(e.response) for e in loaded.ledger]
        for entry in data["ledger"]:
            entry["response"].reverse()
        assert [e.response for e in loaded.ledger] == before
    assert_ledger_positional(GoodMeasureChain.from_json(jsonutil.loads(text)))


def test_ledger_maps_are_read_only():
    ch = GoodMeasureChain(GroupDescriptor.dyadic())
    ch.absorb_object(obj("1/2", "1/2"))
    entry = ch.ledger[-1]
    with pytest.raises(TypeError):
        entry.response_map["r/0"] = "x1"
    assert entry.response_map is entry.response_map  # built once


@pytest.mark.parametrize("budget, digest2, digest3", [
    (2, "5b75d4695ee154b9dc3cc8d4b9e60411529ae3e65db0bed20ecd27dd5a793fbf",
     "0f85b66bdc1dcca52552ed23200cc13d3ac69787a76c5d80b92a91a3e8eec50a"),
    (3, "63b5ec1c9754224c4cf6da91d6f4b124e804272a97bd707c31ccdb72d5144518",
     "b373fc10a3827fbe5c9ff2bb8cbdc3c5d4f05701b801cd59869f232f292329fb"),
    (4, "2bbc45965fd68765fbed99c0bb30b436f532ba42c803e846c4ee871abe1c540a",
     "0a15e48309851a674b88cc87a6ab007e45fc77095219e5baa8e0976a2a356edd"),
], ids=["budget2", "budget3", "budget4"])
def test_sqrt2_dyadic_snapshot_round_trips_byte_for_byte(sqrt2_dyadic, budget, digest2, digest3):
    """Written, parsed, loaded and written again, a schedule's snapshot
    keeps its bytes, and the loaded chain's format-2 snapshot
    (``oracles.snapshot_format2``) has the digest of the snapshots written
    when the ledger held its maps as dicts."""
    text = GoodMeasureChain(sqrt2_dyadic).run_schedule(budget).to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest3
    loaded = GoodMeasureChain.from_json(jsonutil.loads(text))
    assert loaded.to_text() == text
    format2 = jsonutil.dumps(snapshot_format2(loaded)).encode("utf-8")
    assert hashlib.sha256(format2).hexdigest() == digest2


def test_format1_fixture_loads_its_json_maps():
    text = (FIXTURES / "dyadic_budget3_before_relabel.json").read_text(encoding="utf-8")
    data = jsonutil.loads(text)
    ch = GoodMeasureChain.from_json(data)
    assert len(ch.ledger) == len(data["ledger"])
    for e, written in zip(ch.ledger, data["ledger"]):
        assert dict(e.response_map) == written["response"]["map"]
        if e.kind == "morphism":
            assert dict(e.challenge_map) == written["challenge_map"]


def test_a_snapshot_that_loads_formats_no_place_name(monkeypatch, sqrt2_dyadic):
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.run_schedule(2)
    format3 = jsonutil.loads(ch.to_text())
    format2 = jsonutil.loads(jsonutil.dumps(snapshot_format2(ch)))
    format1 = jsonutil.loads((FIXTURES / "dyadic_budget3_before_relabel.json").read_text("utf-8"))

    def formatted(place):
        raise AssertionError("a place name was formatted for a snapshot that loads")

    monkeypatch.setattr(jsonutil.Place, "__str__", formatted)
    for data in (format1, format2, format3):
        assert len(GoodMeasureChain.from_json(data).ledger) == len(data["ledger"])


def test_non_monotone_format1_response_loads():
    """A format-1 response whose images, in stage order, go back to an
    earlier challenge cell is a valid map: it loads as positions, not
    assumed to run in order, and format 3 writes it back as it is."""
    ch = GoodMeasureChain(GroupDescriptor.dyadic())
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    ch.absorb_object(obj("1/2", "1/2"))
    data = snapshot_format1(ch)
    n, entry = next((n, e) for n, e in enumerate(data["ledger"])
                    if len(e["challenge"]["cells"]) == 2)
    response = entry["response"]["map"]
    first, second = entry["challenge"]["cells"][0]["id"], entry["challenge"]["cells"][1]["id"]
    # the top's quarters go to one challenge cell, its half to the other: swapped, each
    # challenge cell still carries 1/2
    assert set(response.values()) == {first, second}
    response.update({c: second if x == first else first for c, x in response.items()})
    loaded = GoodMeasureChain.from_json(data)
    positions = loaded.ledger[n].response
    assert positions != sorted(positions)
    assert dict(loaded.ledger[n].response_map) == response
    again = GoodMeasureChain.from_json(jsonutil.loads(jsonutil.dumps(loaded.to_json())))
    assert again.ledger[n].response == positions


# -- format 3: a non-decreasing response is recovered, not written ------------------------


def _descent_chain() -> GoodMeasureChain:
    """Over the dyadic set: (1/2, 1/2) absorbed, r/1 split into two quarters
    by a morphism challenge, then the object (1/4, 1/4, 1/2) absorbed from
    the top's weights, whose half comes first: its lift has a descent."""
    ch = GoodMeasureChain(GroupDescriptor.dyadic())
    ch.absorb_object(obj("1/2", "1/2"))
    split = WeightedPartition.make([("h", E("1/2")), ("q0", E("1/4")), ("q1", E("1/4"))])
    ch.absorb_morphism(PartitionMorphism(split, ch.top, {"h": "r/0", "q0": "r/1", "q1": "r/1"}), 1)
    assert ch.absorb_object(obj("1/4", "1/4", "1/2")) == 2
    return ch


def test_a_response_with_a_descent_is_written_and_survives_a_round_trip():
    ch = _descent_chain()
    assert [e.response for e in ch.ledger] == [[0, 1], [0, 1, 2], [2, 0, 1]]
    data = jsonutil.loads(ch.to_text())
    assert data["format"] == 3
    assert ["response" in e for e in data["ledger"]] == [False, False, True]
    assert data["ledger"][2]["response"] == [2, 0, 1]
    loaded = GoodMeasureChain.from_json(data)
    assert [e.response for e in loaded.ledger] == [e.response for e in ch.ledger]
    assert [dict(e.response_map) for e in loaded.ledger] == [
        dict(e.response_map) for e in ch.ledger
    ]
    levels, entries = len(loaded.levels), len(loaded.ledger)
    assert loaded.absorb_object(obj("1/4", "1/4", "1/2")) == 2
    assert (len(loaded.levels), len(loaded.ledger)) == (levels, entries)  # a ledger hit
    assert loaded.to_text() == ch.to_text()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["dyadic", "triadic", "sqrt2_dyadic"]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from(["object", "shuffled object", "morphism", "shuffled morphism"]),
        min_size=1, max_size=6,
    ),
)
def test_format3_round_trip_keeps_every_ledger_position(
    name, seed, steps, dyadic, triadic, sqrt2_dyadic
):
    """Random object and morphism challenges, absorbed in a random order,
    some listing their cells out of order so that responses have descents:
    ``to_text``, ``loads`` and ``from_json`` keep every entry's positions
    and the format-2 snapshot, and the loaded chain writes the same text."""
    V = {"dyadic": dyadic, "triadic": triadic, "sqrt2_dyadic": sqrt2_dyadic}[name]
    rng = random.Random(seed)
    ch = GoodMeasureChain(V)
    for n, step in enumerate(steps):
        if step.endswith("object"):
            P = random_partition(rng, V, 4, f"o{n}/")
            level = None
        else:
            level = rng.randint(0, ch.depth)
            m = random_refining_morphism(rng, V, ch.levels[level], 3, f"m{n}/")
            P = m.source
        if step.startswith("shuffled"):
            P = WeightedPartition.make([(c, P.weight(c)) for c in rng.sample(P.cells, len(P.cells))])
        if level is None:
            ch.absorb_object(P)
        else:
            ch.absorb_morphism(PartitionMorphism(P, m.target, m.mapping), level)
    text = ch.to_text()
    loaded = GoodMeasureChain.from_json(jsonutil.loads(text))
    assert [(e.kind, e.stage, e.target_level, e.response, e.challenge) for e in loaded.ledger] == [
        (e.kind, e.stage, e.target_level, e.response, e.challenge) for e in ch.ledger
    ]
    assert snapshot_format2(loaded) == snapshot_format2(ch)
    assert loaded.to_text() == text


def test_sqrt2_dyadic_budget3_snapshot_writes_no_response(sqrt2_dyadic):
    """Every response the schedule records is non-decreasing, so the
    budget-3 snapshot writes none, and no level writes a total."""
    text = GoodMeasureChain(sqrt2_dyadic).run_schedule(3).to_text()
    assert '"response"' not in text and '"total"' not in text
    assert len(text.encode("utf-8")) < 1_000_000  # 1,588,290 bytes in format 2


def test_sqrt2_module_chain(sqrt2_module):
    ch = GoodMeasureChain(sqrt2_module)
    ch.run_schedule(1)
    check_chain_valid(ch)
    assert ch.depth >= 1


# -- the chain invariant, checked from outside the engine ---------------------------------


def assert_chain_sound(chain):
    """Every property the engine relies on without re-checking it."""
    assert chain.levels[0].total == ONE
    for P in chain.levels:
        check_all_in(P.weight_list(), chain.V, "level weight")
    for k, link in enumerate(chain.links):
        assert link.source is chain.levels[k + 1] and link.target is chain.levels[k]
        assert verify_morphism(link)
    # every projection walked down link by link, independent of composite_mapping,
    # then asked for in a seeded shuffled order: kept projections get extended
    # by deeper requests and outlive shallower ones
    walked = {}
    for hi in range(chain.depth + 1):
        proj = walked[hi, hi] = {c: c for c in chain.levels[hi].cells}
        for lo in range(hi, 0, -1):
            proj = walked[hi, lo - 1] = {c: chain.links[lo - 1].mapping[p] for c, p in proj.items()}
    pairs = sorted(walked)
    random.Random(0).shuffle(pairs)
    for hi, lo in pairs:
        assert chain.composite_mapping(hi, lo) == walked[hi, lo]
    for e in chain.ledger:
        A = e.challenge_object
        check_all_in(A.weight_list(), chain.V, "challenge weight")
        stage = chain.levels[e.stage]
        assert verify_morphism(PartitionMorphism(stage, A, dict(e.response_map)))
        if e.kind == "morphism":
            target = chain.levels[e.target_level]
            assert verify_morphism(PartitionMorphism(A, target, dict(e.challenge_map)))
            proj = walked[e.stage, e.target_level]
            assert all(e.challenge_map[e.response_map[c]] == proj[c] for c in stage.cells)


def _schedule(budget):
    def build(V):
        ch = GoodMeasureChain(V)
        ch.run_schedule(budget)
        return ch
    return build


def _subset_witness(V):
    ch = GoodMeasureChain(V)
    ch.absorb_object(obj("1/2", "1/4", "1/4"))
    ch.subset_witness(ClopenSet.of(1, [ch.levels[1].cells[1]]),
                      ClopenSet.of(1, [ch.levels[1].cells[0]]))
    assert ch.depth == 2
    return ch


def _mixing(ch, level):
    a, b = ch.levels[level].cells
    q = E("1/4")
    return BalancedMatrix(level, {(a, a): q, (a, b): q, (b, a): q, (b, b): q})


def _cycle_object_at_top(V):
    ch = GoodMeasureChain(V)
    ch.absorb_object(obj("1/2", "1/2"))
    to_cycle_object(ch, _mixing(ch, 1))
    assert ch.depth == 2 and len(ch.ledger) == 1
    return ch


def _cycle_object_below_top(V):
    ch = GoodMeasureChain(V)
    ch.absorb_object(obj("1/2", "1/2"))
    ch.absorb_object(obj("1/4", "1/4", "1/4", "1/4"))
    ledger = len(ch.ledger)
    to_cycle_object(ch, _mixing(ch, 1))
    assert ch.ledger[ledger].kind == "morphism"
    return ch


def _transport_split(V):
    ch = GoodMeasureChain(V)
    ch.absorb_object(obj("1/2", "1/2"))
    a, b = ch.levels[1].cells
    R, pi = split_cell(ch.levels[1], a, [E("1/4"), E("1/4")], V)
    ch._append_level(R, pi)
    ch.extend_partial_isomorphism(1, {a: b})
    assert ch.depth == 3
    return ch


def _orbit_split(V):
    ch = GoodMeasureChain(V)
    ch.absorb_object(obj("1/2", "1/2"))
    a, b = ch.levels[1].cells
    ch.extend_prefix(ch.extend_partial_isomorphism(1, {a: b}), 3)
    assert ch.depth == 3
    return ch


@pytest.mark.parametrize("build,descriptor", [
    (_schedule(3), "dyadic"),
    (_schedule(3), "triadic"),
    (_schedule(2), "sqrt2_module"),
    (_subset_witness, "dyadic"),
    (_cycle_object_at_top, "dyadic"),
    (_cycle_object_below_top, "dyadic"),
    (_transport_split, "dyadic"),
    (_orbit_split, "dyadic"),
], ids=["schedule-dyadic", "schedule-triadic", "schedule-sqrt2", "subset-witness",
        "cycle-object-at-top", "cycle-object-below-top", "transport-split", "orbit-split"])
def test_every_append_path_keeps_the_chain_sound(build, descriptor, request):
    built = build(request.getfixturevalue(descriptor))
    loaded = GoodMeasureChain.from_json(built.to_json())
    for ch in (built, loaded):
        assert_chain_sound(ch)
        # one level past every kept projection
        ch.ensure_depth(ch.depth + 1)
        assert_chain_sound(ch)


def test_schedule_checks_each_value_once(sqrt2_dyadic, monkeypatch):
    """Values the engine derived itself are not checked again: the schedule
    builds its challenges from V and its splits from level weights, so it
    checks no value and verifies no morphism."""
    counts = {"values": 0, "morphisms": 0}
    real_check, real_verify = values.check_all_in, partitions.verify_morphism

    def counting_check(vals, V, what="value"):
        counts["values"] += len(vals)
        real_check(vals, V, what)

    def counting_verify(m):
        counts["morphisms"] += 1
        return real_verify(m)

    for mod in [m for name, m in sys.modules.items() if name.startswith("goodmeasures")]:
        for name, val in list(vars(mod).items()):
            if val is real_check:
                monkeypatch.setattr(mod, name, counting_check)
            elif val is real_verify:
                monkeypatch.setattr(mod, name, counting_verify)
    ch = GoodMeasureChain(sqrt2_dyadic)
    ch.run_schedule(2)
    assert counts == {"values": 0, "morphisms": 0}
    snapshot = jsonutil.dumps(snapshot_format1(ch)).encode("utf-8")
    assert hashlib.sha256(snapshot).hexdigest() == (
        "430cdb0f8146b112b55d1836d26e3cffff62e3ee479b84c79bf98c493dabe7af"
    )
    snapshot = jsonutil.dumps(snapshot_format2(ch)).encode("utf-8")
    assert hashlib.sha256(snapshot).hexdigest() == (
        "5b75d4695ee154b9dc3cc8d4b9e60411529ae3e65db0bed20ecd27dd5a793fbf"
    )
    assert hashlib.sha256(ch.to_text().encode("utf-8")).hexdigest() == (
        "0f85b66bdc1dcca52552ed23200cc13d3ac69787a76c5d80b92a91a3e8eec50a"
    )


def test_engine_builds_partitions_without_arithmetic(sqrt2_dyadic, monkeypatch):
    """The root level, the schedule's object challenges (their mass-1 tuples
    walked on packed ints), an amalgam and a cycle split are built with no
    sign() call and no addition; their totals are summed on first use."""
    # a descriptor of its own, so the walk runs here and not in an earlier test
    V = GroupDescriptor.from_json(sqrt2_dyadic.to_json())
    V.enumerate_values(3)
    s = E(0, {sqrt2_symbol(): 1})
    E1 = WeightedPartition.make([("a0", s), ("a1", ONE - s)])
    E2 = WeightedPartition.make([("b0", E("1/2")), ("b1", E("1/2"))])
    # both fibers lie over one cell, so the refinement's parts are the amalgam's
    parts = _refine(E1.weight_list(), E2.weight_list())
    cuts = [(1, [w for w, i, _ in parts if i == 1])]
    calls = []

    def counted(name):
        real = getattr(ExactValue, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("sign", "__add__"):
        monkeypatch.setattr(ExactValue, name, counted(name))
    walk = values._sums_to_one
    monkeypatch.setattr(values, "_sums_to_one", lambda *a: calls.append("walk") or walk(*a))
    ch = GoodMeasureChain(V)
    challenges = ch.object_challenges(2)
    assert calls == ["walk"]
    calls.clear()
    G = _subdivide(E1, cuts)[0]
    # the cycles cross as packed ints of the root's table, 1 - s a difference
    _, weight, (ps,) = ch._table(0, [s], 2)
    ch._append_cycle_split([(["r"], ps), (["r"], weight["r"] - ps)])
    assert calls == []
    assert len(challenges) == 38 and all(P.total == ONE for P in challenges)
    assert G.weight_list() == [s, E("1/2") - s, E("1/2")] and G.total == ONE
    assert ch.top.weight_list() == [s, ONE - s] and ch.top.total == ONE
    assert "__add__" in calls


# -- prefixes handed to extend_prefix --------------------------------------------------------


def test_extend_prefix_rejects_weight_changing_maps(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(obj("1/4", "1/4", "1/2"))
    a, b, c = ch.levels[1].cells
    for top_map in ({a: c, c: a, b: b}, {a: a, b: a, c: c}):
        sigma = AutomorphismPrefix({1: top_map})
        with pytest.raises(WeightMismatch):
            ch.extend_prefix(sigma, 3)
    assert ch.depth == 1


def test_prefix_from_json_refuses_empty_maps():
    with pytest.raises(ValueError, match="^prefix maps is empty$"):
        AutomorphismPrefix.from_json({"maps": {}})
