"""Cycle tuples: algebra, morphism search, lifts, Rokhlin decisions."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goodmeasures.cycles import (
    CycleTuple,
    TupleMorphism,
    compose_tuple_morphisms,
    dichotomy_analyze,
    divisibility_closure_check,
    exact_fill,
    find_tuple_morphism,
    identity_tuple_morphism,
    qlike_amalgamate,
    ring_product_lift,
    rokhlin_decide,
    verify_tuple_morphism,
)
from goodmeasures.errors import (
    EffortExhausted,
    MassMismatch,
    NotGroupLike,
    NotQLike,
    NotRingLike,
    PreconditionFailed,
)
from goodmeasures.values import (
    ExactValue,
    GroupDescriptor,
    INF,
    IrrationalSymbol,
    ONE,
    RationalGroup,
    ZERO,
)

from conftest import E, random_cycle_tuple, random_split, random_tuple_cospan
from oracles import sampled_closure_violations, sum_tuple_morphisms, tuple_sum_with_positions


def T(*entries):
    return CycleTuple.make([(E(w), n) for w, n in entries])


# -- morphism verification ----------------------------------------------------------


def test_verify_identity_blocks():
    c = T(("1/4", 2), ("1/4", 2))
    assert verify_tuple_morphism(identity_tuple_morphism(c), c, c)


def test_verify_merge_with_winding():
    src = T(("1/4", 2), ("1/4", 2))
    tgt = T(("1/2", 2))
    assert verify_tuple_morphism(TupleMorphism.make([[0, 1]]), src, tgt)


def test_verify_rejects_bad_winding():
    src = T(("1/3", 3))
    tgt = T(("1/2", 2))
    assert not verify_tuple_morphism(TupleMorphism.make([[0]]), src, tgt)


def test_verify_mass_guard():
    with pytest.raises(MassMismatch):
        verify_tuple_morphism(TupleMorphism.make([[0]]), T(("1/2", 1)), T(("1/2", 2)))


def test_morphism_composition_preserves_validity(rationals):
    rng = random.Random(12)
    for _ in range(30):
        A, B0, p0, _B1, _p1 = random_tuple_cospan(rng, rationals)
        # second stage: cover B0 the same way
        A2, C0, q0, _, _ = random_tuple_cospan(rng, rationals)
        if A2 != B0:
            continue
        assert verify_tuple_morphism(compose_tuple_morphisms(p0, q0), C0, A)


def test_composition_direct(rationals):
    src = T(("1/8", 2), ("1/8", 2), ("1/8", 2), ("1/8", 2))
    mid = T(("1/4", 2), ("1/4", 2))
    tgt = T(("1/2", 2))
    q = TupleMorphism.make([[0, 1], [2, 3]])
    p = TupleMorphism.make([[0, 1]])
    assert verify_tuple_morphism(q, src, mid)
    assert verify_tuple_morphism(p, mid, tgt)
    comp = compose_tuple_morphisms(p, q)
    assert verify_tuple_morphism(comp, src, tgt)


# -- bounded search --------------------------------------------------------------------


def test_find_identity():
    c = T(("1/2", 2))
    m = find_tuple_morphism(c, c)
    assert m == TupleMorphism.make([[0]])


def test_find_merge():
    m = find_tuple_morphism(T(("1/4", 2), ("1/4", 2)), T(("1/2", 2)))
    assert m is not None
    assert verify_tuple_morphism(m, T(("1/4", 2), ("1/4", 2)), T(("1/2", 2)))


def test_find_provably_absent():
    assert find_tuple_morphism(T(("1/3", 3)), T(("1/2", 2))) is None


def test_find_respects_effort():
    src = T(*(("1/8", 2) for _ in range(4)))
    tgt = T(("1/4", 2), ("1/4", 2))
    with pytest.raises(EffortExhausted):
        find_tuple_morphism(src, tgt, effort=1)
    found = find_tuple_morphism(src, tgt)
    assert found is not None
    assert verify_tuple_morphism(found, src, tgt)


_amounts = st.sampled_from(["0", "1/4", "1/3", "1/2", "1"]).map(E)
_options = st.lists(
    st.lists(st.lists(st.tuples(st.integers(0, 2), _amounts), max_size=3), max_size=3),
    max_size=5,
)


def _first_fill_by_enumeration(options, caps):
    """The lexicographically least exact choice, by listing every choice."""
    for choice in itertools.product(*(range(len(opts)) for opts in options)):
        sums = [ZERO] * len(caps)
        for opts, o in zip(options, choice):
            for b, a in opts[o]:
                sums[b] = sums[b] + a
        if sums == list(caps):
            return list(choice)
    return None


@settings(max_examples=200, deadline=None)
@given(
    raw=_options,
    picks=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    caps=st.none() | st.lists(_amounts, min_size=3, max_size=3),
)
def test_exact_fill_matches_enumeration(raw, picks, caps):
    # distinct bins per option; amounts are nonnegative, so pruning at the caps is exact
    options = [[list(dict(opt).items()) for opt in opts] for opts in raw]
    if caps is None:  # the caps of one planted choice, so that a fill often exists
        caps = [ZERO] * 3
        for opts, p in zip(options, picks):
            for b, a in opts[p % len(opts)] if opts else []:
                caps[b] = caps[b] + a
    expected = _first_fill_by_enumeration(options, caps)
    nodes = sum(math.prod(len(opts) for opts in options[: i + 1]) for i in range(len(options)))
    assert exact_fill(options, caps, nodes) == expected
    effort = 0
    while True:
        try:
            got = exact_fill(options, caps, effort)
            break
        except EffortExhausted:
            effort += 1
    assert got == expected and effort <= nodes


def _recursive_find(src, tgt, effort=10**6):
    """The recursive search that exact_fill replaced, kept as the reference;
    None both when no morphism exists and when the effort runs out."""
    m, l = len(src.entries), len(tgt.entries)
    assign = [-1] * m
    sums = [ZERO] * l
    targets = [w.scale(k) for w, k in tgt.entries]
    budget = [effort]

    def place(i):
        if i == m:
            return all(sums[j] == targets[j] for j in range(l))
        v_i, n_i = src.entries[i]
        for j in range(l):
            budget[0] -= 1
            if budget[0] < 0:
                return False
            if n_i % tgt.entries[j][1] == 0 and sums[j] + v_i.scale(n_i) <= targets[j]:
                assign[i] = j
                sums[j] = sums[j] + v_i.scale(n_i)
                if place(i + 1):
                    return True
                sums[j] = sums[j] - v_i.scale(n_i)
                assign[i] = -1
        return False

    if not place(0):
        return None
    blocks = [[] for _ in range(l)]
    for i, j in enumerate(assign):
        blocks[j].append(i)
    return TupleMorphism.make(blocks)


def _refined_tuple(rng, V, tgt):
    """A tuple that covers tgt: each target cycle split into wound pieces."""
    entries = []
    for w, k in tgt.entries:
        for part in random_split(rng, V, w.scale(k), 3):
            n = k * rng.randint(1, 3)
            entries.append((part.scale(Fraction(1, n)), n))
    return CycleTuple.make(entries)


def test_find_matches_recursive_search(rationals):
    rng = random.Random(6)
    found = absent = 0
    for _ in range(300):
        tgt = random_cycle_tuple(rng, rationals, 3)
        if rng.random() < 0.5:
            src = _refined_tuple(rng, rationals, tgt)
        else:
            src = random_cycle_tuple(rng, rationals, 5)
        expected = _recursive_find(src, tgt)
        assert find_tuple_morphism(src, tgt) == expected
        found += expected is not None
        absent += expected is None
        # effort counts only compatible placements: never more tries than before
        effort = rng.randint(1, 12)
        if _recursive_find(src, tgt, effort) is not None:
            assert find_tuple_morphism(src, tgt, effort) == expected
    assert found > 50 and absent > 50


def test_find_memory_is_linear_in_the_input():
    """300 distinct entries onto the same 300: options are built on access."""
    t = CycleTuple.make([(E(Fraction(i, 10**6)), 1) for i in range(1, 301)])
    tracemalloc.start()
    try:
        found = find_tuple_morphism(t, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10**6
    assert found == _recursive_find(t, t)


# -- ring product lift -----------------------------------------------------------------


def test_product_trivial(rationals):
    u, mc, md = ring_product_lift(rationals, T(("1", 1)), T(("1", 1)))
    assert u == T(("1", 1))


def test_product_halves(dyadic):
    u, mc, md = ring_product_lift(dyadic, T(("1/2", 2)), T(("1/2", 2)))
    assert u == T(("1/4", 4))
    assert verify_tuple_morphism(mc, u, T(("1/2", 2)))
    assert verify_tuple_morphism(md, u, T(("1/2", 2)))


def test_product_mixed(rationals):
    u, mc, md = ring_product_lift(rationals, T(("1/2", 2)), T(("1/3", 3)))
    assert u == T(("1/6", 6))


def test_product_requires_ring_like(mixed_23):
    with pytest.raises(NotRingLike):
        ring_product_lift(mixed_23, T(("1/2", 2)), T(("1/2", 2)))


def test_product_requires_full_mass(rationals):
    with pytest.raises(PreconditionFailed):
        ring_product_lift(rationals, T(("1/4", 2)), T(("1/2", 2)))


def test_product_random_always_verifies(dyadic, rationals, sixth_adic):
    rng = random.Random(23)
    for V in (dyadic, rationals, sixth_adic):
        for _ in range(20):
            c = random_cycle_tuple(rng, V, 3)
            d = random_cycle_tuple(rng, V, 3)
            u, mc, md = ring_product_lift(V, c, d)
            assert verify_tuple_morphism(mc, u, c)
            assert verify_tuple_morphism(md, u, d)
            assert u.mass == ONE


# -- Q-like amalgamation ----------------------------------------------------------------


def test_amalgamate_trivial(rationals):
    A = T(("1/2", 2))
    ident = identity_tuple_morphism(A)
    C, q0, q1 = qlike_amalgamate(rationals, A, ident, A, ident, A)
    assert C == A


def test_amalgamate_refinement_example(rationals):
    A = T(("1", 1))
    B0 = T(("1/2", 1), ("1/2", 1))
    B1 = T(("1/4", 1), ("3/4", 1))
    C, q0, q1 = qlike_amalgamate(
        rationals, B0, TupleMorphism.make([[0, 1]]), B1, TupleMorphism.make([[0, 1]]), A
    )
    assert C == T(("1/4", 1), ("1/4", 1), ("1/2", 1))
    assert verify_tuple_morphism(q0, C, B0)
    assert verify_tuple_morphism(q1, C, B1)


def test_amalgamate_winding_reduction(rationals):
    A = T(("1", 1))
    B0 = T(("1/2", 2))  # winds twice over A
    B1 = T(("1", 1))
    C, q0, q1 = qlike_amalgamate(
        rationals, B0, TupleMorphism.make([[0]]), B1, TupleMorphism.make([[0]]), A
    )
    assert C.mass == ONE
    assert verify_tuple_morphism(q0, C, B0)
    assert verify_tuple_morphism(q1, C, B1)


def test_amalgamate_requires_qlike(dyadic):
    A = T(("1", 1))
    ident = identity_tuple_morphism(A)
    with pytest.raises(NotQLike):
        qlike_amalgamate(dyadic, A, ident, A, ident, A)


def test_amalgamate_random_commuting(rationals):
    rng = random.Random(41)
    for _ in range(40):
        A, B0, p0, B1, p1 = random_tuple_cospan(rng, rationals)
        C, q0, q1 = qlike_amalgamate(rationals, B0, p0, B1, p1, A)
        assert verify_tuple_morphism(q0, C, B0)
        assert verify_tuple_morphism(q1, C, B1)
        assert compose_tuple_morphisms(p0, q0) == compose_tuple_morphisms(p1, q1)


def test_blockwise_sum_of_amalgams(rationals):
    """Componentwise amalgams assemble into an amalgam of the sums."""
    rng = random.Random(59)
    for _ in range(10):
        half = E(Fraction(1, 2))
        n1 = rng.randint(1, 2)
        A1 = CycleTuple.make([(half.scale(Fraction(1, n1)), n1)])  # mass 1/2
        A2 = CycleTuple.make([(half.scale(Fraction(1, 2)), 2)])  # mass 1/2
        parts = []
        for A in (A1, A2):
            # cover A by splitting its single cycle weight in two
            z, n = A.entries[0]
            a = z.scale(Fraction(1, 2))
            B = CycleTuple.make([(a, n), (z - a, n)])
            p = TupleMorphism.make([[0, 1]])
            assert verify_tuple_morphism(p, B, A)
            parts.append((A, B, p))
        (Aa, Ba, pa), (Ab, Bb, pb) = parts
        Ca, qa0, qa1 = qlike_amalgamate(rationals, Ba, pa, Ba, pa, Aa)
        Cb, qb0, qb1 = qlike_amalgamate(rationals, Bb, pb, Bb, pb, Ab)
        Asum, a_pos, b_pos = tuple_sum_with_positions(Aa, Ab)
        Bsum, ba_pos, bb_pos = tuple_sum_with_positions(Ba, Bb)
        Csum, ca_pos, cb_pos = tuple_sum_with_positions(Ca, Cb)
        p_sum = sum_tuple_morphisms(pa, pb, ba_pos, bb_pos, a_pos, b_pos)
        q_sum = sum_tuple_morphisms(qa0, qb0, ca_pos, cb_pos, ba_pos, bb_pos)
        assert verify_tuple_morphism(p_sum, Bsum, Asum)
        assert verify_tuple_morphism(q_sum, Csum, Bsum)
        assert verify_tuple_morphism(
            compose_tuple_morphisms(p_sum, q_sum), Csum, Asum
        )


# -- Rokhlin decisions ---------------------------------------------------------------------


def test_decide_yes_cases(dyadic, triadic, rationals, sixth_adic):
    for V in (dyadic, triadic, rationals, sixth_adic):
        verdict = rokhlin_decide(V)
        assert (verdict.strong_rokhlin, verdict.rokhlin) == ("yes", "yes")


def test_decide_no_cases(mixed_23):
    v1 = rokhlin_decide(GroupDescriptor.make(RationalGroup.make(0, {2: 3})))
    assert (v1.strong_rokhlin, v1.rokhlin) == ("no", "no")
    assert v1.certificate == {"prime": 2, "exponent": 3}
    v2 = rokhlin_decide(mixed_23)
    assert (v2.strong_rokhlin, v2.rokhlin) == ("no", "no")
    assert v2.certificate == {"prime": 3, "exponent": 1}
    v3 = rokhlin_decide(GroupDescriptor.make(RationalGroup.make(INF, {5: 2})))
    assert (v3.strong_rokhlin, v3.rokhlin) == ("no", "no")
    assert v3.certificate == {"prime": 5, "exponent": 2}


def test_decide_qlike_with_symbols(sqrt2_module):
    from conftest import sqrt2_symbol

    V = GroupDescriptor.make(
        RationalGroup.all_rationals(), {sqrt2_symbol(): RationalGroup.all_rationals()}
    )
    assert rokhlin_decide(V).strong_rokhlin == "yes"
    W = GroupDescriptor.make(
        RationalGroup.all_rationals(), {sqrt2_symbol(): RationalGroup.integers()}
    )
    verdict = rokhlin_decide(W)
    assert verdict.rokhlin == "no"
    assert verdict.certificate["non_divisible_symbol"] == "s2"
    assert rokhlin_decide(sqrt2_module).rokhlin == "unknown"


# -- divisibility closure ---------------------------------------------------------------------


def test_closure_dyadic_empty(dyadic):
    assert divisibility_closure_check(dyadic) == []


def test_closure_rationals_empty(rationals):
    assert divisibility_closure_check(rationals) == []


def test_closure_mixed_finds_nine(mixed_23):
    report = divisibility_closure_check(mixed_23)
    assert {"kind": "product", "n": 3, "exponent": 1} in report


def _closure_certified(V, violation) -> bool:
    """Check one violation by membership alone: m = n**e for a product,
    v = 1/n**f or s/n**f for a quotient."""
    n, power = violation["n"], Fraction(1, violation["n"] ** violation["exponent"])
    if violation["kind"] == "product":
        return (V.member(E(Fraction(1, n))) and V.member(E(power))
                and not V.member(E(power / n)))
    name = violation["symbol"]
    v = E(power) if name is None else ExactValue.of(0, {V.symbols()[name]: power})
    return V.member(v) and V.member(E(Fraction(1, n))) and not V.member(v.scale(Fraction(1, n)))


_S2 = IrrationalSymbol.sqrt("s2", 2, -1)
_S3 = IrrationalSymbol.sqrt("s3", 3, -1)
def _quotient(n, exponent, symbol=None):
    return {"kind": "quotient", "n": n, "exponent": exponent, "symbol": symbol}


@pytest.mark.parametrize("rational,s_group,expected", [
    # Z[1/1009]: 1/1009 is in V, 1/1009**2 is not
    (RationalGroup.make(0, {1009: 1}), None,
     [{"kind": "product", "n": 1009, "exponent": 1}, _quotient(1009, 1)]),
    # Q + Q*s with s's coefficient group stopping at 1009
    (RationalGroup.all_rationals(), RationalGroup.make(INF, {1009: 0}),
     [_quotient(1009, 0, "s2")]),
    # Z[1/2] + Z*s, Z[1/6] + Z[1/2]*s, and exponent 2 at 2 with Z[1/2]*s
    (RationalGroup.make(0, {2: INF}), RationalGroup.integers(), [_quotient(2, 0, "s2")]),
    (RationalGroup.make(0, {2: INF, 3: INF}), RationalGroup.make(0, {2: INF}),
     [_quotient(3, 0, "s2")]),
    (RationalGroup.make(0, {2: 2}), RationalGroup.make(0, {2: INF}),
     [{"kind": "product", "n": 2, "exponent": 2}, _quotient(2, 2)]),
    # the least prime listed in no table
    (RationalGroup.all_rationals(), RationalGroup.make(0, {2: INF, 3: INF}),
     [_quotient(5, 0, "s2")]),
])
def test_closure_exact_certificates(rational, s_group, expected):
    V = GroupDescriptor.make(rational, {_S2: s_group} if s_group else None)
    violations = divisibility_closure_check(V)
    assert violations == expected
    assert all(_closure_certified(V, x) for x in violations)


_closure_groups = st.builds(
    RationalGroup.make,
    st.sampled_from([0, INF]),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 1009]), st.sampled_from([0, 1, 2, INF]),
                    max_size=3),
)
_closure_descriptors = st.builds(
    lambda rational, groups: GroupDescriptor.make(rational, dict(zip((_S2, _S3), groups))),
    _closure_groups,
    st.lists(_closure_groups, max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(V=_closure_descriptors)
def test_closure_exact_covers_sampler(V):
    """Every sampled violation kind is also decided, and every decided
    violation is certified by membership.  A set that is not group-like is
    rejected, as ``rokhlin_decide`` rejects it."""
    if not V.classify().group_like:
        with pytest.raises(NotGroupLike):
            divisibility_closure_check(V)
        return
    violations = divisibility_closure_check(V)
    assert len(violations) <= 2
    assert all(_closure_certified(V, x) for x in violations)
    sampled = {x["kind"] for x in sampled_closure_violations(V, 12)}
    assert sampled <= {x["kind"] for x in violations}


@settings(max_examples=200, deadline=None)
@given(V=_closure_descriptors)
def test_closure_agrees_with_rokhlin_decide(V):
    assume(V.classify().group_like)
    verdict = rokhlin_decide(V).rokhlin
    violations = divisibility_closure_check(V)
    assert (verdict == "no") == any(x["kind"] == "quotient" for x in violations)
    if verdict == "yes":
        assert violations == []


@pytest.mark.parametrize("rational,s_group,quotient", [
    # Z[1/2] + Z*s: s/2 is not in V
    (RationalGroup.make(0, {2: INF}), RationalGroup.integers(), _quotient(2, 0, "s2")),
    # Z[1/6] + Z[1/2]*s: s/3 is not in V
    (RationalGroup.make(0, {2: INF, 3: INF}), RationalGroup.make(0, {2: INF}),
     _quotient(3, 0, "s2")),
    # exponent 2 at 2, plus Z[1/2]*s: (1/4)/2 is not in V
    (RationalGroup.make(0, {2: 2}), RationalGroup.make(0, {2: INF}), _quotient(2, 2)),
])
def test_a_quotient_violation_answers_no(rational, s_group, quotient):
    """Beyond the rational and all-rationals sets, a "no" carries the
    quotient violation that proves it."""
    verdict = rokhlin_decide(GroupDescriptor.make(rational, {_S2: s_group}))
    assert (verdict.strong_rokhlin, verdict.rokhlin) == ("no", "no")
    assert verdict.certificate == {"violation": quotient}


# -- dichotomy ------------------------------------------------------------------------------


def test_dichotomy_qlike(rationals):
    verdict = dichotomy_analyze(rationals, E("1/2"), 2, E("1/4"))
    assert verdict.kind == "strong_rokhlin_all"


def test_dichotomy_derived_example(mixed_23):
    verdict = dichotomy_analyze(mixed_23, E("1/3"), 9, E("1/12"))
    assert verdict.kind == "no_rokhlin"
    assert verdict.scale == E("3/4")
    assert verdict.scaled_descriptor.rational.exponent(2) == INF
    assert verdict.scaled_descriptor.rational.exponent(3) == 2
    assert verdict.violation == {"kind": "quotient", "v": {"q": "4/9"}, "n": 9}


def test_dichotomy_from_the_quotient_violation(mixed_23):
    # v = 1/3 and n = 3; the first value listed in [1/9, 1/3] is 1/3
    verdict = dichotomy_analyze(mixed_23)
    assert verdict.kind == "no_rokhlin" and verdict.scale == E("1")
    assert verdict.violation == {"kind": "quotient", "v": {"q": "1/3"}, "n": 3}


def test_dichotomy_from_the_least_prime_of_finite_exponent(dyadic):
    # no quotient violation: n = 3, the least prime of exponent 0; b = 1/2,
    # the first value below 1 whose third is not in V; c = 1/4, the first in
    # [1/6, 1/3].  The dyadic set has the Rokhlin property; its scale by 4/3
    # is mixed_23, which has not.
    verdict = dichotomy_analyze(dyadic)
    assert verdict.kind == "no_rokhlin" and verdict.scale == E("3/4")
    assert verdict.violation == {"kind": "quotient", "v": {"q": "2/3"}, "n": 3}
    assert verdict.scaled_descriptor.rational.exponent(3) == 1


def test_dichotomy_from_v_alone_on_a_q_like_set(rationals):
    assert dichotomy_analyze(rationals).kind == "strong_rokhlin_all"


def test_dichotomy_precondition_failures(mixed_23):
    with pytest.raises(PreconditionFailed) as err:
        dichotomy_analyze(mixed_23, E("1/9"), 9, E("1/12"))
    assert err.value.check == "b in V"
    with pytest.raises(PreconditionFailed) as err:
        dichotomy_analyze(mixed_23, E("1/3"), 2, E("1/4"))
    assert err.value.check == "b/n not in V"
    with pytest.raises(PreconditionFailed) as err:
        dichotomy_analyze(mixed_23, E("1/3"), 9, E("1/9"))
    assert err.value.check == "c in V"


# -- decision consistency -----------------------------------------------------------------------


def test_yes_verdicts_back_up_with_lifts(dyadic, sixth_adic, rationals):
    rng = random.Random(71)
    for V in (dyadic, sixth_adic, rationals):
        assert rokhlin_decide(V).rokhlin == "yes"
        for _ in range(10):
            c = random_cycle_tuple(rng, V, 3)
            d = random_cycle_tuple(rng, V, 3)
            u, mc, md = ring_product_lift(V, c, d)
            assert verify_tuple_morphism(mc, u, c)


def test_no_verdicts_back_up_with_violations(mixed_23):
    for V in (GroupDescriptor.make(RationalGroup.make(0, {2: 3})), mixed_23):
        assert rokhlin_decide(V).rokhlin == "no"
        assert divisibility_closure_check(V)


# -- canonical form (hypothesis) ------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.fractions(min_value="1/64", max_value=1, max_denominator=64),
                  st.integers(1, 4)),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**16),
)
def test_canonical_sorting_is_order_independent(data, seed):
    entries = [(E(w), n) for w, n in data]
    shuffled = list(entries)
    random.Random(seed).shuffle(shuffled)
    assert CycleTuple.make(entries) == CycleTuple.make(shuffled)
