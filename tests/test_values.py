"""Exact values, group descriptors, membership, classification, scaling."""

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodmeasures import jsonutil
from goodmeasures.chain import GoodMeasureChain
from goodmeasures.errors import NonRationalScale, NotInV, PrecisionExhausted
from goodmeasures.values import (
    INF,
    ExactValue,
    GroupDescriptor,
    IrrationalSymbol,
    ONE,
    PackedValues,
    RationalGroup,
    ZERO,
    check_all_in,
)

from conftest import E, alpha_module, sqrt2_symbol, sqrt2_unit_power
from oracles import floor_by_enclosures, index_sums_to_one, unpack, values_by_filter


# -- membership -------------------------------------------------------------


def test_member_triadic_third(triadic):
    assert triadic.member(E(Fraction(1, 3)))


def test_member_endpoints(dyadic, triadic, rationals):
    for V in (dyadic, triadic, rationals):
        assert V.member(ZERO)
        assert V.member(ONE)


def test_member_mixed_valuations(mixed_23):
    assert mixed_23.member(E(Fraction(1, 6)))
    assert not mixed_23.member(E(Fraction(1, 9)))


def test_member_bounds(dyadic):
    assert not dyadic.member(E(Fraction(3, 2)))
    assert not dyadic.member(E(Fraction(-1, 2)))


def test_member_cross_checked_by_enumeration(mixed_23):
    """Valuation test against brute-force: denominators are powers of two
    times at most one factor of three."""
    group = mixed_23.rational
    for den in range(1, 40):
        for num in range(0, den + 1):
            q = Fraction(num, den)
            d = q.denominator
            while d % 2 == 0:
                d //= 2
            assert group.contains(q) == (d in (1, 3))


# -- classification -----------------------------------------------------------


def test_classify_dyadic(dyadic):
    cls = dyadic.classify()
    assert cls.group_like and not cls.q_like and cls.ring_like is True


def test_classify_rationals(rationals):
    cls = rationals.classify()
    assert cls.group_like and cls.q_like and cls.ring_like is True


def test_classify_finite_exponent_not_ring_like():
    V = GroupDescriptor.make(RationalGroup.make(0, {2: 3}))
    assert V.classify().ring_like is False


def test_classify_irrational_ring_like_undecided(sqrt2_module):
    cls = sqrt2_module.classify()
    assert cls.group_like and not cls.q_like and cls.ring_like is None


def test_trivial_group_never_infinite():
    V = GroupDescriptor.make(RationalGroup.integers())
    assert not V.classify().group_like


# -- enumeration ---------------------------------------------------------------


def test_enumerate_dyadic_budget4(dyadic):
    got = dyadic.enumerate_values(4)
    for q in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1)):
        assert E(q) in got


def test_enumerate_contains_one(dyadic, triadic, rationals, sqrt2_module):
    for V in (dyadic, triadic, rationals, sqrt2_module):
        assert ONE in V.enumerate_values(1)


def test_enumerate_sqrt2_module(sqrt2_module):
    got = sqrt2_module.enumerate_values(1)
    s = sqrt2_symbol()
    assert E(0, {s: 1}) in got
    assert E(1, {s: -1}) in got


def test_enumerate_prefix_stable(dyadic, rationals, sqrt2_module):
    for V in (dyadic, rationals, sqrt2_module):
        small = V.enumerate_values(3)
        big = V.enumerate_values(5)
        assert big[: len(small)] == small


def test_enumerate_duplicate_free(rationals):
    got = rationals.enumerate_values(6)
    assert len(got) == len(set(got))


# -- scaling --------------------------------------------------------------------


def test_scale_dyadic_by_half_is_dyadic(dyadic):
    scaled = dyadic.scale_value_set(E(Fraction(1, 2)))
    assert scaled.rational == dyadic.rational


def test_scale_identity(mixed_23):
    assert mixed_23.scale_value_set(ONE).rational == mixed_23.rational


def test_scale_mixed_by_third(mixed_23):
    scaled = mixed_23.scale_value_set(E(Fraction(1, 3)))
    assert scaled.rational.exponent(2) == INF
    assert scaled.rational.exponent(3) == 0


@pytest.mark.parametrize(
    "exceptions,a",
    [
        ({2: INF}, Fraction(1, 2)),
        ({2: INF, 3: 1}, Fraction(1, 3)),
        ({2: INF, 3: 1}, Fraction(3, 4)),
        ({3: INF}, Fraction(2, 3)),
        ({2: 2, 5: INF}, Fraction(3, 4)),
    ],
)
def test_scale_against_brute_force_oracle(exceptions, a):
    """The exponent-shift formula must agree with direct membership of v/a."""
    V = GroupDescriptor.make(RationalGroup.make(0, exceptions))
    scaled = V.scale_value_set(E(a))
    for den in range(1, 30):
        for num in range(0, den + 1):
            q = Fraction(num, den)
            brute = V.rational.contains(q * a)  # v = q*a must be in G
            assert scaled.rational.contains(q) == brute, (q, a, exceptions)


def test_scale_requires_rational(sqrt2_module, dyadic):
    s = sqrt2_symbol()
    with pytest.raises(NonRationalScale):
        sqrt2_module.scale_value_set(E(0, {s: 1}))
    with pytest.raises(NonRationalScale):
        sqrt2_module.scale_value_set(ONE)
    with pytest.raises(NotInV):
        dyadic.scale_value_set(E(Fraction(1, 3)))


def test_scale_round_trip(mixed_23):
    a = E(Fraction(3, 4))
    scaled = mixed_23.scale_value_set(a)
    for v in scaled.enumerate_values(5):
        assert mixed_23.in_group(v * a)


# -- arithmetic and comparisons ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(max_denominator=50),
    b=st.fractions(max_denominator=50),
    c=st.fractions(max_denominator=50),
)
def test_rational_arithmetic_laws(a, b, c):
    x, y, z = E(a), E(b), E(c)
    assert (x + y) - y == x
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x.scale(2) == x + x


def test_group_closure_from_enumeration(dyadic, triadic, sqrt2_module):
    for V in (dyadic, triadic, sqrt2_module):
        values = V.enumerate_values(3)
        for v in values:
            for w in values:
                s = v + w
                if (s - ONE).sign() <= 0:
                    assert V.member(s)
                if (v - w).sign() >= 0:
                    assert V.member(v - w)


def test_comparison_matches_enclosure_midpoints(sqrt2_module):
    rng = random.Random(7)
    values = sqrt2_module.enumerate_values(4)
    for _ in range(100):
        v, w = rng.choice(values), rng.choice(values)
        lo_v, hi_v = v.interval(64)
        lo_w, hi_w = w.interval(64)
        mid_v, mid_w = (lo_v + hi_v) / 2, (lo_w + hi_w) / 2
        s = (v - w).sign()
        if v == w:
            assert s == 0
        else:
            assert s == (1 if mid_v > mid_w else -1)


def test_ring_like_closed_under_sampled_products(dyadic, sixth_adic):
    rng = random.Random(11)
    for V in (dyadic, sixth_adic):
        assert V.classify().ring_like is True
        values = V.enumerate_values(6)
        for _ in range(100):
            v, w = rng.choice(values), rng.choice(values)
            prod = v * w
            if (prod - ONE).sign() <= 0:
                assert V.member(prod)


def test_sign_structural_zero_fast():
    s = sqrt2_symbol()
    v = E(Fraction(1, 3), {s: Fraction(2, 5)})
    assert (v - v).sign() == 0


def test_symbol_in_unit_interval_required():
    with pytest.raises(ValueError):
        IrrationalSymbol.sqrt("big", 2, 1)  # sqrt(2)+1 > 1


# -- serialisation ----------------------------------------------------------------


def test_descriptor_json_round_trip(mixed_23, sqrt2_module):
    for V in (mixed_23, sqrt2_module):
        again = GroupDescriptor.from_json(V.to_json())
        assert again.to_json() == V.to_json()
        assert again.rational == V.rational


def test_exact_value_json_round_trip():
    V = alpha_module()
    sym = V.symbols()["alpha"]
    v = E(Fraction(1, 3), {sym: Fraction(-2, 7)})
    data = v.to_json()
    assert data == {"q": "1/3", "irr": {"alpha": "-2/7"}}
    assert ExactValue.from_json(data, V.symbols()) == v


# -- the comparison kernel against exact oracles ------------------------------


def _sqrt2_sign(x: Fraction, y: Fraction) -> int:
    """sign(x + y*sqrt(2)) from squares alone."""
    if x >= 0 and y >= 0:
        return int(x > 0 or y > 0)
    if x <= 0 and y <= 0:
        return -1
    d = x * x - 2 * y * y  # nonzero: sqrt(2) is irrational
    return (1 if d > 0 else -1) if x > 0 else (1 if d < 0 else -1)


def _sqrt2_convergents(max_q: int) -> list[Fraction]:
    """Convergents p/q of sqrt(2) (p^2 - 2q^2 = ±1) up to denominator max_q."""
    p, q, out = 1, 1, []
    while q <= max_q:
        out.append(Fraction(p, q))
        p, q = p + 2 * q, p + q
    return out


@settings(max_examples=150, deadline=None)
@given(a=st.fractions(max_denominator=10**6), b=st.fractions(max_denominator=10**6))
def test_sign_matches_squares_oracle(a, b):
    s = sqrt2_symbol()  # sqrt(2) - 1
    v = E(a, {s: b})
    expected = _sqrt2_sign(a - b, b)
    assert v.sign() == expected
    assert v.sign() == expected  # memoised
    assert (v - ONE).sign() == _sqrt2_sign(a - b - 1, b) == v._cmp(1)


def test_sign_near_sqrt2_convergents():
    """p/q - sqrt(2) is about 1/q^2: q near 2**40 needs some 80 bits, not 16."""
    s = sqrt2_symbol()
    convergents = _sqrt2_convergents(1 << 41)
    assert convergents[-1].denominator > 1 << 40
    for c in convergents:
        for shift in (0, Fraction(1, c.denominator**2 * 4), -Fraction(1, c.denominator**2 * 4)):
            r = c + shift
            v = E(1 - r, {s: 1})  # sqrt(2) - r
            assert v.sign() == _sqrt2_sign(-r, Fraction(1))
            assert E(r - 1, {s: -1}).sign() == -v.sign()
            assert v._cmp(Fraction(1, 2)) == _sqrt2_sign(-r - Fraction(1, 2), Fraction(1))


_s2 = IrrationalSymbol.sqrt("s2", 2, -1)
_s3 = IrrationalSymbol.sqrt("s3", 3, -1)
_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(q1=_small, a1=_small, b1=_small, q2=_small, a2=_small, b2=_small)
# the difference cancels s2, the sum cancels s3
@example(q1=Fraction(1, 3), a1=Fraction(1, 2), b1=1, q2=Fraction(1, 6), a2=Fraction(1, 2), b2=-1)
# only the right operand has symbols
@example(q1=Fraction(1, 2), a1=0, b1=0, q2=Fraction(1, 6), a2=Fraction(1, 2), b2=-1)
def test_combine_matches_dict_construction(q1, a1, b1, q2, a2, b2):
    v = ExactValue.of(q1, {_s2: a1, _s3: b1})
    # equal-named copies of the symbols: a sum keeps the left operand's objects
    s2, s3 = IrrationalSymbol.sqrt("s2", 2, -1), IrrationalSymbol.sqrt("s3", 3, -1)
    w = ExactValue.of(q2, {s2: a2, s3: b2})
    for sign, got in ((1, v + w), (-1, v - w)):
        want = ExactValue.of(q1 + sign * q2, {_s2: a1 + sign * a2, _s3: b1 + sign * b2})
        assert got == want and got.coeffs == want.coeffs
        assert all(c != 0 for _, c in got.coeffs)
        assert [s.name for s, _ in got.coeffs] == sorted(s.name for s, _ in got.coeffs)
        for s, _ in got.coeffs:
            assert s is ({"s2": _s2, "s3": _s3} if v.coeff(s) else {"s2": s2, "s3": s3})[s.name]
    assert (v - v).coeffs == () and (v + -v) == E(0)


def _factor_contains(group: RationalGroup, q: Fraction) -> bool:
    d, p = q.denominator, 2
    while d > 1:
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        if k > group.exponent(p):
            return False
        p += 1
    return True


@settings(max_examples=80, deadline=None)
@given(
    default=st.sampled_from([0, INF]),
    exceptions=st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11]), st.one_of(st.integers(0, 3), st.just(INF))
    ),
    nums=st.lists(st.integers(-50, 50), min_size=1, max_size=5),
    dens=st.lists(st.integers(1, 3000), min_size=1, max_size=5),
)
def test_contains_matches_factoring_oracle(default, exceptions, nums, dens):
    group = RationalGroup.make(default, exceptions)
    for n in nums:
        for d in dens:
            q = Fraction(n, d)
            assert group.contains(q) == _factor_contains(group, q), (group, q)


def test_memoised_sign_is_invisible():
    s = sqrt2_symbol()
    v = E(Fraction(1, 3), {s: Fraction(2, 5)})
    assert v.sign() == 1
    assert v._sign == 1
    fresh = E(Fraction(1, 3), {s: Fraction(2, 5)})
    assert fresh._sign is None
    assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
    assert v.to_json() == fresh.to_json()
    assert jsonutil.dumps(v.to_json()) == jsonutil.dumps(fresh.to_json())
    assert {fresh: "x"}[v] == "x"
    assert not v < fresh and v <= fresh and (v - fresh).sign() == 0
    assert v.sort_key() == fresh.sort_key()


# -- enumeration by height layers -----------------------------------------------


def _brute_values(V: GroupDescriptor, budget: int) -> list[ExactValue]:
    """V ∩ (0,1] up to the given height, from all components of height <= budget."""

    def comps(group, negative):
        return {
            Fraction(n, d)
            for d in range(1, budget + 1)
            for n in range(-budget if negative else 0, budget + 1)
            if group.contains(Fraction(n, d))
        }

    symbols = [s for s, _ in V.irr]
    tuples = [[q] for q in comps(V.rational, bool(symbols))]
    for _, g in V.irr:
        tuples = [t + [c] for t in tuples for c in comps(g, True)]
    out = {ExactValue.of(t[0], dict(zip(symbols, t[1:]))) for t in tuples}
    out = [v for v in out if v.height() <= budget and ZERO < v <= ONE]
    return sorted(out, key=lambda v: (v.height(), v.sort_key()))


def _doubling_smallest_below(V: GroupDescriptor, w: ExactValue) -> ExactValue:
    budget = 2
    while True:
        for v in _brute_values(V, budget):
            if v < w:
                return v
        budget *= 2


@pytest.mark.parametrize("name", ["rationals", "dyadic", "triadic", "sqrt2_module"])
def test_enumeration_and_smallest_below_match_doubling(name, request):
    V = request.getfixturevalue(name)
    for budget in range(1, 6):
        assert V.enumerate_values(budget) == _brute_values(V, budget)
    targets = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 9), Fraction(5, 17)]
    if not V.is_purely_rational:
        s = sqrt2_symbol()
        targets = [E(q) for q in targets] + [E(0, {s: 1}), E(Fraction(1, 2), {s: -1})]
    else:
        targets = [E(q) for q in targets]
    for w in targets:
        assert V.smallest_below(w) == _doubling_smallest_below(V, w), w


#: pi - 3 to 50 decimal places: a ``digits`` symbol that decides every
#: comparison the tests make, and a prefix of it too short to decide any
_PI_DIGITS = "14159265358979323846264338327950288419716939937510"


def _digits_descriptor() -> GroupDescriptor:
    dyadic = RationalGroup.make(0, {2: INF})
    return GroupDescriptor.make(dyadic, {IrrationalSymbol.digits("p", 10, _PI_DIGITS): dyadic})


@pytest.mark.parametrize("name", ["rationals", "sqrt2_dyadic", "two_symbol", "digits"])
def test_enumeration_matches_the_build_then_filter_loop(name, request):
    """Bounds decided on integer coordinates keep the values, and the order,
    that building every candidate and filtering it kept."""
    V = _digits_descriptor() if name == "digits" else request.getfixturevalue(name)
    for budget in range(1, 5):
        assert V.enumerate_values(budget) == values_by_filter(V, budget)


def test_enumeration_keeps_the_sign_it_decided(sqrt2_dyadic):
    """A kept irrational value starts with its sign known, and it is right."""
    values = sqrt2_dyadic.enumerate_values(4)
    irrational = [v for v in values if v.syms]
    assert irrational and all(v._sign == 1 for v in irrational)
    assert all(v.interval(64)[0] > 0 for v in irrational)


_symbol_specs = st.sampled_from([
    ("sqrt", "s2", 2), ("sqrt", "s3", 3), ("sqrt", "s5", 5),
    ("digits", "p", _PI_DIGITS), ("digits", "q", _PI_DIGITS[:4]),
])


@st.composite
def _descriptors(draw) -> GroupDescriptor:
    """A descriptor with up to two symbols, ``sqrt`` or ``digits``; the
    4-digit ``q`` leaves every comparison it enters undecided."""
    def group():
        exponents = {p: draw(st.sampled_from([0, 1, 2, INF])) for p in (2, 3)}
        return RationalGroup.make(draw(st.sampled_from([0, INF])), exponents)

    specs = draw(st.lists(_symbol_specs, max_size=2, unique_by=lambda spec: spec[1]))
    irr = {}
    for kind, name, arg in specs:
        if kind == "sqrt":
            symbol = IrrationalSymbol.sqrt(name, arg, -math.isqrt(arg))
        else:
            symbol = IrrationalSymbol.digits(name, 10, arg)
        irr[symbol] = group()
    rational = group()
    if rational.is_trivial and not irr:
        rational = RationalGroup.make(0, {2: INF})
    return GroupDescriptor.make(rational, irr)


@settings(max_examples=60, deadline=None)
@given(V=_descriptors(), budget=st.integers(1, 3), deeper=st.booleans())
def test_enumeration_matches_the_loop_on_drawn_descriptors(V, budget, deeper):
    """The listing is the build-then-filter loop's, and the mass-1 tuples of
    height 1 are the oracle's, also when the descriptor has listed a greater
    height first: what it keeps holds every prefix."""
    want = _outcome(values_by_filter, V, budget)
    if deeper:
        _outcome(V.enumerate_values, budget + 1)
        _outcome(V.mass_one_tuples, 2)
    assert _outcome(V.enumerate_values, budget) == want
    listed = _outcome(V.enumerate_values, 2)
    if isinstance(listed, list):
        oracle = _outcome(lambda: list(index_sums_to_one(listed, 0, ZERO, 2)))
        assert _outcome(V.mass_one_tuples, 1) == oracle


def test_streaming_searches_leave_the_listing_as_it_was():
    """``smallest_below`` and ``first_listed`` stream the layers: a search
    deeper than the descriptor has listed keeps none of what it met."""
    V = GroupDescriptor.make(RationalGroup.integers(), {sqrt2_symbol(): RationalGroup.integers()})
    listed = V.enumerate_values(2)
    small = V.smallest_below(E(Fraction(1, 9)))
    a, b = sqrt2_unit_power(3)
    assert small.height() > 2 and small == E(a, {sqrt2_symbol(): b})
    assert V.first_listed(lambda v: v < small, 64).height() > small.height()
    assert V._listing.ends == [len(V.enumerate_values(1)), len(listed)]
    assert V._listing.values == listed


def test_equal_descriptors_keep_listings_of_their_own():
    """Symbols compare by name, so descriptors over sqrt(2) - 1 and
    sqrt(3) - 1 under one name are equal and hash equal.  Each still lists
    its own values and mass-1 tuples after the other has filled its memo,
    and their schedules differ: nothing is looked up by ``==`` or hash."""
    dyadic = RationalGroup.make(0, {2: INF})
    V2, V3 = (
        GroupDescriptor.make(dyadic, {IrrationalSymbol.sqrt("s", d, -1): dyadic}) for d in (2, 3)
    )
    assert V2 == V3 and hash(V2) == hash(V3)
    listed2, tuples2 = V2.enumerate_values(3), V2.mass_one_tuples(2)
    schedule2 = GoodMeasureChain(V2).run_schedule(2)
    listed3, tuples3 = V3.enumerate_values(3), V3.mass_one_tuples(2)
    assert listed2 == values_by_filter(V2, 3) and listed3 == values_by_filter(V3, 3)
    assert listed3 != listed2
    assert all(s is V3.irr[0][0] for v in listed3 for s in v.syms)
    assert tuples3 == list(index_sums_to_one(listed3, 0, ZERO, 3)) != tuples2
    schedule3 = GoodMeasureChain(V3).run_schedule(2)
    assert schedule3.depth != schedule2.depth
    assert schedule3.to_text() != schedule2.to_text()


@settings(max_examples=80, deadline=None)
@given(V=_descriptors(), seed=st.integers(0, 2**32 - 1), room=st.integers(1, 5))
def test_packed_above_one_matches_unpacking(V, seed, room):
    """The sign of a packed sum minus 1 says what unpacking the sum and
    comparing with 1 says, and what adding the values and comparing says;
    the table has room for the sum and the 1."""
    values = _outcome(V.enumerate_values, 4)
    if not isinstance(values, list):  # a digits symbol left a bound undecided
        return
    rng = random.Random(seed)
    pool = rng.sample(values, min(len(values), 12))
    pv = PackedValues(pool, room + 1)
    for _ in range(20):
        picked = [rng.randrange(len(pool)) for _ in range(rng.randint(1, room))]
        p = sum(pv.packed[i] for i in picked)
        total = sum([pool[i] for i in picked[1:]], pool[picked[0]])
        assert unpack(pv, p) == total
        want = _outcome(lambda: total > ONE)
        above = _outcome(lambda: pv.sign(p - pv.one) > 0)
        assert above == _outcome(lambda: unpack(pv, p) > ONE) == want


def test_pack_refuses_a_value_wider_than_a_slot():
    """A coordinate too wide for its slot would carry into the next one, so
    its int could be another value's: ``pack`` refuses it, records nothing,
    and the other value still reads back as itself."""
    s = sqrt2_symbol()
    pv = PackedValues([E("1/2"), E(0, {s: "1/2"}), E(1)], 1)
    wide = E(1 << (pv.width - 1), {s: 1})  # its rational coordinate overflows the slot
    assert pv.pack(wide) is None and pv.room == 1
    narrow = E(0, {s: "3/2"})  # packed with the carry, wide would be this int
    assert unpack(pv, pv.pack(narrow)) == pv.unpack(pv.pack(narrow)) == narrow


# -- descriptors: dependent symbols and inexact integers ---------------------------


@pytest.mark.parametrize("m,n", [(2, 8), (12, 27), (3, 75)])
def test_dependent_sqrt_symbols_rejected(m, n):
    a, b = (IrrationalSymbol.sqrt(name, r, -math.isqrt(r)) for name, r in (("a", m), ("b", n)))
    with pytest.raises(ValueError, match="rationally dependent"):
        GroupDescriptor.make(RationalGroup.integers(), {a: RationalGroup.integers(),
                                                        b: RationalGroup.integers()})


def test_independent_sqrt_symbols_accepted():
    syms = [IrrationalSymbol.sqrt(f"r{n}", n, -math.isqrt(n)) for n in (2, 3, 6, 10)]
    V = GroupDescriptor.make(RationalGroup.integers(), {s: RationalGroup.integers() for s in syms})
    assert len(V.irr) == 4


@pytest.mark.parametrize(
    "data",
    [
        {"rational": {"default": "0", "exceptions": {"2": 2.5}}, "irrationals": []},
        {"rational": {"default": "0", "exceptions": {"2": True}}, "irrationals": []},
        {"rational": {"default": "0", "exceptions": {}}, "irrationals": [
            {"name": "a", "group": {"default": "0", "exceptions": {}},
             "enclosure": {"kind": "sqrt", "radicand": 2.9, "shift": "-1"}}]},
        {"rational": {"default": "0", "exceptions": {}}, "irrationals": [
            {"name": "a", "group": {"default": "0", "exceptions": {}},
             "enclosure": {"kind": "digits", "base": 10.0, "digits": "4142"}}]},
    ],
)
def test_descriptor_integer_fields_reject_floats(data):
    with pytest.raises(TypeError, match="inexact number"):
        GroupDescriptor.from_json(data)


def test_loads_rejects_json_floats():
    with pytest.raises(TypeError, match="inexact number 2.5"):
        jsonutil.loads('{"exceptions": {"2": 2.5}}')
    assert jsonutil.loads('{"q": "1/2", "n": 3}') == {"q": "1/2", "n": 3}


def test_digit_enclosures_use_the_fewest_digits():
    for base, digits in ((2, "1011" * 30), (3, "2102" * 20), (10, "4142135623" * 8), (36, "zq9" * 9), (10, "41")):
        oracle = IrrationalSymbol.digits("d", base, digits).enclosure
        for k in range(0, 120):
            n = 1
            while base**n < 1 << k and n < len(digits):
                n += 1
            if base**n < 1 << k:
                with pytest.raises(PrecisionExhausted):
                    oracle(k)
                continue
            lo = Fraction(int(digits[:n], base), base**n)
            assert oracle(k) == (lo, lo + Fraction(1, base**n))


# -- the order operators ---------------------------------------------------------

_ORDER_OPS = [
    (operator.lt, lambda s: s < 0),
    (operator.le, lambda s: s <= 0),
    (operator.gt, lambda s: s > 0),
    (operator.ge, lambda s: s >= 0),
]
_coef = st.one_of(st.just(Fraction(0)), _small)


def _s2_value(q: Fraction, c: Fraction) -> ExactValue:
    """q + c*(sqrt(2) - 1), which is (q - c) + c*sqrt(2)."""
    return E(q, {_s2: c})


def _assert_order(v, w, x: Fraction, y: Fraction) -> None:
    """All four operators on (v, w) against the oracle sign(v - w) = sign(x + y*sqrt(2))."""
    s = _sqrt2_sign(x, y)
    for op, expected in _ORDER_OPS:
        assert op(v, w) is expected(s), (op.__name__, v, w)
        assert op(w, v) is expected(-s), (op.__name__, w, v)


@settings(max_examples=300, deadline=None)
@given(q1=_small, c1=_coef, q2=_small, c2=_coef, alias=st.sampled_from(["no", "same", "copy"]))
@example(q1=Fraction(1, 2), c1=Fraction(0), q2=Fraction(1, 3), c2=Fraction(0), alias="no")
@example(q1=Fraction(1, 2), c1=Fraction(0), q2=Fraction(1, 2), c2=Fraction(1), alias="no")
@example(q1=Fraction(1), c1=Fraction(1), q2=Fraction(1), c2=Fraction(1), alias="no")
@example(q1=Fraction(1), c1=Fraction(1), q2=Fraction(1, 2), c2=Fraction(1), alias="no")
@example(q1=Fraction(0), c1=Fraction(1), q2=Fraction(1), c2=Fraction(-1), alias="no")
@example(q1=Fraction(1), c1=Fraction(1), q2=Fraction(0), c2=Fraction(0), alias="same")
@example(q1=Fraction(1, 3), c1=Fraction(0), q2=Fraction(0), c2=Fraction(0), alias="copy")
def test_order_operators_match_squares_oracle(q1, c1, q2, c2, alias):
    v = _s2_value(q1, c1)
    if alias == "same":
        w, q2, c2 = v, q1, c1
    elif alias == "copy":
        w, q2, c2 = _s2_value(q1, c1), q1, c1
        assert w is not v and w == v
    else:
        w = _s2_value(q2, c2)
    # rational/rational, rational/irrational both ways, irrational/irrational
    _assert_order(v, w, (q1 - c1) - (q2 - c2), c1 - c2)
    # the constants, which the engine compares against most
    _assert_order(v, ZERO, q1 - c1, c1)
    _assert_order(v, ONE, q1 - c1 - 1, c1)
    _assert_order(v, E(Fraction(1, 2)), q1 - c1 - Fraction(1, 2), c1)


def _fresh_sort_key(v: ExactValue):
    """``sort_key`` read off the Fraction views, with no memo."""
    q = v.rational
    return q.numerator, q.denominator, tuple((s.name, c.numerator, c.denominator)
                                             for s, c in v.coeffs)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.tuples(_small, _coef), min_size=1, max_size=8))
@example(pool=[(Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1)),
               (Fraction(1, 2), Fraction(-1))])
def test_memoised_sort_key_matches_a_fresh_computation(pool):
    values = [_s2_value(q, c) for q, c in pool] + [E(q) for q, _ in pool]
    values += [-v for v in values] + [v + v for v in values]
    for v in values:
        key = v.sort_key()
        assert v.sort_key() is key
        assert key == _fresh_sort_key(v) == ExactValue(v.den, v.nums, v.syms).sort_key()
    assert sorted(values, key=ExactValue.sort_key) == sorted(values, key=_fresh_sort_key)


def test_order_operators_near_sqrt2_convergents():
    root2 = _s2_value(Fraction(1), Fraction(1))
    for c in _sqrt2_convergents(1 << 41):
        _assert_order(root2, E(c), -c, Fraction(1))
        _assert_order(root2 - E(c), ZERO, -c, Fraction(1))


def _cmp_sort(items, descending=False):
    """The former exact-comparison sort of (cell, weight) items, kept as reference."""

    def cmp(a, b) -> int:
        s = (a[1] - b[1]).sign()
        return -s if descending else s

    return sorted(items, key=functools.cmp_to_key(cmp))


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(st.tuples(_small, _coef), min_size=1, max_size=4),
    picks=st.lists(st.integers(min_value=0, max_value=3), max_size=14),
)
def test_weight_sort_matches_cmp_sort(pool, picks):
    # few distinct weights, so most lists repeat some; each item gets its own
    # (equal but distinct) value object
    items = [(f"c{i}", _s2_value(*pool[k % len(pool)])) for i, k in enumerate(picks)]
    for descending in (False, True):
        got = sorted(items, key=itemgetter(1), reverse=descending)
        assert [c for c, _ in got] == [c for c, _ in _cmp_sort(items, descending)]


# -- the integer kernel against the former Fraction-based ExactValue -------------------


@dataclass(frozen=True)
class _FractionValue:
    """The former ``ExactValue``: Fraction fields, compared by stepping one bit a round.

    Kept as the reference for the integer kernel; its enclosures come from
    ``IrrationalSymbol.enclosure``.
    """

    rational: Fraction = Fraction(0)
    coeffs: tuple = ()

    @staticmethod
    def of(q, coeffs=None) -> "_FractionValue":
        items = tuple(
            sorted((s, Fraction(c)) for s, c in (coeffs or {}).items() if Fraction(c) != 0)
        )
        return _FractionValue(Fraction(q), items)

    def _combine(self, other, sign):
        q = self.rational + other.rational if sign > 0 else self.rational - other.rational
        if not other.coeffs:
            return _FractionValue(q, self.coeffs)
        if not self.coeffs and sign > 0:
            return _FractionValue(q, other.coeffs)
        a, b = self.coeffs, other.coeffs
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            s, c = a[i]
            t, d = b[j]
            if s.name == t.name:
                x = c + d if sign > 0 else c - d
                if x:
                    out.append((s, x))
                i += 1
                j += 1
            elif s.name < t.name:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j] if sign > 0 else (t, -d))
                j += 1
        out.extend(a[i:])
        out.extend(b[j:] if sign > 0 else ((t, -d) for t, d in b[j:]))
        return _FractionValue(q, tuple(out))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _FractionValue.of(-self.rational, {s: -c for s, c in self.coeffs})

    def scale(self, k):
        k = Fraction(k)
        return _FractionValue.of(self.rational * k, {s: c * k for s, c in self.coeffs})

    def interval(self, bits):
        lo = hi = self.rational
        for s, c in self.coeffs:
            slo, shi = s.enclosure(bits)
            if c < 0:
                slo, shi = shi, slo
            lo, hi = lo + c * slo, hi + c * shi
        return lo, hi

    def _cmp(self, r) -> int:
        if not self.coeffs:
            return (self.rational > r) - (self.rational < r)
        bits = 16
        while bits <= 4096:
            lo, hi = self.interval(bits)
            if lo > r:
                return 1
            if hi < r:
                return -1
            bits += 1
        raise ArithmeticError(
            "sign undecided at maximal precision; are the declared symbols "
            "really independent of 1 over the rationals?"
        )

    def sign(self) -> int:
        return self._cmp(0)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def sort_key(self):
        return (
            self.rational.numerator,
            self.rational.denominator,
            tuple((s.name, c.numerator, c.denominator) for s, c in self.coeffs),
        )

    def to_json(self) -> dict:
        out = {"q": _fmt(self.rational)}
        if self.coeffs:
            out["irr"] = {s.name: _fmt(c) for s, c in self.coeffs}
        return out

    def __str__(self):
        parts = []
        if self.rational or not self.coeffs:
            parts.append(_fmt(self.rational))
        for s, c in self.coeffs:
            parts.append(f"{_fmt(c)}*{s.name}")
        return " + ".join(parts)


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ref_member(V: GroupDescriptor, v: _FractionValue) -> tuple[bool, bool]:
    """(in_group, member) of the reference value, groups tested by factoring."""
    groups = {s.name: g for s, g in V.irr}
    in_group = _factor_contains(V.rational, v.rational) and all(
        s.name in groups and _factor_contains(groups[s.name], c) for s, c in v.coeffs
    )
    return in_group, in_group and v.sign() >= 0 and v._cmp(1) <= 0


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ArithmeticError, PrecisionExhausted, ValueError, TypeError) as e:
        return type(e), str(e)


def _assert_same(v: ExactValue, ref: _FractionValue) -> None:
    assert v.rational == ref.rational
    assert v.coeffs == ref.coeffs
    # the same symbol objects, not only equal names
    assert all(s is t for (s, _), (t, _) in zip(v.coeffs, ref.coeffs))
    assert v.sort_key() == ref.sort_key()
    assert jsonutil.dumps(v.to_json()) == jsonutil.dumps(ref.to_json())
    assert str(v) == str(ref)
    assert v.is_rational == (not ref.coeffs)


_kernel_frac = st.one_of(
    _small,
    st.just(Fraction(0)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**5),
)
_kernel_syms = {
    "s2": [_s2, IrrationalSymbol.sqrt("s2", 2, -1)],
    "s3": [_s3, IrrationalSymbol.sqrt("s3", 3, -1)],
}


@st.composite
def _kernel_pair(draw):
    """The same value built twice: by the kernel and by the reference."""
    q = draw(_kernel_frac)
    coeffs = {}
    for name in draw(st.sampled_from([[], ["s2"], ["s3"], ["s2", "s3"]])):
        # an equal-named copy of the symbol in some values
        coeffs[draw(st.sampled_from(_kernel_syms[name]))] = draw(_kernel_frac)
    return ExactValue.of(q, coeffs), _FractionValue.of(q, coeffs)


_KERNEL_V = GroupDescriptor.make(
    RationalGroup.make(0, {2: INF}),
    {_s2: RationalGroup.make(0, {3: 1}), _s3: RationalGroup.all_rationals()},
)


@settings(max_examples=150, deadline=None)
@given(a=_kernel_pair(), b=_kernel_pair(), k=_kernel_frac)
# cancellation to zero, and of one symbol only
@example(a=(E(Fraction(1, 3), {_s2: 2}), _FractionValue.of(Fraction(1, 3), {_s2: 2})),
         b=(E(Fraction(1, 3), {_s2: 2}), _FractionValue.of(Fraction(1, 3), {_s2: 2})),
         k=Fraction(0))
@example(a=(E(Fraction(1, 6), {_s2: 2, _s3: 1}),
            _FractionValue.of(Fraction(1, 6), {_s2: 2, _s3: 1})),
         b=(E(Fraction(1, 2), {_s2: 2}), _FractionValue.of(Fraction(1, 2), {_s2: 2})),
         k=Fraction(-1, 2))
def test_kernel_matches_fraction_reference(a, b, k):
    (v, rv), (w, rw) = a, b
    _assert_same(v, rv)
    _assert_same(v + w, rv + rw)
    _assert_same(v - w, rv - rw)
    _assert_same(-v, -rv)
    _assert_same(v.scale(k), rv.scale(k))
    assert (v == w) == (rv == rw)
    if v == w:
        assert hash(v) == hash(w)
    assert (v - v) == ZERO and hash(v - v) == hash(ZERO)
    assert _outcome(lambda: v < w) == _outcome(lambda: rv < rw)
    assert _outcome(lambda: v <= w) == _outcome(lambda: rv <= rw)
    assert _outcome(v.sign) == _outcome(rv.sign)
    assert (_KERNEL_V.in_group(v), _KERNEL_V.member(v)) == _ref_member(_KERNEL_V, rv)


@pytest.mark.parametrize(
    "q,c",
    [("2/4", "-0"), ("-0", " 3/6 "), (" 3/6 ", "1.5"), ("1.5", "2/4"), ("007", "+3"),
     ("-6/4", "0/5"), ("1e2", "3_0"), (5, Fraction(2, 4)), ("1/0", "1"), ("1", "1/00"),
     ("abc", "1"), ("1/-2", "1"), (1.5, "1"), ("1", True)],
)
def test_from_json_accepts_what_fraction_accepts(q, c):
    def parent(text):
        # the former parse_fraction
        if isinstance(text, (float, bool)):
            raise TypeError(f"inexact number {text!r}; write fractions as strings such as \"1/10\"")
        return Fraction(text)

    def ref():
        coeffs = {_s2: parent(c)}
        return _FractionValue.of(parent(q), coeffs)

    got = _outcome(ExactValue.from_json, {"q": q, "irr": {"s2": c}}, {"s2": _s2})
    want = _outcome(ref)
    if isinstance(want, _FractionValue):
        _assert_same(got, want)
    else:
        assert got == want


# -- one clamped doubling loop for comparisons and floor ----------------------------


def _digit_symbol(rng: random.Random, base: int, length: int):
    digits = "".join(rng.choice("0123456789abcdef"[:base]) for _ in range(length))
    try:
        return IrrationalSymbol.digits("d", base, digits)
    except PrecisionExhausted:
        # the (0,1) check reads stage 4, which fewer digits cannot reach
        assert base**length < 16
        return None


@pytest.mark.parametrize("base", [2, 3, 10, 16])
def test_clamped_doubling_matches_stepping(base):
    rng = random.Random(f"clamp/{base}")
    for length in range(1, 41):
        sym = _digit_symbol(rng, base, length)
        if sym is None:
            continue
        depth = (base**length).bit_length() - 1
        assert sym.depth == depth
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        v, ref = E(q, {sym: c}), _FractionValue.of(q, {sym: c})
        rs = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))]
        for k in sorted({16, rng.randint(16, 40), depth}):
            if k <= depth:
                lo, hi = ref.interval(k)
                tiny = Fraction(1, 2 ** (k + 1))
                rs += [lo, hi, lo - tiny, hi + tiny, (lo + hi) / 2]
        for r in rs:
            assert _outcome(v._cmp, r) == _outcome(ref._cmp, r), (base, length, r)


def test_clamp_decides_what_unclamped_doubling_would_not():
    # stage 32 is past the 20 digits, but stage 20 decides
    sym = IrrationalSymbol.digits("d", 2, "10110011100011110000")
    v = E(0, {sym: 1})
    lo, _ = sym.enclosure(20)
    r = lo - Fraction(1, 2**21)
    assert v._cmp(r) == _FractionValue.of(0, {sym: 1})._cmp(r) == 1


def test_undecided_comparison_takes_few_rounds():
    sym = IrrationalSymbol.digits("x", 2, "1" * 4096)  # 1 - 2**-4096 <= x <= 1
    calls = []
    bounds = sym._bounds

    def counted(k):
        calls.append(k)
        return bounds(k)

    object.__setattr__(sym, "_bounds", counted)
    with pytest.raises(ArithmeticError, match="sign undecided"):
        E(-1, {sym: 1}).sign()
    assert len(calls) <= 10 and calls[-1] == 4096


@pytest.mark.parametrize("n,digits", [(1612, 617), (4000, 1531)])
def test_sign_over_one_sqrt_symbol_is_decided_past_the_cap(sqrt2_module, n, digits):
    """(sqrt(2) - 1)**n = a + b*s, with a and b of the given number of
    digits, lies closer to 0 than b times the 4096-bit enclosure's width, so
    refinement leaves its sign undecided; one ``sqrt`` symbol is decided by
    squaring, in every comparison that reaches it."""
    a, b = sqrt2_unit_power(n)
    assert len(str(abs(a))) == len(str(abs(b))) == digits
    s = sqrt2_symbol()
    assert E(a, {s: b}).sign() == 1 and E(-a, {s: -b}).sign() == -1
    v = E(a, {s: b})
    assert ZERO < E(a, {s: b}) < ONE and v > ZERO and -v < ZERO
    # 1/4 < sqrt(2) - 1 < 1/2
    assert v._cmp(Fraction(1, 2**n)) == -1 and v._cmp(Fraction(1, 4**n)) == 1
    assert sqrt2_module.member(v) and not sqrt2_module.member(-v)
    check_all_in([v], sqrt2_module)
    with pytest.raises(NotInV, match="is not positive"):
        check_all_in([E(-a, {s: -b})], sqrt2_module)


@pytest.mark.parametrize("length", [17, 20, 40])
def test_floor_reads_the_deepest_stage(length):
    # x = 0.11...10 in binary: only the last digit shows that x < 1
    x = IrrationalSymbol.digits("x", 2, "1" * (length - 1) + "0")
    assert E(0, {x: 1}).floor() == 0
    # y = 0.11...11: 1 - 2**-length <= y <= 1 at every stage, so floor(y) is undecided
    y = IrrationalSymbol.digits("y", 2, "1" * length)
    with pytest.raises(PrecisionExhausted, match=f"width 2\\^-{length + 1}$"):
        E(0, {y: 1}).floor()


# -- floor over one sqrt symbol ---------------------------------------------------------


def _floor_of_multiple_of_sqrt2(b: int) -> int:
    """floor(b * sqrt(2)) by integer square root; sqrt(2) is irrational."""
    r = math.isqrt(2 * b * b)
    return r if b > 0 else -r - 1


@pytest.mark.parametrize("n", [1612, 4000])
def test_floor_over_one_sqrt_symbol_is_exact_past_the_cap(n):
    """(sqrt(2) - 1)**n = a + b*s, s = sqrt(2) - 1: its coefficient part b*s
    lies closer to the integer -a than the 4096-bit enclosure's width, so
    refinement leaves its floor undecided; two comparisons decide it."""
    a, b = sqrt2_unit_power(n)
    s = sqrt2_symbol()
    part = E(0, {s: b})
    assert floor_by_enclosures(part) is None
    assert part.floor() == _floor_of_multiple_of_sqrt2(b) - b
    assert (-part).floor() == _floor_of_multiple_of_sqrt2(-b) + b
    v = E(a, {s: b})  # in (0, 1)
    assert v.floor() == 0 and (-v).floor() == -1 and (v + ONE).floor() == 1


_roots = st.sampled_from([2, 3, 5, 7, 10])


@settings(max_examples=300, deadline=None)
@given(
    radicand=_roots,
    q=st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    c=st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6).filter(bool),
)
@example(radicand=2, q=Fraction(0), c=Fraction(1))
@example(radicand=2, q=Fraction(-1), c=Fraction(1))  # -1 + s = sqrt(2) - 2
@example(radicand=3, q=Fraction(7, 2), c=Fraction(-5, 3))
def test_floor_over_one_sqrt_symbol_matches_enclosures_where_they_decide(radicand, q, c):
    s = IrrationalSymbol.sqrt(f"s{radicand}", radicand, -math.isqrt(radicand))
    v = E(q, {s: c})
    want = floor_by_enclosures(v)
    if want is not None:
        assert v.floor() == want
    assert E(q).floor() == math.floor(q) == floor_by_enclosures(E(q))
