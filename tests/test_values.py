"""Exact values, group descriptors, membership, classification, scaling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodmeasures.errors import NonRationalScale, NotInV
from goodmeasures.values import (
    INF,
    ExactValue,
    GroupDescriptor,
    IrrationalSymbol,
    ONE,
    RationalGroup,
    ZERO,
)

from conftest import E, alpha_module, sqrt2_symbol


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


def test_not_infinite_flag():
    V = GroupDescriptor.make(RationalGroup.make(0, {2: INF}), infinite=False)
    assert not V.classify().group_like


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
