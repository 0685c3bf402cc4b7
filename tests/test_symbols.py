"""Signs over one square-root symbol: ``sqrt_sign`` decides them on integers,
and agrees with the enclosure refinement wherever that refinement decides."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goodmeasures.symbols import IrrationalSymbol, compare, enclose, sqrt_sign, stages

from conftest import sqrt2_symbol, sqrt2_unit_power


def refined(nums, syms, rn: int, rd: int) -> int | None:
    """sign(nums[0] + sum of nums[i] * syms[i - 1] - rn/rd) by refining the
    enclosures at the precisions of ``stages``; None if the last stage
    leaves it undecided.  The rule ``compare`` keeps for every kind but one
    ``sqrt`` symbol."""
    for bits in stages(syms):
        lo, hi, d = enclose(nums, syms, bits)
        if lo * rd > rn * d:
            return 1
        if hi * rd < rn * d:
            return -1
    return None


_NON_SQUARES = [d for d in range(2, 14) if math.isqrt(d) ** 2 != d]


@st.composite
def _symbols(draw) -> IrrationalSymbol:
    """sqrt(d) + j/m - isqrt(d), with j drawn so that the symbol lies in (0, 1):
    -frac(sqrt(d)) < j/m < 1 - frac(sqrt(d)), that is -f <= j <= m - f - 1
    for f = floor(m * frac(sqrt(d)))."""
    d = draw(st.one_of(st.sampled_from(_NON_SQUARES), st.integers(2, 10**6)))
    r = math.isqrt(d)
    if r * r == d:
        d += 1
    m = draw(st.integers(1, 50))
    f = math.isqrt(m * m * d) - m * r
    j = draw(st.integers(-f, m - f - 1))
    try:
        return IrrationalSymbol.sqrt("s", d, f"{j - m * r}/{m}")
    except ValueError:  # within 1/16 of 0 or 1, which the stage-4 check refuses
        assume(False)


def _near(y: int, root) -> int:
    """An integer within 2 of y * (sqrt(d) + cn/cd)."""
    d, cn, cd = root
    t = math.isqrt(y * y * d)
    return (t if y >= 0 else -t) + y * cn // cd


_coefficient = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**200, 10**200))


@settings(max_examples=300, deadline=None)
@given(s=_symbols(), x=_coefficient, y=_coefficient, near=st.booleans(),
       delta=st.integers(-3, 3), rd=st.integers(1, 10**12), rn=_coefficient)
@example(s=sqrt2_symbol(), x=-1, y=1, near=False, delta=0, rd=1, rn=0)  # s - 1 < 0
@example(s=sqrt2_symbol(), x=0, y=0, near=False, delta=0, rd=1, rn=1)  # no symbol left
def test_kernel_agrees_with_refinement(s, x, y, near, delta, rd, rn):
    """x + y*s - rn/rd, with x near rn/rd - y*s when ``near``: the kernel
    and ``compare`` give the sign the refinement gives, wherever it decides."""
    if near:
        x = rn // rd - _near(y, s.root) + delta
    want = refined([x, y], [s], rn, rd)
    if want is None:
        return
    assert sqrt_sign(x * rd - rn, y * rd, s.root) == want
    if y:
        assert compare([x, y], [s], rn, rd) == want


@pytest.mark.parametrize("n", [1612, 4000])
def test_kernel_decides_where_refinement_stops(n):
    """(sqrt(2) - 1)**n lies below the 4096-bit enclosure's width times its
    coefficient, so refinement cannot decide its sign; squaring does."""
    a, b = sqrt2_unit_power(n)
    s = sqrt2_symbol()
    assert refined([a, b], [s], 0, 1) is None
    assert compare([a, b], [s], 0, 1) == sqrt_sign(a, b, s.root) == 1
    assert compare([-a, -b], [s], 0, 1) == -1
