"""Irrational symbols, their enclosures, and signs of integer combinations of them.

A symbol is a named irrational constant in (0,1) with an oracle of nested
integer enclosures.  ``compare`` decides the sign of an integer combination
n0 + n1*s1 + ... + nk*sk against a rational, by the kind of its symbols:

* one ``sqrt`` symbol s = sqrt(d) + c: exactly, on integers, by
  ``sqrt_sign``, which squares instead of refining, so the sign of every
  such combination is decided, however close to 0 it lies;
* a ``digits`` symbol, or two or more symbols: by refining the enclosures
  up to ``_MAX_BITS``, which terminates when the symbols are linearly
  independent over the rationals together with 1 and the combination is
  not too close to 0; past that it is "undecided".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .errors import PrecisionExhausted
from .jsonutil import format_ratio, parse_fraction, parse_int

#: Comparisons refine from width 2**-_START_BITS, doubling the precision up to
#: _MAX_BITS bits.
_START_BITS = 16
_MAX_BITS = 4096

#: Integer enclosure lo/d <= x <= hi/d of a symbol x at one stage.
_Bounds = tuple[int, int, int]


def _sqrt_bounds(radicand: int, shift: Fraction) -> Callable[[int], _Bounds]:
    """Dyadic enclosures of sqrt(radicand) + shift, width 2**-k at stage k."""
    sn, sd = shift.numerator, shift.denominator

    @functools.lru_cache(maxsize=64)
    def bounds(k: int) -> _Bounds:
        scale = 1 << k
        a = math.isqrt(radicand * scale * scale)
        return a * sd + sn * scale, (a + 1) * sd + sn * scale, scale * sd

    return bounds


def _digits_bounds(base: int, digits: str) -> Callable[[int], _Bounds]:
    """Enclosures from an explicit digit expansion 0.d1 d2 ... in the given base.

    Only as many stages as declared digits are available; deeper requests
    raise ``PrecisionExhausted``.
    """

    if not 2 <= base <= 36:
        raise ValueError(f"digit base must lie in 2..36, got {base}")
    for d in digits:
        int(d, base)  # each character must be one digit in this base

    @functools.lru_cache(maxsize=64)
    def bounds(k: int) -> _Bounds:
        # stage k needs the fewest digits n >= 1 with base**n >= 2**k;
        # base**hi >= 2**(hi * (bit_length - 1)) >= 2**k bounds the search
        target = 1 << k
        lo, hi = 1, max(1, -(-k // (base.bit_length() - 1)))
        while lo < hi:
            mid = (lo + hi) // 2
            if base**mid >= target:
                hi = mid
            else:
                lo = mid + 1
        n = min(lo, max(1, len(digits)))
        if base**n < target:
            raise PrecisionExhausted(
                f"digit oracle has {len(digits)} digits, cannot reach width 2^-{k}"
            )
        acc = int(digits[:n], base) if digits else 0
        return acc, acc + 1, base**n

    return bounds


@dataclass(frozen=True)
class IrrationalSymbol:
    """A named irrational constant in (0,1) with a nested-interval oracle.

    Symbols are identified by name: two symbols with equal names are the same
    symbol.  Names must therefore be unique within any one descriptor.  The
    oracle maps a stage k to an integer enclosure (lo, hi, d) of the symbol,
    an interval [lo/d, hi/d] of width at most 2**-k; successive intervals are
    nested.  ``depth`` is the deepest stage the oracle reaches, at most
    ``_MAX_BITS``.  ``root`` is (d, cn, cd) of a ``sqrt`` symbol
    sqrt(d) + cn/cd, as ``sqrt_sign`` takes it, and None for other kinds.
    """

    name: str
    spec: tuple = field(compare=False)
    _bounds: Callable[[int], _Bounds] = field(compare=False, repr=False)
    depth: int = field(default=_MAX_BITS, compare=False, repr=False)
    root: tuple[int, int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.enclosure(4)
        if not (lo >= 0 and hi <= 1):
            raise ValueError(f"symbol {self.name} must lie in (0,1), got [{lo},{hi}]")

    @staticmethod
    def sqrt(name: str, radicand: int, shift: Fraction | int | str = 0) -> "IrrationalSymbol":
        if radicand < 0 or math.isqrt(radicand) ** 2 == radicand:
            raise ValueError(f"symbol {name}: sqrt({radicand}) is not an irrational real")
        shift = Fraction(shift)
        root = (radicand, shift.numerator, shift.denominator)
        return IrrationalSymbol(
            name, ("sqrt", radicand, shift), _sqrt_bounds(radicand, shift), root=root
        )

    @staticmethod
    def digits(name: str, base: int, digits: str) -> "IrrationalSymbol":
        # stage k is reachable iff base**len(digits) >= 2**k
        depth = min(_MAX_BITS, (base ** max(1, len(digits))).bit_length() - 1)
        return IrrationalSymbol(name, ("digits", base, digits), _digits_bounds(base, digits), depth)

    def enclosure(self, k: int) -> tuple[Fraction, Fraction]:
        lo, hi, d = self._bounds(k)
        return Fraction(lo, d), Fraction(hi, d)

    def __hash__(self):
        return hash(self.name)

    def __lt__(self, other: "IrrationalSymbol") -> bool:
        return self.name < other.name

    def to_json(self) -> dict:
        kind = self.spec[0]
        if kind == "sqrt":
            shift = format_ratio(self.spec[2].numerator, self.spec[2].denominator)
            return {"kind": "sqrt", "radicand": self.spec[1], "shift": shift}
        if kind == "digits":
            return {"kind": "digits", "base": self.spec[1], "digits": self.spec[2]}
        raise ValueError(f"symbol {self.name} has no serialisable enclosure")

    @staticmethod
    def from_json(name: str, data: Mapping) -> "IrrationalSymbol":
        if data["kind"] == "sqrt":
            radicand = parse_int(data["radicand"])
            return IrrationalSymbol.sqrt(name, radicand, parse_fraction(data.get("shift", 0)))
        if data["kind"] == "digits":
            return IrrationalSymbol.digits(name, parse_int(data["base"]), data["digits"])
        raise ValueError(f"unknown enclosure kind {data['kind']!r}")


# ---------------------------------------------------------------------------
# signs of integer combinations of symbols
# ---------------------------------------------------------------------------


def stages(syms: Sequence[IrrationalSymbol]) -> Iterator[int]:
    """Precisions for enclosing a value over these symbols, in refinement order.

    Doubling from _START_BITS, clamped to C, the deepest stage every symbol
    supplies: enclosures are nested, so any verdict reached by C is reached
    at C.  Below _MAX_BITS, C + 1 comes last; an enclosure there (or already
    at _START_BITS, when C is smaller) raises ``PrecisionExhausted``.
    """
    yield _START_BITS  # almost always decides
    cap = min(s.depth for s in syms)
    bits = 2 * _START_BITS
    while bits < cap:
        yield bits
        bits *= 2
    if cap > _START_BITS:
        yield cap
    if cap < _MAX_BITS:
        yield cap + 1


def enclose(nums, syms, bits: int) -> _Bounds:
    """(lo, hi, d) with lo/d <= nums[0] + sum of nums[i] * syms[i - 1] <= hi/d."""
    lo = hi = nums[0]
    d = 1
    for i, s in enumerate(syms, 1):
        n = nums[i]
        sl, sh, sd = s._bounds(bits)
        if n < 0:
            sl, sh = sh, sl
        lo = lo * sd + n * sl * d
        hi = hi * sd + n * sh * d
        d *= sd
    return lo, hi, d


def sqrt_sign(x: int, y: int, root: tuple[int, int, int]) -> int:
    """sign(x + y * (sqrt(d) + cn/cd)) for root = (d, cn, cd), d > 0 not a
    square and cd > 0, decided on integers.

    Times cd > 0 the value is a + b*sqrt(d) with a = x*cd + y*cn and
    b = y*cd.  Unless a and b have opposite signs the sign is read off;
    otherwise the term of larger magnitude decides, found by comparing a**2
    with d*b**2, which are never equal since sqrt(d) is irrational.
    """
    d, cn, cd = root
    a = x * cd + y * cn
    b = y * cd
    if a > 0:
        return 1 if b >= 0 or a * a > d * b * b else -1
    if a < 0:
        return -1 if b <= 0 or a * a > d * b * b else 1
    return (b > 0) - (b < 0)


def compare(nums, syms, rn: int, rd: int) -> int:
    """sign(nums[0] + sum of nums[i] * syms[i - 1] - rn/rd) for rd > 0, syms nonempty.

    One ``sqrt`` symbol is decided exactly by ``sqrt_sign``.  Otherwise the
    enclosures are refined at the precisions of ``stages`` until they lie
    strictly on one side of rn/rd; if the last stage does not decide, the
    sign is undecided and ``ArithmeticError`` is raised.
    """
    if len(syms) == 1:
        root = syms[0].root
        if root is not None:
            return sqrt_sign(nums[0] * rd - rn, nums[1] * rd, root)
    for bits in stages(syms):
        lo, hi, d = enclose(nums, syms, bits)
        t = rn * d
        if lo * rd > t:
            return 1
        if hi * rd < t:
            return -1
    raise ArithmeticError(
        "sign undecided at maximal precision; are the declared symbols "
        "really independent of 1 over the rationals?"
    )
