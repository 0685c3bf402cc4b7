"""Exact arithmetic over the group spanned by 1 and declared irrational symbols.

Every number handled by the package is an ``ExactValue``: a rational part plus
rational coefficients on finitely many irrational symbols (``symbols``).
Symbols are declared together with an enclosure oracle (nested rational
intervals) and are linearly independent over the rationals together with 1
(checked for ``sqrt`` symbols, trusted for ``digits`` symbols), so equality is
decided coefficientwise.  A sign over one ``sqrt`` symbol is decided exactly
on integers; any other sign by refining the enclosures (``symbols.compare``).

Value sets ("clopen values sets") are described by a ``GroupDescriptor``:
a subgroup of the rationals given by prime exponents, plus one such subgroup
of coefficients per irrational symbol.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import NonRationalScale, NotInV
from .jsonutil import format_ratio, parse_int, parse_object, parse_ratio
from .symbols import IrrationalSymbol, compare, enclose, sqrt_sign, stages

#: Exponent value standing for "all powers of the prime are admitted".
INF = float("inf")

_FracLike = Fraction | int | str
_K = TypeVar("_K")


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


class ExactValue:
    """rational + sum of rational multiples of irrational symbols, canonical form.

    Stored as integers over one positive common denominator ``den``:
    ``nums[0]`` is the numerator of the rational part and ``nums[i]`` that of
    the coefficient of ``syms[i - 1]``.  Symbols are sorted by name, zero
    coefficients are never stored and ``gcd(den, *nums) == 1``, so equality
    is plain field equality.  ``rational`` and ``coeffs`` are ``Fraction``
    views of these integers.  All arithmetic is exact; the comparison
    operators decide the order by ``symbols.compare``: exactly over one
    ``sqrt`` symbol, by refining symbol enclosures otherwise.  The
    sign of an irrational value and the sort key of any value are worked out
    once per instance and then remembered.

    Values are immutable.  Build them with ``of`` or ``from_json``; the
    constructor takes its integers as they are.
    """

    __slots__ = ("den", "nums", "syms", "_sign", "_key")

    def __init__(self, den: int, nums: tuple[int, ...], syms: tuple[IrrationalSymbol, ...] = ()):
        self.den = den
        self.nums = nums
        self.syms = syms
        self._sign = None  # memo of an irrational value's sign
        self._key = None  # memo of ``sort_key``

    @staticmethod
    def of(q: _FracLike, coeffs: Mapping[IrrationalSymbol, _FracLike] | None = None) -> "ExactValue":
        items = sorted((coeffs or {}).items(), key=lambda sc: sc[0].name)
        return _from_ratios([_ratio(q)] + [_ratio(c) for _, c in items], [s for s, _ in items])

    # -- structure ---------------------------------------------------------

    @property
    def rational(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def coeffs(self) -> tuple[tuple[IrrationalSymbol, Fraction], ...]:
        return tuple((s, Fraction(n, self.den)) for s, n in zip(self.syms, self.nums[1:]))

    @property
    def is_rational(self) -> bool:
        return not self.syms

    def coeff(self, symbol: IrrationalSymbol) -> Fraction:
        return dict(self.coeffs).get(symbol, Fraction(0))

    def height(self) -> int:
        """max of numerator/denominator magnitudes over all components."""
        den, h = self.den, 0
        for n in self.nums:
            g = math.gcd(n, den)
            h = max(h, abs(n) // g, den // g)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums and self.syms == other.syms

    def __hash__(self) -> int:
        # integers only, so the hash does not depend on PYTHONHASHSEED
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"ExactValue(rational={self.rational!r}, coeffs={self.coeffs!r})"

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "ExactValue", sign: int) -> "ExactValue":
        # over the lcm of the two denominators: self * m1 + other * m2
        g = math.gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g * sign
        den = self.den * m1
        a, b = self.nums, other.nums
        # merge the symbols by name, keeping self's symbol on a tie
        merged = {k.name: [k, x * m1] for k, x in zip(self.syms, a[1:])}
        for k, y in zip(other.syms, b[1:]):
            merged.setdefault(k.name, [k, 0])[1] += y * m2
        items = sorted(merged.items())
        nums = [a[0] * m1 + b[0] * m2] + [x for _, (_, x) in items]
        return _reduced(den, nums, tuple(k for _, (k, _) in items))

    def __add__(self, other: "ExactValue") -> "ExactValue":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactValue") -> "ExactValue":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactValue":
        v = ExactValue(self.den, tuple([-n for n in self.nums]), self.syms)
        if self._sign is not None:
            v._sign = -self._sign
        return v

    def scale(self, k: _FracLike) -> "ExactValue":
        kn, kd = _ratio(k)
        return _reduced(self.den * kd, [n * kn for n in self.nums], self.syms) if kn else ZERO

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, ExactValue):
            if other.is_rational:
                return self.scale(other.rational)
            if self.is_rational:
                return other.scale(self.rational)
            raise ArithmeticError("products of two irrational values are not representable")
        return NotImplemented

    __rmul__ = __mul__

    # -- comparisons ---------------------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """A rational interval containing this value, from stage-``bits`` enclosures."""
        lo, hi, d = enclose(self.nums, self.syms, bits)
        d *= self.den
        return Fraction(lo, d), Fraction(hi, d)

    def _cmp(self, r: Fraction | int, d: int = 1) -> int:
        """sign(self - r/d) for an int or Fraction r and an int d > 0.

        Decided by ``symbols.compare``: on integers over one ``sqrt``
        symbol, otherwise by refining this value's enclosure until it lies
        strictly on one side of r/d.
        """
        rn, rd = r.numerator, r.denominator * d
        if not self.syms:
            x, y = self.nums[0] * rd, rn * self.den
            return (x > y) - (x < y)
        return compare(self.nums, self.syms, rn * self.den, rd)

    def sign(self) -> int:
        if not self.syms:
            n = self.nums[0]
            return (n > 0) - (n < 0)
        # a structurally nonzero irrational value is never 0
        s = self._sign
        if s is None:
            s = self._sign = compare(self.nums, self.syms, 0, 1)
        return s

    # The order of exact values is decided here and nowhere else.  Against a
    # rational side the irrational side is compared directly (against 0
    # through the memoised sign); two irrational values compare by the sign
    # of their difference.  The order is total, so the other three operators
    # are __lt__ with the operands swapped or negated.

    def __lt__(self, other: "ExactValue") -> bool:
        if not other.syms:
            n = other.nums[0]
            if not self.syms:
                return self.nums[0] * other.den < n * self.den
            return (self._cmp(n, other.den) if n else self.sign()) < 0
        if not self.syms:
            n = self.nums[0]
            return (other._cmp(n, self.den) if n else other.sign()) > 0
        return self is not other and (self - other).sign() < 0

    def __le__(self, other: "ExactValue") -> bool:
        return not ExactValue.__lt__(other, self)

    def __gt__(self, other: "ExactValue") -> bool:
        return ExactValue.__lt__(other, self)

    def __ge__(self, other: "ExactValue") -> bool:
        return not ExactValue.__lt__(self, other)

    def floor(self) -> int:
        """The greatest integer at most this value.

        Over one ``sqrt`` symbol it is exact, however close the value lies
        to an integer: one enclosure of width at most 1/2 puts the floor at
        its lower end's floor k or at k + 1, and two comparisons, decided on
        integers (``_cmp``), settle which.  Otherwise the enclosures are
        refined until both ends have one floor; a rational value is decided
        at the first stage.
        """
        if len(self.syms) == 1 and self.syms[0].root is not None:
            # the coefficient's enclosure at |nums[1]|.bit_length() + 1 bits is at most 1/2 wide
            lo, _, d = enclose(self.nums, self.syms, abs(self.nums[1]).bit_length() + 1)
            k = lo // (d * self.den)
            return k - (self._cmp(k) < 0) + (self._cmp(k + 1) >= 0)
        for bits in stages(self.syms):
            lo, hi, d = enclose(self.nums, self.syms, bits)
            d *= self.den
            if lo // d == hi // d:
                return lo // d
        raise ArithmeticError("floor undecided at maximal precision")

    # -- serialisation -------------------------------------------------------

    def sort_key(self):
        key = self._key
        if key is None:
            den, nums = self.den, self.nums
            coeffs = []
            for i, s in enumerate(self.syms, 1):
                g = math.gcd(nums[i], den)
                coeffs.append((s.name, nums[i] // g, den // g))
            g = math.gcd(nums[0], den)
            key = self._key = (nums[0] // g, den // g, tuple(coeffs))
        return key

    def to_json(self) -> dict:
        den = self.den
        out: dict = {"q": format_ratio(self.nums[0], den)}
        if self.syms:
            out["irr"] = {s.name: format_ratio(n, den) for s, n in zip(self.syms, self.nums[1:])}
        return out

    @staticmethod
    def from_json(data: Mapping, symbols: Mapping[str, IrrationalSymbol]) -> "ExactValue":
        data = parse_object(data, "value")
        irr = parse_object(data.get("irr", {}), "irrational part")
        items = sorted(
            ((symbols[n], parse_ratio(c)) for n, c in irr.items()),
            key=lambda sc: sc[0].name,
        )
        return _from_ratios([parse_ratio(data["q"])] + [c for _, c in items], [s for s, _ in items])

    def __str__(self):
        den, parts = self.den, []
        if self.nums[0] or not self.syms:
            parts.append(format_ratio(self.nums[0], den))
        for s, n in zip(self.syms, self.nums[1:]):
            parts.append(f"{format_ratio(n, den)}*{s.name}")
        return " + ".join(parts)


def _reduced(den: int, nums: list[int], syms: tuple[IrrationalSymbol, ...]) -> ExactValue:
    """The value nums over den, divided by one gcd, zero coefficients dropped."""
    g = math.gcd(den, *nums)
    keep = [i for i in range(1, len(nums)) if nums[i]]
    reduced = (nums[0] // g, *[nums[i] // g for i in keep])
    return ExactValue(den // g, reduced, tuple([syms[i - 1] for i in keep]))


def _from_ratios(ratios: Sequence[tuple[int, int]], syms: Sequence[IrrationalSymbol]) -> ExactValue:
    """ratios[0] + sum of ratios[i] * syms[i - 1] for (n, d) pairs, syms sorted by name."""
    den = math.lcm(*[d for _, d in ratios])
    nums = [n * (den // d) for n, d in ratios]
    return _reduced(den, nums, tuple(syms))


def _in_unit(
    ratios: Sequence[tuple[int, int]], syms: Sequence[IrrationalSymbol]
) -> ExactValue | None:
    """``_from_ratios(ratios, syms)`` if it lies in (0, 1], else None.

    The bounds are decided on the integer coordinates over the common
    denominator, zero coefficients left out as ``ExactValue`` leaves them
    out, so a refused candidate builds no value, and a kept irrational one
    starts with its sign known."""
    den = math.lcm(*[d for _, d in ratios])
    nums = [ratios[0][0] * (den // ratios[0][1])]
    kept = []
    for s, (n, d) in zip(syms, ratios[1:]):
        if n:
            nums.append(n * (den // d))
            kept.append(s)
    if not kept:
        if not 0 < nums[0] <= den:
            return None
    elif compare(nums, kept, 0, 1) <= 0 or compare(nums, kept, den, 1) > 0:
        return None
    g = math.gcd(den, *nums)
    v = ExactValue(den // g, tuple([n // g for n in nums]), tuple(kept))
    if kept:
        v._sign = 1
    return v


def _ratio(x: _FracLike) -> tuple[int, int]:
    """x as a numerator and positive denominator in lowest terms."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


ZERO = ExactValue.of(0)
ONE = ExactValue.of(1)


class PackedValues:
    """Values as single ints, so that a sum of values is one int addition.

    Each member value is written over the common denominator ``den``, and
    its integer coordinates (the rational part, then one per symbol of
    ``syms`` by name) are packed as signed digits, ``width`` bits per slot.
    Packing is linear, so it is additive.  ``cap`` bounds every coordinate
    of every member and of 1, and slots are wide enough that a signed sum of
    at most ``room`` members keeps each coordinate below 2**(width - 1) in
    magnitude: no slot carries, and two such sums are equal as values iff
    their packed ints are equal.  A table with no symbol has one slot, which
    cannot carry, so its room is unbounded and its ints are the members'
    numerators over ``den``, ordered as the values are.

    The members are the listed values, every value ``pack`` accepts and
    every value ``unpack`` reads back.  A member's coordinate beyond ``cap``
    raises ``cap``, so ``room`` only shrinks: a caller checks ``room`` after
    packing its values and before adding them.  A sum decided before that
    involved members under the old cap, for which the old room held.  With
    a symbol, ``den`` is ``slack`` times the listed values' common
    denominator, so that values somewhat finer than the listed ones still
    pack and the table is built again less often.

    A table whose only symbol is a ``sqrt`` symbol keeps its root (d, cn,
    cd) once, and ``sign`` hands its two coordinates to ``sqrt_sign``.

    The list kernels give what the per-value calls give, in one call.
    ``pack_all`` packs a list: with no symbol a member's int is its
    numerator over ``den``, worked out with no call per value; with a
    symbol a member already met is taken from the table, not packed again.
    ``unpack_all`` (a list) and ``unpacked`` (a dict's values) read ints
    back: an int already met gives the very value it stands for, not a
    rebuilt one.
    """

    def __init__(self, values: Sequence[ExactValue], room: int, slack: int = 1):
        symbols: dict[str, IrrationalSymbol] = {}
        for v in values:
            for s in v.syms:
                symbols.setdefault(s.name, s)
        names = sorted(symbols)
        self._slot = {n: i for i, n in enumerate(names, 1)}
        self.syms = tuple(symbols[n] for n in names)
        #: (d, cn, cd) of the table's one symbol if it is ``sqrt``, else None
        self._root = self.syms[0].root if len(self.syms) == 1 else None
        self.den = den = math.lcm(1, *[v.den for v in values]) * (slack if symbols else 1)
        self.one = den
        self.cap = den  # the coordinates of 1 are (den, 0, ...)
        #: the packed int of each value, in list order
        if not self.syms:
            self.packed = [v.nums[0] * (den // v.den) for v in values]
            self.cap = max([den, *map(abs, self.packed)])
            self.width = (room * self.cap).bit_length() + 1
        else:
            coords = [self._coords(v) for v in values]
            self.cap = max([den, *[abs(x) for c in coords for x in c]])
            self.width = (room * self.cap).bit_length() + 1
            self.packed = [self._join(c) for c in coords]
        self._base = 1 << self.width
        self._mask, self._half = self._base - 1, self._base >> 1
        self.room = INF if not self.syms else (self._half - 1) // self.cap
        #: ``bisect_right`` on increasing packed sums, ordered as their values
        self.bisect = bisect_right if not self.syms else self._bisect_signed
        # the value of each packed int met so far, so each is unpacked once
        self._values = dict(zip(self.packed, values))
        # id -> (value, packed int) of each member object met so far, so each is packed once
        self._packs = {id(v): (v, p) for v, p in zip(values, self.packed)}

    def _cover(self, x: int) -> None:
        """Raise ``cap`` to a new member's largest coordinate x; a table with
        no symbol keeps its unbounded room."""
        if x > self.cap and self.syms:
            self.cap = x
            self.room = (self._half - 1) // x

    def _coords(self, v: ExactValue) -> list[int] | None:
        """v's coordinates over ``den``, one per slot, or None unless v lies
        over ``den`` with no symbol outside ``syms``."""
        m, r = divmod(self.den, v.den)
        if r:
            return None
        out = [v.nums[0] * m] + [0] * len(self.syms)
        for s, n in zip(v.syms, v.nums[1:]):
            i = self._slot.get(s.name)
            if i is None:
                return None
            out[i] = n * m
        return out

    def _join(self, coords: list[int]) -> int:
        """The packed int of coordinates, one per slot, as signed digits."""
        w, p = self.width, 0
        for x in reversed(coords):
            p = (p << w) + x
        return p

    def _split(self, p: int) -> list[int]:
        """The coordinates of a packed int: the rational one, then one per symbol."""
        w, base, mask, half = self.width, self._base, self._mask, self._half
        coords = []
        for _ in range(len(self.syms)):
            x = p & mask
            if x >= half:
                x -= base
            coords.append(x)
            p = (p - x) >> w
        coords.append(p)  # the last slot takes what is left, sign and all
        return coords

    def pack(self, v: ExactValue) -> int | None:
        """v's packed int, which makes v a member, or None unless v lies over
        ``den``, has no symbol outside ``syms`` and has every coordinate
        inside a slot, so that its int is no other value's."""
        if not self.syms:
            m, r = divmod(self.den, v.den)
            return None if r or v.syms else v.nums[0] * m
        known = self._packs.get(id(v))
        if known is not None and known[0] is v:
            return known[1]
        coords = self._coords(v)
        if coords is None:
            return None
        top = max(map(abs, coords))
        if top >= self._half:  # it would carry into the next slot
            return None
        self._cover(top)
        p = self._join(coords)
        self._values.setdefault(p, v)
        self._packs[id(v)] = v, p
        return p

    def unpack(self, p: int) -> ExactValue:
        """The value of a packed sum of at most ``room`` members, which
        becomes a member; each distinct int is read back once."""
        v = self._values.get(p)
        if v is None:
            coords = self._split(p)
            self._cover(max(map(abs, coords)))
            v = self._values[p] = _reduced(self.den, coords, self.syms)
            self._packs[id(v)] = v, p
        return v

    def pack_all(self, values: Collection[ExactValue]) -> list[int] | None:
        """``pack`` of each value, or None if one does not pack.

        With no symbol a value's int is its numerator over ``den``, worked
        out in one comprehension.  With a symbol a member already met is
        taken from ``_packs`` as it is, and only a value not met goes
        through ``pack``."""
        if not self.syms:
            den = self.den
            out = [v.nums[0] * (den // v.den) for v in values if not (den % v.den or v.syms)]
            return out if len(out) == len(values) else None
        out = []
        packs, pack = self._packs, self.pack
        for v in values:
            known = packs.get(id(v))
            if known is not None and known[0] is v:
                out.append(known[1])
            elif (p := pack(v)) is not None:
                out.append(p)
            else:
                return None
        return out

    def unpack_all(self, packed: Iterable[int]) -> list[ExactValue]:
        """``unpack`` of each packed int, in order: an int already met gives
        the value it read back as, taken from ``_values``, not rebuilt."""
        get, unpack = self._values.get, self.unpack
        return [get(p) or unpack(p) for p in packed]

    def unpacked(self, packed: Mapping[_K, int]) -> dict[_K, ExactValue]:
        """``unpack_all`` of the packed ints of a dict, keys kept."""
        get, unpack = self._values.get, self.unpack
        return {k: get(p) or unpack(p) for k, p in packed.items()}

    def sign(self, p: int) -> int:
        """The sign of a packed signed sum of at most ``room`` members,
        decided on its integer coordinates, zero coefficients left out, with
        no value built.  With no symbol it is the int's own sign; with one
        ``sqrt`` symbol ``sqrt_sign`` decides it exactly from the two
        coordinates; otherwise ``compare`` refines enclosures."""
        if not self.syms:
            return (p > 0) - (p < 0)
        x = p & self._mask
        if x >= self._half:
            x -= self._base
        if p == x:  # every symbol coordinate is 0
            return (x > 0) - (x < 0)
        root = self._root
        if root is not None:
            return sqrt_sign(x, (p - x) >> self.width, root)
        coords = self._split(p)
        kept = [s for s, x in zip(self.syms, coords[1:]) if x]
        return compare([coords[0], *[x for x in coords[1:] if x]], kept, 0, 1)

    def _bisect_signed(self, sums: list[int], acc: int, lo: int, hi: int) -> int:
        """``bisect_right`` of acc in increasing packed sums, each step
        decided by the sign of a packed difference."""
        sign = self.sign
        while lo < hi:
            mid = (lo + hi) // 2
            if sign(acc - sums[mid]) < 0:
                hi = mid
            else:
                lo = mid + 1
        return lo


# ---------------------------------------------------------------------------
# subgroups of Q containing Z, described by prime exponents
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == {n: 1}


@dataclass(frozen=True)
class RationalGroup:
    """The subgroup of Q containing Z with 1/p**n admitted iff n <= exponent(p).

    ``default`` is the exponent of every prime not listed in ``exceptions``
    and must be 0 or INF; exceptions store only primes whose exponent differs
    from the default.
    """

    default: float = 0
    exceptions: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def make(default: float = 0, exceptions: Mapping[int, float] | None = None) -> "RationalGroup":
        if default not in (0, INF):
            raise ValueError("default exponent must be 0 or inf")
        cleaned = {}
        for p, e in (exceptions or {}).items():
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e != default:
                if e != INF and (not isinstance(e, int) or e < 0):
                    raise ValueError(f"exponent for {p} must be a nonnegative integer or inf")
                cleaned[p] = e
        return RationalGroup(default, tuple(sorted(cleaned.items())))

    #: Z itself.
    @staticmethod
    def integers() -> "RationalGroup":
        return RationalGroup.make(0)

    @staticmethod
    def all_rationals() -> "RationalGroup":
        return RationalGroup.make(INF)

    def exponent(self, p: int) -> float:
        for q, e in self.exceptions:
            if q == p:
                return e
        return self.default

    def contains(self, q: _FracLike) -> bool:
        return self.admits(_ratio(q)[1])

    def admits(self, d: int) -> bool:
        """Whether 1/d lies in the group, for an integer d >= 1."""
        if d == 1:
            return True
        for p, e in self.exceptions:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            if k > e:
                return False
        # every prime left in d has the default exponent
        return d == 1 or self.default == INF

    @property
    def is_trivial(self) -> bool:
        return self.default == 0 and not self.exceptions

    @property
    def is_all_rationals(self) -> bool:
        return self.default == INF and not self.exceptions

    @property
    def is_ring_like(self) -> bool:
        return all(e in (0, INF) for _, e in self.exceptions)

    def to_json(self) -> dict:
        return {
            "default": "inf" if self.default == INF else "0",
            "exceptions": {str(p): ("inf" if e == INF else int(e)) for p, e in self.exceptions},
        }

    @staticmethod
    def from_json(data: Mapping) -> "RationalGroup":
        data = parse_object(data, "rational group")
        table = parse_object(data.get("exceptions", {}), "exponent table")
        exceptions = {parse_int(p): _exponent(e) for p, e in table.items()}
        return RationalGroup.make(_exponent(data.get("default", "0")), exceptions)


def _exponent(text) -> float:
    """A prime exponent from JSON: "inf", or an integer read by ``parse_int``."""
    return INF if text == "inf" else parse_int(text)


def _heights(group: RationalGroup, with_negative: bool) -> Iterator[list[tuple[int, int]]]:
    """Yield, for h = 1, 2, ..., the members of the group of height exactly h.

    Members come as (num, den) in lowest terms, of height max(|num|, den);
    such a member lies in the group iff 1/den does.  Negative members are
    included only when asked for.
    """
    yield [(-1, 1), (0, 1), (1, 1)] if with_negative else [(0, 1), (1, 1)]
    dens = [1]  # admitted denominators below h
    h = 1
    while True:
        h += 1
        nums = (h, -h) if with_negative else (h,)
        out = [(n, d) for d in dens if math.gcd(h, d) == 1 for n in nums]
        if group.admits(h):
            dens.append(h)
            lo = -h if with_negative else 0
            out += [(n, h) for n in range(lo + 1, h) if math.gcd(n, h) == 1]
        yield out


# ---------------------------------------------------------------------------
# group descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    group_like: bool
    q_like: bool
    #: True / False / None; None means undecided (irrational components).
    ring_like: bool | None


@dataclass(frozen=True)
class GroupDescriptor:
    """A finitely described group-like set V = G ∩ [0,1].

    G is the rational component plus, per declared symbol s, its coefficient
    group times s.  The set is countably infinite, and so group-like, iff the
    rational component is bigger than Z or at least one symbol is declared.
    """

    rational: RationalGroup
    irr: tuple[tuple[IrrationalSymbol, RationalGroup], ...] = ()

    @staticmethod
    def make(
        rational: RationalGroup, irr: Mapping[IrrationalSymbol, RationalGroup] | None = None
    ) -> "GroupDescriptor":
        items = tuple(sorted((irr or {}).items(), key=lambda kv: kv[0].name))
        names = [s.name for s, _ in items]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        # square roots of distinct squarefree integers are independent over Q,
        # and sqrt(m), sqrt(n) share a squarefree part iff m*n is a square
        roots = [(s.name, s.spec[1]) for s, _ in items if s.spec[0] == "sqrt"]
        for i, (a, m) in enumerate(roots):
            for b, n in roots[i + 1:]:
                if math.isqrt(m * n) ** 2 == m * n:
                    raise ValueError(
                        f"symbols {a} and {b} are rationally dependent: "
                        f"sqrt({m}) and sqrt({n}) have the same squarefree part"
                    )
        return GroupDescriptor(rational, items)

    # convenient stock descriptors -----------------------------------------

    @staticmethod
    def p_adic(p: int) -> "GroupDescriptor":
        return GroupDescriptor.make(RationalGroup.make(0, {p: INF}))

    @staticmethod
    def dyadic() -> "GroupDescriptor":
        return GroupDescriptor.p_adic(2)

    @staticmethod
    def rationals() -> "GroupDescriptor":
        return GroupDescriptor.make(RationalGroup.all_rationals())

    def symbols(self) -> dict[str, IrrationalSymbol]:
        return {s.name: s for s, _ in self.irr}

    def symbol_group(self, symbol: IrrationalSymbol) -> RationalGroup | None:
        for s, g in self.irr:
            if s.name == symbol.name:
                return g
        return None

    @property
    def is_purely_rational(self) -> bool:
        return not self.irr

    # -- membership ----------------------------------------------------------

    def in_group(self, v: ExactValue) -> bool:
        """Membership in G = V + Z (no [0,1] clamp).

        Each component n/den is tested by its reduced denominator.
        """
        den, nums = v.den, v.nums
        if not self.rational.admits(den // math.gcd(den, nums[0])):
            return False
        for s, n in zip(v.syms, nums[1:]):
            g = self.symbol_group(s)
            if g is None or not g.admits(den // math.gcd(den, n)):
                return False
        return True

    def member(self, v: ExactValue) -> bool:
        return self.in_group(v) and v.sign() >= 0 and v._cmp(1) <= 0

    # -- classification ------------------------------------------------------

    def classify(self) -> Classification:
        group_like = not self.rational.is_trivial or bool(self.irr)
        q_like = self.rational.is_all_rationals and all(g.is_all_rationals for _, g in self.irr)
        ring_like: bool | None
        if self.irr:
            ring_like = None
        else:
            ring_like = self.rational.is_ring_like
        return Classification(group_like, q_like, ring_like)

    # -- enumeration ---------------------------------------------------------

    def _layers(self) -> Iterator[list[ExactValue]]:
        """Yield, for h = 1, 2, ..., the elements of V ∩ (0,1] of height exactly h.

        Each layer comes sorted by ``sort_key``.  A value's height is the
        largest height of its components, so the tuples of components of
        height exactly h are split by the first component that reaches h:
        components before it lie below h, components after it at most h.
        A candidate's bounds are decided on its integer coordinates
        (``_in_unit``); only a kept one becomes an ``ExactValue``.
        """
        symbols = [s for s, _ in self.irr]
        heights = [_heights(self.rational, with_negative=bool(symbols))]
        heights += [_heights(g, with_negative=True) for _, g in self.irr]
        below: list[list[tuple[int, int]]] = [[] for _ in heights]
        while True:
            exact = [next(it) for it in heights]
            layer = []
            for i in range(len(heights)):
                upto = [b + e for b, e in zip(below[i + 1:], exact[i + 1:])]
                parts = below[:i] + [exact[i]] + upto
                for ratios in itertools.product(*parts):
                    v = _in_unit(ratios, symbols)
                    if v is not None:
                        layer.append(v)
            layer.sort(key=ExactValue.sort_key)
            yield layer
            for b, e in zip(below, exact):
                b += e

    def enumerate_values(self, budget: int) -> list[ExactValue]:
        """Deterministic, prefix-stable listing of V ∩ (0,1] up to the given height.

        Ordered by height, ties broken by (rational numerator, denominator,
        symbol name, coefficient).
        """
        if budget < 1:
            raise ValueError("budget must be >= 1")
        return [v for layer in itertools.islice(self._layers(), budget) for v in layer]

    def first_listed(self, keep: Callable[[ExactValue], bool], heights: int) -> ExactValue | None:
        """The first value ``enumerate_values`` lists for which keep holds,
        or None if none has height up to heights."""
        layers = itertools.islice(self._layers(), heights)
        return next((v for layer in layers for v in layer if keep(v)), None)

    def smallest_below(self, w: ExactValue) -> ExactValue:
        """First enumerated element of V strictly below w (w must exceed some element)."""
        if (v := self.first_listed(lambda v: v < w, 1 << 16)) is None:
            raise NotInV(f"no element of V found below {w}")
        return v

    # -- scaling -------------------------------------------------------------

    def scale_value_set(self, a: ExactValue) -> "GroupDescriptor":
        """Descriptor of V_a = {v/a : v in V} ∩ [0,1] for rational a in V."""
        if not a.is_rational or not self.is_purely_rational:
            raise NonRationalScale("scaling needs a rational value over a purely rational set")
        if not self.member(a) or a.sign() <= 0:
            raise NotInV(f"scale {a} is not a positive member of V")
        r = a.rational.numerator
        s = a.rational.denominator
        shift: dict[int, int] = {}
        for p, k in _prime_factors(r).items():
            shift[p] = shift.get(p, 0) + k
        for p, k in _prime_factors(s).items():
            shift[p] = shift.get(p, 0) - k
        exceptions = {p: e for p, e in self.rational.exceptions}
        for p, d in shift.items():
            e = exceptions.get(p, self.rational.default)
            exceptions[p] = e if e == INF else int(e) + d
        if any(e != INF and e < 0 for e in exceptions.values()):
            raise NotInV(f"scaled exponents negative; {a} is not in V")
        return GroupDescriptor.make(RationalGroup.make(self.rational.default, exceptions))

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rational": self.rational.to_json(),
            "irrationals": [
                {"name": s.name, "enclosure": s.to_json(), "group": g.to_json()}
                for s, g in self.irr
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "GroupDescriptor":
        rational = RationalGroup.from_json(data["rational"])
        irr = {}
        for entry in data.get("irrationals", []):
            s = IrrationalSymbol.from_json(entry["name"], entry["enclosure"])
            irr[s] = RationalGroup.from_json(entry["group"])
        return GroupDescriptor.make(rational, irr)


def check_all_in(values: Iterable[ExactValue], V: GroupDescriptor, what: str = "value") -> None:
    for v in values:
        if v.sign() <= 0:
            raise NotInV(f"{what} {v} is not positive")
        if not V.member(v):
            raise NotInV(f"{what} {v} is not in V")
