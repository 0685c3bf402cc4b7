"""Exact arithmetic over the group spanned by 1 and declared irrational symbols.

Every number handled by the package is an ``ExactValue``: a rational part plus
rational coefficients on finitely many irrational symbols.  Symbols are
declared together with an enclosure oracle (nested rational intervals) and are
linearly independent over the rationals together with 1 (checked for ``sqrt``
symbols, trusted for ``digits`` symbols), so equality is decided
coefficientwise and sign questions terminate by refining the enclosures.

Value sets ("clopen values sets") are described by a ``GroupDescriptor``:
a subgroup of the rationals given by prime exponents, plus one such subgroup
of coefficients per irrational symbol.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .errors import NonRationalScale, NotInV, PrecisionExhausted

#: Exponent value standing for "all powers of the prime are admitted".
INF = float("inf")

_FracLike = Fraction | int | str


def _frac(x: _FracLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# irrational symbols and their enclosures
# ---------------------------------------------------------------------------


def _sqrt_enclosure(radicand: int, shift: Fraction) -> Callable[[int], tuple[Fraction, Fraction]]:
    """Dyadic enclosures of sqrt(radicand) + shift, width 2**-k at stage k."""

    @functools.lru_cache(maxsize=64)
    def oracle(k: int) -> tuple[Fraction, Fraction]:
        scale = 1 << k
        a = math.isqrt(radicand * scale * scale)
        lo = Fraction(a, scale) + shift
        hi = Fraction(a + 1, scale) + shift
        return lo, hi

    return oracle


def _digits_enclosure(base: int, digits: str) -> Callable[[int], tuple[Fraction, Fraction]]:
    """Enclosures from an explicit digit expansion 0.d1 d2 ... in the given base.

    Only as many stages as declared digits are available; deeper requests
    raise ``PrecisionExhausted``.
    """

    if not 2 <= base <= 36:
        raise ValueError(f"digit base must lie in 2..36, got {base}")
    for d in digits:
        int(d, base)  # each character must be one digit in this base

    @functools.lru_cache(maxsize=64)
    def oracle(k: int) -> tuple[Fraction, Fraction]:
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
        return Fraction(acc, base**n), Fraction(acc + 1, base**n)

    return oracle


@dataclass(frozen=True)
class IrrationalSymbol:
    """A named irrational constant in (0,1) with a nested-interval oracle.

    Symbols are identified by name: two symbols with equal names are the same
    symbol.  Names must therefore be unique within any one descriptor.  The
    oracle maps a stage k to a rational interval of width at most 2**-k;
    successive intervals are nested.
    """

    name: str
    spec: tuple = field(compare=False)
    _oracle: Callable[[int], tuple[Fraction, Fraction]] = field(compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.enclosure(4)
        if not (lo >= 0 and hi <= 1):
            raise ValueError(f"symbol {self.name} must lie in (0,1), got [{lo},{hi}]")

    @staticmethod
    def sqrt(name: str, radicand: int, shift: _FracLike = 0) -> "IrrationalSymbol":
        if radicand < 0 or math.isqrt(radicand) ** 2 == radicand:
            raise ValueError(f"symbol {name}: sqrt({radicand}) is not an irrational real")
        shift = _frac(shift)
        return IrrationalSymbol(name, ("sqrt", radicand, shift), _sqrt_enclosure(radicand, shift))

    @staticmethod
    def digits(name: str, base: int, digits: str) -> "IrrationalSymbol":
        return IrrationalSymbol(name, ("digits", base, digits), _digits_enclosure(base, digits))

    def enclosure(self, k: int) -> tuple[Fraction, Fraction]:
        lo, hi = self._oracle(k)
        return lo, hi

    def __hash__(self):
        return hash(self.name)

    def __lt__(self, other: "IrrationalSymbol") -> bool:
        return self.name < other.name

    def to_json(self) -> dict:
        kind = self.spec[0]
        if kind == "sqrt":
            return {"kind": "sqrt", "radicand": self.spec[1], "shift": format_fraction(self.spec[2])}
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
# exact values
# ---------------------------------------------------------------------------

#: Comparison precision schedule starts at width 2**-_START_BITS and halves.
_START_BITS = 16
_MAX_BITS = 4096


@dataclass(frozen=True)
class ExactValue:
    """rational + sum of rational multiples of irrational symbols, canonical form.

    Zero coefficients are never stored, so equality is plain field equality.
    All arithmetic is exact; the comparison operators refine symbol enclosures
    until the order is determined.  The sign of an irrational value is worked
    out once per instance and then remembered.
    """

    rational: Fraction = Fraction(0)
    coeffs: tuple[tuple[IrrationalSymbol, Fraction], ...] = ()

    @staticmethod
    def of(q: _FracLike, coeffs: Mapping[IrrationalSymbol, _FracLike] | None = None) -> "ExactValue":
        items = tuple(
            sorted((s, _frac(c)) for s, c in (coeffs or {}).items() if _frac(c) != 0)
        )
        return ExactValue(_frac(q), items)

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.coeffs

    def coeff(self, symbol: IrrationalSymbol) -> Fraction:
        for s, c in self.coeffs:
            if s == symbol:
                return c
        return Fraction(0)

    def height(self) -> int:
        """max of numerator/denominator magnitudes over all components."""
        h = max(abs(self.rational.numerator), self.rational.denominator)
        for _, c in self.coeffs:
            h = max(h, abs(c.numerator), c.denominator)
        return h

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "ExactValue", sign: int) -> "ExactValue":
        q = self.rational + other.rational if sign > 0 else self.rational - other.rational
        if not other.coeffs:
            return ExactValue(q, self.coeffs)
        if not self.coeffs and sign > 0:
            return ExactValue(q, other.coeffs)
        # both coefficient tuples are sorted by symbol name: merge them,
        # keeping self's symbol on a tie and dropping a zero sum
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
        return ExactValue(q, tuple(out))

    def __add__(self, other: "ExactValue") -> "ExactValue":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactValue") -> "ExactValue":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactValue":
        return ExactValue.of(-self.rational, {s: -c for s, c in self.coeffs})

    def scale(self, k: _FracLike) -> "ExactValue":
        k = _frac(k)
        return ExactValue.of(self.rational * k, {s: c * k for s, c in self.coeffs})

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
        q = self.rational
        if not self.coeffs:
            return q, q
        # each bound as an int numerator and denominator, one Fraction at the end
        ln = hn = q.numerator
        ld = hd = q.denominator
        for s, c in self.coeffs:
            slo, shi = s.enclosure(bits)
            if c < 0:
                slo, shi = shi, slo
            cn, cd = c.numerator, c.denominator
            ln, ld = ln * cd * slo.denominator + cn * slo.numerator * ld, ld * cd * slo.denominator
            hn, hd = hn * cd * shi.denominator + cn * shi.numerator * hd, hd * cd * shi.denominator
        return Fraction(ln, ld), Fraction(hn, hd)

    def _cmp(self, r: Fraction | int) -> int:
        """sign(self - r) for a rational r, by refining this value's enclosure.

        Refines from width 2**-16, halving the width each round, until the
        enclosure lies strictly on one side of r.
        """
        if not self.coeffs:
            q = self.rational
            return (q > r) - (q < r)
        bits = _START_BITS
        while bits <= _MAX_BITS:
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

    @functools.cached_property
    def _irrational_sign(self) -> int:
        # kept in the instance dict, outside the dataclass fields, so
        # equality, hashing, repr and serialisation ignore it
        return self._cmp(0)

    def sign(self) -> int:
        if not self.coeffs:
            n = self.rational.numerator
            return (n > 0) - (n < 0)
        # a structurally nonzero irrational value is never 0
        return self._irrational_sign

    # The order of exact values is decided here and nowhere else.  Against a
    # rational side the irrational side's enclosure is refined directly
    # (against 0 through the memoised sign); two irrational values compare
    # by the sign of their difference.

    def __lt__(self, other: "ExactValue") -> bool:
        if not other.coeffs:
            q = other.rational
            if not self.coeffs:
                return self.rational < q
            return (self._cmp(q) if q else self.sign()) < 0
        if not self.coeffs:
            q = self.rational
            return (other._cmp(q) if q else other.sign()) > 0
        return self is not other and (self - other).sign() < 0

    def __le__(self, other: "ExactValue") -> bool:
        if not (self.coeffs or other.coeffs):
            return self.rational <= other.rational
        if self.coeffs and other.coeffs:
            return self is other or (self - other).sign() <= 0
        # an irrational value never equals a rational one
        return ExactValue.__lt__(self, other)

    def __gt__(self, other: "ExactValue") -> bool:
        return ExactValue.__lt__(other, self)

    def __ge__(self, other: "ExactValue") -> bool:
        return ExactValue.__le__(other, self)

    def floor(self) -> int:
        if not self.coeffs:
            return math.floor(self.rational)
        bits = _START_BITS
        while bits <= _MAX_BITS:
            lo, hi = self.interval(bits)
            if math.floor(lo) == math.floor(hi):
                return math.floor(lo)
            bits *= 2
        raise ArithmeticError("floor undecided at maximal precision")

    # -- serialisation -------------------------------------------------------

    def sort_key(self):
        return (
            self.rational.numerator,
            self.rational.denominator,
            tuple((s.name, c.numerator, c.denominator) for s, c in self.coeffs),
        )

    def to_json(self) -> dict:
        out: dict = {"q": format_fraction(self.rational)}
        if self.coeffs:
            out["irr"] = {s.name: format_fraction(c) for s, c in self.coeffs}
        return out

    @staticmethod
    def from_json(data: Mapping, symbols: Mapping[str, IrrationalSymbol]) -> "ExactValue":
        coeffs = {symbols[n]: parse_fraction(c) for n, c in data.get("irr", {}).items()}
        return ExactValue.of(parse_fraction(data["q"]), coeffs)

    def __str__(self):
        parts = []
        if self.rational or not self.coeffs:
            parts.append(format_fraction(self.rational))
        for s, c in self.coeffs:
            parts.append(f"{format_fraction(c)}*{s.name}")
        return " + ".join(parts)


ZERO = ExactValue.of(0)
ONE = ExactValue.of(1)


def format_fraction(q: Fraction) -> str:
    q = _frac(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text) -> Fraction:
    """An exact fraction from a string, an int or a Fraction.

    Binary floats (a JSON ``0.1`` is not 1/10) and bools are rejected.
    """
    if isinstance(text, (float, bool)):
        raise TypeError(f"inexact number {text!r}; write fractions as strings such as \"1/10\"")
    return _frac(text)


def parse_int(text) -> int:
    """An integer from a string or an int; floats and bools are rejected, not truncated."""
    if isinstance(text, (float, bool)):
        raise TypeError(f"inexact number {text!r} where an integer is required")
    return int(text)


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

    def contains(self, q: Fraction) -> bool:
        d = _frac(q).denominator
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

    def finite_exponent_witness(self) -> tuple[int, int] | None:
        """Smallest prime with exponent outside {0, inf}, with its exponent."""
        for p, e in self.exceptions:
            if e not in (0, INF):
                return p, int(e)
        return None

    def to_json(self) -> dict:
        return {
            "default": "inf" if self.default == INF else "0",
            "exceptions": {str(p): ("inf" if e == INF else int(e)) for p, e in self.exceptions},
        }

    @staticmethod
    def from_json(data: Mapping) -> "RationalGroup":
        default = INF if data.get("default") == "inf" else 0
        exceptions = {
            parse_int(p): (INF if e == "inf" else parse_int(e))
            for p, e in data.get("exceptions", {}).items()
        }
        return RationalGroup.make(default, exceptions)


def _heights(group: RationalGroup, with_negative: bool) -> Iterator[list[Fraction]]:
    """Yield, for h = 1, 2, ..., the members of the group of height exactly h.

    num/den in lowest terms has height max(|num|, den) and lies in the group
    iff 1/den does.  Negative members are included only when asked for.
    """
    yield [Fraction(-1), Fraction(0), Fraction(1)] if with_negative else [Fraction(0), Fraction(1)]
    dens = [1]  # admitted denominators below h
    h = 1
    while True:
        h += 1
        nums = (h, -h) if with_negative else (h,)
        out = [Fraction(n, d) for d in dens if math.gcd(h, d) == 1 for n in nums]
        if group.contains(Fraction(1, h)):
            dens.append(h)
            lo = -h if with_negative else 0
            out += [Fraction(n, h) for n in range(lo + 1, h) if math.gcd(n, h) == 1]
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
    group times s.  The set is countably infinite iff the rational component
    is bigger than Z or at least one symbol is declared; ``infinite`` is the
    user's assertion of that fact and is checked against it.
    """

    rational: RationalGroup
    irr: tuple[tuple[IrrationalSymbol, RationalGroup], ...] = ()
    infinite: bool = True

    @staticmethod
    def make(
        rational: RationalGroup,
        irr: Mapping[IrrationalSymbol, RationalGroup] | None = None,
        infinite: bool | None = None,
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
        derived = not rational.is_trivial or bool(items)
        if infinite is None:
            infinite = derived
        return GroupDescriptor(rational, items, infinite and derived)

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
            if s == symbol:
                return g
        return None

    @property
    def is_purely_rational(self) -> bool:
        return not self.irr

    # -- membership ----------------------------------------------------------

    def in_group(self, v: ExactValue) -> bool:
        """Membership in G = V + Z (no [0,1] clamp)."""
        if not self.rational.contains(v.rational):
            return False
        for s, c in v.coeffs:
            g = self.symbol_group(s)
            if g is None or not g.contains(c):
                return False
        return True

    def member(self, v: ExactValue) -> bool:
        return self.in_group(v) and v.sign() >= 0 and v._cmp(1) <= 0

    # -- classification ------------------------------------------------------

    def classify(self) -> Classification:
        group_like = self.infinite and (not self.rational.is_trivial or bool(self.irr))
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
        """
        symbols = [s for s, _ in self.irr]
        heights = [_heights(self.rational, with_negative=bool(symbols))]
        heights += [_heights(g, with_negative=True) for _, g in self.irr]
        below: list[list[Fraction]] = [[] for _ in heights]
        while True:
            exact = [next(it) for it in heights]
            layer = []
            for i in range(len(heights)):
                upto = [b + e for b, e in zip(below[i + 1:], exact[i + 1:])]
                parts = below[:i] + [exact[i]] + upto
                for q, *cs in itertools.product(*parts):
                    v = ExactValue(q, tuple((s, c) for s, c in zip(symbols, cs) if c))
                    if v.sign() > 0 and v._cmp(1) <= 0:
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

    def smallest_below(self, w: ExactValue) -> ExactValue:
        """First enumerated element of V strictly below w (w must exceed some element)."""
        for layer in itertools.islice(self._layers(), 1 << 16):
            for v in layer:
                if v < w:
                    return v
        raise NotInV(f"no element of V found below {w}")

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
        return GroupDescriptor.make(rational, irr, data.get("infinite"))


def check_all_in(values: Iterable[ExactValue], V: GroupDescriptor, what: str = "value") -> None:
    for v in values:
        if v.sign() <= 0:
            raise NotInV(f"{what} {v} is not positive")
        if not V.member(v):
            raise NotInV(f"{what} {v} is not in V")
