"""Cycle tuples, their morphisms, constructive lifts, and Rokhlin decisions.

A matrix whose rows have one nonzero entry is, up to its indexing partition,
a multiset of weighted cycles: a tuple of (weight, length) pairs.  Morphisms
group source cycles over target cycles with integer winding numbers.  This
module implements their verification and composition, bounded morphism
search, the ring-like product lift, amalgamation over Q-like value sets,
and the decision procedures for the (strong) Rokhlin property of the
automorphism group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    EffortExhausted,
    MassMismatch,
    NotGroupLike,
    NotQLike,
    NotRingLike,
    PreconditionFailed,
)
from .jsonutil import parse_int
from .partitions import common_refinement, maps_onto
from .values import ExactValue, GroupDescriptor, INF, ONE, ZERO, _is_prime, check_all_in

Entry = tuple[ExactValue, int]


@dataclass(frozen=True)
class CycleTuple:
    """Canonically sorted multiset of (weight, length) cycles."""

    entries: tuple[Entry, ...]

    @staticmethod
    def make(entries: Sequence[Entry]) -> "CycleTuple":
        for v, n in entries:
            if v.sign() <= 0:
                raise ValueError(f"cycle weight {v} must be positive")
            if n < 1:
                raise ValueError("cycle length must be at least 1")
        return CycleTuple(tuple(sorted(entries, key=_entry_key)))

    @property
    def mass(self) -> ExactValue:
        total = ZERO
        for v, n in self.entries:
            total = total + v.scale(n)
        return total

    def to_json(self) -> list:
        return [{"w": v.to_json(), "n": n} for v, n in self.entries]

    @staticmethod
    def from_json(data, symbols) -> "CycleTuple":
        return CycleTuple.make(
            [(ExactValue.from_json(e["w"], symbols), parse_int(e["n"])) for e in data]
        )


def _entry_key(e: Entry):
    return (e[0].sort_key(), e[1])


def _sorted_with_positions(entries: Sequence[Entry]) -> tuple[CycleTuple, list[int]]:
    """Canonical tuple plus the new position of each original entry."""
    order = sorted(range(len(entries)), key=lambda i: (_entry_key(entries[i]), i))
    positions = [0] * len(entries)
    for new, old in enumerate(order):
        positions[old] = new
    return CycleTuple(tuple(entries[i] for i in order)), positions


@dataclass(frozen=True)
class TupleMorphism:
    """Blocks of source entry indices, one block per target entry."""

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(blocks: Sequence[Sequence[int]]) -> "TupleMorphism":
        return TupleMorphism(tuple(tuple(sorted(b)) for b in blocks))

    def to_json(self) -> list:
        return [list(b) for b in self.blocks]

    @staticmethod
    def from_json(data) -> "TupleMorphism":
        return TupleMorphism.make([list(map(parse_int, b)) for b in data])


def identity_tuple_morphism(c: CycleTuple) -> TupleMorphism:
    return TupleMorphism.make([[i] for i in range(len(c.entries))])


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def verify_tuple_morphism(m: TupleMorphism, src: CycleTuple, tgt: CycleTuple) -> bool:
    """Blockwise mass identities and winding-number integrality, exactly."""
    if src.mass != tgt.mass:
        raise MassMismatch(f"masses differ: {src.mass} vs {tgt.mass}")
    if len(m.blocks) != len(tgt.entries):
        return False
    flat = [i for b in m.blocks for i in b]
    if sorted(flat) != list(range(len(src.entries))):
        return False
    block_of = {i: j for j, b in enumerate(m.blocks) for i in b}  # one block each, as checked
    if any(src.entries[i][1] % tgt.entries[j][1] for i, j in block_of.items()):
        return False
    return maps_onto(
        block_of,
        {i: v.scale(n) for i, (v, n) in enumerate(src.entries)},
        {j: w.scale(k) for j, (w, k) in enumerate(tgt.entries)},
    )


def compose_tuple_morphisms(outer: TupleMorphism, inner: TupleMorphism) -> TupleMorphism:
    """outer ∘ inner for inner: src -> mid and outer: mid -> tgt."""
    return TupleMorphism.make(
        [[i for mid in block for i in inner.blocks[mid]] for block in outer.blocks]
    )


def exact_fill(
    options: Sequence[Sequence[Sequence[tuple[int, ExactValue]]]],
    caps: Sequence[ExactValue],
    effort: int,
) -> list[int] | None:
    """Pick one option per item so that every bin ends exactly at its cap.

    ``options[i]`` lists item i's options: (bin, amount) pairs with distinct
    bins and amounts >= 0.  Depth-first in list order on an explicit stack, so
    the first choice found is the lexicographically least.  Returns the chosen
    option index per item, or None when no choice exists; raises
    EffortExhausted once ``effort`` option tries are used up.
    """
    sums = [ZERO] * len(caps)
    stack: list[tuple[int, list]] = []  # per placed item: its option, the sums it replaced
    tries = start = 0
    while True:
        i = len(stack)
        if i == len(options) and all(s == c for s, c in zip(sums, caps)):
            return [o for o, _ in stack]
        for o in range(start, len(options[i]) if i < len(options) else 0):
            tries += 1
            if tries > effort:
                raise EffortExhausted(f"effort {effort} used up without a verdict")
            option = options[i][o]
            if all(sums[b] + a <= caps[b] for b, a in option):
                stack.append((o, [(b, sums[b]) for b, _ in option]))
                for b, a in option:
                    sums[b] = sums[b] + a
                start = 0
                break
        else:  # no option of item i fits after ``start``: undo the last choice
            if not stack:
                return None
            o, replaced = stack.pop()
            for b, s in replaced:
                sums[b] = s
            start = o + 1


class _Slots:
    """One item's options for ``exact_fill``, built on access: the item's
    amount in each target slot its length fits.  Items share the slot list
    of their length, so memory stays linear in the input."""

    __slots__ = ("slots", "amount")

    def __init__(self, slots: list[int], amount: ExactValue):
        self.slots = slots
        self.amount = amount

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, o: int) -> tuple[tuple[int, ExactValue]]:
        return ((self.slots[o], self.amount),)


def find_tuple_morphism(
    src: CycleTuple, tgt: CycleTuple, effort: int = 10**6
) -> TupleMorphism | None:
    """Exhaustive blocked search for a morphism; None when none exists.  The
    first morphism in assignment order is the lexicographically least one.
    Raises EffortExhausted after ``effort`` placements without a verdict.
    """
    if src.mass != tgt.mass:
        raise MassMismatch(f"masses differ: {src.mass} vs {tgt.mass}")
    slots_of: dict[int, list[int]] = {}
    options: list[_Slots] = []
    for (v, n), equal in itertools.groupby(src.entries):  # equal entries share options
        if n not in slots_of:
            slots_of[n] = [j for j, (_w, k) in enumerate(tgt.entries) if n % k == 0]
        options += [_Slots(slots_of[n], v.scale(n))] * len(list(equal))
    chosen = exact_fill(options, [w.scale(k) for w, k in tgt.entries], effort)
    if chosen is None:
        return None
    blocks: list[list[int]] = [[] for _ in tgt.entries]
    for i, o in enumerate(chosen):
        blocks[options[i].slots[o]].append(i)
    return TupleMorphism.make(blocks)


# ---------------------------------------------------------------------------
# constructive lifts
# ---------------------------------------------------------------------------


def ring_product_lift(
    V: GroupDescriptor, c: CycleTuple, d: CycleTuple
) -> tuple[CycleTuple, TupleMorphism, TupleMorphism]:
    """The product tuple (v_i w_j, n_i m_j) with its projections onto c and d.

    Needs a ring-like value set (entrywise products must stay in V) and both
    masses equal to one (so the blockwise sums close up).
    """
    if V.classify().ring_like is not True:
        raise NotRingLike("value set is not (decidably) ring-like")
    if c.mass != ONE or d.mass != ONE:
        raise PreconditionFailed("masses are 1", f"{c.mass} and {d.mass}")
    raw: list[Entry] = []
    pairs: list[tuple[int, int]] = []
    for i, (v, n) in enumerate(c.entries):
        for j, (w, mm) in enumerate(d.entries):
            raw.append((v * w, n * mm))
            pairs.append((i, j))
    check_all_in([e[0] for e in raw], V, "product weight")
    u, positions = _sorted_with_positions(raw)
    blocks_c: list[list[int]] = [[] for _ in c.entries]
    blocks_d: list[list[int]] = [[] for _ in d.entries]
    for idx, (i, j) in enumerate(pairs):
        blocks_c[i].append(positions[idx])
        blocks_d[j].append(positions[idx])
    mc = TupleMorphism.make(blocks_c)
    md = TupleMorphism.make(blocks_d)
    if not verify_tuple_morphism(mc, u, c) or not verify_tuple_morphism(md, u, d):
        raise RuntimeError("product lift failed to verify; this is a bug")
    return u, mc, md


def qlike_amalgamate(
    V: GroupDescriptor,
    B0: CycleTuple,
    p0: TupleMorphism,
    B1: CycleTuple,
    p1: TupleMorphism,
    A: CycleTuple,
) -> tuple[CycleTuple, TupleMorphism, TupleMorphism]:
    """Amalgamate two covers of A over a Q-like value set, cycle by cycle.

    Within the preimages of one A-cycle all covering cycles are first lifted
    to a common length (the least common multiple of the winding numbers
    times the base length; the divided weights stay in V because V is
    Q-like), the two weight lists are refined jointly, and the refinement
    parts become the amalgam's cycles.  The returned square commutes exactly.
    """
    if not V.classify().q_like:
        raise NotQLike("value set is not Q-like")
    if not verify_tuple_morphism(p0, B0, A) or not verify_tuple_morphism(p1, B1, A):
        raise ValueError("p0/p1 are not verified morphisms onto A")
    c_entries: list[Entry] = []
    q0_blocks: list[list[int]] = [[] for _ in B0.entries]
    q1_blocks: list[list[int]] = [[] for _ in B1.entries]
    for t, (z_t, n_t) in enumerate(A.entries):
        idx0 = list(p0.blocks[t])
        idx1 = list(p1.blocks[t])
        wind0 = [B0.entries[i][1] // n_t for i in idx0]
        wind1 = [B1.entries[i][1] // n_t for i in idx1]
        W = math.lcm(*wind0, *wind1)
        lifted0 = [B0.entries[i][0].scale(Fraction(w, W)) for i, w in zip(idx0, wind0)]
        lifted1 = [B1.entries[i][0].scale(Fraction(w, W)) for i, w in zip(idx1, wind1)]
        ref = common_refinement(lifted0, lifted1, V)
        offset = len(c_entries)
        for z_s in ref.parts:
            c_entries.append((z_s, n_t * W))
        for pos, i in enumerate(idx0):
            q0_blocks[i].extend(offset + s for s in ref.left_blocks[pos])
        for pos, i in enumerate(idx1):
            q1_blocks[i].extend(offset + s for s in ref.right_blocks[pos])
    C, positions = _sorted_with_positions(c_entries)
    q0 = TupleMorphism.make([[positions[s] for s in b] for b in q0_blocks])
    q1 = TupleMorphism.make([[positions[s] for s in b] for b in q1_blocks])
    if not verify_tuple_morphism(q0, C, B0) or not verify_tuple_morphism(q1, C, B1):
        raise RuntimeError("amalgam legs failed to verify; this is a bug")
    if compose_tuple_morphisms(p0, q0) != compose_tuple_morphisms(p1, q1):
        raise RuntimeError("amalgam square does not commute; this is a bug")
    return C, q0, q1


# ---------------------------------------------------------------------------
# Rokhlin decision procedures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RokhlinVerdict:
    strong_rokhlin: str  # "yes" | "no" | "unknown"
    rokhlin: str
    certificate: dict


def rokhlin_decide(V: GroupDescriptor) -> RokhlinVerdict:
    """Decide the (strong) Rokhlin property of the automorphism group.

    Yes for rational value sets whose every prime exponent is 0 or infinite
    (the exponent table is the certificate), and for Q-like sets.  No
    exactly when ``divisibility_closure_check`` finds a quotient violation:
    some v and 1/n in V, n >= 2, with v/n not in V.  Unknown beyond that.

    The lemma behind the "no": let N_v be the automorphisms that fix some
    clopen set A of measure v, and N_n those that permute some clopen
    partition B_0, ..., B_{n-1} cyclically.  Both are open and invariant
    under conjugation.  The identity lies in N_v; N_n is nonempty by the
    subset condition and Akin's theorem (Trans. AMS 357, 2005: for a good
    measure, clopen sets of equal measure are carried onto each other by
    measure-preserving homeomorphisms).  A T in both would carry A ∩ B_i
    onto A ∩ B_{i+1}, so each A ∩ B_i would be a clopen set of measure
    v/n, which is not in V.  So N_v and N_n are disjoint, nonempty, open
    and invariant, no conjugacy class is dense, and neither property holds.

    A "no" on a rational set keeps its ``prime``/``exponent`` certificate,
    and one on a set holding every rational its ``contains_unit_rationals``
    /``non_divisible_symbol`` one, filled from the violation; any other
    "no" carries the violation itself.
    """
    cls = V.classify()
    if not cls.group_like:
        raise NotGroupLike("descriptor is not group-like")
    if cls.ring_like:
        cert = {"ring_like": True, "rational_group": V.rational.to_json()}
        return RokhlinVerdict("yes", "yes", cert)
    if cls.q_like:
        return RokhlinVerdict("yes", "yes", {"q_like": True})
    quotient = next((x for x in divisibility_closure_check(V) if x["kind"] == "quotient"), None)
    if quotient is None:
        return RokhlinVerdict("unknown", "unknown", {})
    if V.is_purely_rational:
        cert = {"prime": quotient["n"], "exponent": quotient["exponent"]}
    elif V.rational.is_all_rationals:
        cert = {"contains_unit_rationals": True, "non_divisible_symbol": quotient["symbol"]}
    else:
        cert = {"violation": quotient}
    return RokhlinVerdict("no", "no", cert)


def divisibility_closure_check(V: GroupDescriptor) -> list[dict]:
    """Decide whether Q = {n >= 2 : 1/n in V} is closed under products and V
    under division by Q, from the exponent tables alone.

    Write e_p for the rational group's exponent at the prime p.  Products
    fail iff some p has 0 < e_p < inf; the least such p gives n = p,
    m = p**e_p.  Quotients fail iff some p with e_p >= 1 has a finite
    exponent f in a component group (the rational group, then each symbol's
    in name order); the least such p and the first such group give
    v = 1/p**f or s/p**f, n = p.  Every prime listed in no table takes the
    defaults, so the listed primes and the least unlisted one decide both.

    A violation carries the exponent, not the power, which may be too long
    to write: ``{"kind": "product", "n": p, "exponent": e}`` stands for
    m = n**e, and ``{"kind": "quotient", "n": p, "exponent": f, "symbol":
    None or s}`` for v = 1/n**f or s/n**f.

    Returns at most one violation of each kind, the product first.  A
    quotient violation is a proof that neither Rokhlin property holds
    (``rokhlin_decide``), which answers "no" exactly when there is one.
    A descriptor that is not group-like raises ``NotGroupLike``, as in
    ``rokhlin_decide``.
    """
    if not V.classify().group_like:
        raise NotGroupLike("descriptor is not group-like")
    groups = [(None, V.rational), *V.irr]
    product = quotient = None
    for p in _deciding_primes(V):
        e = V.rational.exponent(p)
        if product is None and 0 < e < INF:
            product = {"kind": "product", "n": p, "exponent": int(e)}
        if quotient is None and e >= 1:
            for s, g in groups:
                f = g.exponent(p)
                if f != INF:
                    name = None if s is None else s.name
                    quotient = {"kind": "quotient", "n": p, "exponent": int(f), "symbol": name}
                    break
    return [x for x in (product, quotient) if x is not None]


def _deciding_primes(V: GroupDescriptor) -> list[int]:
    """The primes some exponent table of V lists, and the least prime none
    lists, in increasing order.  Every unlisted prime takes each table's
    default, so these primes decide any question asked prime by prime."""
    listed = {p for g in (V.rational, *(g for _, g in V.irr)) for p, _ in g.exceptions}
    unlisted = next(p for p in itertools.count(2) if p not in listed and _is_prime(p))
    return sorted(listed | {unlisted})


@dataclass(frozen=True)
class DichotomyVerdict:
    kind: str  # "strong_rokhlin_all" | "no_rokhlin"
    scale: ExactValue | None
    scaled_descriptor: GroupDescriptor | None
    violation: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "scale": self.scale.to_json() if self.scale else None,
            "scaled_descriptor": (
                self.scaled_descriptor.to_json() if self.scaled_descriptor else None
            ),
            "violation": self.violation,
        }


def dichotomy_analyze(
    V: GroupDescriptor,
    b: ExactValue | None = None,
    n: int | None = None,
    c: ExactValue | None = None,
) -> DichotomyVerdict:
    """Either every positive scale keeps the strong Rokhlin property (Q-like
    case) or the data pins a scaled value set whose automorphism group has
    no dense conjugacy class, with the divisibility violation that proves
    it.

    b and n, left out together, are taken from V (``_dichotomy_b_n``), and
    c, left out, is the first value ``enumerate_values`` lists in
    [b/n, 1/n].  A Q-like set needs none of them."""
    if V.classify().q_like:
        return DichotomyVerdict("strong_rokhlin_all", None, None, {})
    if (b is None) != (n is None):
        raise PreconditionFailed("b and n given together")
    if b is None:
        b, n = _dichotomy_b_n(V)
    if not V.member(b):
        raise PreconditionFailed("b in V", str(b))
    if b >= ONE:
        raise PreconditionFailed("b < 1", str(b))
    if n <= 1:
        raise PreconditionFailed("n > 1", str(n))
    b_over_n, one_over_n = b.scale(Fraction(1, n)), ExactValue.of(Fraction(1, n))
    if V.member(b_over_n):
        raise PreconditionFailed("b/n not in V", str(b_over_n))
    if c is None:
        c = _first_listed(V, lambda v: b_over_n <= v <= one_over_n, "c from V")
    if not V.member(c):
        raise PreconditionFailed("c in V", str(c))
    if not b_over_n <= c <= one_over_n:
        raise PreconditionFailed("c in [b/n, 1/n]", str(c))
    a = c.scale(n)
    scaled = V.scale_value_set(a)
    v = b.scale(1 / a.rational)
    if not scaled.member(v) or not scaled.member(one_over_n):
        raise RuntimeError("dichotomy data lost membership; this is a bug")
    if scaled.member(v.scale(Fraction(1, n))):
        raise RuntimeError("expected divisibility violation is absent; this is a bug")
    violation = {"kind": "quotient", "v": v.to_json(), "n": n}
    return DichotomyVerdict("no_rokhlin", a, scaled, violation)


#: The heights of V that ``_first_listed`` searches.  A group-like set is
#: dense in [0, 1], so the values it looks for lie within a few.
_LISTED_HEIGHTS = 1 << 10


#: The largest exponent f of a quotient violation whose v = 1/n**f (or
#: s/n**f) ``_dichotomy_b_n`` builds as b; a larger one is refused before
#: n**f is computed.
MAX_DICHOTOMY_EXPONENT = 1 << 16


def _dichotomy_b_n(V: GroupDescriptor) -> tuple[ExactValue, int]:
    """b and n for ``dichotomy_analyze`` from a set that is not Q-like: the
    v = 1/n**f or s/n**f and the prime n of ``divisibility_closure_check``'s
    quotient violation, if f is at most MAX_DICHOTOMY_EXPONENT; failing one,
    the least prime n at which some component group has a finite exponent,
    and the first listed value b below 1 with b/n not in V."""
    quotient = next((x for x in divisibility_closure_check(V) if x["kind"] == "quotient"), None)
    if quotient is not None:
        n, name, f = quotient["n"], quotient["symbol"], quotient["exponent"]
        if f > MAX_DICHOTOMY_EXPONENT:
            raise PreconditionFailed(
                f"quotient exponent at most {MAX_DICHOTOMY_EXPONENT}", f"exponent {f} at {n}"
            )
        power = Fraction(1, n ** f)
        if name is None:
            return ExactValue.of(power), n
        return ExactValue.of(0, {V.symbols()[name]: power}), n
    groups = (V.rational, *(g for _, g in V.irr))
    n = next(p for p in _deciding_primes(V) if any(g.exponent(p) != INF for g in groups))
    b = _first_listed(V, lambda v: v < ONE and not V.member(v.scale(Fraction(1, n))), "b from V")
    return b, n


def _first_listed(V: GroupDescriptor, keep, check: str) -> ExactValue:
    """The first value ``V.enumerate_values`` lists for which keep holds;
    PreconditionFailed(check) if none has height up to _LISTED_HEIGHTS."""
    if (v := V.first_listed(keep, _LISTED_HEIGHTS)) is None:
        raise PreconditionFailed(check, f"no value of height up to {_LISTED_HEIGHTS}")
    return v
