"""Weighted disjoint sums of chains: ultrahomogeneous but non-maximal measures.

A composite splits the space into one clopen piece per component and scales a
good measure on each piece.  Supported composites are coefficient-separable:
either a single component, or a purely rational component next to one whose
values carry a nonzero irrational coefficient except at 0 and 1 (integer
rational part).  Separability makes the decomposition of any clopen value
into per-component contributions finite and explicit, which is what the
maximality refuter exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .chain import AutomorphismPrefix, ClopenSet, GoodMeasureChain
from .cycles import exact_fill
from .errors import ComponentMixing, EffortExhausted, NotAValue, NotSeparable, SumMismatch
from .values import ExactValue, ONE, ZERO

#: option tries allowed to each maximality search
_EFFORT = 10**6

#: a cell of a composite partition: (component index, chain level, cell id)
CellRef = tuple[int, int, str]


@dataclass
class CompositeMeasure:
    components: list[tuple[GoodMeasureChain, Fraction]]
    #: index of the purely rational component and of the irrational one
    #: (both None for single-component composites)
    rational_index: int | None
    irrational_index: int | None

    @property
    def scales(self) -> list[Fraction]:
        return [s for _, s in self.components]


def weighted_sum(parts: Sequence[tuple[GoodMeasureChain, Fraction]]) -> CompositeMeasure:
    """Build a coefficient-separable composite; rejects everything else."""
    if not parts:
        raise ValueError("composite needs at least one component")
    total = sum((Fraction(s) for _, s in parts), Fraction(0))
    if total != 1:
        raise SumMismatch(f"scales sum to {total}, expected 1")
    if any(Fraction(s) <= 0 for _, s in parts):
        raise ValueError("scales must be positive")
    if len(parts) == 1:
        return CompositeMeasure([(parts[0][0], Fraction(parts[0][1]))], None, None)
    if len(parts) != 2:
        raise NotSeparable("only one- and two-component composites are supported")
    kinds = []
    for chain, _ in parts:
        V = chain.V
        if V.is_purely_rational:
            kinds.append("rational")
        elif V.rational.is_trivial:
            kinds.append("irrational")
        else:
            kinds.append("mixed")
    if sorted(kinds) != ["irrational", "rational"]:
        raise NotSeparable(
            "two-component composites need one purely rational component and one "
            "whose rational part is the integers (values separate by coefficients)"
        )
    ri = kinds.index("rational")
    ii = kinds.index("irrational")
    return CompositeMeasure([(c, Fraction(s)) for c, s in parts], ri, ii)


# ---------------------------------------------------------------------------
# clopen values of the composite
# ---------------------------------------------------------------------------


def _candidates(m: CompositeMeasure, t: ExactValue) -> list[tuple[ExactValue, ...]]:
    """Per-component unscaled contributions (u_0, ..., u_k) with
    sum_i scale_i * u_i = t and u_i in the i-th clopen values set.

    Separability keeps this list finite: the irrational component's
    contribution is pinned by the coefficients of t, up to the integer
    ambiguity at coefficient zero (0 or 1, i.e. none or all of the piece).
    """
    if m.rational_index is None:
        chain, s = m.components[0]
        u = t.scale(1 / s)
        return [(u,)] if chain.V.member(u) else []
    ri, ii = m.rational_index, m.irrational_index
    chain_r, s_r = m.components[ri]
    _chain_i, s_i = m.components[ii]
    out: list[tuple[ExactValue, ...]] = []
    for u_i in _pinned_irr_contributions(m, t):
        rest = t - u_i.scale(s_i)
        if not rest.is_rational:
            raise RuntimeError("coefficients failed to cancel; this is a bug")
        u_r = rest.scale(1 / s_r)
        if not chain_r.V.member(u_r):
            continue
        pair = [None, None]
        pair[ri], pair[ii] = u_r, u_i
        out.append(tuple(pair))
    return out


def _pinned_irr_contributions(m: CompositeMeasure, t: ExactValue) -> list[ExactValue]:
    """Unscaled irrational-component members whose coefficients match t.

    The coefficients of t pin the contribution completely except at
    coefficient zero, where the integer part may be 0 or 1 (none or all of
    the component's piece).
    """
    ii = m.irrational_index
    chain_i, s_i = m.components[ii]
    declared = chain_i.V.symbols()
    coeffs_u: dict = {}
    for sym, c in t.coeffs:
        if sym.name not in declared:
            return []
        coeff = c / s_i
        group = chain_i.V.symbol_group(declared[sym.name])
        if group is None or not group.contains(coeff):
            return []
        coeffs_u[declared[sym.name]] = coeff
    x = ExactValue.of(0, coeffs_u)
    ks = [0, 1] if x == ZERO else [-x.floor()]
    return [
        u for u in (ExactValue.of(k, coeffs_u) for k in ks) if chain_i.V.member(u)
    ]


def member(m: CompositeMeasure, t: ExactValue) -> bool:
    """Membership in the composite's clopen values set."""
    if t == ZERO or t == ONE:
        return True
    if not ZERO <= t <= ONE:
        return False
    return bool(_candidates(m, t))


def measure(m: CompositeMeasure, sets: Mapping[int, ClopenSet]) -> ExactValue:
    """Measure of a clopen set given per-component (scales applied here)."""
    total = ZERO
    for idx, U in sets.items():
        chain, s = m.components[idx]
        total = total + chain.measure(U).scale(s)
    return total


# ---------------------------------------------------------------------------
# maximality refutation
# ---------------------------------------------------------------------------


@dataclass
class MaximalityOutcome:
    feasible: bool
    #: per component: the realized positive weight tuples and witness stage
    realization: dict | None
    certificate: dict | None

    def to_json(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.realization is not None:
            out["realization"] = self.realization
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def maximality_refute(m: CompositeMeasure, targets: Sequence[ExactValue]) -> MaximalityOutcome:
    """Decide exactly whether a clopen partition with the given masses exists.

    Each target is decomposed into its finitely many per-component
    contribution splits; a partition exists iff contributions can be selected
    so that every component is used up exactly.  Feasible instances are
    realized per component through the chains' maximality witnesses;
    infeasible ones return the certificate naming the failing constraint.
    Raises EffortExhausted when the main search uses up ``_EFFORT`` option
    tries.  When a component's certificate search runs out instead, the "no"
    stands and the certificate names no ``failing_component``.
    """
    total = sum(targets[1:], targets[0]) if targets else ZERO
    if total != ONE:
        raise SumMismatch(f"targets sum to {total}, expected 1")
    if any(t.sign() <= 0 for t in targets):
        raise ValueError("targets must be positive")
    cand = []
    for t in targets:
        cs = _candidates(m, t)
        if not cs:
            raise NotAValue(f"{t} is not a clopen value of the composite")
        cand.append(cs)
    k = len(m.components)
    options = [[list(enumerate(option)) for option in cs] for cs in cand]
    picks = exact_fill(options, [ONE] * k, _EFFORT)
    if picks is not None:
        chosen = [cs[o] for cs, o in zip(cand, picks)]
        realization: dict = {}
        for i, (chain, scale) in enumerate(m.components):
            tup = [option[i] for option in chosen if option[i].sign() > 0]
            stage = chain.maximal_partition_witness(tup)
            realization[str(i)] = {
                "scale": str(scale),
                "weights": [u.to_json() for u in tup],
                "stage": stage,
            }
        return MaximalityOutcome(True, realization, None)
    certificate: dict = {
        "per_target_contributions": [
            [[u.to_json() for u in option] for option in cs] for cs in cand
        ]
    }
    if m.irrational_index is not None:
        ii = m.irrational_index
        _chain_i, s_i = m.components[ii]
        # contributions to the irrational component are pinned by the
        # irrational coefficients of each target, before any mass filtering
        certificate["coefficient_forced_contributions"] = [
            [str(u.scale(s_i)) for u in _pinned_irr_contributions(m, t)]
            for t in targets
        ]
        certificate["component_scales"] = [str(s) for s in m.scales]

    # prefer naming the coefficient-pinned component when it alone fails
    order = list(range(k))
    if m.irrational_index is not None:
        order.remove(m.irrational_index)
        order.insert(0, m.irrational_index)
    for i in order:
        solo = [[[(0, u)] for u in dict.fromkeys(o[i] for o in cs)] for cs in cand]
        try:
            fill = exact_fill(solo, [ONE], _EFFORT)
        except EffortExhausted:
            # the "no" is decided already; naming a later component instead
            # would make the certificate depend on the effort
            break
        if fill is None:
            certificate["failing_component"] = i
            certificate["required_total"] = "1"
            break
    return MaximalityOutcome(False, None, certificate)


# ---------------------------------------------------------------------------
# ultrahomogeneity: per-component extension of partial isomorphisms
# ---------------------------------------------------------------------------


def partial_isomorphism_extend_composite(
    m: CompositeMeasure, f: Mapping[CellRef, CellRef]
) -> dict[int, AutomorphismPrefix]:
    """Extend a weight-preserving bijection of composite cells componentwise.

    Every pair must stay inside one component: values attained inside
    different components differ (rational versus irrational coefficients),
    so a cross-component pair can never extend to a measure automorphism.
    """
    per_component: dict[int, dict[str, str]] = {}
    levels: dict[int, int] = {}
    for (ci, li, cell), (cj, lj, cell2) in f.items():
        if ci != cj:
            raise ComponentMixing(
                f"cell {cell} (component {ci}) maps to {cell2} (component {cj}); "
                "values in distinct components are incompatible"
            )
        if li != lj or levels.setdefault(ci, li) != li:
            raise ValueError("all cells of one component must sit at one level")
        per_component.setdefault(ci, {})[cell] = cell2
    out: dict[int, AutomorphismPrefix] = {}
    for i, (chain, _) in enumerate(m.components):
        if i in per_component:
            out[i] = chain.extend_partial_isomorphism(levels[i], per_component[i])
        else:
            out[i] = chain.identity_prefix(0)
    return out
