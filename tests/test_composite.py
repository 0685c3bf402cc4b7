"""Composite measures: weighted sums, value decomposition, refutation."""

import random
from fractions import Fraction

import pytest

from goodmeasures import composite
from goodmeasures.chain import ClopenSet, GoodMeasureChain
from goodmeasures.composite import (
    _candidates,
    maximality_refute,
    measure,
    member,
    partial_isomorphism_extend_composite,
    weighted_sum,
)
from goodmeasures.errors import ComponentMixing, NotAValue, NotSeparable, SumMismatch
from goodmeasures.values import ONE, ZERO

from conftest import E, alpha_module, random_split, value_pool


@pytest.fixture()
def example_composite(triadic):
    """(1/3) * 3-adic measure next to (2/3) * (Z + Z*alpha) measure."""
    c1 = GoodMeasureChain(triadic)
    c1.run_schedule(2)
    c2 = GoodMeasureChain(alpha_module())
    c2.run_schedule(2)
    return weighted_sum([(c1, Fraction(1, 3)), (c2, Fraction(2, 3))])


# -- construction -------------------------------------------------------------


def test_single_component(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(1)
    m = weighted_sum([(ch, Fraction(1))])
    assert member(m, E("1/2"))
    assert not member(m, E("1/3"))


def test_scale_sum_checked(triadic):
    c1 = GoodMeasureChain(triadic)
    c2 = GoodMeasureChain(alpha_module())
    with pytest.raises(SumMismatch):
        weighted_sum([(c1, Fraction(1, 2)), (c2, Fraction(1, 3))])


def test_two_rational_components_rejected(dyadic, triadic):
    c1 = GoodMeasureChain(dyadic)
    c2 = GoodMeasureChain(triadic)
    with pytest.raises(NotSeparable):
        weighted_sum([(c1, Fraction(1, 2)), (c2, Fraction(1, 2))])


# -- membership -----------------------------------------------------------------


def test_member_third(example_composite):
    assert member(example_composite, E("1/3"))


def test_member_alpha_scaled(example_composite):
    sym = alpha_module().symbols()["alpha"]
    assert member(example_composite, E(0, {sym: Fraction(2, 3)}))
    assert member(example_composite, E(Fraction(1, 9), {sym: Fraction(2, 3)}))
    # alpha coefficient outside (2/3)*Z is not attained
    assert not member(example_composite, E(0, {sym: Fraction(1, 3)}))


def test_member_rational_bounds(example_composite):
    assert member(example_composite, E(0))
    assert member(example_composite, E(1))
    assert not member(example_composite, E("1/2"))  # 1/2 not in (1/3)*V1 + {0, 2/3}


# -- measure queries ----------------------------------------------------------------


def test_measure_is_scaled_sum(example_composite):
    rng = random.Random(3)
    m = example_composite
    for _ in range(200):
        sets = {}
        expected = E(0)
        for idx, (chain, scale) in enumerate(m.components):
            level = rng.randint(0, chain.depth)
            cells = [c for c in chain.levels[level].cells if rng.random() < 0.5]
            U = ClopenSet.of(level, cells)
            sets[idx] = U
            expected = expected + chain.measure(U).scale(scale)
        assert measure(m, sets) == expected


# -- maximality refutation ------------------------------------------------------------


def test_refute_thirds_infeasible(example_composite):
    out = maximality_refute(example_composite, [E("1/3")] * 3)
    assert not out.feasible
    cert = out.certificate
    assert cert["failing_component"] == 1
    assert cert["coefficient_forced_contributions"] == [["0", "2/3"]] * 3


def test_refute_defining_partition_feasible(example_composite):
    out = maximality_refute(example_composite, [E("1/3"), E("2/3")])
    assert out.feasible
    assert out.realization["0"]["weights"] == [{"q": "1"}]
    assert out.realization["1"]["weights"] == [{"q": "1"}]


def test_refute_finer_feasible(example_composite):
    sym = alpha_module().symbols()["alpha"]
    a23 = E(0, {sym: Fraction(2, 3)})
    targets = [E("1/3"), a23, E("2/3") - a23]
    out = maximality_refute(example_composite, targets)
    assert out.feasible


def test_refute_rejects_non_values(example_composite):
    with pytest.raises(NotAValue):
        maximality_refute(example_composite, [E("1/2"), E("1/2")])
    with pytest.raises(SumMismatch):
        maximality_refute(example_composite, [E("1/3"), E("1/3")])


@pytest.mark.parametrize("effort", [5, 8, 9, 10**6])
def test_refute_no_survives_an_exhausted_certificate_search(example_composite, monkeypatch, effort):
    # the main search decides within 5 tries; naming component 1 takes 9
    monkeypatch.setattr(composite, "_EFFORT", effort)
    out = maximality_refute(example_composite, [E("1/9")] * 9)
    assert not out.feasible
    if effort >= 9:
        assert out.certificate["failing_component"] == 1
        assert out.certificate["required_total"] == "1"
    else:
        assert "failing_component" not in out.certificate
        assert "required_total" not in out.certificate


def test_refute_single_component_delegates(triadic):
    ch = GoodMeasureChain(triadic)
    ch.run_schedule(1)
    m = weighted_sum([(ch, Fraction(1))])
    out = maximality_refute(m, [E("1/3")] * 3)
    assert out.feasible


def _recursive_refute(m, targets):
    """The recursive search and certificate that exact_fill replaced, kept as
    the reference (input checks omitted: every target here is a value)."""
    cand = [_candidates(m, t) for t in targets]
    k = len(m.components)
    chosen = []

    def search(j, sums):
        if j == len(targets):
            return all(s == ONE for s in sums)
        for option in cand[j]:
            nxt = tuple(sums[i] + option[i] for i in range(k))
            if any(s > ONE for s in nxt):
                continue
            chosen.append(option)
            if search(j + 1, nxt):
                return True
            chosen.pop()
        return False

    if search(0, tuple(ZERO for _ in range(k))):
        return True, [[option[i] for option in chosen if option[i].sign() > 0]
                      for i in range(k)]

    def solo(i, j, acc):
        if j == len(targets):
            return acc == ONE
        seen = set()
        for option in cand[j]:
            u = option[i]
            if u in seen:
                continue
            seen.add(u)
            if acc + u <= ONE and solo(i, j + 1, acc + u):
                return True
        return False

    order = list(range(k))
    if m.irrational_index is not None:
        order.remove(m.irrational_index)
        order.insert(0, m.irrational_index)
    return False, next((i for i in order if not solo(i, 0, ZERO)), None)


def test_refute_matches_recursive_search(example_composite):
    m = example_composite
    rng = random.Random(8)
    triadic, alpha_pool = m.components[0][0].V, value_pool(alpha_module(), 4)
    feasible = infeasible = 0
    for _ in range(80):
        if rng.random() < 0.4:
            # scaled pieces of a partition of each component: always feasible
            pieces = [p.scale(Fraction(1, 3)) for p in random_split(rng, triadic, ONE, 4)]
            pieces += [p.scale(Fraction(2, 3))
                       for p in random_split(rng, alpha_module(), ONE, 3, alpha_pool)]
        else:
            # rational targets: feasible iff one of them holds the whole irrational piece
            pieces = random_split(rng, triadic, ONE, 6)
        rng.shuffle(pieces)
        targets = []
        for p in pieces:
            if targets and rng.random() < 0.2:
                targets[-1] = targets[-1] + p
            else:
                targets.append(p)
        ok, detail = _recursive_refute(m, targets)
        out = maximality_refute(m, targets)
        assert out.feasible == ok
        if ok:
            feasible += 1
            for i, weights in enumerate(detail):
                assert out.realization[str(i)]["weights"] == [u.to_json() for u in weights]
        else:
            infeasible += 1
            assert out.certificate.get("failing_component") == detail
    assert feasible > 10 and infeasible > 10


# -- ultrahomogeneity ---------------------------------------------------------------------


def test_extend_identity(example_composite):
    m = example_composite
    chain0 = m.components[0][0]
    cells = list(chain0.levels[1].cells)
    f = {(0, 1, c): (0, 1, c) for c in cells}
    prefixes = partial_isomorphism_extend_composite(m, f)
    assert chain0.prefix_valid(prefixes[0])


def test_extend_swap_in_component(example_composite):
    m = example_composite
    chain0 = m.components[0][0]
    L = chain0.levels[1]
    same = [c for c in L.cells if L.weight(c) == L.weight(L.cells[0])]
    if len(same) < 2:
        pytest.skip("level has no equal pair")
    f = {(0, 1, same[0]): (0, 1, same[1])}
    prefixes = partial_isomorphism_extend_composite(m, f)
    assert prefixes[0].maps[1][same[0]] == same[1]
    assert chain0.prefix_valid(prefixes[0])


def test_extend_rejects_component_mixing(example_composite):
    m = example_composite
    c0 = m.components[0][0].levels[1].cells[0]
    c1 = m.components[1][0].levels[1].cells[0]
    with pytest.raises(ComponentMixing):
        partial_isomorphism_extend_composite(m, {(0, 1, c0): (1, 1, c1)})


def test_extend_random_partial_isomorphisms(example_composite):
    rng = random.Random(29)
    m = example_composite
    for _ in range(20):
        f = {}
        for idx, (chain, _) in enumerate(m.components):
            level = rng.randint(1, chain.depth)
            L = chain.levels[level]
            by_weight = {}
            for c in L.cells:
                by_weight.setdefault(str(L.weight(c)), []).append(c)
            for group in by_weight.values():
                chosen = [c for c in group if rng.random() < 0.6]
                rotated = chosen[1:] + chosen[:1]
                for a, b in zip(chosen, rotated):
                    f[(idx, level, a)] = (idx, level, b)
        if not f:
            continue
        prefixes = partial_isomorphism_extend_composite(m, f)
        for idx, (chain, _) in enumerate(m.components):
            assert chain.prefix_valid(prefixes[idx])
        for (ci, li, cell), (_, _, target) in f.items():
            assert prefixes[ci].maps[li][cell] == target
