"""Balanced matrices: validation, decomposition, lifts, witnesses, transport."""

import random

import pytest

from goodmeasures import matrices
from goodmeasures.chain import AutomorphismPrefix, GoodMeasureChain
from goodmeasures.errors import DepthTooShallow, NotCycleObject, NotEquiSummed, WeightMismatch
from goodmeasures.matrices import (
    BalancedMatrix,
    CycleMatrix,
    MatrixMorphism,
    compatible,
    compatible_witness,
    conjugate_transport_check,
    cycle_decompose,
    identity_matrix_morphism,
    in_cycle_category,
    in_morphism_neighbourhood,
    lift_cycle,
    matrix_of_prefix,
    reverse_projection,
    to_cycle_object,
    validate,
    verify_matrix_morphism,
)
from goodmeasures.partitions import PartitionMorphism, WeightedPartition, split_cell, verify_morphism
from goodmeasures.values import ONE, ZERO

from conftest import E, random_balanced_matrix, random_equi_summed


def halves_chain(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.absorb_object(WeightedPartition.make([("x0", E("1/2")), ("x1", E("1/2"))]))
    return ch


def diag_matrix(chain, level):
    P = chain.levels[level]
    return BalancedMatrix(level, {(c, c): P.weight(c) for c in P.cells})


def two_cycle(chain, level):
    a, b = chain.levels[level].cells
    return BalancedMatrix(level, {(a, b): E("1/2"), (b, a): E("1/2")})


def mixing_matrix(chain, level):
    a, b = chain.levels[level].cells
    q = E("1/4")
    return BalancedMatrix(level, {(a, a): q, (a, b): q, (b, a): q, (b, b): q})


# -- validation ---------------------------------------------------------------


def test_validate_diagonal(dyadic):
    ch = halves_chain(dyadic)
    assert validate(ch, diag_matrix(ch, 1))


def test_validate_two_cycle(dyadic):
    ch = halves_chain(dyadic)
    assert validate(ch, two_cycle(ch, 1))


def test_validate_rejects_unbalanced(dyadic):
    ch = halves_chain(dyadic)
    a, b = ch.levels[1].cells
    bad = BalancedMatrix(1, {(a, b): E("1/2"), (b, a): E("1/4"), (b, b): E("1/4")})
    assert not validate(ch, bad)


def test_validate_rejects_foreign_weights(triadic, dyadic):
    ch = halves_chain(dyadic)
    a, b = ch.levels[1].cells
    bad = BalancedMatrix(1, {(a, b): E("1/3"), (a, a): E("1/6"),
                             (b, a): E("1/3"), (b, b): E("1/6")})
    assert not validate(ch, bad)


# -- cycle decomposition ---------------------------------------------------------


def test_decompose_single_cycle_is_itself(dyadic):
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    out = cycle_decompose(A)
    assert len(out) == 1
    assert out[0].entries() == dict(A.entries)


def test_decompose_mixing_matrix(dyadic):
    ch = halves_chain(dyadic)
    A = mixing_matrix(ch, 1)
    out = cycle_decompose(A)
    kinds = sorted((len(c.vertices), str(c.weight)) for c in out)
    assert kinds == [(1, "1/4"), (1, "1/4"), (2, "1/4")]


def test_decompose_sums_back_and_counts(dyadic, triadic):
    rng = random.Random(31)
    for V in (dyadic, triadic):
        for _ in range(40):
            entries = random_equi_summed(rng, V, rng.randint(2, 6), rng.randint(1, 4))
            if not entries:
                continue
            cycles = cycle_decompose(entries)
            assert len(cycles) <= len(entries)
            acc = {}
            for c in cycles:
                for e, w in c.entries().items():
                    acc[e] = acc.get(e, ZERO) + w
            assert acc == entries
            for c in cycles:
                # weights stay in the group the entries generate
                assert V.in_group(c.weight)


def test_decompose_rejects_non_equi_summed():
    with pytest.raises(NotEquiSummed):
        cycle_decompose({("a", "b"): E("1/2")})
    with pytest.raises(NotEquiSummed):
        cycle_decompose({("a", "b"): E("1/2"), ("b", "a"): E("-1/2")})


# -- cycle objects -----------------------------------------------------------------


def test_to_cycle_object_fixed_point(dyadic):
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    C, proj = to_cycle_object(ch, A)
    assert C is A
    assert proj.underlying.mapping == {c: c for c in ch.levels[1].cells}


def test_to_cycle_object_mixing(dyadic):
    ch = halves_chain(dyadic)
    A = mixing_matrix(ch, 1)
    C, proj = to_cycle_object(ch, A)
    assert in_cycle_category(C)
    assert validate(ch, C)
    assert verify_matrix_morphism(ch, proj)


def test_to_cycle_object_below_top(dyadic):
    ch = halves_chain(dyadic)
    ch.run_schedule(2)
    ch.ensure_depth(2)
    A = mixing_matrix(ch, 1)
    assert A.level < ch.depth
    C, proj = to_cycle_object(ch, A)
    assert in_cycle_category(C) and validate(ch, C)
    assert verify_matrix_morphism(ch, proj)


# -- lifts ---------------------------------------------------------------------------


def test_lift_cycle_identity(dyadic):
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    P = ch.levels[1]
    ident = PartitionMorphism(P, P, {c: c for c in P.cells})
    B = lift_cycle(ch, A, ident, 1)
    assert B.entries == A.entries


def test_lift_cycle_self_loop_split(dyadic):
    ch = GoodMeasureChain(dyadic)
    A = BalancedMatrix(0, {("r", "r"): ONE})
    ch.absorb_object(WeightedPartition.make([("x0", E("1/2")), ("x1", E("1/2"))]))
    link = ch.links[0]
    B = lift_cycle(ch, A, link, 1)
    P = ch.levels[1]
    assert B.entries == {(c, c): P.weight(c) for c in P.cells}
    assert validate(ch, B)


def test_lift_cycle_two_cycle_uneven_split(dyadic):
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    a, b = ch.levels[1].cells
    R, pi = split_cell(ch.levels[1], a, [E("1/4"), E("1/4")], dyadic)
    ch._append_level(R, pi)
    B = lift_cycle(ch, A, pi, 2)
    assert validate(ch, B)
    m = MatrixMorphism(pi, B, A)
    assert verify_matrix_morphism(ch, m)


def test_lift_cycle_rejects_invalid_matrix(dyadic):
    ch = halves_chain(dyadic)
    a, b = ch.levels[1].cells
    A = BalancedMatrix(1, {(a, b): E("1/2"), (b, a): E("1/4")})
    P = ch.levels[1]
    with pytest.raises(ValueError, match="not a valid balanced matrix"):
        lift_cycle(ch, A, PartitionMorphism(P, P, {c: c for c in P.cells}), 1)


def test_lift_cycle_rejects_non_cycle(dyadic):
    ch = halves_chain(dyadic)
    A = mixing_matrix(ch, 1)
    P = ch.levels[1]
    ident = PartitionMorphism(P, P, {c: c for c in P.cells})
    with pytest.raises(NotCycleObject):
        lift_cycle(ch, A, ident, 1)


def test_lift_cycle_refuses_a_copy_of_a_level_with_other_weights(sqrt2_dyadic):
    """A source with level 1's cells but its two weights swapped maps onto
    level 0 as a valid morphism, yet the lift it would give is no valid
    matrix; a target copy of the index level with swapped weights, under a
    valid morphism, would give a lift that p does not project onto A.  Both
    are refused; a copy with the level's own weights lifts as the level."""
    ch = GoodMeasureChain(sqrt2_dyadic).run_schedule(2)
    L0, L1 = ch.levels[0], ch.levels[1]
    a, b = L1.cells
    swapped = WeightedPartition.make([(a, L1.weights[b]), (b, L1.weights[a])])
    p = PartitionMorphism(swapped, L0, {a: "r", b: "r"})
    assert verify_morphism(p)
    A = BalancedMatrix(0, {("r", "r"): ONE})
    with pytest.raises(ValueError, match="^morphism source weights differ from the given chain level's$"):
        lift_cycle(ch, A, p, 1)
    copy = PartitionMorphism(WeightedPartition(L1.cells, dict(L1.weights)), L0, p.mapping)
    assert lift_cycle(ch, A, copy, 1) == lift_cycle(ch, A, ch.links[0], 1)
    q = PartitionMorphism(L1, swapped, {a: b, b: a})
    assert verify_morphism(q)
    A1 = diag_matrix(ch, 1)
    with pytest.raises(ValueError, match="^morphism target weights differ from the matrix index"):
        lift_cycle(ch, A1, q, 1)


# -- reverse projection -----------------------------------------------------------------


def test_reverse_projection_identity(dyadic):
    ch = halves_chain(dyadic)
    A = diag_matrix(ch, 1)
    C, r = reverse_projection(ch, identity_matrix_morphism(ch, A))
    assert verify_matrix_morphism(ch, r)


def test_reverse_projection_two_cycle_over_loop(dyadic):
    ch = GoodMeasureChain(dyadic)
    loop = BalancedMatrix(0, {("r", "r"): ONE})
    ch.absorb_object(WeightedPartition.make([("x0", E("1/2")), ("x1", E("1/2"))]))
    B = two_cycle(ch, 1)
    p = MatrixMorphism(ch.composite_morphism(1, 0), B, loop)
    assert verify_matrix_morphism(ch, p)
    C, r = reverse_projection(ch, p)
    assert verify_matrix_morphism(ch, r)
    proj = ch.composite_mapping(C.level, 0)
    for c in ch.levels[C.level].cells:
        assert p.underlying.mapping[r.underlying.mapping[c]] == proj[c]


def test_reverse_projection_random(dyadic):
    rng = random.Random(93)
    for _ in range(10):
        ch = GoodMeasureChain(dyadic)
        ch.run_schedule(2)
        level = rng.randint(1, min(2, ch.depth))
        A = random_balanced_matrix(rng, ch, level)
        assert validate(ch, A)
        Bc, p = to_cycle_object(ch, A)
        C, r = reverse_projection(ch, p)
        proj = ch.composite_mapping(C.level, A.level)
        f = p.underlying.mapping
        for c in ch.levels[C.level].cells:
            assert f[r.underlying.mapping[c]] == proj[c]


def test_reverse_projection_non_projection_morphism(dyadic):
    """The triangle also closes when the underlying map is not a chain
    projection (here: projection twisted by an equal-weight permutation)."""
    rng = random.Random(94)
    for _ in range(6):
        ch = GoodMeasureChain(dyadic)
        ch.run_schedule(2)
        j = ch.depth
        i = 1
        B = random_balanced_matrix(rng, ch, j)
        Pi = ch.levels[i]
        by_weight = {}
        for c in Pi.cells:
            by_weight.setdefault(str(Pi.weight(c)), []).append(c)
        twist = {}
        for group in by_weight.values():
            for a, b in zip(group, group[1:] + group[:1]):
                twist[a] = b
        f = {c: twist[anc] for c, anc in ch.composite_mapping(j, i).items()}
        acc = {}
        for (q, q2), w in B.entries.items():
            key = (f[q], f[q2])
            acc[key] = acc.get(key, ZERO) + w
        A = BalancedMatrix(i, acc)
        assert validate(ch, A)
        p = MatrixMorphism(PartitionMorphism(ch.levels[j], Pi, f), B, A)
        assert verify_matrix_morphism(ch, p)
        C, r = reverse_projection(ch, p)
        proj = ch.composite_mapping(C.level, i)
        for c in ch.levels[C.level].cells:
            assert f[r.underlying.mapping[c]] == proj[c]


# -- compatibility ---------------------------------------------------------------------


def test_compatible_identity_vs_diagonal(dyadic):
    ch = halves_chain(dyadic)
    sigma = ch.identity_prefix()
    assert compatible(ch, sigma, diag_matrix(ch, 1))
    assert not compatible(ch, sigma, two_cycle(ch, 1))


def test_compatible_transposition_vs_two_cycle(dyadic):
    ch = halves_chain(dyadic)
    a, b = ch.levels[1].cells
    sigma = ch.extend_partial_isomorphism(1, {a: b})
    assert compatible(ch, sigma, two_cycle(ch, 1))
    assert not compatible(ch, sigma, diag_matrix(ch, 1))


def test_compatible_depth_guard(dyadic):
    ch = halves_chain(dyadic)
    sigma = ch.identity_prefix(0)
    with pytest.raises(DepthTooShallow):
        compatible(ch, sigma, diag_matrix(ch, 1))


def test_witness_diagonal(dyadic):
    ch = halves_chain(dyadic)
    A = diag_matrix(ch, 1)
    sigma = compatible_witness(ch, A)
    assert compatible(ch, sigma, A)


def test_witness_two_cycle(dyadic):
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    sigma = compatible_witness(ch, A)
    assert compatible(ch, sigma, A)
    anc = ch.composite_mapping(sigma.depth, 1)
    m = sigma.top_map
    a, b = ch.levels[1].cells
    assert all(anc[m[c]] != anc[c] for c in ch.levels[sigma.depth].cells)


def test_witness_mixing(dyadic):
    ch = halves_chain(dyadic)
    A = mixing_matrix(ch, 1)
    sigma = compatible_witness(ch, A)
    assert compatible(ch, sigma, A)


def test_witness_checks_a_cycle_object_once(dyadic, monkeypatch):
    """A matrix in the cycle category is its own representative, so the
    witness is checked against it once; a matrix that needs a lift is
    checked against its representative and itself.  The verdict is the same."""
    calls = []
    real = matrices.compatible

    def counting(chain, sigma, A):
        calls.append(A)
        return real(chain, sigma, A)

    monkeypatch.setattr(matrices, "compatible", counting)
    ch = halves_chain(dyadic)
    for make, cycle in ((diag_matrix, True), (two_cycle, True), (mixing_matrix, False)):
        A = make(ch, 1)
        assert in_cycle_category(A) == cycle
        calls.clear()
        sigma = compatible_witness(ch, A)
        assert calls[-1] is A and len(calls) == (1 if cycle else 2)
        assert real(ch, sigma, A)


def test_pi_lift_monotone(dyadic):
    """Prefixes compatible with a lift stay compatible with the base."""
    rng = random.Random(4)
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    for _ in range(10):
        A = random_balanced_matrix(rng, ch, 1)
        C, proj = to_cycle_object(ch, A)
        sigma = compatible_witness(ch, C)
        assert compatible(ch, sigma, C)
        assert compatible(ch, sigma, A)


def test_extension_preserves_compatibility(dyadic):
    """Extending a prefix (even past the current top) keeps it inside the
    same matrix neighbourhoods: transport aggregates along coherent fibers."""
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    sigma = compatible_witness(ch, A)
    M = matrix_of_prefix(ch, sigma, 1)
    deeper = ch.extend_prefix(sigma, sigma.depth + 2)
    assert deeper.depth >= sigma.depth + 2
    assert compatible(ch, deeper, A)
    assert compatible(ch, deeper, M)


def test_matrix_of_prefix_basis_property(dyadic):
    ch = GoodMeasureChain(dyadic)
    ch.run_schedule(2)
    a, b = ch.levels[1].cells[:2]
    sigma = ch.extend_partial_isomorphism(1, {a: b})
    for level in range(0, 2):
        M = matrix_of_prefix(ch, sigma, level)
        assert validate(ch, M)
        assert compatible(ch, sigma, M)


# -- conjugation transport ------------------------------------------------------------------


def fiber_permutation(ch, base_level, depth, rng=None, group_level=None):
    """A prefix at `depth` permuting equal-weight cells within the fibers of
    `group_level` (defaults to base_level)."""
    group_level = base_level if group_level is None else group_level
    anc = ch.composite_mapping(depth, group_level)
    top = ch.levels[depth]
    groups = {}
    for c in top.cells:
        groups.setdefault(anc[c], []).append(c)
    mapping = {}
    for cells in groups.values():
        by_weight = {}
        for c in cells:
            by_weight.setdefault(str(top.weight(c)), []).append(c)
        for lst in by_weight.values():
            if rng:
                rng.shuffle(lst)
            rotated = lst[1:] + lst[:1]
            for x, y in zip(lst, rotated):
                mapping[x] = y
    return AutomorphismPrefix({depth: mapping})


def test_conjugate_identity_reduction(dyadic):
    ch = halves_chain(dyadic)
    A = two_cycle(ch, 1)
    f = compatible_witness(ch, A)
    g = ch.identity_prefix(f.depth)
    assert conjugate_transport_check(ch, f, g, identity_matrix_morphism(ch, A))


def test_conjugate_fiber_permutation(dyadic):
    ch = halves_chain(dyadic)
    A = mixing_matrix(ch, 1)
    B, p = to_cycle_object(ch, A)
    f = compatible_witness(ch, B)
    g = fiber_permutation(ch, B.level, f.depth, group_level=A.level)
    assert ch.prefix_valid(g)
    assert in_morphism_neighbourhood(ch, g, p.underlying, B.level, A.level)
    assert conjugate_transport_check(ch, f, g, p)


def test_conjugate_random_instances(dyadic):
    rng = random.Random(17)
    for _ in range(12):
        ch = GoodMeasureChain(dyadic)
        ch.run_schedule(2)
        ch.ensure_depth(2)
        A = random_balanced_matrix(rng, ch, rng.randint(1, 2))
        B, p = to_cycle_object(ch, A)
        f = compatible_witness(ch, B)
        g = fiber_permutation(ch, B.level, f.depth, rng=rng, group_level=A.level)
        assert conjugate_transport_check(ch, f, g, p)


def test_conjugate_rejects_weight_changing_prefix(dyadic):
    ch = halves_chain(dyadic)
    a, b = ch.levels[1].cells
    R, pi = split_cell(ch.levels[1], a, [E("1/8"), E("3/8")], dyadic)
    ch._append_level(R, pi)
    A = two_cycle(ch, 1)
    f = compatible_witness(ch, A)
    # g respects the fibers of level 1 but swaps cells of weights 1/8 and 3/8
    g = AutomorphismPrefix({2: {f"{a}/0": f"{a}/1", f"{a}/1": f"{a}/0", b: b}})
    assert f.depth > g.depth
    with pytest.raises(WeightMismatch):
        conjugate_transport_check(ch, f, g, identity_matrix_morphism(ch, A))
