"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every check is tolerance-zero: equalities of exact values.
"""

import random
from fractions import Fraction

import pytest

from goodmeasures import jsonutil
from goodmeasures.chain import ClopenSet, GoodMeasureChain
from goodmeasures.composite import (
    maximality_refute,
    member as composite_member,
    partial_isomorphism_extend_composite,
    weighted_sum,
)
from goodmeasures.cycles import (
    compose_tuple_morphisms,
    divisibility_closure_check,
    qlike_amalgamate,
    ring_product_lift,
    rokhlin_decide,
    verify_tuple_morphism,
)
from goodmeasures.matrices import (
    compatible,
    compatible_witness,
    conjugate_transport_check,
    cycle_decompose,
    to_cycle_object,
    validate,
)
from goodmeasures.partitions import (
    amalgamate,
    common_refinement,
    verify_morphism,
)
from goodmeasures.values import GroupDescriptor, INF, RationalGroup, ZERO

from conftest import (
    E,
    alpha_module,
    random_balanced_matrix,
    random_cycle_tuple,
    random_equi_summed,
    random_partition,
    random_refining_morphism,
    random_split,
    random_tuple_cospan,
)
from oracles import refinement_feasible
from test_matrices import fiber_permutation


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_c01_common_refinement_500(dyadic, triadic, sqrt2_module):
    rng = random.Random(1001)
    sets = [dyadic, triadic, sqrt2_module]
    pools = {id(V): V.enumerate_values(5) for V in sets}
    checked = oracle_checked = 0
    for i in range(500):
        V = sets[i % 3]
        pool = pools[id(V)]
        total = rng.choice(pool)
        left = random_split(rng, V, total, 6, pool)
        right = random_split(rng, V, total, 6, pool)
        ref = common_refinement(left, right, V)
        assert len(ref.parts) <= len(left) + len(right) - 1
        for v in ref.parts:
            assert V.member(v) and v.sign() > 0
        partsum = ZERO
        for v in ref.parts:
            partsum = partsum + v
        assert partsum == total
        for idx, block in enumerate(ref.left_blocks):
            s = ZERO
            for j in block:
                s = s + ref.parts[j]
            assert s == left[idx]
        for idx, block in enumerate(ref.right_blocks):
            s = ZERO
            for j in block:
                s = s + ref.parts[j]
            assert s == right[idx]
        checked += 1
        if len(ref.parts) <= 8:
            assert refinement_feasible(ref.parts, left)
            assert refinement_feasible(ref.parts, right)
            oracle_checked += 1
    assert checked == 500
    report(1, f"common refinement on {checked} instances "
              f"({oracle_checked} cross-checked by the brute-force oracle), exact")


def test_c02_amalgamation_squares_200(dyadic, triadic):
    rng = random.Random(1002)
    for i in range(200):
        V = (dyadic, triadic)[i % 2]
        F = random_partition(rng, V, 3, prefix="f")
        f1 = random_refining_morphism(rng, V, F, 3, "a")
        f2 = random_refining_morphism(rng, V, F, 3, "b")
        G, p1, p2 = amalgamate(f1, f2, V)
        assert verify_morphism(p1) and verify_morphism(p2)
        for c in G.cells:
            assert V.member(G.weight(c))
            assert f1.mapping[p1.mapping[c]] == f2.mapping[p2.mapping[c]]
    report(2, "200 amalgamation squares commute cellwise, weights in V, exact")


def test_c03_goodness_at_finite_level(dyadic, triadic):
    pair_count = 0
    witness_count = 0
    for V in (dyadic, triadic):
        chain = GoodMeasureChain(V)
        chain.run_schedule(3)
        chain.ensure_depth(2)
        cells = list(chain.levels[2].cells)
        subsets = []
        for mask in range(1, 2 ** len(cells)):
            subsets.append([c for i, c in enumerate(cells) if mask >> i & 1])
        for su in subsets:
            for sw in subsets:
                U, W = ClopenSet.of(2, su), ClopenSet.of(2, sw)
                mU, mW = chain.measure(U), chain.measure(W)
                if not (mU - mW).sign() < 0:
                    continue
                Wp = chain.subset_witness(U, W)
                assert chain.measure(Wp) == mU
                assert set(Wp.cells) <= set(chain.project(W, Wp.level).cells)
                pair_count += 1
        want = 50 - witness_count if V is triadic else 25
        targets_pool = []
        for h in range(1, 10):
            for obj in chain.object_challenges(h):
                weights = obj.weight_list()
                if weights not in targets_pool:
                    targets_pool.append(weights)
                if len(targets_pool) >= want:
                    break
            if len(targets_pool) >= want:
                break
        for weights in targets_pool:
            chain.maximal_partition_witness(weights)
            witness_count += 1
    assert witness_count == 50
    report(3, f"subset condition on {pair_count} clopen pairs at depth <= 2 and "
              f"{witness_count} maximality witnesses, exact")


def test_c04_cycle_decomposition_300(dyadic, triadic):
    rng = random.Random(1004)
    for i in range(300):
        V = (dyadic, triadic)[i % 2]
        size = rng.randint(2, 6)
        entries = random_equi_summed(rng, V, size, rng.randint(1, 5))
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
            assert V.in_group(c.weight)
    report(4, "300 equi-summed matrices decompose into cycles summing back "
              "exactly, counts bounded by nonzeros, weights in the entry group")


def test_c05_witness_nonemptiness_100(dyadic):
    rng = random.Random(1005)
    done = 0
    for block in range(10):
        chain = GoodMeasureChain(dyadic)
        chain.run_schedule(3)
        for _ in range(10):
            level = rng.randint(1, min(3, chain.depth))
            A = random_balanced_matrix(rng, chain, level)
            assert validate(chain, A)
            sigma = compatible_witness(chain, A)
            assert compatible(chain, sigma, A)
            done += 1
    assert done == 100
    report(5, "compatible_witness produced a member of [A] for 100 random "
              "valid matrices over budget-3 dyadic chains")


def test_c06_conjugation_transport_100(dyadic):
    rng = random.Random(1006)
    done = 0
    for block in range(10):
        chain = GoodMeasureChain(dyadic)
        chain.run_schedule(3)
        for _ in range(10):
            level = rng.randint(1, min(2, chain.depth))
            A = random_balanced_matrix(rng, chain, level)
            B, p = to_cycle_object(chain, A)
            f = compatible_witness(chain, B)
            g = fiber_permutation(chain, B.level, f.depth, rng=rng, group_level=A.level)
            assert conjugate_transport_check(chain, f, g, p)
            done += 1
    assert done == 100
    report(6, "conjugation transport returned true on 100 random (f, g, p) triples")


def test_c07_rokhlin_decision_suite(dyadic, triadic, rationals, sixth_adic, mixed_23):
    rng = random.Random(1007)
    yes_sets = {"dyadic": dyadic, "3-adic": triadic, "Q": rationals, "Z[1/6]": sixth_adic}
    for name, V in yes_sets.items():
        verdict = rokhlin_decide(V)
        assert (verdict.strong_rokhlin, verdict.rokhlin) == ("yes", "yes"), name
        for _ in range(20):
            c = random_cycle_tuple(rng, V, 3)
            d = random_cycle_tuple(rng, V, 3)
            u, mc, md = ring_product_lift(V, c, d)
            assert verify_tuple_morphism(mc, u, c)
            assert verify_tuple_morphism(md, u, d)
    no_sets = {
        "n2=3": (GroupDescriptor.make(RationalGroup.make(0, {2: 3})), (2, 3)),
        "n2=inf,n3=1": (mixed_23, (3, 1)),
        "n5=2 else inf": (GroupDescriptor.make(RationalGroup.make(INF, {5: 2})), (5, 2)),
    }
    for name, (V, cert) in no_sets.items():
        verdict = rokhlin_decide(V)
        assert (verdict.strong_rokhlin, verdict.rokhlin) == ("no", "no"), name
        assert verdict.certificate == {"prime": cert[0], "exponent": cert[1]}, name
        assert divisibility_closure_check(V), name
    report(7, "decision yes/yes on 4 ring-like sets (20 product lifts each), "
              "no/no with prime certificates and closure violations on 3 others")


def test_c08_qlike_amalgamation_100(rationals):
    rng = random.Random(1008)
    for _ in range(100):
        A, B0, p0, B1, p1 = random_tuple_cospan(rng, rationals)
        C, q0, q1 = qlike_amalgamate(rationals, B0, p0, B1, p1, A)
        assert verify_tuple_morphism(q0, C, B0)
        assert verify_tuple_morphism(q1, C, B1)
        assert compose_tuple_morphisms(p0, q0) == compose_tuple_morphisms(p1, q1)
    report(8, "100 cycle-tuple cospans over Q amalgamated with exactly "
              "commuting squares")


def test_c09_composite_example(triadic):
    rng = random.Random(1009)
    c1 = GoodMeasureChain(triadic)
    c1.run_schedule(2)
    V2 = alpha_module()
    c2 = GoodMeasureChain(V2)
    c2.run_schedule(2)
    m = weighted_sum([(c1, Fraction(1, 3)), (c2, Fraction(2, 3))])
    assert composite_member(m, E("1/3"))
    out = maximality_refute(m, [E("1/3")] * 3)
    assert not out.feasible
    assert out.certificate["failing_component"] == 1
    assert out.certificate["coefficient_forced_contributions"] == [["0", "2/3"]] * 3
    extended = 0
    while extended < 20:
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
        extended += 1
    report(9, "composite of (1/3)*3-adic and (2/3)*(Z+Z*alpha): 1/3 attained, "
              "(1/3,1/3,1/3) infeasible with the coefficient certificate, "
              "20 partial isomorphisms extended per component")


def test_c10_snapshot_determinism(dyadic, triadic):
    for V in (dyadic, triadic):
        first = GoodMeasureChain(V)
        first.run_schedule(3)
        bytes1 = jsonutil.dumps(first.to_json())
        second = GoodMeasureChain(V)
        second.run_schedule(3)
        assert jsonutil.dumps(second.to_json()) == bytes1
        reloaded = GoodMeasureChain.from_json(jsonutil.loads(bytes1))
        reloaded.run_schedule(3)
        assert jsonutil.dumps(reloaded.to_json()) == bytes1
    report(10, "rebuilding and reloading chains reproduces byte-identical "
               "canonical snapshots")
