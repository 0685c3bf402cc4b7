"""Interleaved operations on one chain: everything stays valid throughout."""

import random

from goodmeasures.chain import ClopenSet, GoodMeasureChain
from goodmeasures.matrices import (
    compatible,
    compatible_witness,
    matrix_of_prefix,
    to_cycle_object,
    validate,
    verify_matrix_morphism,
)
from goodmeasures.partitions import verify_morphism

from conftest import random_balanced_matrix, random_partition


def _assert_chain_valid(chain):
    assert chain.levels[0].cells == ("r",)
    for link in chain.links:
        assert verify_morphism(link)
    for L in chain.levels:
        for c in L.cells:
            assert chain.V.member(L.weight(c))


def test_mixed_operation_fuzz(dyadic, triadic, sqrt2_module):
    rng = random.Random(2024)
    for V in (dyadic, triadic, sqrt2_module):
        chain = GoodMeasureChain(V)
        chain.run_schedule(2)
        chain.ensure_depth(2)
        for step in range(30):
            op = rng.choice(["object", "witness", "iso", "matrix", "measure"])
            if op == "object":
                chain.absorb_object(random_partition(rng, V, 4, prefix=f"s{step}x"))
            elif op == "witness":
                level = rng.randint(0, chain.depth)
                cells = list(chain.levels[level].cells)
                u = [c for c in cells if rng.random() < 0.4]
                w = [c for c in cells if rng.random() < 0.7]
                U, W = ClopenSet.of(level, u), ClopenSet.of(level, w)
                mU, mW = chain.measure(U), chain.measure(W)
                if (mU - mW).sign() < 0:
                    Wp = chain.subset_witness(U, W)
                    assert chain.measure(Wp) == mU
            elif op == "iso":
                level = rng.randint(0, chain.depth)
                L = chain.levels[level]
                by_weight = {}
                for c in L.cells:
                    by_weight.setdefault(str(L.weight(c)), []).append(c)
                f = {}
                for group in by_weight.values():
                    chosen = [c for c in group if rng.random() < 0.5]
                    for a, b in zip(chosen, chosen[1:] + chosen[:1]):
                        f[a] = b
                if f:
                    sigma = chain.extend_partial_isomorphism(level, f)
                    assert chain.prefix_valid(sigma)
                    M = matrix_of_prefix(chain, sigma, level)
                    assert validate(chain, M)
                    assert compatible(chain, sigma, M)
            elif op == "matrix":
                level = rng.randint(1, chain.depth)
                if len(chain.levels[level].cells) > 12:
                    continue
                A = random_balanced_matrix(rng, chain, level, moves=4)
                assert validate(chain, A)
                C, proj = to_cycle_object(chain, A)
                assert verify_matrix_morphism(chain, proj)
                sigma = compatible_witness(chain, A)
                assert compatible(chain, sigma, A)
            else:
                level = rng.randint(0, chain.depth)
                full = ClopenSet.of(level, chain.levels[level].cells)
                assert chain.measure(full) == chain.levels[level].total
            _assert_chain_valid(chain)
        # the chain grew but stayed coherent end to end
        assert chain.depth >= 2
