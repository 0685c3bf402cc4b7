"""Golden digests: the canonical bytes of snapshots and certificates are pinned.

Each digest is the sha256 of canonical JSON (``jsonutil.dumps``) produced by
a fixed, seeded computation.  A refactor of the engine must leave every one
of them unchanged; a deliberate change of output bytes must update them and
say why.
"""

import hashlib
import random

import pytest

from goodmeasures import jsonutil
from goodmeasures.chain import GoodMeasureChain
from goodmeasures.cli import main
from goodmeasures.matrices import compatible_witness, conjugate_transport_check, to_cycle_object
from goodmeasures.partitions import common_refinement

from conftest import E, random_balanced_matrix
from test_matrices import fiber_permutation

SCHEDULE_DIGESTS = {
    ("dyadic", 1): "8251e29e14ffd9cdfc781b66858e68c9581756cfb5c8a081b23ffede0949ac34",
    ("dyadic", 2): "8251e29e14ffd9cdfc781b66858e68c9581756cfb5c8a081b23ffede0949ac34",
    ("dyadic", 3): "d5d7ae3dbf856156e8a3c0734e82d70f0bde08a35b7fb6246bc5d92373846c4a",
    ("triadic", 1): "c6c61549405990c1fd8dd2340cdad71374140487e426a694e7aadf45d8c681a4",
    ("triadic", 2): "7c46ecee23143ad0770321c50b7a13bce1916d39b06f3da4cc0df7ef83a39677",
    ("triadic", 3): "7c46ecee23143ad0770321c50b7a13bce1916d39b06f3da4cc0df7ef83a39677",
    ("sqrt2_module", 1): "5e71873adc70b92d60461fae0471fe456c48bb7bbff03b2d12b3394f6836d7a9",
    ("sqrt2_module", 2): "701ffe1bd372d5c097fca3d2339e52bd40274ae18ddf6fac46d04c14a220a7cb",
}
WITNESS_DIGEST = "87a294bfb22f0f5c0d390b7a1edaf55a06a28c8a7bf971934e9e06d8742ea954"
TRANSPORT_DIGEST = "5f484b40a442e6e98eead8ec139e9e4d1a7ced4c161ec08ad4d49e87faec3026"
ORBIT_SPLIT_DIGEST = "e6b16c770f97bc73887d4044f7daa2a531b4d2e3c96863a307c191ee251f743a"
CHECK_GOOD_DIGEST = "c569d352c50909a5b213d2855feefdb121866bfd37c61e019dac367e736257a0"


def _sha(obj) -> str:
    return hashlib.sha256(jsonutil.dumps(obj).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,budget", sorted(SCHEDULE_DIGESTS))
def test_schedule_snapshot_digest(name, budget, request):
    chain = GoodMeasureChain(request.getfixturevalue(name))
    chain.run_schedule(budget)
    assert _sha(chain.to_json()) == SCHEDULE_DIGESTS[(name, budget)]


def test_witness_and_cycle_object_digest(dyadic):
    """Matrices drawn as in C05, plus one per chain at the top level."""
    rng = random.Random(1005)
    record = []
    for _ in range(4):
        chain = GoodMeasureChain(dyadic)
        chain.run_schedule(3)
        draws = [rng.randint(1, min(3, chain.depth)) for _ in range(5)] + [chain.depth]
        for level in draws:
            A = random_balanced_matrix(rng, chain, level)
            C, proj = to_cycle_object(chain, A)
            sigma = compatible_witness(chain, A)
            record.append([A.to_json(), C.to_json(), proj.underlying.to_json(), sigma.to_json()])
        record.append(chain.to_json())
    assert _sha(record) == WITNESS_DIGEST


def test_conjugation_transport_digest(dyadic):
    """Prefixes drawn as in C06; composing them extends the chain."""
    rng = random.Random(1006)
    record = []
    for _ in range(3):
        chain = GoodMeasureChain(dyadic)
        chain.run_schedule(3)
        for _ in range(5):
            level = rng.randint(1, min(2, chain.depth))
            A = random_balanced_matrix(rng, chain, level)
            B, p = to_cycle_object(chain, A)
            f = compatible_witness(chain, B)
            g = fiber_permutation(chain, B.level, f.depth, rng=rng, group_level=A.level)
            assert conjugate_transport_check(chain, f, g, p)
            record.append([B.to_json(), f.to_json(), g.to_json()])
        record.append(chain.to_json())
    assert _sha(record) == TRANSPORT_DIGEST


def test_orbit_split_digest(dyadic, triadic):
    """Prefixes extended past the top, and canonical splits by ensure_depth."""
    rng = random.Random(1011)
    record = []
    for V in (dyadic, triadic):
        chain = GoodMeasureChain(V)
        chain.run_schedule(2)
        A = random_balanced_matrix(rng, chain, min(2, chain.depth))
        sigma = compatible_witness(chain, A)
        record.append(chain.extend_prefix(sigma, sigma.depth + 2).to_json())
        chain.ensure_depth(chain.depth + 2)
        record.append(chain.to_json())
    assert _sha(record) == ORBIT_SPLIT_DIGEST


def test_check_good_envelope_and_report_digest(tmp_path, capsys):
    desc = tmp_path / "dyadic.json"
    jsonutil.write(desc, {"rational": {"default": "0", "exceptions": {"2": "inf"}},
                          "irrationals": []})
    snap, report = tmp_path / "snap.json", tmp_path / "report.json"
    assert main(["build-chain", "--descriptor", str(desc), "--budget", "1",
                 "--out", str(snap)]) == 0
    capsys.readouterr()
    assert main(["check-good", "--snapshot", str(snap), "--depth", "2",
                 "--out", str(report)]) == 0
    envelope = jsonutil.loads(capsys.readouterr().out)
    assert _sha([envelope, jsonutil.read(report)]) == CHECK_GOOD_DIGEST


def test_common_refinement_of_2048_entries(dyadic):
    """Long inputs are bounded by effort, not by the interpreter's stack."""
    ref = common_refinement([E("1/2048")] * 2048, [E("1/2"), E("1/2")], dyadic)
    assert len(ref.parts) == 2048
    assert ref.right_blocks == (tuple(range(1024)), tuple(range(1024, 2048)))
    assert ref.left_blocks == tuple((i,) for i in range(2048))
