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
    ("dyadic", 1): "ea0282d0ba9699087168e59ed03bec210e2445045a67c08de454da1f3f94b1d7",
    ("dyadic", 2): "ea0282d0ba9699087168e59ed03bec210e2445045a67c08de454da1f3f94b1d7",
    ("dyadic", 3): "c9bc0d2fc6b620e5e046edff28ea1816dd6d524d08f6863979e06c7908fc3fa8",
    ("triadic", 1): "c6c61549405990c1fd8dd2340cdad71374140487e426a694e7aadf45d8c681a4",
    ("triadic", 2): "80a794bbd50f00904968b22daa1795c6af009d79e4e437fa8640a5d92452cdfa",
    ("triadic", 3): "80a794bbd50f00904968b22daa1795c6af009d79e4e437fa8640a5d92452cdfa",
    ("sqrt2_module", 1): "d0d4ac4f6f4d2dd94470b63d4e7c3379b97a1cb3a5a0f5d74977c62d4973081d",
    ("sqrt2_module", 2): "b3ab5770f7ef8c0e926068fa6cc380ef52d4139ed20d3d6de632f1c36b25ebbb",
    ("sqrt2_dyadic", 3): "14cbdb25e3b9c17472e21551d616306db72f39560c69a10758815e4bca0a095f",
    ("two_symbol", 2): "b992f2d90aa3a4d7e6777ffccb6079f880927b3f5ede7bb1872a799fc6877b67",
}
WITNESS_DIGEST = "47b95e7b863965babd6a4452fe8ff82e02d59a499e455f1b0dc7224336b1e71b"
TRANSPORT_DIGEST = "a9a509051836880fe29e47001945a54f3f6fc8d3872afcb8dbd081261b3306b5"
ORBIT_SPLIT_DIGEST = "30c3f33110d94bdf5f24c353d57fd98785cf5108aac88f190ec8d8ff6f9dd291"
# re-recorded when the report's maximality entries lost their always-true "ok"
CHECK_GOOD_DIGEST = "25a85567d9ef2dcbcea5b7a17f379d7f4b394a80be1649c83b19c567dc645529"


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
