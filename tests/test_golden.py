"""Golden digests: the canonical bytes of snapshots and certificates are pinned.

Each digest is the sha256 of canonical JSON (``jsonutil.dumps``) produced by
a fixed, seeded computation.  A refactor of the engine must leave every one
of them unchanged; a deliberate change of output bytes must update them and
say why.

Snapshots are pinned twice.  The format-1 digests, recorded before format 2,
are of ``oracles.snapshot_format1`` applied to the chain after a format-2
round trip, so they also pin what a chain keeps across a save and a load.
The ``_2`` digests are of the engine's own format-2 snapshots.
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
from oracles import snapshot_format1
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
SCHEDULE_DIGESTS_2 = {
    ("dyadic", 1): "5253e56554e8af000bf29250c4909bde1f9396ed2f763d7e302c0e873e7bdd86",
    ("dyadic", 2): "5253e56554e8af000bf29250c4909bde1f9396ed2f763d7e302c0e873e7bdd86",
    ("dyadic", 3): "21a4eb100a0782cf2ed23e7dc37905d3015eae057ac224a7ea97e0eec8013ef0",
    ("triadic", 1): "70c490406b02b6f8c1a71ca61962ca8371ad9de7e17160fb40264fe4e21ec2e4",
    ("triadic", 2): "557474b0baa625c48d5c21412470d9286c92f6c28f84948e7a6eb80295ad69ac",
    ("triadic", 3): "557474b0baa625c48d5c21412470d9286c92f6c28f84948e7a6eb80295ad69ac",
    ("sqrt2_module", 1): "0caceb16640daa0ed72a9d62f15d5fd8559a7901ac9b325a72d5f6a7bb07b604",
    ("sqrt2_module", 2): "1eca847d85d1bc2ae20c58e3e268166176335fb34c2685d01e20e4901a5a6c8c",
    ("sqrt2_dyadic", 3): "63b5ec1c9754224c4cf6da91d6f4b124e804272a97bd707c31ccdb72d5144518",
    ("two_symbol", 2): "62ef3abca211548463669b7be2096ade4ca8eae73205e3f01b1b6ce28354c497",
}
WITNESS_DIGEST_2 = "b0684798f4f22b0c0f9a91fa70260d52781caa906405be7e11149b693cec1b15"
TRANSPORT_DIGEST_2 = "81b34b902364fcb1a2d42aa932f76c8862698068aa1315826faff8e0eb526810"
ORBIT_SPLIT_DIGEST_2 = "c321f3a1e9dfae27a7652b2bdc0e0dc81c7001e8f4893fdf08c38f646bfa34d2"
# re-recorded when the report's maximality entries lost their always-true "ok",
# and when build-chain began to write format 2, which the input_hash covers
CHECK_GOOD_DIGEST = "3297c132d863667566d4660b8cd05338300c89b757f1a4e3ee96839da4f390bf"


def _sha(obj) -> str:
    return hashlib.sha256(jsonutil.dumps(obj).encode("utf-8")).hexdigest()


def _snapshots(chain: GoodMeasureChain) -> tuple[dict, dict]:
    """The chain's format-1 snapshot after a format-2 round trip through
    canonical text, and its format-2 snapshot."""
    loaded = GoodMeasureChain.from_json(jsonutil.loads(jsonutil.dumps(chain.to_json())))
    return snapshot_format1(loaded), chain.to_json()


@pytest.mark.parametrize("name,budget", sorted(SCHEDULE_DIGESTS))
def test_schedule_snapshot_digest(name, budget, request):
    chain = GoodMeasureChain(request.getfixturevalue(name))
    chain.run_schedule(budget)
    format1, format2 = _snapshots(chain)
    assert _sha(format1) == SCHEDULE_DIGESTS[(name, budget)]
    assert _sha(format2) == SCHEDULE_DIGESTS_2[(name, budget)]


def test_witness_and_cycle_object_digest(dyadic):
    """Matrices drawn as in C05, plus one per chain at the top level."""
    rng = random.Random(1005)
    record, record2 = [], []
    for _ in range(4):
        chain = GoodMeasureChain(dyadic)
        chain.run_schedule(3)
        draws = [rng.randint(1, min(3, chain.depth)) for _ in range(5)] + [chain.depth]
        for level in draws:
            A = random_balanced_matrix(rng, chain, level)
            C, proj = to_cycle_object(chain, A)
            sigma = compatible_witness(chain, A)
            record.append([A.to_json(), C.to_json(), proj.underlying.to_json(), sigma.to_json()])
            record2.append(record[-1])
        for r, snapshot in zip((record, record2), _snapshots(chain)):
            r.append(snapshot)
    assert _sha(record) == WITNESS_DIGEST
    assert _sha(record2) == WITNESS_DIGEST_2


def test_conjugation_transport_digest(dyadic):
    """Prefixes drawn as in C06; composing them extends the chain."""
    rng = random.Random(1006)
    record, record2 = [], []
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
            record2.append(record[-1])
        for r, snapshot in zip((record, record2), _snapshots(chain)):
            r.append(snapshot)
    assert _sha(record) == TRANSPORT_DIGEST
    assert _sha(record2) == TRANSPORT_DIGEST_2


def test_orbit_split_digest(dyadic, triadic):
    """Prefixes extended past the top, and canonical splits by ensure_depth."""
    rng = random.Random(1011)
    record, record2 = [], []
    for V in (dyadic, triadic):
        chain = GoodMeasureChain(V)
        chain.run_schedule(2)
        A = random_balanced_matrix(rng, chain, min(2, chain.depth))
        sigma = compatible_witness(chain, A)
        record.append(chain.extend_prefix(sigma, sigma.depth + 2).to_json())
        record2.append(record[-1])
        chain.ensure_depth(chain.depth + 2)
        for r, snapshot in zip((record, record2), _snapshots(chain)):
            r.append(snapshot)
    assert _sha(record) == ORBIT_SPLIT_DIGEST
    assert _sha(record2) == ORBIT_SPLIT_DIGEST_2


def test_check_good_envelope_and_report_digest(tmp_path, capsys):
    desc = tmp_path / "dyadic.json"
    jsonutil.write(desc, jsonutil.dumps({"rational": {"default": "0", "exceptions": {"2": "inf"}},
                                         "irrationals": []}))
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
