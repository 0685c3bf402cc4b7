"""Golden digests: the canonical bytes of snapshots and certificates are pinned.

Each digest is the sha256 of canonical JSON (``jsonutil.dumps``) produced by
a fixed, seeded computation.  A refactor of the engine must leave every one
of them unchanged; a deliberate change of output bytes must update them and
say why.

Snapshots are pinned three times.  The format-1 digests, recorded before
format 2, are of ``oracles.snapshot_format1``, and the ``_2`` digests,
recorded before format 3, of ``oracles.snapshot_format2``, each applied to
the chain after a round trip through its format-3 text, so they also pin
what a chain keeps across a save and a load.  The ``_3`` digests are of the
engine's own format-3 snapshots.
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
from oracles import snapshot_format1, snapshot_format2
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
SCHEDULE_DIGESTS_3 = {
    ("dyadic", 1): "dc3bdd9e24a43626b1d80c2dbd680dac424ab9004b23c7e32b7448f9d6d944f8",
    ("dyadic", 2): "dc3bdd9e24a43626b1d80c2dbd680dac424ab9004b23c7e32b7448f9d6d944f8",
    ("dyadic", 3): "163ce42efe47a1beedb22b7f98d835a4a266b95997fa647908955a492fe8e2ff",
    ("triadic", 1): "af218354fad4aecb4efb1f17179cea89894bdb2e93cb093f467e049dd29209c8",
    ("triadic", 2): "86572ab4962eb84a55fda80158701496576d1474d2d942d4244c69f9cc1a2fdd",
    ("triadic", 3): "86572ab4962eb84a55fda80158701496576d1474d2d942d4244c69f9cc1a2fdd",
    ("sqrt2_module", 1): "d612f3726fd1d2b7b8cc455c64dfa5c58cdc92a8044099fa9376fc03913d9a27",
    ("sqrt2_module", 2): "89ee53087a9997c0f6dbe863720adc78380e690c4e0fea0714eb3c45141f4a89",
    ("sqrt2_dyadic", 3): "b373fc10a3827fbe5c9ff2bb8cbdc3c5d4f05701b801cd59869f232f292329fb",
    ("two_symbol", 2): "1cb223303d59e8fbec29d5fed36b53d51d238f595bbbe66099514e44ef7670b1",
}
WITNESS_DIGEST_3 = "ad13c45d15442c3e41f1114ad8ba6f0f7449012a27bafc3640e405b7229cb95b"
TRANSPORT_DIGEST_3 = "ab8216e8313a27165fab2ab8cbda6e09d706b49524d59a4ced456ccc09e75c7a"
ORBIT_SPLIT_DIGEST_3 = "fb5f64fe856780039e5f8ca7b786069fa639e5251900636858c647f4cea6e3db"
# re-recorded when the report's maximality entries lost their always-true "ok",
# and when build-chain began to write format 2, then format 3, which the
# input_hash covers
CHECK_GOOD_DIGEST = "28205b2b963917581c8601dc750263da5496166699219b119d660fc1a9e56246"


def _sha(obj) -> str:
    return hashlib.sha256(jsonutil.dumps(obj).encode("utf-8")).hexdigest()


def _snapshots(chain: GoodMeasureChain) -> tuple[dict, dict, dict]:
    """The chain's format-1 and format-2 snapshots after a round trip
    through its format-3 text, and its format-3 snapshot."""
    loaded = GoodMeasureChain.from_json(jsonutil.loads(chain.to_text()))
    return snapshot_format1(loaded), snapshot_format2(loaded), chain.to_json()


@pytest.mark.parametrize("name,budget", sorted(SCHEDULE_DIGESTS))
def test_schedule_snapshot_digest(name, budget, request):
    chain = GoodMeasureChain(request.getfixturevalue(name))
    chain.run_schedule(budget)
    format1, format2, format3 = _snapshots(chain)
    assert _sha(format1) == SCHEDULE_DIGESTS[(name, budget)]
    assert _sha(format2) == SCHEDULE_DIGESTS_2[(name, budget)]
    assert _sha(format3) == SCHEDULE_DIGESTS_3[(name, budget)]


def test_witness_and_cycle_object_digest(dyadic):
    """Matrices drawn as in C05, plus one per chain at the top level."""
    rng = random.Random(1005)
    record, record2, record3 = [], [], []
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
            record3.append(record[-1])
        for r, snapshot in zip((record, record2, record3), _snapshots(chain)):
            r.append(snapshot)
    assert _sha(record) == WITNESS_DIGEST
    assert _sha(record2) == WITNESS_DIGEST_2
    assert _sha(record3) == WITNESS_DIGEST_3


def test_conjugation_transport_digest(dyadic):
    """Prefixes drawn as in C06; composing them extends the chain."""
    rng = random.Random(1006)
    record, record2, record3 = [], [], []
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
            record3.append(record[-1])
        for r, snapshot in zip((record, record2, record3), _snapshots(chain)):
            r.append(snapshot)
    assert _sha(record) == TRANSPORT_DIGEST
    assert _sha(record2) == TRANSPORT_DIGEST_2
    assert _sha(record3) == TRANSPORT_DIGEST_3


def test_orbit_split_digest(dyadic, triadic):
    """Prefixes extended past the top, and canonical splits by ensure_depth."""
    rng = random.Random(1011)
    record, record2, record3 = [], [], []
    for V in (dyadic, triadic):
        chain = GoodMeasureChain(V)
        chain.run_schedule(2)
        A = random_balanced_matrix(rng, chain, min(2, chain.depth))
        sigma = compatible_witness(chain, A)
        record.append(chain.extend_prefix(sigma, sigma.depth + 2).to_json())
        record2.append(record[-1])
        record3.append(record[-1])
        chain.ensure_depth(chain.depth + 2)
        for r, snapshot in zip((record, record2, record3), _snapshots(chain)):
            r.append(snapshot)
    assert _sha(record) == ORBIT_SPLIT_DIGEST
    assert _sha(record2) == ORBIT_SPLIT_DIGEST_2
    assert _sha(record3) == ORBIT_SPLIT_DIGEST_3


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
