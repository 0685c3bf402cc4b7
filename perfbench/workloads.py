"""The three workloads: each op is one cost class and calls only public API.

Every workload has the same shape: ``setup()`` builds all state before the
first timed op (warm-up ops included), ``prepare(i)`` makes op ``i``'s
inputs outside the timed interval, ``op(timer, inp)`` is the timed part (a
stretch inside it can be excluded with ``timer.paused()``), and
``check(inp, out)`` verifies the result with ``checks``, also untimed.
Package modules are looked up at call time (``matrices.compatible``, not a
name imported once) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import checks
import gen
from hostclock import OpTimer


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (workload, seed, *parts)))


class Schedule:
    """Fresh chain over the dyadic sqrt(2) module, run_schedule(2), then three
    seeded object challenges through absorb_object.

    Loads the chain write path (absorption, level appends, the ledger) with
    irrational ``sign()`` and amalgamation; no matrices, no JSON.
    """

    name = "schedule"
    BUDGET = 2
    CHALLENGES = 3

    def __init__(self, gm, workdir: Path, seed: int) -> None:
        self.gm, self.seed = gm, seed

    def setup(self) -> None:
        self.V = self.gm.values.GroupDescriptor.from_json(gen.SQRT2_DYADIC)
        self.s2 = self.V.symbols()["s2"]
        self.pool = gen.value_pool(_rng(self.name, self.seed, "pool"), 24)
        self.op(OpTimer(), self.prepare(-1))

    def _value(self, v):
        return self.gm.values.ExactValue.of(v[0], {self.s2: v[1]})

    def prepare(self, i: int):
        rng = _rng(self.name, self.seed, i)
        weights = [
            gen.object_challenge(rng, self.pool, rng.randint(2, 4)) for _ in range(self.CHALLENGES)
        ]
        objects = [
            self.gm.partitions.WeightedPartition.make(
                [(f"x{k}", self._value(w)) for k, w in enumerate(ws)]
            )
            for ws in weights
        ]
        return weights, objects

    def op(self, timer, inp):
        chain = self.gm.chain.GoodMeasureChain(self.V)
        chain.run_schedule(self.BUDGET)
        for P in inp[1]:
            chain.absorb_object(P)
        return chain

    def check(self, inp, chain) -> list[str]:
        return (
            checks.check_chain(chain, checks.in_sqrt2_dyadic)
            + checks.check_ledger(chain)
            + checks.check_absorbed(chain, inp[0])
        )

    def levels_appended(self, inp, chain) -> int:
        return chain.depth

    def close(self) -> None:
        pass


class Witness:
    """Read/extend path of the chain with matrices and flows, all rational.

    The base chains are seeded towers over Q (40 levels, 41 top cells)
    written as snapshot JSON and loaded with ``from_json``; they are not built
    by ``run_schedule``, so absorption changes leave this input untouched.
    Ops take the towers in turn, so one tower's shape does not set a run's
    figures.  Each op restores its base chain (untimed), then: to_cycle_object,
    compatible_witness, compatible, conjugate_transport_check against a
    seeded fiber permutation, and one subset_witness.
    """

    name = "witness"
    DEPTH = 40
    TOWERS = 4
    MOVES = 8

    def __init__(self, gm, workdir: Path, seed: int) -> None:
        self.gm, self.seed, self.workdir = gm, seed, workdir

    def setup(self) -> None:
        self.snapshots, self.cells = [], []
        for t in range(self.TOWERS):
            snap = gen.q_tower_snapshot(_rng(self.name, self.seed, "tower", t), self.DEPTH)
            path = self.workdir / f"tower{t}.json"
            path.write_text(json.dumps(snap), encoding="utf-8")
            self.snapshots.append(json.loads(path.read_text(encoding="utf-8")))
            chain = self.gm.chain.GoodMeasureChain.from_json(self.snapshots[t])
            self.cells.append([list(checks.level_weights(P).items()) for P in chain.levels])
        for t in range(self.TOWERS):
            self.op(OpTimer(), self.prepare(-1 - t))

    def prepare(self, i: int):
        rng = _rng(self.name, self.seed, i)
        t = i % self.TOWERS
        level = rng.randint(1, self.DEPTH)
        cells = self.cells[t][level]
        entries = gen.balanced_matrix(
            rng, cells, self.MOVES, gen.fraction_pool(cells, (2, 3, 4, 6))
        )
        sub_level = rng.randint(1, self.DEPTH)
        U, W = gen.clopen_pair(rng, self.cells[t][sub_level])
        chain = self.gm.chain.GoodMeasureChain.from_json(self.snapshots[t])
        A = self.gm.matrices.BalancedMatrix.from_json(gen.matrix_json(level, entries), {})
        return {
            "chain": chain, "A": A, "entries": entries, "perm_rng": rng,
            "sub_level": sub_level, "U": U, "W": W,
        }

    def op(self, timer, inp):
        chain, A, mx = inp["chain"], inp["A"], self.gm.matrices
        B, p = mx.to_cycle_object(chain, A)
        f = mx.compatible_witness(chain, B)
        ok = mx.compatible(chain, f, A)
        with timer.paused():
            g = self._fiber_permutation(inp["perm_rng"], chain, f.depth, A.level)
        transported = mx.conjugate_transport_check(chain, f, g, p)
        ClopenSet = self.gm.chain.ClopenSet
        Wp = chain.subset_witness(
            ClopenSet.of(inp["sub_level"], inp["U"]), ClopenSet.of(inp["sub_level"], inp["W"])
        )
        return {"f": f, "ok": ok, "transported": transported, "Wp": Wp}

    def _fiber_permutation(self, rng, chain, depth: int, group_level: int):
        top = list(checks.level_weights(chain.levels[depth]).items())
        perm = gen.fiber_permutation(rng, top, checks.ancestors(chain, depth, group_level))
        return self.gm.chain.AutomorphismPrefix.from_json({"maps": {str(depth): perm}})

    def check(self, inp, out) -> list[str]:
        chain = inp["chain"]
        problems = []
        if out["ok"] is not True:
            problems.append("compatible returned False")
        if out["transported"] is not True:
            problems.append("conjugate_transport_check returned False")
        problems += checks.check_prefix_matches(chain, out["f"], inp["entries"], inp["A"].level)
        problems += checks.check_subset_witness(
            chain, inp["U"], set(inp["W"]), inp["sub_level"], out["Wp"]
        )
        return problems

    def levels_appended(self, inp, out) -> int:
        return inp["chain"].depth - self.DEPTH

    def close(self) -> None:
        pass


class Cli:
    """In-process ``goodmeasures.cli.main`` with a workspace (so the run log
    is written) over a budget-2 snapshot of the dyadic sqrt(2) module.

    One op is a user's step of two commands: ``check-compat`` (read path:
    JSON parse, from_json, the input_hash digest, compatibility), then
    ``witness --out-snapshot`` (adds compatible_witness, to_json and a file
    write).  Alone they cost about 80 and 140 ms, so alternating them as
    separate ops would put p50 in the gap between two cost classes.  In one
    op in four the check-compat pairs the identity prefix with a matrix that
    moves mass and must exit 1.
    """

    name = "cli"
    BUDGET = 2
    MATRICES = 4
    MOVES = 6

    def __init__(self, gm, workdir: Path, seed: int) -> None:
        self.gm, self.seed, self.root = gm, seed, workdir / "cli"

    def _main(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.gm.cli.main(["--workspace", str(self.root / "ws"), *argv])
        return code, out.getvalue(), err.getvalue()

    def _write(self, name: str, obj) -> str:
        path = self.root / name
        path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
        return str(path)

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        desc = self._write("descriptor.json", gen.SQRT2_DYADIC)
        self.base = str(self.root / "base.json")
        code, _, err = self._main(
            ["build-chain", "--descriptor", desc, "--budget", str(self.BUDGET), "--out", self.base]
        )
        if code != 0:
            raise RuntimeError(f"build-chain exited {code}: {err.strip()}")
        base = json.loads(Path(self.base).read_text(encoding="utf-8"))
        self.depth = depth = len(base["levels"]) - 1
        top = [c["id"] for c in base["levels"][-1]["cells"]]
        identity = {"maps": {str(depth): {c: c for c in top}}}
        rng = _rng(self.name, self.seed, "inputs")
        self.out_snapshot = str(self.root / "out.json")
        self.positive, self.negative, self.witness = [], [], []
        while len(self.positive) < self.MATRICES:
            k = len(self.positive)
            level = rng.randint(1, depth)
            cells = [(c["id"], gen.num_from_json(c["w"])) for c in base["levels"][level]["cells"]]
            entries = gen.balanced_matrix(
                rng, cells, self.MOVES, gen.fraction_pool(cells, (2, 4, 8))
            )
            if all(a == b for a, b in entries):
                continue  # no mass moved: redraw, the negative case needs some
            matrix = gen.matrix_json(level, entries)
            mpath = self._write(f"matrix{k}.json", matrix)
            snap = str(self.root / f"snap{k}.json")
            code, out, err = self._main(
                ["witness", "--matrix", mpath, "--snapshot", self.base, "--out-snapshot", snap]
            )
            if code != 0:
                raise RuntimeError(f"witness exited {code}: {err.strip()}")
            prefix = json.loads(out)["certificate"]
            self.positive.append(self._compat(matrix, mpath, snap, prefix, f"prefix{k}", 0))
            self.negative.append(self._compat(matrix, mpath, self.base, identity, f"id{k}", 1))
            argv = ["witness", "--matrix", mpath, "--snapshot", self.base,
                    "--out-snapshot", self.out_snapshot]
            digest = checks.canonical_digest({"snapshot": base, "matrix": matrix})
            self.witness.append((argv, digest, 0))
        self.op(OpTimer(), self.prepare(0))

    def _compat(self, matrix, mpath: str, snap_path: str, prefix, name: str, want: int):
        ppath = self._write(f"{name}.json", prefix)
        snapshot = json.loads(Path(snap_path).read_text(encoding="utf-8"))
        digest = checks.canonical_digest({"snapshot": snapshot, "matrix": matrix, "prefix": prefix})
        argv = ["check-compat", "--matrix", mpath, "--snapshot", snap_path, "--prefix", ppath]
        return argv, digest, want

    def prepare(self, i: int):
        k = i % self.MATRICES
        compat = self.negative[i // 4 % self.MATRICES] if i % 4 == 3 else self.positive[k]
        return compat, self.witness[k]

    def op(self, timer, inp):
        return [self._main(argv) for argv, _, _ in inp]

    def check(self, inp, out) -> list[str]:
        problems = []
        for (argv, digest, want_code), (code, stdout, stderr) in zip(inp, out):
            problems += checks.check_envelope(
                code, stdout, want_code, argv[0], digest, want_code == 0
            )
            if stderr:
                problems.append(f"{argv[0]}: stderr {stderr.strip()[:200]}")
        return problems

    def levels_appended(self, inp, out) -> int:
        # the witness envelope reports the depth of the extended chain
        code, stdout, _ = out[1]
        return json.loads(stdout)["result"]["depth"] - self.depth if code == 0 else 0

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Schedule, Witness, Cli)}
