"""Command-line front end: build chains, decide properties, run witnesses.

Every command prints one canonical-JSON envelope
``{"op", "input_hash", "result", "certificate"}`` and uses exit codes
0 (success), 1 (mathematically negative verdict), 2 (invalid input, including
a comparison that the declared symbols leave undecided, or no verdict, such
as a search that used up its effort or an "unknown" from ``decide-rokhlin``),
3 (output I/O failure).  All outputs are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import composite as composite_mod
from . import cycles as cycles_mod
from . import jsonutil
from . import matrices as matrices_mod
from .chain import AutomorphismPrefix, ClopenSet, GoodMeasureChain
from .errors import GoodMeasuresError
from .matrices import BalancedMatrix
from .values import ExactValue, GroupDescriptor

#: The most cells of a level ``check-good`` appends, each doubling the top's.
MAX_APPENDED_CELLS = 256


class WorkspaceError(Exception):
    """The run log or a canonical record could not be written: an output I/O
    failure (exit 3)."""


class Workspace:
    """A directory with named descriptors, named snapshots, a run log, and a
    store of canonical texts.

    The empty file ``canonical/<text_digest(text)>`` records that text is
    canonical: ``jsonutil.dumps(jsonutil.loads(text)) == text``.  A record is
    made for every text a command writes, and for every text it reads that
    proves canonical when the digest of the command's input encodes it.  A
    recorded input is then digested from its text, not walked (``splice``).
    The texts of a command's inputs live as long as the Workspace, which is
    one command's.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.canonical = self.root / "canonical"
        self.texts: dict[int, tuple] = {}  # id(value) -> (value, text), per jsonutil.read
        try:
            (self.root / "descriptors").mkdir(parents=True, exist_ok=True)
            (self.root / "snapshots").mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # the run log could not go there either
            raise WorkspaceError(f"run log: {exc}") from exc

    def resolve(self, name: str, kind: str) -> Path:
        p = Path(name)
        if p.exists():
            return p
        candidate = self.root / kind / name
        if candidate.exists():
            return candidate
        candidate = candidate.with_suffix(".json")
        return candidate if candidate.exists() else p

    def log(self, op: str, input_hash: str) -> None:
        ts = datetime.datetime.now(datetime.timezone.utc).isoformat()
        line = jsonutil.dumps({"ts": ts, "op": op, "input_hash": input_hash}).strip()
        try:
            with open(self.root / "runlog.jsonl", "a", encoding="utf-8") as fh:
                fh.write(line.replace("\n", " ") + "\n")
        except OSError as exc:
            raise WorkspaceError(f"run log: {exc}") from exc

    def record(self, text: str) -> None:
        """Record that text is canonical."""
        try:
            self.canonical.mkdir(exist_ok=True)
            (self.canonical / jsonutil.text_digest(text)).touch()
        except OSError as exc:
            raise WorkspaceError(f"canonical record: {exc}") from exc

    def known(self, value) -> jsonutil.Canonical:
        """The canonical text of value, an input read: the file's text if a
        record says so, else the value's encoding, which records the text
        when the two agree."""
        text = self.texts[id(value)][1]
        if not (self.canonical / jsonutil.text_digest(text)).exists():
            canonical = jsonutil.dumps(value)
            if canonical != text:
                return jsonutil.Canonical(canonical)
            self.record(text)
        return jsonutil.Canonical(text)

    def splice(self, obj):
        """obj with each input read, obj itself or one of its values, as its
        canonical text (``known``): the object a command digests holds its
        inputs at most one key down."""
        if id(obj) in self.texts:
            return self.known(obj)
        if type(obj) is dict:
            return {k: self.known(v) if id(v) in self.texts else v for k, v in obj.items()}
        return obj


def _workspace(args) -> Workspace | None:
    root = args.workspace or os.environ.get("CANTOR_WORKSPACE")
    return Workspace(root) if root else None


def _read_json(path: str | Path, ws: Workspace | None, kind: str):
    if not ws:
        return jsonutil.read(path)
    return jsonutil.read(ws.resolve(str(path), kind), ws.texts)


def _emit(op: str, input_obj, result, certificate, ws: Workspace | None, out=None) -> bool:
    """Log the op, write its file and print its envelope; False if the file
    cannot be written (exit 3).  ``out`` is the (path, text, what) of the
    file the op writes, if any, its text canonical.  The run log and the records come first,
    so an op whose log line or record cannot be written leaves no file."""
    h = jsonutil.digest(ws.splice(input_obj) if ws else input_obj)
    if ws:
        ws.log(op, h)
    if out is not None and not _write(*out, ws):
        return False
    envelope = {"op": op, "input_hash": h, "result": result, "certificate": certificate}
    sys.stdout.write(jsonutil.dumps(envelope))
    return True


def _write(path, text: str, what: str, ws: Workspace | None) -> bool:
    """Write a canonical text, recorded first in a workspace, so that a
    record that cannot be made leaves no file; on failure report it and
    return False (exit 3)."""
    if ws:
        ws.record(text)
    try:
        jsonutil.write(path, text)
    except OSError as exc:
        sys.stderr.write(f"cannot write {what}: {exc}\n")
        return False
    return True


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build_chain(args) -> int:
    ws = _workspace(args)
    if args.budget < 1:
        sys.stderr.write("budget must be >= 1\n")
        return 2
    if args.resume:
        chain = GoodMeasureChain.from_json(_read_json(args.resume, ws, "snapshots"))
        descriptor = chain.V.to_json()
    elif args.descriptor:
        descriptor = _read_json(args.descriptor, ws, "descriptors")
        chain = GoodMeasureChain(GroupDescriptor.from_json(descriptor))
    else:
        sys.stderr.write("build-chain needs --descriptor or --resume\n")
        return 2
    chain.run_schedule(args.budget)
    result = {
        "levels": len(chain.levels),
        "top_cells": len(chain.top.cells),
        "ledger_entries": len(chain.ledger),
        "out": str(args.out),
    }
    written = _emit("build-chain", {"descriptor": descriptor, "budget": args.budget}, result,
                    None, ws, (args.out, chain.to_text(), "snapshot"))
    return 0 if written else 3


def cmd_check_good(args) -> int:
    ws = _workspace(args)
    snapshot = _read_json(args.snapshot, ws, "snapshots")
    chain = GoodMeasureChain.from_json(snapshot)
    depth = args.depth
    if depth < 0:  # levels[-1] is the top: a negative depth must not index it
        sys.stderr.write(f"depth {depth} is not a level of the snapshot\n")
        return 2
    extra = min(max(depth - chain.depth, 0), 64)  # 2**64 cells are past any bound
    if extra and len(chain.top.cells) << extra > MAX_APPENDED_CELLS:
        sys.stderr.write(f"depth {depth} needs a level of over {MAX_APPENDED_CELLS} cells\n")
        return 2
    chain.ensure_depth(depth)
    cells = list(chain.levels[depth].cells)
    pairs = []
    truncated = False
    max_pairs = 20000
    subsets = []
    if 2 ** len(cells) <= 4096:
        for mask in range(1, 2 ** len(cells)):
            subsets.append(frozenset(c for i, c in enumerate(cells) if mask >> i & 1))
    else:
        truncated = True
        subsets = [frozenset([c]) for c in cells] + [frozenset(cells)]
    count = ok_count = 0
    for su in subsets:
        for sw in subsets:
            U, W = ClopenSet(depth, su), ClopenSet(depth, sw)
            mU, mW = chain.measure(U), chain.measure(W)
            if not mU < mW:
                continue
            count += 1
            if count > max_pairs:
                truncated = True
                break
            Wp = chain.subset_witness(U, W)
            inside = set(chain.project(W, Wp.level).cells) >= set(Wp.cells)
            exact = chain.measure(Wp) == mU
            ok = inside and exact
            ok_count += ok
            pairs.append({
                "U": sorted(su), "W": sorted(sw),
                "witness_level": Wp.level, "ok": ok,
            })
        if count > max_pairs:
            break
    # a loaded snapshot's lifts are verified on load, and the engine builds
    # the ones absorbed here, so each stage is all there is to report
    maximality = [
        {"weights": [w.to_json() for w in obj.weight_list()], "stage": chain.absorb_object(obj)}
        for obj in chain.object_challenges(2)
    ]
    all_ok = ok_count == len(pairs)
    report = {
        "pairs_checked": len(pairs),
        "pairs_ok": ok_count,
        "pairs": pairs,
        "maximality": maximality,
        "truncated": truncated,
    }
    if not _emit("check-good", {"snapshot": snapshot, "depth": depth},
                 {"all_ok": all_ok, "pairs_checked": len(pairs)}, None, ws,
                 (args.out, jsonutil.dumps(report), "report") if args.out else None):
        return 3
    return 0 if all_ok else 1


def cmd_decide_rokhlin(args) -> int:
    ws = _workspace(args)
    descriptor = _read_json(args.descriptor, ws, "descriptors")
    verdict = cycles_mod.rokhlin_decide(GroupDescriptor.from_json(descriptor))
    if verdict.rokhlin == "unknown":
        # no verdict, not a "no"; strong_rokhlin is then unknown as well
        sys.stderr.write("not decided: the Rokhlin property of this value set is unknown\n")
        return 2
    _emit("decide-rokhlin", {"descriptor": descriptor},
          {"strong_rokhlin": verdict.strong_rokhlin, "rokhlin": verdict.rokhlin},
          verdict.certificate, ws)
    return 0 if verdict.rokhlin == "yes" else 1


def cmd_decompose(args) -> int:
    ws = _workspace(args)
    matrix = _read_json(args.matrix, ws, "snapshots")
    digested, symbols = {"matrix": matrix}, {}
    if args.descriptor:
        descriptor = digested["descriptor"] = _read_json(args.descriptor, ws, "descriptors")
        symbols = GroupDescriptor.from_json(descriptor).symbols()
    cycles = matrices_mod.cycle_decompose(matrices_mod.entries_from_json(matrix, symbols))
    result = {
        "cycles": [
            {"vertices": list(c.vertices), "w": c.weight.to_json()} for c in cycles
        ],
        "count": len(cycles),
    }
    _emit("decompose", digested, result, None, ws)
    return 0


def cmd_witness(args) -> int:
    ws = _workspace(args)
    snapshot = _read_json(args.snapshot, ws, "snapshots")
    matrix = _read_json(args.matrix, ws, "snapshots")
    chain = GoodMeasureChain.from_json(snapshot)
    A = BalancedMatrix.from_json(matrix, chain.V.symbols())
    sigma = matrices_mod.compatible_witness(chain, A)
    ok = matrices_mod.compatible(chain, sigma, A)
    if not _emit("witness", {"snapshot": snapshot, "matrix": matrix},
                 {"compatible": ok, "depth": sigma.depth}, sigma.to_json(), ws,
                 (args.out_snapshot, chain.to_text(), "snapshot") if args.out_snapshot else None):
        return 3
    return 0 if ok else 1


def cmd_check_compat(args) -> int:
    ws = _workspace(args)
    snapshot = _read_json(args.snapshot, ws, "snapshots")
    matrix = _read_json(args.matrix, ws, "snapshots")
    prefix = _read_json(args.prefix, ws, "snapshots")
    chain = GoodMeasureChain.from_json(snapshot)
    A = BalancedMatrix.from_json(matrix, chain.V.symbols())
    sigma = AutomorphismPrefix.from_json(prefix)
    # prefix_valid says False for such a level too; this line names it
    for k in sigma.levels:
        if not 0 <= k <= chain.depth:
            raise ValueError(f"prefix level {k} is not a level of the snapshot")
    if not chain.prefix_valid(sigma):
        raise ValueError("prefix is not an automorphism prefix of the snapshot")
    if not matrices_mod.validate(chain, A):
        raise ValueError("matrix is not a valid balanced matrix over the chain")
    ok = matrices_mod.compatible(chain, sigma, A)
    _emit("check-compat", {"snapshot": snapshot, "matrix": matrix, "prefix": prefix},
          {"compatible": ok}, None, ws)
    return 0 if ok else 1


def cmd_amalgamate_tuples(args) -> int:
    ws = _workspace(args)
    data = _read_json(args.input, ws, "descriptors")
    V = GroupDescriptor.from_json(data["descriptor"])
    symbols = V.symbols()
    A = cycles_mod.CycleTuple.from_json(data["A"], symbols)
    B0 = cycles_mod.CycleTuple.from_json(data["B0"], symbols)
    B1 = cycles_mod.CycleTuple.from_json(data["B1"], symbols)
    p0 = cycles_mod.TupleMorphism.from_json(data["p0"])
    p1 = cycles_mod.TupleMorphism.from_json(data["p1"])
    C, q0, q1 = cycles_mod.qlike_amalgamate(V, B0, p0, B1, p1, A)
    result = {"C": C.to_json(), "q0": q0.to_json(), "q1": q1.to_json()}
    _emit("amalgamate-tuples", data, result, None, ws)
    return 0


def cmd_product_lift(args) -> int:
    ws = _workspace(args)
    data = _read_json(args.input, ws, "descriptors")
    V = GroupDescriptor.from_json(data["descriptor"])
    symbols = V.symbols()
    c = cycles_mod.CycleTuple.from_json(data["c"], symbols)
    d = cycles_mod.CycleTuple.from_json(data["d"], symbols)
    u, mc, md = cycles_mod.ring_product_lift(V, c, d)
    result = {"u": u.to_json(), "mc": mc.to_json(), "md": md.to_json()}
    _emit("product-lift", data, result, None, ws)
    return 0


def cmd_find_morphism(args) -> int:
    if args.effort < 0:  # no search runs on a negative budget, so none can use it up
        sys.stderr.write(f"effort {args.effort} is negative\n")
        return 2
    ws = _workspace(args)
    data = _read_json(args.input, ws, "descriptors")
    symbols = {}
    if "descriptor" in data:
        symbols = GroupDescriptor.from_json(data["descriptor"]).symbols()
    src = cycles_mod.CycleTuple.from_json(data["src"], symbols)
    tgt = cycles_mod.CycleTuple.from_json(data["tgt"], symbols)
    m = cycles_mod.find_tuple_morphism(src, tgt, effort=args.effort)
    result = {"found": m is not None, "morphism": m.to_json() if m else None,
              "effort": args.effort}
    _emit("find-morphism", {"input": data, "effort": args.effort}, result,
          m.to_json() if m else None, ws)
    return 0 if m is not None else 1


def cmd_check_closure(args) -> int:
    ws = _workspace(args)
    descriptor = _read_json(args.descriptor, ws, "descriptors")
    V = GroupDescriptor.from_json(descriptor)
    violations = cycles_mod.divisibility_closure_check(V)
    _emit("check-closure", {"descriptor": descriptor},
          {"violations": violations, "count": len(violations)},
          violations[0] if violations else None, ws)
    return 1 if violations else 0


def cmd_dichotomy(args) -> int:
    ws = _workspace(args)
    descriptor = _read_json(args.descriptor, ws, "descriptors")
    V = GroupDescriptor.from_json(descriptor)
    b, c = (None if t is None else ExactValue.of(jsonutil.parse_fraction(t))
            for t in (args.b, args.c))
    verdict = cycles_mod.dichotomy_analyze(V, b, args.n, c)
    _emit("dichotomy", {"descriptor": descriptor, "b": args.b, "n": args.n, "c": args.c},
          verdict.to_json(), verdict.violation or None, ws)
    return 0 if verdict.kind == "strong_rokhlin_all" else 1


def _build_composite(data) -> composite_mod.CompositeMeasure:
    parts = []
    for comp in data["components"]:
        V = GroupDescriptor.from_json(comp["descriptor"])
        chain = GoodMeasureChain(V)
        budget = jsonutil.parse_int(comp.get("budget", 1))
        chain.run_schedule(budget)
        parts.append((chain, Fraction(jsonutil.parse_fraction(comp["scale"]))))
    return composite_mod.weighted_sum(parts)


def cmd_composite_build(args) -> int:
    ws = _workspace(args)
    spec = _read_json(args.spec, ws, "descriptors")
    m = _build_composite(spec)
    out = {
        "components": [
            {"scale": str(s), "snapshot": jsonutil.Canonical(chain.to_text())}
            for chain, s in m.components
        ]
    }
    result = {
        "components": len(m.components),
        "levels": [len(chain.levels) for chain, _ in m.components],
        "out": str(args.out),
    }
    written = _emit("composite-build", spec, result, None, ws,
                    (args.out, jsonutil.dumps(out), "composite"))
    return 0 if written else 3


def cmd_composite_refute(args) -> int:
    ws = _workspace(args)
    spec = _read_json(args.spec, ws, "descriptors")
    m = _build_composite(spec)
    targets = [ExactValue.of(jsonutil.parse_fraction(t.strip())) for t in args.targets.split(",")]
    outcome = composite_mod.maximality_refute(m, targets)
    _emit("composite-refute-maximality", {"spec": spec, "targets": args.targets},
          outcome.to_json(), outcome.certificate, ws)
    return 0 if outcome.feasible else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodmeasures",
        description="exact chains, balanced matrices, and Rokhlin decisions "
        "for measures on the Cantor space",
    )
    parser.add_argument("--workspace", help="workspace root (or env CANTOR_WORKSPACE)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-chain", help="run the absorption schedule and save a snapshot")
    p.add_argument("--descriptor")
    p.add_argument("--resume", help="snapshot to continue from instead of a fresh chain")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_chain)

    p = sub.add_parser("check-good", help="subset-condition sweep plus maximality sample")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_good)

    p = sub.add_parser("decide-rokhlin", help="decide dense/comeager conjugacy classes")
    p.add_argument("--descriptor", required=True)
    p.set_defaults(func=cmd_decide_rokhlin)

    p = sub.add_parser("decompose", help="decompose an equi-summed matrix into cycles")
    p.add_argument("--matrix", required=True)
    p.add_argument("--descriptor")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("witness", help="automorphism prefix compatible with a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out-snapshot")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("check-compat", help="is a prefix compatible with a matrix?")
    p.add_argument("--matrix", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--prefix", required=True)
    p.set_defaults(func=cmd_check_compat)

    p = sub.add_parser("amalgamate-tuples", help="amalgamate cycle tuples over a Q-like set")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_amalgamate_tuples)

    p = sub.add_parser("product-lift", help="common lift of two tuples over a ring-like set")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_product_lift)

    p = sub.add_parser("find-morphism", help="bounded search for a cycle-tuple morphism")
    p.add_argument("--input", required=True)
    p.add_argument("--effort", type=int, default=10**6)
    p.set_defaults(func=cmd_find_morphism)

    p = sub.add_parser("check-closure", help="exact divisibility closure of the value set")
    p.add_argument("--descriptor", required=True)
    p.set_defaults(func=cmd_check_closure)

    p = sub.add_parser("dichotomy", help="scaled value set without a dense conjugacy class")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--b", help="b in V below 1; with --n, or both are taken from V")
    p.add_argument("--n", type=int, help="n > 1 with b/n not in V")
    p.add_argument("--c", help="c in V within [b/n, 1/n]; if left out, the first V lists")
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("composite", help="weighted sums of chains")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pb = csub.add_parser("build", help="build all component chains and save them")
    pb.add_argument("--spec", required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_composite_build)
    pr = csub.add_parser("refute-maximality", help="decide a target partition exactly")
    pr.add_argument("--spec", required=True)
    pr.add_argument("--targets", required=True)
    pr.set_defaults(func=cmd_composite_refute)

    return parser


# built once per process: each parse fills a fresh namespace, so no call
# sees another's arguments
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except WorkspaceError as exc:
        sys.stderr.write(f"cannot write {exc}\n")
        return 3
    except GoodMeasuresError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (OSError, LookupError, ValueError, TypeError, ArithmeticError) as exc:
        # LookupError: a missing key or index of the input; ArithmeticError: a
        # sign left undecided by the declared symbols, or a zero denominator;
        # none is a mathematical "no"
        sys.stderr.write(f"invalid input: {type(exc).__name__}: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("not decided: out of memory\n")
        return 2
    except Exception as exc:
        # the "this is a bug" checks, a RecursionError from a deep input, and
        # anything else: no verdict either way, and never the exit 1 of a "no"
        text = str(exc).replace("\n", " ")
        sys.stderr.write(f"not decided: {type(exc).__name__}: {text}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
