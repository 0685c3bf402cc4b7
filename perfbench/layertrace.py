"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install`` replaces each traced function under every name a caller
uses: the defining module, every ``goodmeasures`` module that imported it by
name (``chain`` imports ``amalgamate``, ``common_refinement``,
``check_all_in`` and ``decompose_entries`` that way), and the class for
methods.  ``uninstall`` puts the originals back.  No file of the package
changes.

Calls into ``partitions``, ``chain``, ``matrices``, ``flows``, ``cli`` and
``jsonutil`` become spans ``(id, name, start, end, parent, op)`` kept in
memory; the hot ``values`` methods only add to aggregated counters.  Every
wrapped call, span or not, charges its duration to its caller, so self time
is the call's duration minus that of the wrapped calls under it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Spans kept per run; later calls still count in the aggregates.
SPAN_LIMIT = 200_000

#: (metric prefix, module, owner class or None, attribute, keeps spans)
TARGETS = [
    ("values.sign", "values", "ExactValue", "sign", False),
    ("values.interval", "values", "ExactValue", "interval", False),
    ("values.arith", "values", "ExactValue", "__add__", False),
    ("values.arith", "values", "ExactValue", "__sub__", False),
    ("values.check_all_in", "values", None, "check_all_in", False),
    ("values.enumerate_values", "values", "GroupDescriptor", "enumerate_values", False),
    ("partitions.common_refinement", "partitions", None, "common_refinement", True),
    ("partitions.amalgamate", "partitions", None, "amalgamate", True),
    ("partitions.split_cell", "partitions", None, "split_cell", True),
    ("partitions.verify_morphism", "partitions", None, "verify_morphism", True),
    ("chain.absorb", "chain", "GoodMeasureChain", "absorb_object", True),
    ("chain.absorb", "chain", "GoodMeasureChain", "absorb_morphism", True),
    ("chain.composite_mapping", "chain", "GoodMeasureChain", "composite_mapping", True),
    ("chain.run_schedule", "chain", "GoodMeasureChain", "run_schedule", True),
    ("chain.subset_witness", "chain", "GoodMeasureChain", "subset_witness", True),
    ("chain.extend_prefix", "chain", "GoodMeasureChain", "extend_prefix", True),
    ("chain.from_json", "chain", "GoodMeasureChain", "from_json", True),
    ("chain.to_json", "chain", "GoodMeasureChain", "to_json", True),
    ("matrices.to_cycle_object", "matrices", None, "to_cycle_object", True),
    ("matrices.compatible_witness", "matrices", None, "compatible_witness", True),
    ("matrices.compatible", "matrices", None, "compatible", True),
    ("matrices.conjugate_transport_check", "matrices", None, "conjugate_transport_check", True),
    ("flows.decompose_entries", "flows", None, "decompose_entries", True),
    ("cli.main", "cli", None, "main", True),
    ("jsonutil.read", "jsonutil", None, "read", True),
    ("jsonutil.write", "jsonutil", None, "write", True),
    ("jsonutil.dumps", "jsonutil", None, "dumps", True),
    ("jsonutil.loads", "jsonutil", None, "loads", True),
    ("jsonutil.digest", "jsonutil", None, "digest", True),
]


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


class Tracer:
    """Wrappers, spans and counters of one traced run; inert between ops."""

    def __init__(self, gm) -> None:
        self.gm = gm
        self.op_id = -1
        self.active = False  # calls outside an op's timed part pass through
        self.agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.count: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_total = 0.0
        self._stack: list[list] = []  # [key, child seconds]
        self._span = None  # innermost open span id
        self._next_id = 0
        self._undo: list[tuple] = []

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "goodmeasures"]
        for key, modname, owner, attr, spans in TARGETS:
            mod = getattr(self.gm, modname)
            if owner is None:
                orig = getattr(mod, attr)
                wrapper = self._wrap(key, orig, spans)
                for m in modules:
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, name, wrapper)
            else:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrap(key, raw.__func__, spans)))
                else:
                    self._set(cls, attr, self._wrap(key, raw, spans))

    def uninstall(self) -> None:
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo.clear()

    def _set(self, obj, name, value) -> None:
        self._undo.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, key: str, fn, keep_span: bool):
        before = _BEFORE.get(key)
        after = _AFTER.get(key)
        stack, agg, perf = self._stack, self.agg, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before(self, args) if before else None
            parent = self._span
            sid = None
            if keep_span:
                sid = self._next_id
                self._next_id += 1
                self._span = sid
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rec = agg[key]
                rec[0] += 1
                rec[1] += dur
                own = dur - frame[1]
                rec[2] += own
                self.self_total += own
                if keep_span:
                    self._span = parent
                    if len(self.spans) < SPAN_LIMIT:
                        self.spans.append((sid, key, t0, t1, parent, self.op_id))
                    else:
                        self.dropped += 1
            if after:
                after(self, args, result, state)
            return result

        return traced

    # -- output ---------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


# -- counters taken around particular calls -------------------------------------------


def _sign_before(tr, args):
    if args[0].coeffs:
        tr.count["values.sign.irrational"] += 1


def _interval_before(tr, args):
    if tr._stack and tr._stack[-1][0] == "values.sign":
        tr.count["values.sign.rounds"] += 1


def _arith_before(tr, args):
    if not args[0].coeffs and not args[1].coeffs:
        tr.count["values.arith.rational"] += 1


def _check_all_in_before(tr, args):
    # every caller in the package passes a sequence
    tr.count["values.check_all_in.values_checked"] += len(args[0])


def _absorb_before(tr, args):
    return len(args[0].ledger)


def _absorb_after(tr, args, result, ledger_before):
    if len(args[0].ledger) == ledger_before:
        tr.count["chain.absorb.ledger_hits"] += 1


def _composite_before(tr, args):
    tr.count["chain.composite_mapping.levels_walked"] += args[1] - args[2]


def _refinement_after(tr, args, result, state):
    tr.count["partitions.common_refinement.parts"] += len(result.parts)


def _decompose_after(tr, args, result, state):
    tr.count["flows.decompose_entries.cycles"] += len(result)


def _read_before(tr, args):
    tr.count["cli.bytes_read"] += _file_size(args[0])


def _write_after(tr, args, result, state):
    tr.count["cli.bytes_written"] += _file_size(args[0])


_BEFORE = {
    "values.sign": _sign_before,
    "values.interval": _interval_before,
    "values.arith": _arith_before,
    "values.check_all_in": _check_all_in_before,
    "chain.absorb": _absorb_before,
    "chain.composite_mapping": _composite_before,
    "jsonutil.read": _read_before,
}
_AFTER = {
    "chain.absorb": _absorb_after,
    "partitions.common_refinement": _refinement_after,
    "flows.decompose_entries": _decompose_after,
    "jsonutil.write": _write_after,
}
