"""Benchmark of the goodmeasures engine: three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {schedule,witness,cli} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, one client: each op starts when the previous one
and its check have finished.  Timings are normalised to host speed (see
``hostclock``).  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  The lines before it give the raw wall-clock and
reference-kernel figures beside the normalised ones.

Exit codes: 0 when the run completed (``correct`` says whether every op
passed its check), 2 when the package cannot be found or the arguments are
invalid.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from hostclock import NOMINAL_REF_MS, bracketed, normalise  # noqa: E402

#: Each run times at least this many ops, so ten or more lie beyond p90.
MIN_OPS = 100
#: Each part (untraced, traced) of a traced run times at least this many ops.
TRACE_MIN_OPS = 10
#: A run starts no op later than this many seconds after it began, however
#: few ops it has, to stay inside the 180 s a run may take.
HARD_STOP_S = 150.0
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: Share of a traced run spent untraced, as the overhead baseline.
UNTRACED_SHARE = 0.25

MODULES = ("values", "partitions", "flows", "chain", "matrices", "jsonutil", "cli")


class PackageMissing(Exception):
    pass


def import_package():
    """Import goodmeasures from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "goodmeasures" / "__init__.py").is_file():
        raise PackageMissing(f"no goodmeasures package under {SRC}")
    sys.path.insert(0, str(SRC))
    gm = importlib.import_module("goodmeasures")
    for name in MODULES:
        importlib.import_module(f"goodmeasures.{name}")
    if Path(gm.__file__).resolve().parent != SRC / "goodmeasures":
        raise PackageMissing(f"goodmeasures was imported from {gm.__file__}")
    return gm


def percentile(xs: list[float], pct: int) -> float:
    if not xs:
        return 0.0
    if len(xs) < 2:
        return xs[0]
    if pct == 50:
        return statistics.median(xs)
    return statistics.quantiles(xs, n=100)[pct - 1]


class Sample:
    """One op: raw wall seconds (None if it raised), the kernel readings
    around it, the problems its check found, and what tracing saw of it."""

    __slots__ = ("raw", "refs", "problems", "levels", "self_s")

    def __init__(self, raw, refs, problems, levels=0, self_s=0.0):
        self.raw, self.refs, self.problems = raw, refs, problems
        self.levels, self.self_s = levels, self_s


def _run_op(wl, i: int, tracer=None) -> Sample:
    inp = wl.prepare(i)
    gc.collect()
    self_before = tracer.self_total if tracer else 0.0
    if tracer:
        tracer.start_op(i)
    try:
        out, raw, refs = bracketed(wl.op, inp)
    except Exception as exc:  # a failed op is counted, not fatal
        return Sample(None, [], [f"op {i} raised {type(exc).__name__}: {exc}"])
    finally:
        if tracer:
            tracer.end_op()
    self_s = tracer.self_total - self_before if tracer else 0.0
    try:
        problems = wl.check(inp, out)
    except Exception as exc:
        problems = [f"check of op {i} raised {type(exc).__name__}: {exc}"]
    return Sample(raw, refs, problems, wl.levels_appended(inp, out), self_s)


def run_ops(wl, start: int, seconds: float, min_ops: int, tracer=None,
            deadline: float = float("inf")) -> list[Sample]:
    """Closed loop: ops until ``seconds`` have passed and ``min_ops`` are done,
    or the ``deadline`` (a ``perf_counter`` time) is reached."""
    samples: list[Sample] = []
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        if (now - t0 >= seconds and len(samples) >= min_ops) or now >= deadline:
            break
        samples.append(_run_op(wl, start + len(samples), tracer))
    return samples


def measure_setup(wl) -> list[Sample]:
    """SETUP_REPS set-ups, each bracketed like an op."""
    reps = []
    for _ in range(SETUP_REPS):
        gc.collect()
        _, raw, refs = bracketed(lambda timer: wl.setup())
        reps.append(Sample(raw, refs, []))
    # what set-up left alive is not rescanned by the collections between ops
    gc.collect()
    gc.freeze()
    return reps


def summary(samples: list[Sample]) -> dict:
    """Normalised and raw figures of a list of ops."""
    timed = [s for s in samples if s.raw is not None]
    raw = [s.raw for s in timed]
    norm = [normalise(s.raw, s.refs) for s in timed]
    refs = [k for s in samples for k in s.refs]
    ok = sum(1 for s in samples if not s.problems)
    return {
        "ops": len(samples),
        "failed": len(samples) - ok,
        "ops_per_s": ok / sum(norm) if norm else 0.0,
        "op_ms.p50": percentile(norm, 50) * 1e3,
        "op_ms.p90": percentile(norm, 90) * 1e3,
        "raw_ops_per_s": ok / sum(raw) if raw else 0.0,
        "raw_op_ms.p50": percentile(raw, 50) * 1e3,
        "raw_op_ms.p90": percentile(raw, 90) * 1e3,
        "ref_ms.p50": percentile(refs, 50) * 1e3,
        "ref_ms.p90": percentile(refs, 90) * 1e3,
        "ref_ms.min": min(refs, default=0.0) * 1e3,
        "ref_ms.max": max(refs, default=0.0) * 1e3,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- per-layer metrics of a traced run ---------------------------------------------------


def cold_start_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing the CLI
    inside a fresh one; three fresh interpreters each, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; t = time.perf_counter(); import goodmeasures.cli; "
            "print(time.perf_counter() - t)")
    bare, imp = [], []
    for _ in range(3):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append(time.perf_counter() - t)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                             capture_output=True, text=True)
        imp.append(float(out.stdout))
    return statistics.median(imp) * 1e3, statistics.median(bare) * 1e3


def layer_metrics(tracer, traced: list[Sample], factor: float) -> dict:
    """Per-op averages of the traced calls, times at reference speed."""
    from layertrace import TARGETS

    n = max(1, len(traced))
    out: dict[str, tuple[float, str]] = {}
    for key in dict.fromkeys(t[0] for t in TARGETS):
        if key == "values.interval":  # only feeds values.sign.enclosure_rounds
            continue
        calls, total, own = tracer.agg.get(key, (0, 0.0, 0.0))
        out[f"{key}.calls"] = (calls / n, "count/op")
        out[f"{key}.total_ms"] = (total * factor * 1e3 / n, "ms/op")
        if not key.startswith("jsonutil."):
            out[f"{key}.self_ms"] = (own * factor * 1e3 / n, "ms/op")
    c = tracer.count

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["values.sign.enclosure_rounds"] = (
        ratio(c["values.sign.rounds"], c["values.sign.irrational"]), "count/call")
    out["values.arith.rational_share"] = (
        ratio(c["values.arith.rational"], tracer.agg["values.arith"][0]), "ratio")
    absorbs = tracer.agg["chain.absorb"][0]
    out["chain.absorb.hit_ratio"] = (ratio(c["chain.absorb.ledger_hits"], absorbs), "ratio")
    for key in ("values.check_all_in.values_checked", "partitions.common_refinement.parts",
                "chain.absorb.ledger_hits", "chain.composite_mapping.levels_walked",
                "flows.decompose_entries.cycles"):
        out[key] = (c[key] / n, "count/op")
    out["chain.levels_appended"] = (sum(s.levels for s in traced) / n, "count/op")
    out["cli.bytes_read"] = (c["cli.bytes_read"] / n, "B/op")
    out["cli.bytes_written"] = (c["cli.bytes_written"] / n, "B/op")
    return out


# -- main ---------------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_STOP_S
    try:
        gm = import_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](gm, workdir, args.seed)
    try:
        setup = measure_setup(wl)
        if args.trace:
            result = traced_run(gm, wl, args, deadline)
        else:
            result = untraced_run(wl, args, setup, deadline)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _result(samples: list[Sample], s: dict, metrics: dict) -> dict:
    for line in [p for x in samples for p in x.problems][:10]:
        print(f"FAILED {line}")
    print(f"{s['ops']} ops, {s['failed']} failed, error_rate "
          f"{_fmt(s['failed'] / max(1, s['ops']))} ratio")
    print(f"reference kernel: p50 {_fmt(s['ref_ms.p50'])} ms, p90 {_fmt(s['ref_ms.p90'])} ms, "
          f"range {_fmt(s['ref_ms.min'])}-{_fmt(s['ref_ms.max'])} ms "
          f"(nominal {NOMINAL_REF_MS} ms)")
    return {
        "correct": s["failed"] == 0,
        "attempted": s["ops"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced_run(wl, args, setup: list[Sample], deadline: float) -> dict:
    samples = run_ops(wl, 0, args.seconds, MIN_OPS, deadline=deadline)
    s = summary(samples)
    setup_raw = statistics.median(x.raw for x in setup)
    metrics = {
        "setup_s": (statistics.median(normalise(x.raw, x.refs) for x in setup), "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_ms.p50": (s["op_ms.p50"], "ms"),
        "op_ms.p90": (s["op_ms.p90"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"setup_s": setup_raw, "ops_per_s": s["raw_ops_per_s"],
           "op_ms.p50": s["raw_op_ms.p50"], "op_ms.p90": s["raw_op_ms.p90"]}
    result = _result(samples, s, metrics)
    print(f"{wl.name}, seed {args.seed}, at reference speed (raw wall clock in brackets):")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {_fmt(raw[name])} {unit})" if name in raw else ""
        print(f"  {name} {_fmt(value)} {unit}{extra}")
    print("detail " + json.dumps({"workload": wl.name, "seed": args.seed,
                                  "setup_raw_s": [x.raw for x in setup], **s}))
    return result


def traced_run(gm, wl, args, deadline: float) -> dict:
    from layertrace import Tracer

    untraced = run_ops(wl, 0, args.seconds * UNTRACED_SHARE, TRACE_MIN_OPS, deadline=deadline)
    tracer = Tracer(gm)
    tracer.install()
    try:
        traced = run_ops(wl, len(untraced), args.seconds * (1 - UNTRACED_SHARE), TRACE_MIN_OPS,
                         tracer, deadline)
    finally:
        tracer.uninstall()
    spans_path = HERE / "out" / f"trace-{wl.name}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    samples = untraced + traced
    base, with_trace = summary(untraced), summary(traced)
    # per-layer times are run totals, so they take the traced ops' mean scale
    scales = [normalise(1.0, x.refs) for x in traced if x.raw is not None]
    factor = statistics.fmean(scales) if scales else 1.0
    metrics = layer_metrics(tracer, traced, factor)
    cold_import, interpreter = cold_start_ms()
    metrics.update({
        "cli.cold_import_ms": (cold_import, "ms"),
        "cli.interpreter_ms": (interpreter, "ms"),
        "host.ref_ms.p50": (base["ref_ms.p50"], "ms"),
        "host.ref_ms.p90": (base["ref_ms.p90"], "ms"),
        "host.raw_op_ms.p50": (base["raw_op_ms.p50"], "ms"),
        "trace.overhead": (with_trace["op_ms.p50"] / base["op_ms.p50"], "ratio"),
    })
    result = _result(samples, summary(samples), metrics)
    print(f"{wl.name}, seed {args.seed}, traced: per-op averages over {len(traced)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {_fmt(value)} {unit}")
    print(f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}, written to "
          f"{spans_path.relative_to(ROOT)}")
    return result


if __name__ == "__main__":
    sys.exit(main())
