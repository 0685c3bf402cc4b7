"""Smoke test of the benchmark: a few ops of each workload at a fixed seed.

Run from the root of a checkout (it is outside the tier-1 ``tests/`` suite,
so a plain ``pytest`` there does not collect it):

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re

import pytest

import run
import workloads
from layertrace import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_printed(workload, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 3)
    assert run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert result["correct"] is True
    assert result["attempted"] == 3 and result["failed"] == 0
    assert "3 ops, 0 failed, error_rate 0 ratio" in out
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
        line = rf"^  {re.escape(m['name'])} \S+ {re.escape(m['unit'])}(\s|$)"
        assert re.search(line, out, re.M), f"{m['name']} not printed with its unit"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_self_time_within_op_wall_time(workload, tmp_path):
    gm = run.import_package()
    wl = workloads.WORKLOADS[workload](gm, tmp_path, SEED)
    wl.setup()
    tracer = Tracer(gm)
    tracer.install()
    try:
        samples = run.run_ops(wl, 0, 0, 2, tracer)
    finally:
        tracer.uninstall()
        wl.close()
    assert tracer.spans, "no spans recorded"
    for s in samples:
        assert not s.problems
        assert 0 < s.self_s <= s.raw


def test_traced_run_emits_every_per_layer_metric(capsys, monkeypatch):
    monkeypatch.setattr(run, "TRACE_MIN_OPS", 2)
    assert run.main(["--workload", "witness", "--seed", str(SEED), "--seconds", "0",
                     "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.overhead"]["value"] > 0
