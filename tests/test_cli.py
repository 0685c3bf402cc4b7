"""CLI envelopes, exit codes, determinism, artifact round-trips."""

import argparse
import gc
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from goodmeasures import cli, composite, jsonutil
from goodmeasures.chain import GoodMeasureChain
from goodmeasures.cli import build_parser, main
from goodmeasures.jsonutil import dumps, write
from goodmeasures.cycles import CycleTuple, TupleMorphism, verify_tuple_morphism

from conftest import sqrt2_unit_power
from oracles import snapshot_format1, snapshot_format2

DYADIC = {"rational": {"default": "0", "exceptions": {"2": "inf"}}, "irrationals": []}
BAD23 = {"rational": {"default": "0", "exceptions": {"2": 3}}, "irrationals": []}
RATIONALS = {"rational": {"default": "inf", "exceptions": {}}, "irrationals": []}
MIXED23 = {"rational": {"default": "0", "exceptions": {"2": "inf", "3": 1}}, "irrationals": []}
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
COMPOSITE_SPEC = {
    "components": [
        {
            "descriptor": {"rational": {"default": "0", "exceptions": {"3": "inf"}},
                           "irrationals": []},
            "scale": "1/3",
            "budget": 2,
        },
        {
            "descriptor": {
                "rational": {"default": "0", "exceptions": {}},
                "irrationals": [
                    {"name": "alpha",
                     "enclosure": {"kind": "sqrt", "radicand": 2, "shift": "-1"},
                     "group": {"default": "0", "exceptions": {}}}
                ],
            },
            "scale": "2/3",
            "budget": 2,
        },
    ]
}


@pytest.fixture()
def files(tmp_path):
    desc = tmp_path / "dyadic.json"
    write(desc, dumps(DYADIC))
    bad = tmp_path / "bad.json"
    write(bad, dumps(BAD23))
    spec = tmp_path / "composite.json"
    write(spec, dumps(COMPOSITE_SPEC))
    write(tmp_path / "rationals.json", dumps(RATIONALS))
    write(tmp_path / "mixed.json", dumps(MIXED23))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (jsonutil.loads(out) if out.strip() else None)


def test_build_chain_deterministic(files, capsys):
    out1 = files / "snap1.json"
    out2 = files / "snap2.json"
    code, env1 = run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
                     "--budget", "3", "--out", str(out1))
    assert code == 0
    code, env2 = run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
                     "--budget", "3", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert env1["input_hash"] == env2["input_hash"]


def test_snapshot_save_load_save(files, capsys):
    out = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "2", "--out", str(out))
    chain = GoodMeasureChain.from_json(jsonutil.read(out))
    again = files / "again.json"
    write(again, chain.to_text())
    assert out.read_bytes() == again.read_bytes()


def test_build_chain_resume(files, capsys):
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "2", "--out", str(snap))
    resumed = files / "resumed.json"
    code, _ = run(capsys, "build-chain", "--resume", str(snap),
                  "--budget", "3", "--out", str(resumed))
    assert code == 0
    fresh = files / "fresh.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "3", "--out", str(fresh))
    assert resumed.read_bytes() == fresh.read_bytes()


def test_build_chain_zero_budget(files, capsys):
    code, _ = run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
                  "--budget", "0", "--out", str(files / "x.json"))
    assert code == 2


def test_build_chain_missing_descriptor(files, capsys):
    code, _ = run(capsys, "build-chain", "--descriptor", str(files / "nope.json"),
                  "--budget", "1", "--out", str(files / "x.json"))
    assert code == 2


def test_check_good(files, capsys):
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "3", "--out", str(snap))
    code, env = run(capsys, "check-good", "--snapshot", str(snap), "--depth", "2",
                    "--out", str(files / "report.json"))
    assert code == 0
    assert env["result"]["all_ok"]
    report = jsonutil.read(files / "report.json")
    assert report["pairs_ok"] == report["pairs_checked"] >= 1


def test_check_good_corrupt_snapshot(files, capsys):
    bad = files / "corrupt.json"
    bad.write_text("{ not json")
    code, _ = run(capsys, "check-good", "--snapshot", str(bad), "--depth", "1")
    assert code == 2


def test_check_good_depth_beyond_levels(files, capsys):
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "1", "--out", str(snap))
    levels = len(jsonutil.read(snap)["levels"])
    code, env = run(capsys, "check-good", "--snapshot", str(snap),
                    "--depth", str(levels + 1))
    assert code == 0 and env["result"]["all_ok"]


@pytest.mark.parametrize("depth", [9, 1000, 10**12])
def test_check_good_refuses_a_depth_past_the_cell_bound(files, capsys, depth):
    # a budget-1 dyadic snapshot has a top of 2 cells at level 1; depth 8
    # appends a level of 256 cells, depth 9 one of 512
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "1", "--out", str(snap))
    assert main(["check-good", "--snapshot", str(snap), "--depth", str(depth)]) == 2
    assert _one_line_error(capsys) == f"depth {depth} needs a level of over 256 cells"


@pytest.mark.parametrize("depth", [-1, -2, -5])
def test_check_good_refuses_a_negative_depth(files, capsys, depth):
    # a budget-1 dyadic snapshot has two levels: -1 would name its top, -2
    # its root, and -5 no level at all
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "1", "--out", str(snap))
    report = files / "report.json"
    code = main(["check-good", "--snapshot", str(snap), "--depth", str(depth),
                 "--out", str(report)])
    assert code == 2
    assert _one_line_error(capsys) == f"depth {depth} is not a level of the snapshot"
    assert not report.exists()


def test_decide_exit_codes(files, capsys):
    code, env = run(capsys, "decide-rokhlin", "--descriptor", str(files / "dyadic.json"))
    assert code == 0 and env["result"] == {"strong_rokhlin": "yes", "rokhlin": "yes"}
    code, env = run(capsys, "decide-rokhlin", "--descriptor", str(files / "bad.json"))
    assert code == 1
    assert env["certificate"] == {"prime": 2, "exponent": 3}


def test_decompose_two_cycle(files, capsys):
    mat = files / "mat.json"
    write(mat, dumps({
        "level": 1,
        "entries": [
            {"from": "r/0", "to": "r/1", "w": {"q": "1/2"}},
            {"from": "r/1", "to": "r/0", "w": {"q": "1/2"}},
        ],
    }))
    code, env = run(capsys, "decompose", "--matrix", str(mat))
    assert code == 0
    assert env["result"]["count"] == 1


def test_decompose_invalid_matrix(files, capsys):
    mat = files / "mat.json"
    write(mat, dumps({"level": 0, "entries": [
        {"from": "a", "to": "b", "w": {"q": "1/2"}}]}))
    assert main(["decompose", "--matrix", str(mat)]) == 2
    assert _one_line_error(capsys) == "NotEquiSummed: row/column sums differ at a"


def _sqrt_descriptor(radicand, shift) -> dict:
    return {
        "rational": {"default": "0", "exceptions": {}},
        "irrationals": [{"name": "a", "group": {"default": "0", "exceptions": {}},
                         "enclosure": {"kind": "sqrt", "radicand": radicand, "shift": shift}}],
    }


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_json_float_in_matrix_is_invalid_input(files, capsys):
    mat = files / "float.json"
    # written without jsonutil, which refuses floats
    mat.write_text(json.dumps({"level": 1, "entries": [
        {"from": "r/0", "to": "r/1", "w": {"q": 0.5}},
        {"from": "r/1", "to": "r/0", "w": {"q": "1/2"}}]}))
    assert main(["decompose", "--matrix", str(mat)]) == 2
    assert "inexact number 0.5" in _one_line_error(capsys)


def test_json_float_in_descriptor_is_invalid_input(files, capsys):
    desc = files / "float_desc.json"
    desc.write_text(json.dumps(_sqrt_descriptor(2, -0.5)))
    assert main(["decide-rokhlin", "--descriptor", str(desc)]) == 2
    assert "inexact number -0.5" in _one_line_error(capsys)


_NAN_LINE = ('invalid input: TypeError: inexact number {}; '
             'write fractions as strings such as "1/10"')


@pytest.mark.parametrize("command", ["check-compat", "witness"])
def test_snapshot_format_nan_is_an_inexact_number(files, capsys, command):
    """NaN is refused where the JSON is parsed, as a float is, not read as a
    format that is "a JSON number, not a number"."""
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    text = snap.read_text(encoding="utf-8")
    assert '"format": 3,' in text
    doctored = files / "nan.json"
    doctored.write_text(text.replace('"format": 3,', '"format": NaN,'), encoding="utf-8")
    assert main(_load_commands(doctored, mat, prefix)[command]) == 2
    assert _one_line_error(capsys) == _NAN_LINE.format("NaN")


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity"])
def test_infinity_under_an_unread_key_is_refused_before_the_work(files, capsys, constant):
    """A key no parser reads is refused when the file is parsed: witness
    writes no snapshot and prints nothing on stdout."""
    snap, mat, _ = _snapshot_inputs(files, capsys)
    text = snap.read_text(encoding="utf-8")
    doctored = files / "infinite.json"
    doctored.write_text(text.replace("{\n", f'{{\n  "note": {constant},\n', 1), encoding="utf-8")
    out = files / "extended.json"
    code = main(["witness", "--matrix", str(mat), "--snapshot", str(doctored),
                 "--out-snapshot", str(out)])
    assert code == 2 and not out.exists()
    assert _one_line_error(capsys) == _NAN_LINE.format(constant)


def test_an_unpaired_surrogate_is_refused_before_the_work(files, capsys, monkeypatch):
    """A cell id written as the lone surrogate \\ud800 is refused where the
    snapshot is parsed, with one line, not after the sweep at the digest."""
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "1", "--out", str(snap))
    text = snap.read_text(encoding="utf-8")
    assert '"r"' in text
    snap.write_text(text.replace('"r"', '"\\ud800"'), encoding="utf-8")

    def unreachable(data):
        raise AssertionError("a snapshot with a lone surrogate was loaded")

    monkeypatch.setattr(GoodMeasureChain, "from_json", staticmethod(unreachable))
    assert main(["check-good", "--snapshot", str(snap), "--depth", "1"]) == 2
    assert _one_line_error(capsys) == (
        "invalid input: ValueError: a JSON string holds the unpaired surrogate U+D800"
    )


@pytest.mark.parametrize("radicand", [4, 0])
def test_rational_sqrt_symbol_is_invalid_input(files, capsys, radicand):
    desc = files / "square.json"
    write(desc, dumps(_sqrt_descriptor(radicand, "-3/2" if radicand else "1/2")))
    code = main(["build-chain", "--descriptor", str(desc), "--budget", "1",
                 "--out", str(files / "never.json")])
    assert code == 2
    assert f"sqrt({radicand}) is not an irrational real" in _one_line_error(capsys)
    assert not (files / "never.json").exists()


def _descriptor(*enclosures, exponent="0") -> dict:
    return {
        "rational": {"default": "0", "exceptions": {"2": exponent}},
        "irrationals": [{"name": n, "group": {"default": "0", "exceptions": {}}, "enclosure": e}
                        for n, e in enclosures],
    }


def test_dependent_sqrt_symbols_are_invalid_input(files, capsys):
    desc = files / "dependent.json"
    write(desc, dumps(_descriptor(("s2", {"kind": "sqrt", "radicand": 2, "shift": "-1"}),
                                  ("s8", {"kind": "sqrt", "radicand": 8, "shift": "-2"}))))
    code = main(["build-chain", "--descriptor", str(desc), "--budget", "1",
                 "--out", str(files / "never.json")])
    assert code == 2
    assert "s2 and s8 are rationally dependent" in _one_line_error(capsys)
    assert not (files / "never.json").exists()


def test_undecided_sign_is_invalid_input(files, capsys):
    # 0.111...1 in binary, 4096 digits: x - 1 straddles 0 at every precision
    desc = files / "digits.json"
    write(desc, dumps(_descriptor(("x", {"kind": "digits", "base": 2, "digits": "1" * 4096}))))
    code = main(["build-chain", "--descriptor", str(desc), "--budget", "1",
                 "--out", str(files / "never.json")])
    assert code == 2
    assert "sign undecided" in _one_line_error(capsys)
    assert not (files / "never.json").exists()


@pytest.mark.parametrize("n", [1612, 4000])
def test_decompose_decides_a_sign_past_the_enclosure_cap(files, capsys, n):
    # (sqrt(2) - 1)**n as a + b*s: refinement to 4096 bits cannot tell its
    # sign, squaring can, so the one-entry matrix is one cycle
    a, b = sqrt2_unit_power(n)
    weight = {"q": str(a), "irr": {"s2": str(b)}}
    desc, mat = files / "sqrt2_dyadic.json", files / "unit_power.json"
    write(desc, dumps({
        "rational": {"default": "0", "exceptions": {"2": "inf"}},
        "irrationals": [{"name": "s2", "group": {"default": "0", "exceptions": {"2": "inf"}},
                         "enclosure": {"kind": "sqrt", "radicand": 2, "shift": "-1"}}],
    }))
    write(mat, dumps({"level": 0, "entries": [{"from": "r", "to": "r", "w": weight}]}))
    code, env = run(capsys, "decompose", "--descriptor", str(desc), "--matrix", str(mat))
    assert code == 0
    assert env["result"] == {"count": 1, "cycles": [{"vertices": ["r"], "w": weight}]}


def _w(q, a="0"):
    return {"q": q, "irr": {"a": a}}


def test_decompose_digests_the_descriptor_it_reads(files, capsys):
    # one equi-summed matrix over the symbol a, with a = sqrt(2) - 1 and a =
    # sqrt(3) - 1: the first cycle (x, y) weighs 1/4 + a under one, 3/4 under the other
    matrix = {"level": 1, "entries": [
        {"from": "x", "to": "y", "w": _w("1/4", "1")}, {"from": "y", "to": "x", "w": _w("3/4")},
        {"from": "x", "to": "z", "w": _w("1/2")}, {"from": "z", "to": "x", "w": _w("0", "1")},
        {"from": "y", "to": "z", "w": _w("0", "1")}, {"from": "z", "to": "y", "w": _w("1/2")},
    ]}
    mat = files / "over_a.json"
    write(mat, dumps(matrix))
    envs = []
    for radicand in (2, 3):
        desc = files / f"sqrt{radicand}.json"
        write(desc, dumps(_sqrt_descriptor(radicand, "-1")))
        code, env = run(capsys, "decompose", "--matrix", str(mat), "--descriptor", str(desc))
        assert code == 0
        assert env["input_hash"] == jsonutil.digest(
            {"matrix": matrix, "descriptor": _sqrt_descriptor(radicand, "-1")}
        )
        envs.append(env)
    first = [env["result"]["cycles"][0] for env in envs]
    assert first[0] == {"vertices": ["x", "y"], "w": {"q": "1/4", "irr": {"a": "1"}}}
    assert first[1] == {"vertices": ["x", "y"], "w": {"q": "3/4"}}
    assert envs[0]["input_hash"] != envs[1]["input_hash"]
    # without --descriptor the digest is the matrix's alone, as it always was
    rational = {"level": 1, "entries": [{"from": "x", "to": "x", "w": {"q": "1"}}]}
    write(mat, dumps(rational))
    code, env = run(capsys, "decompose", "--matrix", str(mat))
    assert code == 0 and env["input_hash"] == jsonutil.digest({"matrix": rational})


def test_zero_denominator_is_invalid_input(files, capsys):
    desc = files / "zero_den.json"
    write(desc, dumps(_sqrt_descriptor(2, "1/0")))
    assert main(["decide-rokhlin", "--descriptor", str(desc)]) == 2
    assert "ZeroDivisionError" in _one_line_error(capsys)


def test_json_float_in_integer_field_is_invalid_input(files, capsys):
    desc = files / "float_exponent.json"
    # written without jsonutil, which refuses floats
    desc.write_text(json.dumps(_descriptor(exponent=2.5)))
    assert main(["decide-rokhlin", "--descriptor", str(desc)]) == 2
    assert "inexact number 2.5" in _one_line_error(capsys)


def _format1(path) -> dict:
    """The snapshot at path as format-1 JSON (``oracles.snapshot_format1``)."""
    return jsonutil.loads(jsonutil.dumps(snapshot_format1(GoodMeasureChain.from_json(
        jsonutil.read(path)
    ))))


def test_check_good_rejects_doctored_maximality_lift(files, capsys):
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "1", "--out", str(snap))
    data = _format1(snap)
    entry = next(e for e in data["ledger"]
                 if e["kind"] == "object" and len(e["challenge"]["cells"]) == 2)
    first = entry["challenge"]["cells"][0]["id"]
    entry["response"]["map"] = {c: first for c in entry["response"]["map"]}
    doctored = files / "doctored.json"
    write(doctored, dumps(data))
    report = files / "report.json"
    code = main(["check-good", "--snapshot", str(doctored), "--depth", "1",
                 "--out", str(report)])
    assert code == 2
    assert "response does not map level" in _one_line_error(capsys)
    assert not report.exists()
    code, env = run(capsys, "check-good", "--snapshot", str(snap), "--depth", "1")
    assert code == 0 and env["result"]["all_ok"] is True


def test_snapshot_with_ledger_stage_beyond_levels_is_invalid_input(files, capsys):
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "1", "--out", str(snap))
    data = jsonutil.read(snap)
    data["ledger"][0]["stage"] = len(data["levels"])
    write(snap, dumps(data))
    assert main(["check-good", "--snapshot", str(snap), "--depth", "1"]) == 2
    assert "is not a level of the snapshot" in _one_line_error(capsys)


def test_witness_and_check_compat(files, capsys):
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "2", "--out", str(snap))
    mat = files / "mat.json"
    write(mat, dumps({
        "level": 1,
        "entries": [
            {"from": "r/0", "to": "r/1", "w": {"q": "1/2"}},
            {"from": "r/1", "to": "r/0", "w": {"q": "1/2"}},
        ],
    }))
    out_snap = files / "extended.json"
    code, env = run(capsys, "witness", "--matrix", str(mat), "--snapshot", str(snap),
                    "--out-snapshot", str(out_snap))
    assert code == 0 and env["result"]["compatible"]
    prefix = files / "prefix.json"
    write(prefix, dumps(env["certificate"]))
    code, env = run(capsys, "check-compat", "--matrix", str(mat),
                    "--snapshot", str(out_snap), "--prefix", str(prefix))
    assert code == 0 and env["result"]["compatible"]
    # identity prefix is not compatible with the two-cycle
    chain_data = jsonutil.read(out_snap)
    top = len(chain_data["levels"]) - 1
    ident = {"maps": {str(top): {
        e["id"]: e["id"] for e in chain_data["levels"][top]["cells"]}}}
    write(prefix, dumps(ident))
    code, env = run(capsys, "check-compat", "--matrix", str(mat),
                    "--snapshot", str(out_snap), "--prefix", str(prefix))
    assert code == 1 and not env["result"]["compatible"]


def test_amalgamate_and_product(files, capsys):
    tuples = files / "tuples.json"
    write(tuples, dumps({
        "descriptor": {"rational": {"default": "inf", "exceptions": {}}, "irrationals": []},
        "A": [{"w": {"q": "1"}, "n": 1}],
        "B0": [{"w": {"q": "1/2"}, "n": 1}, {"w": {"q": "1/2"}, "n": 1}],
        "p0": [[0, 1]],
        "B1": [{"w": {"q": "1/4"}, "n": 1}, {"w": {"q": "3/4"}, "n": 1}],
        "p1": [[0, 1]],
    }))
    code, env = run(capsys, "amalgamate-tuples", "--input", str(tuples))
    assert code == 0 and len(env["result"]["C"]) == 3
    prod = files / "prod.json"
    write(prod, dumps({
        "descriptor": {"rational": {"default": "inf", "exceptions": {}}, "irrationals": []},
        "c": [{"w": {"q": "1/2"}, "n": 2}],
        "d": [{"w": {"q": "1/3"}, "n": 3}],
    }))
    code, env = run(capsys, "product-lift", "--input", str(prod))
    assert code == 0
    assert env["result"]["u"] == [{"n": 6, "w": {"q": "1/6"}}]


def test_find_morphism_exit_codes(files, capsys):
    inp = files / "findm.json"
    write(inp, dumps({
        "src": [{"w": {"q": "1/4"}, "n": 2}, {"w": {"q": "1/4"}, "n": 2}],
        "tgt": [{"w": {"q": "1/2"}, "n": 2}],
    }))
    code, env = run(capsys, "find-morphism", "--input", str(inp))
    assert code == 0 and env["result"]["found"]
    write(inp, dumps({
        "src": [{"w": {"q": "1/3"}, "n": 3}],
        "tgt": [{"w": {"q": "1/2"}, "n": 2}],
    }))
    code, env = run(capsys, "find-morphism", "--input", str(inp))
    assert code == 1 and not env["result"]["found"]


@pytest.mark.parametrize("effort", [-1, -5])
def test_find_morphism_refuses_a_negative_effort(files, capsys, effort):
    """A negative budget runs no search, so it is refused as bad input, not
    reported as used up."""
    inp = files / "findm.json"
    write(inp, dumps({"src": [{"w": {"q": "1/2"}, "n": 2}],
                      "tgt": [{"w": {"q": "1/2"}, "n": 2}]}))
    assert main(["find-morphism", "--input", str(inp), "--effort", str(effort)]) == 2
    assert _one_line_error(capsys) == f"effort {effort} is negative"


def test_check_closure_exit_codes(files, capsys):
    code, env = run(capsys, "check-closure", "--descriptor", str(files / "dyadic.json"))
    assert code == 0 and env["result"]["count"] == 0
    code, env = run(capsys, "check-closure", "--descriptor", str(files / "mixed.json"))
    assert code == 1 and env["result"]["count"] >= 1


SQRT2 = {"kind": "sqrt", "radicand": 2, "shift": "-1"}


@pytest.mark.parametrize("descriptor,certificate", [
    # Z[1/1009]: 1/1009 is in V, 1/1009**2 is not
    ({"rational": {"default": "0", "exceptions": {"1009": 1}}, "irrationals": []},
     {"kind": "product", "n": 1009, "exponent": 1}),
    # Q + Q*s, where s's coefficient group stops at 1009
    ({"rational": {"default": "inf", "exceptions": {}},
      "irrationals": [{"name": "s", "enclosure": SQRT2,
                       "group": {"default": "inf", "exceptions": {"1009": 0}}}]},
     {"kind": "quotient", "n": 1009, "exponent": 0, "symbol": "s"}),
])
def test_check_closure_decides_beyond_small_primes(files, capsys, descriptor, certificate):
    path = files / "closure.json"
    write(path, dumps(descriptor))
    code, env = run(capsys, "check-closure", "--descriptor", str(path))
    assert code == 1
    assert env["certificate"] == certificate == env["result"]["violations"][0]
    assert env["input_hash"] == jsonutil.digest({"descriptor": descriptor})
    code, verdict = run(capsys, "decide-rokhlin", "--descriptor", str(path))
    assert code == 1 and verdict["result"]["rokhlin"] == "no"


class _Unmapped(Exception):
    """An exception no handler of ``cli.main`` names."""


@pytest.mark.parametrize("exc,line", [
    (MemoryError(), "not decided: out of memory"),
    (MemoryError("cannot allocate"), "not decided: out of memory"),
    (_Unmapped("first\nsecond"), "not decided: _Unmapped: first second"),
])
def test_an_exception_is_never_a_no(files, capsys, monkeypatch, exc, line):
    """Running out of memory, or any exception no other handler names, is no
    verdict: exit 2 with one line, never the exit 1 of a "no" and never a
    traceback."""
    def raising(args):
        raise exc

    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    monkeypatch.setitem(subparsers.choices["check-closure"]._defaults, "func", raising)
    assert main(["check-closure", "--descriptor", str(files / "dyadic.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_dichotomy_refuses_a_huge_exponent_before_its_power(files):
    """Exponent 2**70 at the prime 2 (default 0): ``dichotomy`` refuses it with
    one line, before it builds 2**(2**70), while ``decide-rokhlin`` and
    ``check-closure`` answer it from the exponent alone.  The commands run in
    a process whose address space is capped, so building the power fails
    there, not on the host."""
    e = 2**70
    path = files / "huge.json"
    write(path, dumps({"rational": {"default": "0", "exceptions": {"2": e}}, "irrationals": []}))
    script = (
        "import json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from goodmeasures.cli import main\n"
        "for command in ('dichotomy', 'decide-rokhlin', 'check-closure'):\n"
        "    print(main([command, '--descriptor', sys.argv[1]]), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "PreconditionFailed: precondition failed: quotient exponent at most 65536"
        f" (exponent {e} at 2)",
        "2", "1", "1",
    ]
    *envelopes, rest = done.stdout.split("\n}\n")
    assert rest == "" and len(envelopes) == 2
    rokhlin, closure = (jsonutil.loads(text + "\n}") for text in envelopes)
    assert rokhlin["result"] == {"rokhlin": "no", "strong_rokhlin": "no"}
    assert rokhlin["certificate"] == {"prime": 2, "exponent": e}
    assert closure["result"]["violations"] == [
        {"kind": "product", "n": 2, "exponent": e},
        {"kind": "quotient", "n": 2, "exponent": e, "symbol": None},
    ]


def test_check_closure_answers_a_large_exponent(files, capsys):
    """1/2**20000 is in V and 1/2**20001 is not: the certificate carries the
    exponent, never the 6,021-digit power."""
    descriptor = {"rational": {"default": "0", "exceptions": {"2": "20000"}}, "irrationals": []}
    path = files / "closure.json"
    write(path, dumps(descriptor))
    code, env = run(capsys, "check-closure", "--descriptor", str(path))
    assert code == 1
    assert env["result"]["violations"] == [
        {"kind": "product", "n": 2, "exponent": 20000},
        {"kind": "quotient", "n": 2, "exponent": 20000, "symbol": None},
    ]
    assert env["certificate"] == {"kind": "product", "n": 2, "exponent": 20000}
    code, verdict = run(capsys, "decide-rokhlin", "--descriptor", str(path))
    assert code == 1 and verdict["result"]["rokhlin"] == "no"


def test_decide_rokhlin_unknown_is_no_verdict(files, capsys):
    """On Z + Z*s (s = sqrt(2) - 1) neither property is decided: exit 2 with
    one line and no envelope, as for a search that used up its effort."""
    path = files / "sqrt2_module.json"
    write(path, dumps({"rational": {"default": "0", "exceptions": {}},
                       "irrationals": [{"name": "s", "enclosure": SQRT2,
                                        "group": {"default": "0", "exceptions": {}}}]}))
    assert main(["decide-rokhlin", "--descriptor", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "not decided: the Rokhlin property of this value set is unknown\n"


@pytest.mark.parametrize("rational,group,quotient", [
    ({"2": "inf"}, {}, {"kind": "quotient", "n": 2, "exponent": 0, "symbol": "s"}),
    ({"2": "inf", "3": "inf"}, {"2": "inf"},
     {"kind": "quotient", "n": 3, "exponent": 0, "symbol": "s"}),
    ({"2": 2}, {"2": "inf"}, {"kind": "quotient", "n": 2, "exponent": 2, "symbol": None}),
])
def test_decide_rokhlin_answers_no_from_a_quotient_violation(files, capsys, rational, group,
                                                             quotient):
    """Z[1/2] + Z*s, Z[1/6] + Z[1/2]*s and exponent 2 at 2 plus Z[1/2]*s
    answer no, exit 1, with the violation that check-closure finds."""
    path = files / "quotient.json"
    write(path, dumps({"rational": {"default": "0", "exceptions": rational},
                       "irrationals": [{"name": "s", "enclosure": SQRT2,
                                        "group": {"default": "0", "exceptions": group}}]}))
    code, env = run(capsys, "decide-rokhlin", "--descriptor", str(path))
    assert code == 1
    assert env["result"] == {"strong_rokhlin": "no", "rokhlin": "no"}
    assert env["certificate"] == {"violation": quotient}
    code, closure = run(capsys, "check-closure", "--descriptor", str(path))
    assert code == 1 and quotient in closure["result"]["violations"]


def test_check_closure_rejects_non_group_like(files, capsys):
    """On Z both commands exit 2 with the same one-line reason and no envelope."""
    path = files / "integers.json"
    write(path, dumps({"rational": {"default": "0", "exceptions": {}}}))
    for command in ("check-closure", "decide-rokhlin"):
        assert main([command, "--descriptor", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "NotGroupLike: descriptor is not group-like\n"


def test_infinite_key_is_ignored(files, capsys):
    path = files / "dyadic-infinite.json"
    write(path, dumps(dict(DYADIC, infinite=False)))
    code, env = run(capsys, "decide-rokhlin", "--descriptor", str(path))
    assert code == 0 and env["result"]["rokhlin"] == "yes"
    code, env = run(capsys, "check-closure", "--descriptor", str(path))
    assert code == 0 and env["result"]["count"] == 0


def test_readme_command_examples_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples = [line for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("goodmeasures ")]
    assert len(examples) >= 13
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


def test_composite_commands(files, capsys):
    out = files / "composite-out.json"
    code, env = run(capsys, "composite", "build", "--spec",
                    str(files / "composite.json"), "--out", str(out))
    assert code == 0 and env["result"]["components"] == 2
    code, env = run(capsys, "composite", "refute-maximality", "--spec",
                    str(files / "composite.json"), "--targets", "1/3,1/3,1/3")
    assert code == 1
    assert not env["result"]["feasible"]
    assert env["certificate"]["failing_component"] == 1
    code, env = run(capsys, "composite", "refute-maximality", "--spec",
                    str(files / "composite.json"), "--targets", "1/3,2/3")
    assert code == 0 and env["result"]["feasible"]


def test_workspace_logging(files, capsys, monkeypatch):
    ws = files / "ws"
    code, _ = run(capsys, "--workspace", str(ws), "decide-rokhlin",
                  "--descriptor", str(files / "dyadic.json"))
    assert code == 0
    log = (ws / "runlog.jsonl").read_text().strip().splitlines()
    assert len(log) == 1
    entry = json.loads(log[0])
    assert entry["op"] == "decide-rokhlin" and "input_hash" in entry


@pytest.mark.parametrize("command", ["decide-rokhlin", "build-chain"])
def test_a_run_log_that_cannot_be_written_exits_3(files, capsys, command):
    ws = files / "ws"
    (ws / "runlog.jsonl").mkdir(parents=True)
    argv = {
        "decide-rokhlin": ["decide-rokhlin", "--descriptor", str(files / "dyadic.json")],
        "build-chain": ["build-chain", "--descriptor", str(files / "dyadic.json"),
                        "--budget", "1", "--out", str(files / "snap.json")],
    }[command]
    assert main(["--workspace", str(ws), *argv]) == 3
    assert _one_line_error(capsys).startswith("cannot write run log: ")


@pytest.mark.parametrize("command", ["build-chain", "check-good", "witness", "composite build"])
def test_a_run_log_that_cannot_be_written_leaves_no_output(files, capsys, command):
    snap, mat, _ = _snapshot_inputs(files, capsys)
    ws = files / "ws"
    (ws / "runlog.jsonl").mkdir(parents=True)
    out = files / "out.json"
    argv = {
        "build-chain": ["build-chain", "--descriptor", str(files / "dyadic.json"),
                        "--budget", "1", "--out", str(out)],
        "check-good": ["check-good", "--snapshot", str(snap), "--depth", "1", "--out", str(out)],
        "witness": ["witness", "--matrix", str(mat), "--snapshot", str(snap),
                    "--out-snapshot", str(out)],
        "composite build": ["composite", "build", "--spec", str(files / "composite.json"),
                            "--out", str(out)],
    }[command]
    assert main(["--workspace", str(ws), *argv]) == 3
    assert _one_line_error(capsys).startswith("cannot write run log: ")
    assert not out.exists()
    assert main(argv) in (0, 1) and out.exists()


@pytest.mark.parametrize("command", ["decide-rokhlin", "build-chain"])
def test_a_workspace_that_cannot_be_created_exits_3(files, capsys, command):
    ws = files / "a_file"
    ws.write_text("not a directory\n", encoding="utf-8")
    out = files / "snap.json"
    argv = {
        "decide-rokhlin": ["decide-rokhlin", "--descriptor", str(files / "dyadic.json")],
        "build-chain": ["build-chain", "--descriptor", str(files / "dyadic.json"),
                        "--budget", "1", "--out", str(out)],
    }[command]
    assert main(["--workspace", str(ws), *argv]) == 3
    assert _one_line_error(capsys).startswith("cannot write run log: ")
    assert not out.exists()


def test_workspace_named_artifacts(files, capsys):
    ws = files / "ws2"
    (ws / "descriptors").mkdir(parents=True)
    write(ws / "descriptors" / "dyadic.json", dumps(DYADIC))
    code, env = run(capsys, "--workspace", str(ws), "decide-rokhlin",
                    "--descriptor", "dyadic")
    assert code == 0 and env["result"]["rokhlin"] == "yes"


# -- the store of canonical texts ---------------------------------------------------------


def _hash_commands(snap, mat, prefix):
    return {
        "witness": ["witness", "--matrix", str(mat), "--snapshot", str(snap)],
        "check-compat": ["check-compat", "--matrix", str(mat), "--snapshot", str(snap),
                         "--prefix", str(prefix)],
        "check-good": ["check-good", "--snapshot", str(snap), "--depth", "1"],
    }


def _record(ws, path) -> Path:
    return ws / "canonical" / hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["witness", "check-compat", "check-good"])
def test_input_hash_does_not_depend_on_the_store(files, capsys, monkeypatch, command):
    monkeypatch.delenv("CANTOR_WORKSPACE", raising=False)
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    argv = _hash_commands(snap, mat, prefix)[command]
    ws = files / "ws"
    outs = []
    for workspace in ([], ["--workspace", str(ws)], ["--workspace", str(ws)]):
        # no workspace; a workspace with no record; the record the last run made
        assert main([*workspace, *argv]) in (0, 1)
        outs.append(capsys.readouterr().out)
        assert _record(ws, snap).exists() == bool(workspace)
    assert outs[0] == outs[1] == outs[2]


def _reindented(text: str) -> str:
    return json.dumps(json.loads(text), indent=4)


def _keys_out_of_order(text: str) -> str:
    data = json.loads(text)
    return json.dumps(dict(reversed(list(data.items()))), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("rewrite", [None, _reindented, _keys_out_of_order])
def test_a_snapshot_text_is_recorded_only_if_canonical(files, capsys, monkeypatch, rewrite):
    monkeypatch.delenv("CANTOR_WORKSPACE", raising=False)
    text = (FIXTURES / "dyadic_budget3_before_relabel.json").read_text(encoding="utf-8")
    snap = files / "format1.json"
    snap.write_text(rewrite(text) if rewrite else text, encoding="utf-8")
    canonical = snap.read_text(encoding="utf-8") == jsonutil.dumps(jsonutil.read(snap))
    assert canonical == (rewrite is None)
    argv = ["check-good", "--snapshot", str(snap), "--depth", "1"]
    code, env = run(capsys, *argv)
    ws = files / "ws"
    assert run(capsys, "--workspace", str(ws), *argv) == (code, env)
    assert env["input_hash"] == jsonutil.digest({"snapshot": jsonutil.read(snap), "depth": 1})
    assert _record(ws, snap).exists() == canonical
    assert len(list(ws.glob("canonical/*"))) == canonical


def test_each_written_file_is_recorded_by_the_sha256_of_its_text(files, capsys):
    snap, mat, _ = _snapshot_inputs(files, capsys)
    ws = files / "ws"
    outs = {name: files / f"{name}.json" for name in ("built", "extended", "report", "composite")}
    for argv in (
        ["build-chain", "--descriptor", str(files / "dyadic.json"), "--budget", "2",
         "--out", str(outs["built"])],
        ["witness", "--matrix", str(mat), "--snapshot", str(snap),
         "--out-snapshot", str(outs["extended"])],
        ["check-good", "--snapshot", str(snap), "--depth", "1", "--out", str(outs["report"])],
        ["composite", "build", "--spec", str(files / "composite.json"),
         "--out", str(outs["composite"])],
    ):
        assert main(["--workspace", str(ws), *argv]) in (0, 1)
        capsys.readouterr()
    for out in outs.values():
        assert _record(ws, out).exists()
        assert _record(ws, out).read_bytes() == b""


def test_an_input_the_input_hash_does_not_cover_is_not_recorded(files, capsys):
    # build-chain --resume digests the snapshot's descriptor, not the snapshot
    snap, ws, out = files / "snap.json", files / "ws", files / "resumed.json"
    assert main(["build-chain", "--descriptor", str(files / "dyadic.json"),
                 "--budget", "2", "--out", str(snap)]) == 0
    assert main(["--workspace", str(ws), "build-chain", "--resume", str(snap),
                 "--budget", "3", "--out", str(out)]) == 0
    assert not _record(ws, snap).exists() and _record(ws, out).exists()


def test_a_recorded_snapshot_is_digested_without_walking_its_levels(files, capsys, monkeypatch):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    argv = ["--workspace", str(files / "ws"), *_hash_commands(snap, mat, prefix)["check-compat"]]
    encode, walked = jsonutil._encode, []

    def counting(o, *rest):
        if isinstance(o, dict) and o.keys() == {"cells"}:  # a level of the snapshot
            walked.append(o)
        return encode(o, *rest)

    monkeypatch.setattr(jsonutil, "_encode", counting)
    levels = len(jsonutil.read(snap)["levels"])
    for want in (levels, 0):  # the first run makes the record the second reads
        walked.clear()
        assert main(argv) in (0, 1)
        capsys.readouterr()
        assert len(walked) == want


def test_a_record_that_cannot_be_written_exits_3_and_leaves_no_output(files, capsys):
    snap, mat, _ = _snapshot_inputs(files, capsys)
    ws = files / "ws"
    ws.mkdir()
    (ws / "canonical").write_text("not a directory\n", encoding="utf-8")
    out = files / "out.json"
    argv = ["witness", "--matrix", str(mat), "--snapshot", str(snap), "--out-snapshot", str(out)]
    assert main(["--workspace", str(ws), *argv]) == 3
    assert _one_line_error(capsys).startswith("cannot write canonical record: ")
    assert not out.exists()
    assert not (ws / "runlog.jsonl").exists()


def test_the_texts_a_command_read_go_with_it(files, capsys, monkeypatch):
    snap, mat, _ = _snapshot_inputs(files, capsys)
    made = []

    class Kept(cli.Workspace):
        def __init__(self, root):
            super().__init__(root)
            made.append(weakref.ref(self))

    monkeypatch.setattr(cli, "Workspace", Kept)
    assert main(["--workspace", str(files / "ws"), "witness", "--matrix", str(mat),
                 "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(made) == 1 and made[0]() is None


def test_composite_build_splices_each_component_snapshot_as_its_text(files, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("composite build parses a snapshot back")

    encode, walked = jsonutil._encode, []

    def counting(o, *rest):
        if isinstance(o, dict) and "ledger" in o:  # a component snapshot
            walked.append(o)
        return encode(o, *rest)

    monkeypatch.setattr(GoodMeasureChain, "to_json", refuse)
    monkeypatch.setattr(jsonutil, "_encode", counting)
    out = files / "composite-out.json"
    assert main(["composite", "build", "--spec", str(files / "composite.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert walked == []
    text = out.read_text(encoding="utf-8")
    components = cli._build_composite(COMPOSITE_SPEC).components
    assert text == dumps({"components": [
        {"scale": str(s), "snapshot": jsonutil.loads(chain.to_text())} for chain, s in components
    ]})


def _leaf_commands(parser, path=()):
    """The name of each command of parser that runs, nested ones joined by a space."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub.get_default("func"):
                    yield " ".join((*path, name))
                yield from _leaf_commands(sub, (*path, name))


def _every_input(files, capsys):
    """Arguments of each command that runs, every file input given."""
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    tuples, prod, findm = files / "tuples.json", files / "prod.json", files / "findm.json"
    write(tuples, dumps({
        "descriptor": RATIONALS,
        "A": [{"w": {"q": "1"}, "n": 1}],
        "B0": [{"w": {"q": "1/2"}, "n": 1}, {"w": {"q": "1/2"}, "n": 1}],
        "p0": [[0, 1]],
        "B1": [{"w": {"q": "1/4"}, "n": 1}, {"w": {"q": "3/4"}, "n": 1}],
        "p1": [[0, 1]],
    }))
    write(prod, dumps({"descriptor": RATIONALS, "c": [{"w": {"q": "1/2"}, "n": 2}],
                       "d": [{"w": {"q": "1/3"}, "n": 3}]}))
    write(findm, dumps({"descriptor": DYADIC, "src": [{"w": {"q": "1/4"}, "n": 2}] * 2,
                        "tgt": [{"w": {"q": "1/2"}, "n": 2}]}))
    dyadic, spec, out = str(files / "dyadic.json"), str(files / "composite.json"), str(files / "o")
    return {
        "build-chain": ["--descriptor", dyadic, "--budget", "1", "--out", out],
        "check-good": ["--snapshot", str(snap), "--depth", "1"],
        "decide-rokhlin": ["--descriptor", dyadic],
        "decompose": ["--matrix", str(mat), "--descriptor", dyadic],
        "witness": ["--matrix", str(mat), "--snapshot", str(snap)],
        "check-compat": ["--matrix", str(mat), "--snapshot", str(snap), "--prefix", str(prefix)],
        "amalgamate-tuples": ["--input", str(tuples)],
        "product-lift": ["--input", str(prod)],
        "find-morphism": ["--input", str(findm)],
        "check-closure": ["--descriptor", dyadic],
        "dichotomy": ["--descriptor", str(files / "mixed.json")],
        "composite build": ["--spec", spec, "--out", out],
        "composite refute-maximality": ["--spec", spec, "--targets", "1/3,2/3"],
    }


def test_every_file_a_command_reads_is_in_what_it_digests(files, capsys, monkeypatch):
    # the one exception, build-chain --resume, digests its snapshot's
    # descriptor only (test_an_input_the_input_hash_does_not_cover_is_not_recorded)
    monkeypatch.delenv("CANTOR_WORKSPACE", raising=False)
    inputs = _every_input(files, capsys)
    assert sorted(inputs) == sorted(_leaf_commands(build_parser()))
    read_json, emit = cli._read_json, cli._emit
    reads, digested = [], []

    def reading(*args):
        reads.append(read_json(*args))
        return reads[-1]

    def emitting(op, input_obj, *rest):
        digested.append(input_obj)
        return emit(op, input_obj, *rest)

    monkeypatch.setattr(cli, "_read_json", reading)
    monkeypatch.setattr(cli, "_emit", emitting)
    for command, argv in inputs.items():
        reads.clear()
        digested.clear()
        assert main([*command.split(), *argv]) in (0, 1), command
        capsys.readouterr()
        assert reads and len(digested) == 1, command
        (obj,) = digested
        values = [obj, *obj.values()] if isinstance(obj, dict) else [obj]
        for value in reads:
            assert any(value is v for v in values), command


def test_find_morphism_on_1500_entries_gives_a_verdict(files, capsys):
    inp = files / "deep.json"
    data = {
        "src": [{"w": {"q": "1/1500"}, "n": 1}] * 1500,
        "tgt": [{"w": {"q": "1"}, "n": 1}],
    }
    write(inp, dumps(data))
    code, env = run(capsys, "find-morphism", "--input", str(inp))
    assert code == 0 and env["result"]["found"]
    src, tgt = CycleTuple.from_json(data["src"], {}), CycleTuple.from_json(data["tgt"], {})
    assert verify_tuple_morphism(TupleMorphism.from_json(env["certificate"]), src, tgt)


def test_composite_refute_on_1200_targets_gives_a_verdict(files, capsys):
    spec = files / "q_only.json"
    write(spec, dumps({"components": [{
        "descriptor": {"rational": {"default": "inf", "exceptions": {}}, "irrationals": []},
        "scale": "1", "budget": 1,
    }]}))
    code, env = run(capsys, "composite", "refute-maximality", "--spec", str(spec),
                    "--targets", ",".join(["1/1200"] * 1200))
    assert code == 0 and env["result"]["feasible"]


def test_find_morphism_out_of_effort_is_not_a_verdict(files, capsys):
    # a morphism exists (two 1/8-cycles onto each 1/4-cycle), but one try cannot find it
    inp = files / "findm.json"
    write(inp, dumps({
        "src": [{"w": {"q": "1/8"}, "n": 2}] * 4,
        "tgt": [{"w": {"q": "1/4"}, "n": 2}] * 2,
    }))
    assert main(["find-morphism", "--input", str(inp), "--effort", "1"]) == 2
    assert _one_line_error(capsys).startswith("EffortExhausted: ")


def test_composite_refute_out_of_effort_is_not_a_verdict(files, capsys, monkeypatch):
    # one try cannot finish the main search (two decide it)
    monkeypatch.setattr(composite, "_EFFORT", 1)
    code = main(["composite", "refute-maximality", "--spec", str(files / "composite.json"),
                 "--targets", "1/3,1/3,1/3"])
    assert code == 2
    assert _one_line_error(capsys).startswith("EffortExhausted: ")


def test_composite_refute_keeps_a_decided_no(files, capsys, monkeypatch):
    # the main search decides within 5 tries, naming the failing component takes 9
    monkeypatch.setattr(composite, "_EFFORT", 5)
    code, env = run(capsys, "composite", "refute-maximality", "--spec",
                    str(files / "composite.json"), "--targets", ",".join(["1/9"] * 9))
    assert code == 1 and env["result"]["feasible"] is False
    assert "failing_component" not in env["certificate"]


# -- snapshots are verified on load ----------------------------------------------------


def test_dichotomy_on_a_q_like_set(files, capsys):
    code, env = run(capsys, "dichotomy", "--descriptor", str(files / "rationals.json"),
                    "--b", "1/2", "--n", "2", "--c", "1/4")
    assert code == 0
    assert env["result"] == {"kind": "strong_rokhlin_all", "scale": None,
                             "scaled_descriptor": None, "violation": {}}
    assert env["certificate"] is None


def test_dichotomy_readme_example(files, capsys):
    code, env = run(capsys, "dichotomy", "--descriptor", str(files / "mixed.json"),
                    "--b", "1/3", "--n", "9", "--c", "1/12")
    assert code == 1
    assert env["result"]["kind"] == "no_rokhlin" and env["result"]["scale"] == {"q": "3/4"}
    assert env["certificate"] == {"kind": "quotient", "n": 9, "v": {"q": "4/9"}}


def test_dichotomy_with_all_three_flags_prints_the_envelope_it_printed_before(files, capsys):
    main(["dichotomy", "--descriptor", str(files / "mixed.json"),
          "--b", "1/3", "--n", "9", "--c", "1/12"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e7367d83a1043b6e86789be55ccf355f6b3a8c74aa5c8848626c372e4af04e98"
    )


def test_dichotomy_from_v_alone(files, capsys):
    # mixed_23's quotient violation is v = 1/3, n = 3; the first value listed
    # in [1/9, 1/3] is 1/3, so the scale is 1
    code, env = run(capsys, "dichotomy", "--descriptor", str(files / "mixed.json"))
    assert code == 1
    assert env["result"]["kind"] == "no_rokhlin" and env["result"]["scale"] == {"q": "1"}
    assert env["certificate"] == {"kind": "quotient", "n": 3, "v": {"q": "1/3"}}
    assert env["input_hash"] == jsonutil.digest(
        {"descriptor": MIXED23, "b": None, "n": None, "c": None}
    )


def test_dichotomy_takes_c_from_v_when_left_out(files, capsys):
    # the first value listed in [1/27, 1/9] is 1/12
    code, env = run(capsys, "dichotomy", "--descriptor", str(files / "mixed.json"),
                    "--b", "1/3", "--n", "9")
    assert code == 1 and env["result"]["scale"] == {"q": "3/4"}
    assert env["certificate"] == {"kind": "quotient", "n": 9, "v": {"q": "4/9"}}


def test_dichotomy_without_flags_on_a_q_like_set(files, capsys):
    code, env = run(capsys, "dichotomy", "--descriptor", str(files / "rationals.json"))
    assert code == 0 and env["result"]["kind"] == "strong_rokhlin_all"


@pytest.mark.parametrize("flag", [["--b", "1/3"], ["--n", "3"]])
def test_dichotomy_with_b_or_n_alone_is_invalid_input(files, capsys, flag):
    assert main(["dichotomy", "--descriptor", str(files / "mixed.json"), *flag]) == 2
    assert _one_line_error(capsys) == (
        "PreconditionFailed: precondition failed: b and n given together"
    )


@pytest.mark.parametrize("b,n,c,check", [
    ("1/9", "9", "1/12", "b in V"),
    ("1", "9", "1/12", "b < 1"),
    ("1/3", "1", "1/12", "n > 1"),
    ("1/3", "2", "1/4", "b/n not in V"),
    ("1/3", "9", "1/9", "c in V"),
    ("1/3", "9", "1/2", "c in [b/n, 1/n]"),
])
def test_dichotomy_precondition_failed_is_invalid_input(files, capsys, b, n, c, check):
    code = main(["dichotomy", "--descriptor", str(files / "mixed.json"),
                 "--b", b, "--n", n, "--c", c])
    assert code == 2
    assert _one_line_error(capsys).startswith(f"PreconditionFailed: precondition failed: {check} (")


def _snapshot_inputs(files, capsys):
    """A budget-3 dyadic snapshot, a two-cycle on level 1 and the identity on level 1."""
    snap = files / "snap.json"
    run(capsys, "build-chain", "--descriptor", str(files / "dyadic.json"),
        "--budget", "3", "--out", str(snap))
    mat = files / "mat.json"
    write(mat, dumps({"level": 1, "entries": [
        {"from": "r/0", "to": "r/1", "w": {"q": "1/2"}},
        {"from": "r/1", "to": "r/0", "w": {"q": "1/2"}}]}))
    prefix = files / "prefix.json"
    write(prefix, dumps({"maps": {"1": {"r/0": "r/0", "r/1": "r/1"}}}))
    return snap, mat, prefix


@pytest.mark.parametrize("command", ["build-chain", "check-good", "witness", "composite build"])
def test_an_output_that_cannot_be_written_exits_3(files, capsys, command):
    snap, mat, _ = _snapshot_inputs(files, capsys)
    out = str(files / "missing" / "out.json")
    argv = {
        "build-chain": ["build-chain", "--descriptor", str(files / "dyadic.json"),
                        "--budget", "1", "--out", out],
        "check-good": ["check-good", "--snapshot", str(snap), "--depth", "1", "--out", out],
        "witness": ["witness", "--matrix", str(mat), "--snapshot", str(snap),
                    "--out-snapshot", out],
        "composite build": ["composite", "build", "--spec", str(files / "composite.json"),
                            "--out", out],
    }[command]
    assert main(argv) == 3
    assert _one_line_error(capsys).startswith("cannot write ")


def _load_commands(snapshot, mat, prefix):
    return {
        "check-compat": ["check-compat", "--matrix", str(mat), "--snapshot", str(snapshot),
                         "--prefix", str(prefix)],
        "witness": ["witness", "--matrix", str(mat), "--snapshot", str(snapshot)],
    }


def _weight_outside_v(data):
    data["levels"][-1]["cells"][0]["w"] = {"q": "1/3"}
    return "snapshot weight 1/3 is not in V"


def _weight_not_an_object(data):
    data["levels"][-1]["cells"][0]["w"] = "1"
    return "value is a JSON string, not an object"


def _irrational_part_not_an_object(data):
    data["levels"][-1]["cells"][0]["w"] = {"q": "1", "irr": []}
    return "irrational part is a JSON array, not an object"


def _zero_weight(data):
    cell = data["levels"][-1]["cells"][1]
    cell["w"] = {"q": "0"}
    return f"weight of {cell['id']} must be positive"


def _empty_level(data):
    data["levels"][-1]["cells"] = []
    return "partitions must be nonempty"


def _duplicate_cell_id(data):
    cells = data["levels"][-1]["cells"]
    cells[1]["id"] = cells[0]["id"]
    return "cell identifiers must be unique"


def _level_cell_id_not_a_string(data):
    data["levels"][0]["cells"][0]["id"] = 5
    return "level 0 cells holds a JSON number, not a cell id"


def _link_moves_mass(data):
    k = len(data["links"]) - 1
    link = data["links"][k]["map"]
    first, *_, last = link
    assert link[first] != link[last]
    link[last] = link[first]
    return f"snapshot link {k} does not map level {k + 1} onto level {k}"


def _link_map(edit):
    """A doctored last link: ``edit`` changes its map in place."""
    def doctor(data):
        k = len(data["links"]) - 1
        edit(data["links"][k]["map"])
        return f"snapshot link {k} does not map level {k + 1} onto level {k}"
    return doctor


def _level_0_total_half(data):
    data["levels"][0]["cells"][0]["w"] = {"q": "1/2"}
    return "level 0 of the snapshot has total 1/2, expected 1"


def _challenge_map_moves_mass(data):
    # send one challenge cell to another target cell: two fibers change mass
    for n, e in enumerate(data["ledger"]):
        if e["kind"] != "morphism":
            continue
        cm = e["challenge_map"]
        first, *others = dict.fromkeys(cm.values())
        if others:
            cm[next(c for c, t in cm.items() if t == first)] = others[0]
            return f"ledger entry {n}: challenge does not map onto level {e['target_level']}"
    raise AssertionError("no morphism entry to doctor")


def _response_names_unknown_cell(data):
    n, entry = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "object")
    r = entry["response"]["map"]
    r[next(iter(r))] = "nowhere"
    return f"ledger entry {n}: response does not map level {entry['stage']} onto its challenge"


def _object_response_not_a_morphism(data):
    n, entry = next((n, e) for n, e in enumerate(data["ledger"])
                    if e["kind"] == "object" and len(e["challenge"]["cells"]) > 1)
    first = entry["challenge"]["cells"][0]["id"]
    entry["response"]["map"] = {c: first for c in entry["response"]["map"]}
    return f"ledger entry {n}: response does not map level {entry['stage']} onto its challenge"


def _morphism_response_not_commuting(data):
    # swap the images of two stage cells of equal weight over different cells
    # of the target level: the response stays a morphism but leaves its fibers
    for n, e in enumerate(data["ledger"]):
        if e["kind"] != "morphism":
            continue
        r, cm = e["response"]["map"], e["challenge_map"]
        weight = {c["id"]: c["w"] for c in data["levels"][e["stage"]]["cells"]}
        for a in r:
            for b in r:
                if weight[a] == weight[b] and cm[r[a]] != cm[r[b]]:
                    r[a], r[b] = r[b], r[a]
                    return f"ledger entry {n}: response does not commute with the chain"
    raise AssertionError("no morphism entry to doctor")


def _as_pairs(mapping):
    """A JSON object written as a list of [key, value] pairs."""
    return [[k, v] for k, v in mapping.items()]


def _link_map_not_an_object(data):
    link = data["links"][0]
    link["map"] = _as_pairs(link["map"])
    return "snapshot link 0 map is a JSON array, not an object"


def _response_map_not_an_object(data):
    response = data["ledger"][0]["response"]
    response["map"] = _as_pairs(response["map"])
    return "ledger entry 0: response map is a JSON array, not an object"


def _challenge_map_not_an_object(data):
    n, entry = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "morphism")
    entry["challenge_map"] = _as_pairs(entry["challenge_map"])
    return f"ledger entry {n}: challenge map is a JSON array, not an object"


def _target_level(value):
    def doctor(data):
        n, entry = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "morphism")
        entry["target_level"] = value(data)
        return (f"ledger entry {n}: target level {entry['target_level']} is not a level "
                f"at or below stage {entry['stage']}")
    return doctor


def _array_as_object(key):
    """A doctored snapshot whose top-level array ``key`` is a JSON object
    keyed by position; an empty ledger object once loaded as no ledger."""
    def doctor(data):
        data[key] = {} if key == "ledger" else {str(i): v for i, v in enumerate(data[key])}
        return f"snapshot {key} is a JSON object, not an array"
    return doctor


def _level_cells_as_object(data):
    k = len(data["levels"]) - 1
    data["levels"][k]["cells"] = {c["id"]: c["w"] for c in data["levels"][k]["cells"]}
    return f"level {k} cells is a JSON object, not an array"


NOT_AN_ARRAY = {
    "levels_not_an_array": _array_as_object("levels"),
    "links_not_an_array": _array_as_object("links"),
    "ledger_not_an_array": _array_as_object("ledger"),
    "level_cells_not_an_array": _level_cells_as_object,
}


def _entry_as_array(key, what):
    """A doctored snapshot whose last entry of the top-level array ``key``
    is written as the JSON array of its members' values."""
    def doctor(data):
        n = len(data[key]) - 1
        data[key][n] = list(data[key][n].values())
        return f"{what} {n} is a JSON array, not an object"
    return doctor


def _cell_as_array(cells, what: str) -> str:
    """Write the second of cells as the JSON array of its id and weight."""
    cells[1] = [cells[1]["id"], cells[1]["w"]]
    return f"{what} cell 1 is a JSON array, not an object"


def _level_cell_as_array(data):
    k = len(data["levels"]) - 1
    return _cell_as_array(data["levels"][k]["cells"], f"level {k}")


NOT_AN_OBJECT = {
    "level_not_an_object": _entry_as_array("levels", "level"),
    "ledger_entry_not_an_object": _entry_as_array("ledger", "ledger entry"),
    "level_cell_not_an_object": _level_cell_as_array,
}


def _link_not_an_object(data):
    data["links"][0] = "r"
    return "snapshot link 0 is a JSON string, not an object"


def _map_image_not_a_cell_id(place):
    """A doctored format-1 map whose first image is a JSON array holding it."""
    def doctor(data):
        m, what = place(data)
        first = next(iter(m))
        m[first] = [m[first]]
        return f"{what} holds a JSON array, not a cell id"
    return doctor


def _link_map_1(data):
    k = len(data["links"]) - 1
    return data["links"][k]["map"], f"snapshot link {k} map"


def _response_map_1(data):
    n, e = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "object")
    return e["response"]["map"], f"ledger entry {n}: response map"


def _response_not_an_object(data):
    n, entry = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "object")
    entry["response"] = [entry["response"]["map"]]
    return f"ledger entry {n}: response is a JSON array, not an object"


def _challenge_not_an_object(data):
    data["ledger"][0]["challenge"] = data["ledger"][0]["challenge"]["cells"]
    return "ledger entry 0: challenge is a JSON array, not an object"


def _format1_challenge(data):
    return next((n, e["challenge"]) for n, e in enumerate(data["ledger"])
                if len(e["challenge"]["cells"]) > 1)


def _challenge_cell_as_array(data):
    n, challenge = _format1_challenge(data)
    return _cell_as_array(challenge["cells"], f"ledger entry {n}: challenge")


def _challenge_cells_as_object(data):
    n, challenge = _format1_challenge(data)
    challenge["cells"] = {c["id"]: c["w"] for c in challenge["cells"]}
    return f"ledger entry {n}: challenge cells is a JSON object, not an array"


def _challenge_map_1(data):
    n, e = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "morphism")
    return e["challenge_map"], f"ledger entry {n}: challenge map"


DOCTORED = {
    **NOT_AN_ARRAY,
    **NOT_AN_OBJECT,
    "link_not_an_object": _link_not_an_object,
    "response_not_an_object": _response_not_an_object,
    "challenge_not_an_object": _challenge_not_an_object,
    "challenge_cell_not_an_object": _challenge_cell_as_array,
    "challenge_cells_not_an_array": _challenge_cells_as_object,
    "link_map_image_not_a_cell_id": _map_image_not_a_cell_id(_link_map_1),
    "response_map_image_not_a_cell_id": _map_image_not_a_cell_id(_response_map_1),
    "challenge_map_image_not_a_cell_id": _map_image_not_a_cell_id(_challenge_map_1),
    "weight_outside_v": _weight_outside_v,
    "weight_not_an_object": _weight_not_an_object,
    "irrational_part_not_an_object": _irrational_part_not_an_object,
    "empty_level": _empty_level,
    "duplicate_cell_id": _duplicate_cell_id,
    "level_cell_id_not_a_string": _level_cell_id_not_a_string,
    "zero_weight": _zero_weight,
    "link_moves_mass": _link_moves_mass,
    "link_map_missing_a_cell": _link_map(lambda m: m.pop(next(iter(m)))),
    "link_map_image_not_below": _link_map(lambda m: m.update({next(iter(m)): "nowhere"})),
    "link_map_extra_key": _link_map(lambda m: m.update(ghost=next(iter(m.values())))),
    "level_0_total_half": _level_0_total_half,
    "challenge_map_moves_mass": _challenge_map_moves_mass,
    "response_names_unknown_cell": _response_names_unknown_cell,
    "object_response_not_a_morphism": _object_response_not_a_morphism,
    "morphism_response_not_commuting": _morphism_response_not_commuting,
    "target_level_negative": _target_level(lambda data: -1),
    "target_level_past_the_top": _target_level(lambda data: len(data["levels"])),
    "link_map_not_an_object": _link_map_not_an_object,
    "response_map_not_an_object": _response_map_not_an_object,
    "challenge_map_not_an_object": _challenge_map_not_an_object,
}


@pytest.mark.parametrize("command", ["check-compat", "witness"])
@pytest.mark.parametrize("case", sorted(DOCTORED))
def test_doctored_snapshot_is_invalid_input(files, capsys, case, command):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    assert main(_load_commands(snap, mat, prefix)[command]) in (0, 1)
    capsys.readouterr()
    data = _format1(snap)
    reason = DOCTORED[case](data)
    doctored = files / "doctored.json"
    write(doctored, dumps(data))
    assert main(_load_commands(doctored, mat, prefix)[command]) == 2
    assert _one_line_error(capsys) == f"invalid input: ValueError: {reason}"


# -- format 2: positions and the weight table --------------------------------------


def _format(value):
    def doctor(data):
        data["format"] = value
        if type(value) is int:
            return f"ValueError: unknown snapshot format {value}"
        return f"ValueError: snapshot format is {jsonutil.json_type(value)}, not a number"
    return doctor


def _weights_missing(data):
    del data["weights"]
    return "KeyError: 'weights'"


def _weights_not_an_array(data):
    data["weights"] = {"0": data["weights"][0]}
    return "ValueError: snapshot weights is a JSON object, not an array"


def _challenge_cell_id_not_a_string(data):
    data["ledger"][0]["cells"][-1] = None
    return "ValueError: ledger entry 0: cells holds JSON null, not a cell id"


def _link_not_an_array(data):
    data["links"][0] = {"map": {}}
    return "ValueError: snapshot link 0 is a JSON object, not an array"


def _last_link(data):
    k = len(data["links"]) - 1
    return data["links"][k], len(data["levels"][k]["cells"]), f"snapshot link {k}"


def _object_response(data):
    n, e = next((n, e) for n, e in enumerate(data["ledger"])
                if e["kind"] == "object" and len(e["cells"]) > 1)
    return e["response"], len(e["cells"]), f"ledger entry {n}: response"


def _challenge_map(data):
    n, e = next((n, e) for n, e in enumerate(data["ledger"]) if e["kind"] == "morphism")
    m = len(data["levels"][e["target_level"]]["cells"])
    return e["challenge_map"], m, f"ledger entry {n}: challenge map"


def _challenge_weights(data):
    return data["ledger"][0]["weights"], len(data["weights"]), "ledger entry 0: weights"


def _position_fault(place, fault):
    """A doctored position list of a format-2 snapshot: ``place`` finds the
    list, the number of cells its positions name and its name in the line."""
    def doctor(data):
        pos, m, what = place(data)
        if fault == "true":
            pos[0] = True
            return f"ValueError: {what} holds a JSON boolean, not a position"
        if fault == "negative":
            pos[0] = -1
            return f"ValueError: {what} holds position -1, not in 0..{m - 1}"
        if fault == "out_of_range":
            pos[-1] = m
            return f"ValueError: {what} holds position {m}, not in 0..{m - 1}"
        pos.append(0)
        return f"ValueError: {what} has {len(pos)} positions, expected {len(pos) - 1}"
    return doctor


def _value_error(doctor):
    """``doctor`` with its reason as the whole line after ``invalid input: ``."""
    def doctored(data):
        return f"ValueError: {doctor(data)}"
    return doctored


DOCTORED_FORMAT_2 = {
    **{name: _value_error(doctor) for name, doctor in {**NOT_AN_ARRAY, **NOT_AN_OBJECT}.items()},
    "format_4": _format(4),
    "format_0": _format(0),
    "format_as_text": _format("2"),
    "format_true": _format(True),
    "weights_missing": _weights_missing,
    "weights_not_an_array": _weights_not_an_array,
    "link_not_an_array": _link_not_an_array,
    "level_cell_id_not_a_string": _value_error(_level_cell_id_not_a_string),
    "challenge_cell_id_not_a_string": _challenge_cell_id_not_a_string,
    **{
        f"{name}_{fault}": _position_fault(place, fault)
        for name, place in [("link", _last_link), ("response", _object_response),
                            ("challenge_map", _challenge_map), ("weights", _challenge_weights)]
        for fault in ("true", "negative", "out_of_range", "wrong_length")
    },
}


def _format2(path) -> dict:
    """The snapshot at path as format-2 JSON (``oracles.snapshot_format2``)."""
    return jsonutil.loads(jsonutil.dumps(snapshot_format2(GoodMeasureChain.from_json(
        jsonutil.read(path)
    ))))


@pytest.mark.parametrize("command", ["check-compat", "witness"])
@pytest.mark.parametrize("case", sorted(DOCTORED_FORMAT_2))
def test_doctored_format_2_snapshot_is_invalid_input(files, capsys, case, command):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    data = _format2(snap)
    assert data["format"] == 2
    line = DOCTORED_FORMAT_2[case](data)
    doctored = files / "doctored.json"
    write(doctored, dumps(data))
    assert main(_load_commands(doctored, mat, prefix)[command]) == 2
    assert _one_line_error(capsys) == f"invalid input: {line}"


# -- format 3: responses recovered by the cumulative-sum walk -----------------------------


def _fractions(weights) -> list[Fraction]:
    """Rational weight dicts, as the dyadic snapshot writes them, as fractions."""
    return [Fraction(w["q"]) for w in weights]


def _walked_object_entry(data):
    """The first object entry with more than one cell and no written response."""
    return next((n, e) for n, e in enumerate(data["ledger"])
                if e["kind"] == "object" and len(e["cells"]) > 1 and "response" not in e)


def _response_line(n, e):
    return f"ValueError: ledger entry {n}: response does not map level {e['stage']} onto its challenge"


def _sums_miss_the_stage(data):
    # reorder the challenge's weights until a cumulative sum is not one of the stage's
    stage_sums = [
        set(itertools.accumulate(_fractions(c["w"] for c in level["cells"])))
        for level in data["levels"]
    ]
    for n, e in enumerate(data["ledger"]):
        if e["kind"] != "object" or "response" in e:
            continue
        w = e["weights"]
        for order in (w[::-1], *(w[k:] + w[:k] for k in range(1, len(w)))):
            sums = itertools.accumulate(_fractions(data["weights"][p] for p in order))
            if not stage_sums[e["stage"]].issuperset(sums):
                e["weights"] = order
                return _response_line(n, e)
    raise AssertionError("no object entry to doctor")


def _zero_challenge_weight(data):
    n, e = _walked_object_entry(data)
    data["weights"].append({"q": "0"})
    e["weights"][1] = len(data["weights"]) - 1
    return f"ValueError: ledger entry {n}: weight of {e['cells'][1]} must be positive"


def _written_response_wrong_length(data):
    n, e = _walked_object_entry(data)
    m = len(data["levels"][e["stage"]]["cells"])
    e["response"] = [0] * (m + 1)
    return f"ValueError: ledger entry {n}: response has {m + 1} positions, expected {m}"


def _written_response_moves_mass(data):
    n, e = _walked_object_entry(data)
    e["response"] = [0] * len(data["levels"][e["stage"]]["cells"])
    return _response_line(n, e)


def _walked_response_not_commuting(data):
    # swap the images of two challenge cells of equal weight over different cells of
    # the target level: the challenge still maps onto it, and the same response is
    # recovered, but it no longer commutes with the chain
    for n, e in enumerate(data["ledger"]):
        if e["kind"] != "morphism" or "response" in e:
            continue
        w, cm = e["weights"], e["challenge_map"]
        for a, b in itertools.combinations(range(len(w)), 2):
            if w[a] == w[b] and cm[a] != cm[b]:
                cm[a], cm[b] = cm[b], cm[a]
                return f"ValueError: ledger entry {n}: response does not commute with the chain"
    raise AssertionError("no morphism entry to doctor")


DOCTORED_FORMAT_3 = {
    "challenge_sums_miss_the_stage": _sums_miss_the_stage,
    "zero_challenge_weight": _zero_challenge_weight,
    "written_response_wrong_length": _written_response_wrong_length,
    "written_response_moves_mass": _written_response_moves_mass,
    "walked_response_not_commuting": _walked_response_not_commuting,
}


@pytest.mark.parametrize("command", ["check-compat", "witness"])
@pytest.mark.parametrize("case", sorted(DOCTORED_FORMAT_3))
def test_doctored_format_3_snapshot_is_invalid_input(files, capsys, case, command):
    """A format-3 entry's response, written or recovered by the walk of the
    stage's cumulative sums, is refused with one line naming the entry."""
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    data = jsonutil.read(snap)
    assert data["format"] == 3
    line = DOCTORED_FORMAT_3[case](data)
    doctored = files / "doctored.json"
    write(doctored, dumps(data))
    assert main(_load_commands(doctored, mat, prefix)[command]) == 2
    assert _one_line_error(capsys) == f"invalid input: {line}"


def _top_link_out_of_order(data) -> str:
    """Swap the first and last cells of the top level, and their positions
    in the link onto the level below when it is positional: the link still
    maps the top onto that level with its mass, but no longer lists the top
    in the order of its images."""
    k = len(data["links"]) - 1
    cells, link = data["levels"][-1]["cells"], data["links"][k]
    first, last = cells[0]["id"], cells[-1]["id"]
    cells[0], cells[-1] = cells[-1], cells[0]
    if data.get("format", 1) == 1:  # a map from cell ids, read in the level's order
        assert link["map"][first] != link["map"][last]
    else:
        assert link[0] != link[-1]
        link[0], link[-1] = link[-1], link[0]
    return f"ValueError: snapshot link {k} does not list level {k + 1} in the order of its images"


@pytest.mark.parametrize("command", ["check-compat", "witness"])
@pytest.mark.parametrize("fmt", [1, 2, 3])
def test_a_link_out_of_order_is_invalid_input(files, capsys, fmt, command):
    """A link that preserves mass but lists its level out of the order of
    its images is refused in every format, with one line naming the link."""
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    data = {1: _format1, 2: _format2, 3: jsonutil.read}[fmt](snap)
    line = _top_link_out_of_order(data)
    doctored = files / "doctored.json"
    write(doctored, dumps(data))
    assert main(_load_commands(doctored, mat, prefix)[command]) == 2
    assert _one_line_error(capsys) == f"invalid input: {line}"


def test_written_snapshots_load(files, capsys):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    out = files / "extended.json"
    code, _ = run(capsys, "witness", "--matrix", str(mat), "--snapshot", str(snap),
                  "--out-snapshot", str(out))
    assert code == 0
    resumed = files / "resumed.json"
    code, _ = run(capsys, "build-chain", "--resume", str(out), "--budget", "3",
                  "--out", str(resumed))
    assert code == 0
    for path in (snap, out, resumed):
        assert main(_load_commands(path, mat, prefix)["check-compat"]) in (0, 1)
        assert capsys.readouterr().err == ""


# -- a matrix lists each entry once ---------------------------------------------------------


@pytest.mark.parametrize("command", ["decompose", "check-compat", "witness"])
def test_repeated_matrix_entry_is_invalid_input(files, capsys, command):
    """r->r 1/2 listed beside r->r 1 is refused with one line; read with the
    last entry winning, it was the valid matrix r->r 1, which is answered."""
    snap, _, _ = _snapshot_inputs(files, capsys)
    prefix = files / "root.json"
    write(prefix, dumps({"maps": {"0": {"r": "r"}}}))
    mat = files / "loop.json"
    argv = {
        "decompose": ["decompose", "--matrix", str(mat)],
        **_load_commands(snap, mat, prefix),
    }[command]
    once = {"from": "r", "to": "r", "w": {"q": "1"}}
    write(mat, dumps({"level": 0, "entries": [once]}))
    assert main(argv) == 0
    capsys.readouterr()
    write(mat, dumps({"level": 0, "entries": [{**once, "w": {"q": "1/2"}}, once]}))
    assert main(argv) == 2
    assert _one_line_error(capsys) == "invalid input: ValueError: matrix entry r->r is repeated"


# -- a matrix or prefix of the wrong form is refused with its place -----------------------


def _with_entry(k, **change):
    """The matrix with entry k changed."""
    def doctor(matrix):
        entries = list(matrix["entries"])
        entries[k] = {**entries[k], **change}
        return {**matrix, "entries": entries}
    return doctor


MALFORMED_MATRIX = {
    "an_array": (lambda m: [m], "matrix is a JSON array, not an object"),
    "entries_an_object": (lambda m: {**m, "entries": {"0": m["entries"][0]}},
                          "matrix entries is a JSON object, not an array"),
    "entries_strings": (lambda m: {**m, "entries": ["r/0", "r/1"]},
                        "matrix entry 0 is a JSON string, not an object"),
    "from_an_array": (_with_entry(1, **{"from": ["r/1"]}),
                      "matrix entry 1 holds a JSON array, not a cell id"),
    "to_an_object": (_with_entry(0, to={"id": "r/1"}),
                     "matrix entry 0 holds a JSON object, not a cell id"),
}


@pytest.mark.parametrize("command", ["decompose", "check-compat", "witness"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MATRIX))
def test_malformed_matrix_is_invalid_input(files, capsys, case, command):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    commands = {"decompose": ["decompose", "--matrix", str(mat)],
                **_load_commands(snap, mat, prefix)}
    assert main(commands[command]) in (0, 1)
    capsys.readouterr()
    doctor, reason = MALFORMED_MATRIX[case]
    write(mat, dumps(doctor(jsonutil.read(mat))))
    assert main(commands[command]) == 2
    assert _one_line_error(capsys) == f"invalid input: ValueError: {reason}"


MALFORMED_PREFIX = {
    "an_array": (lambda p: [p], "prefix is a JSON array, not an object"),
    "level_not_an_integer": (lambda p: {"maps": {"x": p["maps"]["1"]}},
                             'prefix level "x" is not an integer'),
    "image_an_array": (lambda p: {"maps": {"1": {"r/0": ["r/0"], "r/1": "r/1"}}},
                       "prefix map 1 holds a JSON array, not a cell id"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PREFIX))
def test_malformed_prefix_is_invalid_input(files, capsys, case):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    argv = _load_commands(snap, mat, prefix)["check-compat"]
    assert main(argv) == 1  # the identity is no witness of a two-cycle: a "no"
    capsys.readouterr()
    doctor, reason = MALFORMED_PREFIX[case]
    write(prefix, dumps(doctor(jsonutil.read(prefix))))
    assert main(argv) == 2
    assert _one_line_error(capsys) == f"invalid input: ValueError: {reason}"


# -- one parse per distinct weight -------------------------------------------------------


SQRT2_DYADIC = {
    "rational": {"default": "0", "exceptions": {"2": "inf"}},
    "irrationals": [{"name": "s2", "enclosure": {"kind": "sqrt", "radicand": 2, "shift": "-1"},
                     "group": {"default": "0", "exceptions": {"2": "inf"}}}],
}
S2 = {"irr": {"s2": "1"}, "q": "0"}
S2_AS_INTS = {"irr": {"s2": 1}, "q": 0}


def _sqrt2_snapshot(files, capsys):
    desc = files / "sqrt2_dyadic.json"
    write(desc, dumps(SQRT2_DYADIC))
    snap = files / "sqrt2_snap.json"
    code, _ = run(capsys, "build-chain", "--descriptor", str(desc), "--budget", "2",
                  "--out", str(snap))
    assert code == 0
    return snap


def _s2_weights(data) -> list[tuple]:
    """Where a weight s2 is written, in the order from_json parses them: the
    levels' cells, then the ledger's weight table, as (holder, key) pairs."""
    slots = [(c, "w") for L in data["levels"] for c in L["cells"]]
    slots += [(data["weights"], i) for i in range(len(data["weights"]))]
    found = [(holder, key) for holder, key in slots if holder[key] == S2]
    assert len(found) > 2 and found[-1][0] is data["weights"]
    return found


def test_loaded_snapshot_writes_the_bytes_it_was_read_from(files, capsys):
    snap = _sqrt2_snapshot(files, capsys)
    chain = GoodMeasureChain.from_json(jsonutil.read(snap))
    assert jsonutil.dumps(chain.to_json()).encode("utf-8") == snap.read_bytes()
    # the same weight written as JSON ints is parsed to the same value
    data = jsonutil.read(snap)
    for holder, key in _s2_weights(data):
        holder[key] = dict(S2_AS_INTS)
    assert jsonutil.dumps(GoodMeasureChain.from_json(data).to_json()) == snap.read_text()


@pytest.mark.parametrize("bad,reason", [
    # equal to S2_AS_INTS as a dict key (True == 1), but a bool is not a number
    ({"irr": {"s2": True}, "q": 0}, "TypeError: inexact number True;"),
    ({"irr": {"s2": True}, "q": False}, "TypeError: inexact number True;"),
    ({"irr": {"t": "1"}, "q": "0"}, "KeyError: 't'"),
])
def test_a_repeated_weight_in_a_bad_form_is_still_rejected(files, capsys, bad, reason):
    snap = _sqrt2_snapshot(files, capsys)
    data = jsonutil.read(snap)
    (first, i), *_, (last, j) = _s2_weights(data)
    first[i], last[j] = dict(S2_AS_INTS), bad
    with pytest.raises((TypeError, KeyError)):
        GoodMeasureChain.from_json(data)
    doctored = files / "doctored.json"
    write(doctored, dumps(data))
    mat = files / "mat.json"
    write(mat, dumps({"level": 0, "entries": [{"from": "r", "to": "r", "w": {"q": "1"}}]}))
    assert main(["witness", "--matrix", str(mat), "--snapshot", str(doctored)]) == 2
    assert _one_line_error(capsys).startswith(f"invalid input: {reason}")


# -- a non-object where JSON needs an object ----------------------------------------------


def _irrational_group(data):
    data["irrationals"][0]["group"] = []
    return "rational group is a JSON array, not an object"


def _rational_part(data):
    data["rational"] = []
    return "rational group is a JSON array, not an object"


def _exponent_table(data):
    data["rational"]["exceptions"] = [2]
    return "exponent table is a JSON array, not an object"


@pytest.mark.parametrize("doctor", [_irrational_group, _rational_part, _exponent_table])
def test_descriptor_part_not_an_object_is_invalid_input(files, capsys, doctor):
    data = json.loads(json.dumps(SQRT2_DYADIC))
    reason = doctor(data)
    desc = files / "not_an_object.json"
    write(desc, dumps(data))
    assert main(["decide-rokhlin", "--descriptor", str(desc)]) == 2
    assert _one_line_error(capsys) == f"invalid input: ValueError: {reason}"


def test_prefix_maps_not_an_object_is_invalid_input(files, capsys):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    write(prefix, dumps({"maps": []}))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _one_line_error(capsys) == (
        "invalid input: ValueError: prefix maps is a JSON array, not an object"
    )


def test_prefix_map_written_as_pairs_is_invalid_input(files, capsys):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    swap = [["r/0", "r/1"], ["r/1", "r/0"]]
    write(prefix, dumps({"maps": {"1": swap}}))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    reason = "prefix map 1 is a JSON array, not an object"
    assert _one_line_error(capsys) == f"invalid input: ValueError: {reason}"


# -- check-compat refuses what is not a prefix or a matrix of the snapshot ----------------


_NOT_A_PREFIX = "invalid input: ValueError: prefix is not an automorphism prefix of the snapshot"


@pytest.mark.parametrize("top_map", [
    {"r/0": "r/0", "r/1": "r/0"},  # both cells onto one: not a bijection
    {"r/0": "r/1"},  # a cell missing
])
def test_check_compat_refuses_a_map_that_is_no_prefix(files, capsys, top_map):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    # the matrix this map would induce, so only the prefix is at fault
    write(mat, dumps({"level": 1, "entries": [
        {"from": "r/0", "to": "r/0", "w": {"q": "1/2"}},
        {"from": "r/1", "to": "r/0", "w": {"q": "1/2"}}]}))
    write(prefix, dumps({"maps": {"1": top_map}}))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _one_line_error(capsys) == _NOT_A_PREFIX


@pytest.mark.parametrize("level", [-1, "past the top"])
def test_check_compat_refuses_a_prefix_level_off_the_snapshot(files, capsys, level):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    if level == "past the top":
        level = len(jsonutil.read(snap)["levels"])
    # level 1 is a valid prefix map on its own: -1 must not reach the top
    write(prefix, dumps({"maps": {"1": {"r/0": "r/0", "r/1": "r/1"},
                                  str(level): {"r/0": "r/0", "r/1": "r/1"}}}))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _one_line_error(capsys) == (
        f"invalid input: ValueError: prefix level {level} is not a level of the snapshot"
    )


def test_check_compat_refuses_an_invalid_matrix(files, capsys):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    write(mat, dumps({"level": 1, "entries": [
        {"from": "r/0", "to": "r/1", "w": {"q": "1/2"}}]}))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _one_line_error(capsys) == (
        "invalid input: ValueError: matrix is not a valid balanced matrix over the chain"
    )


def test_check_compat_refuses_an_empty_prefix(files, capsys):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    write(prefix, dumps({"maps": {}}))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _one_line_error(capsys) == "invalid input: ValueError: prefix maps is empty"


def test_stray_index_error_is_invalid_input(files, capsys, monkeypatch):
    snap, mat, prefix = _snapshot_inputs(files, capsys)

    def out_of_range(*args):
        raise IndexError("list index out of range")

    monkeypatch.setattr("goodmeasures.matrices.compatible", out_of_range)
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _one_line_error(capsys) == "invalid input: IndexError: list index out of range"


# -- one parser per process ---------------------------------------------------------------


def test_main_twice_in_one_process_carries_nothing_over(files, capsys, monkeypatch):
    monkeypatch.delenv("CANTOR_WORKSPACE", raising=False)
    second = ["check-closure", "--descriptor", str(files / "bad.json")]
    env = {k: v for k, v in os.environ.items() if k != "CANTOR_WORKSPACE"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    alone = subprocess.run([sys.executable, "-m", "goodmeasures.cli", *second],
                           capture_output=True, text=True, env=env, check=False)
    ws = files / "ws"
    assert main(["--workspace", str(ws), "decide-rokhlin",
                 "--descriptor", str(files / "dyadic.json")]) == 0
    capsys.readouterr()
    code = main(second)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)
    assert len((ws / "runlog.jsonl").read_text(encoding="utf-8").splitlines()) == 1


# -- JSON integers are read exactly -----------------------------------------------------


@pytest.mark.parametrize("default", ["INF", "5"])
def test_default_exponent_other_than_0_or_inf_is_invalid_input(files, capsys, default):
    desc = files / "default.json"
    write(desc, dumps({"rational": {"default": default, "exceptions": {"2": "inf"}},
                       "irrationals": []}))
    assert main(["decide-rokhlin", "--descriptor", str(desc)]) == 2
    _one_line_error(capsys)


_BOOL_INT = "inexact number True where an integer is required"


def test_bool_matrix_level_is_invalid_input(files, capsys):
    snap, mat, _ = _snapshot_inputs(files, capsys)
    data = jsonutil.read(mat)
    data["level"] = True
    write(mat, dumps(data))
    assert main(["witness", "--matrix", str(mat), "--snapshot", str(snap)]) == 2
    assert _BOOL_INT in _one_line_error(capsys)


def test_bool_cycle_length_is_invalid_input(files, capsys):
    inp = files / "findm.json"
    write(inp, dumps({"src": [{"w": {"q": "1"}, "n": True}],
                      "tgt": [{"w": {"q": "1"}, "n": 1}]}))
    assert main(["find-morphism", "--input", str(inp)]) == 2
    assert _BOOL_INT in _one_line_error(capsys)


def test_bool_tuple_morphism_block_is_invalid_input(files, capsys):
    halves = [{"w": {"q": "1/2"}, "n": 1}, {"w": {"q": "1/2"}, "n": 1}]
    tuples = files / "tuples.json"
    write(tuples, dumps({
        "descriptor": {"rational": {"default": "inf", "exceptions": {}}, "irrationals": []},
        "A": halves, "B0": halves, "p0": [[0], [True]], "B1": halves, "p1": [[0], [1]],
    }))
    assert main(["amalgamate-tuples", "--input", str(tuples)]) == 2
    assert _BOOL_INT in _one_line_error(capsys)


def test_bool_ledger_stage_is_invalid_input(files, capsys):
    snap, mat, prefix = _snapshot_inputs(files, capsys)
    data = jsonutil.read(snap)
    next(e for e in data["ledger"] if e["stage"] == 1)["stage"] = True
    write(snap, dumps(data))
    assert main(_load_commands(snap, mat, prefix)["check-compat"]) == 2
    assert _BOOL_INT in _one_line_error(capsys)


def test_bool_composite_budget_is_invalid_input(files, capsys):
    spec = json.loads(json.dumps(COMPOSITE_SPEC))
    spec["components"][0]["budget"] = True
    path = files / "bool_budget.json"
    write(path, dumps(spec))
    assert main(["composite", "build", "--spec", str(path),
                 "--out", str(files / "never.json")]) == 2
    assert _BOOL_INT in _one_line_error(capsys)
    assert not (files / "never.json").exists()
