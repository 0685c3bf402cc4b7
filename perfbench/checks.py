"""Checks of op results, independent of the code under test.

Weights are read off the package's objects as plain ``Fraction`` pairs and
every sum, sign, projection and membership test is recomputed here with the
arithmetic of ``gen``.  Each check returns a list of problems; an empty list
means the op passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import gen
from gen import Num


def num(v) -> Num:
    """An ``ExactValue`` as a ``(q, c)`` pair (only the symbol ``s2`` is known)."""
    c = Fraction(0)
    for sym, coeff in v.coeffs:
        if sym.name != "s2":
            raise ValueError(f"unexpected symbol {sym.name}")
        c = coeff
    return (v.rational, c)


def _power_of_two(n: int) -> bool:
    return n & (n - 1) == 0


def in_sqrt2_dyadic(v: Num) -> bool:
    """0 < v <= 1 in Z[1/2] + Z[1/2]*(sqrt(2)-1)."""
    return (
        gen.sign(v) > 0
        and gen.sign(gen.sub(gen.ONE, v)) >= 0
        and _power_of_two(v[0].denominator)
        and _power_of_two(v[1].denominator)
    )


def level_weights(P) -> dict[str, Num]:
    return {c: num(P.weights[c]) for c in P.cells}


def ancestors(chain, from_level: int, to_level: int) -> dict[str, str]:
    """Cell map from a deeper level to a shallower one, walking the links."""
    anc = {c: c for c in chain.levels[from_level].cells}
    for lvl in range(from_level, to_level, -1):
        link = chain.links[lvl - 1].mapping
        anc = {c: link[a] for c, a in anc.items()}
    return anc


def _is_morphism(src: dict[str, Num], dst: dict[str, Num], mapping) -> str | None:
    """None if ``mapping`` is a mass-preserving surjection src -> dst."""
    if set(mapping) != set(src):
        return "domain differs from source cells"
    if set(mapping.values()) != set(dst):
        return "not onto the target cells"
    acc = {c: gen.ZERO for c in dst}
    for c, d in mapping.items():
        acc[d] = gen.add(acc[d], src[c])
    bad = [d for d in dst if acc[d] != dst[d]]
    return f"mass differs on {bad[:3]}" if bad else None


def check_chain(chain, member) -> list[str]:
    """Every level sums to 1 with weights in V; every link is a morphism."""
    problems = []
    weights = [level_weights(P) for P in chain.levels]
    for i, ws in enumerate(weights):
        if gen.total(ws.values()) != gen.ONE:
            problems.append(f"level {i} does not sum to 1")
        if not all(member(w) for w in ws.values()):
            problems.append(f"level {i} has a weight outside V")
    if len(chain.links) != len(weights) - 1:
        problems.append("link count differs from level count - 1")
    for i, link in enumerate(chain.links):
        why = _is_morphism(weights[i + 1], weights[i], link.mapping)
        if why:
            problems.append(f"link {i + 1}->{i}: {why}")
    return problems


def check_ledger(chain) -> list[str]:
    """Each response maps its stage onto the challenge, preserving mass, and
    morphism responses commute with their challenge."""
    problems = []
    for k, e in enumerate(chain.ledger):
        stage = level_weights(chain.levels[e.stage])
        obj = level_weights(e.challenge_object)
        why = _is_morphism(stage, obj, e.response_map)
        if why:
            problems.append(f"ledger {k}: response {why}")
            continue
        if e.kind == "morphism":
            proj = ancestors(chain, e.stage, e.target_level)
            if any(e.challenge_map[e.response_map[c]] != proj[c] for c in stage):
                problems.append(f"ledger {k}: response does not commute")
    return problems


def check_absorbed(chain, challenges: list[list[Num]]) -> list[str]:
    """Every object challenge's weight multiset has a ledger entry."""
    have = {
        tuple(sorted(level_weights(e.challenge_object).values()))
        for e in chain.ledger
        if e.kind == "object"
    }
    return [
        f"challenge {i} missing from the ledger"
        for i, ws in enumerate(challenges)
        if tuple(sorted(ws)) not in have
    ]


def transport(chain, depth: int, top_map, level: int) -> dict[tuple[str, str], Num]:
    """Mass a top-level bijection carries between the cells of a lower level."""
    anc = ancestors(chain, depth, level)
    top = level_weights(chain.levels[depth])
    acc: dict[tuple[str, str], Num] = {}
    for c, w in top.items():
        key = (anc[c], anc[top_map[c]])
        acc[key] = gen.add(acc.get(key, gen.ZERO), w)
    return acc


def check_prefix_matches(chain, sigma, entries: dict[tuple[str, str], Num], level: int) -> list[str]:
    """sigma's top map is a weight-preserving bijection that transports
    exactly ``entries`` at ``level``."""
    top = level_weights(chain.levels[sigma.depth])
    m = sigma.maps[sigma.depth]
    if set(m) != set(top) or set(m.values()) != set(top):
        return ["prefix top map is not a bijection of the top cells"]
    if any(top[m[c]] != top[c] for c in top):
        return ["prefix top map does not preserve weights"]
    if transport(chain, sigma.depth, m, level) != entries:
        return ["prefix transport differs from the matrix"]
    return []


def check_subset_witness(chain, U, W, level: int, Wp) -> list[str]:
    """Wp has exactly the measure of U and lies inside W."""
    base = level_weights(chain.levels[level])
    want = gen.total(base[c] for c in U)
    got_w = level_weights(chain.levels[Wp.level])
    problems = []
    if gen.total(got_w[c] for c in Wp.cells) != want:
        problems.append("subset witness has the wrong measure")
    anc = ancestors(chain, Wp.level, level)
    if not all(anc[c] in W for c in Wp.cells):
        problems.append("subset witness leaves W")
    return problems


def canonical_digest(obj) -> str:
    """SHA-256 of the canonical JSON text: sorted keys, indent 2, newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ENVELOPE_KEYS = {"op", "input_hash", "result", "certificate"}


def check_envelope(code: int, out: str, want_code: int, op: str, want_hash: str,
                   want_compatible: bool) -> list[str]:
    if code != want_code:
        return [f"{op}: exit code {code}, expected {want_code}"]
    try:
        env = json.loads(out)
    except ValueError:
        return [f"{op}: stdout is not one JSON document"]
    problems = []
    if set(env) != ENVELOPE_KEYS:
        problems.append(f"{op}: envelope keys {sorted(env)}")
    elif env["op"] != op:
        problems.append(f"{op}: envelope op {env['op']!r}")
    elif env["input_hash"] != want_hash:
        problems.append(f"{op}: input_hash is not the digest of the input")
    elif env["result"].get("compatible") is not want_compatible:
        problems.append(f"{op}: compatible is {env['result'].get('compatible')!r}")
    return problems
