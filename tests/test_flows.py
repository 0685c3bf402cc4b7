"""The one-pass cycle peel of ``flows.decompose_entries`` against the peel
that rebuilt its successor map for every cycle: the same cycles, weights and
order on sums of cycles over shared vertices, whether the entries are values
or the packed ints of a weight table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodmeasures.flows import decompose_entries
from goodmeasures.values import PackedValues, ZERO

from conftest import E, sqrt2_symbol
from oracles import peel_cycles_by_rebuild

_S2 = sqrt2_symbol()

# few distinct weights, so equal weights (and edges emptied together) are
# common; the √2-dyadic ones are positive: (√2-1)/2, 2-√2 and 3/4-(√2-1)/4
_WEIGHTS = [
    E("1/2"), E("1/4"), E("1/3"), E("3/8"),
    E(0, {_S2: "1/2"}), E(1, {_S2: -1}), E("3/4", {_S2: "-1/4"}),
]


def _cycles_over(weights):
    return st.lists(
        st.tuples(
            # a closed walk: consecutive repeats are self-loops, other repeats
            # revisit a vertex; both still sum to an equi-summed matrix
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
            st.sampled_from(weights),
        ),
        min_size=1,
        max_size=8,
    )


_cycles = _cycles_over(_WEIGHTS)
_zero_edges = st.lists(
    st.tuples(st.sampled_from("abcdefg"), st.sampled_from("abcdefg")), max_size=3
)


def cycle_sum(cycles, zero_edges):
    entries = {e: ZERO for e in zero_edges}
    for verts, w in cycles:
        for i, a in enumerate(verts):
            e = (a, verts[(i + 1) % len(verts)])
            entries[e] = entries.get(e, ZERO) + w
    return entries


@settings(max_examples=300, deadline=None)
@given(cycles=_cycles, zero_edges=_zero_edges)
def test_peel_equals_rebuild(cycles, zero_edges):
    entries = cycle_sum(cycles, zero_edges)
    assert decompose_entries(entries) == peel_cycles_by_rebuild(entries)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), symbol=st.booleans(), zero_edges=_zero_edges)
def test_packed_peel_equals_rebuild(data, symbol, zero_edges):
    """The same draws packed in one table, with a symbol slot or, on rational
    weights, without one: the cycle weights come back as packed ints of that
    table, and read back they are the peel of the values."""
    weights = _WEIGHTS if symbol else [w for w in _WEIGHTS if w.is_rational]
    entries = cycle_sum(data.draw(_cycles_over(weights)), zero_edges)
    # (√2 - 1)/2 gives the table its symbol slot whether or not a drawn weight
    # has one; 256 is the chain's table room per top cell
    pv = PackedValues([*entries.values(), *(_WEIGHTS[4:5] if symbol else [])], 256)
    assert bool(pv.syms) == symbol
    packed = dict(zip(entries, pv.packed))
    cycles = decompose_entries(packed, pv)
    assert all(isinstance(w, int) for _, w in cycles)
    assert [(verts, pv.unpack(w)) for verts, w in cycles] == peel_cycles_by_rebuild(entries)


def test_a_cycle_weight_wider_than_its_table_is_refused():
    """A peeled rest is a difference of entries, so a cycle weight can have
    wider coordinates than every entry: here t - u = 4s - 3/2, with the
    coordinate 8 over the denominator 2 where the entries have at most 4.
    A room-1 table, whose slots hold up to 7, refuses it rather than read
    back another value; with room 2, one bit wider, the peel reads back as
    the value peel."""
    u, t = E(1, {_S2: -2}), E("-1/2", {_S2: 2})
    entries = cycle_sum(
        [("cdb", u), ("c", u), ("bda", t), ("d", t), ("b", E(0, {_S2: "1/2"}))], []
    )
    want = peel_cycles_by_rebuild(entries)
    assert E("-3/2", {_S2: 4}) in [w for _, w in want]
    for room, fits in ((1, False), (2, True)):
        pv = PackedValues(list(entries.values()), room)
        packed = dict(zip(entries, pv.packed))
        if fits:
            cycles = decompose_entries(packed, pv)
            assert [(verts, pv.unpack(w)) for verts, w in cycles] == want
        else:
            with pytest.raises(RuntimeError, match="does not fit"):
                decompose_entries(packed, pv)


def test_peel_order_is_pinned():
    # a walk from a reaches the cycle c -> d -> c at d, so the first cycle is
    # found away from its start and rotated; the second empties four edges at
    # once; b is peeled last although b < c, since a's edges go first
    entries = {
        ("a", "d"): E("1/4"), ("d", "c"): E("1/2"), ("c", "d"): E("1/4"),
        ("c", "e"): E("1/4"), ("e", "a"): E("1/4"), ("b", "b"): E("1/8"),
    }
    expected = [
        (("c", "d"), E("1/4")),
        (("a", "d", "c", "e"), E("1/4")),
        (("b",), E("1/8")),
    ]
    assert decompose_entries(entries) == expected
    assert peel_cycles_by_rebuild(entries) == expected
