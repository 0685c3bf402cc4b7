"""The one-pass cycle peel of ``flows.decompose_entries`` against the peel
that rebuilt its successor map for every cycle: the same cycles, weights and
order on sums of cycles over shared vertices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from goodmeasures.flows import decompose_entries
from goodmeasures.values import ZERO

from conftest import E, sqrt2_symbol
from oracles import peel_cycles_by_rebuild

_S2 = sqrt2_symbol()

# few distinct weights, so equal weights (and edges emptied together) are
# common; the √2-dyadic ones are positive: (√2-1)/2, 2-√2 and 3/4-(√2-1)/4
_WEIGHTS = [
    E("1/2"), E("1/4"), E("1/3"), E("3/8"),
    E(0, {_S2: "1/2"}), E(1, {_S2: -1}), E("3/4", {_S2: "-1/4"}),
]

_cycles = st.lists(
    st.tuples(
        # a closed walk: consecutive repeats are self-loops, other repeats
        # revisit a vertex; both still sum to an equi-summed matrix
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
        st.sampled_from(_WEIGHTS),
    ),
    min_size=1,
    max_size=8,
)


def cycle_sum(cycles, zero_edges):
    entries = {e: ZERO for e in zero_edges}
    for verts, w in cycles:
        for i, a in enumerate(verts):
            e = (a, verts[(i + 1) % len(verts)])
            entries[e] = entries.get(e, ZERO) + w
    return entries


@settings(max_examples=300, deadline=None)
@given(
    cycles=_cycles,
    zero_edges=st.lists(st.tuples(st.sampled_from("abcdefg"), st.sampled_from("abcdefg")),
                        max_size=3),
)
def test_peel_equals_rebuild(cycles, zero_edges):
    entries = cycle_sum(cycles, zero_edges)
    assert decompose_entries(entries) == peel_cycles_by_rebuild(entries)


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
