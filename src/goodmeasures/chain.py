"""The Fraïssé chain engine for good measures.

A chain is a finite prefix of a tower of weighted clopen partitions, each
refining the previous one through a mass-preserving merge.  The engine
absorbs object and morphism challenges by amalgamation (which is how the
limit measure acquires maximality and ultrahomogeneity), answers exact
measure queries on clopen sets, produces subset-condition witnesses, and
extends partial isomorphisms of cells to coherent towers of cell bijections
(automorphism prefixes).

Levels are append-only: witnesses may extend the chain but never rewrite it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InvalidChallenge,
    NotGroupLike,
    NotInV,
    NotSmaller,
    SumMismatch,
    WeightMismatch,
)
from .flows import cycles_through, decompose_entries, orbits
from .jsonutil import (
    Canonical,
    Place,
    array,
    dumps,
    encode,
    json_type,
    layout,
    loads,
    parse_array,
    parse_ids,
    parse_int,
    parse_object,
    parse_positions,
    string,
)
from .partitions import (
    PartitionMorphism,
    WeightedPartition,
    _checked,
    _cumulative,
    _parts,
    _place,
    _subdivide,
    lift_edges,
    maps_onto,
    positions_onto,
    verify_morphism,
)
from .values import ExactValue, GroupDescriptor, ONE, PackedValues, check_all_in

ROOT_CELL = "r"

#: Rounds of ``align_prefixes`` before it gives up.
_ALIGN_ROUNDS = 8

#: Powers of each admitted prime a weight table with a symbol slot
#: reserves in its denominator (``_den_slack``).  A benchmark ``schedule``
#: op builds 3 tables at 3 or 4 powers, 4 at 1 or 2, and 6.1 with no
#: slack, which ran about 14% fewer ops per second (``BENCH_21.json``).
_SLACK_POWER = 4

#: Room of a level's weight table per cell of the level: enough for the
#: sums over the level, a challenge or a matrix beside it, and the levels
#: that inherit the table (``GoodMeasureChain._table``).  A ``schedule``
#: op builds 11 tables at 1, 5 at 4, 4 at 8 to 32 and 3 from 64 up; at 1
#: it ran about 20% fewer ops per second, and 64 with 3 slack powers no
#: faster than 256 with 4 (``BENCH_21.json``).
_ROOM_PER_CELL = 256


@dataclass(frozen=True)
class ClopenSet:
    """A clopen set given as a union of cells at one chain level."""

    level: int
    cells: frozenset[str]

    @staticmethod
    def of(level: int, cells: Iterable[str]) -> "ClopenSet":
        return ClopenSet(level, frozenset(cells))


@dataclass(frozen=True)
class AutomorphismPrefix:
    """Finite-depth data of a measure-preserving homeomorphism.

    ``maps`` holds a weight-preserving cell bijection for each stored level;
    stored levels form an increasing sequence and consecutive stored maps
    commute with the chain projections between their levels.  Lower levels may
    be absent when the bijection does not descend to them.
    """

    maps: Mapping[int, Mapping[str, str]]

    @cached_property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.maps))

    @property
    def depth(self) -> int:
        return self.levels[-1]

    @property
    def base(self) -> int:
        return self.levels[0]

    @property
    def top_map(self) -> Mapping[str, str]:
        return self.maps[self.depth]

    def to_json(self) -> dict:
        return {"maps": {str(k): dict(self.maps[k]) for k in self.levels}}

    @staticmethod
    def from_json(data: Mapping) -> "AutomorphismPrefix":
        """The prefix of data; a fault of its form raises a one-line
        ValueError that names the place."""
        maps = parse_object(parse_object(data, "prefix")["maps"], "prefix maps")
        if not maps:
            raise ValueError("prefix maps is empty")
        out = {}
        for k, m in maps.items():
            try:
                level = parse_int(k)
            except ValueError:
                raise ValueError(f"prefix level {string(k)} is not an integer") from None
            what = f"prefix map {k}"
            out[level] = dict(parse_object(m, what))
            parse_ids(out[level].values(), what)
        return AutomorphismPrefix(out)


def invert_prefix(sigma: AutomorphismPrefix) -> AutomorphismPrefix:
    return AutomorphismPrefix({k: {v: c for c, v in m.items()} for k, m in sigma.maps.items()})


def _obj_key(P: WeightedPartition) -> tuple:
    return ("object", P.sorted_weight_key())


def _mor_key(target_level: int, source: WeightedPartition, images: Iterable[str]) -> tuple:
    """The ledger key of a morphism challenge from source onto a level,
    given the image of each source cell in cell order."""
    weight = source.weights
    body = tuple(zip(source.cells, [weight[c].sort_key() for c in source.cells], images))
    return ("morphism", target_level, body)


@dataclass
class LedgerEntry:
    """An absorbed challenge and the chain's answer to it, held as positions.

    ``response`` lists, for each cell of the stage in level order, the
    position among the challenge's cells of its image: the lift of an
    object challenge, or the response r of a morphism challenge.  A
    morphism entry's ``challenge`` lists, for each challenge cell, the
    position of its image among the target level's cells.  Each is a list
    of ints that the entry owns.  ``stage_cells`` and ``target_cells`` are
    those levels' cell tuples.  ``response_map`` and ``challenge_map`` read
    the positions as maps from cell ids to cell ids, built on first use and
    read only.

    Format 3 writes the challenge map as it is, and the response only if it
    has a descent.  A non-decreasing response is the only one of its kind:
    the run of stage cells over each challenge cell carries that cell's
    weight, and stage weights are positive, so each run ends where the
    stage's cumulative sum meets the challenge's, and the loader recovers
    it from those sums.
    """

    kind: str  # "object" | "morphism"
    stage: int
    challenge_object: WeightedPartition
    target_level: int | None
    response: list[int]
    challenge: list[int] | None
    stage_cells: tuple[str, ...]
    target_cells: tuple[str, ...] | None

    @cached_property
    def response_map(self) -> Mapping[str, str]:
        """The response from the stage's cells onto the challenge's."""
        return _as_map(self.stage_cells, self.challenge_object.cells, self.response)

    @cached_property
    def challenge_map(self) -> Mapping[str, str] | None:
        """A morphism challenge from its cells onto the target level's, or None."""
        if self.challenge is None:
            return None
        return _as_map(self.challenge_object.cells, self.target_cells, self.challenge)


def _as_map(source: Sequence[str], target: Sequence[str], positions: Sequence[int]) -> Mapping:
    """A read-only map sending each source cell to the target cell at its position."""
    return MappingProxyType(dict(zip(source, map(target.__getitem__, positions))))


class GoodMeasureChain:
    """Single-writer, append-only prefix of a Fraïssé chain over a value set.

    Invariant: level 0 has total 1, every level weight lies in V, each link
    is a valid morphism from level k+1 onto level k that lists level k+1 in
    the order of its images (so each cell's children are consecutive), and
    each ledger response maps its stage onto its challenge (commuting with
    the chain projection for morphism entries).  Public methods check their
    arguments and ``from_json`` checks a snapshot, once, where the data
    enters; every level the engine appends is derived from checked data by
    V's group operations, so the invariant holds without checking it again.
    """

    def __init__(self, V: GroupDescriptor):
        if not V.classify().group_like:
            raise NotGroupLike("descriptor does not describe an infinite group-like set")
        self.V = V
        self.levels: list[WeightedPartition] = [WeightedPartition((ROOT_CELL,), {ROOT_CELL: ONE})]
        self.links: list[PartitionMorphism] = []
        self.ledger: list[LedgerEntry] = []
        self._ledger_index: dict[tuple, int] = {}
        # per target level: the deepest level projected onto it so far, and that projection
        self._projections: dict[int, tuple[int, dict[str, str]]] = {}
        # the top's packed weights in top order and their ``_cumulative``, on first use
        self._top_index: tuple[list[int], list[int], dict[int, int]] | None = None
        # per level: its weight table and each cell's packed weight (``_table``)
        self._tables: dict[int, tuple[PackedValues, dict[str, int]]] = {}
        self._slack = _den_slack(V)

    # -- structure -----------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def top(self) -> WeightedPartition:
        return self.levels[-1]

    def composite_mapping(self, from_level: int, to_level: int) -> dict[str, str]:
        """Cell map of the composite projection from a deeper to a shallower level.

        Levels are append-only, so a projection never changes: per target
        level the deepest one computed so far is kept, a deeper request walks
        only the links below it and is kept instead, and a shallower one
        walks up from the identity.  The returned dict is shared: read only.
        """
        if not 0 <= to_level <= from_level <= self.depth:
            raise ValueError("levels out of range")
        kept = self._projections.get(to_level)
        if kept is not None and kept[0] <= from_level:
            level, proj = kept
        else:
            level, proj = to_level, {c: c for c in self.levels[to_level].cells}
        for lvl in range(level + 1, from_level + 1):
            link = self.links[lvl - 1].mapping
            proj = {c: proj[link[c]] for c in self.levels[lvl].cells}
        if kept is None or kept[0] < from_level:
            self._projections[to_level] = (from_level, proj)
        return proj

    def composite_morphism(self, from_level: int, to_level: int) -> PartitionMorphism:
        return PartitionMorphism(
            self.levels[from_level],
            self.levels[to_level],
            self.composite_mapping(from_level, to_level),
        )

    def _append_level(self, P: WeightedPartition, link: PartitionMorphism) -> None:
        """Append P with its link onto the current top.

        Precondition: the link is a valid morphism and P's weights lie in V.
        Every caller builds P from the top by an amalgam, a checked split or
        a cycle split whose weights sum back to each parent cell.
        """
        if link.source is not P or link.target is not self.top:
            raise ValueError("link must map the new level onto the current top")
        self.levels.append(P)
        self.links.append(link)
        self._top_index = None

    def _table(
        self, level: int, values: Collection[ExactValue] = (), summands: int = 0
    ) -> tuple[PackedValues, dict[str, int], list[int]]:
        """The level's weight table, each cell's packed weight, and the given
        values packed in the table.

        The table is built on first use, or inherited from the level the
        engine derived this one from (``_append_parts``), and then kept: levels are
        append-only, so it never goes stale.  A table that cannot take a
        value (one not over its denominator, say 1/6 on a level of thirds),
        or that has no room left for a signed sum of ``summands`` members,
        is replaced by one over the level's weights and the values, with
        room for the sums.  The top's index (``_respond``) is in the top's
        packing, so it goes with the top's table.
        """
        table = self._tables.get(level)
        if table is not None:
            pv, weights = table
            packed = pv.pack_all(values)
            if packed is not None and pv.room >= summands:
                return pv, weights, packed
        P = self.levels[level]
        n = len(P.cells)
        pv = PackedValues(
            [*P.weight_list(), *values], _ROOM_PER_CELL * max(n, summands), self._slack
        )
        self._tables[level] = pv, dict(zip(P.cells, pv.packed))
        if table is not None and level == self.depth:
            self._top_index = None
        return pv, self._tables[level][1], pv.packed[n:]

    def _append_parts(self, parts: Sequence[tuple], pv: PackedValues) -> PartitionMorphism:
        """Append the level that cuts the top into ``parts``, packed ints of
        the top's table pv (``_subdivide``), which it inherits; returns its link."""
        link, packed = _subdivide(self.top, parts, pv)
        self._append_level(link.source, link)
        self._tables[self.depth] = pv, packed
        return link

    # -- measures and clopen sets ---------------------------------------------

    def _check_clopen(self, U: ClopenSet) -> None:
        if not 0 <= U.level <= self.depth:
            raise ValueError(f"clopen set level {U.level} is not a level of the chain")
        if not U.cells <= self.levels[U.level].weights.keys():
            raise ValueError("clopen set uses unknown cells")

    def measure(self, U: ClopenSet) -> ExactValue:
        """The exact measure of U: its cells' packed weights added, read back once."""
        self._check_clopen(U)
        pv, weights, _ = self._table(U.level, summands=len(U.cells))
        return pv.unpack(sum([weights[c] for c in U.cells]))

    def project(self, U: ClopenSet, to_level: int) -> ClopenSet:
        """Rewrite U as a union of cells at a deeper level."""
        if to_level < U.level:
            raise ValueError("can only project to deeper levels")
        anc = self.composite_mapping(to_level, U.level)
        return ClopenSet.of(to_level, (c for c in self.levels[to_level].cells if anc[c] in U.cells))

    # -- absorption -----------------------------------------------------------

    def absorb_object(self, target: WeightedPartition) -> int:
        """Extend the chain so the target partition has a lift; returns the stage.

        Challenges already absorbed (same weight multiset) are detected in the
        ledger and do not extend the chain.  A challenge the top already
        refines is answered from the current top, with no new level.
        """
        weights = target.weight_list()
        check_all_in(weights, self.V, "challenge weight")
        # the total is decided on packed ints of the top's table, and formatted only to refuse
        pv, _, packed = self._table(self.depth, weights, len(weights))
        if sum(packed) != pv.one:
            raise SumMismatch(f"object challenge has total {target.total}, expected 1")
        key = _obj_key(target)
        if key in self._ledger_index:
            return self.ledger[self._ledger_index[key]].stage
        room = len(self.top.cells) + len(weights)
        return self._absorb_object(target, key, lambda: self._table(self.depth, weights, room)[2])

    def _absorb_object(
        self, target: WeightedPartition, key: tuple, packing: Callable[[], Sequence[int]]
    ) -> int:
        """Record the lift of an object challenge whose ledger key the ledger
        lacks.  Precondition: weights in V, summing to 1.  A challenge with
        the top's weight multiset is answered by pairing its cells with the
        top's (``_match_by_weight``), any other by ``_answer`` in cell order,
        as the one fiber over level 0, on the packed weights ``packing()``
        returns in the top's table."""
        top = self.top
        lift = _match_by_weight(top.cells, target.cells, top.weights, target.weights)
        if lift is None:
            lift = self._answer(packing(), range(len(target.cells)))
        self._ledger_index[key] = len(self.ledger)
        self.ledger.append(
            LedgerEntry("object", self.depth, target, None, lift, None, self.top.cells, None)
        )
        return self.depth

    def _respond(
        self, f2: PartitionMorphism, level: int, image: Sequence[int] | None = None
    ) -> list[int]:
        """Answer the challenge f2 onto a level; returns the response, a map
        from the top after this call onto f2's source, as the position in
        f2's source of the image of each top cell, in top order.  ``image``
        is the position in the level of the image of each cell of f2's
        source, worked out here when it is None.

        Links list each level in the order of its images (the chain's
        invariant), so the top's fibers over the level are runs of the top,
        in level order.  A stable sort lists f2's cells the same way, by
        their images' positions (no sort over a one-cell level), and
        ``_answer`` walks them in that order over f2's weights, packed in
        the top's table, which takes them too (``_table``).  Precondition:
        f2 is a valid morphism onto the level.
        """
        source = f2.source
        packed = self._table(
            self.depth, source.weight_list(), len(self.top.cells) + len(source.cells)
        )[2]
        order = range(len(source.cells))
        below = self.levels[level].cells
        if len(below) > 1:
            if image is None:
                at = {c: i for i, c in enumerate(below)}
                image = [at[f2.mapping[c]] for c in source.cells]
            order = sorted(order, key=image.__getitem__)
        return self._answer(packed, order)

    def _answer(self, packed: Sequence[int], order: Sequence[int]) -> list[int]:
        """The response to a challenge whose cells, listed in ``order``, lie
        over the runs of the top in turn: a map from the top after this call
        onto the challenge, as the position among the challenge's cells of
        the image of each top cell, in top order.  ``packed`` holds each
        challenge cell's weight as a packed int of the top's table, which has
        room for the top's cells and the challenge's together.  Every
        challenge, object or morphism, is answered here.

        The cumulative sums of the top and of the challenge in that order
        meet at the end of every run, and one walk places the challenge's
        sums among the top's, held in the top's index (``partitions._place``).
        If no sum cuts a top cell, the response is read off the runs: the
        ``p2 ∘ p1⁻¹`` of an amalgam as large as the top.  Otherwise the same
        placements give the parts of the amalgam of the top's projection
        with the challenge (``_parts``), which become the new top
        (``_subdivide``), and each part's challenge cell is the response.
        Either way the challenge ∘ response is the chain projection.

        A challenge listed in image order gets a non-decreasing response.
        Its order is the identity, so its intervals follow in challenge
        order, and each cell the walk yields (a top cell, or a part of the
        amalgam) maps to the challenge cell whose interval holds it.  The
        walk yields its cells in interval order: the top's cells are, and
        the parts list each top cell's pieces in turn.  The new top's link,
        each part onto its top cell, does not decrease either, so appends
        keep the invariant.  Only the parts of a cut top cell are read
        back, and the new top inherits the table.
        """
        pv, weight = self._tables[self.depth]
        if self._top_index is None:
            left = [weight[c] for c in self.top.cells]
            self._top_index = (left, *_cumulative(left))
        left, sums, index = self._top_index
        right = [packed[z] for z in order]
        places = _place(sums, index, right, pv)
        if all(acc is None for _, acc in places):
            response: list[int] = []
            start = 0
            for z, (end, _) in zip(order, places):
                response += [z] * (end - start)
                start = end
            return response
        parts = _parts(left, right, sums, places)
        self._append_parts(parts, pv)
        return [order[j] for _, _, j in parts]

    def absorb_morphism(
        self, challenge: PartitionMorphism, target_level: int
    ) -> tuple[int, PartitionMorphism]:
        """Extend the chain with a response r to the challenge A -> P_i.

        Returns a stage j and the recorded morphism r: P_j -> A with
        challenge ∘ r equal to the chain projection from j to i, verified
        cellwise when it is first recorded.  A challenge the top already
        refines is answered from the current top, with no new level.
        """
        if not 0 <= target_level <= self.depth:
            raise ValueError(f"target level {target_level} is not a level of the chain")
        f2 = PartitionMorphism(challenge.source, self.levels[target_level], dict(challenge.mapping))
        if not verify_morphism(f2):
            raise InvalidChallenge(f"challenge is not a valid morphism onto level {target_level}")
        check_all_in(challenge.source.weight_list(), self.V, "challenge weight")
        entry = self._absorb_morphism(f2, target_level)
        return entry.stage, PartitionMorphism(
            self.levels[entry.stage], f2.source, dict(entry.response_map)
        )

    def _absorb_morphism(self, f2: PartitionMorphism, level: int) -> LedgerEntry:
        """``absorb_morphism`` unchecked, returning the ledger entry: f2 is a
        valid morphism of V-weights onto levels[level]."""
        source, below = f2.source, self.levels[level].cells
        images = [f2.mapping[c] for c in source.cells]
        key = _mor_key(level, source, images)
        n = self._ledger_index.get(key)
        if n is None:
            at = {c: i for i, c in enumerate(below)}
            challenge = [at[x] for x in images]
            response = self._respond(f2, level, challenge)
            proj = self.composite_mapping(self.depth, level)
            if not _commutes(challenge, response, [at[proj[c]] for c in self.top.cells]):
                raise RuntimeError("absorption failed to commute; this is a bug")
            n = self._ledger_index[key] = len(self.ledger)
            self.ledger.append(LedgerEntry(
                "morphism", self.depth, source, level, response, challenge, self.top.cells, below,
            ))
        return self.ledger[n]

    # -- deterministic schedule -------------------------------------------------

    def object_challenges(self, height: int) -> list[WeightedPartition]:
        """The object challenges of a height: every nondecreasing index tuple
        of at most height + 1 values of height at most height + 1 summing to
        1, in depth-first order, built unchecked: their weights lie in V and
        sum to 1, so each passes ``absorb_object``'s checks.  The values and
        the tuples are V's, held by the descriptor
        (``GroupDescriptor.mass_one_tuples``, which keeps a bounded number
        of tuples), so a second chain over the same descriptor lists no value
        and, within that bound, walks no tuple; each call returns new
        partitions in a new list."""
        values = self.V.enumerate_values(height + 1)
        ids = [f"x{k}" for k in range(height + 1)]
        return [
            WeightedPartition(tuple(ids[:len(seq)]), {ids[k]: values[i] for k, i in enumerate(seq)})
            for seq in self.V.mass_one_tuples(height)
        ]

    def run_schedule(self, budget: int) -> "GoodMeasureChain":
        """Absorb all object and morphism challenges up to the given height.

        Objects come before morphisms at each height; the ledger makes the
        schedule idempotent for a fixed budget, and larger budgets only append
        further levels.  A challenge the top already refines is answered from
        the current top, so only challenges that need a finer partition
        append a level.  V is listed up to height budget + 1 before any
        level is appended; the descriptor keeps that listing and, up to a
        bound, the object challenges' tuples, so a second run over it lists
        nothing and walks only the heights past that bound
        (``GroupDescriptor.mass_one_tuples``).  The object challenges are
        absorbed from the tuples (``_absorb_tuples``).  Challenges
        built from V skip the public checks, and no value or morphism is
        checked: each split of a level weight w into a and w - a, with a in V
        and 0 < a <= w - a < w <= 1, has both parts in V summing to w.  The
        splits are tried on packed ints of the level's table, which takes
        the values too, and a kept w - a is read back once."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.V.enumerate_values(budget + 1)
        for h in range(1, budget + 1):
            values = self.V.enumerate_values(h + 1)
            self._absorb_tuples(values, self.V.mass_one_tuples(h))
            lvl = min(h - 1, self.depth)
            P = self.levels[lvl]
            pv, weight, packed = self._table(lvl, values, 3)
            whole = [(w, i) for i, w in enumerate(P.weight_list())]
            for k, c in enumerate(P.cells):
                w = weight[c]
                for a, pa in zip(values, packed):
                    rest = w - pa
                    if pv.sign(rest - pa) < 0:  # a > 0, so a kept rest is positive
                        continue
                    parts = [*whole[:k], (a, k), (pv.unpack(rest), k), *whole[k + 1:]]
                    self._absorb_morphism(_subdivide(P, parts)[0], lvl)
        return self

    def _absorb_tuples(self, values: Sequence[ExactValue], tuples: Sequence[Sequence[int]]) -> None:
        """Absorb the object challenge of each index tuple into values, as
        ``object_challenges`` lists it, with no packing per challenge.

        A tuple's ledger key is its values' ``sort_key``s, read once per
        call, sorted; a tuple the ledger holds builds nothing, and any other
        builds its partition for its ledger entry.  Its packed weights are
        its values' ints in the top's table, each packed on first use and
        kept while the top keeps that table.  A value the table cannot take,
        or a table without room for the top and the tuple, sends the tuple's
        values to ``_table``, as any challenge's are, and the table it
        returns is packed anew."""
        keys = [v.sort_key() for v in values]
        ids = tuple(f"x{k}" for k in range(max(map(len, tuples), default=0)))
        pv, packs = None, {}  # the top's table, and the values packed in it by index

        def packing(seq):
            nonlocal pv, packs
            table = self._tables.get(self.depth)
            if table is None or table[0] is not pv:
                pv, packs = table and table[0], {}
            summands = len(self.top.cells) + len(seq)
            for i in seq:
                if i not in packs:
                    if pv is None or (p := pv.pack(values[i])) is None:
                        break
                    packs[i] = p
            else:
                if pv.room >= summands:
                    return [packs[i] for i in seq]
            pv, _, packed = self._table(self.depth, [values[i] for i in seq], summands)
            packs = dict(zip(seq, packed))
            return packed

        for seq in tuples:
            key = ("object", tuple(sorted([keys[i] for i in seq])))
            if key not in self._ledger_index:
                cells = ids[:len(seq)]
                target = WeightedPartition(cells, dict(zip(cells, map(values.__getitem__, seq))))
                self._absorb_object(target, key, lambda: packing(seq))

    # -- goodness witnesses -----------------------------------------------------

    def subset_witness(self, U: ClopenSet, W: ClopenSet) -> ClopenSet:
        """A clopen subset of W with exactly the measure of U.

        Whole top-level cells of W are taken greedily in descending weight;
        at most one cell is split (extending the chain) to hit the measure
        exactly, which the group-like value set always permits.  Both
        measures and the remainder are packed ints of the top's table; the
        two parts of a split cell are read back once, and lie in V as
        differences of V-values between 0 and the cell's weight.
        """
        self._check_clopen(U)
        self._check_clopen(W)
        top_level = self.depth
        P = self.levels[top_level]
        pv, packed, _ = self._table(top_level, summands=2 * len(P.cells) + 1)
        over_u = self.composite_mapping(top_level, U.level)
        over_w = self.composite_mapping(top_level, W.level)
        mU = sum([packed[c] for c in P.cells if over_u[c] in U.cells])
        cells = [c for c in P.cells if over_w[c] in W.cells]
        mW = sum([packed[c] for c in cells])
        if pv.sign(mW - mU) <= 0:
            raise NotSmaller(f"measure {pv.unpack(mU)} is not smaller than {pv.unpack(mW)}")
        # packed ints of a table with no symbol are ordered as the values are
        cells.sort(key=P.weights.__getitem__ if pv.syms else packed.__getitem__, reverse=True)
        picked: list[str] = []
        r = mU
        for c in cells:
            if not r:
                break
            w = packed[c]
            if pv.sign(r - w) >= 0:
                picked.append(c)
                r -= w
            else:
                k = P.cells.index(c)
                whole = [(packed[d], i) for i, d in enumerate(P.cells)]
                self._append_parts([*whole[:k], (r, k), (w - r, k), *whole[k + 1:]], pv)
                picked.append(f"{c}/0")  # whole cells keep their ids in the new level
                r = 0
                top_level = self.depth
                break
        if r:
            raise RuntimeError("greedy subset accumulation failed; this is a bug")
        return ClopenSet.of(top_level, picked)

    def maximal_partition_witness(self, targets: Sequence[ExactValue]) -> int:
        """Absorb the partition with the given weights; witnesses maximality."""
        cells = tuple(f"t{k}" for k in range(len(targets)))
        return self.absorb_object(WeightedPartition(cells, dict(zip(cells, targets))))

    # -- automorphism prefixes ----------------------------------------------------

    def identity_prefix(self, depth: int | None = None) -> AutomorphismPrefix:
        depth = self.depth if depth is None else depth
        maps = {k: {c: c for c in self.levels[k].cells} for k in range(depth + 1)}
        return AutomorphismPrefix(maps)

    def prefix_valid(self, sigma: AutomorphismPrefix) -> bool:
        if not 0 <= sigma.base <= sigma.depth <= self.depth:
            return False
        for k in sigma.levels:
            W = self._table(k, summands=len(self.levels[k].cells))[1]
            if not maps_onto(sigma.maps[k], W, W):  # a weight-preserving bijection
                return False
        for lo, hi in zip(sigma.levels, sigma.levels[1:]):
            anc = self.composite_mapping(hi, lo)
            lo_map, hi_map = sigma.maps[lo], sigma.maps[hi]
            if any(anc[hi_map[c]] != lo_map[anc[c]] for c in self.levels[hi].cells):
                return False
        return True

    def extend_partial_isomorphism(
        self, level: int, f: Mapping[str, str]
    ) -> AutomorphismPrefix:
        """Extend a weight-preserving cell bijection to an automorphism prefix.

        The bijection is completed on the rest of its level (equal-weight
        complements always match up), pushed down while it respects fibers,
        and pushed up to the chain top level by level, refining the chain with
        a transport-cycle split whenever child weights fail to align.
        """
        P = self.levels[level]
        if not f:
            raise ValueError("empty partial isomorphism")
        srcs, tgts = list(f), list(f.values())
        if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
            raise WeightMismatch("partial isomorphism must be a bijection")
        for c in srcs:
            if c not in P.weights or f[c] not in P.weights:
                raise ValueError(f"unknown cell in partial isomorphism: {c} -> {f[c]}")
            if P.weight(c) != P.weight(f[c]):
                raise WeightMismatch(f"{c} and {f[c]} have different weights")
        taken = set(tgts)
        src = [c for c in P.cells if c not in f]
        dst = [c for c in P.cells if c not in taken]
        rest = _match_by_weight(src, dst, P.weights, P.weights)
        if rest is None:
            raise RuntimeError("complement weights fail to match; this is a bug")
        sigma = {**f, **dict(zip(src, map(dst.__getitem__, rest)))}
        maps: dict[int, dict[str, str]] = {level: sigma}
        self._descend(maps, level)
        self._ascend_to_top(maps, level)
        return AutomorphismPrefix(maps)

    def _descend(self, maps: dict[int, dict[str, str]], level: int) -> None:
        k = level
        while k > 0:
            link = self.links[k - 1].mapping
            induced: dict[str, str] = {}
            ok = True
            for c, d in maps[k].items():
                p, q = link[c], link[d]
                if induced.setdefault(p, q) != q:
                    ok = False
                    break
            if not ok or len(set(induced.values())) != len(induced):
                break
            maps[k - 1] = induced
            k -= 1

    def _dense_lift(self, sigma: Mapping[str, str], k: int) -> dict[str, str] | None:
        """Lift a level-k bijection to level k+1 by matching child weights, or None."""
        children = self.links[k].fibers()
        Q = self.levels[k + 1]
        out: dict[str, str] = {}
        for c, d in sigma.items():
            ys, zs = children[c], children[d]
            matched = _match_by_weight(ys, zs, Q.weights, Q.weights)
            if matched is None:
                return None
            out.update(zip(ys, map(zs.__getitem__, matched)))
        return out

    def _transport_split(self, maps: dict[int, dict[str, str]], k: int) -> int:
        """Realize a level-k bijection at (or above) the top via transport cycles.

        Builds the balanced transport of top fibers along the bijection,
        decomposes it into cycles, and either reads off a top-level bijection
        directly (when the transport is a permutation) or appends one new
        level splitting every top cell by the cycles through it.  The level-k
        bijection preserves weights (``extend_prefix`` and
        ``extend_partial_isomorphism`` check it), so each edge joins fibers of
        equal mass and every transport entry is a refinement part, in V.
        """
        T = self.depth
        top = self.levels[T]
        pv, weight, _ = self._table(T, summands=2 * len(top.cells))
        entries = lift_edges(self.composite_morphism(T, k), maps[k].items(), weight, pv)
        cycles = decompose_entries(entries, pv)
        through = cycles_through(top.cells, [verts for verts, _ in cycles])
        if all(len(through[c]) == 1 for c in top.cells):
            maps[T] = {c: through[c][0][1] for c in top.cells}
            return T
        maps[T + 1] = self._append_cycle_split(cycles, pv)
        return self.depth

    def _append_cycle_split(
        self, cycles: Sequence[tuple[Sequence[str], int]], pv: PackedValues
    ) -> dict[str, str]:
        """Append a level splitting every top cell by the cycles through it.

        ``cycles`` are (vertices, weight) pairs over the top cells, each
        weight a packed int of the table pv (``decompose_entries``) whose
        value lies in V, and they cover each cell's weight exactly, so the
        link onto the top is a valid morphism.  A cell on one cycle keeps
        its id and weight; a cell on several gets one child per cycle, in
        cycle order, whose weight is read back once (``_append_parts``).
        Returns the permutation of the new level that moves each child
        along its cycle.
        """
        top = self.top
        through = cycles_through(top.cells, [verts for verts, _ in cycles])
        link = self._append_parts(
            [(cycles[ci][1], k) for k, c in enumerate(top.cells) for ci, _ in through[c]], pv
        )
        visits = [(c, ci) for c in top.cells for ci, _ in through[c]]
        child_id = dict(zip(visits, link.source.cells))
        return {child_id[(c, ci)]: child_id[(d, ci)] for c in top.cells for ci, d in through[c]}

    def _ascend_to_top(self, maps: dict[int, dict[str, str]], start: int) -> int:
        d = start
        while d < self.depth:
            lifted = self._dense_lift(maps[d], d)
            if lifted is not None:
                maps[d + 1] = lifted
                d += 1
            else:
                d = self._transport_split(maps, d)
        return d

    def extend_prefix(self, sigma: AutomorphismPrefix, to_depth: int) -> AutomorphismPrefix:
        """A prefix of depth >= to_depth agreeing with sigma on its levels.

        May refine the chain: transport splits while climbing to the top, and
        orbit splits (every cell and its image split identically) when asked
        to go beyond the current chain depth.  Both splits need sigma's top
        map to be a weight-preserving bijection of its level, checked here.
        """
        if to_depth < sigma.depth:
            raise ValueError("to_depth must be at least the current depth")
        if sigma.depth > self.depth:
            raise ValueError(f"prefix depth {sigma.depth} is beyond the chain depth {self.depth}")
        if sigma.base < 0:
            raise ValueError(f"prefix level {sigma.base} is not a level of the chain")
        d = sigma.depth
        W = self._table(d, summands=len(self.levels[d].cells))[1]
        if not maps_onto(sigma.top_map, W, W):
            raise WeightMismatch(f"prefix map at level {d} is not a weight-preserving bijection")
        maps = {k: dict(sigma.maps[k]) for k in sigma.levels}
        while d < to_depth:
            if d < self.depth:
                d = self._ascend_to_top(maps, d)
            else:
                d = self._orbit_split(maps, d)
        return AutomorphismPrefix(maps)

    def _orbit_split(self, maps: dict[int, dict[str, str]], d: int) -> int:
        """Split every top cell in two along two parallel copies of each orbit
        of the top bijection, so the bijection lifts to the new level.  The
        bijection preserves weights, so one orbit has one weight w, and both
        pieces, a = smallest_below(w) and w - a, lie in V.  They are packed
        ints of the top's table, w - a a difference of two members."""
        top = self.levels[d]
        perm_orbits = orbits(maps[d], top.cells)
        below = [self.V.smallest_below(top.weight(orbit[0])) for orbit in perm_orbits]
        pv, weight, packed = self._table(d, below, 2)
        cycles: list[tuple[list[str], int]] = []
        for orbit, a in zip(perm_orbits, packed):
            cycles += [(orbit, a), (orbit, weight[orbit[0]] - a)]
        maps[d + 1] = self._append_cycle_split(cycles, pv)
        return self.depth

    def ensure_depth(self, depth: int) -> None:
        """Append canonical split levels until the chain has the given depth."""
        while self.depth < depth:
            maps = {self.depth: {c: c for c in self.top.cells}}
            self._orbit_split(maps, self.depth)

    def align_prefixes(self, prefixes: Sequence[AutomorphismPrefix]) -> list[AutomorphismPrefix]:
        """Extend prefixes until they share their top stored level.

        Each extension may refine the chain, which can invalidate the common
        level for the others; the loop is bounded and raises if alignment
        keeps escaping (which cannot happen for the constructions used here).
        """
        ps = list(prefixes)
        for _ in range(_ALIGN_ROUNDS):
            d = max(p.depth for p in ps)
            ps = [self.extend_prefix(p, d) if p.depth < d else p for p in ps]
            if len({p.depth for p in ps}) == 1:
                return ps
        raise RuntimeError("could not align prefixes on a common level")

    def compose_prefixes(
        self, outer: AutomorphismPrefix, inner: AutomorphismPrefix
    ) -> AutomorphismPrefix:
        """Prefix of the composite (outer after inner) on their shared levels."""
        outer, inner = self.align_prefixes([outer, inner])
        shared = sorted(set(outer.levels) & set(inner.levels))
        maps = {
            k: {c: outer.maps[k][inner.maps[k][c]] for c in self.levels[k].cells}
            for k in shared
        }
        return AutomorphismPrefix(maps)

    # -- serialisation -------------------------------------------------------------

    def to_text(self) -> str:
        """The snapshot in format 3, as canonical text: the text of
        ``jsonutil.dumps`` of its JSON value, written in one pass with no
        JSON tree.

        A level lists each cell's id and weight, as in format 1, and no
        total: every level has total 1, the chain's invariant.  The rest is
        positional.  Link k lists, for each cell of level k+1, the position
        of its image in level k.  The distinct weights of the ledger's
        challenges are written once, in ``weights``, in the order they are
        first met.  A ledger entry lists its challenge's cell ids, their
        weights as positions in ``weights`` and, for a morphism, its
        challenge map as positions in its target level.

        An entry writes its response, the challenge position of each cell of
        its stage, only when the response has a descent: a stage cell that
        maps to an earlier challenge cell than the stage cell before it.
        ``from_json`` recovers a non-decreasing one (``LedgerEntry``) by
        walking the cumulative sums of the stage and of the challenge.

        Each distinct weight is formatted once, as a ``Canonical`` text, and
        moved to each indentation it stands at by ``encode``; each position
        list is one join, and each level cell and ledger entry
        fills a template fixed once per key set and indentation
        (``jsonutil.layout``).  The ledger is joined first, so that its
        entries' texts are gone before the whole is formatted.
        """
        nl = ["\n" + "  " * k for k in range(6)]  # the indentation of each depth
        table: dict[ExactValue, int] = {}  # the challenge weights, by first appearance
        # the weight table is complete once the ledger is written
        ledger = array(_entry_texts(self.ledger, table, nl[2]), nl[1])
        weight = cache(lambda v: Canonical(dumps(v.to_json())))  # each distinct weight, once
        cell_weight = cache(lambda v: encode(weight(v), nl[5]))
        cell = layout(("id", "w"), nl[4])
        level = layout(("cells",), nl[2])
        levels = [
            level.format(array(map(cell.format, map(string, P.cells),
                                   map(cell_weight, P.weight_list())), nl[3]))
            for P in self.levels
        ]
        links = []
        for P, link in zip(self.levels, self.links):
            below = {c: i for i, c in enumerate(P.cells)}
            image = map(link.mapping.__getitem__, link.source.cells)
            links.append(array(map(int.__repr__, map(below.__getitem__, image)), nl[2]))
        snapshot = layout(("descriptor", "format", "levels", "links", "weights", "ledger"), nl[0])
        return (snapshot + "\n").format(
            encode(self.V.to_json(), nl[1]),
            "3",
            array(levels, nl[1]),
            array(links, nl[1]),
            array([encode(weight(v), nl[2]) for v in table], nl[1]),
            ledger,
        )

    def to_json(self) -> dict:
        """The snapshot's JSON value, read back from ``to_text``, its only
        writer."""
        return loads(self.to_text())

    @staticmethod
    def from_json(data: Mapping) -> "GoodMeasureChain":
        """Load a snapshot of format 1, 2 or 3 and verify it once; a fault
        raises a one-line ValueError.

        Format 1, which has no ``format`` key, writes link, response and
        challenge maps as objects from cell ids to cell ids, and each
        ledger challenge as a partition with its weights.  Formats 2 and 3
        are positional; format 3 (``to_text``) is format 2 with no level
        totals, which no loader reads, and with the response of a ledger
        entry left out when it is non-decreasing.  All are read as
        positions: a written format-2 or format-3 map is its list, once
        ``parse_positions`` has checked it, and a format-1 map is the
        position of each source cell's image, once each image is known to
        be a cell id (``_object_positions``).  The snapshot is parsed
        first: its levels, its links, the weight table and the ledger
        entries, each level and ledger entry a JSON object, each stage and
        target level an integer in range and each position an integer in
        range; a format-3 challenge weight must also be positive.  It is
        then checked: every distinct weight of the levels and of the ledger
        challenges lies in V, level 0 has total 1, each link maps level k+1
        onto level k and lists it in the order of its images (the chain's
        invariant), each morphism challenge maps onto its target level,
        each response maps its stage onto its challenge, and a morphism
        response commutes with the chain projection.

        The mass checks are ``positions_onto`` over packed ints, not values:
        the distinct weights are packed once into one ``PackedValues`` with
        room for the largest partition, so every fiber sum and level 0's
        total are exact.  A response a format-3 entry leaves out is
        recovered from the stage's cumulative sums, indexed once per stage
        (``_cumulative``), and that walk is its mass check (``_recovered``).
        Once they pass, every partition of the snapshot has total 1, since
        level 0 does and links and responses preserve mass.  That table
        stays every level's weight table (``_table``), so the chain builds
        none for a loaded level.  A ledger entry keeps the positions it was
        checked with, and a link gets its map from its positions.
        """
        V = GroupDescriptor.from_json(data["descriptor"])
        chain = GoodMeasureChain(V)
        symbols = V.symbols()
        fmt = data.get("format", 1)
        if type(fmt) is not int or fmt not in (1, 2, 3):
            raise ValueError(
                f"unknown snapshot format {fmt}" if type(fmt) is int
                else f"snapshot format is {json_type(fmt)}, not a number"
            )
        memo: dict = {}  # one parse per distinct weight, see WeightedPartition.from_json
        levels = []
        for i, d in enumerate(parse_array(data["levels"], "snapshot levels")):
            d = parse_object(d, f"level {i}")
            parse_array(d["cells"], f"level {i} cells")
            levels.append(WeightedPartition.from_json(d, symbols, memo, f"level {i}"))
        cells = [parse_ids(P.cells, f"level {i} cells") for i, P in enumerate(levels)]
        links = parse_array(data["links"], "snapshot links")
        if len(links) != len(levels) - 1:
            raise ValueError(f"snapshot has {len(levels)} levels but {len(links)} links")
        if fmt == 1:
            links = [
                _object_positions(
                    parse_object(d, f"snapshot link {i}")["map"], cells[i + 1], cells[i],
                    f"snapshot link {i} map",
                )
                for i, d in enumerate(links)
            ]
        else:
            links = [
                parse_positions(d, len(cells[i + 1]), len(cells[i]), f"snapshot link {i}")
                for i, d in enumerate(links)
            ]
            table = []  # its weights join the memo; no partition is parsed after them
            for w in parse_array(data["weights"], "snapshot weights"):
                key = repr(w)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = ExactValue.from_json(w, symbols)
                table.append(value)
            # format 3 refuses a challenge weight that is not positive at its entry
            nonpositive = set() if fmt == 2 else {i for i, v in enumerate(table) if v.sign() <= 0}
        parsed = []  # (kind, stage, challenge, target level, challenge map, response)
        n = 0  # the ledger entry being read; its places format n only when a refusal prints one
        at = {
            part: Place(lambda part=part: f"ledger entry {n}{part}")
            for part in ("", ": cells", ": weights", ": response", ": response map",
                         ": challenge", ": challenge cells", ": challenge map")
        }
        for n, e in enumerate(parse_array(data["ledger"], "snapshot ledger")):
            what = at[""]
            e = parse_object(e, what)
            stage = parse_int(e["stage"])
            if not 0 <= stage < len(levels):
                raise ValueError(f"{what}: stage {stage} is not a level of the snapshot")
            if fmt == 1:
                challenge = parse_object(e["challenge"], at[": challenge"])
                parse_array(challenge["cells"], at[": challenge cells"])
                obj = WeightedPartition.from_json(challenge, symbols, memo, at[": challenge"])
                response = parse_object(e["response"], at[": response"])["map"]
                response = _object_positions(
                    response, cells[stage], obj.cells, at[": response map"]
                )
            else:
                ids = parse_ids(parse_array(e["cells"], at[": cells"]), at[": cells"])
                w = parse_positions(e["weights"], len(ids), len(table), at[": weights"])
                obj = _checked(list(zip(ids, map(table.__getitem__, w))), ())
                if nonpositive and not nonpositive.isdisjoint(w):
                    c = next(c for c, p in zip(ids, w) if p in nonpositive)
                    raise ValueError(f"{what}: weight of {c} must be positive")
                if fmt == 3 and "response" not in e:
                    response = None  # non-decreasing: recovered by the check below
                else:
                    response = list(parse_positions(
                        e["response"], len(cells[stage]), len(ids), at[": response"]
                    ))
            kind, target, cm = e["kind"], None, None
            if kind == "morphism":
                target = parse_int(e["target_level"])
                if not 0 <= target <= stage:
                    raise ValueError(
                        f"{what}: target level {target} is not a level at or below stage {stage}"
                    )
                if fmt == 1:
                    cm = _object_positions(
                        e["challenge_map"], obj.cells, cells[target], at[": challenge map"]
                    )
                else:
                    cm = list(parse_positions(
                        e["challenge_map"], len(ids), len(cells[target]), at[": challenge map"]
                    ))
            elif kind != "object":
                raise ValueError(f"{what}: unknown kind {kind!r}")
            parsed.append((kind, stage, obj, target, cm, response))

        values = list(memo.values())  # every weight of the snapshot is one of these objects
        try:
            check_all_in(values, V, "snapshot weight")
        except NotInV as exc:
            raise ValueError(str(exc)) from None
        room = max(len(P.cells) for P in [*levels, *(p[2] for p in parsed)])
        pv = PackedValues(values, _ROOM_PER_CELL * room, chain._slack)
        # keyed by identity: the memo holds one object per distinct weight, so no value is hashed
        packed_of = dict(zip(map(id, values), pv.packed))

        def packed(P: WeightedPartition) -> list[int]:
            # a parsed partition lists its weights in cell order
            return [packed_of[id(w)] for w in P.weights.values()]

        weights = [packed(P) for P in levels]  # each level's packed weights, in cell order
        if sum(weights[0]) != pv.one:
            raise ValueError(f"level 0 of the snapshot has total {levels[0].total}, expected 1")
        chain.levels = levels
        chain._tables = {i: (pv, dict(zip(cells[i], w))) for i, w in enumerate(weights)}
        for i, pos in enumerate(links):
            if pos is None or not positions_onto(pos, weights[i + 1], weights[i]):
                raise ValueError(f"snapshot link {i} does not map level {i + 1} onto level {i}")
            if pos != sorted(pos):
                raise ValueError(
                    f"snapshot link {i} does not list level {i + 1} in the order of its images"
                )
            mapping = dict(zip(cells[i + 1], map(cells[i].__getitem__, pos)))
            chain.links.append(PartitionMorphism(levels[i + 1], levels[i], mapping))
        indexes: dict[int, dict[int, int]] = {}  # per stage: its ``_cumulative`` index
        for n, (kind, stage, obj, target, cm, response) in enumerate(parsed):
            ow = packed(obj)
            if kind == "morphism" and (cm is None or not positions_onto(cm, ow, weights[target])):
                raise ValueError(f"ledger entry {n}: challenge does not map onto level {target}")
            if fmt == 3 and response is None:  # left out of the entry
                index = indexes.get(stage)
                if index is None:
                    index = indexes[stage] = _cumulative(weights[stage])[1]
                response = _recovered(index, len(cells[stage]), ow)
                onto = response is not None
            else:
                onto = response is not None and positions_onto(response, weights[stage], ow)
            if not onto:
                raise ValueError(
                    f"ledger entry {n}: response does not map level {stage} onto its challenge"
                )
            if kind == "object":
                below, key = None, _obj_key(obj)
            else:
                below = cells[target]
                at = {c: i for i, c in enumerate(below)}
                proj = chain.composite_mapping(stage, target)
                if not _commutes(cm, response, [at[proj[c]] for c in cells[stage]]):
                    raise ValueError(f"ledger entry {n}: response does not commute with the chain")
                key = _mor_key(target, obj, map(below.__getitem__, cm))
            chain.ledger.append(
                LedgerEntry(kind, stage, obj, target, response, cm, cells[stage], below)
            )
            chain._ledger_index[key] = n
        return chain


def _entry_texts(ledger: Iterable[LedgerEntry], table: dict, nl: str) -> Iterator[str]:
    """The text at nl of each ledger entry in format 3 (``to_text``).  Each
    challenge weight is written as its position in table, which maps the
    weights met so far to their positions and is extended by the others.
    A response is written only if it has a descent."""
    inner = nl + "  "
    entry = {
        (kind, written): layout(
            ("kind", "stage", "cells", "weights", *more, *(("response",) if written else ())), nl
        )
        for kind, more in (("object", ()), ("morphism", ("target_level", "challenge_map")))
        for written in (False, True)
    }
    kinds = {kind: string(kind) for kind in ("object", "morphism")}
    for e in ledger:
        obj, response = e.challenge_object, e.response
        weights = [table.setdefault(w, len(table)) for w in obj.weight_list()]
        parts = [
            kinds[e.kind],
            int.__repr__(e.stage),
            array(map(string, obj.cells), inner),
            array(map(int.__repr__, weights), inner),
        ]
        if e.challenge is not None:
            parts += int.__repr__(e.target_level), array(map(int.__repr__, e.challenge), inner)
        written = response != sorted(response)  # a descent
        if written:
            parts.append(array(map(int.__repr__, response), inner))
        yield entry[e.kind, written].format(*parts)


def _object_positions(
    value, source: Sequence[str], target: Sequence[str], what: str
) -> list[int] | None:
    """A format-1 map as positions: the position in target of the image of
    each source cell, once ``parse_object`` and ``parse_ids`` have checked
    that value is a JSON object of cell ids (or raised their one-line
    ValueError, naming the place); None unless it maps exactly the source
    cells, each to a target cell, which the mass check then refuses."""
    parse_ids(parse_object(value, what).values(), what)
    if len(value) != len(source):
        return None
    at = {c: i for i, c in enumerate(target)}
    try:
        return [at[value[c]] for c in source]
    except KeyError:
        return None


def _den_slack(V: GroupDescriptor) -> int:
    """The factor a weight table with a symbol slot puts on its common
    denominator: four more powers of each prime whose powers V's groups
    admit without a bound (or up to its bound), so that the finer values
    challenges bring rarely force a new table (``PackedValues``)."""
    slack = 1
    for g in (V.rational, *(g for _, g in V.irr)):
        if g.default == 0:
            for p, e in g.exceptions:
                slack = math.lcm(slack, p ** int(min(e, _SLACK_POWER)))
    return slack


def _commutes(challenge: Sequence[int], response: Sequence[int], proj: Sequence[int]) -> bool:
    """challenge ∘ response equals proj, the chain projection from the
    response's stage onto the challenge's target level, all as positions."""
    return [challenge[r] for r in response] == proj


def _recovered(index: Mapping[int, int], n: int, weights: Iterable[int]) -> list[int] | None:
    """The non-decreasing response of a stage of n cells onto a challenge
    with these packed weights, or None if it has none.  ``index`` maps each
    cumulative sum of the stage's weights to the number of cells it covers
    (``_cumulative``).  Challenge cell j receives the stage cells from the
    count of its cumulative sum before it to the count of its own, so every
    count must be found, the counts must strictly increase and the last
    must be n.  Then each challenge cell receives at least one stage cell
    and exactly the mass of its weight: the walk is the response's mass
    check."""
    response: list[int] = []
    start = 0
    for j, s in enumerate(accumulate(weights)):
        end = index.get(s, 0)
        if end <= start:
            return None
        response += [j] * (end - start)
        start = end
    return response if start == n else None


def _match_by_weight(
    src: Sequence[str], dst: Sequence[str],
    src_weight: Mapping[str, ExactValue], dst_weight: Mapping[str, ExactValue],
) -> list[int] | None:
    """Pair the k-th cell of each weight in src with the k-th cell of that
    weight in dst; returns the position in dst of each src cell's partner,
    or None when the weight multisets differ.  Weights are hashed and
    tested for equality, never ordered: one bucket per weight is filled in
    dst order and emptied in src order (every caller lists cells in level
    order)."""
    if len(src) != len(dst):
        return None
    buckets: dict[ExactValue, list[int]] = {}
    for j in range(len(dst) - 1, -1, -1):
        buckets.setdefault(dst_weight[dst[j]], []).append(j)
    out: list[int] = []
    for x in src:
        at = buckets.get(src_weight[x])
        if not at:
            return None
        out.append(at.pop())
    return out
