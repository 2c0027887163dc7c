"""Stateful two-stage policy decision point.

Stage one checks per-release rules statelessly.  Stage two finds every
active rule whose predicate a mechanism satisfies, through a ``RuleIndex``,
and runs an RDP privacy filter for every (block, time-cell) a request
touches.  ``DecisionPoint`` is the one place that turns a rule set into an
index, and it validates the set there, before any state exists: one active
rule per id, as ids key the filter state, and only budgets a filter can
check.  Then each index makes its check plans, one per rule: what a check
would otherwise derive from the rule on every request (its unit and its
budget's ``accounting.budget_terms``).
The free functions of each stage take that index.  The rule poset is a
compile-time structure for pruning and DOT export; it plays no part here.

A check walks only the rules that match, composes each distinct (unit,
matched mechanisms) cost once, and gives each store one verdict,
``accounting.rows_within``, over the composed rows of the classes its
selection meets.  Commits are all-or-nothing: a rejected request leaves the
filter state untouched.  Accepting decisions are shared, immutable values.

Each (rule, time cell) filter keeps its RDP rows in a ``BlockRows`` store,
one row per class of blocks charged alike: releases charge whole block
ranges, so a check composes and tests one row per class its selection
meets, not one per block.  ``FilterState.to_json``/``from_json`` are the
state file's text form, the one the CLI reads and writes; they encode and
parse each class row once, and check a cell's name against the time window
by its step, without listing the window.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .accounting import budget_terms, check_enforceable, rows_within
from .core import (
    ATTR_KEY,
    DEFAULT_ALPHA_ORDERS,
    And,
    AttrIntersects,
    HasLabel,
    LabelSet,
    Mechanism,
    Predicate,
    ReleaseRequest,
    Rule,
    TruePredicate,
    check_unique_ids,
    eval_predicate,
    read_count,
)
from .errors import MissingCost, UnknownTimeStep, ValidationError, reading

# width of an accumulator row: one entry per alpha order
N_ALPHA = len(DEFAULT_ALPHA_ORDERS)

CELL_STATIC = "static"
CELL_HIST = "hist"
CELL_FUTURE = "future"


def step_cell(step: int) -> str:
    return f"t{step}"


def _cell_step(cell: str) -> int | None:
    if cell.startswith("t") and cell[1:].isdigit():
        return int(cell[1:])
    return None


# the widest granular window: a request without a time step, on a rule of
# the axis' unit, makes a store for each of window + 2 cells, and each store
# indexes its domain at 2 bytes a block, so 366 steps of the 204,800-block
# paper domain take about 147 MB; the scenarios use 7
MAX_WINDOW = 366


@dataclass(frozen=True)
class TimeAxis:
    """Time dimension for one time-based privacy unit.

    The most recent ``granular_window`` steps are tracked individually; older
    steps collapse into a single historical interval, and steps beyond the
    current frontier are a single future interval.  ``horizon`` is the
    initial frontier step.
    """

    unit: str
    granular_window: int
    horizon: int = 0

    def __post_init__(self):
        if not 0 <= self.granular_window <= MAX_WINDOW:
            raise ValidationError(f"granular window must lie in [0, {MAX_WINDOW}], got {self.granular_window}")
        if self.horizon < 0:
            raise ValidationError("horizon must be >= 0")


@dataclass(frozen=True)
class BlockDomain:
    """Partitioning-attribute block space shared by all rules."""

    partitioning_attributes: tuple[str, ...] = ()
    domain_size: int = 1
    time_axis: TimeAxis | None = None

    def __post_init__(self):
        object.__setattr__(self, "partitioning_attributes", tuple(self.partitioning_attributes))
        if self.domain_size < 1:
            raise ValidationError("domain size must be >= 1")

    @property
    def time_unit(self) -> str | None:
        """The unit of the time axis, if there is one."""
        return self.time_axis.unit if self.time_axis is not None else None

    def to_dict(self) -> dict:
        d = {
            "partitioning_attributes": list(self.partitioning_attributes),
            "domain_size": self.domain_size,
        }
        if self.time_axis is not None:
            d["time_axis"] = {
                "unit": self.time_axis.unit,
                "granular_window": self.time_axis.granular_window,
                "horizon": self.time_axis.horizon,
            }
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "BlockDomain":
        ta = d.get("time_axis")
        return cls(
            tuple(d.get("partitioning_attributes", ())),
            read_count(d.get("domain_size", 1), "domain_size"),
            TimeAxis(
                ta["unit"],
                read_count(ta["granular_window"], "granular_window"),
                read_count(ta.get("horizon", 0), "horizon"),
            ) if ta else None,
        )


# the largest domain a store indexes: it holds up to one class per block
# beside the zero row, and that count must fit the int32 an index widens to
_MAX_DOMAIN = 2**31 - 2

# the slots an int16 block index holds; past them it widens to int32
_SLOTS16 = 2**15

# a selection that crosses at most this many runs of one class is grouped in
# a Python loop; past it, sorting the runs costs about what the loop does,
# and far less at the hundreds of runs of a wide selection
_FEW_RUNS = 8


class BlockRows:
    """RDP accumulator rows over a block domain, one per class of blocks that
    were charged alike: the store of one (rule, time cell) filter, or of one
    simulator scope that no active rule enforces.

    ``index`` maps every block of the domain to the slot of its class in
    ``rows``, and ``size`` counts the blocks of each class.  The index is
    int16, 2 bytes a block, until a class takes a slot past 32,767; then
    ``_reserve`` widens it to int32 once, for good.  An array of slots read
    from it keeps its width, and numpy wraps a wider value written into it,
    so such an array is widened to intp before new slots are written among
    them.  Slot 0 is a permanent zero row, the class of every uncharged
    block, so ``rows[index[blocks]]`` reads what a dense
    ``(domain_size, N_ALPHA)`` array would.  A charge composes one row per
    class its selection meets: a class it covers wholly keeps its slot, and
    the part it covers of any other class splits off into a new one.  So no
    class is ever empty, and a store holds at most one row per charged block
    plus the zero row.  Capacity doubles as classes are made, never past
    that bound, and the rows past ``held`` stay zero.
    """

    __slots__ = ("index", "rows", "size", "held")

    def __init__(self, domain_size: int):
        too_large = f"a domain of {domain_size} blocks is too large to index"
        if domain_size > _MAX_DOMAIN:
            raise ValidationError(too_large)
        try:
            self.index = np.zeros(domain_size, dtype=np.int16)
        except MemoryError:
            raise ValidationError(too_large) from None
        self.rows = np.zeros((min(16, domain_size + 1), N_ALPHA))
        self.size = np.zeros(len(self.rows), dtype=np.intp)
        self.size[0] = domain_size
        self.held = 1

    @property
    def shape(self) -> tuple[int, int]:
        """Rows held, the zero row included, by one entry per alpha order."""
        return (self.held, N_ALPHA)

    @property
    def nbytes(self) -> int:
        """Bytes allocated: the block index plus the class capacity."""
        return self.index.nbytes + self.rows.nbytes + self.size.nbytes

    def gather(self, blocks: np.ndarray | slice) -> tuple[tuple, np.ndarray]:
        """The classes that the distinct ``blocks`` fall in, and a copy of
        their rows, one per class, for ``put`` to take back.  ``blocks`` is
        a sorted array, or a slice for a range of blocks: the index is then
        read as a view and written through slices.

        Blocks charged alike lie in runs of one slot along a sorted
        selection, so the classes are grouped from the runs: in a loop when
        there are few, as for narrow selections, and by sorting them when
        there are many.  The grouping is ``(slots, counts, runs)``: the slot
        of each class, its number of blocks, and the runs: ``None`` for one,
        ``(start, end, class)`` for each of a few, or the slot and the
        length of each of many.
        """
        idx = self.index[blocks]
        n = len(idx)
        if not n:
            return ([], [], None), self.rows[:0].copy()
        raw = idx.tobytes()
        if raw == raw[: idx.itemsize] * n:  # one run: a byte compare, cheaper than any numpy test
            slot = idx.item(0)
            return ([slot], [n], None), self.rows[slot : slot + 1].copy()
        last = (idx[1:] != idx[:-1]).nonzero()[0]  # the last block of each run but the final one
        if last.size < _FEW_RUNS:
            position: dict[int, int] = {}
            slots: list[int] = []
            counts: list[int] = []
            runs = []
            start = 0
            for end in [*(last + 1).tolist(), n]:
                slot = idx.item(start)
                k = position.get(slot)
                if k is None:
                    k = position[slot] = len(slots)
                    slots.append(slot)
                    counts.append(end - start)
                else:
                    counts[k] += end - start
                runs.append((start, end, k))
                start = end
            return (slots, counts, runs), self.rows.take(slots, axis=0)
        # np.unique over the runs, spelled out, as its overhead is a few times this
        starts = np.empty(last.size + 1, dtype=np.intp)
        starts[0] = 0
        np.add(last, 1, out=starts[1:])
        lengths = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1] = n - starts[-1]
        # in intp: put writes new slots among these, past the index's width,
        # and argsort and indexing take intp slots faster than int16 ones
        run_slots = idx[starts].astype(np.intp)
        order = run_slots.argsort()
        ordered = run_slots[order]
        first = np.empty(len(starts), dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        at = first.nonzero()[0]
        slots = ordered[at]
        return (slots, np.add.reduceat(lengths[order], at), (run_slots, lengths)), self.rows.take(slots, axis=0)

    def put(self, blocks: np.ndarray | slice, rows: np.ndarray, classes: tuple | None = None) -> None:
        """Set the rows of the distinct ``blocks``: with ``classes`` from
        ``gather``, ``rows`` holds one row per class; without, one per block,
        and blocks given rows with equal bytes make one class.

        A class the blocks cover wholly keeps its slot; the covered part of
        any other moves to a new class.
        """
        if classes is None:
            # keyed by raw bytes, so -0.0 and 0.0 stay apart
            keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * N_ALPHA))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            self._regroup(blocks, inverse, rows[first])
            return
        slots, counts, runs = classes
        if runs is None:  # one class, or none
            if not slots:
                return
            slot, count = slots[0], counts[0]
            if slot and count == self.size.item(slot):
                self.rows[slot : slot + 1] = rows
                return
            fresh = self._reserve(1)
            self.size[slot] -= count
            self.size[fresh] = count
            self.rows[fresh : fresh + 1] = rows
            self.index[blocks] = fresh
        elif isinstance(runs, list):
            size = self.size
            split = [not slot or count != size.item(slot) for slot, count in zip(slots, counts)]
            moved = split.count(True)  # an int: summing numpy bools gives np.int64
            if not moved:
                self.rows[slots] = rows
                return
            fresh = self._reserve(moved)
            size = self.size
            target = []
            for slot, count, away in zip(slots, counts, split):
                if away:
                    size[slot] -= count
                    size[fresh] = count
                    slot = fresh
                    fresh += 1
                target.append(slot)
            self.rows[target] = rows
            index = self.index
            if isinstance(blocks, slice):
                at = blocks.start
                for start, end, k in runs:
                    if split[k]:
                        index[at + start : at + end] = target[k]
            else:
                for start, end, k in runs:
                    if split[k]:
                        index[blocks[start:end]] = target[k]
        else:
            split = (counts != self.size[slots]) | (slots == 0)
            moved = np.count_nonzero(split)
            if not moved:
                self.rows[slots] = rows
                return
            fresh = self._reserve(moved)
            target = slots.copy()
            target[split] = np.arange(fresh, self.held)
            self.size[slots[split]] -= counts[split]
            self.size[fresh : self.held] = counts[split]
            self.rows[target] = rows
            run_slots, lengths = runs
            self.index[blocks] = np.repeat(target[np.searchsorted(slots, run_slots)], lengths)

    def add(self, blocks: np.ndarray | slice, curve) -> None:
        """Add ``curve`` to the row of each of the distinct ``blocks``."""
        classes, rows = self.gather(blocks)
        rows += curve
        self.put(blocks, rows, classes)

    def held_rows(self) -> np.ndarray:
        """A view of every class row held, the zero row included."""
        return self.rows[: self.held]

    def _reserve(self, count: int) -> int:
        """Make room for ``count`` new classes; the slot of the first.  May
        replace ``self.rows`` and widen ``self.index``, so callers read them
        only after this returns."""
        start = self.held
        end = start + count
        if end > _SLOTS16 and self.index.itemsize == 2:
            self.index = self.index.astype(np.int32)
        if end > len(self.rows):
            capacity = min(max(2 * len(self.rows), end), self.index.size + 1)
            rows = np.zeros((capacity, N_ALPHA))
            rows[:start] = self.rows[:start]
            size = np.zeros(capacity, dtype=np.intp)
            size[:start] = self.size[:start]
            self.rows, self.size = rows, size
        self.held = end
        return start

    def _regroup(self, blocks: np.ndarray, keys: np.ndarray, rows: np.ndarray) -> None:
        """Move the distinct ``blocks`` into one new class per row of
        ``rows``: block ``blocks[i]`` gets row ``keys[i]``, and every row is
        some block's.  The slots of classes left empty are reused, and any
        left over are dropped by renumbering the classes."""
        held = self.held
        size = self.size
        size[:held] -= np.bincount(self.index[blocks], minlength=held)
        empty = np.flatnonzero(size[1:held] == 0) + 1
        reused = empty[: len(rows)]
        slots = np.concatenate((reused, np.arange(self._reserve(len(rows) - len(reused)), self.held)))
        self.rows[slots] = rows
        self.size[slots] = np.bincount(keys, minlength=len(rows))
        self.index[blocks] = slots[keys]
        if len(empty) > len(reused):
            live = np.ones(self.held, dtype=bool)
            live[empty[len(reused):]] = False
            self.index = (np.cumsum(live, dtype=self.index.dtype) - 1)[self.index]
            kept = np.count_nonzero(live)
            self.rows[:kept] = self.rows[: self.held][live]
            self.rows[kept : self.held] = 0.0
            self.size[:kept] = self.size[: self.held][live]
            self.size[kept : self.held] = 0
            self.held = kept

    def maximum(self, other: "BlockRows") -> None:
        """Pointwise maximum with ``other``, over the union of charged blocks;
        a block that ``other`` never charged keeps its row, as rows are
        non-negative.  Blocks alike in both stores stay alike."""
        blocks = np.flatnonzero(other.index)
        if not blocks.size:
            return
        # in intp: the pair key of two slots overflows the index's width
        pairs, keys = np.unique(
            self.index[blocks].astype(np.intp) * other.held + other.index[blocks], return_inverse=True
        )
        mine, theirs = np.divmod(pairs, other.held)
        self._regroup(blocks, keys, np.maximum(self.rows[mine], other.rows[theirs]))

    def copy(self) -> "BlockRows":
        dup = BlockRows.__new__(BlockRows)
        dup.index = self.index.copy()
        dup.rows = self.rows[: self.held].copy()
        dup.size = self.size[: self.held].copy()
        dup.held = self.held
        return dup

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks holding a nonzero row, ascending, and the slot of each."""
        blocks = np.flatnonzero(self.index)
        slots = self.index[blocks]
        keep = self.held_rows().any(axis=1)[slots]
        return blocks[keep], slots[keep]


class FilterState:
    """Cumulative RDP accumulators per (rule, block, time cell): one
    ``BlockRows`` store per (rule, cell) that holds a row for each class of
    blocks charged alike in that cell."""

    def __init__(self, domain: BlockDomain):
        self.domain = domain
        self.now = domain.time_axis.horizon if domain.time_axis else 0
        self._cells: dict[str, dict[str, BlockRows]] = {}

    # -- cell addressing ----------------------------------------------------

    def granular_steps(self) -> range:
        w = self.domain.time_axis.granular_window if self.domain.time_axis else 0
        return range(max(0, self.now - w + 1), self.now + 1)

    def cells_for(self, time_based: bool, time_step: int | None) -> list[str]:
        """Cells a request touches for one rule.

        Requests without a time step hit every cell of a time-based rule;
        static rules always use the single static cell.
        """
        if not time_based:
            return [CELL_STATIC]
        if time_step is None:
            return [CELL_HIST, *(step_cell(s) for s in self.granular_steps()), CELL_FUTURE]
        if time_step > self.now:
            raise UnknownTimeStep(f"time step {time_step} beyond current horizon {self.now}")
        if time_step in self.granular_steps():
            return [step_cell(time_step)]
        return [CELL_HIST]

    # -- accumulator access ---------------------------------------------------

    def array(self, rule_id: str, cell: str) -> BlockRows | None:
        return self._cells.get(rule_id, {}).get(cell)

    def ensure(self, rule_id: str, cell: str) -> BlockRows:
        per_rule = self._cells.setdefault(rule_id, {})
        store = per_rule.get(cell)
        if store is None:
            store = per_rule[cell] = BlockRows(self.domain.domain_size)
        return store

    def collapse_time(self, new_now: int) -> None:
        """Advance the frontier, folding steps that leave the granular window
        into the historical interval by pointwise maximum (parallel
        composition across disjoint steps)."""
        if self.domain.time_axis is None:
            raise ValidationError("the state has no time axis to advance")
        if new_now < self.now:
            raise ValidationError(f"time cannot move backwards from {self.now} to {new_now}")
        w = self.domain.time_axis.granular_window
        cutoff = new_now - w
        for per_rule in self._cells.values():
            future = per_rule.get(CELL_FUTURE)
            if future is not None:
                # a release over all time also covers every step that opens
                # now; steps already past the window reach hist through `cutoff`
                for step in range(max(self.now + 1, cutoff), new_now + 1):
                    per_rule[step_cell(step)] = future.copy()
            for cell in [c for c in per_rule if (s := _cell_step(c)) is not None and s <= cutoff]:
                hist = per_rule.get(CELL_HIST)
                if hist is None:
                    hist = per_rule[CELL_HIST] = BlockRows(self.domain.domain_size)
                hist.maximum(per_rule.pop(cell))
        self.now = new_now

    # -- serialization --------------------------------------------------------

    def _held(self) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Per rule and cell, the blocks holding a nonzero row, the slot of
        each and the store's class rows; rules and cells without such a
        block are left out."""
        held: dict[str, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        for rid, per_rule in self._cells.items():
            for cell, store in per_rule.items():
                blocks, slots = store.nonzero()
                if blocks.size:
                    held.setdefault(rid, {})[cell] = (blocks, slots, store.held_rows())
        return held

    def to_dict(self) -> dict:
        cells = {
            rid: {
                cell: {"blocks": blocks.tolist(), "curves": rows[slots].tolist()}
                for cell, (blocks, slots, rows) in per_rule.items()
            }
            for rid, per_rule in self._held().items()
        }
        return {"now": self.now, "domain": self.domain.to_dict(), "cells": cells}

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, encoding each class row of a cell
        once and writing each run of blocks in one class as one repeat of its
        row's text: charged blocks share few classes, in long runs.  The text
        is one list of pieces, joined once."""
        pieces = [f'{{"now": {json.dumps(self.now)}, "domain": {json.dumps(self.domain.to_dict())}, "cells": {{']
        rule_sep = ""
        for rid, per_rule in self._held().items():
            pieces.append(f"{rule_sep}{json.dumps(rid)}: {{")
            rule_sep, cell_sep = ", ", ""
            for cell, (blocks, slots, rows) in per_rule.items():
                # a row holds 14 numbers, so "], [" falls only between rows
                bodies = json.dumps(rows.tolist())[2:-2].split("], [")
                pieces.append(f'{cell_sep}{json.dumps(cell)}: {{"blocks": {json.dumps(blocks.tolist())}, "curves": [[')
                cell_sep = ", "
                # the runs of one slot, the last block held back to close the array
                last = len(slots) - 1
                starts = [0, *(np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()]
                for start, end in zip(starts, [*starts[1:], last]):
                    pieces.append((bodies[slots.item(start)] + "], [") * (end - start))
                pieces.append(f"{bodies[slots.item(last)]}]]}}")
            pieces.append("}")
        pieces.append("}}")
        return "".join(pieces)

    @classmethod
    def from_json(cls, text: str) -> "FilterState":
        """The state that ``from_dict(json.loads(text))`` reads, parsing each
        distinct row of the text that ``to_json`` writes once."""
        with reading("state"):
            doc = _canonical_state_doc(text)
            if doc is None:
                doc = json.loads(text)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, d: Mapping) -> "FilterState":
        with reading("state"):
            unknown = set(d) - {"now", "domain", "cells"}
            if unknown:
                raise ValidationError(f"unknown state keys: {sorted(unknown)}")
            state = cls(BlockDomain.from_dict(d["domain"]))
            horizon = state.now  # a fresh state starts at the horizon, or at 0
            state.now = read_count(d.get("now", horizon), "now")
            if state.now < horizon:
                raise ValidationError(f"state time step {state.now} is behind the horizon {horizon}")
            steps = state.granular_steps()  # empty without a time axis
            intervals = (CELL_HIST, CELL_FUTURE) if state.domain.time_axis is not None else ()
            n = state.domain.domain_size
            for rid, per_rule in d.get("cells", {}).items():
                for cell, payload in per_rule.items():
                    # a step is read from its name and checked against the
                    # window by arithmetic, so a wide window costs nothing
                    # here; the name must be the one the step is written as
                    step = _cell_step(cell)
                    if not (
                        cell == CELL_STATIC
                        or cell in intervals
                        or step is not None and step in steps and step_cell(step) == cell
                    ):
                        raise ValidationError(f"state cell {rid}/{cell}: not a cell of this state")
                    blocks = np.asarray(payload["blocks"])
                    curves = payload["curves"]
                    if isinstance(curves, _ClassRows):
                        curves, of_block = curves
                    else:
                        curves = np.asarray(curves, dtype=float)
                        if curves.shape == (0,):
                            curves = curves.reshape(0, N_ALPHA)  # `"curves": []` lists no rows
                        of_block = None
                    if (
                        blocks.ndim != 1
                        # numpy reads a bool among ints as 0 or 1
                        or bool in map(type, payload["blocks"])
                        or (blocks.size and (
                            blocks.dtype.kind not in "iu" or blocks.min() < 0 or blocks.max() >= n
                            or (np.diff(np.sort(blocks)) == 0).any()
                        ))
                    ):
                        raise ValidationError(
                            f"state cell {rid}/{cell}: blocks must be integers in [0, {n}), each listed once"
                        )
                    if (
                        curves.ndim != 2 or curves.shape[1] != N_ALPHA
                        or len(curves if of_block is None else of_block) != blocks.size
                        or not ((curves >= 0) & (curves < np.inf)).all()
                    ):
                        raise ValidationError(
                            f"state cell {rid}/{cell}: curves must be one row of {N_ALPHA} "
                            f"finite, non-negative values per block"
                        )
                    if not blocks.size:  # a cell that holds no charge gets no store
                        continue
                    if of_block is None:
                        state.ensure(rid, cell).put(blocks, curves)
                    else:
                        state.ensure(rid, cell)._regroup(blocks, of_block, curves)
        return state


class _ClassRows(tuple):
    """A cell's distinct rows and, per block, the position of its row: the
    curves of a cell as ``from_json`` parses them."""


# the text that opens a cell's curves, and a distinct row's text between its brackets
_CUT = '"curves": ['
_BODY = re.compile(r"[-+.0-9eE, ]*")


def _cut_curves(text: str, at: int) -> tuple[_ClassRows | None, int] | None:
    """Read the "curves" array whose text opens just before ``text[at]``:
    its distinct rows and the row of each block (``None`` for ``[]``), and
    the index of its closing bracket.  ``None`` unless the array is ``[]`` or
    ``"[[" + "], [".join(row bodies) + "]]"`` with bodies of numbers.

    The array is walked one run of equal bodies at a time.  A body is the
    text up to the next ``]``, so it holds no bracket, and each distinct one
    is checked once.  Its repeats are confirmed by comparing the text with
    the body and its separator, repeated twice as often at each step while
    they hold, so no substring is made per block; a run that outlasts the
    doubling goes on as a new run of the same row.
    """
    if text.startswith("]", at):
        return None, at
    if not text.startswith("[", at):
        return None
    at += 1
    ids: dict[str, int] = {}
    classes: list[int] = []
    lengths: list[int] = []
    startswith = text.startswith
    while True:
        end = text.find("]", at)
        if end < 0:
            return None
        body = text[at:end]
        k = ids.get(body)
        if k is None:
            if not _BODY.fullmatch(body):
                return None
            k = ids[body] = len(ids)
        chunk = body + "], ["  # `step` repeats of the body and its separator
        count, step = 0, 1
        while startswith(chunk, at):
            at += len(chunk)
            count += step
            chunk += chunk
            step += step
        classes.append(k)
        if startswith(body + "]]", at):  # the run goes on to the array's end
            lengths.append(count + 1)
            break
        if not count:  # a body followed by neither "], [" nor "]]"
            return None
        lengths.append(count)
    try:
        rows = json.loads(f"[[{'], ['.join(ids)}]]")
        # one row per body: no body holds a bracket, so each is one row of the array
        if len(rows) != len(ids):
            return None
        rows = np.array(rows, dtype=float)
    except (ValueError, OverflowError):  # a body json.loads refuses, or an int past float
        return None
    of_block = np.repeat(np.array(classes, dtype=np.intp), lengths)
    return _ClassRows((rows, of_block)), at + len(body) + 1


def _canonical_state_doc(text: str) -> dict | None:
    """``json.loads(text)``, with each cell's curves as its distinct rows and
    the row of each block (``_ClassRows``), when ``text`` is ``json.dumps``
    of a state document; ``None`` for any other text.

    Each "curves" array is cut out of the text down to ``[]``, and the rest,
    the skeleton, parsed.  The result is taken only when re-encoding the
    skeleton gives it back exactly, and there are as many cuts as cells,
    each with its curves cut out.  As every ``"curves": [`` of the text is
    cut, the cuts are then the cells' curves, in document order.
    """
    pieces: list[str] = []
    cuts: list[_ClassRows | None] = []
    kept = 0  # the start of the skeleton's next piece
    while (cut := text.find(_CUT, kept)) >= 0:
        at = cut + len(_CUT)
        pieces.append(text[kept:at])
        read = _cut_curves(text, at)
        if read is None:
            return None
        curves, kept = read
        cuts.append(curves)
    pieces.append(text[kept:])
    skeleton = "".join(pieces)
    try:
        doc = json.loads(skeleton)
        payloads = [payload for per_rule in doc["cells"].values() for payload in per_rule.values()]
        if (
            json.dumps(doc) != skeleton
            or len(payloads) != len(cuts)
            or any(payload["curves"] != [] for payload in payloads)
        ):
            return None
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    for payload, curves in zip(payloads, cuts):
        if curves is not None:
            payload["curves"] = curves
    return doc


@dataclass(frozen=True)
class Violation:
    rule_id: str
    stage: str
    cell: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"rule": self.rule_id, "stage": self.stage, "cell": self.cell, "detail": self.detail}


@dataclass(frozen=True)
class Decision:
    accepted: bool
    stage: str
    violations: tuple[Violation, ...] = ()

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "stage": self.stage,
            "violations": [v.to_dict() for v in self.violations],
        }


_NO_MECHANISMS: frozenset[int] = frozenset()
# the match of every rule that the one mechanism of a request satisfies
_FIRST_MECHANISM: frozenset[int] = frozenset({0})

# accepting decisions are immutable, so every request shares them
_PASSED = Decision(True, "per_release")
_ACCEPTED = Decision(True, "accepted")


def _atom(p: Predicate) -> Predicate:
    """``p``, or the one part of an ``And`` that is not ``true`` when that
    part is an atom the index buckets, or ``true`` when every part is."""
    if isinstance(p, And):
        parts = [q for q in p.parts if not isinstance(q, TruePredicate)]
        if not parts:
            return TruePredicate()
        if len(parts) == 1 and isinstance(parts[0], (HasLabel, AttrIntersects)):
            return parts[0]
    return p


class _CheckPlan:
    """What checking a rule derives from the rule alone, made once: its id
    and unit, and its budget's terms (``accounting.budget_terms``)."""

    __slots__ = ("rule_id", "unit", "offsets", "bound")

    def __init__(self, rule: Rule):
        self.rule_id = rule.rule_id
        self.unit = rule.unit
        self.offsets, self.bound = budget_terms(rule.budget)


class RuleIndex:
    """Rules indexed by the labels their predicates name, so that a label set
    finds the rules it satisfies without evaluating every predicate: the
    bucket indexes of publish/subscribe matching, one atom per predicate.

    ``TruePredicate`` matches always; ``HasLabel(k, v)`` sits in the bucket of
    ``(k, v)``, and ``AttrIntersects(A)`` in the bucket of ``("attr", a)`` for
    each ``a`` in ``A``.  An ``And`` whose parts are all ``true`` but at most
    one of these atoms, as extensions conjoin them, is indexed as that atom.
    Any other predicate (``And``, ``Or``, ``Not``) is evaluated with
    ``eval_predicate`` on each label set.  The items need only a
    ``predicate`` and a ``unit``, so own-store simulator scopes use it too;
    only an index of rules is checked, through its ``plans``.
    """

    __slots__ = ("rules", "tracked_units", "_always", "_buckets", "_fallback", "_plans")

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        # every mechanism must carry a cost for each of these units
        self.tracked_units = frozenset(r.unit for r in self.rules)
        self._always: list[int] = []
        self._buckets: dict[str, dict[str, list[int]]] = {}
        self._fallback: list[int] = []
        self._plans: tuple[_CheckPlan, ...] | None = None
        for i, rule in enumerate(self.rules):
            p = _atom(rule.predicate)
            if isinstance(p, TruePredicate):
                self._always.append(i)
            elif isinstance(p, HasLabel):
                self._buckets.setdefault(p.key, {}).setdefault(p.value, []).append(i)
            elif isinstance(p, AttrIntersects):
                by_attr = self._buckets.setdefault(ATTR_KEY, {})
                for a in p.attrs:
                    by_attr.setdefault(a, []).append(i)
            else:
                self._fallback.append(i)

    def matching(self, labels: LabelSet) -> set[int]:
        """Indices of the rules whose predicate ``labels`` satisfies."""
        hits = set(self._always)
        for key, by_value in self._buckets.items():
            for v in labels.values(key):
                hits.update(by_value.get(v, ()))
        for i in self._fallback:
            if eval_predicate(self.rules[i].predicate, labels):
                hits.add(i)
        return hits

    def match(self, mechanisms: Sequence[Mechanism]) -> list[frozenset[int]]:
        """Indices of the mechanisms matching each rule, in rule order."""
        per_rule = [_NO_MECHANISMS] * len(self.rules)
        if len(mechanisms) == 1:
            for i in self.matching(mechanisms[0].labels):
                per_rule[i] = _FIRST_MECHANISM
            return per_rule
        hits: dict[int, list[int]] = {}
        for m, mech in enumerate(mechanisms):
            for i in self.matching(mech.labels):
                hits.setdefault(i, []).append(m)
        for i, ms in hits.items():
            per_rule[i] = frozenset(ms)
        return per_rule

    def plans(self) -> tuple[_CheckPlan, ...]:
        """One ``_CheckPlan`` per rule, in rule order: made on the first
        call, after refusing any budget that no filter can enforce."""
        if self._plans is None:
            check_enforceable(self.rules)
            self._plans = tuple(_CheckPlan(rule) for rule in self.rules)
        return self._plans


def check_per_release(request: ReleaseRequest, index: RuleIndex) -> Decision:
    """Stage one: every mechanism's own cost must fit every matching
    per-release rule.  Stateless."""
    if not index.rules:
        return _PASSED
    plans = index.plans()
    violations = []
    for mech in request.mechanisms:
        for i in sorted(index.matching(mech.labels)):
            plan = plans[i]
            cost = mech.cost_by_unit.get(plan.unit)
            if cost is None:
                raise MissingCost(
                    f"request {request.request_id!r}: no cost for unit {plan.unit!r} "
                    f"required by per-release rule {plan.rule_id!r}"
                )
            if not rows_within(np.array([cost.curve]), plan.offsets, plan.bound):
                violations.append(Violation(plan.rule_id, "per_release"))
    if violations:
        return Decision(False, "per_release", tuple(violations))
    return _PASSED


def match_rules(index: RuleIndex, mechanisms: Sequence[Mechanism]) -> list[frozenset[int]]:
    """Mechanism indices matching each rule of ``index``, in rule order.

    Every rule is matched on its own predicate; order keys are not trusted
    here, as an admin annotation may place a rule below another whose
    predicate it does not imply.
    """
    return index.match(mechanisms)


def store_blocks(selection: np.ndarray) -> np.ndarray | slice:
    """The sorted distinct ``selection`` as a store takes it: a slice when
    it is one range of blocks, so the store reads and writes its index
    through slices; else the array itself."""
    if selection.size and selection.item(-1) - selection.item(0) + 1 == selection.size:
        return slice(selection.item(0), selection.item(-1) + 1)
    return selection


def matched_cost(mechanisms: Sequence[Mechanism], matched: frozenset[int], unit: str) -> np.ndarray | None:
    """The summed cost in ``unit`` of the ``matched`` mechanisms, added in
    ascending mechanism order; a mechanism without a cost in ``unit`` adds
    nothing, and None stands for no cost at all."""
    total = None
    for m in sorted(matched):
        cost = mechanisms[m].cost_by_unit.get(unit)
        if cost is not None:
            total = np.array(cost.curve) if total is None else total + cost.curve
    return total


def check_and_commit(
    state: FilterState,
    request: ReleaseRequest,
    index: RuleIndex,
    budget_scale: float = 1.0,
) -> Decision:
    """Stage two: cumulative check of every matching rule of ``index`` on
    every touched (block, time-cell), then an atomic commit on acceptance.

    Each matching rule's cost is composed once per distinct unit and set of
    matched mechanisms, in ascending mechanism order, and each (rule, cell)
    store's class rows are gathered and composed once: the check reads the
    composed rows, one ``rows_within`` verdict per store, and an accepted
    commit writes them back."""
    # an unlock fraction may only shrink budgets; NaN would void them
    if not 0.0 <= budget_scale <= 1.0:
        raise ValidationError(f"budget scale must lie in [0, 1], got {budget_scale!r}")
    domain = state.domain
    sel = request.pa_selection
    if sel.size and sel[-1] >= domain.domain_size:
        raise ValidationError(
            f"request {request.request_id!r}: block {int(sel[-1])} outside the domain "
            f"of {domain.domain_size} blocks"
        )

    mechanisms = request.mechanisms
    for mech in mechanisms:
        missing = index.tracked_units.difference(mech.cost_by_unit)
        if missing:
            raise MissingCost(
                f"request {request.request_id!r}: mechanism lacks costs for tracked units {sorted(missing)}"
            )

    plans = index.plans()
    time_unit = domain.time_unit
    matches = match_rules(index, mechanisms)
    blocks = store_blocks(sel)
    cells_of = state._cells
    costs: dict[tuple[str, frozenset[int]], np.ndarray] = {}
    pending: list[tuple[str, str, BlockRows, tuple, np.ndarray]] = []
    violations: list[Violation] = []
    for plan, mech_idx in compress(zip(plans, matches), matches):
        # cells_for runs on an empty selection too: it refuses an unknown step
        cells = state.cells_for(plan.unit == time_unit, request.time_step)
        if not sel.size:
            continue
        cost = costs.get((plan.unit, mech_idx))
        if cost is None:
            cost = costs[plan.unit, mech_idx] = matched_cost(mechanisms, mech_idx, plan.unit)
        bound = plan.bound * budget_scale
        rule_id = plan.rule_id
        per_rule = cells_of.get(rule_id, {})
        for cell in cells:
            store = per_rule.get(cell)
            if store is None:
                # a store is made here, not at commit, so that a domain too
                # large to index fails before the state changes
                store = BlockRows(domain.domain_size)
            classes, rows = store.gather(blocks)
            rows += cost
            if not rows_within(rows, plan.offsets, bound):
                violations.append(Violation(rule_id, "cumulative", cell))
            pending.append((rule_id, cell, store, classes, rows))

    if violations:
        return Decision(False, "cumulative", tuple(violations))
    for rule_id, cell, store, classes, rows in pending:
        cells_of.setdefault(rule_id, {})[cell] = store
        store.put(blocks, rows, classes)
    return _ACCEPTED


def headroom(state: FilterState, index: RuleIndex, budget_scale: float = 1.0) -> dict[str, dict]:
    """Per-rule consumed-vs-budget summary over all blocks and cells, read
    against each rule's check plan, its bound scaled as the check scales it."""
    if not budget_scale >= 0:
        raise ValidationError(f"budget scale must be non-negative, got {budget_scale!r}")
    out: dict[str, dict] = {}
    for plan in index.plans():
        bound = plan.bound * budget_scale
        # the zero row that stands for uncharged blocks moves no max or min:
        # epsilon and utilization only grow with the accumulator
        held = [store.held_rows() for store in state._cells.get(plan.rule_id, {}).values()]
        if plan.offsets is not None:
            consumed = max([0.0, *(float((a + plan.offsets).min(axis=1).max()) for a in held if a.any())])
            out[plan.rule_id] = {
                "budget_epsilon": bound,
                "consumed_epsilon": consumed,
                "headroom_epsilon": bound - consumed,
            }
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                fracs = [np.where(bound > 0, a / bound, np.where(a > 0, np.inf, 0.0)) for a in held]
            out[plan.rule_id] = {"utilization": max([0.0, *(float(f.min(axis=1).max()) for f in fracs)])}
    return out


class DecisionPoint:
    """Serialized single-writer wrapper around the two enforcement stages."""

    def __init__(
        self,
        rules: Sequence[Rule],
        per_release_rules: Sequence[Rule] = (),
        domain: BlockDomain | None = None,
    ):
        """``rules`` are the active rules: a sequence, or the pruned poset
        that holds them.  The rule set is checked before any state exists:
        active rule ids must be unique, and every budget enforceable."""
        domain = domain or BlockDomain()
        self.index = RuleIndex(getattr(rules, "rules", rules))
        self.per_release = RuleIndex(per_release_rules)
        check_unique_ids(self.index.rules)
        # making the plans refuses a budget that no filter can enforce
        self.index.plans()
        self.per_release.plans()
        self.state = FilterState(domain)

    @property
    def poset(self) -> RuleIndex:
        """The active rules' index, under the name that callers of the
        poset-based decision point read; it keeps the poset's ``rules``."""
        return self.index

    def process(self, request: ReleaseRequest, budget_scale: float = 1.0) -> Decision:
        first = check_per_release(request, self.per_release)
        if not first.accepted:
            return first
        return check_and_commit(self.state, request, self.index, budget_scale)

    def ledger(self, predicate: Predicate, unit: str) -> BlockRows | None:
        """The static store of an active rule with ``predicate`` (up to
        ``_atom``) and ``unit``, off the time axis: the rule's only store."""
        if unit != self.state.domain.time_unit:
            for rule in self.index.rules:
                if rule.unit == unit and _atom(rule.predicate) == _atom(predicate):
                    return self.state.ensure(rule.rule_id, CELL_STATIC)
        return None

    def headroom(self, budget_scale: float = 1.0) -> dict[str, dict]:
        return headroom(self.state, self.index, budget_scale)
