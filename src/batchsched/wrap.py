"""Batch wrapping: pour a sequence of setup-prefixed batches into time gaps.

A wrap template is a list of free time gaps, at most one per machine, with
strictly increasing machine ids.  A wrap sequence is a list of batches, each
a class setup followed by jobs or job pieces of that class.  Wrapping places
the sequence left-to-right through the gaps: a setup that would cross the end
of a gap moves below the start of the next gap, a job that would cross is cut
there and continues at the start of the next gap behind a freshly inserted
setup of its class.

A template may end in a tail of identical parallel gaps.  Every tail gap
the wrap fills becomes a machine row like an explicit gap, except in one
case: a run of at least two tail gaps fully covered by one long job (a setup
ending at the gap start and a full-height piece each) is emitted once as a
compressed configuration with that multiplicity.  So the output size is
bounded by the sequence length, independent of the gap count.

Times are ints on the Builder's scale.  The code needs only +, -, // and
comparisons on them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import CapacityError, ContractError, Instance, PlacementT, Rat, Schedule


@dataclass(frozen=True)
class Gap:
    machine: int
    open: Rat
    close: Rat

    def __post_init__(self):
        if not (0 <= self.open < self.close):
            raise ValueError(f"gap needs 0 <= open < close, got ({self.open}, {self.close})")


@dataclass(frozen=True)
class Batch:
    """A setup followed by (job, duration) items of class cls, job the
    position within the class."""

    cls: int
    setup: Rat
    jobs: tuple[tuple[int, Rat], ...]


def class_batch(inst: Instance, i: int, scale: int) -> Batch:
    """Class i whole: its setup and every job, on the time scale `scale`."""
    cl = inst.classes[i]
    return Batch(cls=i, setup=cl.setup * scale,
                 jobs=tuple((j, t * scale) for j, t in enumerate(cl.jobs)))


def check_template(gaps: list[Gap]):
    for g1, g2 in zip(gaps, gaps[1:]):
        if g2.machine <= g1.machine:
            raise ValueError("template machines must be strictly increasing")


class Builder:
    """Accumulates placements on virtual machine ids, then renumbers them.

    Explicit machines keep their relative order and are packed to 0..E-1;
    compressed configurations follow, occupying the next sum-of-multiplicities
    machine slots.  Times are on the integer time scale `scale` (1/scale time
    units per step).  `rows` maps a machine id to its placements; a row
    exists only once something is appended to it.
    """

    def __init__(self, m: int, scale: int = 1):
        self.m = m
        self.scale = scale
        self.rows: defaultdict[int, list[PlacementT]] = defaultdict(list)
        self._configs: list[tuple[int, tuple[PlacementT, ...], int]] = []

    def put(self, machine: int, cls: int, start: Rat, dur: Rat, job: Optional[int] = None):
        """A setup of cls (job None) or a piece of its job on the machine."""
        self.rows[machine].append((cls, start, dur, job))

    def put_config(self, base_machine: int, placements: tuple[PlacementT, ...], mult: int):
        self._configs.append((base_machine, placements, mult))

    def finalize(self) -> Schedule:
        explicit = [self.rows[k] for k in sorted(self.rows)]
        configs = [(pl, mult) for _, pl, mult in sorted(self._configs, key=lambda e: e[0])]
        return Schedule(m=self.m, machines=explicit, compressed=configs, scale=self.scale)


@dataclass
class WrapResult:
    last_machine: int  # virtual id of the gap holding the final item
    last_fill: Rat  # end time of the content on that machine
    placed: int  # number of emitted placements (configs count once)


class _Run:
    """State of one wrapping pass over explicit gaps plus a parallel tail."""

    def __init__(
        self,
        builder: Builder,
        explicit: list[Gap],
        tail_gap: Optional[tuple[Rat, Rat]],
        tail_count: int,
        tail_base: int,
        setups_below: bool,
    ):
        self.setups_below = setups_below
        check_template(explicit)
        if explicit and tail_gap is not None and tail_count > 0:
            if tail_base <= explicit[-1].machine:
                raise ValueError("tail machines must follow the explicit machines")
        if tail_gap is not None and not (0 <= tail_gap[0] < tail_gap[1]):
            raise ValueError("tail gap needs 0 <= open < close")
        self.b = builder
        self.rows = builder.rows
        self.explicit = explicit
        self.tail_gap = tail_gap
        self.tail_count = tail_count if tail_gap is not None else 0
        self.tail_base = tail_base
        self.total = len(explicit) + self.tail_count
        if self.total == 0:
            raise CapacityError("empty wrap template")
        self.pos = 0
        self.placed = 0
        self._sync()
        self.t: Rat = self.open

    # -- gap geometry ------------------------------------------------------

    def _in_tail(self, pos: int) -> bool:
        return pos >= len(self.explicit)

    def _open(self, pos: int) -> Rat:
        if self._in_tail(pos):
            return self.tail_gap[0]
        return self.explicit[pos].open

    def _close(self, pos: int) -> Rat:
        if self._in_tail(pos):
            return self.tail_gap[1]
        return self.explicit[pos].close

    def _machine(self, pos: int) -> int:
        if self._in_tail(pos):
            return self.tail_base + (pos - len(self.explicit))
        return self.explicit[pos].machine

    def _sync(self):
        self.open = self._open(self.pos)
        self.close = self._close(self.pos)
        self.machine = self._machine(self.pos)

    # -- emission ----------------------------------------------------------

    def put(self, cls: int, start: Rat, dur: Rat, job: Optional[int] = None):
        """A setup (job None) or a piece in the current gap's machine row."""
        self.placed += 1
        self.rows[self.machine].append((cls, start, dur, job))

    # -- movement ----------------------------------------------------------

    def next_gap(self):
        if self.pos + 1 >= self.total:
            raise CapacityError("wrap sequence exceeds template capacity")
        self.pos += 1
        self._sync()
        self.t = self.open

    def bulk_full_gaps(self, cls: int, setup: Rat, job: int, count: int):
        """Emit a run of `count` >= 2 identical tail gaps fully covered by one
        job: a setup ending at the gap start plus a full-height piece, as one
        config of multiplicity `count`.  A single such gap is a machine row."""
        if not (self._in_tail(self.pos + 1) and count >= 2):
            raise ContractError("bulk gaps must be a run of at least two tail gaps")
        a, b = self.tail_gap
        cfg = ((cls, a - setup, setup, None), (cls, a, b - a, job))
        self.placed += 2
        if self.pos + count >= self.total:
            raise CapacityError("wrap sequence exceeds template capacity")
        self.b.put_config(self._machine(self.pos + 1), cfg, count)
        self.pos += count
        self._sync()
        self.t = b  # gap is exactly full; next item immediately crosses

    def finish(self) -> WrapResult:
        return WrapResult(
            last_machine=self.machine,
            last_fill=self.t,
            placed=self.placed,
        )


def _place_item(run: _Run, cls: int, setup: Rat, job: int, dur: Rat):
    """Place one job (piece), cutting it at gap ends as often as needed."""
    end = run.t + dur
    while end > run.close:
        head = run.close - run.t
        if head > 0:
            run.put(cls, run.t, head, job)
        rest = end - run.close
        # Fast path: the remainder spans at least two whole identical tail gaps.
        if run.tail_count and run._in_tail(run.pos + 1):
            height = run.tail_gap[1] - run.tail_gap[0]
            if rest > height:
                full = -(-rest // height) - 1  # ceil, exact on ints past 2**53
                avail = run.total - run.pos - 2  # keep one gap for the final piece
                full = min(full, max(avail, 0))
                if full >= 2:
                    run.bulk_full_gaps(cls, setup, job, full)
                    rest -= height * full
                    end = run.t + rest  # run.t == close of the bulk gaps
                    continue
        run.next_gap()
        run.put(cls, run.open - setup, setup)
        run.t = run.open
        end = run.t + rest
    if end > run.t:
        run.put(cls, run.t, end - run.t, job)
    run.t = end


def _place_batch(run: _Run, batch: Batch):
    if (
        run.setups_below
        and run.t == run.open
        and run.t + batch.setup <= run.close
    ):
        # the caller reserved room under every gap: a setup opening a gap
        # anchors below it, exactly where it would land after relocating
        # across a preceding gap that shrank to nothing, so the layout is a
        # continuous function of the guess
        run.put(batch.cls, run.open - batch.setup, batch.setup)
    elif run.t + batch.setup > run.close:
        run.next_gap()
        run.put(batch.cls, run.open - batch.setup, batch.setup)
        run.t = run.open
    else:
        run.put(batch.cls, run.t, batch.setup)
        run.t = run.t + batch.setup
    for job, dur in batch.jobs:
        if dur <= 0:
            raise ValueError(f"job piece {(batch.cls, job)} with non-positive duration {dur}")
        _place_item(run, batch.cls, batch.setup, job, dur)


def run_wrap(
    builder: Builder,
    seq: Iterable[Batch],
    explicit: list[Gap],
    tail_gap: Optional[tuple[Rat, Rat]] = None,
    tail_count: int = 0,
    tail_base: int = 0,
    setups_below: bool = False,
) -> WrapResult:
    """Wrap `seq` into the explicit gaps followed by `tail_count` identical
    parallel gaps on machines tail_base, tail_base+1, ...  Each filled tail
    gap is a machine row, so callers can keep filling the last one; only a
    run of at least two gaps fully covered by one job is compressed.
    setups_below anchors setups that open a gap under its start; only valid
    when the caller guarantees that much room under every gap."""
    run = _Run(builder, explicit, tail_gap, tail_count, tail_base, setups_below)
    for batch in seq:
        _place_batch(run, batch)
    return run.finish()

