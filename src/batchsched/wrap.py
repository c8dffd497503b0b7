"""Batch wrapping: pour a sequence of setup-prefixed batches into time gaps.

A wrap template is a list of gap runs: `Gap(machine, open, close, count)` is
`count` identical gaps on machines machine, machine+1, ..., and each run's
machines come after the previous run's.  A wrap sequence is a list of
batches, each a class setup followed by jobs or job pieces of that class.
Wrapping places the sequence left-to-right through the gaps, as
McNaughton's wrap-around rule does: a setup that would cross the end of a
gap moves below the start of the next gap, a job that would cross is cut
there and continues at the start of the next gap behind a freshly inserted
setup of its class.  The jobs of a batch that end by the current gap's
close go in as one run, found by a bisect over the batch's prefix sums;
only a job that crosses a close is placed on its own.  A batch of a whole
class (`class_batch`) writes each such run as one pair (see `core.Row`),
and the head of a job crossing the close right after it ends that pair, so
a gap holds at most two pairs of it: the tail of the job that crossed into
it, and one run.  Any other batch writes one pair per job or piece.

Every gap the wrap fills becomes a machine row, except in one case: after a
crossing, a remainder of one job covering at least two whole gaps of the
next gap's run, short of that run's last gap, is emitted once as a
compressed configuration (a setup ending at the gap start and a full-height
piece) with that multiplicity.  So the output size is bounded by the
sequence length and the template length, independent of the gap count.
Each setup opens a batch in its gap's row (see `core.Row`), and the pairs
after it extend that batch.

Times are ints on the Builder's scale.  The code needs only +, -, // and
comparisons on them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Union

from .core import CapacityError, Instance, Rat, Row, Schedule


@dataclass(frozen=True)
class Gap:
    """A run of `count` identical gaps [open, close) on machines machine,
    machine+1, ...; a run of count 0 holds no gap and is skipped."""

    machine: int
    open: Rat
    close: Rat
    count: int = 1

    def __post_init__(self):
        if not (0 <= self.open < self.close):
            raise ValueError(f"gap needs 0 <= open < close, got ({self.open}, {self.close})")
        if self.count < 0:
            raise ValueError(f"gap run needs count >= 0, got {self.count}")


@dataclass(frozen=True)
class Batch:
    """A setup followed by items of class cls.  jobs is flat, (job, dur,
    job, dur, ...) with job the position within the class, like the tail
    of a schedule row's batch: one tuple, not one per item.  whole says
    that the items are the class's jobs, all of them whole and in index
    order, so that the wrap may write a run of them as one pair."""

    cls: int
    setup: Rat
    jobs: tuple[Union[int, Rat], ...]
    whole: bool = False


def class_batch(inst: Instance, i: int, scale: int) -> Batch:
    """Class i whole: its setup and every job, on the time scale `scale`."""
    cl = inst.classes[i]
    jobs = [0] * (2 * len(cl.jobs))
    jobs[::2] = range(len(cl.jobs))
    jobs[1::2] = cl.jobs if scale == 1 else [t * scale for t in cl.jobs]
    return Batch(cls=i, setup=cl.setup * scale, jobs=tuple(jobs), whole=True)


def check_template(runs: list[Gap]):
    for g1, g2 in zip(runs, runs[1:]):
        if g2.machine < g1.machine + g1.count:
            raise ValueError("template runs must follow each other on increasing machines")


class Builder:
    """Accumulates batches on virtual machine ids, then renumbers them.

    Explicit machines keep their relative order and are packed to 0..E-1;
    compressed configurations follow, occupying the next sum-of-multiplicities
    machine slots.  Times are on the integer time scale `scale` (1/scale time
    units per step).  `rows` maps a machine id to its Row of batches; a row
    exists only once a batch is put on it.  A batch is put whole, as a tuple
    (see `core.Row`).
    """

    def __init__(self, m: int, scale: int = 1):
        self.m = m
        self.scale = scale
        self.rows: defaultdict[int, Row] = defaultdict(list)
        self._configs: list[tuple[int, Row, int]] = []

    def put(self, machine: int, batch: tuple):
        """A batch (cls, start, setup, job, dur, ...) on the machine."""
        self.rows[machine].append(batch)

    def put_config(self, base_machine: int, config: Row, mult: int):
        self._configs.append((base_machine, config, mult))

    def finalize(self) -> Schedule:
        explicit = [self.rows[k] for k in sorted(self.rows)]
        configs = [(row, mult) for _, row, mult in sorted(self._configs, key=lambda e: e[0])]
        return Schedule(m=self.m, machines=explicit, compressed=configs, scale=self.scale)


@dataclass
class WrapResult:
    last_machine: int  # virtual id of the gap holding the final item
    last_fill: Rat  # end time of the content on that machine
    placed: int  # number of emitted setups and pieces (configs count once)


class _Run:
    """State of one wrapping pass: the current run, the current gap's
    machine and how many gaps of the run follow it, and the open batch, the
    last setup's, with the row it goes to.  The open batch is a list that
    becomes a tuple in its row once the next setup opens another or the
    pass ends: only one batch is ever a list, so no batch lives long enough
    as one to be moved into the collector's oldest generation."""

    def __init__(self, builder: Builder, gaps: list[Gap], setups_below: bool):
        self.runs = [g for g in gaps if g.count]
        check_template(self.runs)
        if not self.runs:
            raise CapacityError("empty wrap template")
        self.b = builder
        self.rows = builder.rows
        self.setups_below = setups_below
        self.placed = 0
        self.batch = self.batch_row = None  # opened by the first setup
        self.k, self.left = -1, 0
        self.next_gap()

    # -- emission ----------------------------------------------------------

    def setup(self, cls: int, start: Rat, dur: Rat):
        """A setup opening a batch for the current gap's machine row."""
        self.end_batch()
        self.placed += 1
        self.batch, self.batch_row = [cls, start, dur], self.rows[self.machine]

    def pieces(self, flat: tuple, jobs: int = 0):
        """Pairs (job, dur, job, dur, ...) of the open batch's class, back
        to back where its content ends: one per piece, or one pair that
        runs `jobs` whole jobs (`placed` counts every job)."""
        self.placed += jobs or len(flat) >> 1
        self.batch += flat

    def end_batch(self):
        if self.batch is not None:
            self.batch_row.append(tuple(self.batch))
            self.batch = None

    # -- movement ----------------------------------------------------------

    def next_gap(self):
        if self.left:
            self.left -= 1
            self.machine += 1
        else:
            self.k += 1
            if self.k == len(self.runs):
                raise CapacityError("wrap sequence exceeds template capacity")
            g = self.runs[self.k]
            self.machine, self.left = g.machine, g.count - 1
            self.open, self.close = g.open, g.close
        self.t = self.open

    def bulk_full_gaps(self, cls: int, setup: Rat, job: int, rest: Rat) -> Rat:
        """A job that crossed into this gap with `rest` of it left: if rest
        covers at least two whole gaps of this run, short of its last gap,
        emit them as one config of a setup ending at the gap start plus a
        full-height piece, move to the gap after them and return what is
        left.  Otherwise return rest unchanged; a single full gap is a
        machine row."""
        height = self.close - self.open
        if self.left < 2 or rest <= 2 * height:
            return rest
        # ceil(rest / height) - 1, exact on ints past 2**53
        full = min(-(-rest // height) - 1, self.left)
        self.b.put_config(self.machine, [(cls, self.open - setup, setup, job, height)], full)
        self.placed += 2
        self.machine += full
        self.left -= full
        return rest - height * full

    def finish(self) -> WrapResult:
        self.end_batch()
        return WrapResult(last_machine=self.machine, last_fill=self.t, placed=self.placed)


def _place_item(run: _Run, cls: int, setup: Rat, job: int, dur: Rat, ends_run: bool = False):
    """Place one job (piece), cutting it at gap ends as often as needed.
    ends_run: the open batch's last pair is a run of whole jobs that ends
    where this job starts, so the job's head extends that pair."""
    end = run.t + dur
    while end > run.close:
        head = run.close - run.t
        if head > 0:
            if ends_run:
                run.batch[-1] += head
                run.placed += 1
            else:
                run.pieces((job, head))
        ends_run = False
        rest = end - run.close
        run.next_gap()
        rest = run.bulk_full_gaps(cls, setup, job, rest)
        run.setup(cls, run.open - setup, setup)
        end = run.t + rest
    run.pieces((job, end - run.t))
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
        run.setup(batch.cls, run.open - batch.setup, batch.setup)
    elif run.t + batch.setup > run.close:
        run.next_gap()
        run.setup(batch.cls, run.open - batch.setup, batch.setup)
    else:
        run.setup(batch.cls, run.t, batch.setup)
        run.t = run.t + batch.setup
    jobs = batch.jobs
    durs = jobs[1::2]
    bad = None
    if durs and min(durs) <= 0:
        # the jobs before the first bad one are placed, as one at a time would
        bad = next(k for k, dur in enumerate(durs) if dur <= 0)
        jobs, durs = jobs[:2 * bad], durs[:bad]
    # With the prefix sums of the durations, one bisect per gap finds the
    # run of jobs that ends by its close; only a job that crosses the close
    # goes through _place_item.
    ends = list(accumulate(durs))
    shift = run.t  # the jobs from k on end at shift + ends[k] while none crosses
    k, n = 0, len(ends)
    while k < n:
        fit = bisect_right(ends, run.close - shift, k)
        if fit > k:
            t = shift + ends[fit - 1]
            if batch.whole:  # one pair for the run
                run.pieces((jobs[2 * k], t - run.t), fit - k)
            else:
                run.pieces(jobs[2 * k:2 * fit])
            run.t = t
            if fit == n:
                break
        _place_item(run, batch.cls, batch.setup, jobs[2 * fit], jobs[2 * fit + 1],
                    batch.whole and fit > k)
        shift = run.t - ends[fit]
        k = fit + 1
    if bad is not None:
        job, dur = batch.jobs[2 * bad:2 * bad + 2]
        raise ValueError(f"job piece {(batch.cls, job)} with non-positive duration {dur}")


def run_wrap(builder: Builder, seq: Iterable[Batch], gaps: list[Gap],
             setups_below: bool = False) -> WrapResult:
    """Wrap `seq` into the gap runs `gaps`, in order.  Each filled gap is a
    machine row, so callers can keep filling the last one; only a stretch of
    at least two gaps of one run fully covered by one job is compressed.
    setups_below anchors setups that open a gap under its start; only valid
    when the caller guarantees that much room under every gap."""
    run = _Run(builder, gaps, setups_below)
    for batch in seq:
        _place_batch(run, batch)
    return run.finish()

