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
close go in as one run, found by one bisect over the batch's prefix sums:
for a whole class (`class_batch`) the class's own `JobClass.sums`, written
as one pair (see `core.Row`) that the head of a job crossing the close
extends; any other batch writes one pair per job or piece.

Every gap the wrap fills becomes a machine row, except in one case: after a
crossing, a remainder of one job covering at least two whole gaps of the
next gap's run, short of that run's last gap, is emitted once as a
compressed configuration (a setup ending at the gap start and a full-height
piece) with that multiplicity.  So the output size is bounded by the
sequence length and the template length, independent of the gap count.
Each batch goes into its gap's flat row.  Times are ints on the Builder's
scale, read with +, -, // and comparisons.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, namedtuple
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Union

from .core import CapacityError, Instance, Rat, Row, Schedule


class Gap(namedtuple("Gap", "machine open close count")):
    """A run of `count` identical gaps [open, close) on machines machine,
    machine+1, ...; a run of count 0 holds no gap and is skipped.  Checked
    at construction."""

    __slots__ = ()

    def __new__(cls, machine: int, open: Rat, close: Rat, count: int = 1) -> Gap:
        if not (0 <= open < close):
            raise ValueError(f"gap needs 0 <= open < close, got ({open}, {close})")
        if count < 0:
            raise ValueError(f"gap run needs count >= 0, got {count}")
        return tuple.__new__(cls, (machine, open, close, count))


class Batch(NamedTuple):
    """A setup followed by items of class cls.  A batch is whole when sums
    is set: its items are the class's jobs, whole and in index order, job j
    lasting (sums[j + 1] - sums[j]) * scale with sums the class's unscaled
    `core.JobClass.sums`, so the wrap may write a run of them as one pair.
    Otherwise jobs is flat, (job, dur, job, dur, ...), one tuple."""

    cls: int
    setup: Rat
    jobs: tuple[Union[int, Rat], ...] = ()
    sums: Optional[tuple[int, ...]] = None
    scale: int = 1


def class_batch(inst: Instance, i: int, scale: int) -> Batch:
    """Class i whole: its setup and every job, on the time scale `scale`."""
    cl = inst.classes[i]
    return Batch(cls=i, setup=cl.setup * scale, sums=cl.sums, scale=scale)


def check_template(runs: list[Gap]):
    for g1, g2 in zip(runs, runs[1:]):
        if g2.machine < g1.machine + g1.count:
            raise ValueError("template runs must follow each other on increasing machines")


class Builder:
    """Accumulates batches on virtual machine ids, then renumbers them.

    Explicit machines keep their relative order and are packed to 0..E-1;
    compressed configurations follow, occupying the next sum-of-multiplicities
    machine slots.  Times are on the integer time scale `scale` (1/scale time
    units per step).  `rows` maps a machine id to its flat Row (`core.Row`),
    which exists once a batch is put on it; a batch is written into it.
    """

    def __init__(self, m: int, scale: int = 1):
        self.m = m
        self.scale = scale
        self.rows: defaultdict[int, Row] = defaultdict(list)
        self._configs: list[tuple[int, Row, int]] = []

    def put(self, machine: int, batch: tuple):
        """A batch (cls, start, setup, k, job, dur, ...) with k pairs, at
        the end of the machine's row."""
        self.rows[machine] += batch

    def put_config(self, base_machine: int, config: Row, mult: int):
        self._configs.append((base_machine, config, mult))

    def finalize(self) -> Schedule:
        explicit = [self.rows[k] for k in sorted(self.rows)]
        configs = [(row, mult) for _, row, mult in sorted(self._configs, key=lambda e: e[0])]
        return Schedule(m=self.m, machines=explicit, compressed=configs, scale=self.scale)


class WrapResult(NamedTuple):
    last_machine: int  # virtual id of the gap holding the final item
    last_fill: Rat  # end time of the content on that machine
    placed: int  # number of emitted setups and pieces (configs count once)


def _next_run(runs: list[Gap], r: int) -> tuple:
    """The run after run r as (r + 1, its first machine, how many of its
    gaps follow that one, open, close)."""
    r += 1
    if r == len(runs):
        raise CapacityError("wrap sequence exceeds template capacity")
    g = runs[r]
    return r, g.machine, g.count - 1, g.open, g.close


def run_wrap(builder: Builder, seq: Iterable[Batch], gaps: list[Gap],
             setups_below: bool = False) -> WrapResult:
    """Wrap `seq` into the gap runs `gaps`, in order.  Each filled gap is a
    machine row, so callers can keep filling the last one; only a stretch of
    at least two gaps of one run fully covered by one job is compressed.
    setups_below anchors setups that open a gap under its start; only valid
    when the caller guarantees that much room under every gap.

    One pass keeps its state in locals: the current gap (run r, machine,
    how many gaps of the run follow it, open, close), the fill t, and the
    open batch's row and count slot; the count is set from the row's length
    once the next setup opens another batch or the pass ends."""
    runs = [g for g in gaps if g.count]
    check_template(runs)
    if not runs:
        raise CapacityError("empty wrap template")
    rows, put_config = builder.rows, builder.put_config
    r, machine, left, open_, close = _next_run(runs, -1)
    t = open_
    placed = 0
    row: Optional[Row] = None
    at = 0  # the open batch's count slot in row
    for batch in seq:
        cls, setup = batch.cls, batch.setup
        if setups_below and t == open_ and t + setup <= close:
            # the caller reserved room under every gap: a setup opening a
            # gap anchors below it, exactly where it would land after
            # relocating across a preceding gap that shrank to nothing, so
            # the layout is a continuous function of the guess
            start = open_ - setup
        elif t + setup > close:
            if left:
                left, machine = left - 1, machine + 1
            else:
                r, machine, left, open_, close = _next_run(runs, r)
            t = open_
            start = open_ - setup
        else:
            start = t
            t += setup
        if row is not None:
            row[at] = (len(row) - at - 1) // 2
        placed += 1
        row = rows[machine]
        row += cls, start, setup, 0
        at = len(row) - 1

        sums, scale, jobs, bad = batch.sums, batch.scale, batch.jobs, None
        whole = sums is not None
        if not whole:
            durs = jobs[1::2]
            if durs and min(durs) <= 0:
                # the items before the first bad one are placed, as one at a
                # time would
                bad = next(k for k, dur in enumerate(durs) if dur <= 0)
                durs = durs[:bad]
            sums, scale = list(accumulate(durs, initial=0)), 1
        # Items k..x-1 end at shift + sums[x] * scale while none crosses a
        # close, so one bisect per gap finds the run that ends by it (on a
        # whole class's ints the key floors: sums[x] * scale <= close - shift
        # iff sums[x] <= (close - shift) // scale); only an item that
        # crosses the close is placed on its own.
        k, n, shift = 0, len(sums) - 1, t
        while k < n:
            fit = bisect_right(sums, (close - shift) // scale if whole else close - shift, k + 1) - 1
            if fit > k:
                placed += fit - k
                end = shift + sums[fit] * scale
                if whole:  # one pair for the run
                    row += k, end - t
                else:
                    row += jobs[2 * k:2 * fit]
                t = end
                if fit == n:
                    break
            # item fit crosses the close: cut it at every close it reaches,
            # its head ending the run just written if there is one
            if whole:
                job, end = fit, t + (sums[fit + 1] - sums[fit]) * scale
            else:
                job, end = jobs[2 * fit], t + jobs[2 * fit + 1]
            ends_run = whole and fit > k
            while end > close:
                head = close - t
                if head > 0:
                    placed += 1
                    if ends_run:
                        row[-1] += head
                    else:
                        row += job, head
                ends_run = False
                rest = end - close
                if left:
                    left, machine = left - 1, machine + 1
                else:
                    r, machine, left, open_, close = _next_run(runs, r)
                height = close - open_
                if left >= 2 and rest > 2 * height:
                    # rest covers at least two whole gaps of this run, short
                    # of its last: one config of a setup ending at the gap
                    # start plus a full-height piece; a single full gap is a
                    # machine row.  ceil(rest / height) - 1, exact on ints
                    # past 2**53
                    full = min(-(-rest // height) - 1, left)
                    put_config(machine, [cls, open_ - setup, setup, 1, job, height], full)
                    placed += 2
                    machine += full
                    left -= full
                    rest -= height * full
                row[at] = (len(row) - at - 1) // 2
                placed += 1
                row = rows[machine]
                row += cls, open_ - setup, setup, 0
                at = len(row) - 1
                t = open_
                end = t + rest
            row += job, end - t
            placed += 1
            t = end
            k = fit + 1
            shift = t - sums[k] * scale
        if bad is not None:
            job, dur = jobs[2 * bad:2 * bad + 2]
            raise ValueError(f"job piece {(cls, job)} with non-positive duration {dur}")
    if row is not None:
        row[at] = (len(row) - at - 1) // 2
    return WrapResult(last_machine=machine, last_fill=t, placed=placed)
