"""Non-preemptive scheduling: every job runs contiguously on one machine.

The 3/2-dual first places all jobs too big to share a machine, fills the
opened machines with same-class jobs and distributes the remainder greedily.
A job cut at a machine's border stays whole where it starts, and an item
sticking out over the guess in the greedy moves on to the next machine
behind a fresh setup.  Every step places runs of whole jobs, one step per
machine, and writes the batches straight into each machine's flat row;
step 3's stream writes each run of consecutive jobs as one pair (see
`core.Row`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress, pairwise
from operator import ne, not_
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    ContractError,
    Decision,
    Instance,
    Rat,
    Schedule,
    Variant,
    decide_need,
    decided_outcome,
    job_bound_decision,
    lower_bound_tmin,
    trivial_one_job_per_machine,
)
from .search import Probe, SearchResult, _bisect


# ---------------------------------------------------------------------------
# Streams: setups and jobs laid end to end, cut into machines
# ---------------------------------------------------------------------------

# A segment is (cls, setup, ghost, ids, durs): a setup, then, when ghost >
# 0, a ghost of that length (the tail of a job kept whole on an earlier
# machine: it takes room but is never written), then whole jobs, their
# positions in the class in ids and their durations in durs (read once), in
# index order.  A whole class is range(len(jobs)) and the class's own jobs
# (times the scale with a C-level map off scale 1), so none is copied.
Segment = tuple[int, int, int, Sequence[int], Iterable[int]]


class _Stream:
    """Segments end to end: item x (a setup, a ghost or a job) occupies
    [starts[x], starts[x + 1]), and heads[k] is the item of segment k's setup.
    breaks[k] lists the positions p in segment k's jobs where job p is not
    job p - 1's successor, so the jobs between two breaks are one run."""

    def __init__(self, segs: list[Segment]):
        self.segs = segs
        self.heads: list[int] = []
        self.breaks: list[list[int]] = []
        n = 0
        for _, _, ghost, idx, _ in segs:
            self.heads.append(n)
            n += 1 + (ghost > 0) + len(idx)
            # the ids increase, so they are consecutive iff they span len(idx)
            self.breaks.append([] if not idx or idx[-1] - idx[0] == len(idx) - 1 else list(
                compress(range(1, len(idx)), map(ne, idx[1:], map((1).__add__, idx)))))
        self.n = n
        self.starts = list(accumulate(chain.from_iterable(
            chain((setup, ghost) if ghost else (setup,), durs)
            for _, setup, ghost, _, durs in segs), initial=0))
        self.ghosts = {h + 1 for h, seg in zip(self.heads, segs) if seg[2]}

    def write(self, row: list, a: int, b: int, t: int) -> int:
        """Items [a, b) as batches back to back from time t at the end of row,
        returning where they end: each segment's jobs among them behind its
        own setup, or behind a fresh one where they do not follow it, one
        pair per run.  A part that holds no job is no batch."""
        S = self.starts
        k = bisect_right(self.heads, a) - 1
        while k < len(self.heads) and self.heads[k] < b:
            cls, setup, ghost, ids, _ = self.segs[k]
            first = self.heads[k] + 1 + (ghost > 0)  # the segment's first job
            p0, p1 = max(a - first, 0), min(b - first, len(ids))
            if p1 > p0:
                brk = self.breaks[k]
                cuts = brk[bisect_right(brk, p0):bisect_left(brk, p1)] if brk else ()
                if cuts:
                    cuts = [p0, *cuts, p1]
                    row += cls, t, setup, len(cuts) - 1
                    row += chain.from_iterable((ids[r0], S[first + r1] - S[first + r0])
                                               for r0, r1 in pairwise(cuts))
                else:
                    row += cls, t, setup, 1, ids[p0], S[first + p1] - S[first + p0]
                t += setup + S[first + p1] - S[first + p0]
            k += 1
        return t


def _flat(jobs: tuple[int, ...], idx, scale: int) -> list[int]:
    """The jobs at the positions idx as flat (job, dur, ...) on the scale."""
    idx = list(idx)
    flat = [0] * (2 * len(idx))
    flat[::2] = idx
    flat[1::2] = map(scale.__mul__, map(jobs.__getitem__, idx))
    return flat


# ---------------------------------------------------------------------------
# 2-approximation: next fit with threshold + border repair
# ---------------------------------------------------------------------------


def next_fit_two_approx(inst: Instance, variant: Variant) -> tuple[Schedule, Rat]:
    """Linear-time schedule with makespan at most twice the instance lower
    bound, feasible without preemption (hence for the preemptive variant too).
    Every time is an int (scale 1).
    """
    if variant is Variant.SPLITTABLE:
        raise ContractError("next-fit two-approximation covers pmtn and nonp only")
    if inst.m >= inst.n:
        sched = trivial_one_job_per_machine(inst)
        return sched, sched.makespan()
    tmin = lower_bound_tmin(inst, variant)
    lim = math.floor(tmin)  # an int load is over tmin iff it is over floor(tmin)
    st = _Stream([(i, cl.setup, 0, range(len(cl.jobs)), cl.jobs)
                  for i, cl in enumerate(inst.classes)])
    # Next fit fills a machine until an item takes it over tmin and opens the
    # next one.  That item then moves to the start of the next machine (behind
    # a fresh setup if it is a job), so a machine holds the items from its
    # predecessor's crossing item up to its own: bounds are those items.
    S, n = st.starts, st.n
    bounds, f = [0], 0
    while f < n:
        last = bisect_right(S, S[f] + lim, f, n) - 1
        if S[last + 1] - S[f] <= lim:
            break
        bounds.append(last)
        f = last + 1
    if len(bounds) > inst.m:
        raise ContractError("construction ran out of machines")
    bounds.append(n)
    # a setup and a job of its class fit in tmin, so a machine holds the
    # item it starts with and the next: a job, or a setup and its first job
    machines: list[list] = [[] for _ in bounds[1:]]
    for row, (a, b) in zip(machines, pairwise(bounds)):
        st.write(row, a, b, 0)
    sched = Schedule(m=inst.m, machines=machines)
    makespan = sched.makespan()
    if makespan > 2 * tmin:
        raise ContractError(f"next-fit makespan {makespan} exceeds 2*T_min")
    return sched, makespan


# ---------------------------------------------------------------------------
# Counts for the dual decision
# ---------------------------------------------------------------------------


class NonpCounts(NamedTuple):
    """Per-class machine minima and leftovers at a guess T = p/q, as ints.

    machines[i]  least machines any T-feasible schedule opens for class i
    leftover[i]  x_i * q, on the guess's scale q: x_i = P(C_i) - machines[i]
                 * (T - s_i) is work that cannot fit on those machines
                 (forces an extra setup when positive)

    A cheap class needs one machine per big job (t_j > T/2) plus enough for
    its forced work (t_j <= T/2 but s_i + t_j > T/2): no two such jobs share
    a machine.  The counts hold only these per-class numbers; the build sorts
    the jobs of the one guess it builds by the same tests.
    """

    machines: list[int]
    leftover: list[int]


def counts_nonp(inst: Instance, p: int, q: int) -> NonpCounts:
    """The counts for a guess p/q above every setup (the job-setup bound,
    which the dual checks first, implies that); ContractError otherwise."""
    # integer arithmetic on the guess p/q: x > guess/2 iff 2 x q > p, and a
    # class fills T - s_i = (p - s_i q)/q per machine
    machines: list[int] = []
    leftover: list[int] = []
    for setup, jobs, _, total, t_max in inst.classes:  # unpacked once, as in classify
        room = p - setup * q
        sq2 = 2 * setup * q
        if sq2 > p:
            if room <= 0:
                raise ContractError("counts_nonp needs a guess above every setup")
            mi = -(-total * q // room)
        elif sq2 + 2 * t_max * q > p:  # else no job of the class is big or forced
            # forced or big: 2(s + t) q > p, i.e. t > (p - 2sq) // 2q; big:
            # 2tq > p, i.e. t > p // 2q
            over = list(filter(((p - sq2) // (2 * q)).__lt__, jobs))
            big = list(filter((p // (2 * q)).__lt__, over))
            mi = len(big) + -(-(sum(over) - sum(big)) * q // room)
        else:
            mi = 0
        machines.append(mi)
        leftover.append(total * q - mi * room)
    return NonpCounts(machines=machines, leftover=leftover)


def _decide_nonp(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess; its plan is the NonpCounts."""
    p, q = guess.as_integer_ratio()
    early = job_bound_decision(inst, p, q)
    if early is not None:
        return early
    counts = counts_nonp(inst, p, q)
    load = inst.total_work
    for (setup, _, _, _, _), mi, x in zip(inst.classes, counts.machines, counts.leftover):
        load += (mi + (x > 0)) * setup
    return decide_need(inst.m, p, q, load, sum(counts.machines), counts)


def dual_nonp(inst: Instance, guess: Rat) -> Decision:
    """The decision with either a non-preemptive schedule of makespan <=
    (3/2)*guess or a certificate that guess < OPT."""
    return decided_outcome(inst, guess, _decide_nonp(inst, guess), _build_nonp)


def _build_nonp(inst: Instance, guess: Rat, counts: NonpCounts) -> Schedule:
    """The construction on the scale q of the guess p/q, where the guess is p.

    Every machine is filled by whole runs of jobs: prefix sums over the
    durations and one bisect per machine find the jobs that start below its
    border.  A job that crosses the border stays whole where it starts; the
    part of it past the border is a ghost, which takes room on the machines
    after it but is never written."""
    scale, T = guess.denominator, guess.numerator
    half = T // 2
    rows: list[list] = []  # per machine its flat row
    loads: list[int] = []  # per machine its load as steps 1-3 see it, ghosts included
    ends: list[int] = []  # per machine where its last batch ends (its load unless given)

    def new_machine(row: Optional[list] = None, load: int = 0, end: Optional[int] = None) -> int:
        if len(loads) >= inst.m:
            raise ContractError("construction ran out of machines")
        rows.append([] if row is None else row)
        loads.append(load)
        ends.append(load if end is None else end)
        return len(loads) - 1

    # Steps 1 and 2, class by class.  Step 1 places the jobs that cannot
    # share a machine: a class's big jobs (2t > T) open one machine each and
    # its forced ones (2(s+t) > T) wrap over machines filled to T.  At an
    # accepted guess s + t <= T, so an expensive class (2s > T) has no big job
    # and every job forced.  Step 2 tops those machines up to T with the
    # class's other jobs.  Neither step touches another class's machines, and
    # step 2 opens none.  What is left is step 3's stream.
    segs: list[Segment] = []
    for i, cl in enumerate(inst.classes):
        s = cl.setup * scale
        over = (half - s) // scale  # t > over iff 2(s + t * scale) > T
        if cl.t_max <= over:
            ghost, got, ids = 0, cl.total * scale, range(len(cl.jobs))
            durs = cl.jobs if scale == 1 else map(scale.__mul__, cl.jobs)
        else:
            jobs = cl.jobs
            is_over = list(map(over.__lt__, jobs))
            is_big = list(map((half // scale).__lt__, jobs))
            targets = [new_machine([i, 0, s, 1, j, jobs[j] * scale], s + jobs[j] * scale)
                       for j in compress(range(len(jobs)), is_big)]
            forced = _flat(jobs, compress(range(len(jobs)), map(ne, is_over, is_big)), scale)
            if forced:
                # machines of room T - s, each holding the jobs that start in it
                S = list(accumulate(forced[1::2], initial=0))
                room, pos, a = T - s, 0, 0
                while pos < S[-1]:
                    b = bisect_left(S, pos + room, a, len(S) - 1)
                    u = new_machine([i, 0, s, b - a, *forced[2 * a:2 * b]],
                                s + min(room, S[-1] - pos), s + S[b] - S[a])
                    pos, a = pos + room, b
                targets.append(u)
            rest = _flat(jobs, compress(range(len(jobs)), map(not_, is_over)), scale)
            # step 2: the rest poured into the targets' room in order
            S = list(accumulate(rest[1::2], initial=0))
            pos = a = 0
            for u in targets:
                room = T - loads[u]
                if room <= 0:
                    continue
                if pos >= S[-1]:
                    break
                b = bisect_left(S, pos + room, a, len(S) - 1)
                row = rows[u]  # its one batch, whose count grows by the jobs added
                row += rest[2 * a:2 * b]
                row[3] += b - a
                loads[u] += min(room, S[-1] - pos)
                ends[u] += S[b] - S[a]
                pos, a = pos + room, b
            got = max(S[-1] - pos, 0)
            ghost, ids, durs = (S[a] - pos if got else 0), rest[2 * a::2], rest[2 * a + 1::2]
        want = max(counts.leftover[i], 0)  # on the decision's scale q, as here
        if got != want:
            raise ContractError(f"residual work {got} != leftover bound {want}")
        if got:
            segs.append((i, s, ghost, ids, durs))

    # Step 3: the stream (each class with residual work behind one fresh
    # setup) goes greedily over the machines below T, opened ones first, then
    # fresh: a machine takes items while it is below T, so its last item may
    # stick out.  Step 4: such an item moves on to the start of the next
    # machine of the greedy (behind a fresh setup if it is a job), and the
    # last machine's moves to an empty machine or to any other machine still
    # at or below T.  So a machine holds the stream from the previous move up
    # to its own, decided before its batches are written: where that begins
    # with a job it gets a fresh setup (the class's own machines are full, so
    # none of them is below it), and a setup whose jobs all move on is not
    # written.
    for u, row in enumerate(rows):  # its steps 1-2 batch, now complete, unless it holds no job
        if not row[3]:
            row.clear()
            ends[u] = 0
    if segs:
        st = _Stream(segs)
        S, n = st.starts, st.n
        avail = [u for u, load in enumerate(loads) if load < T]
        f = e = k = 0  # f: the next item to place, e: the first not yet written
        while f < n:
            u = avail[k] if k < len(avail) else new_machine()
            k += 1
            room = T - loads[u]
            end = bisect_left(S, S[f] + room, f, n)  # the items that start below T
            # the last item moves on if it sticks out, unless it is a ghost
            stop = end - (S[end] - S[f] > room and end - 1 not in st.ghosts)
            ends[u] = st.write(rows[u], e, stop, ends[u])
            e, f = stop, end
        if e < n:  # the last machine's item moved on
            if len(rows) < inst.m:
                target = new_machine()
            else:
                target = next((v for v, end in enumerate(ends) if v != u and end <= T), None)
                if target is None:
                    raise ContractError("repair found no machine for the final item")
            st.write(rows[target], e, n, ends[target])
    return Schedule(m=inst.m, machines=[row for row in rows if row], scale=scale)


def exact_integer_search_nonp(inst: Instance) -> SearchResult:
    """Smallest integer guess the dual accepts: ceil(T_min) when it is
    accepted, else the integers up to ceil(2*T_min), which must be accepted,
    are bisected.  The optimum is integral, so the returned guess is a
    certified lower bound on it and the schedule is within 3/2."""
    p, q = lower_bound_tmin(inst, Variant.NONPREEMPTIVE).as_integer_ratio()
    probe = Probe(inst, Variant.NONPREEMPTIVE)
    lo, hi = -(-p // q), -(-2 * p // q)  # ceil(T_min), ceil(2 T_min)
    if probe(lo):
        hi = lo
    elif not probe(hi):
        raise ContractError(f"dual rejected ceil(2*T_min) = {hi}")
    else:
        _, hi = _bisect(int, probe, lo, hi)  # each index is its own guess
    # all smaller integers are rejected or under T_min
    return probe.finish(Fraction(hi), Fraction(hi))
