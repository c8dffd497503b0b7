"""Non-preemptive scheduling: every job runs contiguously on one machine.

The 3/2-dual first places all jobs too big to share a machine (wrapping them
preemptively), fills the opened machines with same-class jobs, distributes
the remainder greedily, and finally repairs the schedule: split jobs are
swapped back for their whole parents and items sticking out over the guess
move on to the next machine behind a fresh setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    ContractError,
    Decision,
    Instance,
    JobRef,
    Rat,
    Schedule,
    Variant,
    decide_need,
    decided_outcome,
    job_bound_decision,
    lower_bound_tmin,
    scaled,
    trivial_one_job_per_machine,
)
from .search import CachedProbe, SearchResult, _bisect_right_interval, trivial_search


# ---------------------------------------------------------------------------
# Machine stacks: items packed back-to-back from time 0
# ---------------------------------------------------------------------------

# A stack item is the plain tuple (cls, dur, job, seq): dur an int on the
# stacks' scale, job the position within cls (-1 exactly for a setup) and
# seq the item's number in creation order, so no two items are equal.
# Plain tuples of ints, which the cyclic collector stops tracking, so a full
# collection does not rescan the stacks.
StackItem = tuple[int, int, int, int]


class _Stacks:
    """Machine stacks with durations and loads as ints on the time scale."""

    def __init__(self, inst: Instance, scale: int = 1):
        self.m = inst.m
        self.scale = scale
        self.setups = [cl.setup * scale for cl in inst.classes]
        self.stacks: list[list[StackItem]] = []
        self.loads: list[int] = []
        self.seq = 0

    def item(self, cls: int, dur: int, job: int = -1) -> StackItem:
        self.seq += 1
        return (cls, dur, job, self.seq)

    def setup(self, cls: int) -> StackItem:
        return self.item(cls, self.setups[cls])

    def new_machine(self) -> int:
        if len(self.stacks) >= self.m:
            raise ContractError("construction ran out of machines")
        self.stacks.append([])
        self.loads.append(0)
        return len(self.stacks) - 1

    def push(self, u: int, it: StackItem):
        self.stacks[u].append(it)
        self.loads[u] += it[1]

    def insert(self, u: int, index: int, it: StackItem):
        self.stacks[u].insert(index, it)
        self.loads[u] += it[1]

    def pop(self, u: int) -> StackItem:
        it = self.stacks[u].pop()
        self.loads[u] -= it[1]
        return it

    def remove(self, u: int, it: StackItem):
        self.stacks[u].remove(it)
        self.loads[u] -= it[1]

    def to_schedule(self) -> Schedule:
        """Each stack as a row from time 0: a setup opens a batch, the pieces
        after it extend the batch, and the next setup or the stack's end
        stores it as a tuple (see `core.Row`).  ContractError for a piece
        that does not follow a setup or piece of its class."""
        machines = []
        for stack in self.stacks:
            row = []
            t = 0
            batch = None
            for cls, dur, job, _ in stack:
                if job == -1:
                    if batch:
                        row.append(tuple(batch))
                    batch = [cls, t, dur]
                elif batch and batch[0] == cls:
                    batch += job, dur
                else:
                    raise ContractError(f"a piece of class {cls} follows no setup of its class")
                t += dur
            if batch:
                row.append(tuple(batch))
            machines.append(row)
        return Schedule(m=self.m, machines=machines, scale=self.scale)


def _stack_wrap(st: _Stacks, cls: int, items, cap: int) -> list[int]:
    """Fill machines [setup, pieces...] up to exactly cap, cutting the
    (job, dur) items at the border; returns the used machine ids in order."""
    used = [st.new_machine()]
    st.push(used[-1], st.setup(cls))
    for job, dur in items:
        while st.loads[used[-1]] + dur > cap:
            head = cap - st.loads[used[-1]]
            if head > 0:
                st.push(used[-1], st.item(cls, head, job))
                dur -= head
            used.append(st.new_machine())
            st.push(used[-1], st.setup(cls))
        if dur > 0:
            st.push(used[-1], st.item(cls, dur, job))
    return used


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
    st = _Stacks(inst)
    cur = st.new_machine()
    for i, cl in enumerate(inst.classes):
        for it in [st.setup(i), *(st.item(i, t, j) for j, t in enumerate(cl.jobs))]:
            st.push(cur, it)
            if st.loads[cur] > tmin:
                cur = st.new_machine()
    # A machine is opened only when the item on top of the one before went
    # over the line: move each such item to the start of the next machine,
    # with a fresh setup in front of a moved job.
    for u in range(len(st.stacks) - 1):
        it = st.pop(u)
        if it[2] != -1:
            st.insert(u + 1, 0, st.setup(it[0]))
            st.insert(u + 1, 1, it)
        else:
            st.insert(u + 1, 0, it)
    # Trailing setups serve no job: drop them.
    for u in range(len(st.stacks)):
        while st.stacks[u] and st.stacks[u][-1][2] == -1:
            st.pop(u)
    st.stacks = [s for s in st.stacks if s]
    sched = st.to_schedule()
    makespan = sched.makespan()
    if makespan > 2 * tmin:
        raise ContractError(f"next-fit makespan {makespan} exceeds 2*T_min")
    return sched, makespan


# ---------------------------------------------------------------------------
# Counts for the dual decision
# ---------------------------------------------------------------------------


@dataclass
class NonpCounts:
    """Per-class machine minima and leftovers at a guess T.

    machines[i]  least machines any T-feasible schedule opens for class i
    leftover[i]  x_i = P(C_i) - machines[i] * (T - s_i): work that cannot fit
                 on those machines (forces an extra setup when positive)

    A cheap class needs one machine per big job (t_j > T/2) plus enough for
    its forced work (t_j <= T/2 but s_i + t_j > T/2): no two such jobs share
    a machine.  The counts hold only these per-class numbers; the build sorts
    the jobs of the one guess it builds by the same tests.
    """

    machines: list[int]
    leftover: list[Rat]


def counts_nonp(inst: Instance, guess: Rat) -> NonpCounts:
    """The counts for a guess above every setup (the job-setup bound, which
    the dual checks first, implies that); ContractError otherwise."""
    # integer arithmetic on the guess p/q: x > guess/2 iff 2 x q > p, and a
    # class fills T - s_i = (p - s_i q)/q per machine
    p_, q_ = guess.numerator, guess.denominator
    machines: list[int] = []
    leftover: list[Rat] = []
    for i, cl in enumerate(inst.classes):
        room = p_ - cl.setup * q_
        sq2 = 2 * cl.setup * q_
        if sq2 > p_:
            if room <= 0:
                raise ContractError("counts_nonp needs a guess above every setup")
            mi = -(-cl.total * q_ // room)
        elif sq2 + 2 * cl.t_max * q_ > p_:  # else no job of the class is big or forced
            nbig = kw = 0
            for t in cl.jobs:
                if 2 * t * q_ > p_:
                    nbig += 1
                elif sq2 + 2 * t * q_ > p_:
                    kw += t
            mi = nbig + -(-kw * q_ // room)
        else:
            mi = 0
        machines.append(mi)
        leftover.append(Fraction(cl.total * q_ - mi * room, q_))
    return NonpCounts(machines=machines, leftover=leftover)


def _decide_nonp(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess; its plan is the NonpCounts."""
    early = job_bound_decision(inst, guess)
    if early is not None:
        return early
    counts = counts_nonp(inst, guess)
    load = inst.total_work
    for i, cl in enumerate(inst.classes):
        load += counts.machines[i] * cl.setup
        if counts.leftover[i] > 0:
            load += cl.setup
    return decide_need(inst.m, guess, load, sum(counts.machines), counts)


def dual_nonp(inst: Instance, guess: Rat) -> Decision:
    """The decision with either a non-preemptive schedule of makespan <=
    (3/2)*guess or a certificate that guess < OPT."""
    return decided_outcome(inst, guess, _decide_nonp(inst, guess), _build_nonp)


def _build_nonp(inst: Instance, guess: Rat, counts: NonpCounts) -> Schedule:
    """The construction on the scale q of the guess p/q, where the guess is p."""
    scale, T = guess.denominator, guess.numerator
    st = _Stacks(inst, scale)

    # Steps 1 and 2, class by class.  Step 1 places the jobs that cannot
    # share a machine: a class's big jobs (2t > T) open one machine each and
    # its forced ones (2(s+t) > T) wrap.  At an accepted guess s + t <= T,
    # so an expensive class (2s > T) has no big job and every job forced: it
    # wraps over its machine minimum.  Step 2 tops those machines up to the
    # guess with the class's other jobs, cutting at the border.  Neither
    # step touches another class's machines, and step 2 opens none.
    residual: dict[int, list[tuple[int, int]]] = {}  # class -> its (job, dur) left over
    for i, cl in enumerate(inst.classes):
        s2 = 2 * st.setups[i]
        big, forced, rest = [], [], []  # (job, dur) on the scale
        for j, t in enumerate(cl.jobs):
            t *= scale
            (big if 2 * t > T else forced if s2 + 2 * t > T else rest).append((j, t))
        targets: list[int] = []
        for j, t in big:
            u = st.new_machine()
            st.push(u, st.setup(i))
            st.push(u, st.item(i, t, j))
            targets.append(u)
        if forced:
            targets.append(_stack_wrap(st, i, forced, T)[-1])
        out: list[tuple[int, int]] = []
        ti = 0
        for j, dur in rest:
            while dur > 0 and ti < len(targets):
                u = targets[ti]
                room = T - st.loads[u]
                if room <= 0:
                    ti += 1
                    continue
                take = min(room, dur)
                st.push(u, st.item(i, take, j))
                dur -= take
            if dur > 0:
                out.append((j, dur))
        if out:
            residual[i] = out
        want = max(scaled(counts.leftover[i], scale), 0)
        got = sum(d for _, d in out)
        if got != want:
            raise ContractError(f"residual work {got} != leftover bound {want}")

    # Step 3: one fresh setup per class with residual work, then greedy over
    # machines below the guess (opened ones first, then fresh), keeping items
    # whole even when they stick out.  Every item from here on has a seq
    # above step3; the ones that cross the guess are noted in crossed.
    step3 = st.seq
    crossed: set[int] = set()
    order: list[int] = []
    if residual:
        avail = [u for u in range(len(st.stacks)) if st.loads[u] < T]
        pos = 0

        def advance() -> int:
            nonlocal pos
            while pos < len(avail):
                u2 = avail[pos]
                if st.loads[u2] < T:
                    return u2
                pos += 1
            return st.new_machine()

        u = advance()
        for i in sorted(residual):
            for it in [st.setup(i), *(st.item(i, dur, j) for j, dur in residual[i])]:
                if st.loads[u] >= T:
                    u = advance()
                st.push(u, it)
                if not order or order[-1] != u:
                    order.append(u)
                if st.loads[u] > T:
                    crossed.add(it[3])  # stays whole; the greedy just moves on

    _repair(inst, st, order, step3, crossed, T)
    return st.to_schedule()


def _repair(inst: Instance, st: _Stacks, order: list[int], step3: int, crossed: set[int],
            guess: int):
    """Step 4 (guess on the stacks' scale): make the schedule non-preemptive,
    then fix loads and setups.  order is step 3's machines in greedy order,
    step3 the last seq before step 3 and crossed the seqs of the items that
    crossed the guess there."""
    # The pieces of each job in more than one piece, that is each piece
    # shorter than its job: split in step 1 or 2 (or its tail travelled
    # through step 3).  The first one made, if it tops its machine, grows
    # back to its whole job, and the others go.
    pieces: dict[JobRef, list[tuple[int, StackItem]]] = {}
    for u, stack in enumerate(st.stacks):
        for it in stack:
            if it[2] != -1 and it[1] != inst.classes[it[0]].jobs[it[2]] * st.scale:
                pieces.setdefault((it[0], it[2]), []).append((u, it))
    for u, stack in enumerate(st.stacks):
        if not stack or stack[-1][2] == -1:
            continue
        cls, dur, job, seq = stack[-1]
        family = pieces.get((cls, job), ())
        if len(family) < 2 or seq != min(it[3] for _, it in family):
            continue
        del pieces[(cls, job)]
        whole = inst.classes[cls].jobs[job] * st.scale
        stack[-1] = (cls, whole, job, seq)
        st.loads[u] += whole - dur
        for v, other in family:
            if other[3] != seq:
                st.remove(v, other)

    # Items that crossed the guess move to the next machine of the greedy
    # order (fresh setup in front of moved jobs); a class whose jobs continue
    # on the next machine without a crossing predecessor gets a setup
    # inserted below the continuation.
    carry: Optional[StackItem] = None
    for idx, u in enumerate(order):
        stack = st.stacks[u]
        ins = next((k for k, it in enumerate(stack) if it[3] > step3), len(stack))
        # Read before the inserts, which go below the top or onto a stack
        # with nothing from step 3 (and so nothing that crossed) on it.
        crosses = bool(stack) and stack[-1][3] in crossed
        if carry is not None:
            if carry[2] != -1:
                st.insert(u, ins, st.setup(carry[0]))
                ins += 1
            st.insert(u, ins, carry)
            carry = None
        elif ins < len(stack) and stack[ins][2] != -1:
            if ins == 0 or stack[ins - 1][0] != stack[ins][0]:
                st.insert(u, ins, st.setup(stack[ins][0]))
        if not crosses:
            continue
        it = st.pop(u)
        if idx < len(order) - 1:
            carry = it
            continue
        # no successor in the greedy order: park the item on an empty machine,
        # or on any other machine still at or below the guess
        if len(st.stacks) < st.m:
            target = st.new_machine()
        else:
            target = next((v for v in range(len(st.stacks)) if v != u and st.loads[v] <= guess),
                          None)
            if target is None:
                raise ContractError("repair found no machine for the final item")
        if it[2] != -1:
            st.push(target, st.setup(it[0]))
        st.push(target, it)
    if carry is not None:
        raise ContractError("repair left an item unplaced")


def exact_integer_search_nonp(inst: Instance) -> SearchResult:
    """Smallest integer guess the dual accepts, by binary search over
    [ceil(T_min), ceil(2*T_min)].  The optimum is integral, so the returned
    guess is a certified lower bound on it and the schedule is within 3/2."""
    if inst.m >= inst.n:
        return trivial_search(inst)
    tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
    probe = CachedProbe(lambda guess: _decide_nonp(inst, guess).accepted)

    lo = math.ceil(tmin) - 1  # below T_min: certified rejected without a probe
    hi = math.ceil(2 * tmin)
    if not probe(hi):
        raise ContractError(f"dual rejected ceil(2*T_min) = {hi}")
    # index k stands for the guess lo + k; the top index is passed, since
    # len() of a range past sys.maxsize overflows while indexing it does not
    _, k = _bisect_right_interval(range(lo, hi + 1), probe, 0, hi - lo)
    # all smaller integers are rejected or under T_min
    return probe.finish(dual_nonp, inst, Fraction(lo + k), Fraction(lo + k))
