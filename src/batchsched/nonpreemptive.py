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
    PIECE,
    SETUP,
    ContractError,
    Decision,
    Instance,
    JobRef,
    PlacementT,
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
from .search import CachedProbe, SearchResult, trivial_search


# ---------------------------------------------------------------------------
# Machine stacks: items packed back-to-back from time 0
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Item:
    kind: str  # SETUP or PIECE
    cls: int
    dur: Rat
    ref: Optional[JobRef] = None
    seq: int = 0  # creation order, identifies the first piece of a split
    step3: bool = False
    crossed: bool = False


class _Stacks:
    """Machine stacks with durations and loads as ints on the time scale."""

    def __init__(self, m: int, scale: int = 1):
        self.m = m
        self.scale = scale
        self.stacks: list[list[_Item]] = []
        self.loads: list[int] = []
        self._seq = 0

    def setup(self, inst: Instance, cls: int) -> _Item:
        return _Item(SETUP, cls, inst.classes[cls].setup * self.scale)

    def new_machine(self) -> int:
        if len(self.stacks) >= self.m:
            raise ContractError("construction ran out of machines")
        self.stacks.append([])
        self.loads.append(0)
        return len(self.stacks) - 1

    def _push(self, u: int, it: _Item) -> _Item:
        self._seq += 1
        it.seq = self._seq
        self.stacks[u].append(it)
        self.loads[u] += it.dur
        return it

    def push_setup(self, u: int, cls: int, dur: Rat, step3=False) -> _Item:
        return self._push(u, _Item(SETUP, cls, dur, step3=step3))

    def push_piece(self, u: int, cls: int, ref: JobRef, dur: Rat, step3=False) -> _Item:
        return self._push(u, _Item(PIECE, cls, dur, ref=ref, step3=step3))

    def insert(self, u: int, index: int, it: _Item):
        self.stacks[u].insert(index, it)
        self.loads[u] += it.dur

    def pop(self, u: int) -> _Item:
        it = self.stacks[u].pop()
        self.loads[u] -= it.dur
        return it

    def remove(self, u: int, it: _Item):
        self.stacks[u].remove(it)  # identity comparison: _Item has eq=False
        self.loads[u] -= it.dur

    def to_schedule(self) -> Schedule:
        machines: list[list[PlacementT]] = []
        piece_counter: dict[JobRef, int] = {}
        for stack in self.stacks:
            t = 0
            row = []
            for it in stack:
                if it.kind == SETUP:
                    row.append((SETUP, it.cls, t, it.dur, None, None))
                else:
                    k = piece_counter.get(it.ref, 0)
                    piece_counter[it.ref] = k + 1
                    row.append((PIECE, it.cls, t, it.dur, it.ref[1], k))
                t += it.dur
            machines.append(row)
        return Schedule(m=self.m, machines=machines, scale=self.scale)


def _stack_wrap(st: _Stacks, cls: int, setup: int, items, cap: int) -> list[int]:
    """Fill machines [setup, pieces...] up to exactly cap, cutting jobs at the
    border; returns the used machine ids in order."""
    used = [st.new_machine()]
    st.push_setup(used[-1], cls, setup)
    for ref, dur in items:
        while st.loads[used[-1]] + dur > cap:
            head = cap - st.loads[used[-1]]
            if head > 0:
                st.push_piece(used[-1], cls, ref, head)
                dur -= head
            used.append(st.new_machine())
            st.push_setup(used[-1], cls, setup)
        if dur > 0:
            st.push_piece(used[-1], cls, ref, dur)
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
    st = _Stacks(inst.m)
    cur = st.new_machine()
    trigger: dict[int, _Item] = {}  # machine -> the item that pushed it past tmin
    for i, cl in enumerate(inst.classes):
        items = [(SETUP, None, cl.setup)]
        items += [(PIECE, (i, j), t) for j, t in enumerate(cl.jobs)]
        for kind, ref, dur in items:
            if kind == SETUP:
                it = st.push_setup(cur, i, dur)
            else:
                it = st.push_piece(cur, i, ref, dur)
            if st.loads[cur] > tmin:
                trigger[cur] = it
                cur = st.new_machine()
    # Move each over-the-line item to the start of the next machine; moved
    # jobs get a fresh setup in front.
    for u in range(len(st.stacks) - 1):
        it = trigger.get(u)
        if it is None:
            continue
        if not (st.stacks[u] and st.stacks[u][-1] is it):
            raise ContractError("next-fit trigger is not on top of its machine")
        st.pop(u)
        if it.kind == PIECE:
            st.insert(u + 1, 0, st.setup(inst, it.cls))
            st.insert(u + 1, 1, it)
        else:
            st.insert(u + 1, 0, it)
    # Trailing setups serve no job: drop them.
    for u in range(len(st.stacks)):
        while st.stacks[u] and st.stacks[u][-1].kind == SETUP:
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
    big_jobs     refs with t_j > T/2
    forced       refs of cheap classes with t_j <= T/2 but s_i + t_j > T/2
    solo         all jobs that cannot share a machine with another solo job
    blocked      True when some class has T <= s_i (guaranteed reject)
    """

    machines: list[int]
    leftover: list[Rat]
    big_jobs: list[JobRef]
    forced: list[JobRef]
    solo: list[JobRef]
    blocked: bool = False


def counts_nonp(inst: Instance, guess: Rat) -> NonpCounts:
    # integer comparisons against guess p/q: x > guess/2 iff 2 x q > p
    p_, q_ = guess.numerator, guess.denominator
    machines: list[int] = []
    leftover: list[Rat] = []
    big: list[JobRef] = []
    forced: list[JobRef] = []
    solo: list[JobRef] = []
    blocked = False
    for i, cl in enumerate(inst.classes):
        if 2 * cl.setup * q_ > p_:
            if p_ <= cl.setup * q_:
                blocked = True
                machines.append(0)
                leftover.append(Fraction(0))
                continue
            mi = math.ceil(Fraction(cl.total) / (guess - cl.setup))
            solo += [(i, j) for j in range(len(cl.jobs))]
        else:
            kw = 0
            nbig = 0
            sq2 = 2 * cl.setup * q_
            for j, t in enumerate(cl.jobs):
                if 2 * t * q_ > p_:
                    nbig += 1
                    big.append((i, j))
                    solo.append((i, j))
                elif sq2 + 2 * t * q_ > p_:
                    kw += t
                    forced.append((i, j))
                    solo.append((i, j))
            mi = nbig + (math.ceil(Fraction(kw) / (guess - cl.setup)) if kw else 0)
        machines.append(mi)
        leftover.append(Fraction(cl.total) - mi * (guess - cl.setup))
    return NonpCounts(
        machines=machines,
        leftover=leftover,
        big_jobs=big,
        forced=forced,
        solo=solo,
        blocked=blocked,
    )


def _decide_nonp(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess; its plan is the NonpCounts."""
    early = job_bound_decision(inst, guess)
    if early is not None:
        return early
    counts = counts_nonp(inst, guess)
    if counts.blocked:  # the job-setup bound implies T > s_i for all i
        raise ContractError("class with setup at or above the guess passed the job bound")
    load = Fraction(inst.total_work)
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
    st = _Stacks(inst.m, scale)
    solo = set(counts.solo)
    fill_targets: dict[int, list[int]] = {}

    # Step 1: jobs that cannot share a machine.  Expensive classes wrap over
    # their machine minimum; each big cheap job opens its own machine; the
    # remaining forced cheap jobs wrap class by class.
    forced_by_cls: dict[int, list[tuple[JobRef, int]]] = {}
    for ref in counts.forced:
        forced_by_cls.setdefault(ref[0], []).append((ref, inst.duration(ref) * scale))
    big_by_cls: dict[int, list[int]] = {}
    for i, j in counts.big_jobs:
        big_by_cls.setdefault(i, []).append(j)
    for i, cl in enumerate(inst.classes):
        targets: list[int] = []
        setup = cl.setup * scale
        if 2 * setup > T:
            items = [((i, j), t * scale) for j, t in enumerate(cl.jobs)]
            used = _stack_wrap(st, i, setup, items, T)
            targets = [used[-1]]
        else:
            for j in big_by_cls.get(i, ()):
                u = st.new_machine()
                st.push_setup(u, i, setup)
                st.push_piece(u, i, (i, j), cl.jobs[j] * scale)
                targets.append(u)
            if i in forced_by_cls:
                used = _stack_wrap(st, i, setup, forced_by_cls[i], T)
                targets.append(used[-1])
        fill_targets[i] = targets

    # Step 2: top the opened machines of each cheap class up to the guess with
    # its remaining jobs, cutting at the border.
    residual: dict[int, list[tuple[str, JobRef, int]]] = {}  # class -> its PIECE items
    for i, cl in enumerate(inst.classes):
        if 2 * cl.setup * scale > T:
            continue
        rest = [((i, j), t * scale) for j, t in enumerate(cl.jobs) if (i, j) not in solo]
        out: list[tuple[str, JobRef, int]] = []
        targets = fill_targets[i]
        ti = 0
        for ref, dur in rest:
            while dur > 0 and ti < len(targets):
                u = targets[ti]
                room = T - st.loads[u]
                if room <= 0:
                    ti += 1
                    continue
                take = min(room, dur)
                st.push_piece(u, i, ref, take)
                dur -= take
            if dur > 0:
                out.append((PIECE, ref, dur))
        if out:
            residual[i] = out
        want = max(scaled(counts.leftover[i], scale), 0)
        got = sum(d for _, _, d in out)
        if got != want:
            raise ContractError(f"residual work {got} != leftover bound {want}")

    # Step 3: one fresh setup per class with residual work, then greedy over
    # machines below the guess (opened ones first, then fresh), keeping items
    # whole even when they stick out.
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
            for kind, ref, dur in [(SETUP, None, inst.classes[i].setup * scale), *residual[i]]:
                if st.loads[u] >= T:
                    u = advance()
                if kind == SETUP:
                    it = st.push_setup(u, i, dur, step3=True)
                else:
                    it = st.push_piece(u, i, ref, dur, step3=True)
                if not order or order[-1] != u:
                    order.append(u)
                if st.loads[u] > T:
                    it.crossed = True  # stays whole; the greedy just moves on

    _repair(inst, st, order, T)
    return st.to_schedule()


def _repair(inst: Instance, st: _Stacks, order: list[int], guess: int):
    """Step 4 (guess on the stacks' scale): make the schedule non-preemptive,
    then fix loads and setups."""
    # Pieces per job in more than one piece, that is per piece shorter than
    # its job: split in step 1 or 2 (or its tail travelled through step 3).
    pieces: dict[JobRef, list[tuple[int, _Item]]] = {}
    for u, stack in enumerate(st.stacks):
        for it in stack:
            if it.kind == PIECE and it.dur != inst.duration(it.ref) * st.scale:
                pieces.setdefault(it.ref, []).append((u, it))
    for u in range(len(st.stacks)):
        stack = st.stacks[u]
        if not stack:
            continue
        last = stack[-1]
        if last.kind != PIECE:
            continue
        family = pieces.get(last.ref, [])
        if len(family) < 2:
            continue
        if last.seq != min(it.seq for _, it in family):
            continue  # only the first piece is swapped for its whole parent
        whole = inst.duration(last.ref) * st.scale
        grow = whole - last.dur
        last.dur = whole
        st.loads[u] += grow
        for v, other in family:
            if other is not last:
                st.remove(v, other)
        pieces[last.ref] = [(u, last)]

    # Items recorded as crossing the guess move to the next machine of the
    # greedy order (fresh setup in front of moved jobs); a class whose jobs
    # continue on the next machine without a crossing predecessor gets a
    # setup inserted below the continuation.
    carry: Optional[_Item] = None
    for idx, u in enumerate(order):
        stack = st.stacks[u]
        ins = next((k for k, it in enumerate(stack) if it.step3), len(stack))
        if carry is not None:
            if carry.kind == PIECE:
                st.insert(u, ins, st.setup(inst, carry.cls))
                st.insert(u, ins + 1, carry)
            else:
                st.insert(u, ins, carry)
            carry = None
        elif ins < len(stack) and stack[ins].kind == PIECE:
            covered = ins > 0 and stack[ins - 1].cls == stack[ins].cls
            if not covered:
                st.insert(u, ins, st.setup(inst, stack[ins].cls))
        if stack and stack[-1].crossed:
            it = st.pop(u)
            it.crossed = False
            if idx < len(order) - 1:
                carry = it
            else:
                # no successor in the greedy order: park the item on an empty
                # machine, or on any other machine still at or below the guess
                target = None
                if len(st.stacks) < st.m:
                    target = st.new_machine()
                else:
                    for v in range(len(st.stacks)):
                        if v != u and st.loads[v] <= guess:
                            target = v
                            break
                if target is None:
                    raise ContractError("repair found no machine for the final item")
                if it.kind == PIECE:
                    st._push(target, st.setup(inst, it.cls))
                st._push(target, it)
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
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    # all smaller integers are rejected or under T_min
    return probe.finish(dual_nonp, inst, Fraction(hi), Fraction(hi))
