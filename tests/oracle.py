"""Ground truth for small instances: exact non-preemptive optimum by
exhaustive assignment enumeration, a dense breakpoint scan that finds the
least guess a variant's dual accepts, and two references the library is
compared with: the verifier that the one-pass `verify_schedule` replaced and
the non-preemptive construction that the tuple-stack build replaced."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from batchsched.core import (
    PIECE,
    SETUP,
    ContractError,
    Instance,
    JobRef,
    Rat,
    Schedule,
    Variant,
    VerifyReport,
    Violation,
    lower_bound_tmin,
    scaled,
    trivial_one_job_per_machine,
)


def exact_nonp(inst: Instance, guard: bool = True) -> int:
    """Minimum makespan over all job-to-machine assignments (order on a
    machine does not matter: its load is the jobs plus one setup per distinct
    class).  Exponential; guarded to n <= 10, m <= 4."""
    if guard and (inst.n > 10 or min(inst.m, inst.n) > 4):
        raise ContractError("exact_nonp is limited to n <= 10 and 4 effective machines")
    jobs = [(i, t) for i, cl in enumerate(inst.classes) for t in cl.jobs]
    jobs.sort(key=lambda e: -e[1])
    m = min(inst.m, len(jobs))
    setups = [cl.setup for cl in inst.classes]
    loads = [0] * m
    members: list[dict[int, int]] = [dict() for _ in range(m)]
    best = inst.total_load + 1

    def rec(k: int, cur_max: int):
        nonlocal best
        if cur_max >= best:
            return
        if k == len(jobs):
            best = cur_max
            return
        i, t = jobs[k]
        opened_empty = False
        for u in range(m):
            if loads[u] == 0:
                if opened_empty:
                    continue  # empty machines are interchangeable
                opened_empty = True
            add = t + (0 if i in members[u] else setups[i])
            new = loads[u] + add
            if new >= best:
                continue
            loads[u] = new
            members[u][i] = members[u].get(i, 0) + 1
            rec(k + 1, max(cur_max, new))
            members[u][i] -= 1
            if members[u][i] == 0:
                del members[u][i]
            loads[u] -= add
        return

    rec(0, 0)
    return best


def _scan_candidates(inst: Instance, variant: Variant) -> list[Rat]:
    m, n = inst.m, inst.n
    kmax = m + 2 * n
    cands: set[Rat] = set()
    if variant is Variant.NONPREEMPTIVE:
        tmin = lower_bound_tmin(inst, variant)
        lo, hi = math.ceil(tmin), math.ceil(2 * tmin)
        if hi - lo + 1 > 100_000:
            raise ContractError("breakpoint budget exceeded")
        return [Fraction(k) for k in range(lo, hi + 1)]
    for i, cl in enumerate(inst.classes):
        s = Fraction(cl.setup)
        p = cl.total
        cands.add(2 * s)
        for k in range(1, kmax + 1):
            cands.add(Fraction(2 * p, k))
        if variant is Variant.PREEMPTIVE:
            reach = s + p
            cands.update((4 * s, reach, Fraction(4, 3) * reach))
            for t in cl.jobs:
                cands.add(2 * (s + t))
            for k in range(1, kmax + 1):
                cands.add(2 * reach / (k + 2))
    cands.add(Fraction(inst.total_load, m))
    cands.add(Fraction(inst.total_load))
    tmin = lower_bound_tmin(inst, variant)
    cands.update((tmin, 2 * tmin, Fraction(inst.s_max)))
    ordered = sorted(v for v in cands if v > 0)
    if len(ordered) > 100_000:
        raise ContractError("breakpoint budget exceeded")
    full = []
    for a, b in zip(ordered, ordered[1:]):
        full.append(a)
        full.append((a + b) / 2)
    full.append(ordered[-1])
    return full


def min_accepted_scan(inst: Instance, variant: Variant) -> Rat:
    """Least accepted guess over a dense grid: every breakpoint at which the
    dual's decision can change, plus all midpoints in between.  Candidates are
    probed in ascending order; the first acceptance is returned."""
    from batchsched.search import variant_ops

    decide = variant_ops(variant).decide
    for guess in _scan_candidates(inst, variant):
        if decide(inst, guess).accepted:
            return guess
    raise ContractError("no accepted candidate; scan grid broken")


def _check_machine(inst: Instance, label, rows, scale: int, out: list[Violation]):
    """Rules (a) and (b) on one machine.  rows are (start, end, placement)
    with start and end on the time scale, in any order."""
    classes = inst.classes
    prev_end = None
    ready: Optional[int] = None

    def flag(rule: str, message: str):  # at the current row's start
        out.append(Violation(rule, label, Fraction(start, scale), message))

    for start, end, (kind, cls, _, _, job, _) in sorted(rows, key=itemgetter(0, 1)):
        if not (0 <= cls < len(classes)):
            flag("s", f"unknown class {cls}")
            continue
        if start < 0:
            flag("a", "placement starts before time 0")
        if end <= start:
            flag("a", "placement with non-positive duration")
        if prev_end is not None and start < prev_end:
            flag("a", "placements overlap on the machine")
        prev_end = end if prev_end is None else max(prev_end, end)
        if kind == SETUP:
            if end - start != classes[cls].setup * scale:
                flag("b", f"setup of class {cls} has length {Fraction(end - start, scale)}, "
                          f"expected {classes[cls].setup}")
            ready = cls
        else:
            if job is None or not (0 <= job < len(classes[cls].jobs)):
                flag("s", f"unknown job id ({cls}, {job})")
                continue
            if ready != cls:
                flag("b", f"piece of class {cls} not preceded by a setup of its class")


def reference_verify(inst: Instance, sched: Schedule, variant: Variant, bound: Rat) -> VerifyReport:
    """The verifier as it was before it became one pass on flat job indices,
    kept as the reference its reports must equal.  Checks a schedule against
    every feasibility rule of the variant.

    Returns a report with all violations; `ok` means none.  Compressed parts
    are verified without materializing the copies: per-machine rules run once
    per configuration, job-total and parallelism accounting multiply by the
    multiplicity.  The rules run on the schedule's own times over
    `sched.scale` with +, -, comparisons, `* scale` and `Fraction(t, scale)`
    only: ints for every library-built and parsed schedule, and exactly the
    same rules on a hand-built schedule's Fractions.  The report holds
    Fractions.
    """
    out: list[Violation] = []

    if sched.machine_count() > inst.m:
        out.append(
            Violation(
                "s", "-", Fraction(0),
                f"schedule uses {sched.machine_count()} machines, instance has {inst.m}",
            )
        )

    scale = sched.scale
    top = 0
    # intervals[ref] = list of (start, end, copies) on the time scale; copies
    # > 1 only possible from compressed configurations.
    intervals: dict[JobRef, list[tuple[int, int, int]]] = {}
    totals: dict[JobRef, int] = {}
    counts: dict[JobRef, int] = {}

    parts = [(idx, mach, 1) for idx, mach in enumerate(sched.machines)]
    parts += [(f"compressed[{k}]", config, mult) for k, (config, mult) in enumerate(sched.compressed)]
    for label, placements, copies in parts:
        rows = [(start := p[2], start + p[3], p) for p in placements]
        top = max(top, max((end for _, end, _ in rows), default=0))
        if copies < 1:
            out.append(Violation("s", label, Fraction(0), "multiplicity < 1"))
            continue
        _check_machine(inst, label, rows, scale, out)
        for start, end, (kind, cls, _, _, job, _) in rows:
            if kind != PIECE or job is None:
                continue
            if not (0 <= cls < inst.c and 0 <= job < len(inst.classes[cls].jobs)):
                continue
            ref = (cls, job)
            totals[ref] = totals.get(ref, 0) + (end - start) * copies
            counts[ref] = counts.get(ref, 0) + copies
            intervals.setdefault(ref, []).append((start, end, copies))

    for ref in [(i, j) for i, cl in enumerate(inst.classes) for j in range(len(cl.jobs))]:
        want = inst.classes[ref[0]].jobs[ref[1]]
        got = totals.get(ref, 0)
        if got != want * scale:
            out.append(
                Violation(
                    "c", "-", Fraction(0),
                    f"job {ref} placed for {Fraction(got, scale)} time units, needs exactly {want}",
                )
            )

    if variant is Variant.NONPREEMPTIVE:
        for ref, k in counts.items():
            if k != 1:
                out.append(
                    Violation("d", "-", Fraction(0), f"job {ref} split into {k} pieces")
                )
    elif variant is Variant.PREEMPTIVE:
        for ref, ivs in intervals.items():
            bad = False
            for start, end, copies in ivs:
                if copies > 1:
                    bad = True
                    out.append(
                        Violation(
                            "e", "-", Fraction(start, scale),
                            f"job {ref} runs on {copies} identical machines in parallel",
                        )
                    )
                    break
            if bad:
                continue
            ivs_sorted = sorted(ivs)
            for (s1, e1, _), (s2, e2, _) in zip(ivs_sorted, ivs_sorted[1:]):
                if s2 < e1:
                    out.append(
                        Violation("e", "-", Fraction(s2, scale), f"pieces of job {ref} overlap in time")
                    )
                    break

    makespan = Fraction(top, scale)
    if makespan > bound:
        out.append(
            Violation("f", "-", makespan, f"makespan {makespan} exceeds bound {bound}")
        )

    return VerifyReport(ok=not out, makespan=makespan, violations=out)


# ---------------------------------------------------------------------------
# Reference non-preemptive construction
# ---------------------------------------------------------------------------
#
# The non-preemptive dual's counts, construction and next-fit 2-approximation
# as they were before their machine stacks became plain tuples: one mutable
# _Item per setup and piece, carrying its creation order and the repair's
# step-3 and crossing flags.  Kept as the reference the tuple build must
# equal.  `branches`, when given, counts how often each repair branch runs.


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
        machines: list[list] = []
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


def reference_next_fit_two_approx(inst: Instance, variant: Variant) -> tuple[Schedule, Rat]:
    if variant is Variant.SPLITTABLE:
        raise ContractError("next-fit two-approximation covers pmtn and nonp only")
    if inst.m >= inst.n:
        sched = trivial_one_job_per_machine(inst)
        return sched, sched.makespan()
    tmin = lower_bound_tmin(inst, variant)
    st = _Stacks(inst.m)
    cur = st.new_machine()
    trigger: dict[int, _Item] = {}
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
    for u in range(len(st.stacks)):
        while st.stacks[u] and st.stacks[u][-1].kind == SETUP:
            st.pop(u)
    st.stacks = [s for s in st.stacks if s]
    sched = st.to_schedule()
    makespan = sched.makespan()
    if makespan > 2 * tmin:
        raise ContractError(f"next-fit makespan {makespan} exceeds 2*T_min")
    return sched, makespan


@dataclass
class ReferenceNonpCounts:
    machines: list[int]
    leftover: list[Rat]
    big_jobs: list[JobRef]  # refs with t_j > T/2
    forced: list[JobRef]  # refs of cheap classes with t_j <= T/2 but s_i + t_j > T/2
    solo: list[JobRef]  # all jobs that cannot share a machine with another solo job
    blocked: bool = False


def reference_counts_nonp(inst: Instance, guess: Rat) -> ReferenceNonpCounts:
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
    return ReferenceNonpCounts(machines, leftover, big, forced, solo, blocked)


def reference_build_nonp(inst: Instance, guess: Rat, branches: Optional[Counter] = None) -> Schedule:
    """The construction for a guess the dual accepts with a plan (m < n), on
    the scale q of the guess p/q."""
    counts = reference_counts_nonp(inst, guess)
    scale, T = guess.denominator, guess.numerator
    st = _Stacks(inst.m, scale)
    solo = set(counts.solo)
    fill_targets: dict[int, list[int]] = {}

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

    residual: dict[int, list[tuple[str, JobRef, int]]] = {}
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
                    it.crossed = True

    _reference_repair(inst, st, order, T, Counter() if branches is None else branches)
    return st.to_schedule()


def _reference_repair(inst: Instance, st: _Stacks, order: list[int], guess: int, branches: Counter):
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
            continue
        branches["first-piece swap"] += 1
        whole = inst.duration(last.ref) * st.scale
        grow = whole - last.dur
        last.dur = whole
        st.loads[u] += grow
        for v, other in family:
            if other is not last:
                st.remove(v, other)
        pieces[last.ref] = [(u, last)]

    carry: Optional[_Item] = None
    for idx, u in enumerate(order):
        stack = st.stacks[u]
        ins = next((k for k, it in enumerate(stack) if it.step3), len(stack))
        if carry is not None:
            if carry.kind == PIECE:
                branches["carried piece"] += 1
                st.insert(u, ins, st.setup(inst, carry.cls))
                st.insert(u, ins + 1, carry)
            else:
                branches["carried setup"] += 1
                st.insert(u, ins, carry)
            carry = None
        elif ins < len(stack) and stack[ins].kind == PIECE:
            covered = ins > 0 and stack[ins - 1].cls == stack[ins].cls
            if not covered:
                branches["uncovered continuation"] += 1
                st.insert(u, ins, st.setup(inst, stack[ins].cls))
        if stack and stack[-1].crossed:
            it = st.pop(u)
            it.crossed = False
            if idx < len(order) - 1:
                carry = it
            else:
                target = None
                if len(st.stacks) < st.m:
                    branches["parked on a new machine"] += 1
                    target = st.new_machine()
                else:
                    for v in range(len(st.stacks)):
                        if v != u and st.loads[v] <= guess:
                            branches["parked on an existing machine"] += 1
                            target = v
                            break
                if target is None:
                    raise ContractError("repair found no machine for the final item")
                if it.kind == PIECE:
                    st._push(target, st.setup(inst, it.cls))
                st._push(target, it)
    if carry is not None:
        raise ContractError("repair left an item unplaced")
