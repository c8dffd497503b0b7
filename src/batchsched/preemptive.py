"""Preemptive scheduling: jobs may be cut, but never run in parallel.

For a guess T the classes split into expensive and cheap layers.  Expensive
classes whose setup+work almost fills a machine (between 3/4 T and T) each
get a dedicated "large" machine; what the remaining machines cannot take of
the small-setup cheap classes must go onto the large machines, and picking
which classes stay whole outside them is a continuous knapsack problem.  The
rest is an easy ("nice") instance placed by wrapping.

The class-jumping search walks the finitely many guesses at which some class
needs another machine instead of bisecting, which yields the exact smallest
guess the dual accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    ClassPartition,
    ContractError,
    Decision,
    DualOutcome,
    Instance,
    JobRef,
    Rat,
    Schedule,
    Variant,
    classify,
    decide_need,
    decided_outcome,
    job_bound_decision,
    lower_bound_tmin,
)
from .search import (
    CachedProbe,
    SearchResult,
    _bisect_right_interval,
    class_jump_walk,
    trivial_search,
)
from .wrap import Batch, Builder, Gap, run_wrap


# ---------------------------------------------------------------------------
# Continuous knapsack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnapsackItem:
    cls: int
    profit: Rat  # > 0
    weight: Rat  # >= 0


@dataclass
class KnapsackSolution:
    x: dict[int, Rat]  # item -> share in [0, 1]; all 0/1 except the split item
    split_item: Optional[int]
    value: Rat


def continuous_knapsack(items: list[KnapsackItem], capacity: Rat) -> KnapsackSolution:
    """Greedy by profit density; optimal for the continuous relaxation.

    Weightless items are taken outright.  At most one item is fractional; ties
    in density break towards the smaller class index.
    """
    if capacity < 0:
        raise ContractError("knapsack capacity must be >= 0")
    free = [it for it in items if it.weight == 0]
    rest = sorted(
        (it for it in items if it.weight > 0),
        key=lambda it: (-(it.profit / it.weight), it.cls),
    )
    x: dict[int, Rat] = {}
    value = Fraction(0)
    for it in free:
        x[it.cls] = Fraction(1)
        value += it.profit
    remaining = Fraction(capacity)
    split: Optional[int] = None
    for it in rest:
        if remaining >= it.weight:
            x[it.cls] = Fraction(1)
            value += it.profit
            remaining -= it.weight
        elif remaining > 0:
            share = remaining / it.weight
            x[it.cls] = share
            value += share * it.profit
            split = it.cls
            remaining = Fraction(0)
        else:
            x[it.cls] = Fraction(0)
    return KnapsackSolution(x=x, split_item=split, value=value)


# ---------------------------------------------------------------------------
# Nice instances (no class with 3/4 T < setup + work < T)
# ---------------------------------------------------------------------------

# A class spec is (class id, setup, [(job ref, duration), ...], total work);
# durations may be fractional job pieces.
ClsSpec = tuple[int, int, list[tuple[JobRef, Rat]], Rat]


def _gamma_count(setup: Rat, work: Rat, guess: Rat) -> int:
    """Machines the half-gap packing occupies for an expensive heavy class:
    max(1, ceil(2(s+P)/T) - 2).  It only steps on the grid 2(s+P)/k,
    continuously from the right, so the dual's accept boundary is attained."""
    return max(1, math.ceil(2 * (setup + work) / guess) - 2)


@dataclass
class _NiceParts:
    plus: list[ClsSpec]  # expensive, setup + work > T
    minus: list[ClsSpec]  # expensive, setup + work <= 3/4 T
    cheap: list[ClsSpec]
    gamma: dict[int, int]


def _nice_parts(specs: list[ClsSpec], guess: Rat) -> _NiceParts:
    """Split a nice instance at the guess, right-continuously: a class with
    setup + work equal to the guess belongs to the almost-full layer, as it
    does just above the guess."""
    half = guess / 2
    plus, minus, cheap = [], [], []
    gamma: dict[int, int] = {}
    for spec in specs:
        cls, setup, items, work = spec
        if setup > half:
            reach = setup + work
            if reach > guess:
                if guess <= setup:
                    raise ContractError("nice construction needs T > every setup")
                gamma[cls] = _gamma_count(setup, work, guess)
                plus.append(spec)
            elif reach <= Fraction(3, 4) * guess:
                minus.append(spec)
            else:
                raise ContractError("instance is not nice for this guess")
        else:
            cheap.append(spec)
    return _NiceParts(plus=plus, minus=minus, cheap=cheap, gamma=gamma)


def _decide_nice_parts(parts: _NiceParts, m: int, guess: Rat) -> Decision:
    """Whether m machines take the nice instance at the guess."""
    load = Fraction(0)
    machines = (len(parts.minus) + 1) // 2
    for cls, setup, _, work in parts.plus:
        load += parts.gamma[cls] * setup + work
        machines += parts.gamma[cls]
    for _, setup, _, work in parts.minus + parts.cheap:
        load += setup + work
    return decide_need(m, guess, load, machines)


def _build_nice(builder: Builder, parts: _NiceParts, first: int, count: int, guess: Rat) -> None:
    """Place a nice instance on machines first..first+count-1.

    Each expensive heavy class gets gaps of height T/2 above its setups, with
    the overflow piled onto its last machine (the shape whose reshape points
    the jump search walks).
    """
    base = first
    limit = first + count
    threehalf = Fraction(3, 2) * guess

    for cls, setup, items, _ in parts.plus:
        s = Fraction(setup)
        batch = Batch(cls=cls, setup=s, jobs=tuple(items))
        g = parts.gamma[cls]
        if g == 1:
            gaps = [Gap(base, Fraction(0), threehalf)]
        else:
            gaps = [Gap(base, Fraction(0), s + guess / 2)]
            gaps += [Gap(base + r, s, s + guess / 2) for r in range(1, g - 1)]
            gaps.append(Gap(base + g - 1, s, threehalf))
        if base + g > limit:
            raise ContractError("nice construction ran out of machines")
        run_wrap(builder, [batch], gaps)
        base += g

    odd_machine: Optional[int] = None
    mm = parts.minus
    for k in range(0, len(mm) - 1, 2):
        u = base
        base += 1
        if u >= limit:
            raise ContractError("nice construction ran out of machines")
        t = Fraction(0)
        for cls, setup, items, _ in (mm[k], mm[k + 1]):
            builder.put_setup(u, cls, t, Fraction(setup))
            t += setup
            for ref, dur in items:
                builder.put_piece(u, cls, ref, t, dur)
                t += dur
    if len(mm) % 2 == 1:
        cls, setup, items, _ = mm[-1]
        odd_machine = base
        base += 1
        if odd_machine >= limit:
            raise ContractError("nice construction ran out of machines")
        t = Fraction(0)
        builder.put_setup(odd_machine, cls, t, Fraction(setup))
        t += setup
        for ref, dur in items:
            builder.put_piece(odd_machine, cls, ref, t, dur)
            t += dur

    if not parts.cheap:
        return
    gaps = []
    if odd_machine is not None:
        gaps.append(Gap(odd_machine, guess, threehalf))
    gaps += [Gap(u, guess / 2, threehalf) for u in range(base, limit)]
    seq = [
        Batch(cls=cls, setup=Fraction(setup), jobs=tuple(items))
        for cls, setup, items, _ in parts.cheap
    ]
    run_wrap(builder, seq, gaps)


def _full_specs(inst: Instance, indices) -> list[ClsSpec]:
    out = []
    for i in indices:
        cl = inst.classes[i]
        items = [((i, j), Fraction(t)) for j, t in enumerate(cl.jobs)]
        out.append((i, cl.setup, items, Fraction(cl.total)))
    return out


# ---------------------------------------------------------------------------
# General instances
# ---------------------------------------------------------------------------


@dataclass
class _PmtnPlan:
    """Everything the decision and the construction share for one guess."""

    part: ClassPartition
    nice: bool = False
    nice_parts: Optional[_NiceParts] = None
    large: list[int] = field(default_factory=list)  # classes on dedicated machines
    free_time: Rat = Fraction(0)  # F: room for small-setup classes off the large machines
    case_a: bool = False
    knapsack: Optional[KnapsackSolution] = None
    split_cls: Optional[int] = None
    obligatory: dict[int, Rat] = field(default_factory=dict)  # L*_i per star class
    load: Rat = Fraction(0)
    machines: int = 0
    # Set when the guess is certified infeasible before the load/machine
    # comparison: setups of at least a quarter guess can never share a machine
    # with a dedicated almost-full class, so negative free time (or negative
    # knapsack capacity) already proves guess < OPT.
    reject: Optional[str] = None


def _pmtn_plan(inst: Instance, guess: Rat) -> _PmtnPlan:
    part = classify(inst, guess, right_continuous=True)
    half = guess / 2
    plan = _PmtnPlan(part=part)
    if not part.exp_zero:
        plan.nice = True
        plan.nice_parts = _nice_parts(_full_specs(inst, range(inst.c)), guess)
        d = _decide_nice_parts(plan.nice_parts, inst.m, guess)
        plan.load, plan.machines = d.load, d.machines
        return plan

    def count(i: int) -> int:
        return _gamma_count(inst.classes[i].setup, inst.classes[i].total, guess)

    plan.large = list(part.exp_zero)
    l = len(plan.large)
    free = (inst.m - l) * guess
    for i in part.exp_plus:
        cl = inst.classes[i]
        free -= count(i) * cl.setup + cl.total
    for i in list(part.exp_minus) + list(part.chp_plus):
        cl = inst.classes[i]
        free -= cl.setup + cl.total
    plan.free_time = free

    star_total = sum(
        inst.classes[i].setup + inst.classes[i].total for i in part.chp_star
    )
    machines = l + (len(part.exp_minus) + 1) // 2
    for i in part.exp_plus:
        machines += count(i)
    plan.machines = machines

    load = Fraction(inst.total_work)
    plus_set = set(part.exp_plus)
    for i, cl in enumerate(inst.classes):
        if i in plus_set:
            load += count(i) * cl.setup
        else:
            load += cl.setup

    if free < 0:
        # The classes outside the dedicated machines alone overrun the other
        # m - l machines: certified infeasible.
        plan.load = load
        plan.reject = "load"
        return plan

    plan.case_a = free < star_total
    if plan.case_a:
        items = []
        lstar_sum = Fraction(0)
        for i in part.chp_star:
            cl = inst.classes[i]
            big = part.big_jobs[i]
            ob = sum(Fraction(cl.jobs[j]) for j in big) - len(big) * (half - cl.setup)
            plan.obligatory[i] = ob
            lstar_sum += cl.setup + ob
            items.append(KnapsackItem(cls=i, profit=Fraction(cl.setup), weight=Fraction(cl.total) - ob))
        capacity = free - lstar_sum
        if capacity < 0:
            # Even the unavoidable spill of the oversized-job classes exceeds
            # the room outside the dedicated machines.
            plan.load = load
            plan.reject = "load"
            return plan
        plan.knapsack = continuous_knapsack(items, capacity)
        plan.split_cls = plan.knapsack.split_item
        for i in part.chp_star:
            if plan.knapsack.x.get(i, Fraction(0)) == 0:
                load += inst.classes[i].setup
    plan.load = load
    return plan


def _decide_pmtn(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess; its plan is the _PmtnPlan."""
    early = job_bound_decision(inst, guess)
    if early is not None:
        return early
    plan = _pmtn_plan(inst, guess)
    if plan.reject is not None:
        # load/machines deliberately None: the reject is a geometric
        # certificate, not captured by the load comparison
        return Decision(False, plan.reject, plan=plan)
    return decide_need(inst.m, guess, plan.load, plan.machines, plan)


def dual_pmtn(inst: Instance, guess: Rat) -> DualOutcome:
    """Either a preemptive schedule with makespan <= (3/2)*guess (no two
    pieces of one job overlapping in time) or a certificate guess < OPT.

    Heavy classes are counted by the half-gap packing
    max(1, ceil(2(s+P)/T) - 2), with the matching construction.
    """
    return decided_outcome(inst, guess, _decide_pmtn(inst, guess), _build_pmtn)


def _build_pmtn(inst: Instance, guess: Rat, plan: _PmtnPlan) -> Schedule:
    builder = Builder(inst.m)
    if plan.nice:
        _build_nice(builder, plan.nice_parts, 0, inst.m, guess)
        return builder.finalize()

    part = plan.part
    half = guess / 2
    quarter = guess / 4
    l = len(plan.large)

    # Dedicated machines: one almost-full expensive class each, starting at
    # half the guess so their bottoms stay free for leftovers.
    for u, i in enumerate(plan.large):
        cl = inst.classes[i]
        t = half
        builder.put_setup(u, i, t, Fraction(cl.setup))
        t += cl.setup
        for j, dur in enumerate(cl.jobs):
            builder.put_piece(u, i, (i, j), t, Fraction(dur))
            t += dur

    # Split every oversized job of a small-setup class: the head fits below
    # half the guess next to its setup, the tail must leave the large machines.
    head_dur: dict[JobRef, Rat] = {}
    tail_dur: dict[JobRef, Rat] = {}
    for i in part.chp_star:
        cl = inst.classes[i]
        for j in part.big_jobs[i]:
            head_dur[(i, j)] = half - cl.setup
            tail_dur[(i, j)] = cl.setup + cl.jobs[j] - half

    sub_specs: list[ClsSpec] = _full_specs(
        inst, list(part.exp_plus) + list(part.exp_minus) + list(part.chp_plus)
    )
    leftovers: list[tuple[int, JobRef, Rat]] = []  # (class, job, duration)
    split_cls = None
    star = set(part.chp_star)

    if plan.case_a:
        sol = plan.knapsack
        split_cls = plan.split_cls
        for i in part.chp_star:
            cl = inst.classes[i]
            share = sol.x.get(i, Fraction(0))
            big = set(part.big_jobs[i])
            if i == split_cls:
                inside: list[tuple[JobRef, Rat]] = []
                for j, t in enumerate(cl.jobs):
                    if j in big:
                        d2 = share * head_dur[(i, j)] + tail_dur[(i, j)]
                    else:
                        d2 = share * t
                    inside.append(((i, j), d2))
                    rest = Fraction(t) - d2
                    if rest > 0:
                        leftovers.append((i, (i, j), rest))
                total2 = sum((d for _, d in inside), Fraction(0))
                want = plan.obligatory[i] + share * (Fraction(cl.total) - plan.obligatory[i])
                if total2 != want:
                    raise ContractError("split-class bookkeeping broken")
                sub_specs.append((i, cl.setup, inside, total2))
            elif share == 1:
                sub_specs += _full_specs(inst, [i])
            else:  # share == 0: only the obligatory tails leave the bottom
                inside = [((i, j), tail_dur[(i, j)]) for j in part.big_jobs[i]]
                sub_specs.append((i, cl.setup, inside, plan.obligatory[i]))
                for j, t in enumerate(cl.jobs):
                    if j in big:
                        leftovers.append((i, (i, j), head_dur[(i, j)]))
                    else:
                        leftovers.append((i, (i, j), Fraction(t)))
        for i in part.chp_minus:
            if i not in star:
                cl = inst.classes[i]
                for j, t in enumerate(cl.jobs):
                    leftovers.append((i, (i, j), Fraction(t)))
    else:
        # Case without a knapsack: everything with an oversized job fits
        # outside the large machines whole; greedily cut the remaining
        # small-setup classes so the nice remainder exactly uses the free time.
        sub_specs += _full_specs(inst, part.chp_star)
        budget = plan.free_time - sum(
            inst.classes[i].setup + inst.classes[i].total for i in part.chp_star
        )
        if budget < 0:
            raise ContractError("oversized-job classes overrun the free time")
        for i in part.chp_minus:
            if i in star:
                continue
            cl = inst.classes[i]
            reach = cl.setup + cl.total
            if reach <= budget:
                sub_specs += _full_specs(inst, [i])
                budget -= reach
            elif budget > cl.setup:
                inside: list[tuple[JobRef, Rat]] = []
                room = budget - cl.setup
                split_cls = i
                for j, t in enumerate(cl.jobs):
                    if room <= 0:
                        leftovers.append((i, (i, j), Fraction(t)))
                        continue
                    take = min(room, Fraction(t))
                    inside.append(((i, j), take))
                    room -= take
                    if take < t:
                        leftovers.append((i, (i, j), Fraction(t) - take))
                sub_specs.append((i, cl.setup, inside, budget - cl.setup))
                budget = Fraction(0)
            else:
                for j, t in enumerate(cl.jobs):
                    leftovers.append((i, (i, j), Fraction(t)))
                budget = Fraction(0)  # nothing more fits wholly

    # The nice remainder occupies the machines after the large ones.
    sub_specs.sort(key=lambda sp: sp[0])
    sub_specs = [sp for sp in sub_specs if sp[2]]
    parts = _nice_parts(sub_specs, guess)
    d = _decide_nice_parts(parts, inst.m - l, guess)
    if not d.accepted:
        raise ContractError(f"nice remainder rejected ({d.reason}); budget accounting broken")
    _build_nice(builder, parts, l, inst.m - l, guess)

    # Leftovers go to the bottoms of the large machines.  Everything here is
    # small: setup + piece fits in half the guess.
    for i, ref, dur in leftovers:
        if inst.classes[i].setup + dur > half:
            raise ContractError("leftover too large for a bottom")
    kplus = [(i, ref, dur) for i, ref, dur in leftovers if dur > quarter]
    kminus = [(i, ref, dur) for i, ref, dur in leftovers if dur <= quarter]

    def cls_order(i: int) -> tuple:
        return (0 if i == split_cls else 1, i)

    kplus.sort(key=lambda e: (cls_order(e[0]), e[1]))
    if len(kplus) > l:
        raise ContractError("more big leftovers than large machines")
    for u, (i, ref, dur) in enumerate(kplus):
        s = Fraction(inst.classes[i].setup)
        builder.put_setup(u, i, Fraction(0), s)
        builder.put_piece(u, i, ref, s, dur)
    lprime = len(kplus)

    if kminus:
        if lprime >= l:
            raise ContractError("no large machine left for small leftovers")
        by_cls: dict[int, list[tuple[JobRef, Rat]]] = {}
        for i, ref, dur in kminus:
            by_cls.setdefault(i, []).append((ref, dur))
        seq = [
            Batch(cls=i, setup=Fraction(inst.classes[i].setup), jobs=tuple(by_cls[i]))
            for i in sorted(by_cls, key=cls_order)
        ]
        gaps = [Gap(lprime, Fraction(0), half)]
        gaps += [Gap(u, quarter, half) for u in range(lprime + 1, l)]
        run_wrap(builder, seq, gaps)

    return builder.finalize()


# ---------------------------------------------------------------------------
# Class jumping
# ---------------------------------------------------------------------------


def _pmtn_breakpoints(inst: Instance, t_fail: Rat, t_ok: Rat, cap: int = 96):
    """All guesses in (t_fail, t_ok) at which the dual's decision data can
    change, assuming the class layers are constant on the bracket: machine
    count steps of the heavy classes, sign changes of the free time and the
    knapsack capacity, the case switch, density order flips and prefix
    saturation points of the knapsack.  Returns None when there are more than
    `cap` of them (caller bisects first)."""
    mid = (t_fail + t_ok) / 2
    part = classify(inst, mid)
    m, l = inst.m, len(part.exp_zero)
    breaks: set[Rat] = set()

    def note(v: Rat):
        if t_fail < v < t_ok:
            breaks.add(v)

    for i in part.exp_plus:
        cl = inst.classes[i]
        # steps of the half-gap count at 2(s+P)/d
        v2 = 2 * Fraction(cl.setup + cl.total)
        d_first = math.floor(v2 / t_ok) + 1
        d_last = math.ceil(v2 / t_fail) - 1
        if d_last - d_first > cap:
            return None
        for d in range(max(d_first, 1), d_last + 1):
            note(v2 / d)
        if len(breaks) > cap:
            return None

    if l and m > l:
        # With the machine counts frozen at the midpoint, the free time is
        # linear: F(T) = (m - l) T - g_const.
        g_const = Fraction(0)
        for i in part.exp_plus:
            cl = inst.classes[i]
            g_const += _gamma_count(cl.setup, cl.total, mid) * cl.setup + cl.total
        for i in list(part.exp_minus) + list(part.chp_plus):
            cl = inst.classes[i]
            g_const += cl.setup + cl.total
        star_total = sum(inst.classes[i].setup + inst.classes[i].total for i in part.chp_star)
        note(g_const / (m - l))  # F = 0
        note((g_const + star_total) / (m - l))  # case switch
        if part.chp_star:
            # weights w_i(T) = wa_i + wb_i T and capacity Y(T) = ya + yb T
            wa, wb, prof = {}, {}, {}
            la = Fraction(0)
            lb = Fraction(0)
            for i in part.chp_star:
                cl = inst.classes[i]
                big = part.big_jobs[i]
                # L*_i(T) = P(big) + |big| s_i - |big| T / 2
                la += cl.setup + sum(cl.jobs[j] for j in big) + len(big) * cl.setup
                lb -= Fraction(len(big), 2)
                wa[i] = Fraction(cl.total - sum(cl.jobs[j] for j in big) - len(big) * cl.setup)
                wb[i] = Fraction(len(big), 2)
                prof[i] = Fraction(cl.setup)
            ya = -g_const - la
            yb = Fraction(m - l) - lb
            note(-ya / yb)  # Y = 0 (yb > 0: m > l and lb <= 0)
            star = list(part.chp_star)
            if len(star) <= 14:
                for a in range(len(star)):
                    for b in range(a + 1, len(star)):
                        i, j = star[a], star[b]
                        den = prof[i] * wb[j] - prof[j] * wb[i]
                        if den != 0:
                            note((prof[j] * wa[i] - prof[i] * wa[j]) / den)
            # prefix saturation under the midpoint density order
            def density(i):
                w = wa[i] + wb[i] * mid
                return (-(prof[i] / w) if w > 0 else Fraction(-10 ** 18), i)

            ordered = sorted(star, key=density)
            ca = Fraction(0)
            cb = Fraction(0)
            for i in ordered:
                ca += wa[i]
                cb += wb[i]
                den = cb - yb
                if den != 0:
                    note((ya - ca) / den)  # sum of first weights == capacity
    if len(breaks) > cap:
        return None
    return breaks


def class_jump_pmtn(inst: Instance) -> SearchResult:
    """3/2-approximation via jump walking: probes the dual only at structural
    thresholds, at guesses where some heavy class needs another machine, and
    at the load average of the final bracket.

    Navigation uses the reshape points 2(s_i+P_i)/k of the half-gap packing;
    exactness then comes from refining over the machine-count breakpoints of
    the decision inside the final bracket.  Should the decision still vary
    there (the knapsack's rejected set can move), the search degrades to a
    plain bisection and reports the bracket bottom as its certified bound.
    """
    m = inst.m
    if m >= inst.n:
        return trivial_search(inst)
    probe = CachedProbe(lambda guess: _decide_pmtn(inst, guess).accepted)

    def finish(t_star: Rat, lb: Rat, trace) -> SearchResult:
        return probe.finish(dual_pmtn, inst, t_star, lb, trace)

    tmin = lower_bound_tmin(inst, Variant.PREEMPTIVE)
    if probe(tmin):
        return finish(tmin, tmin, None)
    top = 2 * tmin
    if not probe(top):
        raise ContractError("dual rejected 2*T_min; 2-approximation bound broken")

    # Bracket over the thresholds where the class layers or the oversized-job
    # sets change.
    struct: set[Rat] = set()
    for i, cl in enumerate(inst.classes):
        s = Fraction(cl.setup)
        reach = s + cl.total
        struct.update((2 * s, 4 * s, reach, Fraction(4, 3) * reach))
        for t in cl.jobs:
            struct.add(2 * (s + t))
    cands = [tmin] + sorted(v for v in struct if tmin < v < top) + [top]

    def heavy(high_end: Rat) -> dict[int, Rat]:
        # expensive with setup + work past the guess throughout the open
        # bracket; a class reshapes at 2(s+P)/d, d >= 3
        return {
            i: 2 * Fraction(cl.setup + cl.total)
            for i, cl in enumerate(inst.classes)
            if 2 * cl.setup >= high_end and cl.setup + cl.total >= high_end
        }

    trace = class_jump_walk(probe, cands, heavy, 3, m)
    t_fail, t_ok = trace.final_interval

    # Exact refinement: inside the bracket the decision can still move where
    # a heavy class needs another machine, where the free time or the
    # knapsack capacity changes sign, at the case switch, and where the
    # knapsack's greedy order or saturation point shifts.  Walk those
    # breakpoints until the decision data is constant, then the answer is
    # closed-form: the bracket top, or required load / m.
    for _ in range(60):
        trace.final_interval = (t_fail, t_ok)
        breaks = _pmtn_breakpoints(inst, t_fail, t_ok)
        if breaks is None:  # too many candidates: halve the bracket first
            trace.refined = True
            mid = (t_fail + t_ok) / 2
            if probe(mid):
                t_ok = mid
            else:
                t_fail = mid
            continue
        if breaks:
            trace.refined = True
            chain2 = [t_fail] + sorted(breaks) + [t_ok]
            lo3, hi3 = _bisect_right_interval(chain2, probe, 0, len(chain2) - 1)
            t_fail, t_ok = chain2[lo3], chain2[hi3]
        gap = t_ok - t_fail
        datas = set()
        for q in (Fraction(1, 7), Fraction(3, 7), Fraction(1, 2), Fraction(6, 7)):
            d = _decide_pmtn(inst, t_fail + gap * q)
            datas.add((d.load, d.machines))
        if len(datas) != 1:
            trace.refined = True
            mid = (t_fail + t_ok) / 2
            if probe(mid):
                t_ok = mid
            else:
                t_fail = mid
            continue
        load_mid, machines_mid = next(iter(datas))
        if load_mid is None:
            # the whole interior is rejected by the geometric certificate
            # (free time / capacity negative up to the bracket top)
            return finish(t_ok, t_ok, trace)
        if m < machines_mid:
            return finish(t_ok, t_ok, trace)
        t_new = load_mid / m
        if t_new >= t_ok:
            return finish(t_ok, t_ok, trace)
        if t_new > t_fail:
            if probe(t_new):
                return finish(t_new, t_new, trace)
            t_fail = t_new  # rejected: legal shrink, decision data was not constant
            trace.refined = True
            continue
        # t_new at or below the rejected bottom: inconsistent; halve
        trace.refined = True
        mid = (t_fail + t_ok) / 2
        if probe(mid):
            t_ok = mid
        else:
            t_fail = mid

    # Last resort: plain bisection.  The bracket top is accepted and within a
    # factor (1 + 2^-60) of the certified bound below it.
    trace.fallback = True
    tiny = Fraction(1, 2**60)
    rounds = 0
    while t_ok - t_fail > t_fail * tiny and rounds < 200:
        rounds += 1
        mid = (t_fail + t_ok) / 2
        if probe(mid):
            t_ok = mid
        else:
            t_fail = mid
    trace.final_interval = (t_fail, t_ok)
    return finish(t_ok, t_fail, trace)
