"""Preemptive scheduling: jobs may be cut, but never run in parallel.

For a guess T the classes split into expensive and cheap layers.  Expensive
classes whose setup+work almost fills a machine (between 3/4 T and T) each
get a dedicated "large" machine; what the remaining machines cannot take of
the small-setup cheap classes must go onto the large machines, and picking
which classes stay whole outside them is a continuous knapsack problem.  The
rest is an easy ("nice") instance placed by wrapping.  An instance with no
dedicated machine is nice as a whole: the same plan, with no geometric
reject and no knapsack.

The class-jumping search walks the finitely many guesses at which some class
needs another machine instead of bisecting, which yields the exact smallest
guess the dual accepts; inside its last bracket it reads the knapsack case's
breakpoints off the plan at the bracket's midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import combinations
from fractions import Fraction
from typing import Optional

from .core import (
    ClassPartition,
    ContractError,
    Decision,
    Instance,
    Rat,
    Schedule,
    Variant,
    batch_end,
    classify,
    decide_need,
    decided_outcome,
    job_bound_decision,
    lower_bound_tmin,
    scaled,
)
from .search import (
    CachedProbe,
    SearchResult,
    _bisect_right_interval,
    class_jump_walk,
    close_bracket,
    trivial_search,
)
from .wrap import Batch, Builder, Gap, class_batch, run_wrap


# ---------------------------------------------------------------------------
# Continuous knapsack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnapsackItem:
    cls: int
    profit: Rat  # > 0
    weight: Rat  # >= 0
    growth: Rat = 0  # d weight / d guess; orders density ties as just above


@dataclass
class KnapsackSolution:
    x: dict[int, Rat]  # item -> share in [0, 1]; all 0/1 except the split item
    split_item: Optional[int]


def _per_weight(x: Rat, weight: Rat) -> tuple[int, int]:
    """x / weight as an unreduced integer pair (num, den), den > 0."""
    return x.numerator * weight.denominator, x.denominator * weight.numerator


def _density_order(a, b) -> int:
    """Negative when item a goes first: the higher profit per weight, then
    the lower growth per weight, then the smaller class.  a and b are
    (profit ratio, growth ratio, item), compared by cross-multiplying."""
    (pa, qa), (ga, ha), ita = a
    (pb, qb), (gb, hb), itb = b
    return (pb * qa - pa * qb) or (ga * hb - gb * ha) or (ita.cls - itb.cls)


def continuous_knapsack(items: list[KnapsackItem], capacity: Rat) -> KnapsackSolution:
    """Greedy by profit density; optimal for the continuous relaxation.

    Weightless items are taken outright.  At most one item is fractional.
    Ties in density break as the densities order just above the guess (the
    slower-growing weight first), then towards the smaller class index.  The
    first item that does not fit whole is the split item even when its share
    is 0 (the capacity ran out exactly).  So the solution is the limit of the
    ones for slightly larger guesses and capacities.
    """
    if capacity < 0:
        raise ContractError("knapsack capacity must be >= 0")
    free = [it for it in items if it.weight == 0]
    rest = [it for _, _, it in sorted(
        ((_per_weight(it.profit, it.weight), _per_weight(it.growth, it.weight), it)
         for it in items if it.weight > 0),
        key=cmp_to_key(_density_order),
    )]
    x: dict[int, Rat] = {it.cls: Fraction(1) for it in free}
    remaining = Fraction(capacity)
    split: Optional[int] = None
    for it in rest:
        if remaining >= it.weight:
            x[it.cls] = Fraction(1)
            remaining -= it.weight
        elif split is None:
            x[it.cls] = remaining / it.weight
            split = it.cls
            remaining = Fraction(0)
        else:
            x[it.cls] = Fraction(0)
    return KnapsackSolution(x=x, split_item=split)


# ---------------------------------------------------------------------------
# Nice instances (no class with 3/4 T < setup + work < T)
# ---------------------------------------------------------------------------

def _gamma_count(setup: Rat, work: Rat, guess: Rat) -> int:
    """Machines the half-gap packing occupies for an expensive heavy class:
    max(1, ceil(2(s+P)/T) - 2).  It only steps on the grid 2(s+P)/k,
    continuously from the right, so the dual's accept boundary is attained."""
    return max(1, -(-2 * (setup + work) // guess) - 2)


def _stack(builder: Builder, u: int, t: int, batch: Batch) -> int:
    """Put the batch back to back on machine u from time t; returns its end."""
    placed = (batch.cls, t, batch.setup, *batch.jobs)
    builder.put(u, placed)
    return batch_end(placed)


# ---------------------------------------------------------------------------
# General instances
# ---------------------------------------------------------------------------


@dataclass
class _PmtnPlan:
    """Everything the decision and the construction share for one guess.

    The classes of part.exp_zero get one dedicated machine each.  Without
    them the instance is nice: the plan then has no geometric reject and no
    knapsack, and its load and machine count are the nice instance's.
    """

    part: ClassPartition
    gamma: dict[int, int]  # half-gap machines per part.exp_plus class, in class order
    free_time: Rat = Fraction(0)  # F: room for small-setup classes off the dedicated machines
    star_total: int = 0  # setup + work of the star classes, all of which F must take
    knapsack: Optional[KnapsackSolution] = None  # set when F cannot take every star class whole
    obligatory: dict[int, Rat] = field(default_factory=dict)  # L*_i per star class
    load: Rat = Fraction(0)
    machines: int = 0
    # Set when the guess is certified infeasible before the load/machine
    # comparison: setups of at least a quarter guess can never share a machine
    # with a dedicated almost-full class, so negative free time (or negative
    # knapsack capacity) already proves guess < OPT.
    reject: Optional[str] = None


def _star_items(inst: Instance, part: ClassPartition, half: Rat,
                free: Rat) -> tuple[list[KnapsackItem], dict[int, Rat], Rat]:
    """The knapsack items of the star classes at half the guess, each one's
    obligatory spill L*_i (what its oversized jobs, those with s + t > half,
    overrun half the guess by, next to its setup) and the knapsack capacity
    the free time leaves after every star setup and spill.  A weight grows by
    its item's growth per unit of guess."""
    items: list[KnapsackItem] = []
    obligatory: dict[int, Rat] = {}
    hp, hq = half.numerator, half.denominator  # s + t > half iff (s + t) hq > hp
    for i in part.chp_star:
        cl = inst.classes[i]
        big = [t for t in cl.jobs if (cl.setup + t) * hq > hp]
        ob = obligatory[i] = sum(big) - len(big) * (half - cl.setup)
        items.append(KnapsackItem(cls=i, profit=Fraction(cl.setup), weight=cl.total - ob,
                                  growth=Fraction(len(big), 2)))
    return items, obligatory, free - sum(inst.classes[i].setup + ob for i, ob in obligatory.items())


def _pmtn_counts(inst: Instance, guess: Rat) -> _PmtnPlan:
    """The plan's arithmetic: the partition, the heavy classes' machine
    counts, free time, star total, load and machines, before any geometric
    reject or knapsack."""
    part = classify(inst, guess)
    classes = inst.classes
    gamma = {i: _gamma_count(classes[i].setup, classes[i].total, guess) for i in part.exp_plus}
    plan = _PmtnPlan(part=part, gamma=gamma)
    l = len(part.exp_zero)
    taken = sum(g * classes[i].setup + classes[i].total for i, g in gamma.items())
    taken += sum(classes[i].setup + classes[i].total for i in part.exp_minus + part.chp_plus)
    plan.free_time = (inst.m - l) * guess - taken
    plan.star_total = sum(classes[i].setup + classes[i].total for i in part.chp_star)
    plan.machines = l + (len(part.exp_minus) + 1) // 2 + sum(gamma.values())
    # every class pays one setup, an expensive heavy class one per machine
    plan.load = Fraction(inst.total_load + sum((g - 1) * classes[i].setup for i, g in gamma.items()))
    return plan


def _pmtn_plan(inst: Instance, guess: Rat) -> _PmtnPlan:
    """The counts, then the geometric reject or the knapsack."""
    plan = _pmtn_counts(inst, guess)
    part, free, l = plan.part, plan.free_time, len(plan.part.exp_zero)
    if l and free < 0:
        # The classes outside the dedicated machines alone overrun the other
        # m - l machines: certified infeasible.
        plan.reject = "load"
    elif l and free < plan.star_total:
        items, plan.obligatory, capacity = _star_items(inst, part, guess / 2, free)
        if capacity < 0:
            # Even the unavoidable spill of the oversized-job classes exceeds
            # the room outside the dedicated machines.
            plan.reject = "load"
            return plan
        sol = plan.knapsack = continuous_knapsack(items, capacity)
        # a rejected class (share 0) pays a second setup; the split item pays
        # none, even at share 0, so the load is right-continuous where the
        # capacity runs out
        plan.load += sum(inst.classes[i].setup for i in part.chp_star
                         if sol.x[i] == 0 and i != sol.split_item)
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


def dual_pmtn(inst: Instance, guess: Rat) -> Decision:
    """The decision with either a preemptive schedule of makespan <=
    (3/2)*guess (no two pieces of one job overlapping in time) or a
    certificate guess < OPT.

    Heavy classes are counted by the half-gap packing
    max(1, ceil(2(s+P)/T) - 2), with the matching construction.
    """
    return decided_outcome(inst, guess, _decide_pmtn(inst, guess), _build_pmtn)


def _build_pmtn(inst: Instance, guess: Rat, plan: _PmtnPlan) -> Schedule:
    """The construction on the scale 4q of the guess p/q, where a quarter
    guess is p; times the knapsack split share's denominator, so the split
    class's pieces are ints too."""
    sol = plan.knapsack
    scale = 4 * guess.denominator
    if sol is not None and sol.split_item is not None:
        scale *= sol.x[sol.split_item].denominator
    T = scaled(guess, scale)
    half, quarter, threehalf = T // 2, T // 4, 3 * T // 2
    builder = Builder(inst.m, scale)
    part = plan.part
    l = len(part.exp_zero)

    # Dedicated machines: one almost-full expensive class each, starting at
    # half the guess so their bottoms stay free for leftovers.
    for u, i in enumerate(part.exp_zero):
        _stack(builder, u, half, class_batch(inst, i, scale))

    # The nice remainder: chp_plus whole, each star class by its share, and
    # the other small-setup classes up to the budget the free time leaves.
    # Without a knapsack every star class fits whole outside the large
    # machines; with one the star classes fill the free time exactly.
    cheap = {i: class_batch(inst, i, scale) for i in part.chp_plus}
    leftovers: list[tuple[int, int, int]] = []  # (class, job, duration)
    split_cls = None if sol is None else sol.split_item
    budget = scaled(plan.free_time - plan.star_total, scale) if sol is None else 0
    if budget < 0:
        raise ContractError("oversized-job classes overrun the free time")
    for i in part.chp_star:
        share = 1 if sol is None else sol.x[i]
        if share == 1:
            cheap[i] = class_batch(inst, i, scale)
            continue
        # Every oversized job splits into a head that fits below half the
        # guess next to its setup and a tail that must leave the large
        # machines.  The class keeps its share of each head and of its
        # other jobs in the remainder, and every tail.
        cl = inst.classes[i]
        s = cl.setup * scale
        inside: list[int] = []  # (job, dur, ...), flat as Batch.jobs
        for j, t in enumerate(cl.jobs):
            t *= scale
            if s + t > half:  # oversized: its share of the head, and the tail
                d2 = scaled(share * (half - s), 1) + s + t - half
            else:
                d2 = scaled(share * t, 1)
            if d2 > 0:
                inside += j, d2
            if t > d2:
                leftovers.append((i, j, t - d2))
        obligatory = scaled(plan.obligatory[i], scale)
        if sum(inside[1::2]) != obligatory + share * (cl.total * scale - obligatory):
            raise ContractError("star-class bookkeeping broken")
        cheap[i] = Batch(cls=i, setup=s, jobs=tuple(inside))
    # Greedily cut the remaining small-setup classes so the nice remainder
    # exactly uses the free time: the first class that does not fit whole
    # keeps what room its setup leaves, and the rest go to the bottoms of
    # the large machines.
    star = set(part.chp_star)
    for i in part.chp_minus:
        if i in star:
            continue
        cl = inst.classes[i]
        setup = cl.setup * scale
        reach = setup + cl.total * scale
        if reach <= budget:
            cheap[i] = class_batch(inst, i, scale)
            budget -= reach
            continue
        room = budget - setup
        inside = []
        for j, t in enumerate(cl.jobs):
            t *= scale
            take = min(room, t) if room > 0 else 0
            if take:
                inside += j, take
                room -= take
            if take < t:
                leftovers.append((i, j, t - take))
        if inside:
            cheap[i] = Batch(cls=i, setup=setup, jobs=tuple(inside))
            split_cls = i
        budget = 0

    # The nice remainder occupies the machines after the large ones.  Each
    # expensive heavy class wraps over its gamma machines in gaps of height
    # T/2 above its setups, the overflow piled onto its last machine (the
    # shape whose reshape points the jump search walks); the expensive
    # light ones pair up on a machine each, and the cheap ones wrap over the
    # rest, in class order.
    base = l
    for i, g in plan.gamma.items():
        batch = class_batch(inst, i, scale)
        s = batch.setup
        if g == 1:
            gaps = [Gap(base, 0, threehalf)]
        else:
            gaps = [Gap(base, 0, s + half), Gap(base + 1, s, s + half, g - 2),
                    Gap(base + g - 1, s, threehalf)]
        if base + g > inst.m:
            raise ContractError("nice construction ran out of machines")
        run_wrap(builder, [batch], gaps)
        base += g
    minus = part.exp_minus
    for k in range(0, len(minus), 2):
        if base >= inst.m:
            raise ContractError("nice construction ran out of machines")
        t = 0
        for i in minus[k:k + 2]:
            t = _stack(builder, base, t, class_batch(inst, i, scale))
        base += 1
    if cheap:
        # an odd expensive light class leaves its machine's top to the cheap ones
        gaps = [Gap(base - 1, T, threehalf)] if len(minus) % 2 else []
        gaps.append(Gap(base, half, threehalf, inst.m - base))
        run_wrap(builder, [cheap[i] for i in sorted(cheap)], gaps)

    # Leftovers go to the bottoms of the large machines.  Everything here is
    # small: setup + piece fits in half the guess.
    for i, _, dur in leftovers:
        if inst.classes[i].setup * scale + dur > half:
            raise ContractError("leftover too large for a bottom")
    kplus = [e for e in leftovers if e[2] > quarter]
    kminus = [e for e in leftovers if e[2] <= quarter]

    def cls_order(i: int) -> tuple:
        return (0 if i == split_cls else 1, i)

    kplus.sort(key=lambda e: (cls_order(e[0]), e[1]))
    if len(kplus) > l:
        raise ContractError("more big leftovers than large machines")
    for u, (i, j, dur) in enumerate(kplus):
        builder.put(u, (i, 0, inst.classes[i].setup * scale, j, dur))
    lprime = len(kplus)

    if kminus:
        if lprime >= l:
            raise ContractError("no large machine left for small leftovers")
        by_cls: dict[int, list[int]] = {}  # class -> its (job, dur, ...), flat
        for i, j, dur in kminus:
            by_cls.setdefault(i, []).extend((j, dur))
        seq = [
            Batch(cls=i, setup=inst.classes[i].setup * scale, jobs=tuple(by_cls[i]))
            for i in sorted(by_cls, key=cls_order)
        ]
        gaps = [Gap(lprime, 0, half), Gap(lprime + 1, quarter, half, l - lprime - 1)]
        run_wrap(builder, seq, gaps)

    return builder.finalize()


# ---------------------------------------------------------------------------
# Class jumping
# ---------------------------------------------------------------------------


def _pmtn_breakpoints(inst: Instance, t_fail: Rat, t_ok: Rat) -> set[Rat]:
    """All guesses in (t_fail, t_ok) at which the dual's decision data can
    change, assuming the class layers and the heavy-class machine counts are
    constant on the bracket (the class-jump walk's final bracket): sign
    changes of the free time and the knapsack capacity, the case switch,
    density order flips and prefix saturation points of the knapsack.

    On such a bracket every quantity involved is linear in the guess, so each
    point is read off the plan's counts at the midpoint (no knapsack runs):
    the free time grows at rate m - l, each knapsack weight at its item's
    growth, and the capacity at m - l plus their sum."""
    mid = (t_fail + t_ok) / 2
    plan = _pmtn_counts(inst, mid)
    part = plan.part
    rate = inst.m - len(part.exp_zero)
    breaks: set[Rat] = set()

    def note(v: Rat):
        if t_fail < v < t_ok:
            breaks.add(v)

    if not part.exp_zero or rate <= 0:
        return breaks
    free = plan.free_time
    note(mid - free / rate)  # F = 0
    note(mid + (plan.star_total - free) / rate)  # case switch
    if not part.chp_star:
        return breaks
    items, _, cap = _star_items(inst, part, mid / 2, free)
    cap_rate = rate + sum(it.growth for it in items)
    note(mid - cap / cap_rate)  # capacity = 0
    if len(items) <= 14:
        for a, b in combinations(items, 2):
            den = a.profit * b.growth - b.profit * a.growth
            if den != 0:
                note(mid + (b.profit * a.weight - a.profit * b.weight) / den)
    # prefix saturation under the midpoint density order (every weight is
    # positive: an oversized job leaves T/2 - s >= T/4 below half the guess)
    weight = growth = 0
    for it in sorted(items, key=lambda it: (-it.profit / it.weight, it.cls)):
        weight += it.weight
        growth += it.growth
        note(mid + (cap - weight) / (growth - cap_rate))  # sum of first weights == capacity
    return breaks


def class_jump_pmtn(inst: Instance) -> SearchResult:
    """Exact 3/2-approximation: returns the least guess the dual accepts.

    Probes the dual only at structural thresholds, at guesses where some
    heavy class needs another machine (the reshape points 2(s_i+P_i)/k of
    the half-gap packing), and at the breakpoints of the knapsack case inside
    the final bracket.  On the bracket left after those the decision's
    required load and machines are constant, and the decision is
    right-continuous, so `search.close_bracket` pins the answer in closed
    form: the bracket top, or required load / m.
    """
    m = inst.m
    if m >= inst.n:
        return trivial_search(inst)
    probe = CachedProbe(lambda guess: _decide_pmtn(inst, guess).accepted)
    tmin = lower_bound_tmin(inst, Variant.PREEMPTIVE)
    if probe(tmin):
        return probe.finish(dual_pmtn, inst, tmin, tmin)
    top = 2 * tmin
    if not probe(top):
        raise ContractError("dual rejected 2*T_min; 2-approximation bound broken")

    # Bracket over the thresholds where the class layers or the oversized-job
    # sets change.
    struct: set[Rat] = set()
    doubled: set[int] = set()  # 2(s + t) over each class's distinct durations
    for cl in inst.classes:
        s = cl.setup
        reach = s + cl.total
        struct.update((Fraction(2 * s), Fraction(4 * s), Fraction(reach), Fraction(4 * reach, 3)))
        doubled.update(2 * (s + t) for t in set(cl.jobs))
    # only those inside (T_min, 2 T_min) = (p/q, 2p/q) become Fractions
    p, q = tmin.numerator, tmin.denominator
    struct.update(Fraction(v) for v in doubled if p < v * q < 2 * p)
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
    # No heavy class jumps inside the walk's bracket; the decision can still
    # move at the knapsack case's breakpoints, so bisect those too.
    t_fail, t_ok = trace.final_interval
    points = [t_fail] + sorted(_pmtn_breakpoints(inst, t_fail, t_ok)) + [t_ok]
    lo, hi = _bisect_right_interval(points, probe, 0, len(points) - 1)
    trace.final_interval = (points[lo], points[hi])
    return close_bracket(probe, inst, _decide_pmtn, dual_pmtn, trace)
