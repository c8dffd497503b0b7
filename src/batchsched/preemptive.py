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
breakpoints off the plan at the bracket's midpoint, until none is left.
"""

from __future__ import annotations

import math
from itertools import groupby
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    ClassPartition,
    ContractError,
    Decision,
    Instance,
    Rat,
    Schedule,
    Variant,
    classify,
    decide_need,
    decided_outcome,
    job_bound_decision,
)
from .search import SearchResult, class_jump_search
from .wrap import Batch, Builder, Gap, class_batch, run_wrap


# ---------------------------------------------------------------------------
# Continuous knapsack
# ---------------------------------------------------------------------------


class KnapsackItem(NamedTuple):
    """A star class as a knapsack item, in a decision's ints: its setup as
    the profit, and its weight on the decision's scale 2q of the guess p/q,
    where the weight grows by `growth` for each unit half the guess grows by.
    Only ratios of profits, weights and growths matter, so every item of one
    knapsack shares those scales."""

    cls: int
    profit: int  # > 0
    weight: int  # >= 0
    growth: int = 0  # d weight / d (guess / 2); orders density ties as just above


class KnapsackSolution(NamedTuple):
    x: dict[int, Rat]  # item -> share: 1 or 0 as ints, the split item's a Fraction
    split_item: Optional[int]


def _by_density(items: list[KnapsackItem]) -> list[KnapsackItem]:
    """The items of positive weight by profit per weight, highest first; ties
    by growth per weight, lowest first, then by class.

    A sort on float densities, which never inverts two different densities:
    int true division is correctly rounded, so it is monotone.  Only a run of
    equal floats is sorted again, on exact int keys over the lcm W of its
    weights (p/w = p (W/w) / W); an int past the float range puts every item
    in one such run."""
    rest = [it for it in items if it.weight > 0]
    try:
        density = [-it.profit / it.weight for it in rest]
    except OverflowError:
        density = [0.0] * len(rest)
    out: list[KnapsackItem] = []
    for _, run in groupby(sorted(range(len(rest)), key=density.__getitem__), density.__getitem__):
        run = [rest[k] for k in run]
        if len(run) > 1:
            W = math.lcm(*(it.weight for it in run))
            run.sort(key=lambda it: (-it.profit * (W // it.weight), it.growth * (W // it.weight),
                                     it.cls))
        out += run
    return out


def continuous_knapsack(items: list[KnapsackItem], capacity: int) -> KnapsackSolution:
    """Greedy by profit density; optimal for the continuous relaxation.

    Weightless items are taken outright.  At most one item is fractional.
    Ties in density break as the densities order just above the guess (the
    slower-growing weight first), then towards the smaller class index.  The
    first item that does not fit whole is the split item even when its share
    is 0 (the capacity ran out exactly).  So the solution is the limit of the
    ones for slightly larger guesses and capacities.  The capacity is on the
    weights' scale; the split share is the one Fraction made.
    """
    if capacity < 0:
        raise ContractError("knapsack capacity must be >= 0")
    x: dict[int, Rat] = {it.cls: 1 for it in items if it.weight == 0}
    remaining = capacity
    split: Optional[int] = None
    for it in _by_density(items):
        if remaining >= it.weight:
            x[it.cls] = 1
            remaining -= it.weight
        elif split is None:
            x[it.cls] = Fraction(remaining, it.weight)
            split = it.cls
            remaining = 0
        else:
            x[it.cls] = 0
    return KnapsackSolution(x=x, split_item=split)


# ---------------------------------------------------------------------------
# Nice instances (no class with 3/4 T < setup + work < T)
# ---------------------------------------------------------------------------

def _gamma_count(reach: int, p: int, q: int) -> int:
    """Machines the half-gap packing occupies for an expensive heavy class of
    setup + work reach at the guess p/q: max(1, ceil(2 reach/T) - 2).  It
    only steps on the grid 2 reach/k, continuously from the right, so the
    dual's accept boundary is attained."""
    return max(1, -(-2 * reach * q // p) - 2)


# ---------------------------------------------------------------------------
# General instances
# ---------------------------------------------------------------------------


class _PmtnPlan(NamedTuple):
    """Everything the decision and the construction share for one guess p/q,
    in ints: free_time on the guess's scale q (it stands for free_time / q),
    the obligatory spills on the knapsack's scale 2q, star_total and load in
    the instance's own units.

    The classes of part.exp_zero get one dedicated machine each.  Without
    them the instance is nice: the plan then has no geometric reject and no
    knapsack, and its load and machine count are the nice instance's.
    """

    part: ClassPartition
    gamma: dict[int, int]  # half-gap machines per part.exp_plus class, in class order
    free_time: int  # F * q: room for small-setup classes off the dedicated machines
    star_total: int  # setup + work of the star classes, all of which F must take
    load: int
    machines: int
    knapsack: Optional[KnapsackSolution] = None  # set when F cannot take every star class whole
    obligatory: Optional[dict[int, int]] = None  # L*_i * 2q per star class, with the knapsack
    # Set when the guess is certified infeasible before the load/machine comparison:
    # setups of at least a quarter guess can never share a machine with a dedicated
    # almost-full class, so negative free time (or knapsack capacity) proves guess < OPT.
    reject: Optional[str] = None


def _star_items(inst: Instance, part: ClassPartition, p: int, q: int,
                free: int) -> tuple[list[KnapsackItem], dict[int, int], int]:
    """The knapsack items of the star classes at the guess p/q, each one's
    obligatory spill L*_i (what its oversized jobs, those with s + t above
    half the guess, overrun half the guess by, next to its setup) and the
    knapsack capacity the free time F = free / q leaves after every star
    setup and spill.  Weights, spills and the capacity are on the scale 2q,
    where half the guess is p."""
    items: list[KnapsackItem] = []
    obligatory: dict[int, int] = {}
    q2 = 2 * q
    taken = 0
    for i in part.chp_star:
        cl = inst.classes[i]
        room = p - cl.setup * q2  # half the guess less the setup: T/2 - s
        big = list(filter((room // q2).__lt__, cl.jobs))  # t > T/2 - s iff t 2q > room
        ob = obligatory[i] = sum(big) * q2 - len(big) * room
        items.append(KnapsackItem(i, cl.setup, cl.total * q2 - ob, len(big)))
        taken += cl.setup * q2 + ob
    return items, obligatory, 2 * free - taken


def _pmtn_counts(inst: Instance, p: int, q: int) -> _PmtnPlan:
    """The plan's arithmetic at the guess p/q: the partition, the heavy
    classes' machine counts, free time, star total, load and machines,
    before any geometric reject or knapsack."""
    part = classify(inst, p, q)
    classes = inst.classes
    gamma = {i: _gamma_count(classes[i].setup + classes[i].total, p, q) for i in part.exp_plus}
    l = len(part.exp_zero)
    taken = sum(g * classes[i].setup + classes[i].total for i, g in gamma.items())
    taken += sum(classes[i].setup + classes[i].total for i in part.exp_minus + part.chp_plus)
    return _PmtnPlan(
        part=part, gamma=gamma, free_time=(inst.m - l) * p - taken * q,
        star_total=sum(classes[i].setup + classes[i].total for i in part.chp_star),
        # every class pays one setup, an expensive heavy class one per machine
        load=inst.total_load + sum((g - 1) * classes[i].setup for i, g in gamma.items()),
        machines=l + (len(part.exp_minus) + 1) // 2 + sum(gamma.values()))


def _pmtn_plan(inst: Instance, p: int, q: int) -> _PmtnPlan:
    """The counts at the guess p/q, then the geometric reject or the knapsack."""
    plan = _pmtn_counts(inst, p, q)
    part, free, l = plan.part, plan.free_time, len(plan.part.exp_zero)
    if l and free < 0:
        # The classes outside the dedicated machines alone overrun the other
        # m - l machines: certified infeasible.
        return plan._replace(reject="load")
    if l and free < plan.star_total * q:
        items, obligatory, capacity = _star_items(inst, part, p, q, free)
        if capacity < 0:
            # Even the unavoidable spill of the oversized-job classes exceeds
            # the room outside the dedicated machines.
            return plan._replace(reject="load")
        sol = continuous_knapsack(items, capacity)
        # a rejected class (share 0) pays a second setup; the split item pays
        # none, even at share 0, so the load is right-continuous where the
        # capacity runs out
        load = plan.load + sum(inst.classes[i].setup for i in part.chp_star
                               if sol.x[i] == 0 and i != sol.split_item)
        return plan._replace(knapsack=sol, obligatory=obligatory, load=load)
    return plan


def _decide_pmtn(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess; its plan is the _PmtnPlan."""
    p, q = guess.as_integer_ratio()
    early = job_bound_decision(inst, p, q)
    if early is not None:
        return early
    plan = _pmtn_plan(inst, p, q)
    if plan.reject is not None:
        # load/machines deliberately None: the reject is a geometric
        # certificate, not captured by the load comparison
        return Decision(False, plan.reject, plan=plan)
    return decide_need(inst.m, p, q, plan.load, plan.machines, plan)


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
    class's pieces are ints too.  The plan's free time (scale q) and
    spills (scale 2q) move onto it by multiplication."""
    sol = plan.knapsack
    p, q = guess.as_integer_ratio()
    scale = 4 * q
    if sol is not None and sol.split_item is not None:
        scale *= sol.x[sol.split_item].denominator
    T = p * (scale // q)
    half, quarter, threehalf = T // 2, T // 4, 3 * T // 2
    builder = Builder(inst.m, scale)
    part = plan.part
    l = len(part.exp_zero)

    # The nice remainder: chp_plus whole, each star class by its share, and
    # the other small-setup classes up to the budget the free time leaves.
    # Without a knapsack every star class fits whole outside the large
    # machines; with one the star classes fill the free time exactly.
    cheap = {i: class_batch(inst, i, scale) for i in part.chp_plus}
    leftovers: list[tuple[int, int, int]] = []  # (class, job, duration)
    split_cls = None if sol is None else sol.split_item
    budget = (plan.free_time - plan.star_total * q) * (scale // q) if sol is None else 0
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
        # share = num/den, and den divides the scale's factor over 4q, so
        # each share of a head or job below is an int
        num, den = share.as_integer_ratio()
        cl = inst.classes[i]
        s = cl.setup * scale
        inside: list[int] = []  # (job, dur, ...), flat as Batch.jobs
        for j, t in enumerate(cl.jobs):
            t *= scale
            if s + t > half:  # oversized: its share of the head, and the tail
                d2 = (half - s) * num // den + s + t - half
            else:
                d2 = t * num // den
            if d2 > 0:
                inside += j, d2
            if t > d2:
                leftovers.append((i, j, t - d2))
        obligatory = plan.obligatory[i] * (scale // (2 * q))
        if sum(inside[1::2]) * den != obligatory * den + num * (cl.total * scale - obligatory):
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
        run_wrap(builder, [class_batch(inst, i, scale) for i in minus[k:k + 2]],
                 [Gap(base, 0, threehalf)])
        base += 1
    if cheap:
        # an odd expensive light class leaves its machine's top to the cheap ones
        gaps = [Gap(base - 1, T, threehalf)] if len(minus) % 2 else []
        gaps.append(Gap(base, half, threehalf, inst.m - base))
        run_wrap(builder, [cheap[i] for i in sorted(cheap)], gaps)

    # Leftovers go to the bottoms of the large machines, written before
    # their tops so each row is in start order.  Everything here is small:
    # setup + piece fits in half the guess.
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
        builder.put(u, (i, 0, inst.classes[i].setup * scale, 1, j, dur))
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

    # Above the bottoms, the dedicated machines: one almost-full expensive
    # class each, starting at half the guess.
    for u, i in enumerate(part.exp_zero):
        run_wrap(builder, [class_batch(inst, i, scale)], [Gap(u, half, threehalf)])
    return builder.finalize()


# ---------------------------------------------------------------------------
# Class jumping
# ---------------------------------------------------------------------------


def _pmtn_breakpoints(inst: Instance, t_fail: Rat, t_ok: Rat) -> set[Rat]:
    """Guesses in (t_fail, t_ok) at which the dual's decision data can
    change, assuming the class layers and the heavy-class machine counts are
    constant on the bracket (the class-jump walk's final bracket): sign
    changes of the free time and the knapsack capacity, the case switch, and
    the events of the midpoint's split item sigma (the first item in the
    knapsack's order whose prefix weight passes the capacity): the prefix
    before or through sigma fills the capacity, or an item's density crosses
    sigma's.  With none inside, the rejected items are constant, as an item
    changes sides of sigma only by crossing its density; the search asks
    again on each bracket it bisects down to.

    On such a bracket every quantity involved is linear in the guess, so each
    point is read off the plan's counts and knapsack items at the midpoint
    p/q (no knapsack runs): the free time grows at rate r = m - l, each
    knapsack weight at its item's growth per half a guess, and the capacity
    at r plus half their sum.  Each point is a ratio of ints, and only the
    points inside the bracket become Fractions."""
    fp, fq = t_fail.as_integer_ratio()
    op, oq = t_ok.as_integer_ratio()
    p, q = fp * oq + op * fq, 2 * fq * oq  # the midpoint p/q
    plan = _pmtn_counts(inst, p, q)
    part = plan.part
    rate = inst.m - len(part.exp_zero)
    breaks: set[Rat] = set()

    def note(num: int, den: int):
        # the guess num/den, if den != 0 and it lies inside the bracket
        if den < 0:
            num, den = -num, -den
        if den and fp * den < num * fq and num * oq < op * den:
            breaks.add(Fraction(num, den))

    if not part.exp_zero or rate <= 0:
        return breaks
    free = plan.free_time  # F * q
    note(p * rate - free, q * rate)  # F = 0
    note(p * rate + plan.star_total * q - free, q * rate)  # case switch
    if not part.chp_star:
        return breaks
    # weights (each positive: an oversized job leaves T/2 - s >= T/4 below
    # half the guess) and capacity on the scale 2q, each weight growing by
    # its growth per unit of half the guess
    items, _, cap = _star_items(inst, part, p, q, free)
    cap_rate = 2 * rate + sum(it.growth for it in items)  # twice the capacity's
    note(p * cap_rate - cap, q * cap_rate)  # capacity = 0
    weight = growth = 0  # the prefix before sigma
    for sigma in _by_density(items):
        if weight + sigma.weight > cap:
            break
        weight += sigma.weight
        growth += sigma.growth
    else:
        return breaks  # every item fits
    for w, g in ((weight, growth), (weight + sigma.weight, growth + sigma.growth)):
        note(p * (g - cap_rate) + cap - w, q * (g - cap_rate))  # the prefix fills the capacity
    for it in items:  # its density crosses sigma's
        den = it.profit * sigma.growth - sigma.profit * it.growth
        note(p * den + sigma.profit * it.weight - it.profit * sigma.weight, q * den)
    return breaks


def class_jump_pmtn(inst: Instance) -> SearchResult:
    """Exact 3/2-approximation: the least guess the dual accepts, by
    `search.class_jump_search`.  Past T_min it probes only at structural
    thresholds, at guesses where some heavy class needs another machine (the
    reshape points 2(s_i+P_i)/k of the half-gap packing), and at the
    knapsack case's breakpoints inside each bracket left
    (`_pmtn_breakpoints`).  With m >= n the dual accepts T_min, one job per
    machine."""

    def layer_changes() -> tuple[set[int], int]:
        # where the class layers or the oversized-job sets change: 2s, 4s,
        # s + P, 4(s + P)/3 and 2(s + t), as ints on the scale 3
        struct: set[int] = set()
        for cl in inst.classes:
            s = cl.setup
            reach = s + cl.total
            struct.update((6 * s, 12 * s, 3 * reach, 4 * reach))
            struct.update(6 * (s + t) for t in set(cl.jobs))
        return struct, 3

    def heavy(high_end: Rat) -> dict[int, int]:
        # expensive with setup + work past the guess throughout the open
        # bracket; a class reshapes at 2(s+P)/d, d >= 3
        hp, hq = high_end.as_integer_ratio()
        return {
            i: 2 * (cl.setup + cl.total)
            for i, cl in enumerate(inst.classes)
            if 2 * cl.setup * hq >= hp and (cl.setup + cl.total) * hq >= hp
        }

    return class_jump_search(inst, Variant.PREEMPTIVE, layer_changes, heavy, 3,
                             refine=_pmtn_breakpoints)
