"""Splittable scheduling: jobs may be cut arbitrarily and run in parallel.

Three entry points: a linear-time 2-approximation, the 3/2-dual decision
procedure for a makespan guess, and an exact-ratio-3/2 search that walks the
guesses at which some class needs one more setup ("class jumping") instead of
bisecting numerically.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    Accepted,
    ContractError,
    Decision,
    DualOutcome,
    Instance,
    Rat,
    Rejected,
    Schedule,
    decide_need,
)
from .search import CachedProbe, JumpTrace, SearchResult, class_jump_walk, close_bracket
from .wrap import Batch, Builder, Gap, run_wrap


def _class_batch(inst: Instance, i: int) -> Batch:
    cl = inst.classes[i]
    return Batch(
        cls=i,
        setup=Fraction(cl.setup),
        jobs=tuple(((i, j), Fraction(t)) for j, t in enumerate(cl.jobs)),
    )


def two_approx_split(inst: Instance) -> tuple[Schedule, Rat]:
    """All classes wrapped into one gap of height N/m per machine, sitting
    above a reserve of s_max for the setups cut loose at gap borders.  The
    first machine needs no reserve, so its gap starts at 0 and a single
    machine yields makespan exactly N."""
    smax = Fraction(inst.s_max)
    per = Fraction(inst.total_load, inst.m)
    builder = Builder(inst.m)
    seq = [_class_batch(inst, i) for i in range(inst.c)]
    run_wrap(
        builder,
        seq,
        [Gap(0, Fraction(0), smax + per)],
        tail_gap=(smax, smax + per),
        tail_count=inst.m - 1,
        tail_base=1,
    )
    sched = builder.finalize()
    return sched, sched.makespan()


def _decide_split(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess, with the required load and machines.

    The load/machine thresholds certify rejection: any feasible schedule with
    makespan guess needs ceil(2P_i/guess) setups per class with setup beyond
    guess/2, and distinct machines for all of those.
    """
    if guess <= 0:
        return Decision(False, "load")
    if guess < inst.s_max:
        return Decision(False, "setup-bound")
    half = guess / 2
    load = Fraction(inst.total_work)
    machines_exp = 0
    for cl in inst.classes:
        if cl.setup > half:
            beta = math.ceil(Fraction(2 * cl.total) / guess)
            load += beta * cl.setup
            machines_exp += beta
        else:
            load += cl.setup
    return decide_need(inst.m, guess, load, machines_exp)


def dual_split(inst: Instance, guess: Rat) -> DualOutcome:
    """Either a schedule with makespan <= (3/2)*guess or a certificate that
    guess < OPT for the splittable variant."""
    d = _decide_split(inst, guess)
    if not d.accepted:
        return Rejected(guess, d.reason)
    half = guess / 2
    builder = Builder(inst.m)
    base = 0
    leftover_gaps: list[Gap] = []
    cheap: list[int] = []
    for i, cl in enumerate(inst.classes):
        if cl.setup <= half:
            cheap.append(i)
            continue
        s = Fraction(cl.setup)
        beta = math.ceil(Fraction(2 * cl.total) / guess)
        res = run_wrap(
            builder,
            [_class_batch(inst, i)],
            [Gap(base, Fraction(0), s + half)],
            tail_gap=(s, s + half),
            tail_count=beta - 1,
            tail_base=base + 1,
            materialize_last=True,
        )
        # Last machine of the class: reserve half a guess for one cheap setup,
        # then its remaining headroom up to (3/2)*guess is usable.
        if res.last_fill < guess:
            leftover_gaps.append(
                Gap(res.last_machine, res.last_fill + half, Fraction(3, 2) * guess)
            )
        base += beta
    if cheap:
        seq = [_class_batch(inst, i) for i in cheap]
        run_wrap(
            builder,
            seq,
            leftover_gaps,
            tail_gap=(half, Fraction(3, 2) * guess),
            tail_count=inst.m - base,
            tail_base=base,
            setups_below=True,  # half a guess is reserved under every gap
        )
    return Accepted(builder.finalize(), guess)


def class_jump_split(inst: Instance) -> SearchResult:
    """Exact 3/2-approximation: returns the least guess the dual accepts.

    Every class with setup beyond half the guess needs one more setup each
    time the guess drops past 2P_i/k; between two consecutive such jumps of
    the class with the largest work, every other class jumps at most once, so
    all candidate guesses in the bracket can be collected and bisected, and
    between two neighbours the required load is constant, which pins the
    answer in closed form (`search.close_bracket`).
    """
    m = inst.m
    probe = CachedProbe(lambda guess: _decide_split(inst, guess).accepted)

    smax = Fraction(inst.s_max)
    top = Fraction(2 * inst.total_load)
    if probe(smax):
        # nothing below s_max is ever accepted, so this is the exact optimum
        # of the search space
        trace = JumpTrace((smax, smax), (smax, smax), None, [], (smax, smax), ())
        return probe.finish(dual_split, inst, smax, smax, trace)

    # Bracket the answer between consecutive doubled setup values: inside,
    # the expensive/cheap split does not change.
    cands = [smax]
    cands += sorted({Fraction(2 * cl.setup) for cl in inst.classes if 2 * cl.setup > smax})
    cands.append(top)
    if not probe(top):
        raise ContractError("dual rejected 2N; load certificate broken")

    def expensive(high_end: Rat) -> dict[int, Rat]:
        # expensive throughout the bracket; a class jumps at 2P/d
        return {
            i: Fraction(2 * cl.total)
            for i, cl in enumerate(inst.classes)
            if 2 * cl.setup >= high_end
        }

    trace = class_jump_walk(probe, cands, expensive, 1, m)
    return close_bracket(probe, inst, _decide_split, dual_split, trace)
