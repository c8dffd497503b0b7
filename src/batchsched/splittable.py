"""Splittable scheduling: jobs may be cut arbitrarily and run in parallel.

Three entry points: a linear-time 2-approximation, the 3/2-dual decision
procedure for a makespan guess, and an exact-ratio-3/2 search that walks the
guesses at which some class needs one more setup ("class jumping") instead of
bisecting numerically.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Decision,
    Instance,
    Rat,
    Schedule,
    Variant,
    decide_need,
    decided_outcome,
)
from .search import SearchResult, class_jump_search
from .wrap import Builder, Gap, class_batch, run_wrap


def two_approx_split(inst: Instance) -> tuple[Schedule, Rat]:
    """All classes wrapped into one gap of height N/m per machine, sitting
    above a reserve of s_max for the setups cut loose at gap borders.  The
    first machine needs no reserve, so its gap starts at 0 and a single
    machine yields makespan exactly N.  Built on the scale of N/m."""
    per = Fraction(inst.total_load, inst.m)
    scale = per.denominator
    smax, per = inst.s_max * scale, per.numerator
    builder = Builder(inst.m, scale)
    seq = (class_batch(inst, i, scale) for i in range(inst.c))
    run_wrap(builder, seq, [Gap(0, 0, smax + per), Gap(1, smax, smax + per, inst.m - 1)])
    sched = builder.finalize()
    return sched, sched.makespan()


def _decide_split(inst: Instance, guess: Rat) -> Decision:
    """The dual's verdict on a guess, with the required load and machines;
    its plan maps each expensive class (setup beyond guess/2) to its setup
    count beta_i = ceil(2P_i/guess).

    The load/machine thresholds certify rejection: any feasible schedule with
    makespan guess needs beta_i setups per expensive class, and distinct
    machines for all of those.
    """
    # integer comparisons against the guess p/q: x > guess/2 iff 2 x q > p
    p, q = guess.as_integer_ratio()
    if p <= 0:
        return Decision(False, "load")
    if p < inst.s_max * q:
        return Decision(False, "setup-bound")
    load = inst.total_load  # one setup per class, beta_i per expensive one
    betas: dict[int, int] = {}
    for i, cl in enumerate(inst.classes):
        if 2 * cl.setup * q > p:
            beta = betas[i] = -(-2 * cl.total * q // p)
            load += (beta - 1) * cl.setup
    return decide_need(inst.m, p, q, load, sum(betas.values()), betas)


def dual_split(inst: Instance, guess: Rat) -> Decision:
    """The decision with either a schedule of makespan <= (3/2)*guess or a
    certificate that guess < OPT for the splittable variant."""
    return decided_outcome(inst, guess, _decide_split(inst, guess), _build_split)


def _build_split(inst: Instance, guess: Rat, betas: dict[int, int]) -> Schedule:
    """The construction on the scale 2q of the guess p/q, where half the
    guess is p: each expensive class wraps over its beta_i machines, the
    cheap ones over what is left."""
    scale = 2 * guess.denominator
    half = guess.numerator
    builder = Builder(inst.m, scale)
    base = 0
    cheap_gaps: list[Gap] = []
    for i, beta in betas.items():
        s = inst.classes[i].setup * scale
        res = run_wrap(builder, [class_batch(inst, i, scale)],
                       [Gap(base, 0, s + half), Gap(base + 1, s, s + half, beta - 1)])
        # Last machine of the class: reserve half a guess for one cheap setup,
        # then its remaining headroom up to (3/2)*guess is usable.
        if res.last_fill < 2 * half:
            cheap_gaps.append(Gap(res.last_machine, res.last_fill + half, 3 * half))
        base += beta
    if len(betas) < inst.c:
        # one batch alive at a time
        seq = (class_batch(inst, i, scale) for i in range(inst.c) if i not in betas)
        cheap_gaps.append(Gap(base, half, 3 * half, inst.m - base))
        # half a guess is reserved under every gap
        run_wrap(builder, seq, cheap_gaps, setups_below=True)
    return builder.finalize()


def class_jump_split(inst: Instance) -> SearchResult:
    """Exact 3/2-approximation: the least guess the dual accepts, by
    `search.class_jump_search`.  Between consecutive doubled setups the
    expensive classes stay the same, and each needs one more setup every
    time the guess drops past 2P_i/k."""

    def expensive(high_end: Rat) -> dict[int, int]:
        # expensive throughout the bracket; a class jumps at 2P/d
        hp, hq = high_end.as_integer_ratio()
        return {i: 2 * cl.total for i, cl in enumerate(inst.classes) if 2 * cl.setup * hq >= hp}

    return class_jump_search(inst, Variant.SPLITTABLE,
                             lambda: ({2 * cl.setup for cl in inst.classes}, 1), expensive, 1)
