"""Variant-generic makespan search: bisection to a (3/2+eps) guarantee, the
class-jump walk and the closed-form closing shared by the splittable and
preemptive exact searches, plus the result/reporting types shared by all
search strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .core import (
    ContractError,
    Decision,
    DualOutcome,
    Instance,
    Rat,
    Schedule,
    ValidationError,
    Variant,
    job_setup_bound,
    lower_bound_tmin,
    trivial_one_job_per_machine,
)


@dataclass
class SearchResult:
    """Outcome of a makespan search.

    guess        the accepted makespan guess the schedule was built for
    schedule     feasible schedule with makespan <= (3/2) * guess
    lower_bound  certified bound: lower_bound <= OPT (largest rejected probe,
                 the instance lower bound, or the exact-search argument)
    probes       (guess, accepted) pairs in probe order
    """

    guess: Rat
    schedule: Schedule
    lower_bound: Rat
    makespan: Rat
    probes: list[tuple[Rat, bool]] = field(default_factory=list)
    trace: Optional[JumpTrace] = None


class VariantOps(NamedTuple):
    decide: Callable[[Instance, Rat], Decision]  # the dual's verdict, no schedule
    dual: Callable[[Instance, Rat], DualOutcome]  # the 3/2-dual: verdict and schedule
    search: Callable[[Instance], SearchResult]  # the exact search


def variant_ops(variant: Variant) -> VariantOps:
    """The variant's decision, dual and exact search.  The module attributes
    are read at call time, so a function patched into its module is seen."""
    from . import nonpreemptive as nonp, preemptive as pmtn, splittable as split

    return {
        Variant.SPLITTABLE: VariantOps(split._decide_split, split.dual_split, split.class_jump_split),
        Variant.PREEMPTIVE: VariantOps(pmtn._decide_pmtn, pmtn.dual_pmtn, pmtn.class_jump_pmtn),
        Variant.NONPREEMPTIVE: VariantOps(
            nonp._decide_nonp, nonp.dual_nonp, nonp.exact_integer_search_nonp
        ),
    }[variant]


def trivial_search(inst: Instance) -> SearchResult:
    """m >= n, non-splittable: one job per machine is optimal, and its
    makespan is the job-setup bound, so no probe is needed."""
    sched = trivial_one_job_per_machine(inst)
    best = Fraction(job_setup_bound(inst))
    return SearchResult(
        guess=best, schedule=sched, lower_bound=best, makespan=sched.makespan(), probes=[]
    )


class CachedProbe:
    """A search's view of the dual decision: each distinct guess is decided
    once, and the decided guesses are recorded in probe order."""

    def __init__(self, decide: Callable[[Rat], bool]):
        self.decide = decide
        self.cache: dict[Rat, bool] = {}
        self.probes: list[tuple[Rat, bool]] = []

    def __call__(self, guess: Rat) -> bool:
        guess = Fraction(guess)
        ok = self.cache.get(guess)
        if ok is None:
            ok = self.cache[guess] = self.decide(guess)
            self.probes.append((guess, ok))
        return ok

    def finish(
        self, dual, inst: Instance, guess: Rat, lower_bound: Rat, trace: Optional[JumpTrace] = None
    ) -> SearchResult:
        """Build the schedule for the guess the search settled on."""
        out = dual(inst, guess)
        if not out.accepted:
            raise ContractError(f"search landed on rejected guess {guess}")
        return SearchResult(
            guess=guess,
            schedule=out.schedule,
            lower_bound=lower_bound,
            makespan=out.schedule.makespan(),
            probes=self.probes,
            trace=trace,
        )


# ---------------------------------------------------------------------------
# Class jumping
# ---------------------------------------------------------------------------


@dataclass
class JumpTrace:
    """Class-jump search internals kept for inspection and for the
    jump-density checks."""

    structure_interval: tuple[Rat, Rat]  # bracket (A, B] with constant class layers
    jump_interval: tuple[Rat, Rat]  # X: between consecutive jumps of the fastest member
    fastest: Optional[int]
    jumps: list[tuple[int, Rat]]  # collected (class, jump) strictly inside X
    final_interval: tuple[Rat, Rat]
    members: tuple[int, ...]  # classes whose machine count jumps throughout (A, B]


def _bisect_right_interval(values, probe, lo_idx, hi_idx):
    """Indices into `values` with values[lo_idx] rejected, values[hi_idx]
    accepted; narrows to an adjacent such pair."""
    while hi_idx - lo_idx > 1:
        mid = (lo_idx + hi_idx) // 2
        if probe(values[mid]):
            hi_idx = mid
        else:
            lo_idx = mid
    return lo_idx, hi_idx


def class_jump_walk(
    probe: CachedProbe,
    cands: list[Rat],
    jump_values: Callable[[Rat], dict[int, Rat]],
    d_min: int,
    m: int,
) -> JumpTrace:
    """Narrow the least accepted guess to a bracket with no class jump inside.

    `cands` are increasing thresholds, cands[0] rejected and cands[-1]
    accepted, between which the class layers do not change.  For the bracket
    (A, B] found among them, `jump_values(B)` maps each member class to its v:
    the class needs one more machine each time the guess drops past v/d,
    d >= d_min.  The jumps of the fastest member (largest v) are bisected,
    up to m + d_min - 1 of them below B, past which the member alone needs
    more than m machines.  Between two consecutive ones every other member
    jumps at most once, so those jumps are collected and bisected.
    """
    lo, hi = _bisect_right_interval(cands, probe, 0, len(cands) - 1)
    low_end, high_end = cands[lo], cands[hi]
    values = jump_values(high_end)
    x_lo, x_hi = low_end, high_end
    fastest: Optional[int] = None
    collected: list[tuple[int, Rat]] = []
    if values:
        fastest = min(values, key=lambda i: (-values[i], i))
        v = values[fastest]
        d_hi = max(d_min, math.ceil(v / high_end))  # largest jump at or below B
        d_cap = d_hi + m + d_min - 1
        # clip the jumps v/d to the open bracket
        d_lo = d_hi
        while d_lo <= d_cap and v / d_lo >= high_end:
            d_lo += 1
        d_top = min(d_cap, math.ceil(v / low_end) - 1)
        if d_lo <= d_top:
            # virtual index d_lo-1 stands for B (accepted), d_top+1 for A (rejected)
            a_idx, r_idx = d_lo - 1, d_top + 1
            while r_idx - a_idx > 1:
                mid = (a_idx + r_idx) // 2
                if probe(v / mid):
                    a_idx = mid
                else:
                    r_idx = mid
            x_hi = v / a_idx if a_idx >= d_lo else high_end
            x_lo = v / r_idx if r_idx <= d_top else low_end
        for i, w in values.items():
            cand = w / max(d_min, math.ceil(w / x_hi))
            if x_lo < cand < x_hi:
                collected.append((i, cand))

    chain = [x_lo] + sorted({t for _, t in collected}) + [x_hi]
    lo2, hi2 = _bisect_right_interval(chain, probe, 0, len(chain) - 1)
    return JumpTrace(
        structure_interval=(low_end, high_end),
        jump_interval=(x_lo, x_hi),
        fastest=fastest,
        jumps=collected,
        final_interval=(chain[lo2], chain[hi2]),
        members=tuple(values),
    )


def close_bracket(
    probe: CachedProbe,
    inst: Instance,
    decide: Callable[[Instance, Rat], Decision],
    dual: Callable[[Instance, Rat], DualOutcome],
    trace: JumpTrace,
) -> SearchResult:
    """The least accepted guess in trace.final_interval (t_fail, t_ok].

    The caller has narrowed the bracket until the decision's required load L
    and machines are constant inside it, and the decision is
    right-continuous, so t_fail decides like the interior.  The interior then
    accepts exactly from L/m on (machines permitting): the answer is L/m when
    that lies inside, else the bracket top.  Every guess below the answer is
    rejected, so it is also the certified lower bound.  Decided at the
    midpoint; the schedule is built once, for the answer.
    """
    t_fail, t_ok = trace.final_interval
    d = decide(inst, (t_fail + t_ok) / 2)
    t_star = t_ok
    if d.load is not None and d.machines <= inst.m:
        t_star = min(d.load / inst.m, t_ok)
        if t_star <= t_fail:
            raise ContractError("required load inconsistent across the bracket")
    return probe.finish(dual, inst, t_star, t_star, trace)


def epsilon_search(inst: Instance, variant: Variant, eps: Rat) -> SearchResult:
    """Bisect makespan guesses in [T_min, 2*T_min] with the variant's dual.

    Keeps (lo rejected-or-T_min, hi accepted) and stops once hi <= (1+eps)*lo,
    so the schedule is within (3/2)(1+eps) of optimal.  Probe count is at most
    ceil(log2(1/eps)) + 1; the probes only decide, and the schedule is built
    once, for the final guess.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be > 0")
    ops = variant_ops(variant)
    probe = CachedProbe(lambda guess: ops.decide(inst, guess).accepted)
    lo = lower_bound_tmin(inst, variant)  # certified lower bound by construction, never probed
    hi = 2 * lo
    if not probe(hi):
        raise ContractError(f"dual rejected 2*T_min = {hi}; 2-approximation bound broken")
    while hi > (1 + eps) * lo:
        mid = (lo + hi) / 2
        if probe(mid):
            hi = mid
        else:
            lo = mid  # every rejected midpoint lies above lo
    return probe.finish(ops.dual, inst, hi, lo)


@dataclass(frozen=True)
class CertifiedReport:
    makespan: Rat
    lower_bound: Rat
    ratio_bound: Rat  # exact makespan / lower_bound; the schedule is provably
    # within this factor of optimal


def certified_report(result: SearchResult) -> CertifiedReport:
    if result.lower_bound <= 0:
        raise ContractError("lower bound must be positive")
    return CertifiedReport(
        makespan=result.makespan,
        lower_bound=result.lower_bound,
        ratio_bound=result.makespan / result.lower_bound,
    )
