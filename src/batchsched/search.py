"""Variant-generic makespan search: `solve`, the one dispatch from a
(variant, algorithm) pair to its answer; bisection to a (3/2+eps) guarantee;
`class_jump_search`, the one exact class-jump search the splittable and
preemptive variants run (each names only its thresholds and jump members);
`_bisect`, the one bisection of every search; and the probe and result
types all of them share."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple, Optional

from .core import (
    ContractError,
    Decision,
    Instance,
    Rat,
    Schedule,
    ValidationError,
    Variant,
    lower_bound_tmin,
)

DEFAULT_EPS = Fraction(1, 1000)  # the bisection's tolerance when none is given


class SearchResult(namedtuple("SearchResult", "guess schedule lower_bound makespan probes trace")):
    """Outcome of a makespan search, or of any other algorithm `solve` runs.

    guess        the accepted makespan guess (2 T_min for the 2-approximation)
    schedule     feasible schedule with makespan <= (3/2) * guess
    lower_bound  certified bound: lower_bound <= OPT (largest rejected probe,
                 the instance lower bound, or the exact-search argument)
    makespan     the schedule's makespan
    probes       (guess, accepted) pairs in probe order
    trace        the class-jump walk's internals; None unless it ran
    ratio_bound  exact makespan / lower_bound: the schedule is provably within
                 this factor of optimal (ContractError for a bound <= 0), found
                 on the first read and kept beside the fields
    """

    def __new__(cls, guess: Rat, schedule: Schedule, lower_bound: Rat, makespan: Rat,
                probes: Optional[list[tuple[Rat, bool]]] = None,
                trace: Optional[JumpTrace] = None) -> SearchResult:
        return tuple.__new__(cls, (guess, schedule, lower_bound, makespan,
                                   [] if probes is None else probes, trace))

    @cached_property
    def ratio_bound(self) -> Rat:
        if self.lower_bound <= 0:
            raise ContractError("lower bound must be positive")
        return self.makespan / self.lower_bound


class Rejected(Exception):
    """The 3/2-dual rejected `guess`, certifying guess < OPT, for `reason`."""

    def __init__(self, guess: Rat, reason: str):
        super().__init__(f"dual rejected guess {guess}: {reason}")
        self.guess = guess
        self.reason = reason


class VariantOps(NamedTuple):
    decide: Callable[[Instance, Rat], Decision]  # the dual's verdict, no schedule
    dual: Callable[[Instance, Rat], Decision]  # the 3/2-dual: verdict and schedule
    search: Callable[[Instance], SearchResult]  # the exact search
    two_approx: Callable[[Instance], tuple[Schedule, Rat]]  # schedule within 2 T_min


def variant_ops(variant: Variant) -> VariantOps:
    """The variant's decision, dual, exact search and 2-approximation.  The
    modules are bound once, at the end of this one, but their attributes
    are read at call time, so a function patched into its module is seen."""
    if variant is Variant.SPLITTABLE:
        return VariantOps(split._decide_split, split.dual_split, split.class_jump_split,
                          split.two_approx_split)
    next_fit = partial(nonp.next_fit_two_approx, variant=variant)
    if variant is Variant.PREEMPTIVE:
        return VariantOps(pmtn._decide_pmtn, pmtn.dual_pmtn, pmtn.class_jump_pmtn, next_fit)
    return VariantOps(nonp._decide_nonp, nonp.dual_nonp, nonp.exact_integer_search_nonp, next_fit)


def solve(inst: Instance, variant: Variant, algo: str, *, eps: Rat = DEFAULT_EPS,
          guess: Optional[Rat] = None) -> SearchResult:
    """The variant's answer by one of the paper's four algorithms: "two-approx"
    (linear time, certified by T_min), "dual" (the 3/2-dual at `guess`,
    certified by T_min; Rejected when it proves guess < OPT), "eps"
    (`epsilon_search` to (3/2)(1 + eps)) or "jump" (the exact 3/2 search).
    ValidationError for an unknown algo, or "dual" without a guess."""
    ops = variant_ops(variant)
    if algo == "two-approx":
        sched, makespan = ops.two_approx(inst)
        tmin = lower_bound_tmin(inst, variant)
        return SearchResult(guess=2 * tmin, schedule=sched, lower_bound=tmin, makespan=makespan)
    if algo == "dual":
        if guess is None:
            raise ValidationError("algo 'dual' needs a guess (--T)")
        out = ops.dual(inst, guess)
        if not out.accepted:
            raise Rejected(guess, out.reason)
        return SearchResult(guess=guess, schedule=out.schedule,
                            lower_bound=lower_bound_tmin(inst, variant),
                            makespan=out.schedule.makespan(), probes=[(guess, True)])
    if algo == "eps":
        return epsilon_search(inst, variant, eps)
    if algo == "jump":
        return ops.search(inst)
    raise ValidationError(f"unknown algorithm {algo!r}")


class Probe:
    """A search's view of the variant's dual decision on one instance: each
    guess is decided and recorded in probe order, as it was probed (a
    Fraction, or an int in the integer search).  Every search probes each
    guess once, strictly inside the bracket it has left."""

    def __init__(self, inst: Instance, variant: Variant):
        self.inst = inst
        self.ops = variant_ops(variant)
        self.probes: list[tuple[Rat, bool]] = []

    def __call__(self, guess: Rat) -> bool:
        ok = self.ops.decide(self.inst, guess).accepted
        self.probes.append((guess, ok))
        return ok

    def finish(self, guess: Rat, lower_bound: Rat, trace: Optional[JumpTrace] = None) -> SearchResult:
        """Build the schedule for the guess the search settled on."""
        out = self.ops.dual(self.inst, guess)
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


class JumpTrace(NamedTuple):
    """Class-jump search internals kept for inspection and for the
    jump-density checks."""

    jump_interval: tuple[Rat, Rat]  # X: between consecutive jumps of the fastest member
    jumps: list[tuple[int, Rat]]  # collected (class, jump) strictly inside X
    final_interval: tuple[Rat, Rat]
    members: tuple[int, ...]  # classes whose machine count jumps throughout the walk's (A, B]


def _bisect(at: Callable[[int], Rat], probe: Probe, bad: int, good: int) -> tuple[int, int]:
    """Narrow the indices bad (its guess at(bad) rejected) and good (at(good)
    accepted), in either order, to adjacent ones; only indices strictly
    between them are probed."""
    while abs(good - bad) > 1:
        mid = (bad + good) // 2
        if probe(at(mid)):
            good = mid
        else:
            bad = mid
    return bad, good


def class_jump_walk(
    probe: Probe,
    cands: list[Rat],
    jump_values: Callable[[Rat], dict[int, int]],
    d_min: int,
    m: int,
) -> JumpTrace:
    """Narrow the least accepted guess to a bracket with no class jump inside.

    `cands` are increasing thresholds, cands[0] rejected and cands[-1]
    accepted, between which the class layers do not change.  For the bracket
    (A, B] found among them, `jump_values(B)` maps each member class to its
    int v: the class needs one more machine each time the guess drops past
    v/d, d >= d_min.  The jumps of the fastest member (largest v) are bisected,
    up to m + d_min - 1 of them below B, past which the member alone needs
    more than m machines.  Between two consecutive ones every other member
    jumps at most once, so those jumps are collected and bisected.
    """
    lo, hi = _bisect(cands.__getitem__, probe, 0, len(cands) - 1)
    low_end, high_end = cands[lo], cands[hi]
    values = jump_values(high_end)
    x_lo, x_hi = low_end, high_end
    collected: list[tuple[int, Rat]] = []
    if values:
        # int arithmetic on the bracket's ends lp/lq and hp/hq
        lp, lq = low_end.as_integer_ratio()
        hp, hq = high_end.as_integer_ratio()
        v = max(values.values())  # the fastest member's v
        d_hi = max(d_min, -(-v * hq // hp))  # largest jump at or below B
        d_cap = d_hi + m + d_min - 1
        # clip the jumps v/d to the open bracket
        d_lo = max(d_min, v * hq // hp + 1)
        d_top = min(d_cap, -(-v * lq // lp) - 1)
        if d_lo <= d_top:
            # index d_lo-1 stands for B (accepted), d_top+1 for A (rejected)
            r_idx, a_idx = _bisect(partial(Fraction, v), probe, d_top + 1, d_lo - 1)
            x_hi = Fraction(v, a_idx) if a_idx >= d_lo else high_end
            x_lo = Fraction(v, r_idx) if r_idx <= d_top else low_end
        lp, lq = x_lo.as_integer_ratio()
        hp, hq = x_hi.as_integer_ratio()
        for i, w in values.items():
            d = max(d_min, -(-w * hq // hp))  # w/d is the member's largest jump below x_hi
            if lp * d < w * lq and w * hq < hp * d:
                collected.append((i, Fraction(w, d)))

    chain = [x_lo] + sorted({t for _, t in collected}) + [x_hi]
    lo2, hi2 = _bisect(chain.__getitem__, probe, 0, len(chain) - 1)
    return JumpTrace(
        jump_interval=(x_lo, x_hi),
        jumps=collected,
        final_interval=(chain[lo2], chain[hi2]),
        members=tuple(values),
    )


def class_jump_search(
    inst: Instance,
    variant: Variant,
    thresholds: Callable[[], tuple[Iterable[int], int]],
    members: Callable[[Rat], dict[int, int]],
    d_min: int,
    refine: Optional[Callable[[Instance, Rat, Rat], Iterable[Rat]]] = None,
) -> SearchResult:
    """The least guess in [T_min, 2 T_min] the variant's dual accepts, by
    class jumping.  T_min is a certified lower bound, so an accepted T_min is
    the answer (no trace); otherwise 2 T_min must be accepted.  Only then,
    `thresholds()` gives ints x and a scale: the guesses x/scale where the
    class layers change.  Those inside (T_min, 2 T_min) bracket the answer
    for `class_jump_walk` (with `members` and `d_min`).  `refine(inst,
    t_fail, t_ok)`, if given, names guesses inside the bracket where the
    decision can change; they are bisected until it names none.

    On the bracket (t_fail, t_ok] left, the required load L and machines are
    constant, and the decision is right-continuous, so t_fail decides like
    the interior, which accepts exactly from L/m on (machines permitting):
    the answer is L/m when that lies inside, else t_ok.  Every guess below
    it is rejected, so it is also the certified lower bound.  Decided at the
    midpoint; the schedule is built once, for the answer.
    """
    probe = Probe(inst, variant)
    bottom = lower_bound_tmin(inst, variant)
    if probe(bottom):
        return probe.finish(bottom, bottom)
    top = 2 * bottom
    if not probe(top):
        raise ContractError(f"dual rejected 2*T_min = {top}; 2-approximation bound broken")
    xs, scale = thresholds()
    # x/scale lies inside (bottom, top) iff x_lo < x < x_hi, for ints x
    bp, bq = bottom.as_integer_ratio()
    tp, tq = top.as_integer_ratio()
    x_lo, x_hi = bp * scale // bq, -(-tp * scale // tq)
    inside = sorted(x for x in xs if x_lo < x < x_hi)
    cands = [bottom, *(Fraction(x, scale) for x in inside), top]
    trace = class_jump_walk(probe, cands, members, d_min, inst.m)
    t_fail, t_ok = trace.final_interval
    while refine is not None and (inner := sorted(refine(inst, t_fail, t_ok))):
        points = [t_fail, *inner, t_ok]
        lo, hi = _bisect(points.__getitem__, probe, 0, len(points) - 1)
        t_fail, t_ok = points[lo], points[hi]
        trace = trace._replace(final_interval=(t_fail, t_ok))

    fp, fq = t_fail.as_integer_ratio()
    op, oq = t_ok.as_integer_ratio()
    d = probe.ops.decide(inst, Fraction(fp * oq + op * fq, 2 * fq * oq))
    t_star = t_ok
    if d.load is not None and d.machines <= inst.m:
        # L/m against the bracket's ends, cross-multiplied
        if d.load * fq <= inst.m * fp:
            raise ContractError("required load inconsistent across the bracket")
        if d.load * oq <= inst.m * op:
            t_star = Fraction(d.load, inst.m)
    return probe.finish(t_star, t_star, trace)


def epsilon_search(inst: Instance, variant: Variant, eps: Rat) -> SearchResult:
    """Bisect the grid T_min (1 + i/2^k) of [T_min, 2 T_min], k the least
    with 2^k >= 1/eps, by `_bisect` from T_min (certified, never probed) and
    2 T_min: the accepted guess ends within T_min/2^k <= eps T_min of a
    rejected guess or T_min, so the schedule is within (3/2)(1+eps) of
    optimal.  Exactly k + 1 probes, which only decide; the schedule is built
    once, for the final guess."""
    en, ed = eps.as_integer_ratio()  # exact for an int, a float or a Fraction
    if en <= 0:
        raise ValidationError("eps must be > 0")
    probe = Probe(inst, variant)
    L, D = lower_bound_tmin(inst, variant).as_integer_ratio()
    K = 1 << (-(-ed // en) - 1).bit_length()  # 2^k

    @cache
    def at(i: int) -> Rat:  # the grid's point i, 0 <= i <= 2^k, made once
        return Fraction(L * (K + i), D * K)

    if not probe(at(K)):
        raise ContractError(f"dual rejected 2*T_min = {at(K)}; 2-approximation bound broken")
    lo, hi = _bisect(at, probe, 0, K)
    return probe.finish(at(hi), at(lo))


def certified_report(result: SearchResult) -> SearchResult:
    """`result`, once its ratio bound is computed: ContractError for a bound <= 0."""
    result.ratio_bound
    return result


# The variant modules import this one, so they are bound here, at its end,
# once: variant_ops reads their functions at call time.
from . import nonpreemptive as nonp, preemptive as pmtn, splittable as split  # noqa: E402
