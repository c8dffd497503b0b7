"""Ground truth for small instances: exact non-preemptive optimum by
exhaustive assignment enumeration, and a dense breakpoint scan that finds the
least guess a variant's dual accepts."""

from __future__ import annotations

import math
from fractions import Fraction

from batchsched.core import ContractError, Instance, Rat, Variant, lower_bound_tmin


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
