"""Ground truth for small instances: exact non-preemptive optimum by
exhaustive assignment enumeration, a dense breakpoint scan that finds the
least guess a variant's dual accepts, and the reference verifier the
one-pass `verify_schedule` is compared with."""

from __future__ import annotations

import math
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
