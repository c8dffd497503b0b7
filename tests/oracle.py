"""Ground truth for small instances: exact non-preemptive optimum by
exhaustive assignment enumeration, a dense breakpoint scan that finds the
least guess a variant's dual accepts, and the references the library is
compared with: the decisions on `Fraction`s that the integer decisions
replaced, the verifier that the one-pass `verify_schedule` replaced,
the non-preemptive construction with an object per setup and piece, the
preemptive construction that re-classified its nice remainder instead of
reading it off the plan, the per-job oversized-job positions and the
knapsack items read off them, which the decisions find from per-class
aggregates, and the wrap that placed one job at a time; the expansion
of a schedule's runs into one pair per job, which the references write
(`expand_runs`); and the two mappings from a reference build's schedule
to today's (`drop_idle_setups` for the non-preemptive one, `rows_by_start`
for the preemptive one).  The references write each batch as a sequence
of its own, as earlier releases did, and their schedules are flattened
into rows (`flat_row`) where they are written; every reader here walks a
flat row through `core.row_batches` (`batch_list`)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, pairwise
from operator import itemgetter
from typing import Iterator, Optional

from batchsched.core import (
    CapacityError,
    ClassPartition,
    ContractError,
    Decision,
    Instance,
    JobRef,
    Rat,
    Schedule,
    Variant,
    VerifyReport,
    Violation,
    lower_bound_tmin,
    row_batches,
    rows_end,
    trivial_one_job_per_machine,
)
from batchsched.preemptive import KnapsackItem
from batchsched.wrap import Batch, Builder, Gap, WrapResult, check_template, run_wrap


def scaled(x: Rat, scale: int) -> int:
    """x * scale as an int: a value moved onto a build's integer time scale.
    ContractError unless that is exact."""
    t, r = divmod(x.numerator * scale, x.denominator)
    if r:
        raise ContractError(f"{x} is not on the time scale 1/{scale}")
    return t


# The reference nonp construction's item kinds (a placement itself has no
# kind: job -1 marks a setup).
SETUP = "setup"
PIECE = "piece"


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

    for start, end, (cls, _, _, job) in sorted(rows, key=itemgetter(0, 1)):
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
        if job is None:
            if end - start != classes[cls].setup * scale:
                flag("b", f"setup of class {cls} has length {Fraction(end - start, scale)}, "
                          f"expected {classes[cls].setup}")
            ready = cls
        else:
            if not (0 <= job < len(classes[cls].jobs)):
                flag("s", f"unknown job id ({cls}, {job})")
                continue
            if ready != cls:
                flag("b", f"piece of class {cls} not preceded by a setup of its class")


def flat_row(batches) -> list:
    """Batches (cls, start, setup, job, dur, ...), each a sequence of its
    own as earlier releases and the references write them, as one flat row
    (see `core.Row`): each batch's count of pairs after its setup."""
    out: list = []
    for b in batches:
        out += b[0], b[1], b[2], (len(b) - 3) // 2, *b[3:]
    return out


def records_its_end(sched: Schedule) -> bool:
    """Whether the schedule holds the end its build recorded and that end is
    where its rows end."""
    return sched.built_end is not None and sched.built_end == rows_end(sched.rows())


def batch_list(row) -> list[tuple]:
    """A flat row's batches as (cls, start, setup, job, dur, ...) tuples,
    the count left out, found through `core.row_batches`."""
    return [(row[a], row[a + 1], row[a + 2], *row[a + 4:b]) for a, b in pairwise(row_batches(row))]


def _map_rows(sched: Schedule, fn) -> Schedule:
    """The schedule with fn applied to every machine's and configuration's row."""
    return Schedule(m=sched.m, machines=[fn(row) for row in sched.machines],
                    compressed=[(fn(row), mult) for row, mult in sched.compressed], scale=sched.scale)


def flatten(sched: Schedule) -> Schedule:
    """A schedule whose rows hold a sequence per batch, as the frozen
    references write it, with flat rows."""
    return _map_rows(sched, flat_row)


def expand_runs(sched: Schedule, inst: Instance) -> Schedule:
    """The schedule with one pair per job: the same placements, in the same
    order.  A pair longer than its job runs the class's jobs from it on,
    each whole while its duration lasts (see `core.Row`): it becomes a pair
    per whole job and one for the piece left of the last, or, past the
    class's last job, one for the unknown job id len(jobs), as the verifier
    reads it.  Every other pair, and a batch of an unknown class, stays as
    it is.  Rows stay flat, with each batch's count of its new pairs."""
    scale = sched.scale
    lens_of = [[t * scale for t in cl.jobs] for cl in inst.classes]

    def batch(b):
        cls = b[0]
        if not 0 <= cls < len(lens_of):
            return b
        lens = lens_of[cls]
        out = list(b[:3])
        for job, dur in zip(b[3::2], b[4::2]):
            while 0 <= job < len(lens) and dur > lens[job]:
                out += job, lens[job]
                dur -= lens[job]
                job += 1
            out += job, dur
        return out

    return _map_rows(sched, lambda row: flat_row(map(batch, batch_list(row))))


def run_pairs(sched: Schedule, inst: Instance) -> int:
    """How many pairs of the schedule's rows span more than one job: a
    known job, and longer than it."""
    scale, count = sched.scale, 0
    for b in chain.from_iterable(map(batch_list, sched.rows())):
        jobs = inst.classes[b[0]].jobs if 0 <= b[0] < len(inst.classes) else ()
        count += sum(0 <= job < len(jobs) and dur > jobs[job] * scale
                     for job, dur in zip(b[3::2], b[4::2]))
    return count


def placements(sched: Schedule, inst: Instance) -> Iterator[tuple]:
    """Every setup and job piece once as a (cls, start, dur, job) tuple, job
    -1 for a setup: the machines' in order, then each configuration's (not
    repeated by its multiplicity), runs expanded.  Idle pairs are skipped."""
    for batch in chain.from_iterable(map(batch_list, expand_runs(sched, inst).rows())):
        cls, t, setup = batch[0], batch[1], batch[2]
        yield cls, t, setup, -1
        t += setup
        for job, dur in zip(batch[3::2], batch[4::2]):
            if job != -1:
                yield cls, t, dur, job
            t += dur


def _by_start(row) -> list:
    return flat_row(sorted(batch_list(row), key=itemgetter(1)))


def expand(sched: Schedule, inst: Instance) -> Schedule:
    """Materialize the compressed part and the runs: the rows first, then
    mult copies of each configuration, every machine's batches in start
    order, one pair per job."""
    flat = expand_runs(sched, inst)
    copies = [config for config, mult in flat.compressed for _ in range(mult)]
    out = [_by_start(row) for row in flat.machines + copies]
    return Schedule(m=sched.m, machines=out, compressed=[], scale=sched.scale)


def drop_idle_setups(sched: Schedule) -> Schedule:
    """The schedule with every batch that is a setup alone dropped, the
    later batches of its row moved earlier by its length, and the rows left
    empty dropped: what the non-preemptive build writes since it decides
    each cut before it writes a batch, from a schedule written before that
    (`reference_build_nonp`'s).  Rows are read in start order."""
    def row(flat):
        out, shift = [], 0
        for b in batch_list(flat):
            if len(b) == 3:
                shift += b[2]
            else:
                out.append((b[0], b[1] - shift, *b[2:]))
        return flat_row(out)

    return Schedule(m=sched.m, machines=[r for r in map(row, sched.machines) if r],
                    compressed=sched.compressed, scale=sched.scale)


def rows_by_start(sched: Schedule) -> Schedule:
    """The schedule with each row's batches sorted by start: what the
    preemptive build writes since it puts a large machine's bottom before
    its top, from a schedule written before that (`reference_build_pmtn`'s,
    the top first)."""
    return _map_rows(sched, _by_start)


def tuple_view(sched: Schedule, inst: Instance) -> Schedule:
    """The schedule in the shape `reference_verify` reads: each row a list
    of (cls, start, dur, job) tuples, job None for a setup.  Runs are
    expanded (`expand_runs`), then each batch of a row expands to its setup,
    then its pieces from where the setup ends, one after the other; an idle
    pair (job -1) only moves the time on."""
    def view(row):
        out = []
        for cls, start, setup, *pairs in batch_list(row):
            out.append((cls, start, setup, None))
            t = start + setup
            for job, dur in zip(pairs[::2], pairs[1::2]):
                if job != -1:
                    out.append((cls, t, dur, job))
                t += dur
        return out
    return _map_rows(expand_runs(sched, inst), view)


class _ReferenceBuilder(Builder):
    """A Builder that takes a batch as the references write it, (cls,
    start, setup, job, dur, ...), and puts it flat."""

    def put(self, machine: int, batch: tuple):
        super().put(machine, flat_row([batch]))


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
        rows = [(start := p[1], start + p[2], p) for p in placements]
        top = max(top, max((end for _, end, _ in rows), default=0))
        if copies < 1:
            out.append(Violation("s", label, Fraction(0), "multiplicity < 1"))
            continue
        _check_machine(inst, label, rows, scale, out)
        for start, end, (cls, _, _, job) in rows:
            if job is None:
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
# placed one item at a time on machine stacks: one mutable _Item per setup
# and piece, carrying its creation order and the repair's step-3 and
# crossing flags.  Kept as the reference the run-at-a-time build must
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
        for stack in self.stacks:
            t = 0
            row = []
            for it in stack:
                if it.kind == SETUP:
                    row.append([it.cls, t, it.dur])
                else:
                    if not row or row[-1][0] != it.cls:
                        raise ContractError("a piece follows no setup of its class")
                    row[-1] += it.ref[1], it.dur
                t += it.dur
            machines.append(flat_row(row))
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
        forced_by_cls.setdefault(ref[0], []).append((ref, inst.classes[ref[0]].jobs[ref[1]] * scale))
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
            if it.kind == PIECE and it.dur != inst.classes[it.ref[0]].jobs[it.ref[1]] * st.scale:
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
        whole = inst.classes[last.ref[0]].jobs[last.ref[1]] * st.scale
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


# ---------------------------------------------------------------------------
# The preemptive construction that re-classified its nice remainder
# ---------------------------------------------------------------------------

# A class spec is (class id, setup, [(job ref, duration), ...], total work),
# on one time scale with the guess it is held against.
ReferenceClsSpec = tuple[int, int, list[tuple[JobRef, Rat]], Rat]


def _reference_gamma_count(setup: Rat, work: Rat, guess: Rat) -> int:
    return max(1, -(-2 * (setup + work) // guess) - 2)


@dataclass
class _ReferenceNiceParts:
    plus: list[ReferenceClsSpec]  # expensive, setup + work > T
    minus: list[ReferenceClsSpec]  # expensive, setup + work <= 3/4 T
    cheap: list[ReferenceClsSpec]
    gamma: dict[int, int]


def reference_nice_parts(specs: list[ReferenceClsSpec], guess: Rat) -> _ReferenceNiceParts:
    """Split a nice instance at the guess, right-continuously: a class with
    setup + work equal to the guess belongs to the almost-full layer, as it
    does just above the guess."""
    plus, minus, cheap = [], [], []
    gamma: dict[int, int] = {}
    for spec in specs:
        cls, setup, items, work = spec
        if 2 * setup > guess:
            reach = setup + work
            if reach > guess:
                if guess <= setup:
                    raise ContractError("nice construction needs T > every setup")
                gamma[cls] = _reference_gamma_count(setup, work, guess)
                plus.append(spec)
            elif 4 * reach <= 3 * guess:
                minus.append(spec)
            else:
                raise ContractError("instance is not nice for this guess")
        else:
            cheap.append(spec)
    return _ReferenceNiceParts(plus=plus, minus=minus, cheap=cheap, gamma=gamma)


def reference_decide_nice_parts(parts: _ReferenceNiceParts, m: int, guess: Rat) -> Decision:
    """Whether m machines take the nice instance at the guess."""
    load = Fraction(0)
    machines = (len(parts.minus) + 1) // 2
    for cls, setup, _, work in parts.plus:
        load += parts.gamma[cls] * setup + work
        machines += parts.gamma[cls]
    for _, setup, _, work in parts.minus + parts.cheap:
        load += setup + work
    return reference_decide_need(m, guess, load, machines)


def _reference_build_nice(builder: Builder, parts: _ReferenceNiceParts, first: int, count: int,
                          guess: int) -> None:
    """Place a nice instance on machines first..first+count-1.  The guess
    and the parts are ints on the builder's scale, where the guess is even.

    Each expensive heavy class gets gaps of height T/2 above its setups, with
    the overflow piled onto its last machine (the shape whose reshape points
    the jump search walks).
    """
    base = first
    limit = first + count
    half = guess // 2
    threehalf = 3 * half

    for cls, s, items, _ in parts.plus:
        batch = Batch(cls=cls, setup=s, jobs=tuple(x for ref, dur in items for x in (ref[1], dur)))
        g = parts.gamma[cls]
        if g == 1:
            gaps = [Gap(base, 0, threehalf)]
        else:
            gaps = [Gap(base, 0, s + half)]
            gaps += [Gap(base + r, s, s + half) for r in range(1, g - 1)]
            gaps.append(Gap(base + g - 1, s, threehalf))
        if base + g > limit:
            raise ContractError("nice construction ran out of machines")
        run_wrap(builder, [batch], gaps)
        base += g

    odd_machine: Optional[int] = None
    mm = parts.minus
    for k in range(0, len(mm), 2):
        u = base
        base += 1
        if u >= limit:
            raise ContractError("nice construction ran out of machines")
        t = 0
        for cls, setup, items, _ in mm[k:k + 2]:
            placed = [cls, t, setup]
            t += setup
            for ref, dur in items:
                placed += ref[1], dur
                t += dur
            builder.put(u, tuple(placed))
        if k + 1 == len(mm):
            odd_machine = u

    if not parts.cheap:
        return
    gaps = []
    if odd_machine is not None:
        gaps.append(Gap(odd_machine, guess, threehalf))
    gaps += [Gap(u, half, threehalf) for u in range(base, limit)]
    seq = [Batch(cls=cls, setup=setup, jobs=tuple(x for ref, dur in items for x in (ref[1], dur)))
           for cls, setup, items, _ in parts.cheap]
    run_wrap(builder, seq, gaps)


def _reference_full_specs(inst: Instance, indices, scale: int) -> list[ReferenceClsSpec]:
    out = []
    for i in indices:
        cl = inst.classes[i]
        items = [((i, j), t * scale) for j, t in enumerate(cl.jobs)]
        out.append((i, cl.setup * scale, items, cl.total * scale))
    return out


def reference_big_jobs(inst: Instance, guess: Rat) -> dict[int, tuple[int, ...]]:
    """The oversized jobs of the small-setup cheap classes (s <= T/4): class
    -> positions with s + t > T/2, for the classes that have one.  These
    classes are exactly `classify`'s chp_star."""
    return {i: big for i, cl in enumerate(inst.classes) if 4 * cl.setup <= guess
            if (big := tuple(j for j, t in enumerate(cl.jobs) if 2 * (cl.setup + t) > guess))}


def reference_star_items(inst: Instance, guess: Rat, free: Rat):
    """`preemptive._star_items` at half the guess, read off the positions of
    `reference_big_jobs`: the knapsack items, the obligatory spills and the
    capacity."""
    half = guess / 2
    items: list[KnapsackItem] = []
    obligatory: dict[int, Rat] = {}
    for i, big in reference_big_jobs(inst, guess).items():
        cl = inst.classes[i]
        ob = obligatory[i] = sum(cl.jobs[j] for j in big) - len(big) * (half - cl.setup)
        items.append(KnapsackItem(cls=i, profit=Fraction(cl.setup), weight=cl.total - ob,
                                  growth=Fraction(len(big), 2)))
    return items, obligatory, free - sum(inst.classes[i].setup + ob for i, ob in obligatory.items())


def star_items_in_time(items: list[KnapsackItem], obligatory: dict[int, int], capacity: int,
                       q: int):
    """`preemptive._star_items`' result at a guess p/q in time units, as
    `reference_star_items` gives it: weights, spills and capacity off the
    scale 2q, growth per unit guess (half the growth per half a guess)."""
    items = [KnapsackItem(cls=it.cls, profit=Fraction(it.profit),
                          weight=Fraction(it.weight, 2 * q), growth=Fraction(it.growth, 2))
             for it in items]
    return items, {i: Fraction(x, 2 * q) for i, x in obligatory.items()}, Fraction(capacity, 2 * q)


def reference_build_pmtn(inst: Instance, guess: Rat, plan) -> Schedule:
    """The construction for a plan of `preemptive._decide_pmtn`, which sorts
    and classifies its nice remainder a second time and holds it against the
    machines left with a second copy of the load and machine count.  It
    reads the plan's free time and spills in time units, off their scales
    q and 2q of the guess p/q."""
    sol = plan.knapsack
    scale = 4 * guess.denominator
    if sol is not None and sol.split_item is not None:
        scale *= sol.x[sol.split_item].denominator
    T = scaled(guess, scale)
    half, quarter = T // 2, T // 4
    builder = _ReferenceBuilder(inst.m, scale)
    part = plan.part
    l = len(part.exp_zero)
    big_jobs = reference_big_jobs(inst, guess)

    # Dedicated machines: one almost-full expensive class each, starting at
    # half the guess so their bottoms stay free for leftovers.
    for u, i in enumerate(part.exp_zero):
        cl = inst.classes[i]
        placed = [i, half, cl.setup * scale]
        for j, dur in enumerate(cl.jobs):
            placed += j, dur * scale
        builder.put(u, tuple(placed))

    # Split every oversized job of a small-setup class: the head fits below
    # half the guess next to its setup, the tail must leave the large machines.
    head_dur: dict[JobRef, int] = {}
    tail_dur: dict[JobRef, int] = {}
    for i in part.chp_star:
        cl = inst.classes[i]
        for j in big_jobs[i]:
            head_dur[(i, j)] = half - cl.setup * scale
            tail_dur[(i, j)] = (cl.setup + cl.jobs[j]) * scale - half

    sub_specs: list[ReferenceClsSpec] = _reference_full_specs(
        inst, list(part.exp_plus) + list(part.exp_minus) + list(part.chp_plus), scale
    )
    leftovers: list[tuple[int, JobRef, int]] = []  # (class, job, duration)
    split_cls = None
    star = set(part.chp_star)

    if sol is not None:
        split_cls = sol.split_item
        for i in part.chp_star:
            cl = inst.classes[i]
            share = sol.x.get(i, Fraction(0))
            big = set(big_jobs[i])
            obligatory = scaled(Fraction(plan.obligatory[i], 2 * guess.denominator), scale)
            if i == split_cls:
                inside: list[tuple[JobRef, int]] = []
                for j, t in enumerate(cl.jobs):
                    t *= scale
                    if j in big:
                        d2 = scaled(share * head_dur[(i, j)], 1) + tail_dur[(i, j)]
                    else:
                        d2 = scaled(share * t, 1)
                    if d2 > 0:
                        inside.append(((i, j), d2))
                    if t > d2:
                        leftovers.append((i, (i, j), t - d2))
                total2 = sum(d for _, d in inside)
                want = obligatory + share * (cl.total * scale - obligatory)
                if total2 != want:
                    raise ContractError("split-class bookkeeping broken")
                sub_specs.append((i, cl.setup * scale, inside, total2))
            elif share == 1:
                sub_specs += _reference_full_specs(inst, [i], scale)
            else:  # share == 0: only the obligatory tails leave the bottom
                inside = [((i, j), tail_dur[(i, j)]) for j in big_jobs[i]]
                sub_specs.append((i, cl.setup * scale, inside, obligatory))
                for j, t in enumerate(cl.jobs):
                    if j in big:
                        leftovers.append((i, (i, j), head_dur[(i, j)]))
                    else:
                        leftovers.append((i, (i, j), t * scale))
        for i in part.chp_minus:
            if i not in star:
                cl = inst.classes[i]
                for j, t in enumerate(cl.jobs):
                    leftovers.append((i, (i, j), t * scale))
    else:
        # Case without a knapsack: everything with an oversized job fits
        # outside the large machines whole; greedily cut the remaining
        # small-setup classes so the nice remainder exactly uses the free time.
        sub_specs += _reference_full_specs(inst, part.chp_star, scale)
        budget = scaled(Fraction(plan.free_time, guess.denominator) - plan.star_total, scale)
        if budget < 0:
            raise ContractError("oversized-job classes overrun the free time")
        for i in part.chp_minus:
            if i in star:
                continue
            cl = inst.classes[i]
            setup = cl.setup * scale
            reach = setup + cl.total * scale
            if reach <= budget:
                sub_specs += _reference_full_specs(inst, [i], scale)
                budget -= reach
            elif budget > setup:
                inside: list[tuple[JobRef, int]] = []
                room = budget - setup
                split_cls = i
                for j, t in enumerate(cl.jobs):
                    t *= scale
                    if room <= 0:
                        leftovers.append((i, (i, j), t))
                        continue
                    take = min(room, t)
                    inside.append(((i, j), take))
                    room -= take
                    if take < t:
                        leftovers.append((i, (i, j), t - take))
                sub_specs.append((i, setup, inside, budget - setup))
                budget = 0
            else:
                for j, t in enumerate(cl.jobs):
                    leftovers.append((i, (i, j), t * scale))
                budget = 0  # nothing more fits wholly

    # The nice remainder occupies the machines after the large ones.
    sub_specs.sort(key=lambda sp: sp[0])
    sub_specs = [sp for sp in sub_specs if sp[2]]
    parts = reference_nice_parts(sub_specs, T)
    d = reference_decide_nice_parts(parts, inst.m - l, T)
    if not d.accepted:
        raise ContractError(f"nice remainder rejected ({d.reason}); budget accounting broken")
    _reference_build_nice(builder, parts, l, inst.m - l, T)

    # Leftovers go to the bottoms of the large machines.  Everything here is
    # small: setup + piece fits in half the guess.
    for i, ref, dur in leftovers:
        if inst.classes[i].setup * scale + dur > half:
            raise ContractError("leftover too large for a bottom")
    kplus = [(i, ref, dur) for i, ref, dur in leftovers if dur > quarter]
    kminus = [(i, ref, dur) for i, ref, dur in leftovers if dur <= quarter]

    def cls_order(i: int) -> tuple:
        return (0 if i == split_cls else 1, i)

    kplus.sort(key=lambda e: (cls_order(e[0]), e[1]))
    if len(kplus) > l:
        raise ContractError("more big leftovers than large machines")
    for u, (i, ref, dur) in enumerate(kplus):
        builder.put(u, (i, 0, inst.classes[i].setup * scale, ref[1], dur))
    lprime = len(kplus)

    if kminus:
        if lprime >= l:
            raise ContractError("no large machine left for small leftovers")
        by_cls: dict[int, list[int]] = {}
        for i, ref, dur in kminus:
            by_cls.setdefault(i, []).extend((ref[1], dur))
        seq = [
            Batch(cls=i, setup=inst.classes[i].setup * scale, jobs=tuple(by_cls[i]))
            for i in sorted(by_cls, key=cls_order)
        ]
        gaps = [Gap(lprime, 0, half)]
        gaps += [Gap(u, quarter, half) for u in range(lprime + 1, l)]
        run_wrap(builder, seq, gaps)

    return builder.finalize()


# ---------------------------------------------------------------------------
# The wrap that placed one job at a time
# ---------------------------------------------------------------------------


class _ReferenceRun:
    """The wrapping pass with one piece per call.  `events` counts the cases
    the wrap differential test must reach."""

    def __init__(self, builder: Builder, gaps: list[Gap], setups_below: bool, events: Counter):
        self.runs = [g for g in gaps if g.count]
        check_template(self.runs)
        if not self.runs:
            raise CapacityError("empty wrap template")
        self.b = builder
        self.setups_below = setups_below
        self.events = events
        self.batch = self.batch_machine = None
        self.k, self.left = -1, 0
        self.next_gap()

    def setup(self, cls: int, start: Rat, dur: Rat):
        self.end_batch()
        self.batch, self.batch_machine = [cls, start, dur], self.machine

    def piece(self, job: int, dur: Rat):
        self.batch += job, dur

    def end_batch(self):
        if self.batch is not None:
            self.b.put(self.batch_machine, flat_row([self.batch]))
            self.batch = None

    def next_gap(self):
        if self.left:
            self.left -= 1
            self.machine += 1
        else:
            self.k += 1
            if self.k == len(self.runs):
                raise CapacityError("wrap sequence exceeds template capacity")
            g = self.runs[self.k]
            self.machine, self.left = g.machine, g.count - 1
            self.open, self.close = g.open, g.close
        self.t = self.open

    def bulk_full_gaps(self, cls: int, setup: Rat, job: int, rest: Rat) -> Rat:
        height = self.close - self.open
        if self.left < 2 or rest <= 2 * height:
            return rest
        self.events["bulk full gaps"] += 1
        full = min(-(-rest // height) - 1, self.left)
        self.b.put_config(self.machine, flat_row([(cls, self.open - setup, setup, job, height)]), full)
        self.machine += full
        self.left -= full
        return rest - height * full

    def finish(self) -> WrapResult:
        self.end_batch()
        return WrapResult(last_machine=self.machine, last_fill=self.t)


def _reference_place_item(run: _ReferenceRun, cls: int, setup: Rat, job: int, dur: Rat):
    end = run.t + dur
    while end > run.close:
        head = run.close - run.t
        if head > 0:
            run.piece(job, head)
        rest = end - run.close
        run.next_gap()
        rest = run.bulk_full_gaps(cls, setup, job, rest)
        run.setup(cls, run.open - setup, setup)
        end = run.t + rest
    if end > run.t:
        run.piece(job, end - run.t)
    if end == run.close:
        run.events["job ends on a close"] += 1
    run.t = end


def _reference_place_batch(run: _ReferenceRun, batch: Batch):
    if run.setups_below and run.t == run.open and run.t + batch.setup <= run.close:
        run.events["setup below"] += 1
        run.setup(batch.cls, run.open - batch.setup, batch.setup)
    elif run.t + batch.setup > run.close:
        run.next_gap()
        run.setup(batch.cls, run.open - batch.setup, batch.setup)
    else:
        run.setup(batch.cls, run.t, batch.setup)
        run.t = run.t + batch.setup
        if run.t == run.close:
            run.events["setup fills a gap"] += 1
    if batch.sums is None:
        items = iter(batch.jobs)
        pairs = zip(items, items)
    else:  # a whole class: job j lasts (sums[j + 1] - sums[j]) * scale
        pairs = enumerate((b - a) * batch.scale for a, b in zip(batch.sums, batch.sums[1:]))
    for job, dur in pairs:
        if dur <= 0:
            raise ValueError(f"job piece {(batch.cls, job)} with non-positive duration {dur}")
        _reference_place_item(run, batch.cls, batch.setup, job, dur)


def reference_run_wrap(builder: Builder, seq, gaps: list[Gap], setups_below: bool = False,
                       events: Optional[Counter] = None) -> WrapResult:
    """`run_wrap` as it placed every job on its own, kept as the reference
    the run-at-a-time wrap must equal."""
    run = _ReferenceRun(builder, gaps, setups_below, Counter() if events is None else events)
    for batch in seq:
        _reference_place_batch(run, batch)
    return run.finish()


# ---------------------------------------------------------------------------
# The decisions on Fractions that the integer decisions replaced
# ---------------------------------------------------------------------------


def reference_decide_need(m: int, guess: Rat, load: Rat, machines: int, plan: object = None) -> Decision:
    """Accept unless the guess needs more than m machines or more load than
    m * guess, compared as Fractions."""
    if m < machines:
        return Decision(False, "machines", load, machines, plan)
    if m * guess < load:
        return Decision(False, "load", load, machines, plan)
    return Decision(True, "", load, machines, plan)


def _reference_job_bound(inst: Instance, guess: Rat) -> Optional[Decision]:
    if guess <= 0:
        return Decision(False, "load")
    if guess < max(cl.setup + max(cl.jobs) for cl in inst.classes):
        return Decision(False, "job-bound")
    if inst.m >= inst.n:
        return Decision(True, "")
    return None


def reference_decide_split(inst: Instance, guess: Rat) -> Decision:
    """`splittable._decide_split` with a Fraction load."""
    if guess <= 0:
        return Decision(False, "load")
    if guess < inst.s_max:
        return Decision(False, "setup-bound")
    load = Fraction(inst.total_work)
    betas: dict[int, int] = {}
    for i, cl in enumerate(inst.classes):
        if 2 * cl.setup > guess:
            beta = betas[i] = math.ceil(2 * cl.total / guess)
            load += beta * cl.setup
        else:
            load += cl.setup
    return reference_decide_need(inst.m, guess, load, sum(betas.values()), betas)


def reference_decide_nonp(inst: Instance, guess: Rat) -> Decision:
    """`nonpreemptive._decide_nonp` on `reference_counts_nonp`, whose
    leftovers are Fractions; its plan is those counts."""
    early = _reference_job_bound(inst, guess)
    if early is not None:
        return early
    counts = reference_counts_nonp(inst, guess)
    load = inst.total_work
    for i, cl in enumerate(inst.classes):
        load += counts.machines[i] * cl.setup
        if counts.leftover[i] > 0:
            load += cl.setup
    return reference_decide_need(inst.m, guess, load, sum(counts.machines), counts)


def reference_classify(inst: Instance, guess: Rat) -> ClassPartition:
    """`core.classify` by Fraction comparisons against the guess."""
    layers: dict[str, list[int]] = {k: [] for k in ClassPartition._fields}
    for i, cl in enumerate(inst.classes):
        reach = cl.setup + cl.total
        if 2 * cl.setup > guess:
            layer = "exp_plus" if reach > guess else "exp_zero" if 4 * reach > 3 * guess else "exp_minus"
        else:
            layer = "chp_plus" if 4 * cl.setup > guess else "chp_minus"
        layers[layer].append(i)
        if layer == "chp_minus" and 2 * (cl.setup + max(cl.jobs)) > guess:
            layers["chp_star"].append(i)
    return ClassPartition(**{k: tuple(v) for k, v in layers.items()})


def _reference_per_weight(x: Rat, weight: Rat) -> tuple[int, int]:
    return x.numerator * weight.denominator, x.denominator * weight.numerator


def _reference_density_order(a, b) -> int:
    (pa, qa), (ga, ha), ita = a
    (pb, qb), (gb, hb), itb = b
    return (pb * qa - pa * qb) or (ga * hb - gb * ha) or (ita.cls - itb.cls)


def reference_continuous_knapsack(items: list[KnapsackItem], capacity: Rat):
    """`preemptive.continuous_knapsack` sorting Fraction densities through a
    comparator: (shares as Fractions, split item)."""
    if capacity < 0:
        raise ContractError("knapsack capacity must be >= 0")
    rest = [it for _, _, it in sorted(
        ((_reference_per_weight(it.profit, it.weight), _reference_per_weight(it.growth, it.weight), it)
         for it in items if it.weight > 0),
        key=cmp_to_key(_reference_density_order),
    )]
    x: dict[int, Rat] = {it.cls: Fraction(1) for it in items if it.weight == 0}
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
    return x, split


@dataclass
class ReferencePmtnPlan:
    """`preemptive._PmtnPlan` in time units: Fraction free time, spills,
    capacity and load."""

    part: ClassPartition
    gamma: dict[int, int]
    free_time: Rat = Fraction(0)
    star_total: int = 0
    shares: Optional[dict[int, Rat]] = None  # the knapsack's, when one runs
    split_item: Optional[int] = None
    obligatory: dict[int, Rat] = field(default_factory=dict)
    load: Rat = Fraction(0)
    machines: int = 0
    reject: Optional[str] = None


def reference_pmtn_plan(inst: Instance, guess: Rat) -> ReferencePmtnPlan:
    """`preemptive._pmtn_plan` on Fractions: the counts, then the geometric
    reject or the knapsack over `reference_star_items`."""
    part = reference_classify(inst, guess)
    classes = inst.classes
    gamma = {i: _reference_gamma_count(classes[i].setup, classes[i].total, guess) for i in part.exp_plus}
    plan = ReferencePmtnPlan(part=part, gamma=gamma)
    l = len(part.exp_zero)
    taken = sum(g * classes[i].setup + classes[i].total for i, g in gamma.items())
    taken += sum(classes[i].setup + classes[i].total for i in part.exp_minus + part.chp_plus)
    plan.free_time = free = (inst.m - l) * guess - taken
    plan.star_total = sum(classes[i].setup + classes[i].total for i in part.chp_star)
    plan.machines = l + (len(part.exp_minus) + 1) // 2 + sum(gamma.values())
    plan.load = Fraction(inst.total_load + sum((g - 1) * classes[i].setup for i, g in gamma.items()))
    if l and free < 0:
        plan.reject = "load"
    elif l and free < plan.star_total:
        items, plan.obligatory, capacity = reference_star_items(inst, guess, free)
        if capacity < 0:
            plan.reject = "load"
            return plan
        plan.shares, plan.split_item = reference_continuous_knapsack(items, capacity)
        plan.load += sum(classes[i].setup for i in part.chp_star
                         if plan.shares[i] == 0 and i != plan.split_item)
    return plan


def reference_decide_pmtn(inst: Instance, guess: Rat) -> Decision:
    """`preemptive._decide_pmtn` on `reference_pmtn_plan`."""
    early = _reference_job_bound(inst, guess)
    if early is not None:
        return early
    plan = reference_pmtn_plan(inst, guess)
    if plan.reject is not None:
        return Decision(False, plan.reject, plan=plan)
    return reference_decide_need(inst.m, guess, plan.load, plan.machines, plan)
