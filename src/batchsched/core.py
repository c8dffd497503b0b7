"""Data model, exact time arithmetic, class partitions and the feasibility verifier.

Setups and processing times are ints, guesses, bounds and makespans exact
Fractions, and a schedule's times ints on its integer scale (`Schedule.scale`:
t means t / scale), or Fractions in a hand-built schedule.  A decision reads
its guess p/q once, as the ints p and q, then holds every per-class quantity
as an int on the scale q (x stands for x / q) or a stated multiple of it and
every required load as an int in the instance's units, and compares by
cross-multiplying; the one Fraction it can build is the preemptive
knapsack's split share.  Nothing here rounds, ever.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import add, contains, eq, itemgetter, lt
from typing import NamedTuple, Optional, Sequence, Union

# Exact rational times: guesses, bounds, makespans (schedule times: see Schedule).
Rat = Fraction

# A job is identified by (class index, position within the class), 0-based.
JobRef = tuple[int, int]


class ValidationError(ValueError):
    """Raised for malformed input, and for numbers too long to write as text."""


class ContractError(RuntimeError):
    """Raised when a documented precondition of an operation is violated."""


class CapacityError(RuntimeError):
    """Raised when a wrap sequence does not fit its wrap template."""


class Variant(Enum):
    SPLITTABLE = "split"
    PREEMPTIVE = "pmtn"
    NONPREEMPTIVE = "nonp"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        for v in cls:
            if v.value == text:
                return v
        *rest, last = (v.value for v in cls)
        raise ValidationError(f"unknown variant {text!r} (expected {', '.join(rest)} or {last})")


class JobClass(namedtuple("JobClass", "setup jobs sums total t_max")):
    """One class: a setup time and the processing times of its jobs.

    `sums` (the prefix sums of the processing times from 0, so jobs j..x-1
    take sums[x] - sums[j]), `total` (sums[-1]) and `t_max` (the longest
    job, 0 for none) are found once, at construction, as the tuple's last
    items: the decisions read the aggregates on every probe, and `sums` is
    the one per-job array the builds and the verifier read of a class.
    Equality and hashing decide as on setup and jobs alone, and every copy
    (`_replace`, `copy.replace`, `_make`, `copy`, pickle) is built anew."""

    __slots__ = ()

    def __new__(cls, setup: int, jobs: tuple[int, ...]) -> JobClass:
        sums = tuple(accumulate(jobs, initial=0))
        return tuple.__new__(cls, (setup, jobs, sums, sums[-1], max(jobs, default=0)))

    def __getnewargs__(self):
        return self[:2]

    def _replace(self, **changes) -> JobClass:
        return JobClass(**{"setup": self.setup, "jobs": self.jobs, **changes})

    __replace__, _make = _replace, classmethod(lambda cls, fields: cls(*fields))


class Instance(namedtuple("Instance", "m classes n total_work total_load s_max job_setup_bound")):
    """m machines and the job classes.  Validated at construction, when the
    aggregates every probe reads are found in the same pass and kept as the
    tuple's last items: `n`, `total_work` (P(J), all processing times),
    `total_load` (N = P(J) + every setup once), `s_max` and `job_setup_bound`
    (max of s_i + the longest job of class i: no schedule of the
    non-splittable variants beats it).  As with `JobClass`, equality and
    hashing decide as on m and classes, and a copy is validated again."""

    __slots__ = ()

    def __new__(cls, m: int, classes: tuple[JobClass, ...]) -> Instance:
        if m < 1:
            raise ValidationError("m must be >= 1")
        if not classes:
            raise ValidationError("no classes")
        n = work = setups = s_max = job_setup = 0
        for i, cl in enumerate(classes):
            if cl.setup < 1:
                raise ValidationError(f"classes[{i}].setup must be >= 1")
            if not cl.jobs:
                raise ValidationError(f"classes[{i}].jobs must be nonempty")
            if min(cl.jobs) < 1:  # one C-level pass; the index only on failure
                j = next(j for j, t in enumerate(cl.jobs) if t < 1)
                raise ValidationError(f"classes[{i}].jobs[{j}] must be >= 1")
            n += len(cl.jobs)
            work += cl.total
            setups += cl.setup
            if cl.setup > s_max:
                s_max = cl.setup
            if cl.setup + cl.t_max > job_setup:
                job_setup = cl.setup + cl.t_max
        return tuple.__new__(cls, (m, classes, n, work, work + setups, s_max, job_setup))

    def __getnewargs__(self):
        return self[:2]

    def _replace(self, **changes) -> Instance:
        return Instance(**{"m": self.m, "classes": self.classes, **changes})

    __replace__, _make = _replace, classmethod(lambda cls, fields: cls(*fields))

    @property
    def c(self) -> int:
        return len(self.classes)


def parse_instance(raw: dict) -> Instance:
    """Build a validated Instance from the JSON-level description.

    Expected shape: {"m": int, "classes": [{"setup": int, "jobs": [int, ...]}, ...]}
    """
    if not isinstance(raw, dict):
        raise ValidationError("instance must be a JSON object")
    if "m" not in raw:
        raise ValidationError("missing field m")
    m = raw["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError("m must be an integer")
    if "classes" not in raw:
        raise ValidationError("missing field classes")
    classes = []
    if not isinstance(raw["classes"], list):
        raise ValidationError("classes must be a list")
    for i, entry in enumerate(raw["classes"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"classes[{i}] must be an object")
        if "setup" not in entry:
            raise ValidationError(f"classes[{i}]: missing field setup")
        if "jobs" not in entry:
            raise ValidationError(f"classes[{i}]: missing field jobs")
        setup = entry["setup"]
        jobs = entry["jobs"]
        if not isinstance(setup, int) or isinstance(setup, bool):
            raise ValidationError(f"classes[{i}].setup must be an integer")
        # exact ints, so no bool: one C-level pass over the types
        if not isinstance(jobs, list) or not set(map(type, jobs)) <= {int}:
            raise ValidationError(f"classes[{i}].jobs must be a list of integers")
        classes.append(JobClass(setup=setup, jobs=tuple(jobs)))
    return Instance(m=m, classes=tuple(classes))


def emit_instance(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "classes": [{"setup": cl.setup, "jobs": list(cl.jobs)} for cl in inst.classes],
    }


def lower_bound_tmin(inst: Instance, variant: Variant) -> Rat:
    """Certified lower bound on the optimal makespan of the variant.

    Splittable: max(N/m, largest setup).  Preemptive and non-preemptive
    pay setup + longest job of some class on one machine instead of the
    largest setup (`Instance.job_setup_bound`).
    """
    bound = inst.s_max if variant is Variant.SPLITTABLE else inst.job_setup_bound
    if bound * inst.m >= inst.total_load:
        return Fraction(bound)
    return Fraction(inst.total_load, inst.m)


def fmt_rat(x: Rat) -> str:
    """x as "p/q" or "p" text.  ValidationError for a numerator or
    denominator past CPython's int-string digit limit: it cannot be written."""
    try:
        return str(x)
    except ValueError as exc:  # the digit limit is all that str() of a number raises on
        raise ValidationError(f"a rational of more than {sys.get_int_max_str_digits()} "
                              f"digits cannot be written as text") from exc


# ---------------------------------------------------------------------------
# Placements and schedules
# ---------------------------------------------------------------------------

# A schedule row is one flat list, its batches back to back: a batch (cls,
# start, setup, k, job, dur, ..., job, dur) is a setup of cls from start
# lasting setup, then exactly k >= 0 pairs back to back.  A pair (job, dur)
# runs the class's jobs from position job on, in index order, for dur time
# units, each whole while dur lasts and the last one cut where dur ends: a
# piece of one job, or a run of whole jobs (see `wrap`); job -1 is idle
# time.  Times are ints on the schedule's scale (Rats in a hand-built
# schedule).  A file's row is this list as it is, and every reader finds
# its batches through `row_batches`, the one walk of the layout.
Row = list[Union[int, Rat]]


def row_batches(row: Row) -> Sequence[int]:
    """Where each batch of the row begins, then where the row ends: batch b
    is row[at[b]:at[b + 1]] (see `Row`).  ValidationError when a count is
    not an int >= 0 or the counts do not tile the row exactly."""
    size = len(row)
    try:  # most rows hold one batch; << refuses a count that is no int
        if (row[3] << 1) + 4 == size:
            return 0, size
    except (IndexError, TypeError):
        pass
    at, bounds = 0, [0]
    while at + 3 < size and isinstance(k := row[at + 3], int) and k >= 0:
        at += 4 + 2 * k
        bounds.append(at)
    if at != size:  # a batch runs past the row's end, or has no count that is an int >= 0
        raise ValidationError(f"the batch at slot {bounds[-2] if at > size else at} of a row has "
                              f"no count, or one that is not an int >= 0 or runs past the row")
    return bounds


def rows_end(rows) -> Union[int, Rat]:
    """Where the latest batch of the rows ends; 0 if negative or none."""
    top = 0
    for row in rows:
        at = row_batches(row)
        for a, b in (at,) if len(at) == 2 else pairwise(at):  # one batch: its bounds
            end = row[a + 1] + row[a + 2] + sum(row[a + 5:b:2])
            if end > top:
                top = end
    return top


class Schedule(namedtuple("Schedule", "m machines compressed scale")):
    """Per-machine flat rows, plus an optional compressed part.

    `machines` holds explicitly materialized machines, one Row each.  Each
    entry of `compressed` is a machine configuration, one Row, with a
    multiplicity: the schedule behaves as if `mult` further machines carried
    exactly those batches.  The builds write only runs of at least two
    identical machines there (a setup and a piece filling the gap above it,
    from one long job).  The machine budget is len(machines) + sum of
    multiplicities <= m.  A time t means t / scale: ints on the scale a
    build derived from its guess, or on a file's own; only a hand-built
    schedule may hold Fractions, which the verifier judges by the same rules
    and the JSON writer refuses.  Every build writes a row's batches in
    start order, no idle pair, no empty row and no setup without a pair but
    a wrap's setup that ends exactly where its gap closes (k = 0); so a
    built schedule holds one list per machine or configuration, none per
    batch.
    """

    __slots__ = ()

    def __new__(cls, m: int, machines: Optional[list[Row]] = None,
                compressed: Optional[list[tuple[Row, int]]] = None, scale: int = 1) -> Schedule:
        return tuple.__new__(cls, (m, [] if machines is None else machines,
                                   [] if compressed is None else compressed, scale))

    def rows(self) -> list[Row]:
        """The machine rows, then each configuration's row once."""
        return self.machines + [config for config, _ in self.compressed]

    def machine_count(self) -> int:
        return len(self.machines) + sum(mult for _, mult in self.compressed)

    def end(self) -> Union[int, Rat]:
        """The latest batch end on the schedule's scale; 0 for no batch."""
        return rows_end(self.rows())

    def makespan(self) -> Rat:
        return Fraction(self.end(), self.scale)

    def placement_count(self) -> int:
        """Setups plus pairs less idle pairs, each configuration's once: a row
        of length L with b batches holds L/2 - b, a run counting once."""
        rows = self.rows()
        count = sum(map(len, rows)) // 2 - sum(map(len, map(row_batches, rows))) + len(rows)
        if any(map(contains, rows, repeat(-1))):  # built schedules hold no -1
            count -= sum(row[a + 4:b:2].count(-1) for row in rows
                         for a, b in pairwise(row_batches(row)))
        return count


# ---------------------------------------------------------------------------
# The class partition for a makespan guess
# ---------------------------------------------------------------------------


class ClassPartition(NamedTuple):
    """Split of the classes induced by a makespan guess T.

    A class is expensive when its setup exceeds T/2, else cheap.  Expensive
    classes split by setup+work against T and (3/4)T; cheap classes split by
    setup against T/4.  chp_star collects the cheap small-setup classes with
    setup + t_max > T/2 (a partition reads no job; a build that needs those
    jobs finds them).  Every boundary case counts with the layer it belongs
    to just above T (right-continuous), so the construction shapes match
    their limits from above, which the exact searches rely on.
    """

    exp_plus: tuple[int, ...]  # T < s + P
    exp_zero: tuple[int, ...]  # 3/4 T < s + P <= T
    exp_minus: tuple[int, ...]  # s + P <= 3/4 T
    chp_plus: tuple[int, ...]  # T/4 < s <= T/2
    chp_minus: tuple[int, ...]  # s <= T/4
    chp_star: tuple[int, ...]  # chp_minus classes with s + t_max > T/2


def classify(inst: Instance, p: int, q: int) -> ClassPartition:
    """Split the classes at the guess p/q (q > 0), right-continuously."""
    if p <= 0:
        raise ContractError("classify needs T > 0")
    # ints against the guess p/q (x > guess/2 iff 2 x q > p), each class
    # unpacked once: a NamedTuple field read is not specialized
    exp_plus, exp_zero, exp_minus, chp_plus, chp_minus, chp_star = [], [], [], [], [], []
    for i, (setup, _, _, total, t_max) in enumerate(inst.classes):
        sq2 = 2 * setup * q
        if sq2 > p:
            reach = (setup + total) * q
            if reach > p:
                exp_plus.append(i)
            elif 4 * reach > 3 * p:
                exp_zero.append(i)
            else:
                exp_minus.append(i)
        elif 2 * sq2 > p:
            chp_plus.append(i)
        else:
            chp_minus.append(i)
            if 2 * (setup + t_max) * q > p:
                chp_star.append(i)
    return ClassPartition(*map(tuple, (exp_plus, exp_zero, exp_minus, chp_plus, chp_minus, chp_star)))


# ---------------------------------------------------------------------------
# Dual decisions
# ---------------------------------------------------------------------------


class Decision(NamedTuple):
    """A dual's verdict on a guess.

    reason says why a guess is rejected: "load" (m*T below the required
    load), "machines" (m below the required machine count), "setup-bound" or
    "job-bound" (the guess is below a direct lower bound); "" when accepted.
    load (an int: a sum of setups and processing times) and machines are
    the requirements the guess was held against (None when a direct bound or
    a geometric certificate decided).  plan is what the construction needs
    (None when rejected outright, or accepted because m >= n).  schedule is
    set by the duals exactly when they accept, with makespan <= (3/2)*guess;
    the decision functions the searches probe leave it None.
    """

    accepted: bool
    reason: str
    load: Optional[int] = None
    machines: Optional[int] = None
    plan: object = None
    schedule: Optional[Schedule] = None


def decide_need(m: int, p: int, q: int, load: int, machines: int, plan: object = None) -> Decision:
    """Accept the guess p/q unless it needs more than m machines or more
    load than m * p/q."""
    if m < machines:
        return Decision(False, "machines", load, machines, plan)
    if m * p < load * q:
        return Decision(False, "load", load, machines, plan)
    return Decision(True, "", load, machines, plan)


def job_bound_decision(inst: Instance, p: int, q: int) -> Optional[Decision]:
    """The start shared by the non-splittable duals on the guess p/q: a
    guess below the job-setup bound is certified infeasible, and with m >= n
    every other guess is accepted (one job per machine).  None when planning
    has to decide."""
    if p <= 0:
        return Decision(False, "load")
    if p < inst.job_setup_bound * q:
        return Decision(False, "job-bound")
    if inst.m >= inst.n:
        return Decision(True, "")
    return None


def decided_outcome(inst: Instance, guess: Rat, d: Decision, build) -> Decision:
    """A dual from its decision: the rejection as it is, else the decision
    with its schedule, one job per machine for an accepted guess without a
    plan (m >= n) or build(inst, guess, plan)."""
    if not d.accepted:
        return d
    if d.plan is None:
        return d._replace(schedule=trivial_one_job_per_machine(inst))
    return d._replace(schedule=build(inst, guess, d.plan))


# ---------------------------------------------------------------------------
# Feasibility verifier
# ---------------------------------------------------------------------------

_START, _START_SETUP = itemgetter(1), itemgetter(1, 2)  # of a batch cut out of its row

# Rule ids reported by the verifier:
#   a  per-machine non-overlap (incl. start >= 0, dur > 0, idle > 0)
#   b  wrong setup length (a batch's pieces follow its setup by construction)
#   c  sum of piece durations of a job differs from its processing time
#   d  non-preemptive: job not a single contiguous piece on one machine
#   e  preemptive: pieces of one job overlap in time
#   f  makespan exceeds the bound
#   s  structural (unknown ids, machine budget)


class Violation(NamedTuple):
    rule: str
    machine: Union[int, str]
    time: Rat
    message: str

    def __str__(self) -> str:
        return f"rule ({self.rule}) machine {self.machine} t={fmt_rat(self.time)}: {self.message}"


class VerifyReport(NamedTuple):
    ok: bool
    makespan: Rat
    violations: list[Violation]


def verify_schedule(inst: Instance, sched: Schedule, variant: Variant, bound: Rat) -> VerifyReport:
    """Check a schedule against every feasibility rule of the variant.

    Returns a report with all violations; `ok` means none.  Compressed parts
    are verified without materializing the copies: per-machine rules run once
    per configuration, and its whole jobs and pieces count `mult` times.
    One pass per machine or configuration walks its batches (`row_batches`;
    a row of one batch in place) in (start, setup) order, a row whose batch
    starts do not strictly increase sorted first, and each batch's pairs
    with a running time.  It runs rules (a) and (b) and the id checks; a
    batch occupies its machine from its start to its end, idle included.

    Jobs have flat indices base[cls] + job (base: prefix sums of the class
    sizes).  The pass reads each class's own jobs and unscaled prefix sums
    (`JobClass.sums`).  A pair as long as its job holds it whole.  A longer
    pair is a run (see `Row`): one bisect on the sums finds the jobs it
    holds whole, and what is left is read like any pair: a piece of the
    next job, or the time past the class's last job (an unknown job id).
    Whole jobs cost two stores into a difference array, `whole`, whose
    running sum `cover` gives each job's whole copies.  A piece goes into
    its job's total and count, and in pmtn also keeps its start, length and
    copies, flat in one tuple per job.  Then the per-job rules are C-level
    passes over small ints plus a step per job with a piece:
      (c) holds when every job without a piece is whole exactly once and
          every job with one is in pieces only, of the right total; else a
          job-by-job pass writes the messages;
      (d) a job is split when its cover plus its piece count passes 1;
      (e) a job in pieces only is decided from its pieces (two take one
          comparison, more a sort).
    Violators of (d) and (e) are listed by first appearance, which takes a
    second pass over the rows (`_pieces_of`).  That pass also decides rule
    (e) for a job that is whole in a run and placed elsewhere too, or whole
    more than once; such a job already breaks rule (c), so a schedule that
    passes (c), (d) and (e) is read once.  README gives the measured cost.

    The rules run on the schedule's own times over `sched.scale` with +, -,
    comparisons, `* scale`, `// scale` (the bisect key: a pair (j, dur)
    holds job y - 1 whole exactly when sums[y] <= (sums[j] * scale + dur)
    // scale, on ints and on Fractions alike) and `Fraction(t, scale)` only,
    so a hand-built schedule's Fractions get exactly the same rules.  The
    report holds Fractions.  ValidationError when a number a message prints
    is past CPython's int-string digit limit, or a row's counts do not
    tile it.
    """
    out: list[Violation] = []
    scale = sched.scale

    def flag(rule: str, label, t: Rat, message: str):
        out.append(Violation(rule, label, Fraction(t, scale), message))

    if sched.machine_count() > inst.m:
        flag("s", "-", 0, f"schedule uses {fmt_rat(sched.machine_count())} machines, "
                          f"instance has {inst.m}")

    classes = inst.classes
    ncls, n = len(classes), inst.n
    base = list(accumulate((len(cl.jobs) for cl in classes), initial=0))
    of_class = [(cl.setup * scale, cl.jobs, cl.sums, k, len(cl.jobs)) for cl, k in zip(classes, base)]
    # a run that holds jobs k..x-1 whole adds its copies at k and takes them off at x
    whole = [0] * (n + 1)
    # a job's pieces: their total and count, and in pmtn their (start,
    # length, copies, start, length, copies, ...); cut lists the jobs with
    # a piece, need their lengths on the scale
    totals, counts = [0] * n, [0] * n
    cut: list[int] = []
    need_of_cut: list[Union[int, Rat]] = []
    pmtn = variant is Variant.PREEMPTIVE
    spans: dict[int, tuple] = {}
    top = 0

    for label, row, copies in _parts(sched):
        if copies < 1:
            top = max(top, rows_end((row,)))
            flag("s", label, 0, "multiplicity < 1")
            continue
        bounds = row_batches(row)
        if len(bounds) == 2:  # one batch: read in place
            batches = (row,)
        else:
            batches = [row[a:b] for a, b in pairwise(bounds)]
            starts = list(map(_START, batches))
            if not all(map(lt, starts, starts[1:])):
                batches.sort(key=_START_SETUP)
        prev_end = None
        for batch in batches:
            pairs = iter(batch)
            cls, start, setup, _ = next(pairs), next(pairs), next(pairs), next(pairs)
            if not 0 <= cls < ncls:
                flag("s", label, start, f"unknown class {cls}")
                top = max(top, start + setup + sum(batch[5::2]))
                continue
            need_setup, lens, sums, first_k, size = of_class[cls]
            if start < 0:
                flag("a", label, start, "placement starts before time 0")
            if setup <= 0:
                flag("a", label, start, "placement with non-positive duration")
            if prev_end is not None and start < prev_end:
                flag("a", label, start, "placements overlap on the machine")
            if setup != need_setup:
                flag("b", label, start, f"setup of class {cls} has length "
                                        f"{Fraction(setup, scale)}, expected {classes[cls].setup}")
            t = start + setup
            for job, dur in zip(pairs, pairs):
                if not 0 <= job < size:
                    if t < 0 and job != -1:
                        flag("a", label, t, "placement starts before time 0")
                    if dur <= 0:
                        flag("a", label, t, "idle time of non-positive length" if job == -1
                             else "placement with non-positive duration")
                    if job != -1:
                        flag("s", label, t, f"unknown job id ({cls}, {job})")
                    t += dur
                    continue
                need = lens[job] * scale
                if dur == need:  # the job whole
                    if t < 0:
                        flag("a", label, t, "placement starts before time 0")
                    k = first_k + job
                    whole[k] += copies
                    whole[k + 1] -= copies
                    t += dur
                    continue
                if dur > need:
                    # a run: the jobs job..x-1 whole, then what is left of dur
                    at = sums[job] * scale
                    reach, shift = at + dur, t - at
                    x = bisect_right(sums, reach // scale, job + 2, size + 1) - 1
                    if t < 0:
                        for y in range(job, x):
                            if shift + sums[y] * scale < 0:
                                flag("a", label, shift + sums[y] * scale, "placement starts before time 0")
                    whole[first_k + job] += copies
                    whole[first_k + x] -= copies
                    at = sums[x] * scale
                    job, t, dur = x, shift + at, reach - at
                    if not dur:  # the run ends where job x - 1 ends
                        continue
                    if job == size:  # past the class's last job
                        if t < 0:
                            flag("a", label, t, "placement starts before time 0")
                        flag("s", label, t, f"unknown job id ({cls}, {size})")
                        t += dur
                        continue
                if t < 0:
                    flag("a", label, t, "placement starts before time 0")
                if dur <= 0:
                    flag("a", label, t, "placement with non-positive duration")
                k = first_k + job
                totals[k] += dur * copies
                seen = counts[k]
                counts[k] = seen + copies
                if seen:
                    if pmtn:
                        spans[k] += t, dur, copies
                else:
                    cut.append(k)
                    need_of_cut.append(lens[job] * scale)
                    if pmtn:
                        spans[k] = t, dur, copies
                t += dur
            if prev_end is None or t > prev_end:
                prev_end = t
        if prev_end is not None and prev_end > top:
            top = prev_end

    cover = list(accumulate(whole))  # whole copies per job, and a 0 past the last
    # rule (c): every job without a piece whole once, every job with one in
    # pieces only, of the right total; else the job-by-job pass
    whole_or_cut = (cover.count(1) == n - len(cut) and not any(map(cover.__getitem__, cut))
                    and all(map(eq, map(totals.__getitem__, cut), need_of_cut)))
    if not whole_or_cut:
        refs = ((i, j) for i, cl in enumerate(classes) for j in range(len(cl.jobs)))
        durations = chain.from_iterable(cl.jobs for cl in classes)
        for (i, j), t, c, got in zip(refs, durations, cover, totals):
            got += c * t * scale
            if got != t * scale:
                flag("c", "-", 0, f"job ({i}, {j}) placed for {fmt_rat(Fraction(got, scale))} "
                                  f"time units, needs exactly {t}")

    bad: set[int] = set()
    if variant is not Variant.SPLITTABLE:
        # the jobs in more than one piece or copy: under whole_or_cut only
        # jobs with pieces can be
        jobs, many = ((cut, map(counts.__getitem__, cut)) if whole_or_cut
                      else (range(n), map(add, cover, counts)))
        bad = set(compress(jobs, map((1).__lt__, many)))
        if pmtn:  # pieces alone are compared here, a whole copy in _pieces_of
            bad = {k for k in bad if cover[k] or _rule_e(spans[k])}
    for (i, j), ivs in _pieces_of(sched, classes, base, bad).items():
        k = base[i] + j
        if not pmtn:
            flag("d", "-", 0, f"job ({i}, {j}) split into {fmt_rat(cover[k] + counts[k])} pieces")
            continue
        found = _rule_e(ivs)
        if found:
            t, copies = found
            flag("e", "-", t, f"job ({i}, {j}) runs on {copies} identical machines in parallel"
                              if copies > 1 else f"pieces of job ({i}, {j}) overlap in time")

    makespan = Fraction(top, scale)
    if makespan > bound:
        flag("f", "-", top, f"makespan {fmt_rat(makespan)} exceeds bound {fmt_rat(bound)}")
    return VerifyReport(ok=not out, makespan=makespan, violations=out)


def _parts(sched: Schedule):
    """(label, row, copies) of each machine, then of each configuration."""
    configs = ((f"compressed[{k}]", config, mult) for k, (config, mult) in enumerate(sched.compressed))
    return chain(zip(range(len(sched.machines)), sched.machines, repeat(1)), configs)


def _rule_e(ivs: Sequence) -> Optional[tuple[Rat, int]]:
    """Rule (e) on one job's pieces, flat as (start, length, copies, start,
    length, copies, ...): the start and copies of the first with copies >
    1, else the start and 1 of the first piece that starts before the one
    before it in (start, length) order ends, else None.  Two pieces take
    one comparison to order, not a sort."""
    if len(ivs) == 6:
        s1, d1, c1, s2, d2, c2 = ivs
        if c1 > 1 or c2 > 1:
            return (s1, c1) if c1 > 1 else (s2, c2)
        if (s2, d2) < (s1, d1):
            s1, d1, s2 = s2, d2, s1
        return (s2, 1) if s2 < s1 + d1 else None
    for start, copies in zip(ivs[::3], ivs[2::3]):
        if copies > 1:
            return start, copies
    pieces = sorted(zip(ivs[::3], ivs[1::3]))
    return next(((s2, 1) for (s1, d1), (s2, _) in zip(pieces, pieces[1:]) if s2 < s1 + d1), None)


def _pieces_of(sched: Schedule, classes: Sequence[JobClass], base: list[int],
               bad: set[int]) -> dict[JobRef, list]:
    """The start, length and copies of each piece and whole copy of the
    jobs whose flat index is in bad, flat in schedule order, keyed by job in
    order of first appearance.  Runs are read as the verifier reads them."""
    found: dict[JobRef, list] = {}
    if not bad:
        return found
    scale = sched.scale
    for _, row, copies in _parts(sched):
        for a, b in pairwise(row_batches(row)) if copies >= 1 else ():
            cls, t = row[a], row[a + 1] + row[a + 2]
            if not 0 <= cls < len(classes):
                continue
            lens, sums, first_k = classes[cls].jobs, classes[cls].sums, base[cls]
            size = len(lens)
            for job, dur in zip(row[a + 4:b:2], row[a + 5:b:2]):
                if 0 <= job < size and dur > lens[job] * scale:
                    at = sums[job] * scale
                    reach, shift = at + dur, t - at
                    x = bisect_right(sums, reach // scale, job + 2, size + 1) - 1
                    for y in range(job, x):
                        if first_k + y in bad:
                            found.setdefault((cls, y), []).extend(
                                (shift + sums[y] * scale, lens[y] * scale, copies))
                    at = sums[x] * scale
                    job, t, dur = x, shift + at, reach - at
                    if not dur:
                        continue
                if 0 <= job < size and first_k + job in bad:
                    found.setdefault((cls, job), []).extend((t, dur, copies))
                t += dur
    return found


def trivial_one_job_per_machine(inst: Instance) -> Schedule:
    """One setup + one job per machine; optimal when m >= n (non-splittable)."""
    machines = [[i, 0, cl.setup, 1, j, t]
                for i, cl in enumerate(inst.classes) for j, t in enumerate(cl.jobs)]
    return Schedule(m=inst.m, machines=machines)
