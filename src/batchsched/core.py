"""Data model, exact time arithmetic, class partitions and the feasibility verifier.

Setups and processing times are ints, guesses, bounds and makespans exact
Fractions, and a schedule's starts and durations ints on its integer time
scale (`Schedule.scale`: t means t / scale), or Fractions in a hand-built
schedule.  Nothing here rounds, ever: accept/reject decisions and ratio
checks are exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

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
        raise ValidationError(f"unknown variant {text!r} (expected split, pmtn or nonp)")


@dataclass(frozen=True)
class JobClass:
    """One class: a setup time and the processing times of its jobs."""

    setup: int
    jobs: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.jobs)

    @property
    def t_max(self) -> int:
        return max(self.jobs)


@dataclass(frozen=True)
class Instance:
    m: int
    classes: tuple[JobClass, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be >= 1")
        if not self.classes:
            raise ValidationError("no classes")
        for i, cl in enumerate(self.classes):
            if cl.setup < 1:
                raise ValidationError(f"classes[{i}].setup must be >= 1")
            if not cl.jobs:
                raise ValidationError(f"classes[{i}].jobs must be nonempty")
            for j, t in enumerate(cl.jobs):
                if t < 1:
                    raise ValidationError(f"classes[{i}].jobs[{j}] must be >= 1")

    @property
    def c(self) -> int:
        return len(self.classes)

    @cached_property
    def n(self) -> int:
        return sum(len(cl.jobs) for cl in self.classes)

    @cached_property
    def total_work(self) -> int:
        """Sum of all processing times P(J)."""
        return sum(cl.total for cl in self.classes)

    @cached_property
    def total_load(self) -> int:
        """N = all setups once + all processing times."""
        return self.total_work + sum(cl.setup for cl in self.classes)

    @cached_property
    def s_max(self) -> int:
        return max(cl.setup for cl in self.classes)

    def duration(self, ref: JobRef) -> int:
        return self.classes[ref[0]].jobs[ref[1]]


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
        if not isinstance(jobs, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in jobs
        ):
            raise ValidationError(f"classes[{i}].jobs must be a list of integers")
        classes.append(JobClass(setup=setup, jobs=tuple(jobs)))
    return Instance(m=m, classes=tuple(classes))


def emit_instance(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "classes": [{"setup": cl.setup, "jobs": list(cl.jobs)} for cl in inst.classes],
    }


def job_setup_bound(inst: Instance) -> int:
    """max(s_i + longest job of class i): no schedule of the non-splittable
    variants beats this."""
    return max(cl.setup + cl.t_max for cl in inst.classes)


def lower_bound_tmin(inst: Instance, variant: Variant) -> Rat:
    """Certified lower bound on the optimal makespan of the variant.

    Splittable: max(N/m, largest setup).  Preemptive and non-preemptive
    additionally pay setup + longest job of some class on one machine.
    """
    base = Fraction(inst.total_load, inst.m)
    if variant is Variant.SPLITTABLE:
        return max(base, Fraction(inst.s_max))
    return max(base, Fraction(job_setup_bound(inst)))


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

SETUP = "setup"
PIECE = "piece"


# A placement is the plain tuple (kind, cls, start, dur, job, piece): kind is
# SETUP or PIECE, start and dur are ints on the schedule's scale (Rats in a
# hand-built schedule), and job (the position within cls) and piece (the
# piece counter within the job) are None for setups.  A plain tuple, not a
# NamedTuple: CPython stops tracking an exact tuple of ints, strs and Nones
# the first time the cyclic collector sees it, so a built schedule is not
# rescanned by every full collection while it grows.
PlacementT = tuple[str, int, Rat, Rat, Optional[int], Optional[int]]


def Placement(kind: str, cls: int, start: Rat, dur: Rat,
              job: Optional[int] = None, piece: Optional[int] = None) -> PlacementT:
    return (kind, cls, start, dur, job, piece)


def scaled(x: Rat, scale: int) -> int:
    """x * scale as an int: a value of the decision moved onto a build's
    integer time scale.  ContractError unless that is exact."""
    t, r = divmod(x.numerator * scale, x.denominator)
    if r:
        raise ContractError(f"{x} is not on the time scale 1/{scale}")
    return t


@dataclass
class Schedule:
    """Per-machine time-ordered placements, plus an optional compressed part.

    `machines` holds explicitly materialized machines.  Each entry of
    `compressed` is a machine configuration with a multiplicity: the schedule
    behaves as if `mult` further machines carried exactly those placements.
    The machine budget is len(machines) + sum of multiplicities <= m.
    A placement time t means t / scale.  Every schedule the library builds
    keeps its times as ints on the scale its construction derived from the
    guess, and a parsed schedule file holds ints on its own scale; only a
    hand-built schedule may hold Fractions: the verifier runs the same rules
    on them, and the JSON writer refuses them.
    """

    m: int
    machines: list[list[PlacementT]] = field(default_factory=list)
    compressed: list[tuple[tuple[PlacementT, ...], int]] = field(default_factory=list)
    scale: int = 1

    def machine_count(self) -> int:
        return len(self.machines) + sum(mult for _, mult in self.compressed)

    def placements(self) -> Iterable[PlacementT]:
        """Every placement once: the machines' in order, then each
        configuration's (not repeated by its multiplicity)."""
        return chain(chain.from_iterable(self.machines),
                     chain.from_iterable(config for config, _ in self.compressed))

    def makespan(self) -> Rat:
        top = max((start + dur for _, _, start, dur, _, _ in self.placements()), default=0)
        return Fraction(max(top, 0), self.scale)

    def expand(self) -> "Schedule":
        """Materialize the compressed part; piece ids are renumbered in
        (machine, start) order so the result is in canonical explicit form."""
        machines = [list(mach) for mach in self.machines]
        for config, mult in self.compressed:
            for _ in range(mult):
                machines.append(list(config))
        counter: dict[JobRef, int] = {}
        out: list[list[PlacementT]] = []
        for mach in machines:
            row = []
            for p in sorted(mach, key=itemgetter(2)):
                kind, cls, start, dur, job, _ = p
                if kind == PIECE:
                    k = counter.get((cls, job), 0)
                    counter[(cls, job)] = k + 1
                    row.append((PIECE, cls, start, dur, job, k))
                else:
                    row.append(p)
            out.append(row)
        return Schedule(m=self.m, machines=out, compressed=[], scale=self.scale)

    def placement_count(self) -> int:
        return sum(len(m) for m in self.machines) + sum(len(c) for c, _ in self.compressed)


# ---------------------------------------------------------------------------
# The class partition for a makespan guess
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassPartition:
    """Split of the classes induced by a makespan guess T.

    A class is expensive when its setup exceeds T/2, else cheap.  Expensive
    classes split by setup+work against T and (3/4)T; cheap classes split by
    setup against T/4.  chp_star collects the cheap small-setup classes owning
    at least one job with setup + t_j > T/2 (those jobs are in big_jobs).
    Every boundary case counts with the layer it belongs to just above T
    (right-continuous), so the construction shapes match their limits from
    above, which the exact searches rely on.
    """

    expensive: tuple[int, ...]
    cheap: tuple[int, ...]
    exp_plus: tuple[int, ...]  # T < s + P
    exp_zero: tuple[int, ...]  # 3/4 T < s + P <= T
    exp_minus: tuple[int, ...]  # s + P <= 3/4 T
    chp_plus: tuple[int, ...]  # T/4 < s <= T/2
    chp_minus: tuple[int, ...]  # s <= T/4
    chp_star: tuple[int, ...]  # chp_minus classes with big jobs
    big_jobs: dict[int, tuple[int, ...]]  # class -> positions with s + t > T/2


def classify(inst: Instance, guess: Rat) -> ClassPartition:
    """Split the classes at the guess, right-continuously."""
    if guess <= 0:
        raise ContractError("classify needs T > 0")
    # integer comparisons against the guess p/q: x > guess/2 iff 2 x q > p etc.
    p_, q_ = guess.numerator, guess.denominator
    expensive, cheap = [], []
    exp_plus, exp_zero, exp_minus = [], [], []
    chp_plus, chp_minus, chp_star = [], [], []
    big_jobs: dict[int, tuple[int, ...]] = {}
    for i, cl in enumerate(inst.classes):
        p = cl.total
        sq2 = 2 * cl.setup * q_
        if sq2 > p_:
            expensive.append(i)
            reach = (cl.setup + p) * q_
            if reach > p_:
                exp_plus.append(i)
            elif 4 * reach > 3 * p_:
                exp_zero.append(i)
            else:
                exp_minus.append(i)
        else:
            cheap.append(i)
            if 2 * sq2 > p_:
                chp_plus.append(i)
            else:
                chp_minus.append(i)
                big = tuple(
                    j for j, t in enumerate(cl.jobs) if 2 * (cl.setup + t) * q_ > p_
                )
                if big:
                    big_jobs[i] = big
                    chp_star.append(i)
    return ClassPartition(
        expensive=tuple(expensive),
        cheap=tuple(cheap),
        exp_plus=tuple(exp_plus),
        exp_zero=tuple(exp_zero),
        exp_minus=tuple(exp_minus),
        chp_plus=tuple(chp_plus),
        chp_minus=tuple(chp_minus),
        chp_star=tuple(chp_star),
        big_jobs=big_jobs,
    )


# ---------------------------------------------------------------------------
# Dual decisions
# ---------------------------------------------------------------------------


class Decision(NamedTuple):
    """A dual's verdict on a guess.

    reason says why a guess is rejected: "load" (m*T below the required
    load), "machines" (m below the required machine count), "setup-bound" or
    "job-bound" (the guess is below a direct lower bound); "" when accepted.
    load and machines are the requirements the guess was held against (None
    when a direct bound or a geometric certificate decided).  plan is what
    the construction needs; None when no planning was needed (rejected
    outright, or accepted because m >= n).  schedule is set by the dual
    (`dual_split`, `dual_pmtn`, `dual_nonp`) exactly when it accepts: one
    with makespan <= (3/2)*guess.  The decision functions the searches probe
    leave it None.
    """

    accepted: bool
    reason: str
    load: Optional[Rat] = None
    machines: Optional[int] = None
    plan: object = None
    schedule: Optional[Schedule] = None


def decide_need(m: int, guess: Rat, load: Rat, machines: int, plan: object = None) -> Decision:
    """Accept unless the guess needs more than m machines or more load than
    m * guess."""
    if m < machines:
        return Decision(False, "machines", load, machines, plan)
    if m * guess < load:
        return Decision(False, "load", load, machines, plan)
    return Decision(True, "", load, machines, plan)


def job_bound_decision(inst: Instance, guess: Rat) -> Optional[Decision]:
    """The start shared by the non-splittable duals: a guess below the
    job-setup bound is certified infeasible, and with m >= n every other guess
    is accepted (one job per machine).  None when planning has to decide."""
    if guess <= 0:
        return Decision(False, "load")
    if guess < job_setup_bound(inst):
        return Decision(False, "job-bound")
    if inst.m >= inst.n:
        return Decision(True, "")
    return None


def decided_outcome(inst: Instance, guess: Rat, d: Decision, build) -> Decision:
    """A non-splittable dual from its decision: the rejection as it is, else
    the decision with its schedule, one job per machine for an accepted guess
    without a plan or build(inst, guess, plan)."""
    if not d.accepted:
        return d
    if d.plan is None:
        return d._replace(schedule=trivial_one_job_per_machine(inst))
    return d._replace(schedule=build(inst, guess, d.plan))


# ---------------------------------------------------------------------------
# Feasibility verifier
# ---------------------------------------------------------------------------

# Rule ids reported by the verifier:
#   a  per-machine non-overlap (incl. start >= 0, dur > 0)
#   b  class run not preceded by its completed setup / wrong setup length
#   c  sum of piece durations of a job differs from its processing time
#   d  non-preemptive: job not a single contiguous piece on one machine
#   e  preemptive: pieces of one job overlap in time
#   f  makespan exceeds the bound
#   s  structural (unknown ids, machine budget)


@dataclass(frozen=True)
class Violation:
    rule: str
    machine: Union[int, str]
    time: Rat
    message: str

    def __str__(self) -> str:
        return f"rule ({self.rule}) machine {self.machine} t={self.time}: {self.message}"


@dataclass
class VerifyReport:
    ok: bool
    makespan: Rat
    violations: list[Violation]


def verify_schedule(inst: Instance, sched: Schedule, variant: Variant, bound: Rat) -> VerifyReport:
    """Check a schedule against every feasibility rule of the variant.

    Returns a report with all violations; `ok` means none.  Compressed parts
    are verified without materializing the copies: per-machine rules run once
    per configuration, job totals and piece counts multiply by the
    multiplicity.  One pass per machine or configuration, over its
    placements sorted by (start, dur), runs rules (a) and (b) and the id
    checks and adds each piece to its job's total and count, kept in flat
    lists at base[cls] + job (base: prefix sums of the class sizes), so rule
    (c) is one list comparison.  Only a job with more than one piece or copy
    keeps intervals, for rule (e).  Violators of (d) or (e) are listed by
    first appearance, which takes one more pass over their pieces.  About
    0.7 µs per placement on the benchmark's large built schedules.

    The rules run on the schedule's own times over `sched.scale` with +, -,
    comparisons, `* scale` and `Fraction(t, scale)` only: ints for every
    library-built and parsed schedule, and exactly the same rules on a
    hand-built schedule's Fractions.  The report holds Fractions.  A kind
    other than SETUP is checked and counted as a piece.  ValidationError
    when a number a message prints is past CPython's int-string digit limit.
    """
    out: list[Violation] = []
    scale = sched.scale

    def flag(rule: str, label, t: Rat, message: str):
        out.append(Violation(rule, label, Fraction(t, scale), message))

    if sched.machine_count() > sched.m:
        flag("s", "-", 0, f"schedule uses {sched.machine_count()} machines, instance has {sched.m}")

    classes = inst.classes
    sizes = [len(cl.jobs) for cl in classes]
    base = list(accumulate(sizes, initial=0))
    setup_len = [cl.setup * scale for cl in classes]
    totals, counts = [0] * inst.n, [0] * inst.n
    pmtn = variant is Variant.PREEMPTIVE
    # rule (e): first[k] is job k's only piece so far, spans[k] the (start,
    # end, copies) of a job with more than one piece or copy
    first: list[Optional[PlacementT]] = [None] * inst.n
    spans: dict[int, list[tuple[Rat, Rat, int]]] = {}
    top = 0

    parts = [(idx, mach, 1) for idx, mach in enumerate(sched.machines)]
    parts += [(f"compressed[{k}]", config, mult) for k, (config, mult) in enumerate(sched.compressed)]
    for label, placements, copies in parts:
        if copies < 1:
            top = max(top, max((p[2] + p[3] for p in placements), default=0))
            flag("s", label, 0, "multiplicity < 1")
            continue
        prev_end = ready = None
        for p in sorted(placements, key=itemgetter(2, 3)):
            kind, cls, start, dur, job, _ = p
            end = start + dur
            if not 0 <= cls < len(classes):
                flag("s", label, start, f"unknown class {cls}")
                top = max(top, end)
                continue
            if start < 0:
                flag("a", label, start, "placement starts before time 0")
            if dur <= 0:
                flag("a", label, start, "placement with non-positive duration")
            if prev_end is not None and start < prev_end:
                flag("a", label, start, "placements overlap on the machine")
            if prev_end is None or end > prev_end:
                prev_end = end
            if kind == SETUP:
                if dur != setup_len[cls]:
                    flag("b", label, start, f"setup of class {cls} has length "
                                            f"{Fraction(dur, scale)}, expected {classes[cls].setup}")
                ready = cls
                continue
            if job is None or not 0 <= job < sizes[cls]:
                flag("s", label, start, f"unknown job id ({cls}, {job})")
                continue
            if ready != cls:
                flag("b", label, start, f"piece of class {cls} not preceded by a setup of its class")
            k = base[cls] + job
            totals[k] += dur * copies
            seen = counts[k]
            counts[k] = seen + copies
            if pmtn:
                if not seen and copies == 1:
                    first[k] = p
                    continue
                if k not in spans:
                    spans[k] = [(first[k][2], first[k][2] + first[k][3], 1)] if seen else []
                spans[k].append((start, end, copies))
        if prev_end is not None and prev_end > top:
            top = prev_end

    durations = list(chain.from_iterable(cl.jobs for cl in classes))
    if totals != [t * scale for t in durations]:
        refs = ((i, j) for i, cl in enumerate(classes) for j in range(len(cl.jobs)))
        for (i, j), got, t in zip(refs, totals, durations):
            if got != t * scale:
                flag("c", "-", 0, f"job ({i}, {j}) placed for {fmt_rat(Fraction(got, scale))} "
                                  f"time units, needs exactly {t}")

    if variant is Variant.NONPREEMPTIVE:
        bad = {k for k, n in enumerate(counts) if n > 1} if max(counts) > 1 else set()
    else:  # spans is empty unless pmtn
        bad = {k for k, ivs in spans.items() if _rule_e(ivs)}
    for (i, j), ivs in _pieces_of(parts, sizes, base, bad).items():
        if not pmtn:
            flag("d", "-", 0, f"job ({i}, {j}) split into {fmt_rat(counts[base[i] + j])} pieces")
            continue
        t, copies = _rule_e(ivs)
        flag("e", "-", t, f"job ({i}, {j}) runs on {copies} identical machines in parallel"
                          if copies > 1 else f"pieces of job ({i}, {j}) overlap in time")

    makespan = Fraction(top, scale)
    if makespan > bound:
        flag("f", "-", top, f"makespan {fmt_rat(makespan)} exceeds bound {fmt_rat(bound)}")
    return VerifyReport(ok=not out, makespan=makespan, violations=out)


def _rule_e(ivs: list[tuple[Rat, Rat, int]]) -> Optional[tuple[Rat, int]]:
    """Rule (e) on one job's (start, end, copies): the start and copies of
    the first with copies > 1, else the start and 1 of the first piece that
    overlaps the one before it in time order, else None."""
    for start, _, copies in ivs:
        if copies > 1:
            return start, copies
    ivs = sorted(ivs)
    return next(((s2, 1) for (_, e1, _), (s2, _, _) in zip(ivs, ivs[1:]) if s2 < e1), None)


def _pieces_of(parts, sizes: list[int], base: list[int], bad: set[int]) -> dict[JobRef, list]:
    """The (start, end, copies) of each piece of the jobs whose flat index is
    in bad, in schedule order, keyed by job in order of first appearance."""
    found: dict[JobRef, list] = {}
    for _, placements, copies in parts if bad else ():
        for kind, cls, start, dur, job, _ in placements if copies >= 1 else ():
            if (kind != SETUP and job is not None and 0 <= cls < len(sizes)
                    and 0 <= job < sizes[cls] and base[cls] + job in bad):
                found.setdefault((cls, job), []).append((start, start + dur, copies))
    return found


def trivial_one_job_per_machine(inst: Instance) -> Schedule:
    """One setup + one job per machine; optimal when m >= n (non-splittable)."""
    machines: list[list[PlacementT]] = []
    for i, cl in enumerate(inst.classes):
        for j, t in enumerate(cl.jobs):
            machines.append([(SETUP, i, 0, cl.setup, None, None), (PIECE, i, cl.setup, t, j, 0)])
    return Schedule(m=inst.m, machines=machines)
