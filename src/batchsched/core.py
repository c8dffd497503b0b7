"""Data model, exact time arithmetic, class partitions and the feasibility verifier.

All times (setups, processing times, starts, durations, makespans) are exact
rationals backed by arbitrary-precision integers.  Nothing in this package
rounds, ever: accept/reject decisions and approximation-ratio checks are exact
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Union

# All time quantities are Fractions.  The alias documents intent.
Rat = Fraction

# A job is identified by (class index, position within the class), 0-based.
JobRef = tuple[int, int]


class ValidationError(ValueError):
    """Raised for malformed instance descriptions."""


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

    def work(self, i: int) -> int:
        """P(C_i) for class i."""
        return self.classes[i].total

    def duration(self, ref: JobRef) -> int:
        return self.classes[ref[0]].jobs[ref[1]]

    def job_refs(self) -> list[JobRef]:
        return [(i, j) for i, cl in enumerate(self.classes) for j in range(len(cl.jobs))]


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


# ---------------------------------------------------------------------------
# Placements and schedules
# ---------------------------------------------------------------------------

SETUP = "setup"
PIECE = "piece"


class Placement(NamedTuple):
    kind: str  # SETUP or PIECE
    cls: int
    start: Rat
    dur: Rat
    job: Optional[int] = None  # position within cls, pieces only
    piece: Optional[int] = None  # piece counter within the job, pieces only

    @property
    def end(self) -> Rat:
        return self.start + self.dur

    def shifted(self, delta: Rat) -> "Placement":
        return Placement(self.kind, self.cls, self.start + delta, self.dur, self.job, self.piece)


@dataclass
class Schedule:
    """Per-machine time-ordered placements, plus an optional compressed part.

    `machines` holds explicitly materialized machines.  Each entry of
    `compressed` is a machine configuration with a multiplicity: the schedule
    behaves as if `mult` further machines carried exactly those placements.
    The machine budget is len(machines) + sum of multiplicities <= m.
    """

    m: int
    machines: list[list[Placement]] = field(default_factory=list)
    compressed: list[tuple[tuple[Placement, ...], int]] = field(default_factory=list)

    def machine_count(self) -> int:
        return len(self.machines) + sum(mult for _, mult in self.compressed)

    def makespan(self) -> Rat:
        top = Fraction(0)
        for mach in self.machines:
            for p in mach:
                if p.end > top:
                    top = p.end
        for config, _ in self.compressed:
            for p in config:
                if p.end > top:
                    top = p.end
        return top

    def expand(self) -> "Schedule":
        """Materialize the compressed part; piece ids are renumbered in
        (machine, start) order so the result is in canonical explicit form."""
        machines = [list(mach) for mach in self.machines]
        for config, mult in self.compressed:
            for _ in range(mult):
                machines.append(list(config))
        counter: dict[JobRef, int] = {}
        out: list[list[Placement]] = []
        for mach in machines:
            row = []
            for p in sorted(mach, key=lambda q: q.start):
                if p.kind == PIECE:
                    ref = (p.cls, p.job)
                    k = counter.get(ref, 0)
                    counter[ref] = k + 1
                    row.append(Placement(PIECE, p.cls, p.start, p.dur, p.job, k))
                else:
                    row.append(p)
            out.append(row)
        return Schedule(m=self.m, machines=out, compressed=[])

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
# Dual outcome
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Accepted:
    schedule: Schedule
    guess: Rat

    @property
    def accepted(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejected:
    guess: Rat
    # "load": m*T < required load; "machines": m < required machine count;
    # "setup-bound" / "job-bound": guess is below a direct lower bound.
    reason: str

    @property
    def accepted(self) -> bool:
        return False


DualOutcome = Union[Accepted, Rejected]


class Decision(NamedTuple):
    """A dual's verdict on a guess, reached without building a schedule.

    load and machines are the requirements the guess was held against (None
    when a direct bound or a geometric certificate decided).  plan is what the
    construction needs; None when no planning was needed (rejected outright,
    or accepted because m >= n).
    """

    accepted: bool
    reason: str  # as in Rejected; "" when accepted
    load: Optional[Rat] = None
    machines: Optional[int] = None
    plan: object = None


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


def decided_outcome(inst: Instance, guess: Rat, d: Decision, build) -> DualOutcome:
    """A non-splittable dual from its decision: the rejection, one job per
    machine for an accepted guess without a plan, or build(inst, guess, plan)."""
    if not d.accepted:
        return Rejected(guess, d.reason)
    if d.plan is None:
        return Accepted(trivial_one_job_per_machine(inst), guess)
    return Accepted(build(inst, guess, d.plan), guess)


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


def _check_machine(inst: Instance, label, placements, out: list[Violation]):
    """Rules (a) and (b) on one machine; placements need not be sorted."""
    seq = sorted(placements, key=lambda p: (p.start, p.end))
    prev_end = None
    ready: Optional[int] = None
    for p in seq:
        if not (0 <= p.cls < inst.c):
            out.append(Violation("s", label, p.start, f"unknown class {p.cls}"))
            continue
        if p.start < 0:
            out.append(Violation("a", label, p.start, "placement starts before time 0"))
        if p.dur <= 0:
            out.append(Violation("a", label, p.start, "placement with non-positive duration"))
        if prev_end is not None and p.start < prev_end:
            out.append(Violation("a", label, p.start, "placements overlap on the machine"))
        prev_end = p.end if prev_end is None else max(prev_end, p.end)
        if p.kind == SETUP:
            if p.dur != inst.classes[p.cls].setup:
                out.append(
                    Violation(
                        "b", label, p.start,
                        f"setup of class {p.cls} has length {p.dur}, expected "
                        f"{inst.classes[p.cls].setup}",
                    )
                )
            ready = p.cls
        else:
            if p.job is None or not (0 <= p.job < len(inst.classes[p.cls].jobs)):
                out.append(Violation("s", label, p.start, f"unknown job id ({p.cls}, {p.job})"))
                continue
            if ready != p.cls:
                out.append(
                    Violation(
                        "b", label, p.start,
                        f"piece of class {p.cls} not preceded by a setup of its class",
                    )
                )


def verify_schedule(inst: Instance, sched: Schedule, variant: Variant, bound: Rat) -> VerifyReport:
    """Check a schedule against every feasibility rule of the variant.

    Returns a report with all violations; `ok` means none.  Compressed parts
    are verified without materializing the copies: per-machine rules run once
    per configuration, job-total and parallelism accounting multiply by the
    multiplicity.
    """
    out: list[Violation] = []

    if sched.machine_count() > sched.m:
        out.append(
            Violation(
                "s", "-", Fraction(0),
                f"schedule uses {sched.machine_count()} machines, instance has {sched.m}",
            )
        )

    # intervals[ref] = list of (start, end, copies); copies > 1 only possible
    # from compressed configurations.
    intervals: dict[JobRef, list[tuple[Rat, Rat, int]]] = {}
    totals: dict[JobRef, Rat] = {}
    counts: dict[JobRef, int] = {}

    def account(p: Placement, copies: int):
        if p.kind != PIECE or p.job is None:
            return
        ref = (p.cls, p.job)
        if not (0 <= p.cls < inst.c and 0 <= p.job < len(inst.classes[p.cls].jobs)):
            return
        totals[ref] = totals.get(ref, Fraction(0)) + p.dur * copies
        counts[ref] = counts.get(ref, 0) + copies
        intervals.setdefault(ref, []).append((p.start, p.end, copies))

    for idx, mach in enumerate(sched.machines):
        _check_machine(inst, idx, mach, out)
        for p in mach:
            account(p, 1)
    for k, (config, mult) in enumerate(sched.compressed):
        if mult < 1:
            out.append(Violation("s", f"compressed[{k}]", Fraction(0), "multiplicity < 1"))
            continue
        _check_machine(inst, f"compressed[{k}]", config, out)
        for p in config:
            account(p, mult)

    for ref in inst.job_refs():
        want = Fraction(inst.duration(ref))
        got = totals.get(ref, Fraction(0))
        if got != want:
            out.append(
                Violation(
                    "c", "-", Fraction(0),
                    f"job {ref} placed for {got} time units, needs exactly {want}",
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
                            "e", "-", start,
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
                        Violation("e", "-", s2, f"pieces of job {ref} overlap in time")
                    )
                    break

    makespan = sched.makespan()
    if makespan > bound:
        out.append(
            Violation("f", "-", makespan, f"makespan {makespan} exceeds bound {bound}")
        )

    return VerifyReport(ok=not out, makespan=makespan, violations=out)


def trivial_one_job_per_machine(inst: Instance) -> Schedule:
    """One setup + one job per machine; optimal when m >= n (non-splittable)."""
    machines: list[list[Placement]] = []
    for i, cl in enumerate(inst.classes):
        for j, t in enumerate(cl.jobs):
            s = Fraction(cl.setup)
            machines.append(
                [
                    Placement(SETUP, i, Fraction(0), s),
                    Placement(PIECE, i, s, Fraction(t), job=j, piece=0),
                ]
            )
    return Schedule(m=inst.m, machines=machines)
