"""End-to-end benchmark of batchsched.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form runs one workload in this process, single-threaded, from the
root of a source checkout (the package is imported from ./src).  It sets the
workload up five times; setup_s is the median set-up, each one importing the
package afresh, generating and serialising the instances and warming every op
up.  It then runs whole cases (an instance with its solve and verify ops),
cycling through the workload's list, for S seconds.  Op times are scaled by
the host's speed, sampled while the ops run (see HostSpeed).  It checks
every output, prints the answer digest and the metrics, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, taken from spans around the calls between layers plus one
quarter-size pass for the growth ratios.

--all runs every workload in a fresh process, one after the other, untraced
and then traced, and prints every metric with its unit and the tracing
overhead (traced minus untraced end-to-end numbers).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from spans import NullTracer, Tracer, layer_metrics, layer_totals
from workloads import WARMUP, WORKLOADS, Case

_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("core", "wrap", "splittable", "preemptive", "nonpreemptive", "search", "cli")
MODULE_OF = {"split": "splittable", "pmtn": "preemptive", "nonp": "nonpreemptive"}
SETUP_ROUNDS = 5
DIGEST_CASES = 100
# Ops still running this long after start time out, so that a pathological
# program fails its ops instead of running past the benchmark's time budget.
HARD_STOP_S = 150.0
# The reference machine's speed drifts by up to 2x within minutes and swings
# by 15% within a second.  While a workload runs, a SIGPROF handler times a
# fixed loop of about a millisecond (probe_loop) every PROBE_EVERY_S of CPU
# time.  An op's time is its wall time minus the probes that ran inside it,
# scaled by REF_PROBE_S / (the mean probe time over the op, or over the
# PROBE_WINDOW probes nearest to it if fewer ran inside): the times reported
# are those the op would take with the host at the probe's nominal speed.
# REF_PROBE_S is the probe's median time on the reference machine.
REF_PROBE_S = 0.001
PROBE_EVERY_S = 0.02
PROBE_WINDOW = 8


class OpTimeout(Exception):
    pass


class CheckFailed(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise OpTimeout("op exceeded its time limit")


def probe_loop() -> float:
    """Times a fixed mix of pure-Python work that uses no batchsched code:
    Fractions, a dict, a sort, json and an integer loop.  The collector is off
    so that the size of the program's heap cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc, rows = Fraction(0), {}
        for i in range(120):
            acc += Fraction(i % 97 + 1, i % 13 + 1)
            rows[i] = (i, i * 3 % 17, str(i))
        json.loads(json.dumps(sorted(rows.values(), key=lambda r: (r[1], -r[0]))))
        s = 0
        for i in range(3000):
            s += i * i % 7
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe start times and durations, taken by a SIGPROF handler."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._busy = False

    def _on_prof(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.at.append(time.perf_counter())
            self.took.append(probe_loop())
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def net(self, start: float, dt: float) -> float:
        """Wall time of an op that started at `start` and took dt seconds,
        without the probes that ran inside it."""
        i, j = bisect_left(self.at, start), bisect_left(self.at, start + dt)
        return dt - sum(self.took[i:j])

    def scaled(self, start: float, dt: float) -> float:
        """The op's net time at the probe's nominal speed."""
        i, j = bisect_left(self.at, start), bisect_left(self.at, start + dt)
        net = dt - sum(self.took[i:j])
        if j - i < PROBE_WINDOW:
            i = max(0, min(i - (PROBE_WINDOW - (j - i)) // 2, len(self.at) - PROBE_WINDOW))
            j = min(len(self.at), i + PROBE_WINDOW)
        return net * REF_PROBE_S / statistics.fmean(self.took[i:j])


@dataclass
class Samples:
    """Op times: distinct op id, start and seconds.  A case repeated within a
    run adds samples to the same op ids."""

    op: array = field(default_factory=lambda: array("q"))
    start: array = field(default_factory=lambda: array("d"))
    s: array = field(default_factory=lambda: array("d"))

    def add(self, op: int, start: float, dt: float) -> None:
        self.op.append(op)
        self.start.append(start)
        self.s.append(dt)

    def by_op(self, op_time) -> dict[int, list[float]]:
        """Per op id, op_time(start, seconds) of each of its samples."""
        out = defaultdict(list)
        for op, start, dt in zip(self.op, self.start, self.s):
            out[op].append(op_time(start, dt))
        return out


@dataclass
class Tally:
    """What a run did.  What grows with the number of ops is kept in flat
    arrays, so that the benchmark's own memory stays small and peak_rss_mb
    does not grow with the number of cases a run gets through."""

    width: int  # solves per case; op id = case index * width + solve index
    answers: array  # per op id: hash of its answer, 0 before its first pass
    solves: Samples = field(default_factory=Samples)
    verifies: Samples = field(default_factory=Samples)
    solve_jobs: int = 0
    verify_jobs: int = 0
    out_bytes: int = 0
    ratio_sum: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    @classmethod
    def for_cases(cls, cases) -> "Tally":
        width = max(len(case.solves) for case in cases)
        return cls(width, array("q", bytes(8 * width * len(cases))))


def answer_hash(answer: tuple) -> int:
    return int.from_bytes(hashlib.blake2b(repr(answer).encode(), digest_size=8).digest(),
                          "little", signed=True) or 1


class Bench:
    """One workload's ops, run against the package imported from ./src."""

    def __init__(self, bs, cli, tracer, op_limit_s):
        self.bs = bs
        self.cli = cli
        self.tracer = tracer
        self.op_limit_s = op_limit_s

    def solve(self, text, spec):
        """Mirrors `batchsched solve`: parse, search, certify, emit, dump."""
        bs, span = self.bs, self.tracer.span
        with span("cli.loads"):
            raw = json.loads(text)
        with span("core.parse_instance"):
            inst = bs.parse_instance(raw)
        variant = bs.Variant.parse(spec.variant)
        mod = MODULE_OF[spec.variant]
        if spec.algo == "two-approx":
            with span("core.lower_bound"):
                lb = bs.lower_bound_tmin(inst, variant)
            with span(mod + ".two_approx"):
                if variant is bs.Variant.SPLITTABLE:
                    sched, makespan = bs.two_approx_split(inst)
                else:
                    sched, makespan = bs.next_fit_two_approx(inst, variant)
            result = bs.SearchResult(guess=2 * lb, schedule=sched, lower_bound=lb,
                                     makespan=makespan, probes=[])
        else:
            with span(f"{mod}.search.{spec.algo}") as sp:
                if spec.algo == "eps":
                    result = bs.epsilon_search(inst, variant, spec.eps)
                else:
                    result = {
                        "split": bs.class_jump_split,
                        "pmtn": bs.class_jump_pmtn,
                        "nonp": bs.exact_integer_search_nonp,
                    }[spec.variant](inst)
                sp.info = len(result.probes)
        report = bs.certified_report(result)
        with span("cli.emit"):
            payload = self.cli.emit_schedule(result.schedule)
        payload["summary"] = {
            "accepted": True,
            "makespan": self.cli.fmt_rat(report.makespan),
            "LB": self.cli.fmt_rat(report.lower_bound),
            "ratio_bound": self.cli.fmt_rat(report.ratio_bound),
            "probes": len(result.probes),
        }
        with span("cli.dumps") as sp:
            out = json.dumps(payload, indent=1, sort_keys=True)
            sp.info = len(out)
        return inst, variant, result.guess, report, out

    def verify(self, inst, variant, out, bound):
        """Mirrors `batchsched verify`: load, parse, check at the bound."""
        span = self.tracer.span
        with span("cli.loads"):
            raw = json.loads(out)
        with span("cli.parse_schedule"):
            sched = self.cli.parse_schedule(raw, inst.m)
        with span("core.verify") as sp:
            report = self.bs.verify_schedule(inst, sched, variant, bound)
            sp.info = sched.placement_count()
        return report

    def _timed(self, fn, *args):
        limit = min(self.op_limit_s, _T0 + HARD_STOP_S - time.perf_counter())
        if limit <= 0:
            raise OpTimeout("benchmark time budget used up")
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            t = time.perf_counter()
            result = fn(*args)
            return result, t, time.perf_counter() - t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run_case(self, index, case, tally: Tally):
        """Solve then verify each spec of the case; a failed op is reported on
        stderr and counted, and a failed solve fails its verify too."""
        for k, spec in enumerate(case.solves):
            op = index * tally.width + k
            what = f"{case.label} {spec.variant} {spec.algo}"
            tally.attempted += 2
            self.tracer.begin_op()
            try:
                (inst, variant, guess, report, out), t, dt = self._timed(self.solve, case.text, spec)
                tally.solves.add(op, t, dt)
                tally.solve_jobs += case.n
                tally.out_bytes += len(out)
                tally.ratio_sum += float(report.ratio_bound)
                lb, makespan = report.lower_bound, report.makespan
                bound = 2 * lb if spec.algo == "two-approx" else Fraction(3, 2) * guess
                answer = answer_hash((case.label, spec.variant, spec.algo,
                                      str(guess), str(makespan), str(lb)))
                tally.answers[op] = tally.answers[op] or answer
                problem = None
                if lb > makespan:
                    problem = f"certified LB {lb} above makespan {makespan}"
                elif makespan > bound:
                    problem = f"makespan {makespan} above bound {bound}"
                elif tally.answers[op] != answer:
                    problem = "answer differs from the previous pass"
                if problem:
                    raise CheckFailed(problem)
            except Exception:
                self._fail(tally, what + " solve", 2)
                continue
            self.tracer.begin_op()
            try:
                vreport, t, dt = self._timed(self.verify, inst, variant, out, bound)
                tally.verifies.add(op, t, dt)
                tally.verify_jobs += case.n
                if not vreport.ok or vreport.makespan != makespan:
                    detail = "; ".join(str(v) for v in vreport.violations[:3])
                    raise CheckFailed(f"verify rejected the schedule: {detail}")
            except Exception:
                self._fail(tally, what + " verify", 1)

    @staticmethod
    def _fail(tally, what, count):
        tally.failed += count
        print(f"FAILED {what}:", file=sys.stderr)
        traceback.print_exc(limit=3, file=sys.stderr)

    def measure(self, cases, seconds) -> tuple[Tally, int]:
        """Whole cases, cycling through the list, as long as one more case at
        the mean case time so far still ends within `seconds`."""
        tally = Tally.for_cases(cases)
        gc.collect()
        start = time.perf_counter()
        done = 0
        while done == 0 or (time.perf_counter() - start) * (done + 1) / done <= seconds:
            i = done % len(cases)
            self.run_case(i, cases[i], tally)
            done += 1
        tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return tally, done


def import_package():
    """Import batchsched afresh, as a new process would."""
    for name in [m for m in sys.modules if m.split(".")[0] == "batchsched"]:
        del sys.modules[name]
    import batchsched
    import batchsched.cli

    return batchsched, batchsched.cli


def set_up(bench, workload, seed, div):
    """Generate the workload's instances and warm every op it runs up."""
    cases = workload.make(seed, div)
    specs = {spec for case in cases for spec in case.solves}
    warm = Case("warm-up", WARMUP, 0, tuple(sorted(specs, key=repr)))
    tally = Tally.for_cases([warm])
    bench.run_case(0, warm, tally)
    if tally.failed:
        raise SystemExit("warm-up failed")
    return cases


def _latencies(by_op: dict) -> list[float]:
    """One latency per distinct op, the median of its repetitions, sorted.
    Percentiles over these stay inside an op's cluster on workloads that
    repeat a few distinct ops, instead of falling between two clusters."""
    return sorted(statistics.median(ts) for ts in by_op.values())


def end_to_end(tally: Tally, setup_s: float, op_time) -> dict[str, float]:
    """The end-to-end metrics, with each op's time taken as
    op_time(start, seconds)."""
    solve_s, verify_s = tally.solves.by_op(op_time), tally.verifies.by_op(op_time)
    solves, verifies = _latencies(solve_s), _latencies(verify_s)
    solve_total = sum(map(sum, solve_s.values()))
    verify_total = sum(map(sum, verify_s.values()))
    p99 = solves[max(0, math.ceil(0.99 * len(solves)) - 1)] if solves else 0.0
    count = len(tally.solves.s)
    return {
        "setup_s": setup_s,
        "solve_jobs_per_s": tally.solve_jobs / solve_total if solves else 0.0,
        "verify_jobs_per_s": tally.verify_jobs / verify_total if verifies else 0.0,
        "solve_p50_ms": 1e3 * statistics.median(solves) if solves else 0.0,
        "solve_p99_ms": 1e3 * p99,
        "verify_p50_ms": 1e3 * statistics.median(verifies) if verifies else 0.0,
        "peak_rss_mb": tally.peak_rss_mb,
        "out_bytes_per_job": tally.out_bytes / tally.solve_jobs if tally.solve_jobs else 0.0,
        "ratio_bound_mean": tally.ratio_sum / count if count else 0.0,
    }


def digest(tally: Tally, cases: int) -> str:
    """Hash of the answers (case, variant, algo, guess, makespan, LB) of the
    first cases, so that a change of answers shows."""
    h = hashlib.sha256()
    covered = 0
    for i in range(min(cases, DIGEST_CASES)):
        ops = tally.answers[i * tally.width:(i + 1) * tally.width]
        if any(ops):
            covered += 1
            h.update(ops.tobytes())
    return f"{h.hexdigest()[:16]} over {covered} of {min(cases, DIGEST_CASES)} cases"


def src_lines() -> dict[str, float]:
    pkg = SRC / "batchsched"

    def count(path):
        return len(path.read_text().splitlines()) if path.is_file() else 0

    out = {f"{layer}.src_lines": count(pkg / f"{layer}.py") for layer in LAYERS}
    out["src.total_lines"] = sum(count(p) for p in pkg.glob("*.py"))
    return out


def emit(spec_list, values, tally: Tally):
    missing = [m["name"] for m in spec_list if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def run_traced(bench, workload, args, cases):
    """Measure with spans on, then a quarter-size window for the growth
    ratios; prints where the op time went and writes the spans out."""
    full = bench.tracer = Tracer()
    with full.patched():
        tally, done = bench.measure(cases, args.seconds)
    bench.tracer = NullTracer()
    quarter_cases = set_up(bench, workload, args.seed, 4)
    quarter = bench.tracer = Tracer()
    with quarter.patched():
        q_tally, q_done = bench.measure(quarter_cases, args.seconds / 4)
    bench.tracer = NullTracer()
    tally.attempted += q_tally.attempted
    tally.failed += q_tally.failed
    values = layer_metrics(layer_totals(full), done, layer_totals(quarter), q_done)
    values.update(src_lines())

    op_s = (sum(tally.solves.s) + sum(tally.verifies.s)) / done  # probes included, as in spans
    duals = sum(values[f"{mod}.dual_s"] for mod in ("splittable", "preemptive", "nonpreemptive"))
    cli_s = sum(values[k] for k in ("cli.emit_s", "cli.dumps_s", "cli.loads_s",
                                    "cli.parse_schedule_s"))
    print(f"share of op time: core.verify {values['core.verify_s'] / op_s:.0%}, "
          f"duals {duals / op_s:.0%}, cli {cli_s / op_s:.0%}")
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    full.write(str(out_dir / f"{args.workload}-seed{args.seed}.jsonl"))
    return tally, done, values


def run_workload(args, config) -> int:
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(None, None, NullTracer(), workload.op_limit_s)
    speed = HostSpeed()
    speed.start()
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t = time.perf_counter()
            bench.bs, bench.cli = import_package()
            cases = set_up(bench, workload, args.seed, 1)
            rounds.append((t, time.perf_counter() - t))
        if args.trace:
            tally, done, values = run_traced(bench, workload, args, cases)
        else:
            tally, done = bench.measure(cases, args.seconds)
    finally:
        speed.stop()

    e2e = end_to_end(tally, statistics.median(speed.scaled(*r) for r in rounds), speed.scaled)
    wall = end_to_end(tally, statistics.median(speed.net(*r) for r in rounds), speed.net)
    fail_ratio = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {done} case runs, "
          f"{len(tally.solves.s)} solves, {tally.attempted} ops, fail_ratio {fail_ratio}")
    print(f"digest {digest(tally, len(cases))}")
    print(f"host speed: {len(speed.took)} probes, median {statistics.median(speed.took) * 1e3:.3f} ms "
          f"(nominal {REF_PROBE_S * 1e3:.3f} ms), {sum(speed.took):.2f} s in all")
    print("wall clock without probes, unscaled: " + json.dumps(wall))
    print("end_to_end: " + json.dumps(e2e))
    if args.trace:
        emit(config["per_layer"], values, tally)
    else:
        emit(config["end_to_end"], e2e, tally)
    return 0


def _last_json(stdout: str, prefix: str = ""):
    for line in reversed(stdout.splitlines()):
        if line.startswith(prefix) and line[len(prefix):].startswith("{"):
            return json.loads(line[len(prefix):])
    raise ValueError(f"no {prefix or 'result'} line in output")


def run_all(args, config) -> int:
    """Each workload in a fresh process, one at a time: untraced, then traced."""
    e2e_units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    names = [w["name"] for w in config["workloads"]]
    plain, traced, layers, status = {}, {}, {}, 0
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            result = _last_json(proc.stdout)
            print(f"{name} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            e2e = _last_json(proc.stdout, "end_to_end: ")
            if trace:
                traced[name], layers[name] = e2e, result["metrics"]
            else:
                plain[name] = e2e
            status |= 0 if result["correct"] else 1
    done = [n for n in names if n in plain and n in traced]
    head = f"{'metric':28s} {'unit':8s}" + "".join(f"{n:>16s}" for n in done)
    print("\nend-to-end (untraced)\n" + head)
    for metric, unit in e2e_units.items():
        print(f"{metric:28s} {unit:8s}" + "".join(f"{plain[n][metric]:16.6g}" for n in done))
    print("\ntracing overhead (traced minus untraced)\n" + head)
    for metric, unit in e2e_units.items():
        print(f"{metric:28s} {unit:8s}"
              + "".join(f"{traced[n][metric] - plain[n][metric]:16.6g}" for n in done))
    print("\nper-layer (traced)\n" + head)
    for m in config["per_layer"]:
        print(f"{m['name']:28s} {m['unit']:8s}"
              + "".join(f"{layers[n][m['name']]['value']:16.6g}" for n in done))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args(argv)
    config_path = ROOT / "BENCHMARK.json"
    if not (SRC / "batchsched" / "__init__.py").is_file() or not config_path.is_file():
        print(f"error: run from the root of a batchsched checkout ({SRC} not found)",
              file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    if args.all:
        return run_all(args, config)
    if args.workload not in [w["name"] for w in config["workloads"]]:
        ap.error("--workload must be one of the workloads of BENCHMARK.json")
    return run_workload(args, config)


if __name__ == "__main__":
    sys.exit(main())
