"""Benchmark of the probmink CLI: one closed-loop client, one thread.

Run one workload (the form the benchmark contract uses):

    python3 bench/run.py --workload exact_eval --seed 1 --seconds 10 --trace 0

or every workload, each in its own process, untraced then traced, with
every metric printed by name:

    python3 bench/run.py --all

The run imports probmink from `src/` next to this directory, builds the
workload's inputs from the seed, and calls `probmink.cli.main(argv)`
in-process with stdout and stderr captured. Outputs are checked against
independent references after the timed phase. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. See
README.md for the metrics.
"""

import argparse
import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 5
SETUP_REPEATS = 7
CAL_EVERY = 4  # ops between two calibration samples
CAL_REF_S = 0.0025  # the calibration kernel's time at the reference speed
OP_TIMEOUT_S = 20.0
OVERRUN = 3  # stop mid-pass once the timed phase has run this many --seconds
TAIL_BEYOND = 10


class OpTimeout(BaseException):
    """Raised in an op that runs past OP_TIMEOUT_S.

    A BaseException, so that an `except Exception` in the program cannot
    swallow it.
    """


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout()


def run_op(cli, op) -> tuple:
    """(seconds, exit code or None, exception name or None, stdout, stderr)."""
    global _armed
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    _armed = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        _armed = False
    except OpTimeout:
        exc = "timeout"
    except Exception as e:  # any escape from cli.main is a failed op
        exc = type(e).__name__
    finally:
        _armed = False
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, rc, exc, out.getvalue(), err.getvalue()


class Outcomes:
    """Every attempt's status; exit-0 outputs are kept once per op for checking."""

    def __init__(self, ops):
        self.ops = ops
        self.outputs = [[] for _ in ops]
        self.attempts = []  # (op index, status or output index)

    def record(self, i: int, rc, exc, out: str, err: str) -> None:
        op = self.ops[i]
        if exc is not None:
            status = exc
        elif rc == 0:
            kept = self.outputs[i]
            if out not in kept:
                kept.append(out)
            status = kept.index(out)
        elif isinstance(rc, int) and rc >= 2 and op.no_exact and err.strip():
            status = "typed"
        else:
            status = f"exit {rc}"
        self.attempts.append((i, status))

    def judge(self) -> tuple:
        """(attempted, failures Counter, mismatch messages)."""
        verdicts = {}
        for i, kept in enumerate(self.outputs):
            for j, out in enumerate(kept):
                check = self.ops[i].check
                try:
                    if check is None:
                        raise reference.Mismatch("exit 0 where no exact answer exists")
                    check(out)
                    verdicts[i, j] = None
                except (reference.Mismatch, ValueError, KeyError, IndexError,
                        TypeError) as e:
                    verdicts[i, j] = f"{type(e).__name__}: {e}"
        failures = Counter()
        mismatches = set()
        for i, status in self.attempts:
            if status == "typed":
                continue
            if isinstance(status, int):
                problem = verdicts[i, status]
                if problem is None:
                    continue
                mismatches.add(f"{' '.join(self.ops[i].argv)[:120]}: {problem}")
                status = "mismatch"
            op = self.ops[i]
            failures[(op.kind, op.size, status)] += 1
        return len(self.attempts), failures, sorted(mismatches)


def _quantile(sorted_values, p: float) -> float:
    """Nearest-rank p-th percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def _tail_percentile(ops_per_pass: int, n: int) -> float:
    """Highest percentile with TAIL_BEYOND ops beyond it in one whole pass.

    Basing it on one pass keeps it fixed between runs that finish a
    different number of passes; a run cut short uses its own op count.
    """
    base = min(ops_per_pass, n)
    return math.floor(1000 * (1 - TAIL_BEYOND / base)) / 10 if base > TAIL_BEYOND else 50.0


def calibration_s() -> float:
    """Time one run of a fixed stdlib kernel: Fraction sums and an integer loop.

    The host's speed drifts by tens of percent over minutes. Timed metrics
    are divided by the drift factor median(calibration) / CAL_REF_S, taken
    over the same stretch of time, so they read in seconds at a fixed
    reference speed. The kernel does not touch probmink, so a change to the
    program moves a metric by the same factor as its raw time.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k)
    x = 0
    for i in range(20000):
        x += i * i
    return time.perf_counter() - start


def _import_probmink():
    src = ROOT / "src"
    if not (src / "probmink" / "__init__.py").is_file():
        raise SystemExit(f"error: no probmink sources under {src}")
    sys.path.insert(0, str(src))
    import probmink
    import probmink.cli
    if Path(probmink.__file__).resolve().parent != src / "probmink":
        raise SystemExit(f"error: probmink imported from {probmink.__file__}, not {src}")
    return probmink, probmink.cli


def _import_seconds() -> float:
    """Time `import probmink.cli` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
            " import probmink.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def _setup_seconds(cli, build, seed: int) -> tuple:
    """(raw seconds, drift factor, ops): median import plus median build and warm-up."""
    imports, builds, cals = [], [], []
    for _ in range(IMPORT_REPEATS):
        imports.append(_import_seconds())
        cals.append(calibration_s())
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops, warm = build(random.Random(seed))
        run_op(cli, warm)
        builds.append(time.perf_counter() - start)
        cals.append(calibration_s())
    raw = statistics.median(imports) + statistics.median(builds)
    return raw, statistics.median(cals) / CAL_REF_S, ops


class Pass:
    """One pass of the timed phase: raw latencies, calibration samples, wall."""

    def __init__(self):
        self.latencies, self.cals = [], []
        self.wall = 0.0
        self.whole = False

    @property
    def factor(self) -> float:
        return statistics.median(self.cals) / CAL_REF_S


def _timed(cli, ops, order, outcomes, seconds: float) -> list:
    """Whole passes until `seconds` have gone, with calibration between ops.

    A pass's wall time leaves its calibration samples out.
    """
    passes = []
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + OVERRUN * seconds
    while time.perf_counter() < deadline:
        p = Pass()
        passes.append(p)
        pass_start = time.perf_counter()
        for n, i in enumerate(order):
            elapsed, rc, exc, out, err = run_op(cli, ops[i])
            p.latencies.append(elapsed)
            outcomes.record(i, rc, exc, out, err)
            if n % CAL_EVERY == 0:
                p.cals.append(calibration_s())
            if time.perf_counter() > hard_stop:
                break
        else:
            p.whole = True
        p.wall = time.perf_counter() - pass_start - sum(p.cals)
        if not p.whole:
            break
    return passes


def _traced(package, cli, name, ops, order, outcomes, seconds: float) -> dict:
    """Per-layer metrics from spans of the first pass.

    Every op runs untraced and then traced, back to back, so that the
    overhead ratio compares the same work at the same machine speed.
    Passes repeat until `seconds` have gone; only the first keeps spans.
    """
    tracer = spans.Tracer()
    tracer.prepare(package)
    untraced_s = traced_s = first_traced_s = 0.0
    output_bytes, first = 0, None
    start = time.perf_counter()
    while first is None or time.perf_counter() < start + seconds:
        tracer.spans = []
        for i in order:
            elapsed, rc, exc, out, err = run_op(cli, ops[i])
            untraced_s += elapsed
            outcomes.record(i, rc, exc, out, err)
            tracer.op = i
            try:
                tracer.enable()
                elapsed, rc, exc, out, err = run_op(cli, ops[i])
            finally:
                tracer.disable()
            traced_s += elapsed
            outcomes.record(i, rc, exc, out, err)
            if first is None:
                first_traced_s += elapsed
                output_bytes += len(out.encode()) + len(err.encode())
            if time.perf_counter() > start + OVERRUN * seconds:
                break
        if first is None:
            first = tracer.spans
    tracer.spans = first
    return tracer.metrics(name, ops, first_traced_s, traced_s / untraced_s, output_bytes)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    package, cli = _import_probmink()
    build = workloads.WORKLOADS[name]
    setup_raw, setup_factor, ops = _setup_seconds(cli, build, seed)
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    outcomes = Outcomes(ops)
    details = {"workload": name, "seed": seed, "ops_per_pass": len(ops)}
    trace_problem = None
    if traced:
        try:
            metrics = _traced(package, cli, name, ops, order, outcomes, seconds)
        except spans.CoverageError as e:
            metrics, trace_problem = {}, str(e)
    else:
        passes = _timed(cli, ops, order, outcomes, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        whole = [p for p in passes if p.whole] or passes
        raw_lat = sorted(t for p in passes for t in p.latencies)
        lat = sorted(t / p.factor for p in passes for t in p.latencies)
        tail_p = _tail_percentile(len(ops), len(lat))
        wall = statistics.median(p.wall / p.factor for p in whole)
        metrics = {
            "setup_s": (setup_raw / setup_factor, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(whole[0].latencies) / wall, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_tail_ms": (1e3 * _quantile(lat, tail_p), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        details.update(
            passes=sum(p.whole for p in passes), timed_ops=len(lat), op_tail_percentile=tail_p,
            drift_factor=statistics.median(p.factor for p in whole),
            raw={"setup_s": setup_raw, "wall_s": statistics.median(p.wall for p in whole),
                 "op_p50_ms": 1e3 * statistics.median(raw_lat),
                 "op_tail_ms": 1e3 * _quantile(raw_lat, tail_p)})
    attempted, failures, mismatches = outcomes.judge()
    details.update(
        fail_ratio=sum(failures.values()) / attempted,
        failures=[{"workload": name, "subcommand": kind, "size": size, "error": err,
                   "count": n} for (kind, size, err), n in sorted(failures.items(), key=str)],
        mismatches=mismatches[:20],
        trace_problem=trace_problem,
    )
    result = {
        "correct": not mismatches and trace_problem is None,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"details": details, "result": result}


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; print by name."""
    status = 0
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={traced}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
            print(f"== {name} ({'traced' if traced else 'untraced'}) correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}")
            print(f"  {'fail_ratio':48s} {details['fail_ratio']:.6g} ratio")
            if not traced:
                print(f"  {'op_tail_percentile':48s} p{details['op_tail_percentile']}"
                      f" of {details['timed_ops']} ops")
                print(f"  {'drift_factor':48s} {details['drift_factor']:.6g}")
                for metric, value in details["raw"].items():
                    print(f"  {'raw ' + metric:48s} {value:.6g}")
            for metric, body in result["metrics"].items():
                print(f"  {metric:48s} {body['value']:.6g} {body['unit']}")
            for f in details["failures"]:
                print(f"  failed: {f['count']} x {f['subcommand']} size {f['size']}:"
                      f" {f['error']}")
            for m in details["mismatches"]:
                print(f"  mismatch: {m}")
            if details["trace_problem"]:
                print(f"  trace: {details['trace_problem']}")
            status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, print every metric")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    signal.signal(signal.SIGALRM, _on_alarm)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": report["details"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
