"""A/B runs of the benchmark: a git revision against the working tree.

Usage:
    python tools/ab.py --parent REV [--workload W ...] [--seeds 1,2,3]
                       [--pairs N] [--seconds S] [--json-out FILE] [--change TEXT]
    python tools/ab.py --parent REV --outputs [--seeds 1,2,3]

Both sides run from fresh copies in a temporary directory: REV through
`git archive`, and the working tree's tracked and untracked, not ignored,
files. So neither side has a `__pycache__`, and every process runs with
PYTHONDONTWRITEBYTECODE=1, so none is written.

The default mode runs N alternating pairs of

    python3 bench/run.py --workload W --seed S --seconds SECONDS --trace 0

per workload, one process per run, the parent first in odd-numbered pairs
and the change first in even ones; pair i takes the i-th seed of --seeds,
cycling. It prints each run as it ends, and writes every run and, per
workload and per end-to-end metric of BENCHMARK.json, the medians and
quartiles of both sides, the ratio of medians, the pairs won by the change,
the bound, the parent's quartile spread over its median and a verdict, in
the layout of the BENCH_*.json records.

--outputs runs every op of the three workloads at each seed, the warm-up
op first, once through `cli.main` on each side, as `bench/run.py` does,
and compares each op's exit code, exception, stdout and stderr by sha256.
It exits 1 on any difference. Neither mode changes anything under bench/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact_eval", "graph_sweep", "integral_mc")
RUN_TIMEOUT_S = 1200


def _git(*args, **kwargs):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          **kwargs).stdout


def copy_revision(rev: str, dest: Path) -> str:
    """Extract the files of `rev` into dest; return its full commit hash."""
    dest.mkdir(parents=True)
    archive = _git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return _git("rev-parse", rev, text=True).strip()


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", text=True)
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _env() -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `root`: its result line, without the units."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=_env(), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: body["value"] for name, body in result["metrics"].items()},
    }


def spread(values: list) -> dict:
    """Median, inclusive quartiles and count of a list of numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def compare(records: list, metric: dict) -> dict:
    """The summary of one end-to-end metric over paired records of one workload.

    `records` are run records with "pair", "side" and "metrics"; `metric` is
    an end_to_end entry of BENCHMARK.json (name, better, bound). The verdict
    is "worse than bound" when the change's median is worse than the
    parent's by more than the bound; otherwise "unresolved" when the
    parent's quartile spread q3 - q1 exceeds the bound times its median;
    "gain beyond spread" when the change wins at least 9 in 10 of the pairs
    and its median is better by more than that spread; else "within bound".
    """
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {"parent": {}, "change": {}}
    for record in records:
        sides[record["side"]][record["pair"]] = record["metrics"][name]
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    parent = spread(list(sides["parent"].values()))
    change = spread(list(sides["change"].values()))
    won = sum((sides["change"][p] < sides["parent"][p]) == lower
              and sides["change"][p] != sides["parent"][p] for p in pairs)
    ratio = change["median"] / parent["median"]
    gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
    iqr = parent["q3"] - parent["q1"]
    if (ratio - 1 if lower else 1 - ratio) > metric["bound"]:
        verdict = "worse than bound"
    elif iqr > metric["bound"] * parent["median"]:
        verdict = "unresolved"
    elif 10 * won >= 9 * len(pairs) and gain > iqr:
        verdict = "gain beyond spread"
    else:
        verdict = "within bound"
    return {
        "parent": parent,
        "change": change,
        "ratio_of_medians": ratio,
        "pairs_won_by_change": f"{won}/{len(pairs)}",
        "bound": metric["bound"],
        "parent_iqr_over_median": iqr / parent["median"],
        "verdict": verdict,
    }


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and per end-to-end metric, `compare` over the runs.

    Every workload needs at least two complete pairs.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        records = [run for run in runs if run["workload"] == workload]
        summary[workload] = {metric["name"]: compare(records, metric) for metric in end_to_end}
    return summary


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version()}


def run_pairs(args, sides: dict, parent_hash: str) -> int:
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "change": args.change,
        "parent": parent_hash,
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g}"
                   " --trace 0",
        "order": "made by tools/ab.py: each run in its own process, on fresh copies of the parent"
                 " (git archive) and of the working tree, with PYTHONDONTWRITEBYTECODE=1 (no"
                 " __pycache__ on either side); pairs back to back, the parent first in odd pairs"
                 f" and the change first in even ones; workloads {', '.join(args.workload)},"
                 f" {args.pairs} pairs each, pair i at seed i of {args.seeds}, cycling",
        "runs_note": "metrics are the `metrics` values of the last line of bench/run.py's stdout;"
                     " every run made is listed",
        "machine": machine(),
        "summary": {},
        "runs": [],
    }
    for workload in args.workload:
        for pair in range(1, args.pairs + 1):
            seed = args.seeds[(pair - 1) % len(args.seeds)]
            first = "parent" if pair % 2 else "change"
            for side in (first, "change" if first == "parent" else "parent"):
                result = run_once(sides[side], workload, seed, args.seconds)
                record["runs"].append({"workload": workload, "pair": pair, "seed": seed,
                                       "side": side, "first": first, **result})
                metrics = " ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} pair {pair} seed {seed} {side}: correct={result['correct']}"
                      f" {metrics}", file=sys.stderr, flush=True)
                if pair > 1 and side != first:
                    record["summary"] = summarize(record["runs"], end_to_end)
                if args.json_out:
                    Path(args.json_out).write_text(json.dumps(record, indent=2) + "\n")
    for workload, metrics in record["summary"].items():
        for name, body in metrics.items():
            print(f"{workload:12s} {name:12s} parent {body['parent']['median']:.4g}"
                  f" change {body['change']['median']:.4g} ratio {body['ratio_of_medians']:.3f}"
                  f" won {body['pairs_won_by_change']:>6s} spread"
                  f" {body['parent_iqr_over_median']:.3f}  {body['verdict']}")
    return 0


def digests(root: Path, seeds: list) -> list:
    """(workload, seed, op index, argv, sha256) of every op of every workload in `root`.

    Runs in a process whose probmink and bench/ are root's: op index 0 is
    the warm-up op, then the ops in build order.
    """
    sys.path.insert(0, str(root / "bench"))
    import run
    import workloads

    _, cli = run._import_probmink()
    signal.signal(signal.SIGALRM, run._on_alarm)
    rows = []
    for name in WORKLOADS:
        for seed in seeds:
            ops, warm = workloads.WORKLOADS[name](random.Random(seed))
            for i, op in enumerate([warm, *ops]):
                _, rc, exc, out, err = run.run_op(cli, op)
                text = json.dumps([rc, exc, out, err])
                rows.append([name, seed, i, list(op.argv)[:6],
                             hashlib.sha256(text.encode()).hexdigest()])
    return rows


def differences(parent: list, change: list) -> list:
    """Messages for each op whose digest differs, or that only one side ran."""
    keyed = [{tuple(row[:3]): row for row in rows} for rows in (parent, change)]
    problems = []
    for key in sorted(keyed[0].keys() | keyed[1].keys()):
        a, b = keyed[0].get(key), keyed[1].get(key)
        if a is None or b is None:
            problems.append(f"{key}: only the {'change' if a is None else 'parent'} ran it")
        elif a[4] != b[4]:
            problems.append(f"{key}: {' '.join(a[3])}: outputs differ")
    return problems


def _digests_in(root: Path, seeds: list) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--digests", str(root),
           "--seeds", ",".join(map(str, seeds))]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    return json.loads(proc.stdout)


def run_outputs(sides: dict, seeds: list) -> int:
    rows = {side: _digests_in(root, seeds) for side, root in sides.items()}
    problems = differences(rows["parent"], rows["change"])
    for problem in problems:
        print(problem)
    print(f"{len(rows['change'])} ops over {', '.join(WORKLOADS)} at seeds {seeds}:"
          f" {len(problems)} differ")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--outputs", action="store_true",
                        help="compare every op's outputs by sha256 instead of timing runs")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3",
                        type=lambda text: [int(s) for s in text.split(",")])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--json-out", help="write every run and the summary here")
    parser.add_argument("--change", default="", help="one line on the change, for the record")
    parser.add_argument("--digests", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests is not None:
        print(json.dumps(digests(args.digests, args.seeds)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        parent_hash = copy_revision(args.parent, sides["parent"])
        copy_worktree(sides["change"])
        if args.outputs:
            return run_outputs(sides, args.seeds)
        return run_pairs(args, sides, parent_hash)


if __name__ == "__main__":
    sys.exit(main())
