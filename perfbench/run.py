#!/usr/bin/env python3
"""Build and run the CLAN benchmark.

One run:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds `perfbench/` (its own Cargo package, against the workspace crates
by path) into $CARGO_TARGET_DIR (default `.bench_build`), runs the
benchmark binary and passes its output through. The last stdout line is
the result JSON; the line before it is the run's record.

Steadiness check:
    python3 perfbench/run.py steady [--runs 10] [--seconds S]

interleaves two sets of runs of one build over every workload in
BENCHMARK.json (set A and set B alternate, run i of each set uses seed
i) and prints, for every end-to-end metric x workload, the median of
each set, their difference, each set's quartiles and spread, and the
metric's bound from BENCHMARK.json. A metric is within its bound when
both the set-to-set median difference and each set's spread are.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def build():
    """Builds the benchmark offline; returns the binary path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target_dir() / "release" / "clan-perfbench"


def commit():
    """The checkout's commit from .git, without running git (which could
    find an enclosing repository); "unknown" outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout text). A run
    overshoots `seconds` by at most its last round and output checks,
    well within the timeout."""
    env = dict(
        os.environ,
        CLAN_BENCH_COMMIT=commit(),
        CLAN_BENCH_TRACE_FILE=str(target_dir() / "perfbench-trace.jsonl"),
    )
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=2 * float(seconds) + 60)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(argv):
    opts = {"--runs": "10", "--seconds": None}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit(f"steady: unknown flag {flag}")
        opts[flag] = next(it, None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = int(opts["--runs"])
    binary = build()
    if binary is None:
        return 1
    # results[workload][set] = list of metrics dicts
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                code, out = run_once(binary, w, i + 1, seconds, 0)
                if code != 0:
                    print(f"steady: {w} set {s} run {i + 1} exited {code}", file=sys.stderr)
                    return 1
                res = json.loads(out.strip().splitlines()[-1])
                results[w][s].append({k: v["value"] for k, v in res["metrics"].items()})
                print(f"  {w} set {s} run {i + 1}/{runs} done", file=sys.stderr)
    ok = True
    print(f"{'workload':<26} {'metric':<16} {'median A':>12} {'median B':>12} "
          f"{'B vs A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for w in workloads:
        for metric, bound in bounds.items():
            a = [r[metric] for r in results[w]["A"]]
            b = [r[metric] for r in results[w]["B"]]
            qa, qb = spread(a), spread(b)
            diff = (qb[1] - qa[1]) / qa[1]
            good = abs(diff) <= bound and max(qa[3], qb[3]) <= bound
            ok &= good
            print(f"{w:<26} {metric:<16} {qa[1]:>12.5g} {qb[1]:>12.5g} {diff:>+8.2%} "
                  f"{qa[3]:>9.2%} {qb[3]:>9.2%} {bound:>6.2f}  "
                  f"{'ok' if good else 'OUT OF BOUND'}   "
                  f"[A q1 {qa[0]:.5g} q3 {qa[2]:.5g} | B q1 {qb[0]:.5g} q3 {qb[2]:.5g}]")
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["steady"]:
        return steady(argv[1:])
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            print(f"perfbench: unknown flag {flag}", file=sys.stderr)
            return 2
        opts[flag] = next(it, None)
    if None in opts.values() or len(opts) != 4 or not is_number(opts["--seconds"]):
        print("usage: run.py --workload W --seed N --seconds S --trace 0|1", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1
    code, out = run_once(binary, opts["--workload"], opts["--seed"],
                         opts["--seconds"], opts["--trace"])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
