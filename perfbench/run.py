#!/usr/bin/env python3
"""Repository benchmark: one workload run, end-to-end or per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the library
sources under src/) in Release into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload:

  --trace 0  the untraced binary measures for S seconds and the result
             carries every end-to-end metric of BENCHMARK.json;
  --trace 1  the untraced binary and then the traced binary each measure
             for S/2 seconds; the result carries every per-layer metric,
             including trace_overhead.* (traced minus untraced value of each
             end-to-end metric), and on the simulator both runs must commit
             the same sequence (equal commit digests).

Prints a header, one line per metric with its unit, the correctness verdict
and, as the last line, the JSON result. Exits 1 when a check fails and 2
when the benchmark cannot be built or run.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Hard ceiling for one binary run: the longest episode of any workload is a
# few seconds, so anything far past the budget is a hang.
RUN_SLACK_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds both benchmark binaries; returns their paths."""
    out = build_dir()
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "perfbench_marlin"),
            os.path.join(out, "perfbench_marlin_traced"))


def run_binary(binary, workload, seed, seconds, out_dir):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%r" % seconds, "--out-dir=" + out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=seconds + RUN_SLACK_S, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)"
                           % (os.path.basename(binary), proc.returncode))
    return json.loads(lines[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2

    try:
        plain, traced = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("benchmark build failed: %s" % e)
        return 2

    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    checks = []
    try:
        if args.trace == 0:
            base = run_binary(plain, args.workload, args.seed, args.seconds,
                              out_dir)
            runs = [base]
            wanted = spec["end_to_end"]
            values = dict(base["metrics"])
        else:
            half = args.seconds / 2
            base = run_binary(plain, args.workload, args.seed, half, out_dir)
            tr = run_binary(traced, args.workload, args.seed, half, out_dir)
            runs = [base, tr]
            wanted = spec["per_layer"]
            values = dict(tr["metrics"])
            for m in spec["end_to_end"]:
                values["trace_overhead." + m["name"]] = (
                    tr["metrics"][m["name"]] - base["metrics"][m["name"]])
            if base["digest"] or tr["digest"]:
                checks.append({"name": "traced_digest_equals_untraced",
                               "ok": base["digest"] == tr["digest"],
                               "detail": "%s vs %s" % (base["digest"][:16],
                                                       tr["digest"][:16])})
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("benchmark run failed: %s" % e)
        return 2

    for r in runs:
        checks.extend(r["checks"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values["ops_failed_ratio"] = failed / attempted if attempted else 1.0
    missing = [m["name"] for m in wanted
               if not isinstance(values.get(m["name"]), (int, float))
               or not math.isfinite(values[m["name"]])]
    checks.append({"name": "every_metric_emitted", "ok": not missing,
                   "detail": ", ".join(missing)})
    if args.trace == 0:
        zero = [m["name"] for m in wanted
                if m["name"] not in missing and values[m["name"]] <= 0]
        checks.append({"name": "end_to_end_metrics_positive", "ok": not zero,
                       "detail": ", ".join(zero)})
    correct = all(c["ok"] for c in checks)
    if attempted < 1:
        correct = False
        attempted = 1

    header = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": base["nproc"], "build_type": base["build_type"],
        "compiler": base["compiler"], "git_commit": git_commit(),
        "source_digest": source_digest(),
        "episodes": [r["episodes"] for r in runs],
        "commit_digest": base["digest"][:16],
    }
    print("perfbench " + json.dumps(header, sort_keys=True))
    for m in wanted:
        v = values.get(m["name"])
        shown = "%.6g" % v if isinstance(v, (int, float)) else "missing"
        print("  %-40s %14s %-10s (%s is better)"
              % (m["name"], shown, m["unit"], m["better"]))
    print("  %-40s %14d" % ("attempted", attempted))
    print("  %-40s %14d" % ("failed", failed))
    for c in checks:
        print("  check %-34s %s %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                       c.get("detail", "")))
    print("verdict: %s" % ("correct" if correct else "INCORRECT"))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    start = time.time()
    code = main()
    log("perfbench: %.1f s" % (time.time() - start))
    sys.exit(code)
