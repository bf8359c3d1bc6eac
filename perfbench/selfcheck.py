#!/usr/bin/env python3
"""Quick self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

From the root of a checkout, checks that
  * BENCHMARK.json is well formed and perfbench/layers.json maps every
    per-layer metric to the end-to-end metrics it should move;
  * a short run of every workload, untraced and traced, is correct and
    emits exactly the metric names BENCHMARK.json lists, with their units;
  * on the simulator the span-recording schedulers leave the commit digest
    unchanged (the traced and untraced runs commit the same sequence);
  * another seed commits a different sequence (new keys and payloads) and
    emits the same metric set.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print("selfcheck FAILED: " + msg)
    sys.exit(1)


def check_spec(spec, layers):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail("BENCHMARK.json keys %s" % sorted(spec))
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            fail("workload entry %r" % w)
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or m["bound"] > 0.25:
            fail("end-to-end entry %r" % m)
        names.append(m["name"])
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per-layer entry %r" % m)
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail("metric %r" % m)
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        fail("names invalid or repeated: %s" % bad)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"]
                                            for m in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")
    mapped = {n for layer in layers.values() for n in layer["metrics"]}
    unmapped = [m["name"] for m in spec["per_layer"]
                if m["name"] not in mapped]
    if unmapped:
        fail("per-layer metrics missing from layers.json: %s" % unmapped)
    e2e = {m["name"] for m in spec["end_to_end"]}
    wl = {w["name"] for w in spec["workloads"]}
    for name, layer in layers.items():
        for edge in layer["moves"] + layer.get("no_change", []):
            if edge["metric"] not in e2e or edge["workload"] not in wl:
                fail("layers.json %s names %r" % (name, edge))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s --trace %d printed nothing (exit %d)"
             % (workload, trace, proc.returncode))
    return proc.returncode, lines, json.loads(lines[-1])


def header(lines):
    for line in lines:
        if line.startswith("perfbench "):
            return json.loads(line[len("perfbench "):])
    fail("no header line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    check_spec(spec, layers)
    print("ok  BENCHMARK.json and layers.json")

    for w in spec["workloads"]:
        for seed, trace, wanted, seconds in ((7, 0, spec["end_to_end"], 2),
                                             (8, 0, spec["end_to_end"], 2),
                                             (7, 1, spec["per_layer"], 4)):
            code, lines, result = run(w["name"], seed, seconds, trace)
            if code != 0 or not result["correct"]:
                fail("%s --trace %d not correct:\n%s"
                     % (w["name"], trace, "\n".join(lines)))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted}
            if units != expected:
                fail("%s --trace %d metric set differs: %s"
                     % (w["name"], trace,
                        sorted(set(units.items()) ^ set(expected.items()))))
            if trace == 1 and w["name"].startswith("sim-") and not any(
                    re.search(r"check traced_digest_equals_untraced\s+ok", l)
                    for l in lines):
                fail("%s: traced run did not reproduce the untraced digest"
                     % w["name"])
            digest = header(lines)["commit_digest"]
            if trace == 0 and seed == 7:
                first_digest = digest
            elif trace == 0 and digest == first_digest:
                fail("%s: seeds 7 and 8 committed the same sequence"
                     % w["name"])
            print("ok  %-20s seed %d --trace %d  %d metrics, correct"
                  % (w["name"], seed, trace, len(units)))
    print("selfcheck passed")


if __name__ == "__main__":
    main()
