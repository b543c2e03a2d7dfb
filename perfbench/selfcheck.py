#!/usr/bin/env python3
"""Self-check of the repository benchmark. Run from the checkout root:

    python3 perfbench/selfcheck.py

Checks, at the smallest sizes (run.py --tiny):

  * BENCHMARK.json has its required shape (exact keys, name and unit
    syntax, bounds of at most 0.25, setup_s with the largest bound) and
    names the same metrics as perfbench/metrics.json;
  * every workload, untraced and traced, prints a last line with exactly
    correct/attempted/failed/metrics, is correct, and prints every
    end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json
    with its unit and a finite value (end-to-end values above zero);
  * each traced run wrote well-formed, closed spans: unique ids, every
    parent present and enclosing its child, and a Chrome trace;
  * two traced runs on one seed give identical deterministic counts;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DETERMINISTIC = ["lower.insts", "opt.insts", "codegen.c_bytes",
                 "interp.ops_per_iter", "interp.comm_loads_per_iter",
                 "interp.comm_stores_per_iter", "parallel.partitions"]

failures = []


def check(ok, msg):
    if not ok:
        failures.append(msg)
        print(f"selfcheck: FAIL: {msg}", flush=True)


def check_benchmark_json(bench, spec):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end {m}")
        check(0 < m["bound"] <= 0.25, f"{m['name']}: bound")
        names.append(m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer {m}")
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"{m['name']}: unit {m['unit']}")
        check(m["better"] in ("higher", "lower"), f"{m['name']}: better")
    for n in names:
        check(NAME.match(n) is not None, f"name {n}")
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s present, in s, lower, with the largest bound")
    check({w["name"] for w in bench["workloads"]} == set(spec["workloads"]),
          "workloads match metrics.json")
    check({m["name"] for m in bench["end_to_end"]} == set(spec["end_to_end"]),
          "end-to-end metrics match metrics.json")
    check({m["name"] for m in bench["per_layer"]} == set(spec["predictions"]),
          "every per-layer metric has a prediction in metrics.json")


def run(workload, trace, seed=1, cwd=ROOT):
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", "3", "--trace", str(trace), "--tiny"],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def check_result(bench, workload, trace, p):
    tag = f"{workload} trace={trace}"
    lines = p.stdout.strip().splitlines()
    check(p.returncode == 0 and lines, f"{tag}: exit {p.returncode}\n{p.stderr[-2000:]}")
    if not lines:
        return None
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(res["correct"] is True and res["failed"] == 0, f"{tag}: correct")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{tag}: attempted")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    check(set(res["metrics"]) == {m["name"] for m in expected}, f"{tag}: metric names")
    for m in expected:
        got = res["metrics"].get(m["name"], {})
        check(set(got) == {"value", "unit"} and got.get("unit") == m["unit"],
              f"{tag}: {m['name']} unit")
        v = got.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v) and (trace or v > 0),
              f"{tag}: {m['name']} value {v}")
    return res


def check_spans(workload, seed=1):
    tag = f"{workload}-seed{seed}-trace1"
    results = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench-results")
    spans = json.load(open(os.path.join(results, f"spans-{tag}.json")))
    chrome = json.load(open(os.path.join(results, f"trace-{tag}.json")))
    check(len(chrome["traceEvents"]) == len(spans) > 0, f"{tag}: chrome trace")
    by_id = {}
    for s in spans:
        check(s["id"] not in by_id, f"{tag}: duplicate span id {s['id']}")
        by_id[s["id"]] = s
    bad = 0
    for s in spans:
        closed = 0 < s["start_ns"] <= s["end_ns"]
        parent = by_id.get(s["parent"]) if s["parent"] else None
        nested = not s["parent"] or (parent is not None and
                                     parent["start_ns"] <= s["start_ns"] and
                                     s["end_ns"] <= parent["end_ns"])
        if not (closed and nested):
            bad += 1
            if bad <= 3:
                check(False, f"{tag}: span {s['name']} closed={closed} nested={nested}")
    sessions = {s["session"] for s in spans if s["session"]}
    check(len(sessions) > 1, f"{tag}: spans carry session ids")


def check_bare_directory(bench_path):
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench-selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(bench_path, bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "native",
                        "--seed", "1", "--seconds", "3", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0, "bare directory: exit status is not 0")
    check('"metrics"' not in p.stdout, "bare directory: no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    bench = json.load(open(bench_path))
    spec = json.load(open(os.path.join(HERE, "metrics.json")))
    check_benchmark_json(bench, spec)
    check_bare_directory(bench_path)
    traced = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            print(f"selfcheck: {w['name']} trace={trace}", flush=True)
            res = check_result(bench, w["name"], trace, run(w["name"], trace))
            if trace and res:
                traced[w["name"]] = res
                check_spans(w["name"])
    first = bench["workloads"][0]["name"]
    print(f"selfcheck: {first} trace=1 again (determinism)", flush=True)
    again = check_result(bench, first, 1, run(first, 1))
    if first in traced and again:
        for name in DETERMINISTIC:
            a = traced[first]["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            check(a == b, f"{name} differs between two runs on one seed: {a} vs {b}")
    print("selfcheck: " + ("OK" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
