#!/usr/bin/env python3
"""The repository benchmark: source -> native binary, the execution
engine, and source -> tokens served by laminard.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload native|interp|serve --seed N \\
        --seconds S --trace 0|1 [--tiny]

Builds the compiler, laminard and the benchmark host from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload for about S seconds and prints, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with --trace 1 they are the per-layer metrics, from a run
that also records spans and writes them as a Chrome trace. The line
before it is the full report: provenance, every metric's samples and
quartiles, and per-program rows. Both are also written under
$CARGO_TARGET_DIR/perfbench-results.

Every workload runs three legs (native, interp, serve), so every metric
is measured on every workload; the workload's own leg gets most of the
time and the full program set, the other two run as small probes.
perfbench/metrics.json says which leg and which programs each metric
comes from, and which end-to-end metric each layer metric should move.
"""

import argparse
import concurrent.futures
import fcntl
import hashlib
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(HERE, "metrics.json")))

REF_ITERS = 16  # iterations of every reference run and native check run
NS_PER_TOKEN = 500  # rough cost of one printed token in an emitted binary
HOST_TIMEOUT = 60  # seconds a host may take for one slice or its document


def programs_of(cfg, key="programs"):
    return SPEC["suite"] if cfg[key] == "suite" else cfg[key]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# ---------------------------------------------------------------- spans

class Spans:
    """Spans recorded around calls into the program's layers, kept in
    memory and written out (Chrome trace JSON) when the run ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.items = []
        self.next_session = 1 << 40  # above any host-assigned session

    def session(self):
        self.next_session += 1
        return self.next_session

    def begin(self, name, parent=0, session=0, lane=0):
        if not self.enabled:
            return 0
        self.items.append({"id": len(self.items) + 1, "parent": parent,
                           "session": session, "name": name,
                           "start_ns": time.monotonic_ns(), "end_ns": 0,
                           "lane": lane})
        return len(self.items)

    def end(self, sid):
        if sid:
            self.items[sid - 1]["end_ns"] = time.monotonic_ns()

    def record(self, name, parent, session, lane, start_ns, end_ns):
        """Adds a span timed elsewhere (a cc run on a pool thread)."""
        sid = self.begin(name, parent, session, lane)
        if sid:
            self.items[sid - 1].update(start_ns=start_ns, end_ns=end_ns)

    def merge_file(self, path, parent, lane):
        """Adds a host span file, re-numbering its ids after ours."""
        if not self.enabled or not os.path.exists(path):
            return
        base = len(self.items)
        for s in json.load(open(path)):
            s = dict(s)
            s["id"] += base
            s["parent"] = s["parent"] + base if s["parent"] else parent
            s["lane"] = lane * 100 + s["lane"]
            self.items.append(s)

    def chrome(self):
        t0 = min((s["start_ns"] for s in self.items), default=0)
        events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": s["lane"],
                   "ts": (s["start_ns"] - t0) / 1e3,
                   "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                   "args": {"id": s["id"], "parent": s["parent"],
                            "session": s["session"]}}
                  for s in self.items]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------------------ processes

def run_child(argv, cwd=None, env=None, timeout=170):
    """Runs argv to completion with stdout captured. Returns (stdout,
    wall seconds, exit status)."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                           stdin=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure(f"{argv[0]} ran longer than {timeout} s")
    return p.stdout, time.perf_counter() - t0, p.returncode


def run_piped(argv):
    """Runs an emitted binary with its stdout piped into this process
    through a 1 MiB pipe, so the binary is not woken once per 64 KiB.
    Returns (stdout, wall seconds, CPU seconds (user + system) of the
    binary, exit status)."""
    r, w = os.pipe()
    try:
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
    except OSError:
        pass  # keep the default size where the limit is lower
    t0 = time.perf_counter()
    with os.fdopen(r, "rb") as out:
        try:
            p = subprocess.Popen(argv, stdout=w, stdin=subprocess.DEVNULL)
        finally:
            os.close(w)
        try:
            data = out.read()
        except BaseException:
            p.kill()
            p.wait()
            raise
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return (data, time.perf_counter() - t0, usage.ru_utime + usage.ru_stime,
            p.returncode)


def run_cc(work, prog, mode, suffix, env):
    """cc -O2 on one emitted C file. Returns (start ns, end ns, CPU
    seconds of cc and every process it ran (cc1, as, ld), exit status)."""
    src = os.path.join(work, f"{prog}.{mode}.c")
    start = time.monotonic_ns()
    p = subprocess.Popen(["cc", "-O2", "-o", os.path.join(work, f"{prog}.{mode}{suffix}"),
                          src, "-lm"], env=env, stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return (start, time.monotonic_ns(), usage.ru_utime + usage.ru_stime,
            p.returncode)


def parse_doc(out, rc, what):
    """A perfbench_host JSON document (its last line of stdout). Exit
    status 1 means a checked output was wrong, which the document lists;
    anything else non-zero is a crash."""
    lines = out.decode().strip().splitlines()
    if rc not in (0, 1) or not lines:
        raise Failure(f"{what}: exit status {rc}, {len(lines)} output line(s)")
    doc = json.loads(lines[-1])
    doc["_rc"] = rc
    return doc


def host_json(argv, what, cwd=None):
    """Runs a perfbench_host subcommand to completion; returns its JSON
    document."""
    out, _, rc = run_child(argv, cwd=cwd)
    return parse_doc(out, rc, what)


class GatedHost:
    """A perfbench_host subcommand whose timed window run.py paces one
    slice at a time (Gate in host/Host.h). Creating it waits until the
    host's set-up is done."""

    def __init__(self, run, argv, what, cwd=None):
        self.what = what
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        run.procs.append(self.proc)
        if self.read_reply() != ["ready"]:
            raise Failure(f"{what}: set-up failed")

    def read_reply(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], HOST_TIMEOUT)
        return self.proc.stdout.readline().decode().split() if ready else []

    def slice(self, kind="go"):
        """Runs one slice; returns the words of the host's reply ("done",
        "failed", nothing when the host died)."""
        try:
            self.proc.stdin.write(kind.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return []
        return self.read_reply()

    def finish(self):
        """Ends the window; returns the host's JSON document."""
        try:
            out, _ = self.proc.communicate(b"stop\n", timeout=HOST_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise Failure(f"{self.what}: did not finish within {HOST_TIMEOUT} s")
        return parse_doc(out, self.proc.returncode, self.what)


def text_bytes(path):
    """Size of the .text section of a 64-bit little-endian ELF file."""
    with open(path, "rb") as f:
        data = f.read()
    shoff = struct.unpack_from("<Q", data, 0x28)[0]
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", data, 0x3A)

    def section(i):
        return struct.unpack_from("<IIQQQQ", data, shoff + i * shentsize)

    names = section(shstrndx)[4]
    for i in range(shnum):
        name, _, _, _, _, size = section(i)
        end = data.index(b"\0", names + name)
        if data[names + name:end] == b".text":
            return size
    return 0


def quartiles(values):
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def geomean(values):
    if min(values) <= 0:
        raise Failure("a timing fell below the one-iteration baseline; "
                      "the machine is too noisy for this run length")
    return math.exp(sum(math.log(x) for x in values) / len(values))


def round_geomeans(sample_lists):
    """Geomean across programs of each repetition's samples: the
    per-repetition values a geomean-of-medians metric summarizes.
    Repetitions with a non-positive sample are left out."""
    rounds = zip(*sample_lists)
    return [geomean(r) for r in rounds if min(r) > 0]


# -------------------------------------------------------------- context

class Run:
    def __init__(self, args, build_dir):
        self.args = args
        self.build = build_dir
        self.host = os.path.join(build_dir, "perfbench_host")
        self.laminard = os.path.join(build_dir, "repo", "tools", "laminard")
        self.spans = Spans(args.trace == 1)
        self.work = os.path.join(os.path.dirname(build_dir),
                                 "perfbench-work", f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup_samples = {}
        self.rss = {}       # leg -> peak RSS samples of its system under test
        self.e2e = {}       # metric -> (value, samples)
        self.layer = {}     # metric -> value
        self.rows = {}      # leg -> per-program rows
        self.overheads = {} # leg -> tracing overhead, percent
        self.procs = []     # every process started, stopped at the end

    def stop_all(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()

    def note(self, msg):
        if len(self.failures) < 20:
            self.failures.append(msg)
        log(f"FAILURE: {msg}")

    def fail(self, msg):
        self.failed += 1
        self.note(msg)

    def absorb(self, leg, doc):
        """Adds a host document's attempted and failed ops (the host
        lists at most 20 failure messages)."""
        self.attempted += int(doc["attempted"])
        failed = max(int(doc["failed"]), 1 if doc["_rc"] else 0)
        if failed:
            self.failed += failed
            for msg in doc["failures"] or [f"host exited {doc['_rc']}"]:
                self.note(f"{leg}: {msg}")
        return failed == 0


# ------------------------------------------------------------- native leg

class NativeLeg:
    """Source -> C (driver::compile + codegen::emitC in the host), the
    system cc, and the emitted binaries. Timed slices: a compile pass in
    one of several host processes (so the median pass averages over
    process layouts), a cc batch of one C file per CPU, or one program's
    binaries run once in each mode."""

    def __init__(self, run, cfg, budget):
        self.run, self.cfg = run, cfg
        self.programs = programs_of(cfg)        # compiled to C
        self.built = programs_of(cfg, "build")  # built with cc and run
        self.work = os.path.join(run.work, "native")
        os.makedirs(self.work, exist_ok=True)
        self.span = run.spans.begin("leg native", lane=1)
        self.hosts = []
        self.passes = 0
        self.runs = 0

    def setup(self):
        run, cfg, work = self.run, self.cfg, self.work
        seed = str(run.args.seed)
        # The reference runs, repeated so set-up time is a median.
        setup = []
        for _ in range(cfg["setup_reps"]):
            sp = run.spans.begin("reference", self.span, lane=1)
            t0 = time.perf_counter()
            ref = host_json([run.host, "reference", "--programs", ",".join(self.built),
                             "--seed", seed, "--iters", str(REF_ITERS),
                             "--dir", work], "reference")
            setup.append(time.perf_counter() - t0)
            run.spans.end(sp)
            if not ref["ok"]:
                raise Failure(f"reference runs failed: {ref['programs']}")
        run.setup_samples["native"] = setup

        for i in range(cfg["processes"]):
            spans_path = os.path.join(run.work, f"spans-native-{i}.json")
            sp = run.spans.begin("native-compile host", self.span, lane=1)
            self.hosts.append((GatedHost(
                run, [run.host, "native-compile", "--programs", ",".join(self.programs),
                      "--seed", seed, "--dir", work]
                + (["--trace-spans", spans_path] if run.spans.enabled else []),
                "native-compile"), sp, spans_path))
        self.compile_pass()  # the first pass writes the C files

        # cc -O2 each C file, one cc per CPU at a time, then check each
        # binary's output against the reference. The timed window builds
        # every file again (cc_rounds), so each one's cc time is a median.
        self.jobs = [(prog, mode) for prog in self.built for mode in ("fifo", "laminar")
                     if os.path.exists(os.path.join(work, f"{prog}.{mode}.c"))]
        self.cc_samples = {job: [] for job in self.jobs}
        self.cc_next = 0
        self.pool = concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1)
        t0 = time.perf_counter()
        built = self.cc(self.jobs, "")
        self.cc_wall = time.perf_counter() - t0
        self.rows = rows = {}
        for prog, mode in built:
            exe = os.path.join(work, f"{prog}.{mode}")
            ref = open(os.path.join(work, prog + ".ref"), "rb").read()
            out, _, _, rc = run_piped([exe, str(REF_ITERS)])
            run.attempted += 1
            if rc != 0 or out != ref:
                run.fail(f"{prog}.{mode}: {REF_ITERS}-iteration output differs "
                         f"from the reference (exit {rc})")
                continue
            rows[(prog, mode)] = {"exe": exe, "tn": [], "t1": [], "wall": [],
                                  "text": text_bytes(exe)}

        # Size each program's run to about target_ms from the number of
        # tokens it prints per iteration (printing dominates), rounded to
        # a power of two: every run and seed times the same iteration
        # count, and both modes run it, so their outputs must be identical.
        self.iters = {}
        for prog in self.built:
            if (prog, "fifo") not in rows or (prog, "laminar") not in rows:
                continue
            lines = open(os.path.join(work, prog + ".ref"), "rb").read().count(b"\n")
            want = cfg["target_ms"] * 1e6 / (max(lines, 1) / REF_ITERS * NS_PER_TOKEN)
            self.iters[prog] = max(REF_ITERS + 1, 2 ** round(math.log2(max(want, 1))))
        if not self.iters:
            raise Failure("no native binary built and matched the reference")
        self.order = list(self.iters)
        self.out_bytes = {}

    def streams(self):
        cfg = self.cfg
        traced = 2 if self.run.spans.enabled else 1
        width = os.cpu_count() or 1
        return [Stream("native.compile", cfg["compile_share"], self.compile_pass,
                       traced * len(self.hosts)),
                Stream("native.cc", cfg["cc_share"], self.cc_slice,
                       math.ceil(cfg["cc_rounds"] * len(self.jobs) / width)),
                Stream("native.run", 1 - cfg["compile_share"] - cfg["cc_share"],
                       self.run_program, cfg["min_reps"] * len(self.order))]

    def cc(self, jobs, suffix):
        """cc -O2 on the C files of jobs, one cc per CPU at a time, each
        to its binary's path plus suffix. Records each job's CPU time;
        returns the jobs that built."""
        cc_env = dict(os.environ, TMPDIR=self.work)  # cc's temporary files stay here
        builds = list(self.pool.map(
            lambda job: run_cc(self.work, *job, suffix, cc_env), jobs))
        ok = []
        for (prog, mode), (start, end, cpu, rc) in zip(jobs, builds):
            self.run.spans.record(f"cc {prog}.{mode}", self.span,
                                  self.run.spans.session(), 2, start, end)
            self.run.attempted += 1
            if rc != 0:
                self.run.fail(f"cc {prog}.{mode} exited {rc}")
                continue
            self.cc_samples[(prog, mode)].append(cpu)
            ok.append((prog, mode))
        return ok

    def cc_slice(self):
        """Builds the next few C files again, one per CPU, to a scratch
        binary: the binaries being timed stay the ones checked."""
        width = os.cpu_count() or 1
        jobs = [self.jobs[(self.cc_next + k) % len(self.jobs)]
                for k in range(min(width, len(self.jobs)))]
        self.cc_next += len(jobs)
        if len(self.cc(jobs, ".again")) != len(jobs):
            raise Failure("cc failed")

    def compile_pass(self):
        host = self.hosts[self.passes % len(self.hosts)][0]
        self.passes += 1
        if host.slice() != ["done"]:
            for msg in host.finish()["failures"]:
                self.run.fail(f"compile: {msg}")
            raise Failure("native-compile failed")

    def run_program(self):
        """Runs one program's binaries, fifo then laminar, for one and for
        N iterations each."""
        run = self.run
        prog = self.order[self.runs % len(self.order)]
        self.runs += 1
        n = self.iters[prog]
        digests = {}
        ref = open(os.path.join(self.work, prog + ".ref"), "rb").read()
        for mode in ("fifo", "laminar"):
            row = self.rows[(prog, mode)]
            sess = run.spans.session()
            s = run.spans.begin(f"run {prog}.{mode}", self.span, sess, lane=3)
            _, w1, c1, rc1 = run_piped([row["exe"], "1"])
            out, wn, cn, rc = run_piped([row["exe"], str(n)])
            run.spans.end(s)
            run.attempted += 1
            if rc != 0 or rc1 != 0 or not out.startswith(ref):
                run.fail(f"{prog}.{mode} x{n}: output does not start with "
                         f"the reference (exit {rc})")
                continue
            row["tn"].append(cn)
            row["t1"].append(c1)
            row["wall"].append((wn - w1) / (n - 1) * 1e9)
            digests[mode] = hashlib.sha1(out).hexdigest()
            self.out_bytes[prog] = len(out) / n
        if len(digests) == 2 and digests["fifo"] != digests["laminar"]:
            run.fail(f"{prog}: fifo and laminar outputs differ at {n} iterations")

    def finish(self):
        run, rows, iters, built = self.run, self.rows, self.iters, self.built
        comps = []
        self.pool.shutdown()
        cc_total = sum(statistics.median(v) for v in self.cc_samples.values() if v)
        for host, sp, spans_path in self.hosts:
            comps.append(host.finish())
            run.spans.end(sp)
            run.spans.merge_file(spans_path, sp, lane=1)
        run.spans.end(self.span)
        comp = comps[0]
        for key in ("pass_ms", "pass_ms_traced", "codegen_ms", "wall_pass_ms"):
            comp[key] = [x for c in comps for x in c[key]]
        for c in comps:
            for msg in c["failures"]:
                run.fail(f"compile: {msg}")
        run.attempted += 2 * len(self.programs)
        run.rss["native"] = [c["peak_rss_mb"] for c in comps]

        ok = [p for p in iters if rows[(p, "fifo")]["tn"] and rows[(p, "laminar")]["tn"]]
        if not ok:
            raise Failure("no native binary produced a timing")
        # Steady-state ns/iteration from the binary's own CPU time: the
        # median one-iteration run (process start, init) is taken off
        # every N-iteration sample. CPU time leaves out time blocked on
        # the pipe and time the machine ran something else, which wall
        # time on a shared host does not (wall-time medians are in the
        # rows).
        for (prog, _), row in rows.items():
            if row["tn"]:
                base = statistics.median(row["t1"])
                row["ns"] = [(t - base) / (iters[prog] - 1) * 1e9 for t in row["tn"]]
        med = {k: statistics.median(v["ns"]) for k, v in rows.items() if v["tn"]}
        run.e2e["compile_ms"] = (statistics.median(comp["pass_ms"]), comp["pass_ms"])
        compile_s = sum(r["compile_ms"] for r in comp["programs"] if r["name"] in built) / 1e3
        run.e2e["build_s"] = (compile_s + cc_total, 2 * len(built))
        for mode in ("laminar", "fifo"):
            per_rep = round_geomeans([rows[(p, mode)]["ns"] for p in ok])
            run.e2e[f"native_{mode}_ns_per_iter"] = (
                geomean([med[(p, mode)] for p in ok]), per_rep)

        phases = comp["phases_ms"]
        for name in ("frontend", "graph", "schedule", "verify", "lower", "opt"):
            run.layer[f"{name}.ms"] = phases.get(name, 0.0)
        for p in SPEC["opt_passes"]:
            run.layer[f"opt.{p}.ms"] = phases.get(f"opt.{p}", 0.0)
        run.layer["lower.insts"] = sum(r["lower_insts"] for r in comp["programs"])
        run.layer["opt.insts"] = sum(r["opt_insts"] for r in comp["programs"])
        run.layer["codegen.ms"] = statistics.median(comp["codegen_ms"])
        run.layer["codegen.c_bytes"] = sum(r["c_bytes"] for r in comp["programs"])
        run.layer["cc.s"] = cc_total
        run.rows["native_build"] = {"cc_cpu_s": cc_total, "cc_wall_s": self.cc_wall,
                                    "compile_pass_wall_ms": statistics.median(comp["wall_pass_ms"])}
        run.layer["native.text_bytes"] = sum(v["text"] for v in rows.values())
        run.layer["native.output_bytes_per_iter"] = sum(self.out_bytes.values())
        run.layer["native.laminar_vs_fifo"] = geomean(
            [med[(p, "fifo")] / med[(p, "laminar")] for p in ok])
        run.rows["native"] = [
            {"program": p, "iters": iters[p], "samples": len(rows[(p, "laminar")]["ns"]),
             "fifo_ns_per_iter": med[(p, "fifo")],
             "laminar_ns_per_iter": med[(p, "laminar")],
             "fifo_wall_ns_per_iter": statistics.median(rows[(p, "fifo")]["wall"]),
             "laminar_wall_ns_per_iter": statistics.median(rows[(p, "laminar")]["wall"]),
             "laminar_vs_fifo": med[(p, "fifo")] / med[(p, "laminar")],
             "base": "fifo_ns_per_iter / laminar_ns_per_iter",
             "output_bytes_per_iter": self.out_bytes.get(p),
             "text_bytes_fifo": rows[(p, "fifo")]["text"],
             "text_bytes_laminar": rows[(p, "laminar")]["text"]} for p in ok]
        if run.spans.enabled and comp["pass_ms_traced"]:
            run.overheads["native"] = (statistics.median(comp["pass_ms_traced"]) /
                                       statistics.median(comp["pass_ms"]) - 1) * 100


# ------------------------------------------------------------- interp leg

class InterpLeg:
    """driver::runWithRandomInput, sequential and at Parallel = nproc, in
    several host processes (each sets up once), so medians average over
    process layouts. A timed slice is one round over the programs in one
    of the processes."""

    def __init__(self, run, cfg, budget):
        self.run, self.cfg = run, cfg
        self.hosts = []
        self.rounds = 0

    def setup(self):
        run, cfg = self.run, self.cfg
        for i in range(cfg["processes"]):
            spans_path = os.path.join(run.work, f"spans-interp-{i}.json")
            sp = run.spans.begin("interp host", lane=4)
            self.hosts.append((GatedHost(
                run, [run.host, "interp", "--programs", ",".join(programs_of(cfg)),
                      "--seed", str(run.args.seed),
                      "--parallel", str(os.cpu_count() or 1),
                      "--ref-iters", str(REF_ITERS),
                      "--target-ms", str(cfg["target_ms"])]
                + (["--trace-spans", spans_path] if run.spans.enabled else []),
                "interp"), sp, spans_path))

    def streams(self):
        # Three untraced rounds per process; traced runs alternate traced
        # and untraced rounds.
        traced = 2 if self.run.spans.enabled else 1
        return [Stream("interp", 1, self.round, 3 * traced * len(self.hosts))]

    def round(self):
        host = self.hosts[self.rounds % len(self.hosts)][0]
        self.rounds += 1
        if host.slice() != ["done"]:
            self.run.absorb("interp", host.finish())
            raise Failure("interp leg failed")

    def finish(self):
        run = self.run
        docs = []
        for host, sp, spans_path in self.hosts:
            doc = host.finish()
            run.spans.end(sp)
            run.spans.merge_file(spans_path, sp, lane=4)
            if not run.absorb("interp", doc) or not doc["programs"]:
                raise Failure("interp leg failed")
            docs.append(doc)
        run.setup_samples["interp"] = [d["setup_ms"] / 1e3 for d in docs]
        run.rss["interp"] = [d["peak_rss_mb"] for d in docs]
        progs = docs[0]["programs"]
        for i, p in enumerate(progs):
            for key in ("seq", "par"):
                p[f"{key}_samples"] = [x for d in docs for x in d["programs"][i][f"{key}_samples"]]
                p[f"{key}_ns_per_iter"] = statistics.median(p[f"{key}_samples"])
            p["seq_wall_ns_per_iter"] = statistics.median(
                d["programs"][i]["seq_wall_ns_per_iter"] for d in docs)
            for key in ("spin_waits_per_iter", "edge_stalls_per_iter"):
                p[key] = statistics.mean(d["programs"][i][key] for d in docs)
        run.e2e["interp_ns_per_iter"] = (
            geomean([p["seq_ns_per_iter"] for p in progs]),
            round_geomeans([p["seq_samples"] for p in progs]))
        run.layer["parallel_ns_per_iter"] = geomean([p["par_ns_per_iter"] for p in progs])

        run.layer["interp.ops_per_iter"] = sum(p["ops_per_iter"] for p in progs)
        run.layer["interp.comm_loads_per_iter"] = sum(p["comm_loads_per_iter"] for p in progs)
        run.layer["interp.comm_stores_per_iter"] = sum(p["comm_stores_per_iter"] for p in progs)
        run.layer["interp.ns_per_op"] = geomean(
            [p["seq_ns_per_iter"] / p["ops_per_iter"] for p in progs])
        run.layer["parallel.partitions"] = sum(p["partitions"] for p in progs)
        run.layer["parallel.fallbacks"] = sum(1 for p in progs if p["fallback"])
        speedups = {p["name"]: p["seq_wall_ns_per_iter"] / p["par_ns_per_iter"] for p in progs}
        run.layer["parallel.speedup"] = geomean(list(speedups.values()))
        errs = [abs(p["predicted_speedup"] / speedups[p["name"]] - 1) * 100
                for p in progs if not p["fallback"]]
        run.layer["parallel.prediction_error_pct"] = statistics.mean(errs) if errs else 0.0
        run.layer["parallel.spin_waits_per_iter"] = sum(p["spin_waits_per_iter"] for p in progs)
        run.layer["parallel.edge_stalls_per_iter"] = sum(p["edge_stalls_per_iter"] for p in progs)
        run.rows["interp"] = [
            {"program": p["name"], "iters": p["iters"], "samples": len(p["seq_samples"]),
             "seq_ns_per_iter": p["seq_ns_per_iter"],
             "seq_wall_ns_per_iter": p["seq_wall_ns_per_iter"],
             "par_ns_per_iter": p["par_ns_per_iter"],
             "speedup": speedups[p["name"]],
             "base": "seq_wall_ns_per_iter / par_ns_per_iter (both wall time)",
             "predicted_speedup": p["predicted_speedup"],
             "partitions": p["partitions"], "fallback": p["fallback"]} for p in progs]
        if run.spans.enabled:
            traced = [x for d in docs for x in d["round_ms_traced"]]
            untraced = [x for d in docs for x in d["round_ms"]]
            run.overheads["interp"] = (statistics.median(traced) /
                                       statistics.median(untraced) - 1) * 100


# -------------------------------------------------------------- serve leg

def connect(path, timeout):
    end = time.monotonic() + timeout
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if time.monotonic() > end:
                raise Failure("laminard did not come up")
            time.sleep(0.002)


def rpc(sock, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
    return json.loads(buf) if buf else {}


def stop_daemon(proc, sock_path):
    try:
        with connect(sock_path, 1) as s:
            rpc(s, {"op": "shutdown"})
    except (OSError, Failure, ValueError):
        pass
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def ladder_rates(ladder):
    """The fixed ladder of rate multipliers the serve leg searches: a
    geometric grid from low to high (metrics.json, serve.ladder)."""
    n = int(math.log(ladder["high"] / ladder["low"]) / math.log(ladder["ratio"])) + 1
    return [round(ladder["low"] * ladder["ratio"] ** k, 4) for k in range(n)]


class ServeLeg:
    """laminard as a separate process, driven open-loop by the host.
    Timed slices: a sub-step at the reference rates, or the next probe of
    the bisection over the ladder for the highest rate laminard
    sustains."""

    def __init__(self, run, cfg, budget):
        self.run, self.cfg = run, cfg
        self.work = os.path.join(run.work, "serve")
        os.makedirs(self.work, exist_ok=True)
        self.sock_path = os.path.join(self.work, "laminard.sock")
        serve = SPEC["serve"]
        self.ladder = ladder_rates(serve["ladder"]) if cfg["ladder"] == "grid" else cfg["ladder"]
        # Bisection probes, plus a retry for about half of them (a failed
        # rate is tried twice); an overloaded probe keeps going until
        # p99_limit_ms after its end.
        slots = 1.5 * math.ceil(math.log2(len(self.ladder) + 1))
        ladder_s = budget * (1 - cfg["reference_share"])
        self.probe_s = max(0.2, ladder_s / slots - serve["p99_limit_ms"] / 1e3) if slots else 0
        self.span = run.spans.begin("leg serve", lane=5)
        self.daemon = self.host = None

    def setup(self):
        run, cfg, serve = self.run, self.cfg, SPEC["serve"]
        stream, churn = serve["stream"], serve["churn"]
        sock = os.path.basename(self.sock_path)  # relative: AF_UNIX paths are short
        base = [run.host, "serve", "--socket", sock, "--seed", str(run.args.seed),
                "--stream-programs", ",".join(s["program"] for s in stream),
                "--stream-iters", ",".join(str(s["iters"]) for s in stream),
                "--stream-rates", ",".join(str(s["rate"]) for s in stream),
                "--instances-per-plan", str(serve["instances_per_plan"]),
                "--epoch-batches", str(serve["epoch_batches"]),
                "--churn-programs", ",".join(programs_of(churn)),
                "--churn-iters", str(churn["iters"]),
                "--churn-variants", str(churn["variants"]),
                "--churn-rate", str(churn["rate"]),
                "--zipf", str(churn["zipf"]),
                "--p99-limit-ms", str(serve["p99_limit_ms"]),
                "--growth-limit", str(serve["growth_limit"]),
                "--step-seconds", str(cfg["step_seconds"]),
                "--ladder", ",".join(str(m) for m in self.ladder),
                "--probe-seconds", f"{self.probe_s:.3f}",
                "--lanes", str(os.cpu_count() or 1)]
        # Set-up is repeated so its time is a median; the last daemon and
        # host stay up for the timed window.
        self.setup_samples = []
        for rep in range(cfg["setup_reps"]):
            last = rep == cfg["setup_reps"] - 1
            if os.path.exists(self.sock_path):
                os.unlink(self.sock_path)
            sp = run.spans.begin("laminard start", self.span, lane=5)
            t0 = time.perf_counter()
            proc = subprocess.Popen([run.laminard, "--socket", sock], cwd=self.work,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            run.procs.append(proc)
            try:
                connect(self.sock_path, 10).close()
                started = time.perf_counter() - t0
                run.spans.end(sp)
                argv = base + ["--daemon-pid", str(proc.pid), "--setup-only", "0" if last else "1"]
                if last:
                    self.spans_path = os.path.join(run.work, "spans-serve.json")
                    self.host_span = run.spans.begin("serve", self.span, lane=5)
                    self.daemon = proc
                    self.started = started
                    self.host = GatedHost(
                        run, argv + (["--trace-spans", self.spans_path]
                                     if run.spans.enabled else []), "serve", cwd=self.work)
                    return
                sp = run.spans.begin("serve set-up", self.span, lane=5)
                doc = host_json(argv, "serve", cwd=self.work)
                run.spans.end(sp)
            finally:
                if not last:
                    stop_daemon(proc, self.sock_path)
            if "setup_ms" not in doc:
                raise Failure(f"serve host exited {doc['_rc']} during set-up")
            self.setup_samples.append(started + doc["setup_ms"] / 1e3)

    def streams(self):
        share = self.cfg["reference_share"]
        out = [Stream("serve.reference", share, lambda: self.host.slice("ref"),
                      self.cfg["min_ref_steps"])]
        if self.ladder:
            out.append(Stream("serve.ladder", 1 - share, self.probe, 0, to_end=True))
        return out

    def probe(self):
        """The next ladder probe; False once the search has ended."""
        reply = self.host.slice("probe")
        if reply[:1] != ["done"]:
            raise Failure(f"serve host replied {reply} to a ladder probe")
        return reply != ["done", "last"]

    def finish(self):
        run, serve = self.run, SPEC["serve"]
        try:
            with open(f"/proc/{self.daemon.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        run.rss["serve"] = [int(line.split()[1]) / 1024.0]
            doc = self.host.finish()
        finally:
            stop_daemon(self.daemon, self.sock_path)
        run.spans.end(self.host_span)
        run.spans.merge_file(self.spans_path, self.host_span, lane=5)
        run.spans.end(self.span)
        if "setup_ms" not in doc:
            raise Failure(f"serve host exited {doc['_rc']} during set-up")
        self.setup_samples.append(self.started + doc["setup_ms"] / 1e3)
        run.setup_samples["serve"] = self.setup_samples
        if not run.absorb("serve", doc):
            raise Failure("serve leg failed")

        lat = doc["batch_latency_ms"]
        first = doc["first_output_ms"]
        for i, pct in enumerate(("p50", "p90", "p99")):
            run.layer[f"batch_{pct}_ms"] = lat[i]
            run.layer[f"first_output_{pct}_ms"] = first[i]
        # The highest sustained ladder step; none (not even the reference
        # rate) leaves the metric unmeasured, which fails the run.
        sustained = int(doc["sustained_step"])
        ref = doc["steps"][0]
        if sustained >= 0:
            row = doc["steps"][sustained]
            run.e2e["sustained_tokens_per_s"] = (row["tokens_per_s"], int(row["batches"]))
            run.layer["server.backlog_max"] = row["backlog_max"]
        else:
            run.note(f"serve: not even the reference rate met the {serve['p99_limit_ms']} ms "
                     f"p99 limit without a growing backlog: {ref}")
        run.e2e["serve_cpu_us_per_token"] = (ref["cpu_us_per_token"], int(ref["batches"]))
        run.layer["server.compile_miss_ms"] = doc["compile_miss_ms"]
        run.layer["server.compile_hit_ms"] = doc["compile_hit_ms"]
        run.layer["server.spawn_ms"] = doc["spawn_ms"]
        run.layer["server.cache.hit_ratio"] = doc["cache_hit_ratio"]
        run.layer["server.cache.evictions"] = doc["cache_evictions"]
        run.layer["server.push_ms"] = doc["push_ms"]
        run.layer["server.pull_wait_ms"] = doc["pull_wait_ms"]
        layers = doc["layers"]
        run.layer["server.execute_ms"] = layers.get("execute_ms", 0.0)
        run.layer["server.wire_ms"] = layers.get("wire_ms", 0.0)
        run.layer["server.unattributed_ms"] = layers.get("unattributed_ms", 0.0)
        run.layer["serve.generator_late_ms"] = doc["generator_late_p99_ms"]
        run.rows["serve"] = {"steps": doc["steps"], "sustained_step": sustained,
                             "ladder": self.ladder, "p99_limit_ms": serve["p99_limit_ms"],
                             "growth_limit": serve["growth_limit"]}
        if run.spans.enabled and "traced_batch_p50_ms" in layers:
            run.overheads["serve"] = (layers["traced_batch_p50_ms"] / lat[0] - 1) * 100


LEGS = {"native": NativeLeg, "interp": InterpLeg, "serve": ServeLeg}


# ---------------------------------------------------------- timed window

class Stream:
    """One kind of timed slice of a leg, with its share of the window."""

    def __init__(self, name, share, step, minimum, to_end=False):
        self.name, self.share, self.step = name, share, step
        self.minimum = minimum  # slices to run even past the deadline
        self.to_end = to_end    # runs until step() returns False
        self.used = 0.0
        self.count = 0
        self.open = True


def timed_window(streams, deadline):
    """Interleaves the slices of every leg until the deadline: each time,
    the stream that has used the least of its share runs one slice. Every
    metric then samples the whole window, not one block of it; on a
    shared machine the speed drifts from second to second. A stream whose
    minimum needs more than its share is kept on pace with the window
    instead of catching up at the end. Past the deadline only streams
    short of their minimum, or with a search to finish, go on."""
    start = time.monotonic()
    while True:
        now = time.monotonic()
        late = now >= deadline
        live = [s for s in streams if s.open and s.share > 0
                and (not late or s.count < s.minimum or s.to_end)]
        if not live:
            return
        frac = min(1.0, (now - start) / max(deadline - start, 1e-9))
        behind = [s for s in live if s.count < s.minimum * frac]
        s = min(behind or live, key=lambda s: s.used / s.share)
        t0 = time.monotonic()
        s.open = s.step() is not False
        s.used += time.monotonic() - t0
        s.count += 1


# ------------------------------------------------------------ provenance

def provenance(run):
    def first_line(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  cwd=ROOT, timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(run.build, "CMakeCache.txt")) as f:
            build_type = next(l.split("=", 1)[1].strip() for l in f
                              if l.startswith("CMAKE_BUILD_TYPE:"))
    except (OSError, StopIteration):
        pass
    commit, dirty = "unknown (not a git checkout)", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "rev-parse", "HEAD"])
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "cc_version": first_line(["cc", "--version"]),
            "cmake_build_type": build_type, "commit": commit, "dirty": dirty,
            "workload": run.args.workload, "seed": run.args.seed,
            "seconds": run.args.seconds, "trace": run.args.trace,
            "tiny": run.args.tiny}


# ------------------------------------------------------------------ main

def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_host",
                    "laminard", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes (the self-check)")
    args = ap.parse_args()

    # The benchmark builds the repository from source; without it there
    # is nothing to measure.
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"no {need} in {ROOT}: run from the root of a checkout")
            return 2
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    run = Run(args, build_dir)
    plan = SPEC["workloads"][args.workload]
    ok = True
    streams = []
    try:
        # Every leg sets up, one after the other; then the timed window
        # interleaves their slices until --seconds after the start (and
        # for at least half of it), and each leg turns its samples into
        # metrics.
        start = time.monotonic()
        legs = []
        for name in ("native", "interp", "serve"):
            role = "tiny" if args.tiny else ("full" if name == args.workload else "probe")
            log(f"{name} leg ({role}, share {plan['share'][name]})")
            leg = LEGS[name](run, SPEC["legs"][name][role],
                             args.seconds * plan["share"][name])
            leg.setup()
            legs.append(leg)
            streams += [(s, name) for s in leg.streams()]
        for s, name in streams:
            s.share *= plan["share"][name]
        deadline = max(start + args.seconds, time.monotonic() + args.seconds / 2)
        log(f"timed window ({deadline - time.monotonic():.1f} s)")
        timed_window([s for s, _ in streams], deadline)
        for leg in legs:
            leg.finish()
    except Failure as e:
        # Count the failure unless the failed ops were counted already.
        (run.note if run.failed else run.fail)(str(e))
        ok = False
    finally:
        run.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)
    run.rows["window"] = {s.name: {"slices": s.count, "seconds": s.used}
                          for s, _ in streams}

    results = os.path.join(ROOT, target, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.spans.enabled:
        with open(os.path.join(results, f"trace-{tag}.json"), "w") as f:
            json.dump(run.spans.chrome(), f)
        with open(os.path.join(results, f"spans-{tag}.json"), "w") as f:
            json.dump(run.spans.items, f)

    metrics, stats = {}, {}
    if ok:
        run.e2e["setup_s"] = (sum(statistics.median(v) for v in run.setup_samples.values()),
                              [sum(v[i] for v in run.setup_samples.values())
                               for i in range(min(len(v) for v in run.setup_samples.values()))])
        rss = run.rss[args.workload]
        run.e2e["peak_rss_mb"] = (max(rss), rss)
        focus = run.overheads.get(args.workload)
        run.layer["trace.overhead_pct"] = focus if focus is not None else 0.0
        names = [m["name"] for m in (bench["per_layer"] if args.trace else bench["end_to_end"])]
        for name in names:
            if args.trace:
                value = run.layer.get(name)
            else:
                value, samples = run.e2e.get(name, (None, None))
                if isinstance(samples, list) and samples:
                    q1, q2, q3 = quartiles(samples)
                    stats[name] = {"samples": len(samples), "median": q2, "q1": q1, "q3": q3}
                elif samples:
                    stats[name] = {"samples": samples}
            if value is None or (isinstance(value, float) and not math.isfinite(value)):
                run.fail(f"metric {name} was not measured")
                ok = False
                continue
            metrics[name] = {"value": value, "unit": units[name]}
    correct = ok and run.failed == 0
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics if correct else {}}
    report = {"provenance": provenance(run), "metric_stats": stats,
              "layers_all": run.layer, "trace_overhead_pct": run.overheads,
              "setup_samples_s": run.setup_samples, "peak_rss_mb_by_leg": run.rss,
              "rows": run.rows, "failures": run.failures}
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
