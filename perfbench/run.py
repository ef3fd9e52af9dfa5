#!/usr/bin/env python3
"""ftsynth benchmark: three closed-loop workloads driven from one process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the product
and the probe in Release mode into .bench_build/; inputs, span dumps and
result stamps go under .bench_work/. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See
perfbench/README.md for the metric definitions, the workloads and the
findings they were built on.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
FTSYNTH = os.path.join(BUILD, "tools", "ftsynth")
PROBE = os.path.join(BUILD, "perfbench_probe")
NPROC = os.cpu_count() or 1
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 120
# Largest relative gap allowed between the traced replay's request time and
# the product's own serial time for the same requests: the timing bound in
# BENCHMARK.json.
REPLAY_DRIFT_LIMIT = 0.25

END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "throughput_rps": "1/s",
    "cpu_ms_per_request": "ms", "peak_rss_mb": "MB", "ok_share": "share",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "fta.probe_ms": "ms", "fta.synthesise_ms": "ms", "fta.tree_nodes": "count",
    "analysis.cutsets_ms": "ms", "analysis.cut_sets": "count",
    "analysis.pool_speedup": "ratio", "analysis.reliability_ms": "ms",
    "bdd.nodes": "count", "analysis.common_cause_ms": "ms",
    "analysis.render_ms": "ms", "analysis.output_bytes": "bytes",
    "analysis.cone_hit_ratio": "ratio", "mdl.parse_ms": "ms",
    "openpsa.read_ms": "ms", "analysis.batch_parallel_efficiency": "ratio",
    "service.execute_ms": "ms", "service.wire_ms": "ms",
    "service.memo_hit_ratio": "ratio", "service.model_acquire_ms": "ms",
    "service.error_envelopes": "count", "trace.attributed_share": "share",
    "trace.fta_share": "share", "trace.cutsets_reliability_share": "share",
    "trace.overhead_pct": "%", "trace.cross_check_share": "share",
    "trace.replay_drift": "share",
}
# Span name -> per-layer metric that receives its self time.
SPAN_METRICS = {
    "fta.probe": "fta.probe_ms", "fta.synthesise": "fta.synthesise_ms",
    "analysis.cutsets": "analysis.cutsets_ms",
    "analysis.reliability": "analysis.reliability_ms",
    "analysis.common_cause": "analysis.common_cause_ms",
    "analysis.render": "analysis.render_ms", "mdl.parse": "mdl.parse_ms",
    "openpsa.read": "openpsa.read_ms",
    "service.execute": "service.execute_ms",
    "service.acquire_model": "service.model_acquire_ms",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and stamps


def build():
    """Configures (once) and builds the product and probe; exits on failure."""
    for required in ("src", "tools", os.path.join("perfbench", "probe.cpp")):
        if not os.path.exists(os.path.join(ROOT, required)):
            log("perfbench: %s missing; run from a source checkout" % required)
            sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    build_log = open(os.path.join(BUILD, "perfbench-build.log"), "a")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                  "ftsynth_cli", "perfbench_probe"])
    for step in steps:
        if subprocess.run(step, stdout=build_log, stderr=build_log).returncode:
            log("perfbench: build failed, see .bench_build/perfbench-build.log")
            sys.exit(2)
    if cmake_cache("CMAKE_BUILD_TYPE") != "Release":
        log("perfbench: refusing a non-Release build in .bench_build")
        sys.exit(3)


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return None


def compiler():
    path = cmake_cache("CMAKE_CXX_COMPILER") or "c++"
    try:
        first = subprocess.run([path, "--version"], capture_output=True,
                               text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        first = "unknown"
    return "%s (%s)" % (path, first)


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def calibrate():
    """Median ms of a fixed CPU loop: a machine-speed reading, never used to
    scale a metric."""
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        acc = 0
        for i in range(200000):
            acc += i * i
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat; (0, 0) where
    the kernel does not report them."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings: a contention reading like the calibration,
    never used to scale a metric."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Inputs


def run_checked(argv, **kwargs):
    result = subprocess.run(argv, capture_output=True, text=True, **kwargs)
    if result.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" %
                           (" ".join(argv), result.returncode, result.stderr))
    return result.stdout


def perturb_rates(text, rng, pattern, fraction=1.0):
    """Rewrites a seeded share of the rate values matched by `pattern`
    (group 1 is the number) to rate * U(0.5, 2), four significant digits."""
    def replace(match):
        if rng.random() >= fraction:
            return match.group(0)
        value = float(match.group(1)) * rng.uniform(0.5, 2.0)
        start, end = match.span(1)
        whole = match.group(0)
        offset = match.start(0)
        return whole[:start - offset] + ("%.4g" % value) + whole[end - offset:]
    return re.sub(pattern, replace, text)


MDL_RATE = r"Rate ([0-9.eE+-]+)"
XML_RATE = r'<exponential>\s*<float value="([0-9.eE+-]+)"'


def write_manifest(directory):
    entries = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and name != "manifest.json":
            with open(path, "rb") as f:
                entries[name] = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(entries, f, indent=1, sort_keys=True)
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()
                          ).hexdigest()


def read(path):
    with open(path) as f:
        return f.read()


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def gen_bbw(path, rng):
    run_checked([PROBE, "gen-bbw", path])
    write(path, perturb_rates(read(path), rng, MDL_RATE, fraction=0.25))


def gen_replicated(path, lanes, stages, rng):
    run_checked([PROBE, "gen-replicated", path, str(lanes), str(stages)])
    write(path, perturb_rates(read(path), rng, MDL_RATE))


# ---------------------------------------------------------------------------
# Request execution


def spawn_measured(argv):
    """Runs one request process; returns (latency_ms, cpu_ms, rss_kb, rc,
    stdout). CPU and RSS come from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    latency = (time.perf_counter() - start) * 1000
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = (usage.ru_utime + usage.ru_stime) * 1000
    return latency, cpu, usage.ru_maxrss, proc.returncode, out.decode()


def proc_cpu_ms(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def proc_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Daemon:
    """One `ftsynth serve` process and a single client connection."""

    def __init__(self, sock_path):
        self.sock_path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        # One executor: the single closed-loop client never has two requests
        # in flight, and with two executors consecutive requests alternate
        # between threads (and malloc arenas), which swung the daemon's
        # high-water mark 101..148 MB on identical schedules. One worker:
        # see Workload.serial_product.
        self.proc = subprocess.Popen(
            [FTSYNTH, "serve", "--socket", sock_path, "--executors", "1",
             "--jobs", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.conn = None
        deadline = time.monotonic() + 30
        while self.conn is None:
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.connect(sock_path)
                self.conn = conn
            except OSError:
                conn.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("daemon did not start")
                time.sleep(0.002)
        self.conn.settimeout(REQUEST_TIMEOUT_S)
        self.reader = self.conn.makefile("rb")

    def call(self, request):
        """(latency_ms, response dict or None on transport failure)."""
        line = (json.dumps(request) + "\n").encode()
        start = time.perf_counter()
        try:
            self.conn.sendall(line)
            reply = self.reader.readline()
        except OSError:
            reply = b""
        latency = (time.perf_counter() - start) * 1000
        if not reply:
            return latency, None
        return latency, json.loads(reply)

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.call({"command": "shutdown"})
            except (OSError, ValueError):
                pass
        try:
            self.reader.close()
            self.conn.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def analyse_request(model, tops=(), time_hours=1.0):
    request = {"command": "analyse", "model": model, "deadline_ms": 600000}
    if tops:
        request["tops"] = list(tops)
    if time_hours != 1.0:
        request["time_hours"] = time_hours
    return request


def cli_argv(model, tops=(), time_hours=1.0):
    argv = [FTSYNTH, "analyse", model]
    for top in tops:
        argv += ["--top", top]
    if time_hours != 1.0:
        argv += ["--time", repr(time_hours)]
    return argv


# ---------------------------------------------------------------------------
# Workloads


def odd(x):
    """Nearest odd whole number >= 1: an odd sample count has a middle."""
    n = max(1, round(x))
    return n if n % 2 else n + 1


class Workload:
    """Common shape: set up (timed, repeated), run a fixed schedule, verify.
    `nominal_request_s` converts --seconds into a fixed request count.
    A `serial` cold workload runs the product with --jobs 1: always when
    `serial_product` is set, and in the traced run."""

    # With nproc workers, intra-tree parallel cut-set work stalls on
    # whichever vCPU the host steals: under contention (10-15% steal) the
    # default --jobs p50 of cutset_heavy rose 1.65x and --jobs 1 only 1.3x.
    # Workloads whose requests are dominated by that work measure the
    # serial product so that their figures track the program, not the host.
    serial_product = False

    def __init__(self, seed, seconds, workdir, smoke, serial=False):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.smoke = smoke
        self.serial = serial or self.serial_product
        self.manifest = None

    def rng(self, stream):
        return random.Random("%s/%d/%s" % (self.name, self.seed, stream))

    def request_count(self):
        return odd(self.seconds / self.nominal_request_s)

    def verify(self, records, checker, schedule):
        """Runs the oracle once per distinct (request, output) and marks
        each record; returns (request, output) of one verified record."""
        verdicts = {}
        sample = None
        for req, record in zip(schedule, records):
            if not record["ok"]:
                continue
            key = (req["model"], req.get("version"), tuple(req["tops"]),
                   req["time_hours"],
                   hashlib.sha256(record["output"].encode()).hexdigest())
            if key not in verdicts:
                problems = self.oracle_problems(checker, req, record["output"])
                if problems:
                    log("oracle:", problems[:3])
                verdicts[key] = not problems
            record["ok"] = verdicts[key]
            if record["ok"] and sample is None:
                sample = (req, record["output"])
        return sample

    def call(self, req):
        """Cold workloads: one fresh `ftsynth analyse` process."""
        argv = cli_argv(req["model"]) + (["--jobs", "1"] if self.serial else [])
        latency, cpu, rss, rc, out = spawn_measured(argv)
        return {"latency_ms": latency, "cpu_ms": cpu, "rss_kb": rss,
                "ok": rc == 0, "output": out}

    def run(self, schedule):
        records = [self.call(req) for req in schedule]
        return records, sum(r["cpu_ms"] for r in records), \
            max(r["rss_kb"] for r in records)

    def close(self):
        pass


# Output port x failure class candidates of the BBW model that the
# top-derivation probe finds derivable.
BBW_DERIVED_TOPS = 22


class BbwCold(Workload):
    """One fresh `ftsynth analyse bbw.mdl` per request, default flags, tops
    derived. Synthesis and the top-derivation probe dominate."""

    name = "bbw_cold"
    nominal_request_s = 1.15

    def setup(self):
        self.model = os.path.join(self.workdir, "bbw.mdl")
        gen_bbw(self.model, self.rng("rates"))
        self.manifest = write_manifest(self.workdir)
        # First cold pass.
        if spawn_measured(cli_argv(self.model))[3] != 0:
            raise RuntimeError("warm-up analyse failed")

    def schedule(self):
        return [{"model": self.model, "tops": [], "time_hours": 1.0}
                for _ in range(self.request_count() if not self.smoke else 1)]

    def oracle_problems(self, checker, req, text):
        count = len(oracle.parse_report(text))
        return checker.check_mdl_output(text, req["model"], 1.0) + (
            [] if count == BBW_DERIVED_TOPS else ["%d tops" % count])


# Replicated-lane shapes (lanes, stages), in cost order: stages**lanes + 4
# minimal cut sets for Omission-sink, 1e4..4e5 over three lane counts,
# with request costs ~1.4x apart (40 ms .. 1.5 s on a 4-core VM) so they form
# a continuum rather than clusters. Each shape runs an odd number c of times
# (7 at --seconds 30) and the middle shape 2c - 1 times: the median request
# (rank 42 of 83) is then the middle copy of the middle shape, measured 13
# times, and the tail request (p87, rank 73) the middle copy of the tenth
# shape -- never a boundary between two shapes.
REPLICATED_SHAPES = [
    (4, 10), (3, 26), (4, 12), (5, 7), (4, 15), (3, 40), (3, 46), (4, 19),
    (3, 58), (5, 12), (5, 13),
]


class CutsetHeavy(Workload):
    """Cold `ftsynth analyse` over a seeded population of replicated-lane
    models: cut sets and reliability dominate, synthesis is negligible."""

    name = "cutset_heavy"
    nominal_request_s = 0.36
    serial_product = True

    def shapes(self):
        return REPLICATED_SHAPES[:3] if self.smoke else REPLICATED_SHAPES

    def setup(self):
        rng = self.rng("rates")
        self.models = []
        for lanes, stages in self.shapes():
            path = os.path.join(self.workdir, "rep_%dx%d.mdl" % (lanes, stages))
            gen_replicated(path, lanes, stages, rng)
            self.models.append((path, lanes, stages))
        self.manifest = write_manifest(self.workdir)
        # First cold pass over the median-cost model of the population.
        path = self.models[len(self.models) // 2][0]
        if spawn_measured(cli_argv(path))[3] != 0:
            raise RuntimeError("warm-up analyse failed")

    def schedule(self):
        copies = 1 if self.smoke else odd(
            self.seconds / self.nominal_request_s / (len(self.models) + 1))
        middle = len(self.models) // 2
        order = [m for i, m in enumerate(self.models)
                 for _ in range(2 * copies - 1 if i == middle else copies)]
        self.rng("order").shuffle(order)
        return [{"model": m[0], "tops": [], "time_hours": 1.0, "shape": m[1:]}
                for m in order]

    def oracle_problems(self, checker, req, text):
        return checker.check_replicated_output(text, req["model"],
                                               *req["shape"], 1.0)


# Explicit BBW top pairs the daemon schedule requests (the probe is
# bypassed). Their re-analysis costs differ ~7x, spreading miss latencies.
BBW_PAIRS = [
    ["Omission-brake_force_fl", "Value-vehicle_speed"],
    ["Omission-total_braking", "Commission-brake_force_rr"],
    ["Late-brake_force_rl", "Value-brake_force_fr"],
    ["Omission-warning_lamp", "Commission-total_braking"],
]
REP_TOPS = ["Omission-sink", "Value-sink"]
REP_SHAPE = (3, 20)
XML_TOP = "Omission-total_braking"
# One block of the daemon schedule: (model, class) with fixed proportions
# 25% replay, 45% requantify, 30% edit. Replays (<1 ms) are the only class
# 10x faster than the rest, so the median (50%) and the tail sit well
# inside the miss classes.
DAEMON_BLOCK = (
    [("bbw", "replay")] * 2 + [("rep", "replay")] * 2 + [("xml", "replay")] +
    [("bbw", "requantify")] * 4 + [("rep", "requantify")] * 3 +
    [("xml", "requantify")] * 2 +
    [("bbw", "edit")] * 3 + [("rep", "edit")] * 2 + [("xml", "edit")])


class DaemonEditLoop(Workload):
    """One warm `ftsynth serve` daemon, one client, a seeded schedule of
    replay / requantify / edit requests over three models."""

    name = "daemon_edit_loop"
    nominal_request_s = 0.036
    serial_product = True

    def __init__(self, *args, stop_after=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.daemon = None
        self.stop_after = stop_after

    def setup(self):
        rng = self.rng("rates")
        self.paths = {"bbw": os.path.join(self.workdir, "bbw.mdl"),
                      "rep": os.path.join(self.workdir, "rep.mdl"),
                      "xml": os.path.join(self.workdir, "total_braking.xml")}
        gen_bbw(self.paths["bbw"], rng)
        gen_replicated(self.paths["rep"], *REP_SHAPE, rng)
        # One top per MEF file: multi-top exports reuse gate names.
        write(self.paths["xml"], run_checked(
            [FTSYNTH, "synthesise", self.paths["bbw"], "--top", XML_TOP,
             "--format", "openpsa"]))
        self.manifest = write_manifest(self.workdir)
        self.initial = {k: read(p) for k, p in self.paths.items()}
        self.daemon = Daemon(os.path.join(self.workdir, "d.sock"))
        for request in self.setup_requests():
            self.expect_ok(self.daemon.call(request))

    def setup_requests(self):
        """The first cold pass over each model: every request shape the
        schedule sends, at the initial bytes and time_hours 1, which the
        schedule's first replays repeat."""
        return [analyse_request(self.paths["bbw"], pair) for pair in
                BBW_PAIRS] + [analyse_request(self.paths["rep"], REP_TOPS),
                              analyse_request(self.paths["xml"])]

    @staticmethod
    def expect_ok(reply):
        _, response = reply
        if not response or response.get("status") != "ok" or \
                response.get("exit_code") != 0:
            raise RuntimeError("daemon set-up request failed: %r" % response)

    def tops_for(self, key, pair):
        return BBW_PAIRS[pair] if key == "bbw" else \
            REP_TOPS if key == "rep" else []

    def schedule(self):
        """Fixed-length request list; edits carry the full new file text."""
        rng = self.rng("schedule")
        blocks = 1 if self.smoke else max(
            1, round(self.seconds / self.nominal_request_s / len(DAEMON_BLOCK)))
        content = dict(self.initial)
        self.versions = {hashlib.sha256(v.encode()).hexdigest(): v
                         for v in content.values()}
        # Requests served on the current version of each model.
        served = {"bbw": [(0, 1.0)], "rep": [(0, 1.0)], "xml": [(0, 1.0)]}
        used_times = {k: {1.0} for k in content}
        pair_cursor = {"requantify": 0, "edit": 0}
        edits = {k: 0 for k in content}
        out = []
        for _ in range(blocks):
            block = list(DAEMON_BLOCK)
            rng.shuffle(block)
            for key, cls in block:
                entry = {"key": key, "class": cls, "write": None}
                if cls == "replay":
                    pair, t = rng.choice(served[key])
                elif cls == "requantify":
                    pair = pair_cursor["requantify"] % 4 if key == "bbw" else 0
                    if key == "bbw":
                        pair_cursor["requantify"] += 1
                    t = 1.0
                    while t in used_times[key]:
                        t = round(rng.uniform(0.5, 5000.0), 3)
                    used_times[key].add(t)
                else:
                    pair = pair_cursor["edit"] % 4 if key == "bbw" else 0
                    if key == "bbw":
                        pair_cursor["edit"] += 1
                    t = 1.0
                    while True:
                        edited = self.edit_one_rate(
                            content[key], XML_RATE if key == "xml" else
                            MDL_RATE, edits[key], rng)
                        edits[key] += 1
                        digest = hashlib.sha256(edited.encode()).hexdigest()
                        if digest not in self.versions:
                            break
                    self.versions[digest] = edited
                    content[key] = edited
                    entry["write"] = edited
                    served[key] = []
                    used_times[key] = {1.0}
                entry.update(pair=pair, time_hours=t,
                             tops=self.tops_for(key, pair),
                             model=self.paths[key],
                             version=hashlib.sha256(
                                 content[key].encode()).hexdigest())
                if (pair, t) not in served[key]:
                    served[key].append((pair, t))
                out.append(entry)
        return out

    @staticmethod
    def edit_one_rate(text, pattern, count, rng):
        """Rewrites the rate of the count-th edit target. Targets follow a
        fixed, seed-independent order, so every seed invalidates the same
        cones; the seed picks only the new value."""
        matches = list(re.finditer(pattern, text))
        order = list(range(len(matches)))
        random.Random("edit-targets").shuffle(order)
        match = matches[order[count % len(matches)]]
        value = float(match.group(1)) * rng.uniform(0.5, 2.0)
        start, end = match.span(1)
        return text[:start] + ("%.4g" % value) + text[end:]

    def call(self, req):
        """One request over the daemon connection; an edit first rewrites
        the model file."""
        if req["write"] is not None:
            write(req["model"], req["write"])
        latency, response = self.daemon.call(
            analyse_request(req["model"], req["tops"], req["time_hours"]))
        ok = response is not None and response.get("status") == "ok" and \
            response.get("exit_code") == 0
        return {"latency_ms": latency, "ok": ok, "class": req["class"],
                "model": req["key"],
                "error_envelope": response is not None and
                response.get("status") == "error",
                "output": response.get("output", "") if response else ""}

    def run(self, schedule):
        records = []
        cpu_before = proc_cpu_ms(self.daemon.proc.pid)
        for index, req in enumerate(schedule):
            if self.stop_after is not None and index == self.stop_after:
                self.daemon.proc.kill()
                self.daemon.proc.wait()
            records.append(self.call(req))
        alive = self.daemon.proc.poll() is None
        cpu = proc_cpu_ms(self.daemon.proc.pid) - cpu_before if alive else 0.0
        rss = proc_hwm_kb(self.daemon.proc.pid) if alive else 0
        return records, cpu, rss

    def oracle_problems(self, checker, req, text):
        return checker.check_daemon_output(text, req,
                                           self.versions[req["version"]])

    def verify(self, records, checker, schedule):
        """The oracle on every distinct response, then byte identity with
        the cold CLI: per model, the last edit and the last requantify of
        the schedule are re-run by `ftsynth analyse` on the same bytes."""
        sample = super().verify(records, checker, schedule)
        check_dir = os.path.join(self.workdir, "cli_check")
        os.makedirs(check_dir, exist_ok=True)
        picked = {}
        for index, req in enumerate(schedule):
            if records[index]["ok"] and req["class"] != "replay":
                picked[(req["key"], req["class"])] = index
        for index in picked.values():
            req = schedule[index]
            path = os.path.join(check_dir, os.path.basename(req["model"]))
            write(path, self.versions[req["version"]])
            _, _, _, rc, out = spawn_measured(
                cli_argv(path, req["tops"], req["time_hours"]))
            if rc != 0 or out != records[index]["output"]:
                log("daemon output differs from the CLI for request", index)
                records[index]["ok"] = False
        return sample

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {w.name: w for w in (BbwCold, CutsetHeavy, DaemonEditLoop)}


# ---------------------------------------------------------------------------
# Oracle glue


class Checker:
    """Caches structure-only oracle work (families) across requests."""

    def __init__(self):
        self.families = {}

    def family_for(self, model, top):
        """FamilyOracle of one .mdl top, from its one-top Open-PSA export.
        Structure only, so rate edits never invalidate it."""
        key = (os.path.basename(model), top)
        if key not in self.families:
            xml = run_checked([FTSYNTH, "synthesise", model, "--top", top,
                               "--format", "openpsa"])
            tree = oracle.mef_trees(xml)[0]
            self.families[key] = oracle.FamilyOracle(*oracle.family(tree))
        return self.families[key]

    def check_mdl_output(self, output, model, time_hours, text=None):
        """Problems in an `analyse` output of an .mdl model."""
        rates = oracle.mdl_rates(text if text is not None else read(model))
        sections = oracle.parse_report(output)
        if not sections:
            return ["no report sections"]
        problems = []
        for section in sections:
            top = section["name"].split(" at ")[0]
            fam = self.family_for(model, top)
            probs = {name: (1.0 - math.exp(-rates[name] * time_hours)
                            if rates.get(name, 0.0) > 0 else 0.0)
                     for name in fam.names}
            problems += [top + ": " + p
                         for p in oracle.check_top(section, fam.expect(probs))]
            if section.get("t") != time_hours:
                problems.append(top + ": mission time")
        return problems

    def check_replicated_output(self, output, model, lanes, stages,
                                time_hours, text=None):
        rates = oracle.mdl_rates(text if text is not None else read(model))
        sections = oracle.parse_report(output)
        problems = [] if len(sections) >= 1 else ["no report sections"]
        for section in sections:
            top = section["name"].split(" at ")[0]
            expected = oracle.expect_replicated(top, lanes, stages, rates,
                                                time_hours)
            problems += [top + ": " + p
                         for p in oracle.check_top(section, expected)]
        return problems

    def check_xml_output(self, output, text, time_hours):
        tree = oracle.mef_trees(text)[0]
        key = ("xml", tree.name)
        if key not in self.families:
            self.families[key] = oracle.FamilyOracle(*oracle.family(tree))
        fam = self.families[key]
        sections = oracle.parse_report(output)
        if len(sections) != 1:
            return ["expected one report section"]
        return oracle.check_top(sections[0],
                                fam.expect(oracle.probabilities(tree,
                                                                time_hours)))

    def check_daemon_output(self, output, req, text):
        """`text` is the model file as it was when the request was sent."""
        problems = [] if len(oracle.parse_report(output)) == max(
            1, len(req["tops"])) else ["wrong number of tops"]
        if req["key"] == "bbw":
            return problems + self.check_mdl_output(
                output, req["model"], req["time_hours"], text=text)
        if req["key"] == "rep":
            return problems + self.check_replicated_output(
                output, req["model"], *REP_SHAPE, req["time_hours"], text=text)
        return problems + self.check_xml_output(output, text,
                                                req["time_hours"])

    def check_corpus(self):
        """The product on the committed hand-computed corpus."""
        problems = []
        corpus = os.path.join(ROOT, "tests", "openpsa")
        for name in sorted(oracle.CORPUS):
            path = os.path.join(corpus, name)
            _, expected, brute = oracle.corpus_expectations(path)
            out = run_checked([FTSYNTH, "analyse", path])
            for section in oracle.parse_report(out):
                if expected is not None:
                    problems += [name + ": " + p
                                 for p in oracle.check_top(section, expected)]
                elif not abs(section.get("exact", -1) - brute) <= 1e-12:
                    problems.append(name + ": exact P(top)")
        return problems

    def mutation_self_check(self, verify_one, output):
        """A corrupted copy of a verified output must fail the oracle."""
        mutants = [
            re.sub(r"minimal cut sets: (\d+)",
                   lambda m: "minimal cut sets: %d" % (int(m.group(1)) + 1),
                   output, count=1),
            re.sub(r"rare-event (\d)\.(\d)",
                   lambda m: "rare-event %s.%d" % (m.group(1),
                                                   (int(m.group(2)) + 5) % 10),
                   output, count=1),
        ]
        return all(verify_one(m) for m in mutants if m != output)


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(values):
    """(percentile, value, samples beyond): the highest integer percentile
    >= 50 with at least 10 samples beyond it, else the median."""
    ordered = sorted(values)
    n = len(ordered)
    best = 50
    for p in range(99, 50, -1):
        if n * (100 - p) / 100.0 >= 10:
            best = p
            break
    if best == 50:
        return best, statistics.median(ordered), n // 2
    rank = max(1, math.ceil(best / 100.0 * n))
    return best, ordered[rank - 1], n - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, wall_s, cpu_ms, rss_kb, setup_times):
    # A failed request counts as missing any latency limit.
    latencies = [r["latency_ms"] if r["ok"] else REQUEST_TIMEOUT_S * 1000.0
                 for r in records]
    ok = sum(1 for r in records if r["ok"])
    pct, tail, beyond = tail_percentile(latencies)
    log("latency_tail_ms is p%d over %d samples (%d beyond)" %
        (pct, len(latencies), beyond))
    values = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "throughput_rps": ok / wall_s,
        "cpu_ms_per_request": cpu_ms / max(1, len(records)),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_share": ok / max(1, len(records)),
        "setup_s": statistics.median(setup_times),
    }
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}, \
        {"tail_percentile": pct, "tail_samples_beyond": beyond}


def class_medians(schedule, records):
    """Median latency per request class (model, and daemon request class):
    shows which class a slow run slowed."""
    groups = {}
    for req, record in zip(schedule, records):
        key = os.path.basename(req["model"])
        if "class" in req:
            key += "/" + req["class"]
        groups.setdefault(key, []).append(record["latency_ms"])
    return {k: [len(v), statistics.median(v)]
            for k, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# Traced run


class Probe:
    """The traced in-process replay (perfbench_probe trace)."""

    def __init__(self, mode):
        self.proc = subprocess.Popen([PROBE, "trace", mode],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        if "error" in answer:
            raise RuntimeError("probe: " + answer["error"])
        return answer

    def finish(self):
        self.proc.stdin.close()
        footer = json.loads(self.proc.stdout.readline())
        self.proc.wait()
        return footer

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def layer_table(answers, product_outputs, daemon_records, span_cost_us,
                drift, trace_dir):
    """Per-layer metrics from the probe answers; writes the span dump and
    the per-layer table. `drift` is (replay ms, product ms) summed over the
    requests the drift check compares."""
    totals = {name: 0.0 for name in SPAN_METRICS}
    request_total = 0.0
    span_count = 0
    counts = {}
    extras = []
    checked = matched = 0
    with open(os.path.join(trace_dir, "spans.jsonl"), "w") as dump:
        for answer in answers:
            spans = answer["spans"]
            span_count += len(spans)
            root = spans[0]
            request_total += (root[2] - root[1]) / 1000.0
            for name, start, end, parent in spans:
                dump.write(json.dumps({"request": answer["id"], "name": name,
                                       "start_us": start, "end_us": end,
                                       "parent": parent}) + "\n")
                if parent == 0:
                    totals[name] += (end - start) / 1000.0
            for key, value in answer["counts"].items():
                counts[key] = counts.get(key, 0.0) + value
            extras.append(answer["extras"])
            if answer["id"] in product_outputs:
                checked += 1
                matched += answer["output"] == product_outputs[answer["id"]]
    n = max(1, len(answers))
    values = {m: 0.0 for m in PER_LAYER_UNITS}
    for span, name in SPAN_METRICS.items():
        values[name] = totals[span] / n
    for key in ("fta.tree_nodes", "analysis.cut_sets", "bdd.nodes",
                "analysis.output_bytes"):
        values[key] = counts.get(key, 0.0) / n
    if counts.get("cone_lookups"):
        values["analysis.cone_hit_ratio"] = counts["cone_hits"] / \
            counts["cone_lookups"]
    attributed = sum(totals.values())
    values["trace.attributed_share"] = attributed / max(1e-9, request_total)
    values["trace.fta_share"] = (totals["fta.probe"] +
                                 totals["fta.synthesise"]) / request_total
    values["trace.cutsets_reliability_share"] = (
        totals["analysis.cutsets"] + totals["analysis.reliability"]) / \
        request_total
    values["trace.overhead_pct"] = 100.0 * span_cost_us * span_count / 1000.0 \
        / max(1e-9, request_total)
    values["trace.cross_check_share"] = matched / max(1, checked)
    replay_ms, product_ms = drift
    values["trace.replay_drift"] = abs(replay_ms / product_ms - 1.0)
    pooled = [e for e in extras if "pooled_cutsets_ms" in e]
    if pooled:
        serial_cut = totals["analysis.cutsets"]
        values["analysis.pool_speedup"] = serial_cut / max(
            1e-9, sum(e["pooled_cutsets_ms"] for e in pooled))
        item_time = sum(totals[s] for s in (
            "fta.synthesise", "analysis.cutsets", "analysis.common_cause",
            "analysis.reliability"))
        values["analysis.batch_parallel_efficiency"] = item_time / max(
            1e-9, sum(e["batch_wall_ms"] * e["jobs"] for e in pooled))
    replay_rows = []
    if daemon_records:
        values["service.execute_ms"] = statistics.fmean(
            e["execute_ms"] for e in extras)
        values["service.memo_hit_ratio"] = sum(
            1 for e in extras if e.get("memo_hit")) / n
        # Replays only: a replay's execute is exactly the memo lookup,
        # while a miss's memo-filling execute runs on caches the traced
        # stages just warmed.
        replays = [(r["latency_ms"], e["execute_ms"])
                   for r, e in zip(daemon_records, extras)
                   if r["class"] == "replay"]
        round_trip = statistics.median(rt for rt, _ in replays)
        lookup = statistics.median(ex for _, ex in replays)
        values["service.wire_ms"] = statistics.median(
            rt - ex for rt, ex in replays)
        values["service.error_envelopes"] = float(
            sum(1 for r in daemon_records if r["error_envelope"]))
        replay_rows.append(
            "replays: median round trip %.3f ms = wire %.3f ms + execute "
            "(memo lookup) %.3f ms" % (round_trip, values["service.wire_ms"],
                                       lookup))
        misses = [e for e in extras if "execute_matches" in e]
        values["trace.cross_check_share"] = min(
            values["trace.cross_check_share"],
            sum(1 for e in misses if e["execute_matches"]) / max(1,
                                                                 len(misses)))
    rows = ["%-36s %12s  %s" % ("layer metric", "value", "unit")]
    for name, unit in PER_LAYER_UNITS.items():
        share = ""
        span = next((s for s, m in SPAN_METRICS.items() if m == name), None)
        if span is not None:
            share = "  (%.1f%% of request time)" % (
                100.0 * totals[span] / max(1e-9, request_total))
        rows.append("%-36s %12.4f  %s%s" % (name, values[name], unit, share))
    rows += replay_rows
    rows.append("replay vs product serial time, non-replay requests: %.1f ms "
                "vs %.1f ms" % (replay_ms, product_ms))
    write(os.path.join(trace_dir, "layers.txt"), "\n".join(rows) + "\n")
    print("\n".join(rows))
    return values


def traced_run(workload, schedule, checker, trace_dir):
    """Runs each request through the product and then through the traced
    replay, interleaved so both see the same machine. Returns the
    per-layer metrics and correctness. The replay must render the product's
    bytes, and its request time must stay within REPLAY_DRIFT_LIMIT of the
    product's serial time for the same requests: cold, `ftsynth analyse
    --jobs 1`; warm, the probe's second runner's ServiceRunner::execute.
    A product change that alters the work without altering the bytes then
    fails the run instead of leaving the spans timing the old
    orchestration."""
    os.makedirs(trace_dir, exist_ok=True)
    daemon = isinstance(workload, DaemonEditLoop)
    probe = Probe("warm" if daemon else "cold")
    try:
        if daemon:
            # The daemon's set-up pass, served through execute as there.
            for i, request in enumerate(workload.setup_requests()):
                probe.ask({"id": -1 - i, "model": request["model"],
                           "tops": request.get("tops", []),
                           "time_hours": 1.0, "replay": True})
        records, answers = [], []
        for i, req in enumerate(schedule):
            records.append(workload.call(req))
            answers.append(probe.ask({
                "id": i, "model": req["model"], "tops": req["tops"],
                "time_hours": req["time_hours"],
                "replay": req.get("class") == "replay",
                "edit": req.get("class") == "edit"}))
        footer = probe.finish()
    finally:
        probe.close()
    workload.verify(records, checker, schedule)
    correct = all(r["ok"] for r in records)
    product_outputs = {i: r["output"] for i, r in enumerate(records)}
    # A replay's span is the memo lookup: service.wire_ms covers those,
    # the drift check the rest.
    compared = [(a["spans"][0][2] - a["spans"][0][1],
                 a["extras"]["product_ms"] if daemon else r["latency_ms"])
                for req, a, r in zip(schedule, answers, records)
                if req.get("class") != "replay"]
    drift = (sum(a for a, _ in compared) / 1000.0,
             sum(r for _, r in compared))
    values = layer_table(answers, product_outputs, records if daemon else [],
                         footer["span_cost_us"], drift, trace_dir)
    if values["trace.replay_drift"] > REPLAY_DRIFT_LIMIT:
        log("traced replay took %.1f ms against the product's %.1f ms: the "
            "replay no longer does the product's work" % drift)
        correct = False
    correct = correct and values["trace.cross_check_share"] == 1.0
    return values, correct, len(records), sum(1 for r in records
                                              if not r["ok"])


def trace_schedule(workload, schedule):
    """The traced run replays a shorter slice: each replayed request costs
    the serial pipeline plus the pooled comparisons."""
    if isinstance(workload, BbwCold):
        return schedule[:max(1, len(schedule) // 4)]
    if isinstance(workload, CutsetHeavy):
        seen, out = set(), []
        for req in schedule:
            if req["model"] not in seen:
                seen.add(req["model"])
                out.append(req)
        return out
    blocks = max(1, len(schedule) // len(DAEMON_BLOCK) // 3)
    return schedule[:blocks * len(DAEMON_BLOCK)]


# ---------------------------------------------------------------------------
# Main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny schedule and one set-up, for tests")
    parser.add_argument("--stop-daemon-after", type=int, default=None,
                        help="daemon_edit_loop: kill the daemon before this "
                             "request (tests the failure accounting)")
    args = parser.parse_args()

    build()
    run_name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(WORK, run_name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calibration_before = calibrate()

    cls = WORKLOADS[args.workload]
    extra = {"stop_after": args.stop_daemon_after} \
        if cls is DaemonEditLoop else {}
    workload = cls(args.seed, args.seconds, os.path.join(workdir, "inputs"),
                   args.smoke, serial=bool(args.trace), **extra)
    checker = Checker()
    try:
        setup_times = []
        manifests = set()
        for _ in range(1 if args.smoke or args.trace else SETUP_REPEATS):
            workload.close()
            shutil.rmtree(workload.workdir, ignore_errors=True)
            os.makedirs(workload.workdir)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            manifests.add(workload.manifest)
        if len(manifests) != 1:
            raise RuntimeError("set-up is not deterministic: manifests differ")
        schedule = workload.schedule()
        result = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "requests": len(schedule),
                  "input_manifest": workload.manifest}

        if args.trace:
            values, correct, attempted, failed = traced_run(
                workload, trace_schedule(workload, schedule), checker,
                os.path.join(workdir, "trace"))
            metrics = {name: metric(values[name], unit)
                       for name, unit in PER_LAYER_UNITS.items()}
        else:
            ticks = cpu_ticks()
            start = time.perf_counter()
            records, cpu_ms, rss_kb = workload.run(schedule)
            wall = time.perf_counter() - start
            result["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
            workload.close()
            sample = workload.verify(records, checker, schedule)
            metrics, tail_info = end_to_end(records, wall, cpu_ms, rss_kb,
                                            setup_times)
            result.update(tail_info)
            result["median_ms_by_class"] = class_medians(schedule, records)
            attempted = len(records)
            failed = sum(1 for r in records if not r["ok"])
            correct = failed == 0
            # Oracle self-checks, outside every timed interval.
            corpus_problems = checker.check_corpus()
            if corpus_problems:
                log("corpus:", corpus_problems)
                correct = False
            if sample is not None:
                req, text = sample
                if not checker.mutation_self_check(
                        lambda t: bool(workload.oracle_problems(checker, req,
                                                                t)), text):
                    log("oracle accepted a corrupted output")
                    correct = False
    finally:
        workload.close()

    result.update({
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "cmake_build_type": cmake_cache("CMAKE_BUILD_TYPE"), "nproc": NPROC,
        "compiler": compiler(),
        "calibration_ms": {"before": calibration_before,
                           "after": calibrate()},
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })
    write(os.path.join(workdir, "result.json"),
          json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print("%-36s %14.4f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
