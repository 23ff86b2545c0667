#!/usr/bin/env python3
"""End-to-end benchmark for mtlscope.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mtlscope checkout. The first run builds the
program from source into $CARGO_TARGET_DIR (default .bench_build); every
input is generated from --seed by the benchmark's own generator
(perfbench_gen, over gen::paper_model) and cached under the build
directory.

Workloads (README.md in this directory says why each was chosen):
  batch-tsv    `mtlscope run` of the 22 log-pass experiments over a
               ~110 MB time-unsorted Zeek TSV pair
  batch-mtlc   the same call over the same pair after `mtlscope compact`
  watch-tail   `mtlscope watch --window=day` over an ssl.log appended at
               a fixed rate by an open-loop feeder
  repro-synth  synthetic-mode reproduction of the certificate tables
               plus the interception analysis

--trace 0 times the program as a user runs it: every measured repetition
is a fresh process. --trace 1 runs the traced per-layer profile
(perfbench_trace) instead. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are
a readable summary (every metric with its unit, the input shape and the
failure ratio).
"""

import argparse
import ctypes
import json
import math
import os
import select
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
MTLSCOPE = os.path.join(CMAKE_DIR, "mtlscope", "bench", "mtlscope")
GEN = os.path.join(CMAKE_DIR, "perfbench_gen")
TRACE = os.path.join(CMAKE_DIR, "perfbench_trace")

NPROC = os.cpu_count() or 1
BATCH_THREADS = min(NPROC, 4)
# watch-tail: the feeder process has two threads (feed loop, inotify
# reader); the daemon gets the rest, so the two stay within nproc.
WATCH_THREADS = max(1, min(NPROC, 4) - 2)

# Every registry experiment except the self-driving ablation_interception,
# which runs its own passes instead of reading the input logs.
BATCH_EXPERIMENTS = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "table13", "table14", "fig1", "fig2", "fig3", "fig4",
    "fig5", "serials", "interception", "dataset_stats", "tracking", "renewal",
    "ablation_classifier",
]
# The pristine certificate-table group plus the interception analysis.
SYNTH_EXPERIMENTS = ["table1", "table7", "table8", "table9", "table13",
                     "table14", "interception"]
# A fixed list of distributable experiments the daemon renders per window.
WATCH_EXPERIMENTS = ["table1", "table2", "fig1", "fig4", "serials",
                     "tracking"]

# Input scales (divisors of the paper's counts; larger = less data).
BATCH_SCALES = (2000, 25000)    # ~892k ssl rows, ~110 MB ssl.log
WATCH_SCALES = (2000, 200000)   # ~230k time-sorted ssl rows, ~700 days
SYNTH_SCALES = (400, 400000)    # ~190k generated connections per group

FEED_RATE = 12500.0        # watch-tail rows/s, well below saturation
FEED_TICK_S = 0.002        # the feeder appends every row due each tick
FEED_LATE_LIMIT_MS = 100.0  # a run whose feeder fell further behind fails
# The traced run feeds from its single thread, which a checkpoint save
# blocks for ~100 ms, so its feeder may lag further.
TRACE_FEED_LATE_LIMIT_MS = 500.0
WINDOW_S = 86400
SETUP_REPS = 31            # header-only invocations per run (median)
MIN_REPS = 3               # measured repetitions, even if --seconds is short

END_TO_END = {
    "records_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# watch-tail's window latency is printed in the summary but not gated in
# BENCHMARK.json: its run-to-run spread on a shared host with varying CPU
# steal is wider than the largest bound the benchmark may set.
WATCH_LATENCY = {
    "window_latency_p50_ms": "ms",
    "window_latency_p98_ms": "ms",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class Failures:
    """attempted/failed operation counts plus the reason for each miss."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
            log("FAIL: " + reason)
        return ok


# ---------------------------------------------------------------------------
# Build

def build():
    """Configures and builds the CLI and the benchmark tools; exits 1 (no
    result printed) when the checkout cannot be built."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(NPROC),
                  "--target", "mtlscope_cli", "perfbench_gen",
                  "perfbench_trace"])
    with open(build_log, "ab") as out:
        for step in steps:
            code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                   cwd=ROOT)
            if code != 0:
                with open(build_log, "rb") as f:
                    tail = f.read()[-4000:].decode("utf-8", "replace")
                log(tail)
                log("build failed: " + " ".join(step))
                sys.exit(1)


# ---------------------------------------------------------------------------
# Inputs

def inputs(kind, seed, scales, extra=()):
    """Generates (or reuses) one input set; returns (dir, shape)."""
    root = os.path.join(BUILD, "inputs")
    name = "%s-%d-%g-%g" % (kind, seed, scales[0], scales[1])
    path = os.path.join(root, name)
    shape_file = os.path.join(path, "shape.json")
    if not os.path.exists(shape_file):
        os.makedirs(root, exist_ok=True)
        # Keep the cache small: a run needs one set per kind.
        for old in os.listdir(root):
            if old.startswith(kind + "-") and old != name:
                shutil.rmtree(os.path.join(root, old), ignore_errors=True)
        shutil.rmtree(path, ignore_errors=True)
        cmd = [GEN, path, "--seed=%d" % seed, "--cert-scale=%g" % scales[0],
               "--conn-scale=%g" % scales[1]] + list(extra)
        if subprocess.call(cmd, stdout=subprocess.DEVNULL) != 0:
            log("input generation failed: " + " ".join(cmd))
            sys.exit(1)
        # Flush the new files now, so their write-back does not compete
        # with the measured runs.
        os.sync()
    with open(shape_file) as f:
        return path, json.load(f)


def compacted(src, ssl_name, x509_name, out_name):
    """Converts a TSV pair in `src` to a container once; returns its path."""
    out = os.path.join(src, out_name)
    if not os.path.exists(out):
        cmd = [MTLSCOPE, "compact", "--ssl-log=" + os.path.join(src, ssl_name),
               "--x509-log=" + os.path.join(src, x509_name), "--out=" + out]
        if subprocess.call(cmd, stdout=subprocess.DEVNULL) != 0:
            log("compact failed: " + " ".join(cmd))
            sys.exit(1)
        os.sync()
    return out


# ---------------------------------------------------------------------------
# Measurement helpers

class Proc:
    """One finished child process: wall, CPU and peak RSS from wait4."""

    def __init__(self, argv, stdout_path=None, stderr_path=os.devnull):
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        err = open(stderr_path, "wb")
        try:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            self.wall_s = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout_path:
                out.close()
            err.close()
        self.code = child.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def high_percentile(values):
    """The 98th percentile when at least ten samples lie beyond it, else
    the highest percentile that still has ten beyond it (the maximum when
    there are eleven samples or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(10, math.ceil(n * 0.02))
    if n <= beyond:
        return ordered[-1]
    return ordered[n - beyond - 1]


def timed_setup(argv_for, work, failures):
    """Median wall time of SETUP_REPS fresh invocations over header-only
    input."""
    walls = []
    for _ in range(SETUP_REPS):
        argv = argv_for()
        proc = Proc(argv, stderr_path=os.path.join(work, "setup.stderr"))
        failures.check(proc.code == 0, "setup run exited %d: %s" %
                       (proc.code, " ".join(argv)))
        walls.append(proc.wall_s)
    return statistics.median(walls)


def run_args(experiments, threads, ssl, x509=None):
    argv = [MTLSCOPE, "run", "--format=json", "--stable-output",
            "--threads=%d" % threads, "--ssl-log=" + ssl]
    if x509:
        argv.append("--x509-log=" + x509)
    return argv + experiments


def measure_batch(argv, seconds, work, failures, rows_of):
    """Fresh-process repetitions until `seconds` have passed. Every
    repetition's canonical JSON must equal the first one's; `rows_of`
    gives the ssl row count from it."""
    reps = []
    reference = None
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        out = os.path.join(work, "rep.json")
        proc = Proc(argv, out, os.path.join(work, "rep.stderr"))
        output = read_bytes(out)
        ok = failures.check(proc.code == 0 and output,
                            "run exited %d" % proc.code)
        if ok:
            if reference is None:
                reference = output
            else:
                failures.check(output == reference,
                               "canonical JSON differs between repetitions")
        reps.append(proc)
    rows = rows_of(reference) if reference else float("nan")
    metrics = {
        "records_per_s": statistics.median(rows / p.wall_s for p in reps),
        "cpu_s": statistics.median(p.cpu_s for p in reps),
        "peak_rss_mb": statistics.median(p.rss_mb for p in reps),
    }
    return metrics, reference, len(reps)


# ---------------------------------------------------------------------------
# Workloads (--trace 0)

def workload_batch(name, seed, seconds, work, failures):
    src, shape = inputs("batch", seed, BATCH_SCALES)
    ssl = os.path.join(src, "ssl.log")
    x509 = os.path.join(src, "x509.log")
    container = compacted(src, "ssl.log", "x509.log", "input.mtlc")
    header_container = compacted(src, "hdr_ssl.log", "hdr_x509.log", "hdr.mtlc")
    tsv_argv = run_args(BATCH_EXPERIMENTS, BATCH_THREADS, ssl, x509)
    mtlc_argv = run_args(BATCH_EXPERIMENTS, BATCH_THREADS, container)
    if name == "batch-tsv":
        setup_argv = run_args(BATCH_EXPERIMENTS, BATCH_THREADS,
                              os.path.join(src, "hdr_ssl.log"),
                              os.path.join(src, "hdr_x509.log"))
        measured, other = tsv_argv, mtlc_argv
    else:
        setup_argv = run_args(BATCH_EXPERIMENTS, BATCH_THREADS,
                              header_container)
        measured, other = mtlc_argv, tsv_argv
    setup = timed_setup(lambda: setup_argv, work, failures)
    metrics, canonical, reps = measure_batch(measured, seconds, work, failures,
                                             lambda _: shape["ssl_rows"])
    # TSV and container input must give byte-identical canonical JSON.
    out = os.path.join(work, "other.json")
    proc = Proc(other, out, os.path.join(work, "other.stderr"))
    failures.check(proc.code == 0 and canonical is not None and
                   read_bytes(out) == canonical,
                   "canonical JSON differs between TSV and container input")
    metrics["setup_s"] = setup
    return metrics, shape, "%d repetitions" % reps


def synth_rows(canonical):
    """Connections generated per run: one pass per distinct configuration
    (the certificate tables share one, interception has its own)."""
    passes = {}
    for doc in json.loads(canonical)["experiments"]:
        key = json.dumps([doc.get("config"), doc.get("generated")],
                         sort_keys=True)
        passes.setdefault(key, doc.get("records", 0))
    return sum(passes.values())


def workload_synth(seed, seconds, work, failures):
    argv = [MTLSCOPE, "run", "--format=json", "--stable-output",
            "--threads=%d" % BATCH_THREADS, "--seed=%d" % seed,
            "--cert-scale=%g" % SYNTH_SCALES[0],
            "--conn-scale=%g" % SYNTH_SCALES[1]] + SYNTH_EXPERIMENTS
    # Shape of the certificate-table group's generated trace. Synthetic
    # mode reads no input, so set-up is timed over the header-only pair:
    # the same registry, Harness, trust-store and lexicon set-up.
    src, shape = inputs("synth", seed, SYNTH_SCALES,
                        ["--prepare=table1", "--shape-only"])
    setup_argv = run_args(SYNTH_EXPERIMENTS, BATCH_THREADS,
                          os.path.join(src, "hdr_ssl.log"),
                          os.path.join(src, "hdr_x509.log"))
    setup = timed_setup(lambda: setup_argv, work, failures)
    metrics, _, reps = measure_batch(argv, seconds, work, failures,
                                     synth_rows)
    metrics["setup_s"] = setup
    return metrics, shape, "%d repetitions" % reps


# --- watch-tail -------------------------------------------------------------

IN_MOVED_TO = 0x00000080


class PublishWatcher:
    """Records when each file is renamed into a directory (the daemon's
    atomic publication), via inotify, on its own thread."""

    def __init__(self, directory):
        libc = ctypes.CDLL(None, use_errno=True)
        self.fd = libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
        if self.fd < 0 or libc.inotify_add_watch(
                self.fd, directory.encode(), IN_MOVED_TO) < 0:
            raise OSError(ctypes.get_errno(), "inotify")
        self.first = {}  # name -> first publication time
        self.last = {}   # name -> last publication time
        self.stop = False
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        poller = select.poll()
        poller.register(self.fd, select.POLLIN)
        while not self.stop:
            if not poller.poll(20):
                continue
            now = time.perf_counter()
            try:
                data = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                continue
            pos = 0
            while pos + 16 <= len(data):
                _, _, _, length = struct.unpack_from("iIII", data, pos)
                raw = data[pos + 16:pos + 16 + length]
                name = raw.split(b"\0", 1)[0].decode()
                pos += 16 + length
                self.first.setdefault(name, now)
                self.last[name] = now

    def close(self):
        self.stop = True
        self.thread.join()
        os.close(self.fd)


def split_log(path):
    with open(path, "rb") as f:
        data = f.read()
    lines = data.splitlines(keepends=True)
    header = b"".join(l for l in lines if l.startswith(b"#"))
    rows = [l for l in lines if not l.startswith(b"#")]
    return header, rows


def watch_argv(ssl, x509, out_dir, ckpt_dir, exit_idle_ms, poll_ms):
    return [MTLSCOPE, "watch", "--ssl-log=" + ssl, "--x509-log=" + x509,
            "--out-dir=" + out_dir, "--run=" + ",".join(WATCH_EXPERIMENTS),
            "--window=day", "--checkpoint-dir=" + ckpt_dir,
            "--checkpoint-every=2", "--exit-idle-ms=%d" % exit_idle_ms,
            "--poll-ms=%d" % poll_ms, "--stable-output",
            "--threads=%d" % WATCH_THREADS]


def feed_once(src, header, rows, buckets, work, failures):
    """One daemon run over one open-loop feed; returns (latencies_ms,
    proc, records_per_s, feed_late_max_ms)."""
    feed_dir = os.path.join(work, "feed")
    out_dir = os.path.join(work, "out")
    ckpt_dir = os.path.join(work, "ckpt")
    for d in (feed_dir, out_dir, ckpt_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    feed = os.path.join(feed_dir, "ssl.log")
    fd = os.open(feed, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.write(fd, header)
    x509 = os.path.join(src, "x509.log")
    watcher = PublishWatcher(out_dir)
    argv = watch_argv(feed, x509, out_dir, ckpt_dir, 500, 50)
    stderr = open(os.path.join(work, "watch.stderr"), "wb")
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr)
    result = {}

    def reap():
        _, status, usage = os.wait4(child.pid, 0)
        result["code"] = os.waitstatus_to_exitcode(status)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["rss_mb"] = usage.ru_maxrss / 1024.0
        result["end"] = time.perf_counter()

    reaper = threading.Thread(target=reap)
    reaper.start()
    # Let the daemon finish start-up before the clock starts, so the
    # first windows measure the steady state, not process start.
    time.sleep(0.2)
    n = len(rows)
    t0 = time.perf_counter()
    next_row = 0
    tick = t0
    late_max = 0.0
    while next_row < n and "code" not in result:
        tick += FEED_TICK_S
        delay = tick - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        due = min(n, int((now - t0) * FEED_RATE) + 1)
        if due > next_row:
            late_max = max(late_max, (now - (t0 + next_row / FEED_RATE)) * 1e3)
            os.write(fd, b"".join(rows[next_row:due]))
            next_row = due
    os.close(fd)
    reaper.join(timeout=30)
    if reaper.is_alive():
        child.kill()
        reaper.join()
    stderr.close()
    watcher.close()
    code = result.get("code", -1)
    failures.check(code == 0, "watch exited %d" % code)
    failures.check(late_max <= FEED_LATE_LIMIT_MS,
                   "feeder fell %.1f ms behind (limit %.0f ms)" %
                   (late_max, FEED_LATE_LIMIT_MS))

    # Window w closes when the first row of a later day arrives; its
    # latency runs from when that row was due until the file appeared.
    latencies = []
    for i in range(1, n):
        if buckets[i] == buckets[i - 1]:
            continue
        name = "window-%012d.json" % (buckets[i - 1] * WINDOW_S)
        seen = watcher.first.get(name)
        if failures.check(seen is not None, "window %s never published" %
                          name):
            latencies.append((seen - (t0 + i / FEED_RATE)) * 1e3)
    last = "window-%012d.json" % (buckets[-1] * WINDOW_S)
    failures.check(last in watcher.first, "window %s never published" % last)

    # cumulative.json must equal a batch run over the finished feed, which
    # is the same file on every feed of a run: run the batch once.
    reference = os.path.join(work, "batch.json")
    if not os.path.exists(reference):
        batch = Proc(run_args(WATCH_EXPERIMENTS, WATCH_THREADS, feed, x509),
                     reference, os.path.join(work, "batch.stderr"))
        failures.check(batch.code == 0, "batch reference exited %d" %
                       batch.code)
    cumulative = read_bytes(os.path.join(out_dir, "cumulative.json"))
    failures.check(cumulative is not None and
                   cumulative == read_bytes(reference),
                   "cumulative.json differs from the batch run")
    done = watcher.last.get("cumulative.json", result.get("end", t0))
    rate = n / max(done - t0, 1e-9)
    proc = {"cpu_s": result.get("cpu_s", 0.0),
            "rss_mb": result.get("rss_mb", 0.0)}
    return latencies, proc, rate, late_max


def workload_watch(seed, seconds, work, failures):
    src, shape = inputs("watch", seed, WATCH_SCALES, ["--sorted"])
    header, rows = split_log(os.path.join(src, "ssl.log"))
    buckets = [int(float(row.split(b"\t", 1)[0])) // WINDOW_S for row in rows]

    setup_out = os.path.join(work, "setup_out")
    setup_ckpt = os.path.join(work, "setup_ckpt")

    def setup_argv():
        shutil.rmtree(setup_out, ignore_errors=True)
        shutil.rmtree(setup_ckpt, ignore_errors=True)
        return watch_argv(os.path.join(src, "hdr_ssl.log"),
                          os.path.join(src, "hdr_x509.log"), setup_out,
                          setup_ckpt, 1, 1)

    setup = timed_setup(setup_argv, work, failures)
    latencies, procs, rates, late = [], [], [], 0.0
    start = time.perf_counter()
    while not procs or time.perf_counter() - start < seconds:
        lat, proc, rate, late_max = feed_once(src, header, rows, buckets,
                                              work, failures)
        latencies += lat
        procs.append(proc)
        rates.append(rate)
        late = max(late, late_max)
    metrics = {
        "records_per_s": statistics.median(rates),
        "cpu_s": statistics.median(p["cpu_s"] for p in procs),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in procs),
        "setup_s": setup,
        "window_latency_p50_ms": statistics.median(latencies)
        if latencies else float("nan"),
        "window_latency_p98_ms": high_percentile(latencies)
        if latencies else float("nan"),
    }
    shape = dict(shape, feed_rate_rows_per_s=FEED_RATE,
                 feed_late_max_ms=round(late, 3),
                 latency_samples=len(latencies))
    return metrics, shape, "%d feed(s), %d window latencies" % (
        len(procs), len(latencies))


# ---------------------------------------------------------------------------
# Traced per-layer profile (--trace 1)

def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def run_trace(workload, seed, work, failures):
    threads = WATCH_THREADS if workload == "watch-tail" else BATCH_THREADS
    args = ["--workload=" + workload, "--work-dir=" + work,
            "--threads=%d" % threads, "--seed=%d" % seed]
    if workload == "repro-synth":
        src, shape = inputs("synth", seed, SYNTH_SCALES,
                            ["--prepare=table1", "--shape-only"])
        args += ["--cert-scale=%g" % SYNTH_SCALES[0],
                 "--conn-scale=%g" % SYNTH_SCALES[1],
                 "--experiments=" + ",".join(SYNTH_EXPERIMENTS)]
    elif workload == "watch-tail":
        src, shape = inputs("watch", seed, WATCH_SCALES, ["--sorted"])
        args += ["--input-dir=" + src, "--feed-rate=%g" % FEED_RATE,
                 "--experiments=" + ",".join(WATCH_EXPERIMENTS)]
    else:
        src, shape = inputs("batch", seed, BATCH_SCALES)
        container = compacted(src, "ssl.log", "x509.log", "input.mtlc")
        args += ["--input-dir=" + src, "--container=" + container,
                 "--experiments=" + ",".join(BATCH_EXPERIMENTS)]
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, "%s-%d.json" % (workload, seed))

    def profile(spans):
        out = os.path.join(work, "trace%d.out" % spans)
        argv = [TRACE] + args + ["--spans=%d" % spans]
        if spans:
            argv.append("--trace-out=" + trace_file)
        proc = Proc(argv, out, os.path.join(work, "trace%d.stderr" % spans))
        text = read_bytes(out) or b""
        if not failures.check(proc.code == 0 and text.strip(),
                              "perfbench_trace exited %d" % proc.code):
            return {}
        return json.loads(text.decode().strip().splitlines()[-1])

    traced = profile(1)
    untraced = profile(0)
    metrics = dict(traced)
    if traced and untraced:
        overhead = traced["trace.pass_wall_s"] - untraced["trace.pass_wall_s"]
        metrics["trace.wall_s"] = traced["trace.root_s"]
        metrics["trace.overhead_s"] = overhead
        metrics["trace.records_per_s"] = traced["trace.mirror_records_per_s"]
        metrics["trace.untraced_records_per_s"] = \
            untraced["trace.mirror_records_per_s"]
        metrics["trace.overhead_records_per_s"] = \
            traced["trace.mirror_records_per_s"] - \
            untraced["trace.mirror_records_per_s"]
        # Self times partition the traced pass; what they fail to cover
        # must stay within the measured tracing overhead.
        gap = abs(traced["trace.root_s"] - traced["trace.self_sum_s"])
        failures.check(gap <= abs(overhead) + 1e-3,
                       "layer self times miss %.6f s of the traced wall" % gap)
    if workload == "watch-tail" and traced:
        expected = len(set(int(float(r.split(b"\t", 1)[0])) // WINDOW_S
                           for r in split_log(os.path.join(src, "ssl.log"))[1]))
        failures.check(traced.get("watch.scheduler.emissions", 0) >= expected,
                       "traced watch published fewer than %d windows" %
                       expected)
        failures.check(traced.get("watch.feed_late_max_ms", 0) <=
                       TRACE_FEED_LATE_LIMIT_MS,
                       "in-process feeder fell %.1f ms behind" %
                       traced.get("watch.feed_late_max_ms", 0))
    for key, value in shape.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics["input." + key] = value
    log("trace file: " + trace_file)
    return metrics, shape


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-tsv", "batch-mtlc", "watch-tail",
                                 "repro-synth"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Compilers and tools keep their scratch files inside the checkout too.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    build()
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    failures = Failures()

    ungated = {}
    if args.trace:
        raw, shape = run_trace(args.workload, args.seed, work, failures)
        units = per_layer_names()
        metrics = {}
        for name, unit in units:
            # A layer the workload never calls did no work: 0.
            value = raw.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
        note = "traced profile"
    else:
        if args.workload in ("batch-tsv", "batch-mtlc"):
            raw, shape, note = workload_batch(args.workload, args.seed,
                                              args.seconds, work, failures)
        elif args.workload == "watch-tail":
            raw, shape, note = workload_watch(args.seed, args.seconds, work,
                                              failures)
        else:
            raw, shape, note = workload_synth(args.seed, args.seconds, work,
                                              failures)
        metrics = {name: {"value": raw[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        ungated = {name: (raw[name], unit)
                   for name, unit in WATCH_LATENCY.items() if name in raw}

    correct = failures.failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())
    print("workload %s, seed %d: %s" % (args.workload, args.seed, note))
    print("input shape: " + json.dumps(shape, sort_keys=True))
    for name, metric in metrics.items():
        print("  %-44s %16.6f %s" % (name, metric["value"], metric["unit"]))
    for name, (value, unit) in ungated.items():
        print("  %-44s %16.6f %s (not gated)" % (name, value, unit))
    print("  %-44s %16.6f %s" % ("fail_ratio", failures.failed /
                                 max(failures.attempted, 1), "ratio"))
    for reason in failures.reasons[:20]:
        print("  failure: " + reason)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": failures.attempted,
                      "failed": failures.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
