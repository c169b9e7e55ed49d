#!/usr/bin/env python3
"""End-to-end benchmark of the STG implementability checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the library, the in-process
executor (perfbench/harness.cpp) and the check daemon into .bench_build/,
runs one workload for about S seconds, checks every verdict against
perfbench/reference.json, and prints one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. End-to-end timings are calibrated against a
fixed BDD workload run between checks (perfbench/calib.hpp), so the
machine's changes of speed cancel out. perfbench/README.md explains the
workloads, the metrics, the calibration and how to read the trace.
"""

import argparse
import json
import math
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
SETUP_REPS = 51     # in-process set-up repetitions (median reported)
DAEMON_SETUPS = 15  # daemon spawn-to-pong repetitions (median reported)
# Calibration (calib.hpp): a slice after every CALIB_EVERY_S seconds of
# other work. Timings are reported at the calibrator's reference speed,
# measured time x CALIB_REF_S / the calibrator's time around it.
CALIB_EVERY_S = 0.1
CALIB_REF_S = 0.012
CALIB_WINDOW_S = 1.0  # slices this close to a timed interval calibrate it
SEGMENT_S = 1.0       # checkd-mixed: batch ops resubmit for this long,
SEGMENT_SLICES = 3    # then the load pauses for this many slices

PAPER_METHOD = {"engine": "cofactor", "strategy": "chaining", "threads": 1}
SATURATION = {"engine": "saturation"}

# (family, n, repetitions per round). Short instances repeat within a
# round, interleaved with the rest, so each one's median rests on several
# samples and a slow burst of the machine spreads over every instance. The
# first entry is the workload's interactive probe: its latency quantiles
# are the in-process interactive_p50_ms / interactive_p75_ms, so it repeats
# often enough for ten samples beyond p75 in every run.
TABLE1 = [("mutex", 8, 40), ("muller", 8, 9), ("muller", 16, 5),
          ("muller", 24, 1), ("muller", 32, 1), ("mread", 2, 9),
          ("mread", 4, 9), ("mread", 6, 5), ("mread", 8, 1), ("mutex", 4, 9),
          ("mutex", 12, 9), ("mutex", 16, 5), ("select", 8, 9),
          ("select", 16, 9), ("select", 32, 5)]
SCALED = [("muller", 32, 12), ("muller", 64, 3), ("mutex", 24, 3),
          ("mutex", 48, 1), ("select", 24, 5), ("select", 48, 3)]
BATCH = [("muller", 16), ("mutex", 12), ("mutex", 16), ("select", 24),
         ("select", 32), ("mread", 6)]
INTERACTIVE = [("muller", 8), ("mutex", 8), ("select", 16), ("mread", 4)]

OP_KINDS = ["and", "xor", "ite", "exists", "and_exists", "cofactor",
            "restrict", "and_exists_multi", "rel_next", "reach", "permute"]
PER_LAYER_UNITS = dict(
    [("stg.parse_s", "s"), ("encoding.build_s", "s"), ("encoding.vars", "count"),
     ("engine.build_s", "s"), ("engine.relation_nodes", "count"),
     ("traversal.s", "s"), ("traversal.passes", "count"),
     ("traversal.image_calls", "count"),
     ("traversal.peak_reached_nodes", "count"),
     ("checks.deadlock_s", "s"), ("checks.persistency_s", "s"),
     ("checks.commutativity_s", "s"), ("checks.csc_s", "s"),
     ("checks.rel_next_calls", "count"), ("bdd.sift_runs", "count"),
     ("bdd.sift_s", "s"), ("bdd.gc_runs", "count"), ("bdd.gc_s", "s"),
     ("bdd.cache_hit_rate.binary", "ratio"),
     ("bdd.cache_hit_rate.reach", "ratio"),
     ("bdd.cache_hit_rate.permute", "ratio")]
    + [("bdd.op_calls." + k, "count") for k in
       ("and", "exists", "and_exists", "cofactor", "rel_next", "reach",
        "permute")]
    + [("bdd.op_s." + k, "s") for k in OP_KINDS]
    + [("bdd.cache_lookups", "count"), ("bdd.unique_hits", "count"),
       ("bdd.peak_live_nodes", "count"), ("session.run_s", "s"),
       ("session.overhead_s", "s"), ("session.events", "count"),
       ("server.accept_ms", "ms"), ("server.queue_wait_ms", "ms"),
       ("server.run_ms", "ms"), ("trace.coverage", "ratio"),
       ("trace.overhead", "ratio"), ("calib.slice_ms", "ms")])
# The replica's top-level spans; their sum over the check's wall time is
# trace.coverage.
NAMED_SPANS = ["stg.parse_s", "encoding.build_s", "engine.build_s",
               "traversal_s", "checks.deadlock_s", "checks.persistency_s",
               "checks.commutativity_s", "checks.csc_s", "report.render_s"]
UNITS = {"check_s": "s", "check_geomean_ms": "ms", "peak_live_nodes": "nodes",
         "peak_rss_mb": "MB", "check_pass_ratio": "ratio", "setup_s": "s",
         "interactive_p50_ms": "ms", "interactive_p75_ms": "ms",
         "batch_nets_per_s": "1/s"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark's binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        raise SystemExit("perfbench: run from the root of a stgcheck "
                         "checkout (no src/ here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4"], stdout=sys.stderr,
                   check=True)
    os.makedirs(RUN_DIR, exist_ok=True)


def instance(family, n, options):
    options = dict(options)
    if family == "mutex":
        # All-pairs arbitration, as bench_common.hpp::mutex_options: the
        # grant conflicts are by design.
        options["arbitrate"] = [["g%d" % i, "g%d" % j]
                                for i in range(1, n + 1)
                                for j in range(i + 1, n + 1)]
    return {"name": "%s%d" % (family, n), "family": family, "n": n,
            "options": options}


def load_reference():
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        return json.load(f)["instances"]


def matches(ref, level, states, markings):
    return (level == ref["level"] and states == ref["states"]
            and markings == ref["markings"])


median = statistics.median


def quartile3(xs):
    return statistics.quantiles(xs, n=4)[2] if len(xs) > 1 else xs[0]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


class Calibration:
    """The calibrator slices of one run, [(start, seconds)] on the
    monotonic clock."""

    def __init__(self, slices):
        if len(slices) < 3:
            raise SystemExit("perfbench: too few calibration slices")
        self.slices = sorted(slices)

    def scale(self, t0, seconds):
        """Factor that turns a time measured over [t0, t0 + seconds] into
        reference-speed time: CALIB_REF_S over the median of the slices
        within CALIB_WINDOW_S of the interval, or of the three nearest."""
        lo, hi = t0 - CALIB_WINDOW_S, t0 + seconds + CALIB_WINDOW_S
        near = [d for t, d in self.slices if lo <= t <= hi]
        if len(near) < 3:
            mid = t0 + seconds / 2
            near = [d for _, d in
                    sorted(self.slices, key=lambda s: abs(s[0] - mid))[:3]]
        return CALIB_REF_S / median(near)

    def slice_ms(self):
        return 1000 * median([d for _, d in self.slices])


def run_harness(plan, seconds):
    path = os.path.join(RUN_DIR, "plan-%d.json" % os.getpid())
    with open(path, "w") as f:
        json.dump(plan, f)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD_DIR, "stg_perfbench"), path],
            stdout=subprocess.PIPE, text=True, timeout=seconds + 120)
    finally:
        os.remove(path)
    if proc.returncode != 0:
        raise SystemExit("perfbench: stg_perfbench exited %d" % proc.returncode)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    return lines[:-1], lines[-1]


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def in_process(specs, options, args):
    rng = random.Random(args.seed)
    insts = [instance(f, n, options) for f, n, _ in specs]
    multiset = [i for i, spec in enumerate(specs) for _ in range(spec[2])]
    rounds = []
    for _ in range(200):
        rng.shuffle(multiset)
        rounds.append(list(multiset))
    checks, summary = run_harness(
        {"seconds": args.seconds, "trace": args.trace,
         "setup_reps": SETUP_REPS, "calib_every_s": CALIB_EVERY_S,
         "instances": insts, "rounds": rounds},
        args.seconds)

    ref = load_reference()
    calib = Calibration(summary["calib_s"])
    times = [[] for _ in insts]
    peaks = [None] * len(insts)
    layers = [[] for _ in insts]
    failed = 0
    for c in checks:
        i = c["i"]
        if "error" in c:
            log("%s failed: %s" % (insts[i]["name"], c["error"]))
            failed += 1
            continue
        if not matches(ref[insts[i]["name"]], c["level"], c["states"],
                       c["markings"]):
            log("%s: %s, %s states, %s markings differ from the reference"
                % (insts[i]["name"], c["level"], c["states"], c["markings"]))
            failed += 1
            continue
        times[i].append(c["s"] * calib.scale(c["t"], c["s"]))
        if peaks[i] is not None and peaks[i] != c["peak"]:
            log("%s: peak %d then %d" % (insts[i]["name"], peaks[i], c["peak"]))
        peaks[i] = c["peak"]
        if "layers" in c:
            layers[i].append(c["layers"])
    if any(not t for t in times):
        raise SystemExit("perfbench: an instance has no passing check")

    if args.trace:
        metrics = in_process_layers(layers)
        metrics["calib.slice_ms"] = calib.slice_ms()
    else:
        medians = [median(t) for t in times]
        every = [s for t in times for s in t]
        probe = times[0]
        metrics = {
            "check_s": sum(medians),
            "check_geomean_ms": 1000 * geomean(medians),
            "peak_live_nodes": sum(peaks),
            "peak_rss_mb": summary["max_rss_kb"] / 1024,
            "check_pass_ratio": (len(checks) - failed) / len(checks),
            "setup_s": median([d * calib.scale(t, d)
                               for t, d in summary["setup_s"]]),
            "interactive_p50_ms": 1000 * median(probe),
            "interactive_p75_ms": 1000 * quartile3(probe),
            "batch_nets_per_s": len(every) / sum(every),
        }
    log("%d rounds, %d checks in %.1f s" % (summary["rounds"], len(checks),
                                            summary["measured_s"]))
    return len(checks), failed, metrics


def in_process_layers(layers):
    """Per-layer metrics of one pass over the instance set: per instance the
    median of each value over its traced samples, summed over instances."""
    keys = layers[0][0].keys()
    total = {k: sum(median([s[k] for s in samples]) for samples in layers)
             for k in keys}

    def rate(group):
        lookups = total["bdd.%s_lookups" % group]
        return total["bdd.%s_hits" % group] / lookups if lookups else 0.0

    m = {k: total[k] for k in PER_LAYER_UNITS if k in total}
    m["traversal.s"] = total["traversal_s"]
    m["bdd.cache_hit_rate.binary"] = rate("binary")
    m["bdd.cache_hit_rate.reach"] = rate("reach")
    m["bdd.cache_hit_rate.permute"] = rate("permute")
    m["session.overhead_s"] = sum(
        median([s["session.run_s"] - s["session.check_s"] - s["encoding.build_s"]
                for s in samples]) for samples in layers)
    m["server.accept_ms"] = m["server.queue_wait_ms"] = m["server.run_ms"] = 0.0
    flat = [s for samples in layers for s in samples]
    m["trace.coverage"] = (sum(s[k] for s in flat for k in NAMED_SPANS)
                           / sum(s["wall_s"] for s in flat))
    m["trace.overhead"] = total["wall_s"] / total["ref_wall_s"]
    return m


# ---------------------------------------------------------------------------
# Daemon workload
# ---------------------------------------------------------------------------

class Daemon:
    """One stg_checkd child on a socket inside the run directory."""

    def __init__(self, tag):
        self.sock_name = "checkd-%d-%s.sock" % (os.getpid(), tag)
        self.sock_path = os.path.relpath(os.path.join(RUN_DIR, self.sock_name))
        if os.path.exists(self.sock_path):
            os.remove(self.sock_path)
        self.proc = subprocess.Popen(
            [os.path.join(BUILD_DIR, "stg_checkd"), "--socket", self.sock_name,
             "--threads", "2"], cwd=RUN_DIR, stderr=subprocess.DEVNULL)

    def connect(self):
        deadline = time.monotonic() + 30
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise SystemExit("perfbench: stg_checkd did not come up")
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise SystemExit("perfbench: no VmHWM for stg_checkd")

    def stop(self, conn=None):
        try:
            if conn is not None:
                conn.send({"op": "shutdown"})
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            if os.path.exists(self.sock_path):
                os.remove(self.sock_path)


class Conn:
    """A line-delimited JSON connection."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read_lines(self):
        """Reads what is available; returns complete lines (blocking once)."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise SystemExit("perfbench: stg_checkd closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(line) for line in lines if line]

    def request(self, obj):
        self.send(obj)
        while True:
            for line in self.read_lines():
                if "reply" in line:
                    return line


def spawn_until_pong(tag):
    t0 = time.monotonic()
    daemon = Daemon(tag)
    try:
        conn = daemon.connect()
        if conn.request({"op": "ping"}).get("reply") != "pong":
            raise SystemExit("perfbench: stg_checkd did not answer ping")
    except BaseException:
        daemon.stop()
        raise
    return time.monotonic() - t0, daemon, conn


def text_table(specs):
    insts = [instance(f, n, {}) for f, n in specs]
    checks, _ = run_harness({"seconds": 0, "trace": 0, "setup_reps": 1,
                             "calib_every_s": CALIB_EVERY_S,
                             "emit_texts": True, "instances": insts,
                             "rounds": []}, 0)
    texts = {c["name"]: c["net"] for c in checks}
    return [(i["name"], texts[i["name"]], i["options"]) for i in insts]


class Request:
    def __init__(self, name, written):
        self.name = name
        self.written = written
        self.accepted = self.started = self.done = None
        self.events = 0
        self.peak = None
        self.phases = {}
        self.passes = 0
        self.run_span = None  # daemon clock: session_start .. session_done
        self.ok = False


class Calibrator:
    """stg_perfbench serving calibration slices on request, for the load of
    another process. It runs only while that load is paused."""

    def __init__(self):
        self.plan = os.path.join(RUN_DIR, "calib-%d.json" % os.getpid())
        with open(self.plan, "w") as f:
            json.dump({"serve_calibration": True}, f)
        self.proc = subprocess.Popen(
            [os.path.join(BUILD_DIR, "stg_perfbench"), self.plan],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.slices = []

    def take(self, n):
        self.proc.stdin.write("%d\n" % n)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the calibrator stopped")
        self.slices += json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            os.remove(self.plan)


def checkd_mixed(args):
    rng = random.Random(args.seed)
    batch_nets = text_table(BATCH)
    interactive_nets = text_table(INTERACTIVE)

    # Set-up: spawn to first pong, several times, after calibration
    # slices; the last daemon serves.
    calibrator = Calibrator()
    daemon = None
    try:
        calibrator.take(SEGMENT_SLICES)
        setups = []
        for k in range(DAEMON_SETUPS):
            t0 = time.monotonic()
            elapsed, daemon, conn = spawn_until_pong("s%d" % k)
            setups.append((t0, elapsed))
            if k + 1 < DAEMON_SETUPS:
                daemon.stop(conn)
        metrics, attempted, failed = drive_daemon(
            daemon, calibrator, rng, batch_nets, interactive_nets, args)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    finally:
        calibrator.close()
    calib = Calibration(calibrator.slices)
    metrics["setup_s"] = median([d * calib.scale(t, d) for t, d in setups])
    daemon.stop(conn)
    return attempted, failed, metrics


def drive_daemon(daemon, calibrator, rng, batch_nets, interactive_nets, args):
    """Closed loop on two connections, in segments of about SEGMENT_S. In a
    segment the batch connection resubmits the batch set as one batch op,
    and the interactive connection sends single checks back to back, until
    the last batch is done. Between segments both connections are idle and
    the calibrator takes its slices."""
    ref = load_reference()
    batch = daemon.connect()
    inter = daemon.connect()
    sel = selectors.DefaultSelector()
    sel.register(batch.sock, selectors.EVENT_READ, batch)
    sel.register(inter.sock, selectors.EVENT_READ, inter)
    pending = {}   # session id -> Request
    finished = []  # (connection tag, Request)
    segments = []  # (start, seconds) of each segment's batch ops
    counter = [0]

    def submit_batch(now):
        nets = list(batch_nets)
        rng.shuffle(nets)
        entries = []
        for name, text, options in nets:
            counter[0] += 1
            sid = "b%d.%s" % (counter[0], name)
            pending[sid] = Request(name, now)
            entry = {"id": sid, "net": text}
            if options:
                entry["options"] = options
            entries.append(entry)
        batch.send({"op": "batch", "id": "batch%d" % counter[0],
                    "nets": entries})

    def submit_interactive(now):
        name, text, options = rng.choice(interactive_nets)
        counter[0] += 1
        sid = "i%d.%s" % (counter[0], name)
        pending[sid] = Request(name, now)
        msg = {"op": "check", "id": sid, "net": text}
        if options:
            msg["options"] = options
        inter.send(msg)

    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        calibrator.take(SEGMENT_SLICES)
        seg_start = time.monotonic()
        if seg_start >= deadline:
            break
        submit_batch(seg_start)
        submit_interactive(seg_start)
        batch_open = inter_open = True
        while batch_open or inter_open:
            ready = sel.select(timeout=120)
            if not ready:
                raise SystemExit("perfbench: stg_checkd stopped answering")
            for key, _ in ready:
                conn = key.data
                now = time.monotonic()
                for line in conn.read_lines():
                    sid = line.get("session")
                    req = pending.get(sid)
                    if "event" in line and req is not None:
                        req.events += 1
                        kind = line["event"]
                        if kind == "session_start":
                            req.started = now
                            req.run_span = -line["at"]
                        elif kind == "phase_done":
                            req.phases[line["label"]] = line["metrics"]["seconds"]
                        elif kind == "traversal_done":
                            req.passes = line["metrics"].get("passes", 0)
                        elif kind == "session_done":
                            req.run_span += line["at"]
                            req.peak = line["metrics"]["peak_live_nodes"]
                        continue
                    reply = line.get("reply")
                    if reply == "accepted" and req is not None:
                        req.accepted = now
                    elif reply == "result" and req is not None:
                        req.done = now
                        report = line.get("report")
                        req.ok = report is not None and matches(
                            ref[req.name], report["level"],
                            report["traversal"]["states"],
                            report["traversal"]["markings"])
                        if not req.ok:
                            log("%s failed: %s" % (sid, json.dumps(line)[:300]))
                        del pending[sid]
                        finished.append((sid[0], req))
                        if sid[0] == "i":
                            if batch_open:
                                submit_interactive(now)
                            else:
                                inter_open = False
                    elif reply == "batch_done":
                        if now - seg_start < SEGMENT_S and now < deadline:
                            submit_batch(now)
                        else:
                            batch_open = False
                            segments.append((seg_start, now - seg_start))
                    elif reply == "error":
                        raise SystemExit("perfbench: stg_checkd error %s" % line)
    rss = daemon.peak_rss_mb()
    sel.close()
    for c in (batch, inter):
        c.sock.close()
    calib = Calibration(calibrator.slices)

    attempted = len(finished)
    failed = sum(1 for _, r in finished if not r.ok)
    good = [(tag, r) for tag, r in finished if r.ok]
    by_name = {}
    for _, r in good:
        by_name.setdefault(r.name, []).append(r)
    inter_lat = [(r.done - r.written) * calib.scale(r.written, r.done - r.written)
                 for tag, r in good if tag == "i"]
    if len(by_name) < len(batch_nets) + len(interactive_nets):
        raise SystemExit("perfbench: some instance never passed a check")

    if args.trace:
        metrics = daemon_layers(good, by_name)
        metrics["calib.slice_ms"] = calib.slice_ms()
    else:
        medians = [median([(r.done - r.started)
                           * calib.scale(r.started, r.done - r.started)
                           for r in rs])
                   for rs in by_name.values()]
        batch_s = sum(d * calib.scale(t, d) for t, d in segments)
        metrics = {
            "check_s": sum(medians),
            "check_geomean_ms": 1000 * geomean(medians),
            "peak_live_nodes": sum(rs[0].peak for rs in by_name.values()),
            "peak_rss_mb": rss,
            "check_pass_ratio": (attempted - failed) / attempted,
            "interactive_p50_ms": 1000 * median(inter_lat),
            "interactive_p75_ms": 1000 * quartile3(inter_lat),
            "batch_nets_per_s": sum(1 for tag, _ in finished if tag == "b")
            / batch_s,
        }
    log("%d interactive, %d batch checks in %d segments, %.1f s" % (
        len(inter_lat), sum(1 for tag, _ in finished if tag == "b"),
        len(segments), time.monotonic() - start))
    return metrics, attempted, failed


def daemon_layers(good, by_name):
    """Per-layer metrics visible from outside the daemon: client-side request
    timestamps and the streamed session records. The rest read 0."""
    inter = [r for tag, r in good if tag == "i"]
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    m["server.accept_ms"] = 1000 * median([r.accepted - r.written for r in inter])
    m["server.queue_wait_ms"] = 1000 * median([r.started - r.accepted
                                               for r in inter])
    m["server.run_ms"] = 1000 * median([r.done - r.started for r in inter])

    def per_pass(f):
        return sum(median([f(r) for r in rs]) for rs in by_name.values())

    m["traversal.s"] = per_pass(lambda r: r.phases.get("traversal", 0))
    m["traversal.passes"] = per_pass(lambda r: r.passes)
    m["checks.persistency_s"] = per_pass(lambda r: r.phases.get("persistency", 0))
    m["checks.commutativity_s"] = per_pass(
        lambda r: r.phases.get("commutativity", 0))
    m["checks.csc_s"] = per_pass(lambda r: r.phases.get("csc", 0))
    m["session.run_s"] = per_pass(lambda r: r.run_span)
    m["session.overhead_s"] = per_pass(
        lambda r: r.run_span - sum(r.phases.values()))
    m["session.events"] = per_pass(lambda r: r.events)
    m["bdd.peak_live_nodes"] = per_pass(lambda r: r.peak)
    m["trace.coverage"] = per_pass(lambda r: sum(r.phases.values())) \
        / m["session.run_s"]
    m["trace.overhead"] = 1.0
    return m


# ---------------------------------------------------------------------------

WORKLOADS = {
    "table1-cofactor": lambda a: in_process(TABLE1, PAPER_METHOD, a),
    "scaled-saturation": lambda a: in_process(SCALED, SATURATION, a),
    "checkd-mixed": checkd_mixed,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    attempted, failed, metrics = WORKLOADS[args.workload](args)
    if args.trace:
        units = PER_LAYER_UNITS
    else:
        units = UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit("perfbench: metrics not produced: %s" % sorted(missing))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
