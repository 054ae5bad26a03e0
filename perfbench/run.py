#!/usr/bin/env python3
"""moca's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release binaries (`repro`,
`moca_serve`) and the benchmark helper (`perfbench/probe`, a package of
its own) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
workload:

  suite-quick   `repro --quick --jobs 2`: all 18 experiments, one fresh
                process per unit.
  search-full   the full-scale S1 NSGA-II search through
                `moca_search::run_search`, one fresh process per search.
  serve-mixed   `moca_serve --quick --jobs 2` on a fresh journal, driven by
                a closed loop of 2 connections replaying a seeded
                100-request script.

With `--trace 0` it repeats the workload's unit until `--seconds` have
passed, checks every output, and prints the end-to-end metrics. With
`--trace 1` it runs the unit once untraced, then the workload's layer
probe with and without spans, and prints the per-layer ledger. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Human-readable detail goes to the lines before it and to stderr.

See perfbench/NOTES.md for the rationale, predictions and seed handling.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BIN = os.path.join(TARGET, "release")
WORK = os.path.join(TARGET, "perfbench-work")
JOBS = "2"
# Extra spawn-until-ready samples per run, on top of one per unit.
SETUP_SAMPLES = 5
# Every run draws its inputs from a pool of this many search seeds and
# request scripts, each with pinned output digests, so every run checks
# its outputs against a pin whatever its `--seed`.
POOL = 4
# End-to-end host times are reported at the host speed on which the
# benchmark's reference kernel (`moca_perfbench calibrate`) takes this long.
REFERENCE_S = 0.1
# Host times move as this power of the kernel's time. The fitted exponent
# changed with the kind of slowdown (0.4 to 2.1 between phases); over 180
# runs in six sets of ten per workload, 1.5 gave the smallest worst spread
# of a set on every workload (perfbench/NOTES.md, "Host-speed
# normalization").
SENSITIVITY = 1.5
# Kernel runs before each unit and at the end; a run's kernel median is
# raised to SENSITIVITY, so its sampling error counts more than once.
KERNEL_RUNS = 3
UNIT_TIMEOUT_S = 150

WORKLOADS = ("suite-quick", "search-full", "serve-mixed")
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
PER_LAYER = {
    "trace.generate.refs": "count",
    "trace.generate.busy_ms": "ms",
    "trace.generate.ns_per_ref": "ns",
    "trace.decode.refs": "count",
    "trace.decode.busy_ms": "ms",
    "trace.decode.bytes": "bytes",
    "trace.decode.errors": "count",
    "sim.arena.hits": "count",
    "sim.arena.misses": "count",
    "sim.arena.rejected": "count",
    "sim.arena.hit_ratio": "ratio",
    "cache.l1.refs": "count",
    "cache.l1.busy_ms": "ms",
    "cache.l1.pass_ratio": "ratio",
    "core.l2.requests": "count",
    "core.l2.busy_ms": "ms",
    "core.l2.ns_per_request.shared": "ns",
    "core.l2.ns_per_request.static": "ns",
    "core.l2.ns_per_request.dynamic": "ns",
    "energy.finish.points": "count",
    "energy.finish.busy_ms": "ms",
    "cache.mrc.requests": "count",
    "cache.mrc.busy_ms": "ms",
    "search.simulated": "count",
    "search.fastpath_ratio": "ratio",
    "search.archive_ratio": "ratio",
    "search.rank.calls": "count",
    "search.rank.busy_ms": "ms",
    "journal.append_records": "count",
    "journal.append_bytes": "bytes",
    "journal.append_ms": "ms",
    "journal.replay_records": "count",
    "journal.open_ms": "ms",
    "serve.admit_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.position_mean": "count",
    "serve.reply_bytes": "bytes",
    "serve.shed.queue-full": "count",
    "serve.shed.client-quota": "count",
    "serve.shed.draining": "count",
    "ledger.probe_cpu_ratio": "ratio",
    "ledger.trace_overhead_ms": "ms",
}
# Spans whose busy time is work of a measured layer (the ledger's
# probe-to-unit CPU ratio); `sim.system.run_batch` is the whole-point
# reference and `point`/`identity`/`search.run` are containers, so they
# are not.
LAYER_SPANS = (
    "trace.generate",
    "trace.decode",
    "cache.l1",
    "cache.mrc",
    "core.l2.shared",
    "core.l2.static",
    "core.l2.dynamic",
    "energy.finish",
    "search.rank",
    "journal.open",
    "journal.append",
)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, problems, what):
        """Records one operation; `problems` lists what went wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: " + "; ".join(problems))


LIVE = []


class Proc:
    """A child process with timestamped output lines and rusage on exit."""

    def __init__(self, cmd, ready=None):
        self.ready_at = None
        self._ready = threading.Event()
        self._ready_pred = ready
        self.lines = {"out": [], "err": []}
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        LIVE.append(self.p)
        self._readers = [
            threading.Thread(target=self._read, args=(self.p.stdout, "out"), daemon=True),
            threading.Thread(target=self._read, args=(self.p.stderr, "err"), daemon=True),
        ]
        for r in self._readers:
            r.start()

    def _read(self, stream, name):
        for raw in iter(stream.readline, b""):
            ts = time.perf_counter()
            line = raw.decode("utf-8", "replace").rstrip("\n")
            self.lines[name].append((ts, line))
            if self.ready_at is None and self._ready_pred and self._ready_pred(name, line):
                self.ready_at = ts
                self._ready.set()
        stream.close()

    def wait_ready(self, timeout):
        return self._ready.wait(timeout)

    def signal(self, sig):
        if self.p.returncode is None:
            try:
                self.p.send_signal(sig)
            except ProcessLookupError:
                pass

    def finish(self, timeout=UNIT_TIMEOUT_S):
        """Reaps the process (killing it after `timeout`); returns itself."""
        watchdog = threading.Timer(timeout, self.signal, args=(signal.SIGKILL,))
        watchdog.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            watchdog.cancel()
        self.t_end = time.perf_counter()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        for r in self._readers:
            r.join()
        LIVE.remove(self.p)
        self.code = self.p.returncode
        self.wall = self.t_end - self.t0
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.setup = None if self.ready_at is None else self.ready_at - self.t0
        return self

    def text(self, name):
        return "\n".join(line for _, line in self.lines[name])


def stop_all():
    for p in list(LIVE):
        if p.returncode is None:
            try:
                p.kill()
            except ProcessLookupError:
                pass
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        LIVE.remove(p)


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml here: run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "moca", "-p", "moca-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def exe(name):
    return os.path.join(BIN, name)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pinned():
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f)


def fresh_dir(tag):
    d = os.path.join(WORK, f"{os.getpid()}-{tag}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------- units


def suite_unit(checks, pins):
    """One cold `repro --quick --jobs 2` over the whole suite."""
    p = Proc([exe("repro"), "--quick", "--jobs", JOBS, "--progress"],
             ready=lambda s, line: s == "out").finish()
    out = p.text("out")
    problems = []
    body, sep, footer = out.partition("\n---\n")
    if p.code != 0:
        problems.append(f"exit {p.code}")
    if not sep:
        problems.append("no --- footer")
    elif sha256(body + "\n") != pins["suite-quick"]:
        problems.append("report body digest differs from the pinned digest")
    if "18 experiments, 0 failed claim set(s), 0 aborted" not in footer:
        problems.append("footer reports failed claims or aborted experiments")
    # Per-experiment latency: heartbeat to heartbeat, the last one to the
    # `---` separator line.
    beats = [ts for ts, line in p.lines["err"] if line.startswith("[progress] ")]
    end = next((ts for ts, line in p.lines["out"] if line == "---"), p.t_end)
    lat = [(b - a) * 1e3 for a, b in zip(beats, beats[1:] + [end])]
    if len(lat) != 18:
        problems.append(f"{len(lat)} progress heartbeats, expected 18")
    m = re.search(r"trace arena: \d+ chunk\(s\) cached, (\d+) hit\(s\) / (\d+) miss\(es\).*?(\d+) rejected",
                  footer)
    arena = tuple(int(x) for x in m.groups()) if m else (0, 0, 0)
    checks.op(problems, "suite-quick unit")
    return {"wall": p.wall, "cpu": p.cpu, "rss": p.rss_mb, "setup": p.setup,
            "requests": len(lat), "lat": lat, "arena": arena}


def search_seed(run_seed, k):
    """Search seed of unit `k`: each run cycles through the pinned pool,
    starting at an offset set by its seed, so a run of 4 or more units
    covers the whole pool; search seed 0 is the repository's own S1."""
    return (run_seed + k) % POOL


def script_seed(run_seed):
    """Request script of `serve-mixed`: one of the pinned pool."""
    return run_seed % POOL


def search_unit(checks, pins, seed):
    """One cold process running the full-scale S1 search."""
    p = Proc([exe("moca_perfbench"), "search", "--seed", str(seed)],
             ready=lambda s, line: s == "out" and line == "ready").finish()
    lines = [line for _, line in p.lines["out"]]
    problems = []
    summary = {}
    if p.code != 0:
        problems.append(f"exit {p.code}: {p.text('err')[-400:]}")
    if lines and lines[-1].startswith("#summary "):
        summary = json.loads(lines[-1][len("#summary "):])
        render = "\n".join(lines[1:-1]) + "\n"
        if not summary["claims_pass"]:
            problems.append("S1 dominate-or-tie claims failed")
        if sha256(render) != pins["search-full"][str(seed)]:
            problems.append("rendered outcome differs from the pinned digest")
    else:
        problems.append("no #summary line")
    checks.op(problems, f"search-full unit (seed {seed})")
    return {"wall": p.wall, "cpu": p.cpu, "rss": p.rss_mb, "setup": p.setup,
            "requests": summary.get("evaluated", 0), "lat": [p.wall * 1e3]}


def start_daemon(d):
    sock = os.path.relpath(os.path.join(d, "serve.sock"), ROOT)
    daemon = Proc([exe("moca_serve"), "--socket", sock, "--checkpoint", os.path.join(d, "journal"),
                   "--quick", "--jobs", JOBS],
                  ready=lambda s, line: s == "err" and "listening" in line)
    return daemon, sock


def drain(daemon, expected_jobs, problems):
    """SIGTERM, reap, and check the drain summary."""
    daemon.signal(signal.SIGTERM)
    daemon.finish(60)
    if daemon.code != 0:
        problems.append(f"daemon exit {daemon.code}")
    m = re.search(r"drained cleanly \((\d+) job\(s\) completed", daemon.text("err"))
    if not m:
        problems.append("no drain summary")
    elif int(m.group(1)) != expected_jobs:
        problems.append(f"drain summary counts {m.group(1)} jobs, {expected_jobs} were sent")


def serve_unit(checks, pins, seed, conns, keep=False):
    """One cold daemon serving script `seed` over `conns` connections."""
    d = fresh_dir(f"serve-{conns}")
    daemon, sock = start_daemon(d)
    rows, keys, problems = [], [], []
    try:
        if not daemon.wait_ready(30):
            raise BenchError("moca_serve never printed its listening line: "
                             + daemon.text("err")[-400:])
        try:
            client = subprocess.run(
                [exe("moca_perfbench"), "serve-client", "--socket", sock, "--seed", str(seed),
                 "--conns", str(conns)],
                cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            client = subprocess.CompletedProcess([], -1, "", "client timed out")
        for line in client.stdout.splitlines():
            if line.startswith("#key "):
                keys.append(line[len("#key "):])
            elif line.startswith("{"):
                rows.append(json.loads(line))
        if client.returncode != 0:
            problems.append(f"client exit {client.returncode}: {client.stderr[-400:]}")
        drain(daemon, len(rows), problems)
    finally:
        if daemon.p.returncode is None:
            daemon.signal(signal.SIGKILL)
            daemon.finish(30)
        if not keep:
            shutil.rmtree(d, ignore_errors=True)
    checks.op(problems, f"serve-mixed replay (seed {seed}, {conns} connection(s))")
    pin = pins["serve-mixed"][str(seed)]
    for r in rows:
        bad = []
        if not r["terminal"].startswith("result-"):
            bad.append(f"terminal reply {r['terminal']}")
        if r["repeat_of"] >= 0 and r["digest"] != rows[r["repeat_of"]]["digest"]:
            bad.append(f"repeat of request {r['repeat_of']} replied differently")
        if r["digest"] != pin[r["i"]]:
            bad.append("reply differs from the pinned digest")
        checks.op(bad, f"serve-mixed request {r['i']} ({r['kind']})")
    start = min((r["send_ns"] for r in rows), default=0)
    end = max((r["done_ns"] for r in rows), default=1)
    makespan = max(end - start, 1) / 1e9
    return {"wall": makespan, "cpu": daemon.cpu, "rss": daemon.rss_mb, "setup": daemon.setup,
            "requests": len(rows), "lat": [(r["done_ns"] - r["send_ns"]) / 1e6 for r in rows],
            "rows": rows, "keys": keys, "dir": d}


# -------------------------------------------------------- setup samples


def setup_sample(workload, checks):
    """Spawn until ready, then stop; returns seconds to ready."""
    if workload == "serve-mixed":
        d = fresh_dir("setup")
        daemon, _ = start_daemon(d)
        try:
            ok = daemon.wait_ready(30)
            problems = [] if ok else ["never ready"]
            drain(daemon, 0, problems)
        finally:
            if daemon.p.returncode is None:
                daemon.signal(signal.SIGKILL)
                daemon.finish(30)
            shutil.rmtree(d, ignore_errors=True)
        checks.op(problems, "moca_serve start/drain")
        return daemon.setup
    if workload == "suite-quick":
        p = Proc([exe("repro"), "--quick", "--jobs", JOBS], ready=lambda s, line: s == "out")
    else:
        p = Proc([exe("moca_perfbench"), "search", "--seed", "0"],
                 ready=lambda s, line: s == "out" and line == "ready")
    p.wait_ready(30)
    p.signal(signal.SIGKILL)
    p.finish(30)
    return p.setup


# ------------------------------------------------------------ untraced


def calibrate():
    """Seconds the host-speed reference kernel takes right now."""
    r = subprocess.run([exe("moca_perfbench"), "calibrate"], cwd=ROOT, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=60)
    if r.returncode != 0:
        raise BenchError(f"calibrate failed: {r.stderr[-400:]}")
    return int(r.stdout) / 1e9


def measure(workload, seed, seconds, checks):
    pins = pinned()
    units = []
    host = []
    # The first kernel time after an idle spell reads slow; discard it.
    calibrate()
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        k = len(units)
        host += [calibrate() for _ in range(KERNEL_RUNS)]
        if workload == "suite-quick":
            u = suite_unit(checks, pins)
        elif workload == "search-full":
            u = search_unit(checks, pins, search_seed(seed, k))
        else:
            u = serve_unit(checks, pins, script_seed(seed), 2)
        units.append(u)
    setups = [u["setup"] for u in units if u["setup"] is not None]
    setups += [s for s in (setup_sample(workload, checks) for _ in range(SETUP_SAMPLES))
               if s is not None]
    if not setups:
        raise BenchError("no process ever became ready")
    host += [calibrate() for _ in range(KERNEL_RUNS)]
    lat = [x for u in units for x in u["lat"]]
    raw = {
        "wall_s": statistics.median(u["wall"] for u in units),
        "cpu_s": statistics.median(u["cpu"] for u in units),
        "peak_rss_mb": statistics.median(u["rss"] for u in units),
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(u["requests"] / u["wall"] for u in units),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90(lat),
    }
    # Slow host drift (up to 2x within minutes on shared hosts) moves the
    # reference kernel with the units; scaling by it keeps runs made
    # minutes apart comparable. Memory is not a host time.
    scale = (REFERENCE_S / statistics.median(host)) ** SENSITIVITY
    metrics = {k: v if k == "peak_rss_mb" else v / scale if k == "throughput_rps" else v * scale
               for k, v in raw.items()}
    print(f"{workload}: {len(units)} unit(s) in {time.perf_counter() - start:.1f} s, "
          f"{len(lat)} latency sample(s), {len(setups)} setup sample(s); unit walls "
          + " ".join(f"{u['wall']:.3f}" for u in units))
    print("host reference: " + " ".join(f"{h * 1e3:.1f}" for h in host)
          + f" ms, scale {scale:.4f}; unscaled: "
          + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"failed_share: {checks.failed}/{checks.attempted}"
          f" = {checks.failed / max(checks.attempted, 1):.4f}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


# -------------------------------------------------------------- traced


def run_probe(args, checks, work=False):
    """Runs a probe without spans, then with; returns spans, counters, overhead.

    With `work`, each run gets a fresh `--work` directory of its own, so
    both do the same work and neither sees what the other wrote."""
    walls = []
    for spans in (False, True):
        cmd = [exe("moca_perfbench")] + args + ([] if spans else ["--no-spans"])
        d = fresh_dir("probe") if work else None
        try:
            r = subprocess.run(cmd + (["--work", d] if d else []), cwd=ROOT,
                               stdin=subprocess.DEVNULL, capture_output=True, text=True,
                               timeout=UNIT_TIMEOUT_S)
        finally:
            if d:
                shutil.rmtree(d, ignore_errors=True)
        problems = [] if r.returncode == 0 else [f"exit {r.returncode}: {r.stderr[-400:]}"]
        span_rows, counters, wall = [], {}, None
        for line in r.stdout.splitlines():
            if line.startswith("#wall_ns "):
                wall = int(line.split()[1]) / 1e9
            elif line.startswith('{"span"'):
                span_rows.append(json.loads(line))
            elif line.startswith('{"counter"'):
                c = json.loads(line)
                counters[c["counter"]] = c["value"]
        if wall is None:
            problems.append("no #wall_ns line")
        if counters.get("probe.mismatch", 0):
            problems.append(f"{counters['probe.mismatch']:.0f} layer replay(s) disagree "
                            "with the whole-point reference")
        checks.op(problems, f"probe {args[0]} ({'spans' if spans else 'no spans'})")
        walls.append(wall or 0.0)
    return span_rows, counters, walls[1] - walls[0]


def ledger(span_rows):
    """Per span name: calls, busy ms and self ms (busy minus child spans)."""
    child = {}
    for s in span_rows:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    table = {}
    for s in span_rows:
        dur = s["end_ns"] - s["start_ns"]
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur / 1e6
        row[2] += (dur - child.get(s["span"], 0)) / 1e6
    return table


def traced(workload, seed, checks):
    pins = pinned()
    m = dict.fromkeys(PER_LAYER, 0.0)
    counters, table, overhead = {}, {}, 0.0
    if workload == "suite-quick":
        u = suite_unit(checks, pins)
        hits, misses, rejected = u["arena"]
        m["sim.arena.hits"], m["sim.arena.misses"], m["sim.arena.rejected"] = hits, misses, rejected
        spans, counters, overhead = run_probe(["probe-suite"], checks)
    elif workload == "search-full":
        u = search_unit(checks, pins, search_seed(seed, 0))
        spans, counters, overhead = run_probe(["probe-search", "--seed", str(search_seed(seed, 0))],
                                              checks)
        for k in ("hits", "misses", "rejected"):
            m[f"sim.arena.{k}"] = counters.get(f"sim.arena.{k}", 0)
        fresh = counters.get("search.pruned", 0) + counters.get("search.simulated", 0)
        m["search.simulated"] = counters.get("search.simulated", 0)
        m["search.fastpath_ratio"] = counters.get("search.pruned", 0) / max(fresh, 1)
        m["search.archive_ratio"] = counters.get("search.cached", 0) / max(
            counters.get("search.evaluated", 0), 1)
    else:
        script = script_seed(seed)
        alone = serve_unit(checks, pins, script, 1)
        u = serve_unit(checks, pins, script, 2, keep=True)
        try:
            keys = os.path.join(u["dir"], "keys.txt")
            with open(keys, "w") as f:
                f.write("".join(k + "\n" for k in u["keys"]))
            spans, counters, overhead = run_probe(
                ["probe-serve", "--seed", str(script), "--journal", os.path.join(u["dir"], "journal"),
                 "--keys", keys], checks, work=True)
        finally:
            shutil.rmtree(u["dir"], ignore_errors=True)
        rows, alone_rows = u["rows"], {r["i"]: r for r in alone["rows"]}
        n = max(len(rows), 1)
        m["journal.append_records"] = sum(r["appends"] for r in rows)
        m["journal.replay_records"] = sum(r["replays"] for r in rows)
        m["serve.admit_ms"] = sum(r["queued_ns"] - r["send_ns"] for r in rows) / n / 1e6
        m["serve.exec_ms"] = sum(r["done_ns"] - r["queued_ns"] for r in alone["rows"]) / n / 1e6
        m["serve.queue_wait_ms"] = sum(
            (r["done_ns"] - r["send_ns"]) - (alone_rows[r["i"]]["done_ns"] - alone_rows[r["i"]]["send_ns"])
            for r in rows if r["i"] in alone_rows) / n / 1e6
        m["serve.position_mean"] = sum(max(r["position"], 0) for r in rows) / n
        m["serve.reply_bytes"] = sum(r["reply_bytes"] for r in rows)
        for r in rows:
            if r["terminal"].startswith("shed:"):
                key = "serve.shed." + r["terminal"][len("shed:"):]
                m[key] = m.get(key, 0) + 1
    table = ledger(spans)

    def busy(name):
        return table.get(name, [0, 0.0, 0.0])[1]

    c = counters.get
    m["trace.generate.refs"] = c("trace.generate.refs", 0)
    m["trace.generate.busy_ms"] = busy("trace.generate")
    m["trace.generate.ns_per_ref"] = busy("trace.generate") * 1e6 / max(c("trace.generate.refs", 0), 1)
    m["trace.decode.refs"] = c("trace.decode.refs", 0)
    m["trace.decode.busy_ms"] = busy("trace.decode")
    m["trace.decode.bytes"] = c("trace.decode.bytes", 0)
    m["trace.decode.errors"] = c("trace.decode.errors", 0)
    looked_up = m["sim.arena.hits"] + m["sim.arena.misses"]
    m["sim.arena.hit_ratio"] = m["sim.arena.hits"] / looked_up if looked_up else 0.0
    m["cache.l1.refs"] = c("cache.l1.refs", 0)
    m["cache.l1.busy_ms"] = busy("cache.l1")
    m["cache.l1.pass_ratio"] = c("cache.l1.passed", 0) / max(c("cache.l1.refs", 0), 1)
    fams = ("shared", "static", "dynamic")
    m["core.l2.requests"] = sum(c(f"core.l2.requests.{f}", 0) for f in fams)
    m["core.l2.busy_ms"] = sum(busy(f"core.l2.{f}") for f in fams)
    for f in fams:
        req = c(f"core.l2.requests.{f}", 0)
        m[f"core.l2.ns_per_request.{f}"] = busy(f"core.l2.{f}") * 1e6 / req if req else 0.0
    m["energy.finish.points"] = c("energy.finish.points", 0)
    m["energy.finish.busy_ms"] = busy("energy.finish")
    m["cache.mrc.requests"] = c("cache.mrc.requests", 0)
    m["cache.mrc.busy_ms"] = busy("cache.mrc")
    m["search.rank.calls"] = c("search.rank.calls", 0)
    m["search.rank.busy_ms"] = busy("search.rank")
    m["journal.append_bytes"] = c("journal.append.bytes", 0)
    m["journal.append_ms"] = busy("journal.append")
    m["journal.open_ms"] = busy("journal.open")
    layer_ms = sum(busy(name) for name in LAYER_SPANS)
    m["ledger.probe_cpu_ratio"] = layer_ms / 1e3 / u["cpu"] if u["cpu"] else 0.0
    m["ledger.trace_overhead_ms"] = overhead * 1e3

    print(f"ledger for {workload} (seed {seed}); untraced unit: wall {u['wall']:.3f} s, "
          f"cpu {u['cpu']:.3f} s")
    print(f"  {'span':<24}{'calls':>8}{'busy ms':>12}{'self ms':>12}")
    for name, (calls, busy_ms, self_ms) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:<24}{calls:>8}{busy_ms:>12.1f}{self_ms:>12.1f}")
    # The whole-point reference re-filters the L1 for every point, while
    # an identity probe filters once for all its designs: charge the L1
    # per reference point so both sides cover the same points.
    ref_calls, ref = table.get("sim.system.run_batch", [0, 0.0, 0.0])[:2]
    l1_calls, l1_ms = table.get("cache.l1", [0, 0.0, 0.0])[:2]
    parts = (l1_ms / l1_calls * ref_calls if l1_calls else 0.0) + sum(
        busy(n) for n in ("core.l2.shared", "core.l2.static", "core.l2.dynamic", "energy.finish"))
    # The probe does other work than the unit (fewer references, layer by
    # layer), so this is a ratio of the two, not a share of the unit's CPU.
    print(f"  probe layer time {layer_ms:.1f} ms against the untraced unit's "
          f"{u['cpu'] * 1e3:.1f} ms cpu (ratio {m['ledger.probe_cpu_ratio']:.3f})")
    if ref:
        print(f"  decomposed l1+l2+energy {parts:.1f} ms vs whole-point System::run_batch "
              f"{ref:.1f} ms (ratio {parts / ref:.3f}, base: the same {ref_calls} points)")
    print(f"  tracing overhead {overhead * 1e3:+.1f} ms (traced minus untraced probe wall)")
    print(f"  ratios: arena hit {m['sim.arena.hit_ratio']:.3f} of {looked_up:.0f} lookups; "
          f"l1 pass {m['cache.l1.pass_ratio']:.4f} of {m['cache.l1.refs']:.0f} refs; "
          f"fast path {m['search.fastpath_ratio']:.3f} of fresh evaluations; "
          f"archive {m['search.archive_ratio']:.3f} of candidates")
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items() if k in PER_LAYER}


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    checks = Checks()
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        if a.trace:
            metrics = traced(a.workload, a.seed, checks)
        else:
            metrics = measure(a.workload, a.seed, a.seconds, checks)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        stop_all()
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
