#!/usr/bin/env python3
"""The vsmooth benchmark: end-to-end runs of the paper reproduction,
the serve daemon and long CLI runs, plus a traced per-layer replay.

Run from the root of a vsmooth source checkout:

    python3 perfbench/run.py --workload repro_oracle --seed 1 \
        --seconds 10 --trace 0

It builds the simulator from source into .bench_build (Release, with
the repository's own CMake flags), runs the workload for about
--seconds seconds, checks every output, and prints one JSON object on
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics of an untraced run; --trace 1
gives the per-layer metrics of a separate traced run. perfbench/README.md
describes the workloads, the metrics and the baseline.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

# Seed 2 is the hold-out a later claim must also hold on (README.md).
DEFAULT_SEED = 1

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_DIR = os.path.join(".bench_build", "work")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

# The four experiments that build the 29x29 Proc3 oracle matrix.
ORACLE_EXPERIMENTS = [
    "fig17_coschedule_spread",
    "fig18_policy_scatter",
    "fig19_pass_increase",
    "table1_optimal_margins",
]

# cli_long runs one pair under a `vsmooth run --seed` drawn from the
# benchmark seed; the expected tables of every run seed in the pool are
# stored under expected/, so each seed's output is checked byte for
# byte. The seed varies the cores' random streams, not the pair: the
# pairs measured differ by up to ~9% in host time, which across seeds
# would read as noise larger than the metrics' bounds.
CLI_PAIR = ("gcc", "mcf")
CLI_SEEDS = range(1, 9)
CLI_RUNS = [
    ("off", ["--sampling", "off", "--cycles", "100000000"]),
    ("auto", ["--sampling", "auto", "--cycles", "1000000000"]),
]

# serve_cold's daemon executor threads and closed-loop client
# connections: together at most nproc on the 4-vCPU reference host.
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2

WORKLOADS = ["repro_oracle", "repro_sweep", "serve_cold", "cli_long"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    "cpu.ns_per_cycle": "ns/cycle",
    "cpu.core_cycles": "count",
    "power.ns_per_cycle": "ns/cycle",
    "pdn.ns_per_cycle": "ns/cycle",
    "noise.scope_ns_per_cycle": "ns/cycle",
    "noise.bank_ns_per_cycle": "ns/cycle",
    "noise.timeline_ns_per_cycle": "ns/cycle",
    "sim.system_ns_per_cycle": "ns/cycle",
    "sim.glue_ns_per_cycle": "ns/cycle",
    "sim.replay_ns_per_cycle": "ns/cycle",
    "sim.lanegroup_ns_per_cycle": "ns/cycle",
    "sim.lane_width": "lanes",
    "sim.sampler_ns_per_cycle": "ns/cycle",
    "sim.sampler_simulated_fraction": "ratio",
    "sim.sampler_max_droop_bound_pct": "%",
    "sim.sampler_cdf_bound": "ratio",
    "sched.oracle_build_s": "s",
    "sched.oracle_cells": "count",
    "sched.policy_ms": "ms",
    "common.parallel_speedup": "x",
    "serve.parse_us": "us",
    "serve.key_us": "us",
    "serve.cache_us": "us",
    "serve.serialize_us": "us",
    "common.json_parse_us_per_kb": "us/KB",
    "serve.run_item_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.hit_p50_ms": "ms",
    "serve.rejected": "count",
    "common.compare_ms": "ms",
}
EXPERIMENT_METRIC = "experiment.{}.s"

# Sizes of one run; the self-test swaps in a tiny set.
FULL = {
    "setup_reps": 15,
    "serve_per_kind": 40,
    "cli_runs": CLI_RUNS,
    "trace": {
        "scenario_cycles": 4_000_000,
        "scenario_reps": 3,
        "lane_cycles": 1_000_000,
        "sampler_cycles": 1_000_000_000,
        "oracle_cycles": 800_000,
        "oracle_benchmarks": 29,
        "speedup_benchmarks": 12,
        "policy_reps": 5,
        "micro_reps": 20,
    },
}


class BenchError(Exception):
    """A set-up problem: the run cannot produce a result."""


def now():
    return time.perf_counter()


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------
# Build
# --------------------------------------------------------------------

def source_files():
    """Every file the build reads, in a fixed order."""
    out = ["CMakeLists.txt"]
    for top in ("src", "bench", "tests", "examples"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".cc", ".hh", ".txt", ".cmake")):
                    out.append(os.path.join(dirpath, f))
    for f in ("perfbench.cmake", "trace_layers.cc"):
        out.append(os.path.relpath(os.path.join(BENCH_DIR, f)))
    return out


def source_digest():
    h = hashlib.sha256()
    for path in source_files():
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check_checkout():
    for path in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "bench/CMakeLists.txt", "bench/golden"):
        if not os.path.exists(path):
            raise BenchError(
                f"'{path}' not found: run from the root of a vsmooth "
                "source checkout")


def run_logged(cmd, log):
    with open(log, "ab") as f:
        f.write(("$ " + " ".join(cmd) + "\n").encode())
        f.flush()
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                            env=child_env()).returncode
    if rc != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        raise BenchError(f"build step failed ({' '.join(cmd)}):\n{tail}")


def cache_value(key):
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            name, _, value = line.rstrip("\n").partition("=")
            if name.split(":")[0] == key:
                return value
    return ""


def verified_build_type():
    """Refuse non-optimized and sanitizer trees, as tools/bench.sh
    does: their timings say nothing about the program."""
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"build tree is configured as '{build_type}'; "
                         "refusing to time a non-optimized build")
    flags = " ".join(cache_value(k) for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(),
        "CMAKE_EXE_LINKER_FLAGS"))
    if cache_value("VSMOOTH_SANITIZE") or "-fsanitize" in flags:
        raise BenchError("build tree is instrumented with a sanitizer; "
                         "refusing to time it")
    if "-O0" in flags:
        raise BenchError("build tree compiles with -O0; refusing")
    return build_type


def binary(name):
    paths = {"vsmooth": os.path.join(BUILD_DIR, "src", "tools", "vsmooth"),
             "trace": os.path.join(BUILD_DIR, "perfbench_trace")}
    return paths.get(name) or os.path.join(BUILD_DIR, "bench", name)


def ensure_built():
    """Build the CLI, the experiment binaries and the layer replay,
    unless the tree already holds a build of these exact sources."""
    check_checkout()
    digest = source_digest()
    stamp = os.path.join(BUILD_DIR, "perfbench.stamp")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                verified_build_type()
                return digest
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(".bench_build", "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ".", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(BENCH_DIR, "perfbench.cmake")], log)
    jobs = str(nproc())
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                "vsmooth_cli", "perfbench_trace"], log)
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
               + experiment_registry(), log)
    verified_build_type()
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return digest


# --------------------------------------------------------------------
# Program facts
# --------------------------------------------------------------------

def child_env(jobs=None):
    env = dict(os.environ)
    tmp = os.path.abspath(os.path.join(WORK_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    for var in ("VSMOOTH_SIMD", "VSMOOTH_LANES", "VSMOOTH_SAMPLING",
                "VSMOOTH_SCALAR_TICK", "VSMOOTH_RESULT_FILE"):
        env.pop(var, None)
    if jobs is None:
        env.pop("VSMOOTH_JOBS", None)
    else:
        env["VSMOOTH_JOBS"] = str(jobs)
    return env


def vsmooth(*args):
    p = subprocess.run([binary("vsmooth"), *args], capture_output=True,
                       text=True, env=child_env())
    if p.returncode != 0:
        raise BenchError(f"vsmooth {' '.join(args)} failed: {p.stderr}")
    return p


def table_rows(text):
    """First column of each row of a TextTable."""
    rows, body = [], False
    for line in text.splitlines():
        if line.startswith("---"):
            body = True
        elif not line.strip() or line.startswith("=="):
            body = False
        elif body:
            rows.append(line.split()[0])
    return rows


def experiment_registry():
    return table_rows(vsmooth("verify", "--list").stdout)


def spec_names():
    return table_rows(vsmooth("list").stdout.split("PARSEC")[0])


def steal_ticks():
    """CPU time the hypervisor gave to other guests (/proc/stat), in
    clock ticks over all CPUs."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def host_stamp(workload, seed, digest):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    simd = vsmooth("list").stderr.strip().splitlines()
    simd = next((l for l in simd if "simd:" in l), "simd: unknown")
    rev = "tree-" + digest[:12]
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            rev = p.stdout.strip()
    return {"workload": workload, "seed": seed, "host_cpu": model,
            "nproc": nproc(), "simd": simd.split("simd:", 1)[1].strip(),
            "build_type": verified_build_type(), "revision": rev}


# --------------------------------------------------------------------
# Measurement helpers
# --------------------------------------------------------------------

class Tally:
    """Per-run accumulation of one workload's fixed-work iterations."""

    def __init__(self):
        self.walls, self.cpus, self.rss, self.ops = [], [], [], []
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted, failed, what):
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(what)

    def metrics(self):
        ops = sorted(self.ops)
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(self.walls),
            "cpu_s": sum(self.cpus) / len(self.cpus),
            "peak_rss_mb": statistics.median(self.rss),
            "op_p50_ms": statistics.median(ops),
            "op_p90_ms": statistics.quantiles(ops, n=10,
                                              method="inclusive")[8],
            "ops_per_s": len(ops) / sum(self.walls),
        }


def run_iterations(seconds, iteration):
    """Run `iteration(i)` at least once, and again while the next one
    is expected to end within the measuring window."""
    start = now()
    walls = []
    i = 0
    while True:
        t0 = now()
        iteration(i)
        walls.append(now() - t0)
        i += 1
        if now() - start + statistics.median(walls) > seconds:
            return


def timed_child(cmd, env, stdout=subprocess.PIPE):
    """Run one child; returns (seconds, stdout bytes, rc, cpu s, MB).
    wait4 reports the child's CPU and peak RSS together with those of
    the descendants it waited for (verify's experiment binaries)."""
    t0 = now()
    p = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.DEVNULL,
                         env=env)
    out = p.stdout.read() if stdout == subprocess.PIPE else b""
    _, status, ru = os.wait4(p.pid, 0)
    elapsed = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, out, p.returncode, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


# --------------------------------------------------------------------
# repro_oracle / repro_sweep: `vsmooth verify`, golden compare included
# --------------------------------------------------------------------

def repro_experiments(workload):
    registry = experiment_registry()
    if not set(ORACLE_EXPERIMENTS) <= set(registry):
        raise BenchError("oracle experiments missing from the registry")
    if workload == "repro_oracle":
        return ORACLE_EXPERIMENTS
    return [e for e in registry if e not in ORACLE_EXPERIMENTS]


def repro_setup(experiments, golden_dir):
    """Locate the binaries and load the goldens verify will read."""
    t0 = now()
    for name in ["vsmooth"] + experiments:
        if not os.access(binary(name), os.X_OK):
            raise BenchError(f"missing binary {binary(name)}")
    registered = set(experiment_registry())
    for name in experiments:
        if name not in registered:
            raise BenchError(f"'{name}' is not a registered experiment")
        with open(os.path.join(golden_dir, name + ".json")) as f:
            json.load(f)
    return now() - t0


def run_repro(workload, seconds, sizes, golden_dir="bench/golden"):
    experiments = sizes.get("experiments") or repro_experiments(workload)
    tally = Tally()
    tally.setups = [repro_setup(experiments, golden_dir)
                    for _ in range(sizes["setup_reps"])]
    work = os.path.join(WORK_DIR, "verify")
    jobs = str(nproc())

    def iteration(_):
        wall = cpu = rss = 0.0
        for name in experiments:
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            elapsed, out, rc, c, mb = timed_child(
                [binary("vsmooth"), "verify", "--bench-dir",
                 os.path.join(BUILD_DIR, "bench"), "--golden-dir",
                 golden_dir, "--work-dir", work, "--experiments", name,
                 "--jobs", jobs], child_env())
            tally.check(rc == 0 and f"{name}: PASS".encode() in out,
                        f"verify {name}: rc={rc} {out[-300:]!r}")
            tally.ops.append(elapsed * 1e3)
            wall += elapsed
            cpu += c
            rss = max(rss, mb)
        tally.walls.append(wall)
        tally.cpus.append(cpu)
        tally.rss.append(rss)

    run_iterations(seconds, iteration)
    return tally


# --------------------------------------------------------------------
# serve_cold: the daemon under two closed-loop connections
# --------------------------------------------------------------------

def serve_items(seed, per_kind, names):
    """Equal numbers of oracle_cell, population and summary items, with
    benchmarks, seeds and order drawn from the seed. Fixed counts and
    sizes per kind keep the total work the same across seeds."""
    rng = random.Random(f"serve-items-{seed}")
    items, keys = [], set()
    n = len(names)
    while len(items) < 3 * per_kind:
        kind = ["oracle_cell", "population", "summary"][len(items) % 3]
        if kind == "oracle_cell":
            item = {"kind": kind, "bench_a": rng.choice(names),
                    "bench_b": rng.choice(names),
                    "cycles_per_pair": 60000,
                    "oracle_seed": rng.randrange(1, 1 << 31)}
        else:
            cfg = {"seed": rng.randrange(1, 1 << 31),
                   "cycles": 20000 if kind == "population" else 60000,
                   "coreBench": [rng.randrange(n), rng.randrange(n)]}
            item = {"kind": kind, "config": cfg}
            if kind == "population":
                item["population"] = 8
        key = json.dumps(item, sort_keys=True)
        if key not in keys:
            keys.add(key)
            items.append(item)
    rng.shuffle(items)
    return items


class Daemon:
    """`vsmooth serve` on a Unix socket inside the work directory."""

    def __init__(self, tag):
        d = os.path.join(WORK_DIR, "serve")
        os.makedirs(d, exist_ok=True)
        self.sock = os.path.join(d, tag + ".sock")
        self.ready = os.path.join(d, tag + ".ready")
        if os.path.exists(self.ready):
            os.unlink(self.ready)
        t0 = now()
        self.proc = subprocess.Popen(
            [binary("vsmooth"), "serve", "--socket", self.sock,
             "--workers", str(SERVE_WORKERS), "--ready-file", self.ready],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=child_env(jobs=1))
        while not os.path.exists(self.ready):
            if self.proc.poll() is not None:
                raise BenchError("vsmooth serve exited before ready")
            if now() - t0 > 30:
                self.kill()
                raise BenchError("vsmooth serve never became ready")
            time.sleep(0.0002)
        self.setup_s = now() - t0
        self.clients = []

    def open_clients(self):
        """Connect the closed-loop clients; they stay open across
        passes, as a client that waits for each reply keeps its
        connection."""
        self.clients = [self.connect() for _ in range(SERVE_CONNECTIONS)]

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        return s

    def request(self, payload):
        with self.connect() as s, s.makefile("rb") as f:
            s.sendall(json.dumps(payload).encode() + b"\n")
            return json.loads(f.readline())

    def stop(self):
        """Drain and reap; returns (cpu s, peak RSS MB) of the daemon."""
        for s in self.clients:
            s.close()
        self.clients = []
        try:
            self.request({"type": "shutdown"})
        except OSError:
            pass
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()


RESULT_MARK = b'"result": '


def serve_pass(daemon, items, order, tag):
    """One closed-loop pass: each of the daemon's client connections
    keeps one one-item batch in flight. A single thread serves all of
    them through a selector, so a reply's latency never includes a
    wait for another client thread. Returns per-index (latency ms,
    payload bytes or None, cache tag or error code) and the number of
    rejected items."""
    out = [None] * len(order)
    pending = {}        # connection -> [index, t0, payload, status]
    bufs = {}
    cursor = 0
    rejected = 0
    sel = selectors.DefaultSelector()

    def send(s):
        nonlocal cursor
        if cursor == len(order):
            sel.unregister(s)
            return
        idx = order[cursor]
        line = json.dumps({"type": "batch", "id": f"{tag}-{cursor}",
                           "items": [items[idx]]}).encode() + b"\n"
        cursor += 1
        pending[s] = [idx, now(), None, "no reply"]
        s.sendall(line)

    for s in daemon.clients:
        bufs[s] = b""
        sel.register(s, selectors.EVENT_READ)
        send(s)
    while sel.get_map():
        for key, _ in sel.select():
            s = key.fileobj
            data = s.recv(1 << 20)
            if not data:
                raise BenchError("the daemon closed a client connection")
            bufs[s] += data
            while b"\n" in bufs[s]:
                resp, bufs[s] = bufs[s].split(b"\n", 1)
                p = pending[s]
                if resp.startswith(b'{"type": "result"'):
                    at = resp.index(RESULT_MARK) + len(RESULT_MARK)
                    p[2] = resp[at:-1]
                    p[3] = resp.split(b'"cache": "')[1].split(
                        b'"')[0].decode()
                elif b'"batch_done"' in resp:
                    out[p[0]] = ((now() - p[1]) * 1e3, p[2], p[3])
                    rejected += json.loads(resp).get("rejected", 0)
                    send(s)
                else:
                    p[3] = json.loads(resp).get("code", "error")
    sel.close()
    return out, rejected


def local_reference(items):
    """The in-process runBatchItem bytes (`vsmooth client --local`)."""
    path = os.path.join(WORK_DIR, "items.json")
    with open(path, "w") as f:
        json.dump(items, f)
    p = subprocess.run([binary("vsmooth"), "client", "--local",
                        "--results-only", "--batch", path],
                       capture_output=True, env=child_env())
    if p.returncode != 0:
        raise BenchError("vsmooth client --local failed: " +
                         p.stderr.decode(errors="replace")[-500:])
    lines = p.stdout.rstrip(b"\n").split(b"\n")
    if len(lines) != len(items):
        raise BenchError("vsmooth client --local returned "
                         f"{len(lines)} results for {len(items)} items")
    return lines


def check_pass(tally, results, want_cache, reference, tag):
    for idx, (_, payload, status) in enumerate(results):
        tally.check(status == want_cache and payload == reference[idx],
                    f"{tag} item {idx}: {status}")


def run_serve(seconds, sizes, seed):
    items = serve_items(seed, sizes["serve_per_kind"], spec_names())
    reference = local_reference(items)
    tally = Tally()
    for _ in range(sizes["setup_reps"]):
        d = Daemon("setup")
        tally.setups.append(d.setup_s)
        d.stop()
    order = list(range(len(items)))

    def iteration(i):
        d = Daemon("cold")
        try:
            d.open_clients()
            t0 = now()
            results, _ = serve_pass(d, items, order, f"cold{i}")
            tally.walls.append(now() - t0)
        finally:
            cpu, rss = d.stop()
        check_pass(tally, results, "miss", reference, "cold")
        tally.ops.extend(r[0] for r in results)
        tally.cpus.append(cpu)
        tally.rss.append(rss)

    run_iterations(seconds, iteration)
    return tally


def serve_hit_check(items, seed, tally, mutate=None):
    """A cold pass, then the same items reshuffled on the same daemon:
    every reply must be a miss, then a hit, with the in-process bytes.
    mutate, if given, alters the hit payloads before the check (the
    self-test's proof that the cached-bytes gate can fail). Returns
    the hit latencies (ms), the daemon's stats and the rejected count."""
    reference = local_reference(items)
    order = list(range(len(items)))
    d = Daemon("trace")
    try:
        d.open_clients()
        cold, rej_cold = serve_pass(d, items, order, "tcold")
        random.Random(f"serve-order-{seed}").shuffle(order)
        hit, rej_hit = serve_pass(d, items, order, "thit")
        stats = d.request({"type": "stats"})
    finally:
        d.stop()
    if mutate:
        hit = mutate(hit)
    check_pass(tally, cold, "miss", reference, "cold")
    check_pass(tally, hit, "hit", reference, "hit")
    return [r[0] for r in hit], stats, rej_cold + rej_hit


# --------------------------------------------------------------------
# cli_long: `vsmooth run`, exact then phase-sampled
# --------------------------------------------------------------------

def cli_seed(seed):
    return random.Random(f"cli-seed-{seed}").choice(CLI_SEEDS)


def cli_command(args, run_seed):
    return [binary("vsmooth"), "run", *args, "--seed", str(run_seed),
            *CLI_PAIR]


def expected_path(run_seed, mode):
    return os.path.join(EXPECTED_DIR, "{}-{}.seed{}.{}.txt".format(
        *CLI_PAIR, run_seed, mode))


def cli_setup(run_seed):
    t0 = now()
    if not os.access(binary("vsmooth"), os.X_OK):
        raise BenchError("missing vsmooth binary")
    if not set(CLI_PAIR) <= set(spec_names()):
        raise BenchError(f"pair {CLI_PAIR} is not in the SPEC suite")
    expected = {}
    for mode, _ in CLI_RUNS:
        with open(expected_path(run_seed, mode), "rb") as f:
            expected[mode] = f.read()
    return now() - t0, expected


def run_cli(seconds, sizes, seed, expected_override=None):
    run_seed = cli_seed(seed)
    tally = Tally()
    expected = None
    for _ in range(sizes["setup_reps"]):
        t, expected = cli_setup(run_seed)
        tally.setups.append(t)
    expected = expected_override or expected

    def iteration(_):
        wall = cpu = rss = 0.0
        for mode, args in sizes["cli_runs"]:
            elapsed, out, rc, c, mb = timed_child(
                cli_command(args, run_seed), child_env())
            tally.check(rc == 0 and out == expected[mode],
                        f"vsmooth run {mode} --seed {run_seed}: rc={rc}")
            tally.ops.append(elapsed * 1e3)
            wall += elapsed
            cpu += c
            rss = max(rss, mb)
        tally.walls.append(wall)
        tally.cpus.append(cpu)
        tally.rss.append(rss)

    run_iterations(seconds, iteration)
    return tally


def write_expected():
    """Regenerate expected/ from the current program. Like a golden
    update: only for a deliberate change of the program's output."""
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for run_seed in CLI_SEEDS:
        for mode, args in CLI_RUNS:
            p = subprocess.run(cli_command(args, run_seed),
                               capture_output=True, env=child_env(),
                               check=True)
            with open(expected_path(run_seed, mode), "wb") as f:
                f.write(p.stdout)
            print("wrote", expected_path(run_seed, mode), flush=True)


# --------------------------------------------------------------------
# Traced run: experiments alone, the daemon's counters, layer replay
# --------------------------------------------------------------------

def trace_scenario(workload, seed, names, tsizes):
    """One representative two-core scenario per workload."""
    rng = random.Random(f"trace-{workload}-{seed}")
    a, b = rng.choice(names), rng.choice(names)
    decap, os_tick = 1.0, 25000
    if workload == "repro_oracle":
        decap = 0.03                     # the oracle matrix's Proc3
    scenario_seed = rng.randrange(1, 1 << 31)
    if workload == "cli_long":
        (a, b), scenario_seed = CLI_PAIR, cli_seed(seed)
        os_tick = 1860000                # SystemConfig's default tick
    return {"bench_a": a, "bench_b": b, "decap": decap,
            "os_tick": os_tick, "cycles": tsizes["scenario_cycles"],
            "seed": scenario_seed,
            "timeline_interval": 100000,
            "reps": tsizes["scenario_reps"],
            "lane_cycles": tsizes["lane_cycles"]}


def run_trace(workload, seed, sizes, mutate=None):
    tsizes = sizes["trace"]
    tally = Tally()
    metrics = {}
    names = spec_names()
    experiments = sizes.get("experiments") or experiment_registry()
    results = os.path.join(WORK_DIR, "results")
    shutil.rmtree(results, ignore_errors=True)
    os.makedirs(results)
    for name in experiments:
        env = child_env(jobs=nproc())
        env["VSMOOTH_RESULT_FILE"] = os.path.join(results, name + ".json")
        elapsed, _, rc, _, _ = timed_child([binary(name)], env,
                                           stdout=subprocess.DEVNULL)
        tally.check(rc == 0, f"{name} exited {rc}")
        metrics[EXPERIMENT_METRIC.format(name)] = elapsed

    items = serve_items(seed, sizes["serve_per_kind"], names)
    hit_ms, stats, rejected = serve_hit_check(items, seed, tally, mutate)
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    metrics["serve.cache_hit_ratio"] = hits / max(1, hits + misses)
    metrics["serve.rejected"] = rejected
    metrics["serve.hit_p50_ms"] = statistics.median(hit_ms)

    items_path = os.path.join(WORK_DIR, "trace_items.json")
    with open(items_path, "w") as f:
        json.dump(items, f)
    plan = {
        "jobs": nproc(), "seed": seed,
        "scenario": trace_scenario(workload, seed, names, tsizes),
        "sampler": {"bench_a": CLI_PAIR[0], "bench_b": CLI_PAIR[1],
                    "seed": cli_seed(seed),
                    "cycles": tsizes["sampler_cycles"]},
        "oracle": {"decap": 0.03, "cycles_per_pair":
                   tsizes["oracle_cycles"],
                   "benchmarks": tsizes["oracle_benchmarks"],
                   "speedup_benchmarks": tsizes["speedup_benchmarks"],
                   "policy_reps": tsizes["policy_reps"]},
        "serve": {"items": items_path, "reps": tsizes["micro_reps"]},
        "common": {"golden_dir": sizes.get("golden_dir", "bench/golden"),
                   "results_dir": results,
                   "reps": tsizes["micro_reps"],
                   "experiments": experiments},
    }
    plan_path = os.path.join(WORK_DIR, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    p = subprocess.run([binary("trace"), plan_path], capture_output=True,
                       text=True, env=child_env(jobs=1))
    sys.stderr.write(p.stderr)
    tally.check(p.returncode == 0, {
        3: "stage replay differs from System::run"}.get(
            p.returncode, f"perfbench_trace exited {p.returncode}"))
    if p.returncode == 0:
        replay = json.loads(p.stdout.strip().splitlines()[-1])
        failures = replay.pop("compare_failures")
        tally.count(len(experiments), failures,
                    f"{failures} experiment(s) differ from their goldens")
        replay.pop("checksum")
        metrics.update(replay)
    return tally, metrics


# --------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------

def result_line(tally, values, units):
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
    correct = tally.failed == 0 and len(metrics) == len(units)
    return {"correct": correct, "attempted": max(1, tally.attempted),
            "failed": tally.failed, "metrics": metrics}


def run_workload(workload, seed, seconds, trace, sizes=FULL):
    """Returns (tally, metric values, units) for one run."""
    if trace:
        tally, values = run_trace(workload, seed, sizes)
        experiments = sizes.get("experiments") or experiment_registry()
        units = dict(PER_LAYER)
        units.update({EXPERIMENT_METRIC.format(e): "s"
                      for e in experiments})
        return tally, values, units
    if workload.startswith("repro_"):
        tally = run_repro(workload, seconds, sizes,
                          sizes.get("golden_dir", "bench/golden"))
    elif workload == "serve_cold":
        tally = run_serve(seconds, sizes, seed)
    else:
        tally = run_cli(seconds, sizes, seed)
    return tally, tally.metrics(), END_TO_END


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected/ (cli_long's tables)")
    args = ap.parse_args()
    # A terminated run still drains its daemons (the finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        digest = ensure_built()
        if args.write_expected:
            write_expected()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        os.makedirs(WORK_DIR, exist_ok=True)
        stamp = host_stamp(args.workload, args.seed, digest)
        steal0, t0 = steal_ticks(), now()
        tally, values, units = run_workload(args.workload, args.seed,
                                            args.seconds, args.trace)
        # Share of the host's CPUs taken by other guests during the
        # run: timings of a run with a high share are not comparable.
        stamp["host_steal_pct"] = round(100.0 * (steal_ticks() - steal0) / (
            (now() - t0) * nproc() * os.sysconf("SC_CLK_TCK")), 1)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(WORK_DIR, "tmp"), ignore_errors=True)
    line = emit(stamp, tally, values, units)
    return 0 if line["correct"] else 1


def emit(stamp, tally, values, units):
    """Print the stamp, a readable summary and, last, the result line."""
    for what in tally.failures[:20]:
        print(f"FAILED: {what}", file=sys.stderr)
    line = result_line(tally, values, units)
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print("# error_rate={:.6f} ({} of {} operations failed)".format(
        tally.failed / max(1, tally.attempted), tally.failed,
        tally.attempted))
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line), flush=True)
    return line


if __name__ == "__main__":
    sys.exit(main())
