#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer cost of placement requests.

    python3 perfbench/run.py --workload cold|sweep|serve --seed N \
        --seconds S --trace 0|1

Builds `perfbench` and `merchd` from the checkout (CMake, under
.bench_build/), generates the workload's requests from --seed, runs them,
checks every result bit for bit against perfbench/expected.tsv plus the
invariants below, and prints one JSON object as the last stdout line.
--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
layer-by-layer replay and reports the per-layer metrics. Exit status is 0
only when every result is correct.

Workloads (see BENCHMARK.json for why each exists):
  cold   each request on a fresh in-process 1-thread PlacementService:
         DMRG/merch, NWChem-TC/merch, BFS/pm, SpGEMM/mo at scale 1, one of
         each per round in seeded order, rounds until --seconds.
  sweep  per process: a fresh nproc-thread service trained by a warm-up
         request (set-up), then passes of the 40-key Figure 4 grid
         (5 apps x pm/mm/mo/merch x scales 1, 0.5) on distinct seeds: one
         through RunBatch(kPerRequest) (the pass wall) and one or two
         through SubmitAsync (per-request latencies); processes until
         --seconds of pass wall, two batch walls and 100 latencies.
  serve  a `merchd --listen` child per segment, warmed in set-up (training
         plus a 36-key hot set); an open-loop hit stream at a fixed rate
         and a closed-loop miss stream of never-seen keys, at most nproc
         connections in total.

`run.py --record` regenerates expected.tsv and footprints.tsv from the
current build (every request pool below, through one service).
"""
import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
PERFBENCH = os.path.join(CMAKE_DIR, "perfbench")
MERCHD = os.path.join(CMAKE_DIR, "merch", "tools", "merchd")
EXPECTED = os.path.join(HERE, "expected.tsv")
FOOTPRINTS = os.path.join(HERE, "footprints.tsv")
NPROC = os.cpu_count() or 1

APPS = ["SpGEMM", "BFS", "WarpX", "DMRG", "NWChem-TC"]
POLICIES = ["pm", "mm", "mo", "merch"]
# Request pools. --seed picks and orders requests from them; every key in
# a pool has a recorded expected result. The pools' seed ranges are
# disjoint, so no workload's measured keys include another's warm-up.
COLD_KINDS = [("DMRG", "merch"), ("NWChem-TC", "merch"), ("BFS", "pm"),
              ("SpGEMM", "mo")]
COLD_SEEDS = range(1, 5)
SWEEP_SCALES = [1, 0.5]
SWEEP_SEEDS = range(11, 15)
# The serve workload's hot set and misses use the apps whose build is
# cheap (BFS and SpGEMM spend 0.7-2 s building at any scale), so serve
# set-up is training plus little else and misses are sim/core-bound.
CHEAP_APPS = ["DMRG", "NWChem-TC", "WarpX"]
HOT_SCALES = [0.02, 0.05, 0.1]
HOT_SEEDS = range(21, 25)
MISS_COMBOS = [(a, p) for a in CHEAP_APPS for p in POLICIES]
MISS_SEEDS = range(1000, 1064)
# Trains the shared MerchandiserSystem in sweep/serve set-up; its key
# (scale 0.25, seed 999) lies outside every measured set.
WARM_UP = ("WarpX", "merch", 0.25, 999)

COLD_ROUND_CAP = 12
# Traced runs only: cache-hit repeats after each cold request, and of each
# answered sweep pass, enough that the first repeats' warm-up (hits run
# ~2x slower right after a pass) does not reach the median.
COLD_HITS = 2000
SWEEP_HIT_ROUNDS = 500
# Per sweep process: whether its RunBatch pass runs before its SubmitAsync
# passes, and how many of those it runs. Two processes give two batch
# walls, one with the batch pass first and one with it last, and three
# timed passes: 120 latencies, 12 beyond miss_p90_ms.
SWEEP_LAYOUT = [(True, 2), (False, 1)]
SWEEP_MIN_LATENCIES = 100   # 10 beyond miss_p90_ms
SWEEP_PROC_CAP = 6
SERVE_SEGMENTS = 3
# Offered hit rate (open loop): about a fifth of merchd's cache-hit
# capacity as BENCH_service.json records it (52900-60200 hits/s at 1-32
# closed-loop connections), so the hit stream loads the server without
# saturating it. It is not taken from measured serving traffic. With it
# set to 1000 or 20000 the serve miss metrics moved by at most 11%, less
# than set-up time, which ends before the streams start, moved (16%).
HIT_RATE = 10000.0
MISS_CONNS = 2           # closed-loop miss connections
SETUP_PROBES = 21        # cold set-up samples per run
STAT_KEYS = ("simulated", "coalesced", "cache_hits", "cache_misses",
             "greedy_hits", "greedy_misses")
# Honest-cold guard: a later cold request of one kind may not beat the
# first of its kind by more than this share. A memo that skipped training
# or an app build would cut 80-90%; the same request in fresh processes
# varies by up to 30% on a shared host, beyond the 0.25 end-to-end bounds.
COLD_GUARD = 0.5
MIN_COVERAGE = 0.95      # traced replay: spans must cover this share
CHILD_TIMEOUT = 170


class BenchError(Exception):
    pass


def line(app, policy, scale, seed):
    return f"app={app} policy={policy} scale={scale} work=1 seed={seed}\n"


def cold_pool():
    return [line(a, p, 1, s) for a, p in COLD_KINDS for s in COLD_SEEDS]


def sweep_pass(seed):
    return [line(a, p, sc, seed) for sc in SWEEP_SCALES for a in APPS
            for p in POLICIES]


def hot_set(seed):
    return [line(a, p, sc, seed) for sc in HOT_SCALES for a in CHEAP_APPS
            for p in POLICIES]


def miss_blocks(rng):
    """Never-seen keys in blocks holding every app x policy once, so any
    prefix of the stream has the same mix."""
    seeds = {c: list(MISS_SEEDS) for c in MISS_COMBOS}
    for c in MISS_COMBOS:
        rng.shuffle(seeds[c])
    out = []
    for i in range(len(MISS_SEEDS)):
        block = [line(a, p, 1, seeds[(a, p)][i]) for a, p in MISS_COMBOS]
        rng.shuffle(block)
        out.extend(block)
    return out


def warm_up_line():
    return line(*WARM_UP)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout=CHILD_TIMEOUT, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, text=True, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    with open(logf, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                      "merchd", "-j", str(NPROC)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=3000).returncode != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-3000:])
                raise BenchError("build failed (see .bench_build/build.log)")


def write(path, lines):
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def load_json(path):
    with open(path) as f:
        return json.load(f)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def quantile(xs, q):
    """Linear-interpolated quantile (the median for q = 0.5)."""
    xs = sorted(xs)
    if not xs:
        raise BenchError("no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- output check ----------------------------------------------------------

def digest_row(row):
    """A result line as expected.tsv stores it: the per-object placements
    (name:bytes:fraction bits, in object order) replaced by their SHA-256,
    every other field verbatim."""
    f = row.split("\t")
    if len(f) != 6:
        return row
    return "\t".join(f[:5] + [hashlib.sha256(f[5].encode()).hexdigest()])


class Checker:
    """Compares result lines with expected.tsv and asserts invariants."""

    def __init__(self):
        self.expected = {}
        with open(EXPECTED) as f:
            for row in f:
                row = row.rstrip("\n")
                if row:
                    self.expected[row.split("\t", 1)[0]] = row
        self.footprint = {}
        with open(FOOTPRINTS) as f:
            for row in f:
                key, value = row.rstrip("\n").split("\t")
                self.footprint[key] = int(value)
        self.problems = []

    def check_file(self, path):
        """Returns (checked, failed) for one results file."""
        with open(path) as f:
            rows = [r.rstrip("\n") for r in f if r.strip()]
        failed = sum(0 if self.check(r) else 1 for r in rows)
        return len(rows), failed

    def check(self, row):
        key = row.split("\t", 1)[0]
        problem = self.invariant_problem(row)
        if problem is None and self.expected.get(key) != digest_row(row):
            problem = "differs from the expected result" \
                if key in self.expected else "has no expected result"
        if problem is not None:
            if len(self.problems) < 20:
                self.problems.append(f"{key}: {problem}")
            return False
        return True

    def invariant_problem(self, row):
        f = row.split("\t")
        if len(f) < 6 or f[1] == "ERROR":
            return "error result: " + " ".join(f[2:])[:200]
        app, _, scale, work = f[0].split("|")[:4]

        def dbl(h):
            return struct.unpack(">d", bytes.fromhex(h))[0]

        makespan, cov = dbl(f[1]), dbl(f[2])
        if not (math.isfinite(makespan) and makespan > 0):
            return f"makespan {makespan} is not finite and positive"
        if not (math.isfinite(cov) and cov >= 0):
            return f"task_cov {cov} is not finite and >= 0"
        if int(f[4]) <= 0:
            return "regions must be > 0"
        total = 0
        for p in f[5].split(","):
            _, nbytes, frac = p.rsplit(":", 2)
            total += int(nbytes)
            if not 0 <= dbl(frac) <= 1:
                return f"dram_fraction {dbl(frac)} outside [0, 1]"
        fp = self.footprint.get(f"{app}|{scale}|{work}")
        if fp is not None and total != fp:
            return f"placement bytes {total} != app footprint {fp}"
        return None


# --- workloads -------------------------------------------------------------

def cold(args, out, checker):
    rng = random.Random(f"cold:{args.seed}")
    rounds = []
    for _ in range(COLD_ROUND_CAP):
        kinds = list(COLD_KINDS)
        rng.shuffle(kinds)
        rounds.append([line(a, p, 1, rng.choice(COLD_SEEDS))
                       for a, p in kinds])
    if args.trace:
        rounds = rounds[:1]
    all_file = write(os.path.join(out, "cold.txt"),
                     [r for rnd in rounds for r in rnd])

    # Set-up of a cold request: start a process, parse its requests,
    # stand up and tear down an empty service.
    setup = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        run([PERFBENCH, "probe", "--requests", all_file])
        setup.append(time.perf_counter() - t0)

    # One process per cold request, so nothing a request leaves behind in
    # a process (allocator state, any memo) can warm the next one.
    attempted = failed = 0
    keys, seconds, hits, walls, rss = [], [], [], [], []
    stats = {}
    elapsed = 0.0
    for r, rnd in enumerate(rounds):
        if r > 0 and elapsed >= args.seconds and not args.trace:
            break
        wall = 0.0
        for i, req in enumerate(rnd):
            tag = f"{r}.{i}"
            res = os.path.join(out, f"cold{tag}.res")
            summary = os.path.join(out, f"cold{tag}.json")
            run([PERFBENCH, "cold",
                 "--requests", write(os.path.join(out, f"cold{tag}.txt"),
                                     [req]),
                 "--hits", str(COLD_HITS if args.trace else 0),
                 "--results", res, "--out", summary])
            s = load_json(summary)
            a, f = checker.check_file(res)
            attempted += a + len(s["hit_us"])
            failed += f + s["hit_misses"]
            keys += s["keys"]
            seconds += s["seconds"]
            hits += s["hit_us"]
            rss.append(s["peak_rss_mb"])
            wall += sum(s["seconds"])
            for k in STAT_KEYS:
                stats[k] = stats.get(k, 0) + s[k]
        walls.append(wall)
        elapsed += wall

    times = {}
    for key, sec in zip(keys, seconds):
        times.setdefault(tuple(key.split("|")[:2]), []).append(sec)
    # Honest-cold guard: a repeat of a kind that beats the first by more
    # than the bound was warmed by something outside its own process.
    for kind, ts in times.items():
        for t in ts[1:]:
            if t < ts[0] * (1 - COLD_GUARD):
                failed += 1
                checker.problems.append(
                    f"cold {kind[0]}/{kind[1]}: {t:.3f}s after a first "
                    f"{ts[0]:.3f}s (warmed by an earlier request?)")
    if args.trace:
        stats["hit_p50_us"] = quantile(hits, 0.50)
        stats["hit_p99_us"] = quantile(hits, 0.99)
        return traced(out, checker, all_file, "fresh", 1, attempted, failed,
                      latency=dict(zip(keys, seconds)), stats=stats)
    merch = [t for (a, p), ts in times.items() if p == "merch" for t in ts]
    return attempted, failed, end_to_end(
        "cold", setup, walls, merch, seconds, len(seconds) / sum(seconds),
        max(rss))


def sweep(args, out, checker):
    rng = random.Random(f"sweep:{args.seed}")
    cursor = rng.randrange(len(SWEEP_SEEDS))
    warm = write(os.path.join(out, "warm.txt"), [warm_up_line()])
    # One process per set-up. Each runs passes of distinct keys on its
    # service: one through RunBatch(kPerRequest), whose wall is the pass
    # wall, and SubmitAsync passes for per-request Submit-to-ready
    # latencies (SWEEP_LAYOUT). The grid keeps merchctl sweep's order
    # (scale, app, policy), so every request's queue position is the same
    # on every seed.
    attempted = failed = 0
    setup, walls, timed_walls, rss = [], [], [], []
    keys, lat, hits = [], [], []
    stats = {}
    for i in range(SWEEP_PROC_CAP):
        measured = sum(walls) + sum(timed_walls)
        if (args.trace and i == 1) or (
                len(walls) >= 2 and len(lat) >= SWEEP_MIN_LATENCIES and
                measured >= args.seconds):
            break
        batch_first, timed_passes = SWEEP_LAYOUT[i % len(SWEEP_LAYOUT)]
        files = []
        for k in range(1 + timed_passes):
            seed = SWEEP_SEEDS[cursor % len(SWEEP_SEEDS)]
            cursor += 1
            files.append(write(os.path.join(out, f"pass{i}.{k}.txt"),
                               sweep_pass(seed)))
        batch_file, timed_files = files[0], files[1:]
        res = os.path.join(out, f"sweep{i}.res")
        summary = os.path.join(out, f"sweep{i}.json")
        run([PERFBENCH, "sweep", "--warm", warm, "--batch", batch_file,
             "--timed", ",".join(timed_files),
             "--batch-first", str(int(batch_first)),
             "--threads", str(NPROC),
             "--hits", str(SWEEP_HIT_ROUNDS if args.trace else 0),
             "--results", res, "--out", summary])
        s = load_json(summary)
        a, f = checker.check_file(res)
        attempted += a + len(s["hit_us"])
        failed += f + s["hit_misses"]
        setup.append(s["setup_seconds"])
        walls.append(s["wall_seconds"])
        timed_walls.append(s["timed_wall_seconds"])
        keys += s["keys"]
        lat += s["latency_seconds"]
        hits += s["hit_us"]
        rss.append(s["peak_rss_mb"])
        for k in STAT_KEYS:
            stats[k] = stats.get(k, 0) + s[k]
    if args.trace:
        stats["hit_p50_us"] = quantile(hits, 0.50)
        stats["hit_p99_us"] = quantile(hits, 0.99)
        return traced(out, checker, timed_files[0], "shared", NPROC,
                      attempted, failed, latency=dict(zip(keys, lat)),
                      stats=stats)
    merch = [t for k, t in zip(keys, lat) if k.split("|")[1] == "merch"]
    per_pass = len(sweep_pass(SWEEP_SEEDS[0]))
    return attempted, failed, end_to_end(
        "sweep", setup, walls, merch, lat, per_pass * len(walls) / sum(walls),
        max(rss))


def canonical_key(req_line):
    """CanonicalKey of a generated request line (all pools use work=1 and
    the default training budget)."""
    kv = dict(tok.split("=") for tok in req_line.split())
    train = 281 if kv["policy"] == "merch" else 0
    return (f"{kv['app']}|{kv['policy']}|{float(kv['scale']):.17g}|1|"
            f"{train}|{kv['seed']}")


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for row in f:
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
    return float("nan")


class Server:
    """A `merchd --listen` child, stopped (SIGTERM, then SIGKILL) on exit."""

    def __init__(self, out, tag):
        self.port_file = os.path.join(out, f"port{tag}")
        self.log = open(os.path.join(out, f"merchd{tag}.log"), "w")
        self.proc = subprocess.Popen(
            [MERCHD, "--listen", "--port", "0", "--port-file", self.port_file,
             "--threads", str(NPROC), "--cache", "4096"],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_port(self, timeout=30):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("merchd exited during start-up")
            try:
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):  # merchd writes "<port>\n"
                    self.port = text.strip()
                    return
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        raise BenchError("merchd did not publish its port")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def serve(args, out, checker):
    rng = random.Random(f"serve:{args.seed}")
    hot = hot_set(rng.choice(HOT_SEEDS))
    rng.shuffle(hot)
    hot_file = write(os.path.join(out, "hot.txt"), hot)
    warm_file = write(os.path.join(out, "warm.txt"), [warm_up_line()] + hot)
    misses = miss_blocks(rng)
    segments = 1 if args.trace else SERVE_SEGMENTS
    seg_seconds = args.seconds / 2 if args.trace else args.seconds / segments
    hit_conns = max(1, NPROC - MISS_CONNS)
    per_seg = len(misses) // segments

    setup, rss, hits, late = [], [], [], []
    miss_s, miss_keys, blocks = [], [], []
    attempted = failed = 0
    shed = 0.0
    counters = {}
    for seg in range(segments):
        miss_file = write(os.path.join(out, f"miss{seg}.txt"),
                          misses[seg * per_seg:(seg + 1) * per_seg])
        t0 = time.perf_counter()
        with Server(out, seg) as server:
            server.wait_port()
            res = os.path.join(out, f"warm{seg}.res")
            run([PERFBENCH, "warm", "--port", server.port, "--requests",
                 warm_file, "--conns", str(NPROC), "--results", res])
            setup.append(time.perf_counter() - t0)
            a, f = checker.check_file(res)
            attempted, failed = attempted + a, failed + f

            res = os.path.join(out, f"load{seg}.res")
            summary = os.path.join(out, f"load{seg}.json")
            run([PERFBENCH, "load", "--port", server.port, "--hot", hot_file,
                 "--miss", miss_file, "--rate", str(HIT_RATE),
                 "--hit-conns", str(hit_conns),
                 "--miss-conns", str(MISS_CONNS),
                 "--seconds", str(seg_seconds), "--results", res,
                 "--out", summary])
            rss.append(vm_hwm_mb(server.proc.pid))
            if server.stop() != 0:
                failed += 1
                checker.problems.append("merchd did not drain and exit 0")
        s = load_json(summary)
        a, f = checker.check_file(res)
        hits.append(s)
        late.append(s["gen_late_p99_ms"])
        # A block holds every app x policy once: its wall runs from the
        # first send to the last reply, counted only when it completed.
        spans = {}
        for i, t0, dt in zip(s["miss_index"], s["miss_start"],
                             s["miss_seconds"]):
            spans.setdefault(int(i) // len(MISS_COMBOS), []).append(
                (t0, t0 + dt))
        blocks += [max(e for _, e in v) - min(b for b, _ in v)
                   for v in spans.values() if len(v) == len(MISS_COMBOS)]
        miss_s += s["miss_seconds"]
        miss_keys += s["miss_keys"]
        shed += s["net.shed"]
        for k in ("cache_hits", "cache_misses", "simulated", "coalesced"):
            counters[k] = counters.get(k, 0) + s[k]
        bad = (s["hit_mismatches"] + s["hit_failures"] +
               s["miss_remote_failures"] + s["miss_transport_failures"] +
               s["miss_errors"])
        if s["miss_exhausted"]:
            bad += 1
            checker.problems.append("miss stream ran out of unseen keys")
        if s["metrics_ok"] != 1:
            bad += 1
            checker.problems.append("METRICS export unavailable")
        if s["hit_mismatches"]:
            checker.problems.append(
                f"{s['hit_mismatches']} hit payloads differ from their key")
        attempted += a + s["hit_sent"] + s["miss_remote_failures"]
        failed += f + bad
    measured = seg_seconds * segments
    log(f"serve: {sum(h['hit_sent'] for h in hits)} hits at "
        f"{HIT_RATE:g}/s on {hit_conns} conns, {len(miss_s)} misses "
        f"on {MISS_CONNS} conns, {segments} segments; "
        "per merchd hit p50/p99 us: " +
        ", ".join(f"{h['hit_p50_us']:.1f}/{h['hit_p99_us']:.0f}"
                  for h in hits))

    if args.trace:
        # Replay one completed miss of each app x policy in-process.
        sample, seen = [], set()
        for key in miss_keys:
            app, policy = key.split("|")[:2]
            if (app, policy) not in seen:
                seen.add((app, policy))
                sample.append(key)
        by_key = {canonical_key(r): r for r in misses}
        req_file = write(os.path.join(out, "replay.txt"),
                         [by_key[k] for k in sample])
        stats = dict(counters)
        stats["net.shed"] = shed
        stats["gen_late_ms"] = max(late)
        stats["hit_p50_us"] = hits[0]["hit_p50_us"]
        stats["hit_p99_us"] = hits[0]["hit_p99_us"]
        return traced(out, checker, req_file, "shared", MISS_CONNS,
                      attempted, failed,
                      latency=dict(zip(miss_keys, miss_s)), stats=stats)
    merch = [t for k, t in zip(miss_keys, miss_s)
             if k.split("|")[1] == "merch"]
    return attempted, failed, end_to_end(
        "serve", setup, blocks, merch, miss_s, len(miss_s) / measured,
        max(rss))


def end_to_end(workload, setup, walls, merch, miss_s, miss_per_s, rss_mb):
    """Every end-to-end metric, each a median or percentile of the
    workload's own samples (see README.md)."""
    for name, xs, q in (("set-up", setup, 0.5), ("wall", walls, 0.5),
                        ("merch request", merch, 0.5),
                        ("miss", miss_s, 0.9)):
        log(f"{workload}: {name}: {len(xs)} samples, "
            f"{len(xs) - int(q * len(xs))} at or beyond p{q * 100:g}")
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(walls), "s"),
        "merch_request_s": (median(merch), "s"),
        "miss_p50_ms": (quantile(miss_s, 0.50) * 1e3, "ms"),
        "miss_p90_ms": (quantile(miss_s, 0.90) * 1e3, "ms"),
        "miss_per_s": (miss_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def traced(out, checker, req_file, training, threads, attempted, failed,
           latency, stats):
    """The traced replay of `req_file` on `threads` threads, as wide as the
    workload ran it; returns the per-layer metrics. `latency` maps keys to
    the untraced Submit-to-ready (or wire) latency of the same requests."""
    res = os.path.join(out, "replay.res")
    summary = os.path.join(out, "replay.json")
    run([PERFBENCH, "replay", "--requests", req_file, "--training", training,
         "--threads", str(threads),
         "--results", res, "--trace-out", os.path.join(out, "trace.json"),
         "--out", summary])
    r = load_json(summary)
    a, f = checker.check_file(res)
    attempted, failed = attempted + a, failed + f
    if r["runrequest_mismatches"] or r["codec_mismatches"]:
        failed += r["runrequest_mismatches"] + r["codec_mismatches"]
        checker.problems.append(
            f"replay: {r['runrequest_mismatches']} results differ from "
            f"RunRequest, {r['codec_mismatches']} from their codec round trip")
    coverage = r["covered_s"] / r["root_s"]
    if coverage < MIN_COVERAGE:
        failed += 1
        checker.problems.append(f"spans cover {coverage:.3f} of replay wall")
    if r["trace_valid"] != 1:
        failed += 1
        checker.problems.append("span export invalid: " + r["trace_error"])
    log(f"replay: {len(r['keys'])} requests, {r['trace_spans']} spans, "
        f"coverage {coverage:.4f}")

    waits = [latency[k] - c for k, c in zip(r["keys"], r["compute_seconds"])
             if k in latency]
    hits = stats.get("cache_hits", 0)
    lookups = hits + stats.get("cache_misses", 0)
    greedy = stats.get("greedy_hits", 0) + stats.get("greedy_misses", 0)
    evals = r["sim.timing_evals"]
    moved = r["hm.pages_moved"]
    per_layer = {
        "workloads.train_gen_s": "s", "workloads.train_samples": "count",
        "ml.fit_s": "s", "apps.build_s": "s", "analysis.analyze_s": "s",
        "analysis.findings": "count", "core.policy_setup_s": "s",
        "core.hook_s": "s", "core.hook_calls": "count",
        "core.decisions": "count", "core.greedy_rounds": "count",
        "sim.run_s": "s", "sim.self_s": "s", "sim.epochs": "count",
        "sim.timing_evals": "count", "sim.base_builds": "count",
        "sim.partial_refreshes": "count", "hm.pages_moved": "count",
        "hm.bytes_moved": "bytes", "hm.failed_capacity": "count",
        "net.encode_us": "us", "net.decode_us": "us",
        "net.frame_bytes": "bytes",
    }
    metrics = {name: (r[name], unit) for name, unit in per_layer.items()}
    metrics.update({
        "sim.base_reuse_ratio": (1 - r["sim.base_builds"] / evals
                                 if evals else 0.0, "ratio"),
        "hm.move_success_ratio": (
            moved / (moved + r["hm.failed_capacity"])
            if moved + r["hm.failed_capacity"] else 1.0, "ratio"),
        "service.wait_ms": (median(waits) * 1e3 if waits else 0.0, "ms"),
        "service.cache_hit_ratio": (hits / lookups if lookups else 0.0,
                                    "ratio"),
        "service.simulated": (stats.get("simulated", 0), "count"),
        "service.coalesced": (stats.get("coalesced", 0), "count"),
        "service.greedy_hit_ratio": (
            stats.get("greedy_hits", 0) / greedy if greedy else 0.0, "ratio"),
        "service.hit_p50_us": (stats["hit_p50_us"], "us"),
        "service.hit_p99_us": (stats["hit_p99_us"], "us"),
        "net.shed": (stats.get("net.shed", 0), "count"),
        "net.gen_late_ms": (stats.get("gen_late_ms", 0.0), "ms"),
        "replay.unattributed_s": (r["root_s"] - r["covered_s"], "s"),
        "replay.coverage": (coverage, "ratio"),
        "replay.trace_overhead_s": (r["trace_overhead_s"], "s"),
    })
    return attempted, failed, metrics


WORKLOADS = {"cold": cold, "sweep": sweep, "serve": serve}


def record():
    """Regenerate expected.tsv and footprints.tsv from the current build."""
    build()
    lines = set(cold_pool() + [warm_up_line()])
    for seed in SWEEP_SEEDS:
        lines.update(sweep_pass(seed))
    for seed in HOT_SEEDS:
        lines.update(hot_set(seed))
    lines.update(miss_blocks(random.Random(0)))
    out = os.path.join(BUILD, "record")
    os.makedirs(out, exist_ok=True)
    req_file = write(os.path.join(out, "all.txt"), sorted(lines))
    log(f"recording {len(lines)} requests")
    run([PERFBENCH, "record", "--requests", req_file, "--threads", str(NPROC),
         "--results", EXPECTED, "--footprints", FOOTPRINTS], timeout=7200)
    with open(EXPECTED) as f:
        rows = sorted(digest_row(r.rstrip("\n")) + "\n" for r in f)
    if any("\tERROR\t" in r for r in rows):
        raise BenchError("a pool request failed; expected.tsv not usable")
    write(EXPECTED, rows)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="regenerate the expected results instead")
    args = ap.parse_args()
    try:
        if args.record:
            return record()
        if args.workload is None:
            ap.error("--workload is required")
        build()
        checker = Checker()
        out = os.path.join(BUILD, "out", args.workload)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        attempted, failed, metrics = WORKLOADS[args.workload](
            args, out, checker)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"error: {e}")
        return 2
    if not args.trace:
        metrics["ok_ratio"] = (1 - failed / attempted if attempted else 0.0,
                               "ratio")
    for p in checker.problems:
        log("FAIL " + p)
    for name, (value, unit) in metrics.items():
        log(f"{args.workload:5s} {name:26s} {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
