#!/usr/bin/env python3
"""The repository benchmark: Table II Monte Carlo campaigns, a loopback
multi-host launch, and a cache-fronted service mix.

Run from the repository root:

    python3 perfbench/run.py --workload table2-mc --seed 1 --seconds 10 --trace 0

The script builds the release `xbar` binary and the traced replay harness
(`perfbench/harness`) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload for `--seconds` seconds, checks every
output byte for byte outside the timed window, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured by driving `xbar` exactly as a user would. With `--trace 1` they are
the per-layer metrics, from the harness's traced replay of the same
workload. Everything the run writes goes under `.bench_run/`. See
`perfbench/NOTES.md` for the metric definitions and the workload reasons.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

ROOT = os.getcwd()
RUN = os.path.join(ROOT, ".bench_run")
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
XBAR = os.path.join(TARGET, "release", "xbar")
HARNESS = os.path.join(TARGET, "release", "xbar-perfbench")

# Workload sizes, chosen for a 2-core machine.
TABLE2_SAMPLES = 1000
LAUNCH_SHARDS = 16
LAUNCH_SAMPLES_PER_SHARD = 16
LAUNCH_HOSTS = "alpha,beta"
SERVICE_CIRCUITS = "rd53,squar5,misex1,rd84"
SERVICE_SAMPLES = 64  # samples of a new campaign; its sibling has 48
SIBLING_SAMPLES = 48
SERVICE_BLOCK = 24  # requests per block of the service-mix stream
CAMPAIGN_SEEDS = 2  # CLI campaigns of a run cycle through this many seeds
TAIL_LADDER = (50, 90, 95)
REQUEST_TIMEOUT_S = 60  # a service request this slow counts as failed

LOG = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


# ---------------------------------------------------------------------------
# build and process helpers


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "xbar-exp", "--bin", "xbar"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for argv in steps:
        code = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            fail(f"build failed: {' '.join(argv)} exited with {code}")
    for binary in (XBAR, HARNESS):
        if not os.path.isfile(binary):
            fail(f"build produced no {binary}")


def child_env():
    tmp = os.path.join(RUN, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run(argv, out_path=None):
    """Runs one process to completion. Returns (exit code, wall seconds,
    peak RSS in MB of the process and the children it waited for)."""
    with open(out_path or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=RUN, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=LOG)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def quantile(values, p):
    """The Harrell-Davis estimate of quantile `p`: a Beta-weighted mean of
    all order statistics. Unlike the sample quantile it moves smoothly when
    the data are quantized (cold service latencies step in 100 ms polls),
    which keeps run-to-run spread low; on continuous data it agrees with the
    sample quantile."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule inside each order statistic's interval
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - lbeta)
        weights.append(w)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def tail(values):
    """(value, percentile): the highest ladder percentile with at least ten
    samples beyond it, or p50 when there are too few samples for any."""
    n = len(values)
    pct = max([p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10] or [50])
    return quantile(values, pct / 100), pct


class Tally:
    """Attempted operations and failures (errors + byte mismatches)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rss = 0.0

    def op(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def campaign_seeds(seed, workload):
    """The run's campaign seeds. Campaigns cycle through several seeds, so
    a run's medians average over several campaigns' costs instead of
    resting on one seed's covers and defect maps."""
    rng = random.Random(f"{seed}:{workload}")
    return [rng.randrange(1, 2**31) for _ in range(CAMPAIGN_SEEDS)]


def check_repeats(tally, outputs):
    """Every output of one campaign, given as `(campaign seed, digest or
    None)`, must be byte-identical to the others of that campaign."""
    groups = {}
    for cseed, d in outputs:
        groups.setdefault(cseed, []).append(d)
    for group in groups.values():
        for d in group:
            tally.op(d is not None and d == statistics.mode(group))


def fresh(*parts):
    path = os.path.join(RUN, *parts)
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# shared CLI measurements


def campaign_loop(seconds, seeds, campaign):
    """Runs `campaign(index, campaign seed)` until the campaigns' walls sum
    to `seconds` and every seed ran at least twice, cycling through
    `seeds`. Returns every wall (each CLI campaign runs cold: it computes
    from scratch) and the repeats' walls in ms: the CLI has no cache, so a
    repeated request, the CLI's "hit", costs a whole campaign."""
    walls = []
    while sum(walls) < seconds or len(walls) < 2 * len(seeds):
        index = len(walls)
        walls.append(campaign(index, seeds[index % len(seeds)]))
    return walls, [w * 1e3 for w in walls[len(seeds):]]


def end_to_end(trials, setup, submits_per_s, hits, colds, tally):
    hit_tail, pct = tail(hits)
    print(f"perfbench: hit_ms_tail is p{pct} of {len(hits)} samples; "
          f"cold_s_p50 over {len(colds)}; trials_per_s over {len(trials)}")
    log(f"perfbench: cold walls {[round(c, 3) for c in colds]}")
    return {
        "trials_per_s": quantile(trials, 0.5),
        "setup_s": quantile(setup, 0.5),
        "submits_per_s": submits_per_s,
        "hit_ms_p50": quantile(hits, 0.5),
        "hit_ms_tail": hit_tail,
        "cold_s_p50": quantile(colds, 0.5),
        "peak_rss_mb": tally.rss,
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }


# ---------------------------------------------------------------------------
# table2-mc


def table2_argv(samples, seed):
    return [XBAR, "run", "table2", "--json", "--rng-stream", "v2",
            "--samples", str(samples), "--seed", str(seed)]


def table2_mc(seed, seconds, trace):
    tally = Tally()
    seeds = campaign_seeds(seed, "table2-mc")
    work = fresh("table2")
    os.makedirs(work)
    circuits = 16

    setup, setup_digests = [], []
    for i in range(5):
        cseed = seeds[i % len(seeds)]
        out = os.path.join(work, f"setup-{i}.json")
        code, wall, rss = run(table2_argv(1, cseed), out)
        tally.rss = max(tally.rss, rss)
        setup.append(wall)
        setup_digests.append((cseed, digest(out) if code == 0 else None))

    digests = []

    def campaign(index, cseed):
        out = os.path.join(work, f"campaign-{index}.json")
        code, wall, rss = run(table2_argv(TABLE2_SAMPLES, cseed), out)
        tally.rss = max(tally.rss, rss)
        digests.append((cseed, digest(out) if code == 0 else None))
        return wall

    walls, hits = campaign_loop(seconds, seeds, campaign)

    # Outside the timed window: every repeat of a campaign is byte-identical.
    check_repeats(tally, setup_digests)
    check_repeats(tally, digests)

    if trace:
        first = walls[::len(seeds)]
        return table2_traced(tally, seeds[0], first, os.path.join(work, "campaign-0.json"))
    trials = [TABLE2_SAMPLES * circuits / w for w in walls]
    return tally, end_to_end(trials, setup, len(walls) / sum(walls), hits, walls, tally)


def table2_traced(tally, cseed, walls, artifact):
    replay_out = os.path.join(RUN, "table2", "replay.json")
    result = harness(["table2", "--samples", str(TABLE2_SAMPLES), "--seed", str(cseed),
                      "--stream", "v2", "--artifact-out", replay_out], "table2-mc", tally)
    # The replay's HBA/EA success counts and its whole artifact must equal
    # the program's.
    with open(artifact) as f:
        doc = json.load(f)
    for c in doc["data"]["circuits"]:
        want = result["counts"].get(c["name"])
        tally.op(want == [c["hba_successes"], c["ea_successes"]])
    tally.op(os.path.exists(replay_out) and digest(replay_out) == digest(artifact))
    return tally, traced_metrics(result, statistics.median(walls))


# ---------------------------------------------------------------------------
# launch-fanout


def launch_argv(shards, samples, seed, tag):
    work = fresh("launch", f"work-{tag}")
    out = os.path.join(RUN, "launch", f"merged-{tag}.json")
    art = os.path.join(RUN, "launch", f"artifact-{tag}.json")
    # Separate fresh out and work dirs: the launcher removes its emptied
    # --work-dir after the merge, so an --out inside it would fail.
    return [XBAR, "mc", "launch", "--hosts", LAUNCH_HOSTS, "--shards", str(shards),
            "--samples", str(samples), "--seed", str(seed), "--work-dir", work,
            "--out", out, "--artifact", art], art


def launch_fanout(seed, seconds, trace):
    tally = Tally()
    seeds = campaign_seeds(seed, "launch-fanout")
    fresh("launch")
    os.makedirs(os.path.join(RUN, "launch"))
    samples = LAUNCH_SHARDS * LAUNCH_SAMPLES_PER_SHARD
    circuits = 16

    setup, setup_arts = [], []
    for i in range(3):
        cseed = seeds[i % len(seeds)]
        argv, art = launch_argv(2, 2, cseed, f"setup-{i}")
        code, wall, rss = run(argv)
        tally.rss = max(tally.rss, rss)
        setup.append(wall)
        setup_arts.append((2, cseed, art if code == 0 else None))

    arts = []

    def campaign(index, cseed):
        argv, art = launch_argv(LAUNCH_SHARDS, samples, cseed, str(index))
        code, wall, rss = run(argv)
        tally.rss = max(tally.rss, rss)
        arts.append((samples, cseed, art if code == 0 else None))
        return wall

    walls, hits = campaign_loop(seconds, seeds, campaign)

    # Outside the timed window: each --artifact equals `xbar run table2
    # --json` at the same parameters.
    references = {}
    for n, cseed, art in setup_arts + arts:
        if (n, cseed) not in references:
            ref = os.path.join(RUN, "launch", f"reference-{n}-{cseed}.json")
            code, _, _ = run([XBAR, "run", "table2", "--json", "--samples", str(n),
                              "--seed", str(cseed)], ref)
            references[(n, cseed)] = digest(ref) if code == 0 else None
        want = references[(n, cseed)]
        tally.op(want is not None and art is not None and digest(art) == want)

    if trace:
        first = walls[::len(seeds)]
        return launch_traced(tally, seeds[0], samples, first, arts[0][2])
    trials = [samples * circuits / w for w in walls]
    return tally, end_to_end(trials, setup, len(walls) / sum(walls), hits, walls, tally)


def launch_traced(tally, cseed, samples, walls, artifact):
    replay_out = os.path.join(RUN, "launch", "replay.json")
    result = harness(["launch", "--samples", str(samples), "--shards", str(LAUNCH_SHARDS),
                      "--seed", str(cseed), "--hosts", LAUNCH_HOSTS, "--xbar", XBAR,
                      "--work-dir", fresh("launch", "work-replay"),
                      "--artifact-out", replay_out], "launch-fanout", tally)
    tally.op(artifact is not None and os.path.exists(replay_out)
             and digest(replay_out) == digest(artifact))
    return tally, traced_metrics(result, statistics.median(walls))


# ---------------------------------------------------------------------------
# service-mix


def service_sequence(seed):
    """The seeded request stream of (samples, campaign seed) pairs, in
    blocks of SERVICE_BLOCK requests with a fixed make-up, so every run sees
    the same mix and only the campaigns and their order vary with the seed.
    Each block holds:

    - a new campaign followed at once by an identical submit, which
      coalesces onto it while it is in flight;
    - a new campaign followed at once by a sibling with the same seed and
      circuits and the other sample count, which shares its batch key;
    - repeats of earlier campaigns, which read the cache.

    New campaigns and siblings run cold and then store their artifacts.
    The make-up is assumed: the repository has no record of real service
    traffic. NOTES.md gives the reason for each proportion."""
    rng = random.Random(f"{seed}:service-mix")
    seen = []
    first = True
    while True:
        coalesce = (SERVICE_SAMPLES, rng.randrange(1, 2**31))
        parent = (SERVICE_SAMPLES, rng.randrange(1, 2**31))
        groups = [[coalesce, coalesce], [parent, (SIBLING_SAMPLES, parent[1])]]
        repeats = SERVICE_BLOCK - 4
        slots = sorted(rng.sample(range(repeats + 1), 2))
        if first:
            slots[0], first = 0, False
        for position in range(repeats + 1):
            while slots and slots[0] == position:
                slots.pop(0)
                for request in groups.pop(0):
                    if request not in seen:
                        seen.append(request)
                    yield request
            if position < repeats:
                yield rng.choice(seen)


def submit_args(request):
    samples, seed = request
    return ["--samples", str(samples), "--seed", str(seed), "--circuits", SERVICE_CIRCUITS]


def start_serve(work):
    """Spawns `xbar serve` with default settings on an ephemeral port.
    Returns (process, address, seconds from spawn to the listening line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([XBAR, "serve", "--listen", "127.0.0.1:0", "--work-dir", work],
                            cwd=RUN, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=LOG, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        fail(f"xbar serve did not start: {line!r}")
    host, port = line.split("listening on", 1)[1].strip().rsplit(":", 1)
    # Drain the rest of stdout so the daemon never blocks on a full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, (host, int(port)), ready


def request_lines(addr, message):
    sock = socket.create_connection(addr, timeout=REQUEST_TIMEOUT_S)
    try:
        sock.sendall((json.dumps(message) + "\n").encode())
        with sock.makefile("r", encoding="utf-8") as lines:
            for line in lines:
                yield json.loads(line)
    finally:
        sock.close()


def stop_serve(proc, addr, tally):
    """Sends `shutdown`, waits for the drain, and folds the daemon's peak RSS
    (its shard workers included) into `tally`. A daemon that cannot take the
    request is killed; one that does not exit with 0 counts as a failure."""
    try:
        for _ in request_lines(addr, {"svc": "xbar-svc/1", "type": "shutdown"}):
            break
    except OSError as e:
        log(f"perfbench: shutdown request failed ({e}); killing the daemon")
        proc.kill()
    deadline = time.monotonic() + 60
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            tally.rss = max(tally.rss, usage.ru_maxrss / 1024.0)
            tally.op(proc.returncode == 0)
            if proc.returncode != 0:
                log(f"perfbench: xbar serve exited with {proc.returncode}")
            return
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.01)


def submit(addr, request):
    """One closed-loop submit with wait. Returns (disposition, seconds from
    connect to the `result` line, artifact bytes or None)."""
    t0 = time.perf_counter()
    message = {"svc": "xbar-svc/1", "type": "submit", "experiment": "table2",
               "args": submit_args(request), "wait": True}
    disposition = None
    for doc in request_lines(addr, message):
        kind = doc.get("type")
        if kind == "submitted":
            disposition = doc.get("cache")
        elif kind == "result":
            return disposition, time.perf_counter() - t0, doc["artifact"].encode()
        elif kind == "error":
            log(f"perfbench: submit {request}: {doc.get('message')}")
            break
    return disposition, time.perf_counter() - t0, None


def service_mix(seed, seconds, trace):
    tally = Tally()
    base = fresh("service")
    os.makedirs(base)

    setup = []
    for i in range(5):
        proc, addr, ready = start_serve(os.path.join(base, f"setup-{i}"))
        setup.append(ready)
        stop_serve(proc, addr, tally)
    proc, addr, ready = start_serve(os.path.join(base, "main"))
    setup.append(ready)

    stream = service_sequence(seed)
    taken, results = [], []
    lock = threading.Lock()
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client():
        while time.perf_counter() < deadline:
            with lock:
                index = len(taken)
                taken.append(next(stream))
            try:
                outcome = submit(addr, taken[index])
            except OSError as e:
                log(f"perfbench: submit {taken[index]}: {e}")
                outcome = (None, None, None)
            with lock:
                results.append((index, *outcome))

    clients = [threading.Thread(target=client) for _ in range(2)]
    try:
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        loop_wall = time.perf_counter() - t0
    finally:
        stop_serve(proc, addr, tally)

    # Outside the timed window: every served artifact equals `xbar run
    # table2 --json` for its parameters.
    def reference(request):
        out = os.path.join(base, f"reference-{request[0]}-{request[1]}.json")
        code, _, _ = run([XBAR, "run", "table2", "--json", *submit_args(request)], out)
        with open(out, "rb") as f:
            return request, (f.read() if code == 0 else None)

    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = dict(pool.map(reference, sorted({taken[i] for i, *_ in results})))
    hits, colds, trials = [], [], []
    ncirc = len(SERVICE_CIRCUITS.split(","))
    # The stream's make-up is assumed (see NOTES.md), so the hit share it
    # produced is reported next to the end-to-end numbers.
    dispositions = Counter(str(d) for _, d, _, _ in results)
    print(f"perfbench: service-mix submits by cache disposition {dict(dispositions)}; "
          f"hit share {dispositions['hit'] / max(len(results), 1):.3f}")
    for index, disposition, latency, artifact in results:
        want = expected[taken[index]]
        tally.op(artifact is not None and want is not None and artifact == want)
        if artifact is None:
            continue
        if disposition == "hit":
            hits.append(latency * 1e3)
        elif disposition == "miss":
            colds.append(latency)
            trials.append(taken[index][0] * ncirc / latency)

    if trace:
        return service_traced(tally, taken, results, loop_wall)
    return tally, end_to_end(trials, setup, len(results) / loop_wall, hits, colds, tally)


def service_traced(tally, taken, results, loop_wall):
    # Replay exactly the requests the untraced loop completed, in order.
    count = len(results)
    path = os.path.join(RUN, "service", "requests.txt")
    with open(path, "w") as f:
        for request in taken[:count]:
            f.write(" ".join(submit_args(request)) + "\n")
    # The shard probe runs the stream's first campaign seed, which derives
    # from --seed like every other campaign seed.
    result = harness(["service", "--requests", path, "--count", str(count),
                      "--seed", str(taken[0][1]), "--circuits", SERVICE_CIRCUITS, "--xbar", XBAR,
                      "--work-dir", fresh("service", "replay")], "service-mix", tally)
    return tally, traced_metrics(result, loop_wall)


# ---------------------------------------------------------------------------
# traced runs


def harness(args, workload, tally):
    spans = os.path.join(RUN, f"spans-{workload}.jsonl")
    out = os.path.join(RUN, f"harness-{workload}.out")
    code, _, _ = run([HARNESS, *args, "--spans", spans], out)
    with open(out) as f:
        lines = f.read().strip().splitlines()
    if code != 0 or not lines:
        fail(f"harness {workload} exited with {code}")
    result = json.loads(lines[-1])
    tally.attempted += result["checks"]
    tally.failed += result["failed"]
    print(f"perfbench: spans written to {os.path.relpath(spans, ROOT)}")
    return result


def traced_metrics(result, untraced_wall):
    metrics = dict(result["metrics"])
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = result["traced_wall_s"]
    metrics["trace.accounted_frac"] = result["layer_union_s"] / untraced_wall
    # The replay's own span coverage. Where one span wraps a whole launch or
    # request, accounted_frac is about 1 + overhead_frac; this one is not.
    metrics["trace.coverage_frac"] = result["layer_union_s"] / result["traced_wall_s"]
    metrics["trace.overhead_frac"] = result["traced_wall_s"] / untraced_wall - 1.0
    return metrics


# ---------------------------------------------------------------------------

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {"table2-mc": table2_mc, "launch-fanout": launch_fanout,
             "service-mix": service_mix}


def main():
    global LOG
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    build()
    shutil.rmtree(RUN, ignore_errors=True)
    os.makedirs(RUN)
    LOG = open(os.path.join(RUN, "stderr.log"), "ab")

    tally, measured = WORKLOADS[args.workload](args.seed, args.seconds, args.trace == 1)
    LOG.close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
