#!/usr/bin/env python3
"""End-to-end benchmark of popsim (examples/popsim_cli.cpp), with a traced
per-layer ledger.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds popsim and the traced-pass binary (perfbench/ledger.cpp)
from source into .bench_build/ with CMake, as a Release build; it refuses to
measure any other build type.

--trace 0 measures the end-to-end metrics.  Within --seconds it launches one
untraced popsim process after another, each on its own popsim seed derived
from --seed, and times each from outside: wall from launch to exit, setup
to the first-trial boundary, CPU and peak RSS from wait4.  popsim is pinned
to fixed CPUs; between every two measurements a host-speed probe runs on
them, and each time is scaled by the host's speed around it (see
PROBE_CALM_S).  It reports the medians.  After the loop, the first seed is
replayed in-process by the ledger, and popsim's printed step mean must match
it.

--trace 1 runs one untraced invocation and the ledger's traced pass for the
same seed.  The traced pass replays the invocation layer by layer, runs the
backup-regime silent election from an artifact generated from the seed, and
runs the engine ladder.  The trace is checked with tools/check_trace.py
--strict.  The run reports the per-layer metrics.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the environment stamp.  A copy of both,
with every per-invocation sample, goes to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
POPSIM = os.path.join(BUILD, "repo", "example_popsim_cli")
LEDGER = os.path.join(BUILD, "perfbench_ledger")
TARGETS = ["example_popsim_cli", "perfbench_ledger"]

# rr8 size shared by rr8-step, rr8-fleet2, the backup artifact and the
# ladder, so every rr8 number describes the same graph for a seed.
RR8_N = 10000
WELLMIXED_N = 5000
FLEET_TRIALS = 8
FLEET_JOBS = 2
INVOCATION_TIMEOUT = 30   # seconds; a slower invocation counts as failed
RUN_BUDGET = 170          # seconds a run may take after its build
# The host-speed probe: PROBE_LOOP iterations of an integer loop, which take
# PROBE_CALM_S on one CPU of a calm host (4-vCPU Xeon KVM guest, CPython
# 3.11).  Timings are scaled by PROBE_CALM_S / (the probe's time around
# them), so they read as seconds on that host whatever speed the host runs
# at while measured.
PROBE_LOOP = 500_000
PROBE_CALM_S = 0.02


def popsim_args(workload, seed):
    """popsim's arguments for one invocation of `workload`."""
    if workload == "rr8-step":
        return ["rr8", str(RR8_N), "fast", "--trials", "1", "--seed", str(seed)]
    if workload == "clique-wellmixed":
        return ["clique", str(WELLMIXED_N), "fast", "--engine", "wellmixed",
                "--trials", "1", "--seed", str(seed)]
    return ["rr8", str(RR8_N), "fast", "--trials", str(FLEET_TRIALS),
            "--jobs", str(FLEET_JOBS), "--seed", str(seed)]


WORKLOADS = ["rr8-step", "clique-wellmixed", "rr8-fleet2"]
DEADLINE = float("inf")  # set once the build is done


def units(section):
    """name -> unit of the metrics BENCHMARK.json lists in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[section]}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def sub_seed(seed, index):
    """The popsim seed of invocation `index` of a run: a 63-bit hash, so
    nearby --seed values share no invocation."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ----------------------------------------------------------------- build ---

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                         BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                fail(f"cmake configure failed, see {log_path}")
        compile_cmd = ["cmake", "--build", BUILD, "--target", *TARGETS, "-j",
                       str(os.cpu_count() or 1)]
        if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode:
            fail(f"build failed, see {log_path}")
    cache = cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        fail(f"refusing to measure a {cache.get('CMAKE_BUILD_TYPE')!r} build;"
             " rebuild .bench_build as Release")


def cmake_cache():
    values = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if match:
                values[match.group(1)] = match.group(2)
    return values


def environment():
    """The stamp recorded with every result."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    if os.path.isdir(os.path.join(ROOT, ".git")) and git.returncode == 0:
        revision = git.stdout.strip()
    else:  # an exported checkout: hash the sources instead
        digest = hashlib.sha256()
        for top in ("src", "examples", "perfbench", "CMakeLists.txt"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
        revision = "sources-sha256:" + digest.hexdigest()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "revision": revision,
    }


# ------------------------------------------------------------ processes ---

def reap_group(proc):
    """SIGKILLs what is left of the process group `proc` leads, reaps `proc`
    and waits until the rest of the group (fleet workers) is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode is None:
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)


def time_left(cap=INVOCATION_TIMEOUT):
    return max(0.0, min(cap, DEADLINE - time.perf_counter()))


def pinned(cpus):
    """A preexec_fn that confines the child to `cpus` (None: anywhere)."""
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def invoke(args, cpus=None):
    """One untraced popsim invocation, timed from outside, on `cpus`.

    stdout is line-buffered through stdbuf, so each line is stamped as it
    is written; stderr is unbuffered in popsim.
    """
    limit = time_left()
    start = time.perf_counter()
    proc = subprocess.Popen(["stdbuf", "-oL", POPSIM, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, preexec_fn=pinned(cpus))
    lines = {"out": [], "err": []}
    pending = {"out": b"", "err": b""}
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ, "out")
    selector.register(proc.stderr, selectors.EVENT_READ, "err")
    timed_out = False
    while selector.get_map():
        remaining = limit - (time.perf_counter() - start)
        if remaining <= 0:
            timed_out = True
            break
        for key, _ in selector.select(remaining):
            chunk = os.read(key.fileobj.fileno(), 65536)
            now = time.perf_counter() - start
            if not chunk:
                selector.unregister(key.fileobj)
                continue
            pending[key.data] += chunk
            *complete, pending[key.data] = pending[key.data].split(b"\n")
            lines[key.data] += [(now, line.decode(errors="replace"))
                                for line in complete]
    selector.close()
    usage = None
    if not timed_out:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    reap_group(proc)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "args": args,
        "started": time.time() - (time.perf_counter() - start),
        "rc": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime if usage else None,
        "peak_rss_mb": usage.ru_maxrss / 1024 if usage else None,
        "stdout": [text for _, text in lines["out"]],
        "stdout_at": lines["out"],
        "stderr_at": lines["err"],
    }


def wellmixed_setup(args, cpus):
    """Setup time of the clique-wellmixed invocation, on `cpus`.

    popsim's wellmixed path prints nothing before its trial.  With
    --trials 2 the same code runs the same setup and then starts the trial
    thread pool, so the moment the process gains a thread is the end of
    setup.  The probe is killed there.
    """
    probe_args = list(args)
    probe_args[probe_args.index("--trials") + 1] = "2"
    limit = time_left()
    start = time.perf_counter()
    proc = subprocess.Popen([POPSIM, *probe_args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=pinned(cpus))
    setup = None
    while time.perf_counter() - start < limit:
        try:
            with open(f"/proc/{proc.pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            break
        if fields[0] == "Z":
            break
        if int(fields[17]) > 1:  # num_threads
            setup = time.perf_counter() - start
            break
        time.sleep(0.0005)
    reap_group(proc)
    return setup


def host_probe(cpus):
    """Mean seconds a fixed integer loop takes on each CPU of `cpus` right
    now.  It shares no code with popsim, so only the host's speed moves it,
    and it slows with popsim when the host does (see README, Steadiness)."""
    allowed = os.sched_getaffinity(0)
    seconds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        seconds.append(time.perf_counter() - start)
    os.sched_setaffinity(0, allowed)
    return statistics.mean(seconds)


def ledger_pass(args, extra=()):
    """The ledger's in-process replay of `args`; returns its JSON object."""
    work = os.path.join(BUILD, "work")
    cmd = [LEDGER, "pass", "--popsim", POPSIM, "--work", work, *extra, "--",
           *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=time_left(RUN_BUDGET))
    finally:  # a fleet pass has popsim workers in the ledger's group
        reap_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"ledger pass failed: {err.strip()}")
    return json.loads(out)


# --------------------------------------------------------------- checks ---

def summary(run):
    """(trials, printed step mean, setup boundary) parsed from one
    invocation, or None when the output does not show a stabilized election
    with a leader."""
    if run["rc"] != 0 or run["timed_out"]:
        return None
    out = "\n".join(run["stdout"])
    stabilized = re.search(r"^stabilized: 100% of (\d+) trials$", out, re.M)
    mean = re.search(r"^steps: mean (\S+) ", out, re.M)
    leader = re.search(r"^sample leader: node (\d+)$", out, re.M) or \
        re.search(r"^stabilized trials elected a unique leader$", out, re.M)
    if not (stabilized and mean and leader):
        return None
    boundary = None
    for at, text in run["stderr_at"]:
        if "fleet sweep" in text:  # the fleet starts its workers here
            boundary = at
            break
    if boundary is None:
        for at, text in run["stdout_at"]:
            if text.startswith("engine:"):
                boundary = at
                break
    return int(stabilized.group(1)), mean.group(1), boundary


def matches(printed_mean, replay):
    """popsim's printed mean equals the replay's, at the printed precision.
    The replay reports the mean from the library's summary function, so a
    mean that ends in .5 rounds the same way in both."""
    trials = replay["trials"]
    if not trials or not all(t["stabilized"] and t["leader"] >= 0 for t in trials):
        return False
    mean = replay["steps_mean"]
    precise = "e" in printed_mean or "." in printed_mean
    return printed_mean == ("%.3g" % mean if precise else "%.0f" % mean)


def cross_check(workload, run, replay):
    """The replayed seed's printed summary against the ledger and, for the
    fleet, against the serial invocation of the same sweep."""
    parsed = summary(run)
    if parsed is None or not matches(parsed[1], replay):
        print(f"perfbench: {' '.join(run['args'])} does not match its replay",
              file=sys.stderr)
        return False
    if workload == "rr8-fleet2":
        serial_args = list(run["args"])
        jobs = serial_args.index("--jobs")
        del serial_args[jobs:jobs + 2]
        serial = invoke(serial_args)
        if serial["rc"] != 0 or serial["stdout"] != run["stdout"]:
            print("perfbench: the fleet's summary differs from the serial one",
                  file=sys.stderr)
            return False
    return True


# ------------------------------------------------------------- measure ---

def end_to_end(workload, seed, seconds, record):
    """The timed loop.  The host probe runs before the first measurement and
    after each one; a measurement's host speed is PROBE_CALM_S over the mean
    of the probes on either side of it.  On clique-wellmixed a setup probe
    follows every invocation, so setup_s samples the same host time as the
    rest.

    The vCPUs of a shared host slow down one at a time, so the probe must
    run where popsim runs: popsim is pinned to one CPU per process that
    computes at once (one, or the fleet's workers), and the probe averages
    over those CPUs.  They are the last CPUs the run may use, the same in
    every run, since the probe reads some CPUs a few percent slower than
    others where popsim does not."""
    width = FLEET_JOBS if workload == "rr8-fleet2" else 1
    cpus = sorted(os.sched_getaffinity(0))[-width:]
    args = lambda i: popsim_args(workload, sub_seed(seed, i))
    invoke(args("warmup"), cpus)
    host = [host_probe(cpus)]

    def measured(item):
        host.append(host_probe(cpus))
        item["host_speed"] = 2 * PROBE_CALM_S / (host[-2] + host[-1])
        return item

    runs, setup_probes = [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(measured(invoke(args(len(runs)), cpus)))
        if workload == "clique-wellmixed":
            setup_probes.append(measured(
                {"setup_s": wellmixed_setup(args(f"setup{len(setup_probes)}"), cpus)}))
    try:
        checked = cross_check(workload, runs[0], ledger_pass(runs[0]["args"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        checked = False

    ok = []
    for index, run in enumerate(runs):
        parsed = summary(run)
        run["ok"] = parsed is not None and (index > 0 or checked) and (
            workload == "clique-wellmixed" or parsed[2] is not None)
        if run["ok"]:
            trials, mean, boundary = parsed
            run["steps"] = trials * float(mean)
            run["setup_s"] = boundary
            ok.append(run)
    good_probes = [p for p in setup_probes if p["setup_s"] is not None]
    attempted = len(runs) + len(setup_probes)
    failed = attempted - len(ok) - len(good_probes)
    setups = good_probes if setup_probes else ok

    def median(items, value):
        return statistics.median(map(value, items)) if items else 0.0

    # scale=False gives the raw median, as measured at the host's speed.
    def timings(scale):
        at = (lambda item: item["host_speed"]) if scale else (lambda item: 1.0)
        return {
            "wall_s": median(ok, lambda r: r["wall_s"] * at(r)),
            "setup_s": median(setups, lambda r: r["setup_s"] * at(r)),
            "steps_per_s": median(ok, lambda r: r["steps"] / (r["wall_s"] * at(r))),
            "cpu_s": median(ok, lambda r: r["cpu_s"] * at(r)),
        }

    metrics = timings(True)
    metrics["peak_rss_mb"] = median(ok, lambda r: r["peak_rss_mb"])
    metrics["ok_frac"] = (len(ok) + len(good_probes)) / attempted
    record["raw"] = timings(False)
    record["cpus"] = cpus
    record["host_probe_s"] = host
    record["invocations"] = [
        {k: r.get(k) for k in ("args", "started", "rc", "ok", "wall_s", "setup_s",
                               "steps", "cpu_s", "peak_rss_mb", "host_speed")}
        for r in runs]
    record["setup_probes"] = setup_probes
    record["cross_check"] = checked
    return checked and failed == 0, attempted, failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units("end_to_end").items()}


# --------------------------------------------------------------- traced ---

def fleet_timeline(trace_path):
    """fleet.worker_setup_s (worker spawn to its first trial, mean over the
    workers) and fleet.first_record_s (sweep start to the first merged
    record) from the supervisor's events in the trace."""
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    sweep_start = next((e["ts"] for e in events
                        if e["name"] == "fleet.sweep" and e["ph"] == "B"), None)
    spawned = {e["args"]["pid"]: e["ts"] for e in events
               if e["name"] == "worker" and e["ph"] == "B"}
    first_trial = {}
    for e in events:
        if e["name"] == "trial" and e["ph"] == "B":
            first_trial.setdefault(e["pid"], e["ts"])
    setups = [first_trial[pid] - ts for pid, ts in spawned.items()
              if pid in first_trial]
    record = next((e["ts"] for e in events
                   if e["name"] == "record" and e["ph"] == "i"), None)
    if sweep_start is None or record is None or not setups:
        return None
    return statistics.mean(setups) * 1e-6, (record - sweep_start) * 1e-6


def per_layer(workload, seed, record):
    layer_units = units("per_layer")
    trace_path = os.path.join(BUILD, "results", f"{workload}-{seed}.trace.json")
    run = invoke(popsim_args(workload, sub_seed(seed, 0)))
    traced = ledger_pass(run["args"], ["--trace", trace_path, "--ladder", str(RR8_N)])
    checker = subprocess.run([sys.executable,
                              os.path.join(ROOT, "tools", "check_trace.py"),
                              "--strict", trace_path], capture_output=True,
                             text=True)
    metrics = traced["metrics"]
    if workload == "rr8-fleet2":
        timeline = fleet_timeline(trace_path)
        if timeline is not None:
            metrics["fleet.worker_setup_s"], metrics["fleet.first_record_s"] = timeline
    else:  # no sweep ran: both cover the empty sweep slot
        metrics["fleet.worker_setup_s"] = metrics["fleet.sweep_s"]
        metrics["fleet.first_record_s"] = metrics["fleet.sweep_s"]
    metrics["trace.untraced_wall_s"] = run["wall_s"]
    metrics["trace.overhead_frac"] = metrics["trace.mirror_s"] / run["wall_s"] - 1

    checked = cross_check(workload, run, traced)
    # Counts and ratios of a layer the workload bypasses are 0; every time
    # comes from a span the ledger always opens.
    missing = [name for name, unit in layer_units.items()
               if name not in metrics and unit == "s"]
    correct = (checked and checker.returncode == 0 and not missing and
               metrics["trace.coverage"] >= 0.95)
    record.update(traced=traced, untraced=run["stdout"], cross_check=checked,
                  check_trace=checker.stdout.strip() + checker.stderr.strip(),
                  missing=missing)
    return correct, 1, 0 if checked else 1, {
        name: {"value": metrics.get(name, 0.0), "unit": unit}
        for name, unit in layer_units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    build()
    global DEADLINE
    DEADLINE = time.perf_counter() + RUN_BUDGET
    stamp = environment()
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    record = {"workload": opts.workload, "seed": opts.seed, "env": stamp}
    if opts.trace:
        correct, attempted, failed, metrics = per_layer(opts.workload, opts.seed,
                                                        record)
    else:
        correct, attempted, failed, metrics = end_to_end(
            opts.workload, opts.seed, opts.seconds, record)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    for leftover in ("artifact.ppaf", "backup.ppaf", "manifest"):
        path = os.path.join(BUILD, "work", leftover)
        if os.path.exists(path):
            os.remove(path)
    name = f"{opts.workload}-{opts.seed}-trace{opts.trace}.json"
    with open(os.path.join(BUILD, "results", name), "w") as out:
        json.dump(record, out, indent=1)
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    for metric, value in record.get("raw", {}).items():
        print(f"{metric} as measured = {value:.6g}")
    print("env: " + json.dumps(stamp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
