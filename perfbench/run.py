#!/usr/bin/env python3
"""End-to-end benchmark of the abagnale command-line tool.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload synth-reno --seed 42 --seconds 20 --trace 0

It builds the CLI and the in-process replay from source into
.bench_build/, runs one workload against fresh `abagnale` processes,
checks their outputs, and prints one JSON result as the last line of
stdout. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 makes a separate traced run and reports the per-layer metrics.
perfbench/README.md describes the workloads, the metrics and the noise
sources the design keeps out.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import collections
import functools
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import time

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")
ABAGNALE = os.path.abspath(os.path.join(BUILD_DIR, "default", "bin", "abagnale.exe"))
REPLAY = os.path.abspath(
    os.path.join(BUILD_DIR, "default", BENCH_DIR, "replay", "replay.exe"))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
DEFAULT_SEED = 42


# HOST_NOISE. On the 2-CPU virtual machines this benchmark was tuned on,
# the host runs at one of two speeds, about 1.2-1.7x apart depending on
# the workload, and switches every 15-60 s. A run's time is then a mix of
# the two levels, not a steady value with rare outliers. The mean over a
# run's commands follows the mix smoothly, where the median jumps from
# one level to the other: over 150 daemon starts, windows the length of
# one run spread by 9-12% (quartile distance over median) taking the
# mean, and by 13-20% taking the median. Wall and set-up times are
# therefore means over samples spread across the whole run.


class BenchError(Exception):
    """A failure of the benchmark itself: it exits non-zero, without a result."""


def metric_units(trace):
    """Name -> unit of every metric a run reports, from BENCHMARK.json:
    the per-layer metrics of a traced run, else the end-to-end ones."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def ratio(a, b):
    return a / b if b else 0.0


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- build -----------------------------------------------------------------


def build():
    """Build the CLI and the replay from the checkout's sources."""
    needed = ("dune-project", os.path.join("bin", "abagnale.ml"), "lib")
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError("run from the root of an abagnale checkout (missing %s)"
                         % ", ".join(missing))
    os.makedirs(WORK_DIR, exist_ok=True)
    log_path = os.path.join(WORK_DIR, "build.log")
    command = ["dune", "build", "--root", ".", "--profile", "release",
               "--build-dir", BUILD_DIR, "./bin/abagnale.exe",
               "./%s/replay/replay.exe" % BENCH_DIR]
    # The shared dune cache lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        with open(log_path, "wb") as out:
            code = subprocess.call(command, stdout=out, stderr=subprocess.STDOUT, env=env)
    except OSError as e:
        raise BenchError("cannot run dune: %s" % e)
    if code != 0:
        with open(log_path, errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        raise BenchError("build failed (dune exit %d)" % code)


# -- processes -------------------------------------------------------------


def reap(proc):
    """Wait for proc; its exit code and peak RSS in MB, from wait4's rusage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop(proc):
    """Kill proc if it has not been reaped yet, and wait for it."""
    if proc.returncode is None:
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reap(proc)


def cli_env(telemetry=True):
    env = dict(os.environ)
    env.pop("ABAGNALE_TELEMETRY", None)
    if not telemetry:
        env["ABAGNALE_TELEMETRY"] = "0"
    return env


# The count-th stderr line that matches pattern ends a command's set-up.
Marker = collections.namedtuple("Marker", "pattern count")


def setup_marker(pattern, count=1):
    return Marker(re.compile(pattern), count)


def read_until(stream, marker, sink=None):
    """Read stream up to the marker.count-th line matching marker.pattern,
    copying what it reads to sink; whether that line came."""
    seen = 0
    for line in iter(stream.readline, b""):
        if sink is not None:
            sink.write(line)
        if marker.pattern.match(line):
            seen += 1
            if seen == marker.count:
                return True
    return False


def run_cli(args, run_dir, env, marker):
    """Run `abagnale ARGS` as a fresh process with its output in run_dir.
    Returns (wall seconds, seconds to the progress line on stderr that ends
    its set-up, or None if it printed none, exit code, peak RSS MB, stdout)."""
    out_path = os.path.join(run_dir, "stdout")
    with open(out_path, "wb") as out, \
            open(os.path.join(run_dir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([ABAGNALE] + args, stdout=out, stderr=subprocess.PIPE,
                                env=env)
        try:
            came = read_until(proc.stderr, marker, err)
            to_setup = time.perf_counter() - t0 if came else None
            shutil.copyfileobj(proc.stderr, err)
            code, rss = reap(proc)
        finally:
            proc.stderr.close()
            stop(proc)
        wall = time.perf_counter() - t0
    with open(out_path, errors="replace") as f:
        return wall, to_setup, code, rss, f.read()


def setup_seconds(args, marker):
    """Seconds from spawning `abagnale ARGS` to the progress line that ends
    its set-up; the process is killed there."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([ABAGNALE] + args, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=cli_env())
    try:
        came = read_until(proc.stderr, marker)
        seconds = time.perf_counter() - t0
    finally:
        stop(proc)
        proc.stderr.close()
    if not came:
        raise BenchError("abagnale %s printed no set-up line" % args[0])
    return seconds


def run_replay(args):
    proc = subprocess.run([REPLAY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("replay %s failed (exit %d)" % (args[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_dir(name):
    """An empty run directory: nothing carries over from an earlier run."""
    path = os.path.join(WORK_DIR, "run", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_mb(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total / 1e6


# -- output checks ---------------------------------------------------------


def expected(workload):
    with open(os.path.join(EXPECTED_DIR, workload + ".txt")) as f:
        return f.read()


@functools.lru_cache(maxsize=None)
def build_id():
    """Digest of the abagnale binary under test and of this script, which
    makes its inputs."""
    h = hashlib.sha256()
    for path in (ABAGNALE, __file__):
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def agrees_with_other_runs(workload, key, text):
    """Deterministic outputs depend only on the inputs, so every run of one
    build that feeds the program the same inputs, timed or traced, must
    print the same bytes. The first such run records a digest; later runs
    compare against it. Digests are kept per abagnale binary and version
    of this script: another build may print other counts, and is checked
    against its own runs."""
    path = os.path.join(WORK_DIR, "outputs", build_id(), "%s-%s.sha256" % (workload, key))
    digest = hashlib.sha256(text.encode()).hexdigest()
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


# -- per-layer metrics -----------------------------------------------------


def span_totals(telemetry):
    """Span path -> total seconds, from a telemetry report."""
    return {name[len("span/"):]: h.get("sum", 0) / 1e9
            for name, h in telemetry.get("histograms", {}).items()
            if name.startswith("span/")}


def self_times(spans):
    """A span's self time: its total minus its direct children's totals."""
    out = {}
    for path, total in spans.items():
        children = [q for q in spans
                    if q.startswith(path + "/") and "/" not in q[len(path) + 1:]]
        out[path] = total - sum(spans[q] for q in children)
    return out


def top_level(spans):
    return [p for p in spans
            if not any(p != q and p.startswith(q + "/") for q in spans)]


def layer_metrics(telemetry, replay, extra):
    """Every per-layer metric, from the traced command's telemetry report,
    the replay's timings and this script's own measurements (extra). A
    layer the workload does not reach reads 0."""
    counters = dict(telemetry.get("counters", {}))
    counters.update(telemetry.get("volatile", {}))
    hist = telemetry.get("histograms", {})
    spans = span_totals(telemetry)

    def c(name):
        return counters.get(name, 0)

    def r(name):
        return replay.get(name, 0.0)

    m = {}
    events = c("sim.events")
    ns_per_event = ratio(r("netsim.replay_s") * 1e9, r("netsim.replay_events"))
    m["netsim.sims"] = c("sim.runs")
    m["netsim.events"] = events
    m["netsim.busy_s"] = events * ns_per_event / 1e9
    m["netsim.ns_per_event"] = ns_per_event

    hits, misses = c("trace.store.hits"), c("trace.store.misses")
    m["trace.serialize_s"] = r("trace.serialize_s")
    m["trace.serialize_mb"] = r("trace.serialize_mb")
    m["trace.parse_ns_per_line"] = r("trace.parse_ns_per_line")
    m["trace.store_hit_ratio"] = ratio(hits, hits + misses)

    m["classifier.gordon_s"] = r("classifier.gordon_s")
    m["classifier.gordon_ref_build_s"] = (
        max(0.0, r("classifier.gordon_s") - r("classifier.gordon_warm_s"))
        if "classifier.gordon_s" in replay else 0.0)
    m["classifier.ccanalyzer_s"] = r("classifier.ccanalyzer_s")
    m["classifier.online_prepare_s"] = r("classifier.online_prepare_s")
    m["classifier.online_classify_us"] = r("classifier.online_classify_us")

    calls, lb_pruned = c("distance.dtw.calls"), c("distance.dtw.lb_pruned")
    m["distance.dtw_calls"] = calls
    m["distance.dtw_cells"] = c("distance.dtw.cells")
    m["distance.dtw_abandon_ratio"] = ratio(c("distance.dtw.abandoned"), calls)
    m["distance.dtw_lb_prune_ratio"] = ratio(lb_pruned, calls + lb_pruned)

    enumerate_s = spans.get("synth/refine/enumerate", 0.0)
    models, returned = c("enum.sat.sat"), c("enum.returned")
    pruned = sum(v for k, v in counters.items() if k.startswith("enum.pruned."))
    m["enum.enumerate_s"] = enumerate_s
    m["enum.sat_models"] = models
    m["enum.returned"] = returned
    m["enum.useful_ratio"] = ratio(returned, models)
    m["sat.propagations"] = c("sat.propagations")
    m["sat.conflicts"] = c("sat.conflicts")
    m["analysis.pruned"] = pruned
    m["analysis.prune_rate"] = ratio(pruned, pruned + returned)

    refine_s = spans.get("synth/refine", 0.0)
    score_s = max(0.0, refine_s - enumerate_s)
    handlers = c("score.completions")
    m["core.refine_s"] = refine_s
    m["core.score_s"] = score_s
    m["core.handlers_scored"] = handlers
    m["core.us_per_handler"] = ratio(score_s * 1e6, handlers)
    m["core.finalist_ratio"] = ratio(c("score.finalists"), handlers)

    m["pool.workers"] = telemetry.get("gauges", {}).get("pool.workers", 0)
    m["pool.sequential_maps"] = c("pool.sequential_maps")
    m["pool.participations"] = c("pool.participations")

    wall = extra["traced_wall_s"]
    quarantined = c("batch.jobs.quarantined")
    jobs = c("batch.jobs.ok") + quarantined
    job_s = spans.get("batch/job", 0.0)
    m["batch.jobs"] = jobs
    m["batch.attempts"] = c("batch.attempts")
    m["batch.quarantined"] = quarantined
    m["batch.job_s"] = job_s
    m["batch.outside_job_s"] = max(0.0, wall - job_s) if jobs else 0.0
    m["batch.store_put_s"] = r("batch.store_put_s")
    m["batch.run_dir_mb"] = extra.get("run_dir_mb", 0.0) if jobs else 0.0

    m["fuzz.evaluations"] = c("fuzz.evaluations")
    m["fuzz.mutations"] = c("fuzz.mutations")
    m["fuzz.search_s"] = r("fuzz.search_s")

    request = hist.get("serve.request_ns", {})
    classify = hist.get("serve.classify_ns", {})
    server_us = ratio(classify.get("sum", 0), classify.get("count", 0)) / 1e3
    m["serve.open_us"] = extra.get("open_us", 0.0)
    m["serve.request_us"] = ratio(request.get("sum", 0), request.get("count", 0)) / 1e3
    m["serve.drain_s"] = extra.get("drain_s", 0.0)
    m["serve.engine_us"] = r("serve.engine_us")
    m["serve.classify_server_us"] = server_us
    m["serve.wire_us"] = (max(0.0, extra["classify_mean_us"] - server_us)
                          if "classify_mean_us" in extra else 0.0)
    m["serve.gen_lag_p99_ms"] = extra.get("gen_lag_p99_ms", 0.0)
    m["serve.phase2_busy_ratio"] = extra.get("phase2_busy_ratio", 0.0)
    m["serve.classify_p50_ms"] = extra.get("classify_p50_ms", 0.0)
    m["serve.classify_p99_ms"] = extra.get("classify_p99_ms", 0.0)

    m["obs.export_overhead_ratio"] = extra["export_ratio"]
    m["obs.telemetry_cost_ratio"] = extra["telemetry_ratio"]

    # Time the program's own spans account for: top-level spans, plus the
    # daemon's request handling, which has a histogram but no span.
    attributed = sum(spans[p] for p in top_level(spans)) + request.get("sum", 0) / 1e9
    m["attribution.attributed_s"] = attributed
    m["attribution.unattributed_s"] = max(0.0, wall - attributed)
    m["attribution.attributed_share"] = ratio(attributed, wall)
    return m


def print_self_times(telemetry, wall):
    spans = span_totals(telemetry)
    if not spans:
        return
    own = self_times(spans)
    print("self time by span in the traced command (s):")
    for path in sorted(own, key=lambda p: -own[p]):
        print("  %-40s %8.3f" % (path, own[path]))
    attributed = sum(spans[p] for p in top_level(spans))
    print("  %-40s %8.3f of wall %.3f" % ("(unattributed)", wall - attributed, wall))


# -- one-shot workloads ----------------------------------------------------


class OneShot:
    """A workload whose unit is one fresh `abagnale` command. A run makes a
    fixed number of commands, set by --seconds and the command's nominal
    wall time on a 2-CPU box, so both sides of a comparison do the same
    work. The first command runs on the run's seed; the others run on a
    fixed panel of seeds, so that how much work a seed happens to make
    (fuzz scenarios range over 2-40 Mbit/s) moves only one command's share
    of the mean.

    Every command runs verbose, and its set-up is the time from spawn to
    the progress line on stderr that ends it (setup_line): its first
    result, with everything the command prepares before it. After each
    command, setup_starts more commands on the first panel seed are
    started and killed at that line. They outweigh the run's own seed,
    whose set-up time varies most (a fuzz seed's first generation takes
    65-120 ms)."""

    name = ""
    nominal_s = 1.0
    min_reps = 3
    panel_base = 1000
    setup_line = None
    setup_starts = 0

    def reps(self, seconds):
        return max(self.min_reps, int(round(seconds / self.nominal_s)))

    def program_seed(self, seed, j):
        return seed if j == 0 else self.panel_base + j

    def args(self, seed, run_dir):
        raise NotImplementedError

    def units(self):
        """Units of work one command completes, fixed by its inputs."""
        raise NotImplementedError

    def inspect(self, run_dir, stdout):
        """(deterministic output, the part checked against the expected
        file, failed units) of one finished command."""
        raise NotImplementedError

    def replay_args(self, seed):
        raise NotImplementedError

    def replay_agrees(self, replay, output):
        """Whether the replay's result matches the command's output."""
        return True

    def run_once(self, seed, env, telemetry=False):
        run_dir = fresh_dir(self.name)
        args = self.args(seed, run_dir)
        tel_path = os.path.join(run_dir, "telemetry.json")
        if telemetry:
            args = args + ["--telemetry", tel_path]
        wall, to_setup, code, rss, stdout = run_cli(args, run_dir, env, self.setup_line)
        output, checked, failed = self.inspect(run_dir, stdout)
        rep = {"seed": seed, "wall": wall, "setup": to_setup, "rss": rss, "code": code,
               "output": output, "checked": checked, "failed": failed}
        if telemetry:
            with open(tel_path) as f:
                rep["telemetry"] = json.load(f)
            rep["run_dir_mb"] = dir_mb(run_dir)
        return rep

    def account(self, reps):
        """(attempted, failed) units. A command that exits non-zero, prints
        no progress line, whose output differs from another run on the same
        inputs, or, on the default seed, from the expected file, fails all
        its units."""
        units = self.units()
        first = {}
        failed = 0
        for rep in reps:
            seed = rep["seed"]
            first.setdefault(seed, rep["output"])
            wrong = (rep["code"] != 0
                     or rep["setup"] is None
                     or rep["output"] != first[seed]
                     or not agrees_with_other_runs(self.name, seed, rep["output"])
                     or (seed == DEFAULT_SEED and rep["checked"] != expected(self.name)))
            failed += units if wrong else min(units, rep["failed"])
        return units * len(reps), failed

    def timed(self, seed, seconds):
        reps, setup = [], []
        for j in range(self.reps(seconds)):
            reps.append(self.run_once(self.program_seed(seed, j), cli_env()))
            # Extra starts go between the commands, so that they sample
            # the whole run as the commands do.
            setup += [setup_seconds(self.args(self.program_seed(seed, 1),
                                              fresh_dir(self.name)), self.setup_line)
                      for _ in range(self.setup_starts)]
        attempted, failed = self.account(reps)
        setup += [r["setup"] for r in reps if r["setup"] is not None]
        # Means, not medians: see HOST_NOISE.
        wall = statistics.mean(r["wall"] for r in reps)
        print("%s: %d commands, wall %s s; setup mean of %d: %.4f s" % (
            self.name, len(reps), " ".join("%.3f" % r["wall"] for r in reps),
            len(setup), statistics.mean(setup)))
        metrics = {
            "setup_s": statistics.mean(setup),
            "wall_s": wall,
            "work_per_s": self.units() / wall,
            "peak_rss_mb": statistics.median(r["rss"] for r in reps),
        }
        return metrics, attempted, failed

    def traced(self, seed, seconds):
        """Rounds of three commands on the same inputs: untraced, with
        --telemetry, and with ABAGNALE_TELEMETRY=0; then the replay."""
        modes = (("untraced", cli_env(), False),
                 ("traced", cli_env(), True),
                 ("off", cli_env(telemetry=False), False))
        walls = {mode: [] for mode, _, _ in modes}
        reps, last = [], {}
        deadline = time.perf_counter() + seconds
        j = 0
        while j == 0 or time.perf_counter() < deadline:
            for mode, env, telemetry in modes:
                rep = self.run_once(self.program_seed(seed, j), env, telemetry)
                walls[mode].append(rep["wall"])
                reps.append(rep)
                last[mode] = rep
            j += 1
        attempted, failed = self.account(reps)
        replay = run_replay(self.replay_args(seed))
        if not self.replay_agrees(replay, reps[0]["output"]):
            log("%s: the replay disagrees with the command's output" % self.name)
            failed = min(attempted, failed + self.units())
        untraced = statistics.median(walls["untraced"])
        extra = {
            # Attribution compares spans with the wall of the same command.
            "traced_wall_s": last["traced"]["wall"],
            "export_ratio": statistics.median(walls["traced"]) / untraced,
            "telemetry_ratio": untraced / statistics.median(walls["off"]),
            "run_dir_mb": last["traced"]["run_dir_mb"],
        }
        print_self_times(last["traced"]["telemetry"], last["traced"]["wall"])
        return layer_metrics(last["traced"]["telemetry"], replay, extra), attempted, failed


class SynthReno(OneShot):
    name = "synth-reno"
    nominal_s = 2.5
    # The first refinement line: traces, the classifier and its 44
    # reference simulations, sketch set-up.
    setup_line = setup_marker(rb"\[refine\] ")
    scenarios = 2
    duration = 6.0
    # The result of `synth`. The other lines count work (handlers scored,
    # SAT conflicts, cache hits), which an optimisation may rightly change.
    deterministic = ("cca:", "dsl:", "handler:", "distance:")

    def args(self, seed, run_dir):
        # -v: the first refinement line ends set-up (traces, classifier).
        return ["synth", "--cca", "reno", "-n", str(self.scenarios),
                "-d", "%g" % self.duration, "--seed=%d" % seed, "-v"]

    def units(self):
        return 1

    def inspect(self, run_dir, stdout):
        lines = stdout.splitlines()
        output = "".join(l + "\n" for l in lines if l.startswith(self.deterministic))
        checked = "".join(l + "\n" for l in lines
                          if l.startswith(("handler:", "distance:")))
        return output, checked, 0 if checked else 1

    def replay_args(self, seed):
        return ["synth", str(self.program_seed(seed, 0)), str(self.scenarios),
                "%g" % self.duration]

    def replay_agrees(self, replay, output):
        return ("handler:   %s\n" % replay["handler"] in output
                and "distance:  %s over" % replay["distance"] in output)


class BatchCollect(OneShot):
    name = "batch-collect"
    # The fast-host wall of one command. Its set-up is a third of that, so
    # the run's time goes to whole commands, not to extra starts: seven
    # commands in 20 s, where five commands and five starts gave the wall
    # mean fewer samples of the host's speed (HOST_NOISE).
    nominal_s = 2.8
    # The first classify job done: grid, store and journal, the offline
    # classifiers' references (built once per process) and the collect
    # jobs the job order puts before it, 0-2 of them on the panel seeds.
    setup_line = setup_marker(rb"\[batch\] classify/")
    ccas = ("bbr", "cubic", "vegas", "reno", "bic", "cdg", "highspeed", "htcp",
            "hybla", "illinois", "lp", "nv", "scalable", "veno", "westwood", "yeah")
    scenarios = 2
    duration = 6.0

    def jitter(self, seed):
        """ACK jitter of the testbed grid: the CLI default on the default
        seed, up to 1.45x that otherwise. It changes every simulated trace
        but hardly the amount of work."""
        return 0.001 * (1 + ((seed - DEFAULT_SEED) % 10) / 20.0)

    def args(self, seed, run_dir):
        return ["batch", "run", os.path.join(run_dir, "grid"),
                "--kinds", "collect,classify", "--ccas", ",".join(self.ccas),
                "-n", str(self.scenarios), "-d", "%g" % self.duration,
                "--ack-jitter", "%.6g" % self.jitter(seed), "--seeds=%d" % seed,
                "--verbose"]

    def units(self):
        return 2 * len(self.ccas)

    def inspect(self, run_dir, stdout):
        m = re.search(r"completed (\d+) job\(s\): (\d+) ok, (\d+) quarantined", stdout)
        failed = int(m.group(3)) if m else self.units()
        report = subprocess.run([ABAGNALE, "batch", "report", os.path.join(run_dir, "grid")],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout
        return report, report, failed

    def replay_args(self, seed):
        s = self.program_seed(seed, 0)
        return ["batch", fresh_dir(self.name + "-replay"), str(s), "%.6g" % self.jitter(s),
                str(self.scenarios), "%g" % self.duration, ",".join(self.ccas)]


class FuzzDivergence(OneShot):
    name = "fuzz-divergence"
    nominal_s = 3.0
    # The second generation's batch line: the first generation, a random
    # population, evaluated.
    setup_line = setup_marker(rb"\[batch\] \d+ job\(s\) pending", 2)
    setup_starts = 2
    generations = 16
    pop = 32
    duration = 6.0

    def args(self, seed, run_dir):
        return ["fuzz", "run", os.path.join(run_dir, "fuzz"), "--fitness", "divergence",
                "--cca", "reno", "--cca-b", "cubic",
                "--generations", str(self.generations), "--pop", str(self.pop),
                "--duration", "%g" % self.duration, "--seed=%d" % seed, "--json",
                "--verbose"]

    def units(self):
        return self.generations * self.pop

    def inspect(self, run_dir, stdout):
        quarantined = 0
        for root, _, files in os.walk(os.path.join(run_dir, "fuzz")):
            for name in files:
                if name.startswith("journal") and name.endswith(".jsonl"):
                    with open(os.path.join(root, name), errors="replace") as f:
                        quarantined += len(re.findall(r'"status":\s*"quarantined"', f.read()))
        return stdout, stdout, quarantined

    def replay_args(self, seed):
        return ["fuzz", str(self.program_seed(seed, 0)), str(self.generations),
                str(self.pop), "%g" % self.duration]

    def replay_agrees(self, replay, output):
        try:
            return json.loads(output)["champion"]["fingerprint"] == replay["champion"]
        except (ValueError, KeyError):
            return False


# -- serve -----------------------------------------------------------------

VERDICT = re.compile(r"^verdict (\S+) (\d+) (\S+) (\S.*)$")


def is_verdict(line):
    m = VERDICT.match(line)
    if not m:
        return False
    try:
        float(m.group(3))
    except ValueError:
        return False
    return True


def transfer(sock, payload, until):
    """Send payload while reading replies, up to the reply line `until`.
    Returns the reply lines before it."""
    sock.setblocking(False)
    view = memoryview(payload)
    sent, pending, lines = 0, b"", []
    while True:
        writers = [sock] if sent < len(view) else []
        readable, writable, _ = select.select([sock], writers, [], 60.0)
        if not readable and not writable:
            raise BenchError("daemon stopped answering")
        if writable:
            try:
                sent += sock.send(view[sent:sent + (1 << 18)])
            except BlockingIOError:
                pass
        if readable:
            data = sock.recv(1 << 16)
            if not data:
                raise BenchError("daemon hung up")
            *complete, pending = (pending + data).split(b"\n")
            for line in complete:
                if line == until:
                    return lines
                lines.append(line)


class ServeMixed:
    """The `abagnale serve` daemon in its own process, loaded by this
    process over two connections.

    Phase 1 opens every session, then streams each session's first
    `window` records, pipelined, on connection A; a ping ends each part.
    Phase 2 is an open loop: the rest of every trace goes out on A and
    classify requests on B, each at a fixed rate. Shutdown is a SIGTERM
    drain, which classifies and closes every session."""

    name = "serve-mixed"
    sessions = 1024
    window = 512  # the daemon's default sliding window
    corpus_ccas = ("reno", "cubic", "vegas")
    corpus_scenarios = 4
    corpus_duration = 3.0
    # Records each session streams: `window` in phase 1, the rest in phase 2.
    records = 576
    # Phase 1 goes out in slices of window / 8 records per session, each
    # ended by a ping barrier, so the client never buffers the whole ingest.
    ingest_slices = 8
    # Phase 2 rates: 65,536 obs lines over 3 s and 125 classify/s. A traced
    # run measured the daemon 16% busy handling them (serve.phase2_busy_ratio:
    # 0.75 ms per classify, 3.7 us per other request); at the 1.3 ms per
    # classify and 4.7 us per request of a slow stretch it is 27%.
    phase2_s = 3.0
    classify_rate = 125.0  # requests/s on B
    obs_chunk = 128  # phase-2 obs lines per write on A
    timed_sessions = 5
    setup_starts = 1

    def corpus(self):
        """Trace files for the sessions to stream: `abagnale collect` on the
        testbed grid, made once per checkout (collection is deterministic)."""
        path = os.path.join(WORK_DIR, "serve-corpus")
        done = os.path.join(path, "complete")
        if not os.path.exists(done):
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
            for cca in self.corpus_ccas:
                code = subprocess.call(
                    [ABAGNALE, "collect", cca, "-n", str(self.corpus_scenarios),
                     "-d", "%g" % self.corpus_duration, "-o", path],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                if code != 0:
                    raise BenchError("abagnale collect %s exited %d" % (cca, code))
            open(done, "w").close()
        traces = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".trace"):
                with open(os.path.join(path, name)) as f:
                    lines = [l for l in f.read().split("\n") if l]
                traces.append((name[:-len(".trace")], lines))
        return traces

    def plan(self, seed, phase2_s):
        """The request streams, from the seed: which trace each session
        streams and which sessions phase 2 classifies."""
        rng = random.Random(seed)
        traces = self.corpus()
        flows = []
        for i in range(self.sessions):
            trace, lines = traces[rng.randrange(len(traces))]
            sid = "f%04d-%s" % (i, trace)
            records = [k for k, l in enumerate(lines) if not l.startswith("#")]
            if len(records) < self.records:
                raise BenchError("corpus trace %s has %d records, fewer than %d"
                                 % (trace, len(records), self.records))
            per = self.window // self.ingest_slices
            bounds = ([0] + [records[per * k - 1] + 1 for k in range(1, self.ingest_slices)]
                      + [records[self.window - 1] + 1, records[self.records - 1] + 1])
            flows.append((sid, [lines[i:j] for i, j in zip(bounds, bounds[1:])]))

        def interleave(part):
            out = []
            for k in range(max(len(f[1][part]) for f in flows)):
                for sid, parts in flows:
                    if k < len(parts[part]):
                        out.append("obs %s %s\n" % (sid, parts[part][k]))
            return out

        phase1 = [interleave(k) for k in range(self.ingest_slices)]
        phase2 = interleave(self.ingest_slices)
        chunks = ["".join(phase2[i:i + self.obs_chunk]).encode()
                  for i in range(0, len(phase2), self.obs_chunk)]
        classify = ["classify %s\n" % flows[rng.randrange(len(flows))][0]
                    for _ in range(int(self.classify_rate * phase2_s))]
        opens = "".join("open %s\n" % f[0] for f in flows)
        return {
            "sids": [f[0] for f in flows],
            "opens": opens,
            "phase1": [("".join(part) + "ping\n").encode() for part in phase1],
            "phase1_lines": sum(len(part) for part in phase1),
            "chunks": chunks,
            "phase2_lines": len(phase2),
            "classify": [c.encode() for c in classify],
            "phase2_s": phase2_s,
        }

    def start(self, run_dir, env, telemetry):
        """Spawn the daemon; returns it and the seconds to its ready line."""
        argv = [ABAGNALE, "serve", "--socket", "s.sock", "--no-escalate",
                "--window", str(self.window)]
        if telemetry:
            argv += ["--telemetry", "telemetry.json"]
        with open(os.path.join(run_dir, "stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=run_dir, stdout=subprocess.PIPE,
                                    stderr=err, env=env)
        try:
            # Block on the daemon's ready line: no polling for the socket.
            readable, _, _ = select.select([proc.stdout], [], [], 120.0)
            line = proc.stdout.readline() if readable else b""
            ready = time.perf_counter() - t0
            if not line.startswith(b"abagnale-serve listening"):
                raise BenchError("serve did not get ready: %r" % line)
        except BaseException:
            stop(proc)
            raise
        return proc, ready

    def shutdown(self, proc):
        """SIGTERM drain; returns (seconds, exit code, peak RSS MB, log)."""
        t0 = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        rest = proc.stdout.read()
        proc.stdout.close()
        code, rss = reap(proc)
        return time.perf_counter() - t0, code, rss, rest.decode(errors="replace")

    def open_loop(self, a, b, plan):
        """Phase 2. Each request is timed from its due time, so a stall
        delays every request behind it; lag is how late each was sent."""
        a.setblocking(False)
        b.setblocking(False)
        chunks, classify = plan["chunks"], plan["classify"]
        obs_period = plan["phase2_s"] / max(1, len(chunks))
        cls_period = 1.0 / self.classify_rate
        start = time.perf_counter() + 0.05
        i_obs = i_cls = 0
        out = {a: bytearray(), b: bytearray()}
        pending = {a: b"", b: b""}
        inflight = collections.deque()
        latency, lag, bad = [], [], 0
        while i_obs < len(chunks) or i_cls < len(classify) or inflight or out[a] or out[b]:
            now = time.perf_counter()
            while i_cls < len(classify) and start + i_cls * cls_period <= now:
                due = start + i_cls * cls_period
                out[b] += classify[i_cls]
                inflight.append(due)
                lag.append(now - due)
                i_cls += 1
            while i_obs < len(chunks) and start + i_obs * obs_period <= now:
                out[a] += chunks[i_obs]
                i_obs += 1
            for sock in (a, b):
                if out[sock]:
                    try:
                        del out[sock][:sock.send(out[sock])]
                    except BlockingIOError:
                        pass
            due_next = []
            if i_cls < len(classify):
                due_next.append(start + i_cls * cls_period)
            if i_obs < len(chunks):
                due_next.append(start + i_obs * obs_period)
            writers = [s for s in (a, b) if out[s]]
            if not due_next and not writers and not inflight:
                break
            timeout = max(0.0, min(due_next) - time.perf_counter()) if due_next else 30.0
            readable, writable, _ = select.select([a, b], writers, [], timeout)
            if not due_next and not readable and not writable:
                raise BenchError("daemon stopped answering: %d of %d classify requests "
                                 "answered" % (len(latency), len(classify)))
            now = time.perf_counter()
            for sock in readable:
                data = sock.recv(1 << 16)
                if not data:
                    raise BenchError("daemon hung up")
                *lines, pending[sock] = (pending[sock] + data).split(b"\n")
                for line in lines:
                    # obs lines are not acked, so any reply on A is an error.
                    if sock is b and line.startswith(b"verdict ") and inflight:
                        latency.append(now - inflight.popleft())
                        bad += not is_verdict(line.decode(errors="replace"))
                    else:
                        bad += 1
        return latency, lag, bad

    def session(self, run_dir, plan, env, telemetry):
        proc, ready = self.start(run_dir, env, telemetry)
        try:
            t_ready = time.perf_counter()
            path = os.path.join(run_dir, "s.sock")
            a = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            b = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with a, b:
                a.connect(path)
                b.connect(path)
                t0 = time.perf_counter()
                replies = transfer(a, (plan["opens"] + "ping\n").encode(), b"ok pong")
                open_s = time.perf_counter() - t0
                bad = sum(1 for l in replies if not l.startswith(b"ok open "))
                t0 = time.perf_counter()
                for payload in plan["phase1"]:
                    bad += len(transfer(a, payload, b"ok pong"))
                ingest_s = time.perf_counter() - t0
                latency, lag, open_loop_bad = self.open_loop(a, b, plan)
                bad += open_loop_bad
                for sock in (a, b):
                    bad += len(transfer(sock, b"ping\n", b"ok pong"))
            drain_s, code, rss, daemon_log = self.shutdown(proc)
            wall = time.perf_counter() - t_ready
        finally:
            stop(proc)
        drained = "".join(l[len("drain: "):] + "\n" for l in daemon_log.splitlines()
                          if l.startswith("drain: verdict "))
        good = sum(1 for l in drained.splitlines() if is_verdict(l))
        result = {
            "ready": ready, "wall": wall, "rss": rss, "open_s": open_s,
            "ingest_s": ingest_s, "drain_s": drain_s, "latency": latency,
            "lag": lag, "drained": drained,
            "attempted": 2 * self.sessions + len(plan["classify"]),
            "failed": bad + (len(plan["classify"]) - len(latency))
                      + (self.sessions - good) + (code != 0) * self.sessions,
        }
        if telemetry:
            with open(os.path.join(run_dir, "telemetry.json")) as f:
                result["telemetry"] = json.load(f)
        return result

    def account(self, seed, results):
        """The drain verdicts are a function of the streamed records alone:
        equal across sessions on one seed, across runs (timed or traced),
        and to the expected file on the default seed. Verdicts returned
        during the open loop depend on timing, so only their form counts."""
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        drained = results[0]["drained"]
        for r in results:
            if (r["drained"] != drained
                    or not agrees_with_other_runs(self.name, seed, r["drained"])
                    or (seed == DEFAULT_SEED and r["drained"] != expected(self.name))):
                failed += self.sessions
        return attempted, min(attempted, failed)

    def work_s(self, result):
        """Daemon time driven by the load, not by the phase-2 schedule:
        opens, ingest and drain."""
        return result["open_s"] + result["ingest_s"] + result["drain_s"]

    def busy_wall(self, result):
        return result["ready"] + self.work_s(result)

    def ready_seconds(self):
        """Spawn a daemon, time it to its ready line, and stop it."""
        proc, ready = self.start(fresh_dir(self.name), cli_env(), False)
        try:
            self.shutdown(proc)
        finally:
            stop(proc)
        return ready

    def timed(self, seed, seconds):
        """timed_sessions daemon sessions on the same inputs, each a fresh
        process; their classify latencies are pooled. After each session,
        setup_starts more daemons are started and stopped at their ready
        line, so setup_s is a mean over more starts. Peak RSS is a median
        over the sessions; wall_s is a mean, and the ingest rate is lines
        over the whole phase-1 time: see HOST_NOISE."""
        plan = self.plan(seed, self.phase2_s)
        results, ready = [], []
        for _ in range(self.timed_sessions):
            results.append(self.session(fresh_dir(self.name), plan, cli_env(), False))
            ready.append(results[-1]["ready"])
            ready += [self.ready_seconds() for _ in range(self.setup_starts)]
        attempted, failed = self.account(seed, results)
        latency = [x for r in results for x in r["latency"]]
        lag = [x for r in results for x in r["lag"]]
        print("serve-mixed: %d classify requests at %g/s: p50 %.3f ms, p99 %.3f ms; "
              "generator lag p99 %.3f ms; open+ingest+drain %s s; ready %s s"
              % (len(latency), self.classify_rate, quantile(latency, 0.5) * 1e3,
                 quantile(latency, 0.99) * 1e3, quantile(lag, 0.99) * 1e3,
                 " ".join("%.3f" % self.work_s(r) for r in results),
                 " ".join("%.3f" % x for x in ready)))
        metrics = {
            "setup_s": statistics.mean(ready),
            "wall_s": statistics.mean(self.work_s(r) for r in results),
            "work_per_s": (plan["phase1_lines"] * len(results)
                           / sum(r["ingest_s"] for r in results)),
            "peak_rss_mb": statistics.median(r["rss"] for r in results),
        }
        return metrics, attempted, failed

    def phase2_busy_ratio(self, telemetry, plan):
        """Share of phase 2 the daemon spent handling requests, from its
        histograms: every classify (there are none outside phase 2) plus
        the phase-2 obs lines at the mean cost of the other requests.
        Reading the socket and framing lines are not counted."""
        hist = telemetry.get("histograms", {})
        request = hist.get("serve.request_ns", {})
        classify = hist.get("serve.classify_ns", {})
        other_ns = request.get("sum", 0) - classify.get("sum", 0)
        other_n = request.get("count", 0) - classify.get("count", 0)
        busy_ns = classify.get("sum", 0) + plan["phase2_lines"] * ratio(other_ns, other_n)
        return busy_ns / 1e9 / plan["phase2_s"]

    def traced(self, seed, seconds):
        plan = self.plan(seed, self.phase2_s)
        results = {}
        for mode, env, telemetry in (("untraced", cli_env(), False),
                                     ("traced", cli_env(), True),
                                     ("off", cli_env(telemetry=False), False)):
            results[mode] = self.session(fresh_dir(self.name), plan, env, telemetry)
        attempted, failed = self.account(seed, list(results.values()))
        requests = os.path.join(fresh_dir(self.name + "-replay"), "requests")
        with open(requests, "wb") as f:
            f.write(plan["opens"].encode())
            f.writelines(plan["phase1"])  # ping lines are no-ops for the replay
            f.writelines(b"classify %s\n" % sid.encode() for sid in plan["sids"])
        replay = run_replay(["serve", str(self.window), requests])
        plain, traced = results["untraced"], results["traced"]
        # Pooled over the three sessions, so that over ten lie beyond the p99.
        latency = [x for r in results.values() for x in r["latency"]]
        lag = [x for r in results.values() for x in r["lag"]]
        extra = {
            "traced_wall_s": traced["ready"] + traced["wall"],
            "export_ratio": self.busy_wall(traced) / self.busy_wall(plain),
            "telemetry_ratio": self.busy_wall(plain) / self.busy_wall(results["off"]),
            "open_us": plain["open_s"] * 1e6 / self.sessions,
            "drain_s": plain["drain_s"],
            "classify_mean_us": statistics.mean(latency) * 1e6,
            "classify_p50_ms": quantile(latency, 0.5) * 1e3,
            "classify_p99_ms": quantile(latency, 0.99) * 1e3,
            "gen_lag_p99_ms": quantile(lag, 0.99) * 1e3,
            "phase2_busy_ratio": self.phase2_busy_ratio(traced["telemetry"], plan),
        }
        print("serve-mixed: phase 2 keeps the traced daemon %.1f%% busy handling requests"
              % (100 * extra["phase2_busy_ratio"]))
        return layer_metrics(traced["telemetry"], replay, extra), attempted, failed


WORKLOADS = {w.name: w for w in (SynthReno(), BatchCollect(), FuzzDivergence(), ServeMixed())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    # On SIGTERM, unwind: the cleanup handlers stop every child process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        units = metric_units(args.trace)
        run = workload.traced if args.trace else workload.timed
        metrics, attempted, failed = run(args.seed, args.seconds)
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
    for name, unit in units.items():
        print("%-34s %16.6g %s" % (name, metrics[name], unit))
    print("error_rate %.6g (%d failed of %d attempted)"
          % (ratio(failed, attempted), failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
