#!/usr/bin/env python3
"""Repository benchmark: timed config sweeps of the Cassandra simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload btu_sweep_cold --seed 1 \\
        --seconds 20 --trace 0

The first run builds the library and `run_experiment` (Release) with
CMake into `$CARGO_TARGET_DIR` (default `.bench_build`), then compiles
`perfbench/probe.cc` against the same `libcassandra.a` and the
`perfbench/spawn.cc` launcher.

`--trace 0` repeats the workload's sweep through the real
`run_experiment` binary until `--seconds` have passed and reports the
end-to-end metrics as medians over the sweeps. `--trace 1` runs one
untraced sweep (for its CPU seconds) and then the per-layer probe
until `--seconds` have passed, and reports the per-layer metrics as
medians over the probe passes. Every cell either way is checked
against the reference counters in `perfbench/reference/`.

The last line of stdout is the result object; the line before it
records the seed, `nproc`, the thread count and the scratch
filesystem. The registry's kernels have fixed inputs, so the seed is
recorded and changes no input.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SCRATCH = os.path.join(ROOT, ".bench_scratch")
BINARY = os.path.join(BUILD, "bench", "run_experiment")
PROBE = os.path.join(BUILD, "perfbench_probe")
SPAWN = os.path.join(BUILD, "perfbench_spawn")

# Knobs that select reference or fault-injection paths of the program.
STRAY_KNOBS = ("CASSANDRA_ANALYSIS_FUSION", "CASSANDRA_STREAM_PREFETCH",
               "CASSANDRA_TEST_WORKER_CRASH")

# config: perfbench/configs/<config>.json, reference/<config>.json.
# The reasons for each workload are in perfbench/layers.json.
WORKLOADS = {
    "btu_sweep_cold": {"config": "btu_sweep", "warm": False},
    "fig7_warm": {"config": "fig7", "warm": True},
}

SWEEP_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 120
PRIMINGS = 3  # fig7_warm set-ups per run; setup_s is their median
# Cold set-ups per sweep. A cold set-up is only the scratch directories,
# about 0.1 ms, so it is repeated for a steady median.
SETUPS = 9


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def run_logged(cmd, log):
    # The compiler's temporary (LTO) files stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "a") as f:
        if subprocess.call(cmd, cwd=ROOT, env=env, stdout=f,
                           stderr=f) != 0:
            with open(log) as r:
                sys.stderr.write(r.read()[-4000:])
            fail("build step failed: " + " ".join(cmd))


def stale(target, *sources):
    return (not os.path.exists(target) or os.path.getmtime(target)
            < max(os.path.getmtime(s) for s in sources))


def build():
    """Configure and build the program, the probe and the launcher."""
    for rel in ("CMakeLists.txt", "src", "bench/run_experiment.cc"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("no %s: run from the root of a source checkout" % rel)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "perfbench-build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        run_logged(["cmake", "-S", ROOT, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", BUILD, "--target", "run_experiment",
                "-j", str(nproc())], log)
    cxx = "c++"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
    lib = os.path.join(BUILD, "libcassandra.a")
    probe_src = os.path.join(BENCH, "probe.cc")
    if stale(PROBE, lib, probe_src):
        # The Release library's flags, so its LTO objects link in.
        run_logged([cxx, "-std=c++17", "-O3", "-DNDEBUG", "-flto=auto",
                    "-I", os.path.join(ROOT, "src"), "-I", ROOT, probe_src,
                    lib, "-lpthread", "-o", PROBE], log)
    spawn_src = os.path.join(BENCH, "spawn.cc")
    if stale(SPAWN, spawn_src):
        run_logged([cxx, "-O2", spawn_src, "-o", SPAWN], log)


def fs_type(path):
    out = subprocess.run(["stat", "-f", "-c", "%T", path],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


class Scratch:
    """Fresh result-store, TMPDIR and report paths for one sweep. TMPDIR
    holds both the trace streams and the shard scratch."""

    def __init__(self, root, tag):
        self.dir = os.path.join(root, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.store = os.path.join(self.dir, "store")
        self.tmp = os.path.join(self.dir, "tmp")
        self.report = os.path.join(self.dir, "report.json")
        os.makedirs(self.tmp)

    def env(self):
        env = {k: v for k, v in os.environ.items() if k not in STRAY_KNOBS}
        env["TMPDIR"] = self.tmp
        return env

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def spawn(cmd, env, timeout, stdout=subprocess.DEVNULL):
    """Run `cmd` in a process group of its own and wait for it. A
    command still running at `timeout` is killed with its group.
    Returns (ok, stdout bytes)."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                         stderr=subprocess.PIPE, start_new_session=True)
    timer = threading.Timer(timeout, os.killpg, (p.pid, signal.SIGKILL))
    timer.start()
    try:
        out, err = p.communicate()
    finally:
        timer.cancel()
    if p.returncode != 0:
        sys.stderr.write("perfbench: %s exited %d\n%s" % (
            os.path.basename(cmd[0]), p.returncode,
            err.decode(errors="replace")[-2000:]))
    return p.returncode == 0, out or b""


def measured(cmd, env, timeout):
    """Run `cmd` under the launcher: (ok, wall s, cpu s, peak RSS MB)."""
    ok, out = spawn([SPAWN] + cmd, env, timeout, stdout=subprocess.PIPE)
    if not ok:
        return False, 0.0, 0.0, 0.0
    r = json.loads(out)
    if r["status"] != 0:
        print("perfbench: %s exited %d" % (os.path.basename(cmd[0]),
                                           r["status"]), file=sys.stderr)
    return (r["status"] == 0, r["wall_s"], r["cpu_s"],
            r["maxrss_kb"] / 1024.0)


def flatten(obj, prefix=""):
    out = {}
    for k, v in obj.items():
        if isinstance(v, dict):
            out.update(flatten(v, prefix + k + "."))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[prefix + k] = v
    return out


def report_cells(report):
    return {"%s|%s|%s" % (c["workload"], c["scheme"], c["config"]):
            flatten(c) for c in report["results"]}


def load_reference(config):
    with open(os.path.join(BENCH, "reference", config + ".json")) as f:
        return json.load(f)


def config_path(config):
    return os.path.join(BENCH, "configs", config + ".json")


class Sweep:
    """One `run_experiment` invocation, checked against the reference."""

    def __init__(self, config, scratch, threads, reference):
        cmd = [BINARY, config_path(config), "--format=json", "--out=" + scratch.report, "--cache", "on",
               "--cache-dir", scratch.store, "--threads=%d" % threads]
        self.ok, self.wall, self.cpu, self.rss_mb = measured(
            cmd, scratch.env(), SWEEP_TIMEOUT_S)
        self.report_bytes, self.report, self.cells = b"", {}, {}
        if self.ok:
            try:
                with open(scratch.report, "rb") as f:
                    self.report_bytes = f.read()
                self.report = json.loads(self.report_bytes)
                self.cells = report_cells(self.report)
            except (OSError, ValueError) as e:
                print("perfbench: bad report: %s" % e, file=sys.stderr)
                self.ok = False
        # A reference cell fails when it is missing or any counter
        # differs; a cell the reference lacks fails too.
        self.failed = len(reference) if not self.ok else (
            sum(1 for k, v in reference.items() if self.cells.get(k) != v)
            + sum(1 for k in self.cells if k not in reference))

    def good(self):
        return self.ok and self.failed == 0


def cassandra_vs_baseline(sweep):
    """Geomean of Cassandra/UnsafeBaseline cycles on the default config.

    The BTU sweep has no baseline cells: its kernels' baseline cycles
    come from the Fig. 7 reference, which is exact because the
    baseline has no BTU, so no BTU config changes its cycles."""
    for g in sweep.report.get("geomeans", []):
        if g["scheme"] == "Cassandra" and g["config"] == "default":
            return g["cycles_vs_baseline"]
    base = load_reference("fig7")
    ratios = [c["cycles"] / base[k.split("|")[0]
                                 + "|UnsafeBaseline|default"]["cycles"]
              for k, c in sweep.cells.items()
              if k.endswith("|Cassandra|default")]
    return statistics.geometric_mean(ratios)


class Samples:
    """Sweeps of one run: timing samples plus cell accounting. Only the
    first good sweep's report is kept, so memory stays flat."""

    def __init__(self):
        self.wall, self.cpu, self.rss, self.setup = [], [], [], []
        self.attempted = self.failed = 0
        self.first = None

    def add(self, sweep, cells):
        self.attempted += cells
        self.failed += sweep.failed
        if sweep.good():
            self.wall.append(sweep.wall)
            self.cpu.append(sweep.cpu)
            self.rss.append(sweep.rss_mb)
            if self.first is None:
                self.first = sweep


def sweeps(spec, seconds, threads, scratch_root):
    """Sweep back to back until `seconds` have passed (at least once)."""
    config = spec["config"]
    reference = load_reference(config)
    n = len(reference)
    out = Samples()
    if spec["warm"]:
        # Set-up: prime a fresh store with a cold sweep, several times.
        cold_bytes = None
        for i in range(PRIMINGS):
            t0 = time.monotonic()
            scratch = Scratch(scratch_root, "prime%d" % i)
            prime = Sweep(config, scratch, threads, reference)
            out.setup.append(time.monotonic() - t0)
            out.attempted += n
            out.failed += prime.failed
            if prime.good():
                primed, cold_bytes = scratch, prime.report_bytes
        if cold_bytes is None:
            return out
        t0 = time.monotonic()
        while not out.wall or time.monotonic() - t0 < seconds:
            s = Sweep(config, primed, threads, reference)
            # The warm report must be the cold report, byte for byte.
            if s.ok and s.report_bytes != cold_bytes:
                s.failed = max(s.failed, 1)
            out.add(s, n)
            if not s.good():
                break
        return out
    t0 = time.monotonic()
    while not out.wall or time.monotonic() - t0 < seconds:
        # Set-up: the fresh isolated scratch, nothing else. Each
        # creation replaces the previous one; the last is used.
        for _ in range(SETUPS):
            t1 = time.monotonic()
            scratch = Scratch(scratch_root, "sweep")
            out.setup.append(time.monotonic() - t1)
        s = Sweep(config, scratch, threads, reference)
        scratch.remove()
        out.add(s, n)
        if not s.good():
            break
    return out


def end_to_end(spec, seconds, threads, scratch_root):
    run = sweeps(spec, seconds, threads, scratch_root)
    if run.first is None or run.failed:
        return run.attempted, max(run.failed, 1), {}, len(run.wall)
    cells = len(run.first.cells)
    minsts = sum(c["instructions"] for c in run.first.cells.values()) / 1e6
    med = statistics.median
    metrics = {
        "cells_per_sec": (med([cells / w for w in run.wall]), "1/s"),
        "sim_minsts_per_sec": (med([minsts / w for w in run.wall]),
                               "Minst/s"),
        "cpu_s_per_cell": (med(run.cpu) / cells, "s"),
        "peak_rss_mb": (med(run.rss), "MB"),
        "setup_s": (med(run.setup), "s"),
        "cassandra_cycles_vs_baseline": (cassandra_vs_baseline(run.first),
                                         "ratio"),
    }
    return run.attempted, run.failed, metrics, len(run.wall)


def in_sweep_seconds(spec, sec):
    """Probe seconds of the calls the untraced sweep itself makes, timed
    one call at a time, to compare with the sweep's CPU seconds."""
    if spec["warm"]:
        return sec["make"] + sec["lookup"]
    return (sec["make"] + sec["record"] + sec["tracegen"]
            + sec["ooo_in_matrix"] + sec["store"])


def per_layer(spec, seconds, threads, scratch_root):
    """Traced run: one untraced sweep for its CPU, then probe passes."""
    run = sweeps(spec, 0, threads, scratch_root)
    if run.first is None or run.failed:
        return run.attempted, max(run.failed, 1), {}, 0
    sweep_cpu = statistics.median(run.cpu)
    reference = load_reference(spec["config"])
    attempted, failed, passes = run.attempted, 0, []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        scratch = Scratch(scratch_root, "probe")
        cmd = [PROBE, "--config=" + config_path(spec["config"]),
               "--tmp=" + scratch.tmp, "--worker=" + BINARY]
        ok, out = spawn(cmd, scratch.env(), PROBE_TIMEOUT_S,
                        stdout=subprocess.PIPE)
        scratch.remove()
        attempted += len(reference)
        if not ok:
            failed += len(reference)
            break
        p = json.loads(out.decode().strip().splitlines()[-1])
        # The probe simulates every matrix cell: check those too.
        got = {"%s|%s|%s" % tuple(c[:3]): c[3:] for c in p["cells"]}
        failed += sum(1 for k, v in reference.items()
                      if got.get(k) != [v["cycles"], v["instructions"]])
        failed += sum(1 for k in got if k not in reference)
        passes.append(p)
        if failed:
            break
    if failed:
        return attempted, failed, {}, len(passes)

    def layer(fn):
        return statistics.median(
            [fn(p["seconds"], p["counts"], p["peaks"]) for p in passes])

    m = {
        "sim.machine.ns_per_inst": (layer(
            lambda s, c, _: s["machine"] * 1e9 / c["machine_insts"]), "ns"),
        "core.analysis.record_s": (layer(lambda s, c, _: s["record"]), "s"),
        "core.analysis.record_ns_per_op": (layer(
            lambda s, c, _: s["record"] * 1e9 / c["ops"]), "ns"),
        "core.tracegen.s": (layer(lambda s, c, _: s["tracegen"]), "s"),
        "core.tracegen.fold_s": (layer(
            lambda s, c, _: s["tracegen_fold"]), "s"),
        "core.tracegen.kmers_s": (layer(
            lambda s, c, _: s["tracegen_kmers"]), "s"),
        "core.tracegen.peak_accum_bytes": (layer(
            lambda s, c, p: p["tracegen_peak_accum_bytes"]), "bytes"),
        "uarch.taint.ns_per_op": (layer(
            lambda s, c, _: s["taint"] * 1e9 / c["ops"]), "ns"),
        "core.trace_stream.encode_ns_per_op": (layer(
            lambda s, c, _: s["encode"] * 1e9 / c["ops"]), "ns"),
        "core.trace_stream.decode_ns_per_op": (layer(
            lambda s, c, _: s["decode"] * 1e9 / c["ops"]), "ns"),
        "core.trace_stream.bytes_per_op": (layer(
            lambda s, c, _: c["encoded_bytes"] / c["ops"]), "bytes"),
        "core.serialize.save_s": (layer(lambda s, c, _: s["save"]), "s"),
        "core.serialize.load_s": (layer(lambda s, c, _: s["load"]), "s"),
        "core.serialize.snapshot_bytes": (layer(
            lambda s, c, _: c["snapshot_bytes"]), "bytes"),
        "core.result_store.store_us": (layer(
            lambda s, c, _: s["store"] * 1e6 / c["store_entries"]), "us"),
        "core.result_store.lookup_us": (layer(
            lambda s, c, _: s["lookup"] * 1e6 / c["store_entries"]), "us"),
        "core.cell_executor.subprocess_overhead_s": (layer(
            lambda s, c, _: s["subprocess"] - s["inprocess"]), "s"),
        "crypto.registry.make_ms": (layer(
            lambda s, c, _: s["make"] * 1e3), "ms"),
        "probe.coverage": (layer(
            lambda s, c, _: in_sweep_seconds(spec, s)
            / sweep_cpu), "ratio"),
    }
    # The probe times every scheme, as "ooo.<scheme>" seconds.
    for key in passes[0]["seconds"]:
        if key.startswith("ooo."):
            m["uarch.%s.ns_per_op" % key] = (layer(
                lambda s, c, _, k=key[4:]: s["ooo." + k] * 1e9
                / c["ooo_ops." + k]), "ns")
    return attempted, failed, m, len(passes)


def write_reference(spec, threads, scratch_root):
    """Record the workload's per-cell counters as its reference."""
    scratch = Scratch(scratch_root, "reference")
    s = Sweep(spec["config"], scratch, threads, {})
    if not s.ok:
        fail("reference sweep failed")
    path = os.path.join(BENCH, "reference", spec["config"] + ".json")
    with open(path, "w") as f:
        json.dump(s.cells, f, indent=0, sort_keys=True)
        f.write("\n")
    print("wrote %s (%d cells)" % (path, len(s.cells)), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the kernels' inputs are fixed")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the workload's cell counters as its "
                         "reference (after a deliberate model change)")
    args = ap.parse_args()

    build()
    spec = WORKLOADS[args.workload]
    threads = nproc()
    scratch_root = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(scratch_root, exist_ok=True)
    try:
        if args.write_reference:
            write_reference(spec, threads, scratch_root)
            return 0
        fn = per_layer if args.trace else end_to_end
        attempted, failed, metrics, samples = fn(spec, args.seconds,
                                                 threads, scratch_root)
        info = {"workload": args.workload, "seed": args.seed,
                "seed_changes_inputs": False, "nproc": nproc(),
                "threads": threads, "scratch_fs": fs_type(scratch_root),
                "samples": samples}
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
