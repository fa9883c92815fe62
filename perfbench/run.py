#!/usr/bin/env python3
"""Simulator benchmark: builds perfbench from source, runs one workload, and
prints the result as one JSON line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each call runs two processes of the perfbench binary, one after the other:

1. a validation pass (ATACSIM_VALIDATE=1): one untimed pass of the
   workload's small variant (--small: same applications, networks and code
   paths on the 8x2 machine) with the src/check invariant probes armed. At
   full size the probes make fmm_unicast_emesh take over a minute, more than
   a run can spend;
2. the measured run: the workload's timed loop for at least --seconds, or
   with --trace 1 the same loop plus one traced pass (spans written as a
   Chrome/Perfetto trace under .bench_build/out/, src/obs telemetry armed
   except on the sweep's warm plans, whose cache reads it would turn off).

The result is correct only if both processes report no failed operation.
Each process also fails an operation whose digest of every simulated
statistic differs from an earlier run of the same scenario. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones; a per-layer metric of a layer
the workload never enters reads 0. The exit code is 0 only for a correct
result; a build failure exits non-zero without printing a result.

Every workload reports every end-to-end metric:

- setup_s, wall_s (host seconds, medians over the run): set-up is make_app +
  Program + spawn_all, plan set-up, or network-model construction; wall is
  run + verify + energy of one scenario, one cold plan, or one pass over the
  four synthetic cells. The sweep's warm plans (cache reads and energy
  recompute) are timed in its traced run, as the per-layer exp.warm_plan_s:
  a warm plan takes a fraction of a millisecond, and from run to run on a
  shared host such times spread wider than any bound allowed here.
- peak_rss_mb: peak resident set of the measured process.
- sim_cycles, edp_j_s: the modelled chip's completion cycles (Fig. 4) and
  network + cache energy times delay (Fig. 8); summed over the 42 plan
  handles on the sweeps. An open-loop synthetic cell has no completion time:
  there they sum each cell's mean packet latency, and its network energy per
  injected packet times that latency.

Simulated values repeat exactly for a seed. The model is unvalidated against
hardware at benchmark scale: EXPERIMENTS.md compares it with the paper only
by shape, at full scale.

Seeds: DEFAULT_SEED is the one to use while tuning; HELD_OUT_SEED is kept for
confirming a claimed gain and is not used while tuning.

--small (8x2 machine, tiny inputs) and --fail-verify (App::verify reports a
failure) serve the benchmark's own tests, test_perfbench.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["ocean_bcast_atac", "fmm_unicast_emesh", "sweep_64c",
             "synth_openloop"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
# Whole-call limit; each child gets what is left of it.
DEADLINE_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench target; returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {' '.join(cmd)}: {e}")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def run_child(args, env_extra, deadline):
    """Runs the binary; returns (parsed result or None, digest lines)."""
    env = dict(os.environ)
    env.setdefault("ATACSIM_LOG", "warn")
    env.update(env_extra)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        log("no time left for " + " ".join(args))
        return None, []
    try:
        proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                              text=True, env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(args))
        return None, []
    lines = proc.stdout.strip().splitlines()
    digests = [ln for ln in lines if ln.startswith("digest ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from perfbench {' '.join(args)} "
            f"(exit {proc.returncode})")
        return None, digests
    if proc.returncode not in (0, 1):
        log(f"perfbench exited with {proc.returncode}")
        return None, digests
    return result, digests


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="8x2 machine and tiny inputs (the benchmark's tests)")
    p.add_argument("--fail-verify", action="store_true",
                   help="make App::verify fail (app workloads; for the tests)")
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds < 0:
        p.error("--seed and --seconds must not be negative")

    deadline = time.monotonic() + DEADLINE_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if not build():
        return 2

    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--out", OUT_DIR]
    if a.small:
        common.append("--small")
    if a.fail_verify:
        common.append("--fail-verify")

    val, _ = run_child(common + ["--validate", "--small"],
                       {"ATACSIM_VALIDATE": "1"}, deadline)
    measured = common + ["--seconds", repr(a.seconds)]
    if a.trace:
        measured.append("--trace")
    res, digests = run_child(measured, {"ATACSIM_VALIDATE": "0"}, deadline)

    errors = []
    attempted = failed = 0
    for name, r in (("validation pass", val), ("measured run", res)):
        if r is None:
            errors.append(f"{name} produced no result")
            failed += 1
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        errors += [f"{name}: {e}" for e in r["errors"]]

    metrics = {}
    measured_metrics = res["metrics"] if res else {}
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    for m in wanted:
        value = measured_metrics.get(m["name"])
        if value is None:
            if not a.trace:
                errors.append(f"metric {m['name']} was not measured")
                failed += 1
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for e in errors:
        log("FAILED: " + e)
    for line in digests:
        print(line)
    correct = failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, attempted, failed),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
