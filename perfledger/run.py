#!/usr/bin/env python3
"""Entry point of the dmc performance ledger.

Builds perfledger/dmc_ledger (Release) into .bench_build/perfledger at the
root of the source tree, runs one workload and prints the result object
{"correct", "attempted", "failed", "metrics"} as the last stdout line:

    python3 perfledger/run.py --workload admission_burst --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes the traced run's spans to .bench_build/perfledger/spans/. For the
default seed the pass fingerprint must also equal perfledger/recorded.json;
any failed check makes the exit code non-zero.

    python3 perfledger/run.py --steadiness 10 [--workload W ...]

repeats each workload on seeds 1..10 and prints every metric's median,
quartiles, min/max and quartile spread as a share of the median: the
evidence behind the bounds in BENCHMARK.json.

    python3 perfledger/run.py --record

re-records the default seed's fingerprints, for a change that is meant to
change results (say so in its commit).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfledger")
RECORDED = os.path.join(HERE, "recorded.json")
WORKLOADS = ("admission_burst", "steady_observed", "paper_sweep")
DEFAULT_SEED = 1
# The whole run, build excluded, must end well inside 180 s.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfledger: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds dmc_ledger; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfledger: no dmc source tree next to perfledger/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "dmc_ledger",
                    "-j", jobs])
    return os.path.join(BUILD_DIR, "dmc_ledger")


def run_build_step(command):
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    result = subprocess.run(command, capture_output=True, text=True,
                            check=False, env=env)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        raise SystemExit(f"perfledger: build step failed: {' '.join(command)}")


def run_ledger(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (detail, result) as parsed JSON."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans_dir, f"{workload}-seed{seed}.json")]
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfledger: {workload} ran over {RUN_TIMEOUT_S} s")
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"perfledger: dmc_ledger exited {result.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_recorded(workload, seed, detail, result):
    """Compares the default seed's fingerprint with recorded.json."""
    if seed != DEFAULT_SEED:
        return
    with open(RECORDED, encoding="utf-8") as f:
        recorded = json.load(f)[workload]
    result["attempted"] += 1
    if detail["fingerprint"] != recorded:
        result["failed"] += 1
        result["correct"] = False
        log(f"{workload}: fingerprint {json.dumps(detail['fingerprint'])} "
            f"!= recorded {json.dumps(recorded)}")


def steadiness(binary, workloads, runs, seconds, trace):
    for workload in workloads:
        values = {}
        units = {}
        failed = 0
        for seed in range(1, runs + 1):
            detail, result = run_ledger(binary, workload, seed, seconds, trace)
            check_recorded(workload, seed, detail, result)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            log(f"{workload} seed {seed}: load {detail['host']['load_end']}")
        print(f"{workload}: {runs} runs, seeds 1..{runs}, {seconds} s each, "
              f"trace {trace}, failed {failed}")
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8}")
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            print(f"  {name:28} {units[name]:6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {min(series):12.6g} {max(series):12.6g} "
                  f"{spread:8.4f}")
        sys.stdout.flush()


def record(binary):
    recorded = {}
    for workload in WORKLOADS:
        detail, result = run_ledger(binary, workload, DEFAULT_SEED, 1, 0)
        if not result["correct"]:
            raise SystemExit(f"perfledger: {workload} failed its checks")
        recorded[workload] = detail["fingerprint"]
    with open(RECORDED, "w", encoding="utf-8") as f:
        json.dump(recorded, f, indent=2)
        f.write("\n")
    log(f"recorded {RECORDED}")


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running dmc_ledger before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.record:
        record(binary)
        return 0
    if args.steadiness:
        steadiness(binary, args.workload or WORKLOADS, args.steadiness,
                   args.seconds, args.trace)
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    workload = args.workload[0]
    detail, result = run_ledger(binary, workload, args.seed, args.seconds,
                                args.trace)
    check_recorded(workload, args.seed, detail, result)
    for error in detail["errors"]:
        log(f"{workload}: {error}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
