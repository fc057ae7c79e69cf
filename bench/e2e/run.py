#!/usr/bin/env python3
"""The end-to-end benchmark of ppclust: builds bench/e2e, runs its workloads.

Run from the repository root. Two forms:

  python3 bench/e2e/run.py [--seed N] [--runs R] [--seconds S] [--out FILE]
      Every workload untraced, then traced (with --runs > 1, each pass
      cycles through the workloads R times, so drift on a shared machine
      spreads evenly). Prints `workload metric value unit` lines and writes
      a self-describing result.json (default bench/e2e/out/result.json).
      Exits 1 if any run failed a check or a job.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is one JSON object
      with correct/attempted/failed/metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Metric names, units and bounds come from BENCHMARK.json at the root.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "ppclust_e2e")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then lets cmake decide what is out of date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "ppclust_e2e",
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            sys.exit("error: build step failed: " + " ".join(step))


class Child:
    """The one driver process in flight; stopped if this script is."""
    proc = None


def stop_child(signum, _frame):
    if Child.proc is not None and Child.proc.poll() is None:
        Child.proc.kill()
        Child.proc.wait()
    sys.exit(128 + signum)


def run_driver(workload, seed, seconds, traced):
    """One ppclust_e2e process; returns its JSON result (exits on a crash)."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds]
    trace_path = os.path.join(OUT, workload + ".trace.json")
    if traced:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--traced", "--trace-out=" + trace_path]
    Child.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = Child.proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        Child.proc.kill()
        Child.proc.wait()
        sys.exit("error: %s did not finish within %d s" %
                 (workload, RUN_TIMEOUT_S))
    code = Child.proc.returncode
    Child.proc = None
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        sys.exit("error: %s exited with code %d" % (workload, code))
    result = json.loads(lines[-1])
    if traced:
        # Trace accounting: the Chrome-trace file must load as JSON.
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            ok, detail = len(events) > 0, "%d events" % len(events)
        except (OSError, ValueError, KeyError) as err:
            ok, detail = False, str(err)
        result["checks"].append(
            {"name": "trace_file_is_json", "ok": ok, "detail": detail})
    result["correct"] = result["correct"] and all(
        check["ok"] for check in result["checks"])
    for check in result["checks"]:
        if not check["ok"]:
            log("check failed: %s %s: %s" %
                (workload, check["name"], check["detail"]))
    return result


def select(result, metrics):
    """The run's values of exactly the metrics BENCHMARK.json lists."""
    chosen = {}
    for metric in metrics:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            sys.exit("error: %s reported no %s in %s" %
                     (result["workload"], metric["name"], metric["unit"]))
        chosen[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return chosen


def print_lines(workload, result, metrics):
    for name, metric in metrics.items():
        print("%s %s %.6g %s" % (workload, name, metric["value"],
                                 metric["unit"]))
    print("%s failed_frac %.6g ratio" %
          (workload, result["failed"] / max(1, result["attempted"])))


def read_first(path, prefix=""):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        pass
    return None


def machine(info, seconds):
    """What result.json records about the box, the build and the run."""
    quota = read_first("/sys/fs/cgroup/cpu.max")
    if quota is None:
        cfs = read_first("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = read_first("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = None if cfs is None else "%s %s" % (cfs, period)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    git = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                          "--abbrev=40", "--dirty"], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "dispatch": {k: info[k] for k in ("aes", "sha", "rows")},
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "run_seconds": seconds,
        "rates_per_s": info["rates"],
        "transport": "loopback TCP or in-process memory; no real link",
    }


def one_run(args, bench):
    """One workload, one run; the JSON result is the last stdout line."""
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        sys.exit("error: unknown workload %r (have %s)" %
                 (args.workload, ", ".join(names)))
    build()
    traced = args.trace == 1
    result = run_driver(args.workload, args.seed, args.seconds, traced)
    metrics = select(result, bench["per_layer" if traced else "end_to_end"])
    print_lines(args.workload, result, metrics)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def all_runs(args, bench):
    build()
    info = json.loads(subprocess.run([BINARY, "--info"], check=True,
                                     stdout=subprocess.PIPE,
                                     text=True).stdout)
    names = [w["name"] for w in bench["workloads"]]
    capture = {"machine": machine(info, args.seconds), "seed": args.seed,
               "runs": args.runs,
               "workloads": {n: {"untraced": [], "traced": []}
                             for n in names}}
    ok = True
    for traced, kind, metrics in ((False, "untraced", bench["end_to_end"]),
                                  (True, "traced", bench["per_layer"])):
        for run in range(args.runs):
            for name in names:
                log("# %s %s run %d/%d" % (name, kind, run + 1, args.runs))
                result = run_driver(name, args.seed, args.seconds, traced)
                chosen = select(result, metrics)
                print_lines(name, result, chosen)
                capture["workloads"][name][kind].append({
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"], "metrics": chosen})
                ok = ok and result["correct"] and result["failed"] == 0
    if args.runs > 1:
        print("# medians over %d runs" % args.runs)
        for name in names:
            for kind in ("untraced", "traced"):
                runs = capture["workloads"][name][kind]
                for metric in runs[0]["metrics"]:
                    values = [r["metrics"][metric]["value"] for r in runs]
                    print("%s %s %.6g %s" % (
                        name, metric, statistics.median(values),
                        runs[0]["metrics"][metric]["unit"]))
    out = args.out or os.path.join(OUT, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(capture, f, indent=1)
        f.write("\n")
    log("# wrote " + out)
    if not ok:
        sys.exit(1)


def main():
    bench = spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    if args.workload:
        one_run(args, bench)
    else:
        all_runs(args, bench)


if __name__ == "__main__":
    main()
