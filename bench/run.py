"""Run the qring benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all``.  Run from any
directory; qring is imported from ``src/`` next to this directory, with
BLAS and OpenMP pinned to one thread.  One client, one process, closed loop.

Set-up time is the median over several fresh interpreters, each timed from
its start to the moment it would run the first op.  The ops run in one
more interpreter (bench/worker.py), which checks every output against an
oracle after the timed loop.  Op times and throughput are calibrated
against a fixed reference workload timed every quarter second in the same
process (see worker.py), so that drift in the speed of a shared host
cancels: they are in reference-normalised units (``ref_ms``, ``1/ref_s``).
The wall-clock op figures and the reference times are on the line before
the result.
Set-up time and memory are reported as measured.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (spans are
written to .bench_out/), the CLI cold start and the tracing overhead.
The line before it records the environment.  Exit code 0 when a result is
printed, 2 when the benchmark cannot run here.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 16  # set-up-only interpreters per untraced run
# Wall-clock figures of the timed run, kept next to the calibrated ones
RAW = ("raw_ops_per_s", "raw_op_p50_ms", "raw_op_p90_ms", "ref_ms")
COLD_STARTS = 3
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, timeout, stderr=None):
    """Run a child to completion; returns (monotonic start, its last stdout line)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=stderr, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout} s: {cmd}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {cmd}")
    lines = proc.stdout.strip().splitlines()
    return t0, lines[-1] if lines else ""


def worker(workload, seed, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0, line = run_child(cmd, timeout)
    result = json.loads(line)
    result["setup_s"] = result["ready"] - t0
    return result


def cold_start_ms():
    """Median wall time of ``python -m qring.cli examples cos-phi``."""
    times = []
    for _ in range(COLD_STARTS):
        t0, _ = run_child([sys.executable, "-m", "qring.cli", "examples",
                           "cos-phi"], timeout=60, stderr=subprocess.DEVNULL)
        times.append((time.monotonic() - t0) * 1e3)
    return statistics.median(times)


def environment(seed):
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "seed": seed,
           "cpu": None, "commit": None}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), None)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        env["commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def probes(workload, seed):
    """Set-up times of half of the probes, each a fresh interpreter."""
    return [worker(workload, seed, "--probe", timeout=60)["setup_s"]
            for _ in range(PROBES // 2)]


def measure(spec, workload, seed, seconds, trace):
    """Run one workload; returns (contract result, detail record)."""
    setups = [] if trace else probes(workload, seed)
    res = worker(workload, seed, "--seconds", str(seconds), "--trace",
                 str(int(trace)), timeout=150)
    attempted, failed = res["attempted"], res["failed"]
    detail = {"workload": workload, "fail_frac": failed / attempted,
              "first_error": res["first_error"], "numpy": res["numpy"],
              "scipy": res["scipy"], "threads": res["threads"]}
    if trace:
        values = dict(res["per_layer"], **{"cli.cold_start_ms": cold_start_ms()})
        wanted = spec["per_layer"]
    else:
        # Half the probes run before the timed run and half after it, so
        # that the median spans the host's slow and fast spells.
        setups += [res["setup_s"]] + probes(workload, seed)
        detail.update({"setup_samples_s": setups, "ops": res["samples"]},
                      **{k: res[k] for k in RAW})
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": res["ops_per_s"],
                  "op_p50_ms": res["op_p50_ms"],
                  "op_p90_ms": res["op_p90_ms"],
                  "ok_frac": 1.0 - failed / attempted,
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0 and attempted >= 1,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"{spec_path} is missing")
        if not (ROOT / "src" / "qring" / "__init__.py").is_file():
            raise BenchError(f"no qring sources under {ROOT / 'src'}")
        spec = json.loads(spec_path.read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {names + ['all']}")
        if not args.seconds > 0:
            raise BenchError("--seconds must be positive")
        env = environment(args.seed)
        runs = []
        for name in names if args.workload == "all" else [args.workload]:
            result, detail = measure(spec, name, args.seed, args.seconds,
                                     args.trace)
            env.update(numpy=detail.pop("numpy"), scipy=detail.pop("scipy"))
            for key, m in result["metrics"].items():
                print(f"{name:8} {key:30} {m['value']:14.6g} {m['unit']}",
                      file=sys.stderr)
            runs.append((name, result, detail))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env, "runs": [d for _, _, d in runs]}))
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r, _ in runs),
                 "attempted": sum(r["attempted"] for _, r, _ in runs),
                 "failed": sum(r["failed"] for _, r, _ in runs),
                 "metrics": {f"{n}.{k}": v for n, r, _ in runs
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
