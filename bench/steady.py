"""Check that the benchmark is steady: two sets of runs of one commit agree.

    python3 bench/steady.py

Each of SETS sets runs every workload in BENCHMARK.json RUNS times with
``--trace 0``, each run with its own seed (set s, run i uses seed
1000 (s + 1) + i).  For each workload and end-to-end metric it reports the
median of each set, the spread (distance between the first and third
quartile, as a share of the median), and whether it is within the metric's
bound in BENCHMARK.json:

* the spread of every set is within the bound (and, for headroom, below a
  third of it);
* no set's median is worse than the first set's by more than the bound.

Then one ``--trace 1`` run per workload records the per-layer metrics.
Everything is written to .bench_out/steady.json; the exit code is 0 when
every check passes.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, other):
    """Share by which ``other`` is worse than ``first`` (negative: better)."""
    change = (other - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(SETS):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for i in range(RUNS):
                env, result = run(name, 1000 * (s + 1) + i, seconds, 0)
                report["env"] = env
                if not result["correct"]:
                    print(f"{name}: seed {1000 * (s + 1) + i} not correct",
                          file=sys.stderr)
                    ok = False
                for key, m in result["metrics"].items():
                    values[key].append(m["value"])
            sets.append(values)
        rows = {}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            per_set = [{"values": v[key], "median": statistics.median(v[key]),
                        "spread": spread(v[key])} for v in sets]
            drift = max((worse_by(metric, per_set[0]["median"], p["median"])
                         for p in per_set[1:]), default=0.0)
            spreads_ok = all(p["spread"] <= bound for p in per_set)
            row = {"bound": bound, "sets": per_set, "drift": drift,
                   "spread_ok": spreads_ok, "drift_ok": drift <= bound,
                   "headroom": all(p["spread"] < bound / 3 for p in per_set)}
            ok &= row["spread_ok"] and row["drift_ok"]
            rows[key] = row
            print(f"{name:8} {key:12} bound {bound:5.2f}  medians "
                  + " ".join(f"{p['median']:11.5g}" for p in per_set)
                  + "  spreads " + " ".join(f"{p['spread']:6.3f}"
                                            for p in per_set)
                  + f"  drift {drift:+6.3f}"
                  + ("" if row["spread_ok"] and row["drift_ok"] else "  FAIL")
                  + ("" if row["headroom"] else "  (spread >= bound/3)"))
        _, traced = run(name, 1000, seconds, 1)
        report["workloads"][name] = {
            "end_to_end": rows,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
    report["ok"] = ok
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / "steady.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
