"""One benchmark process: set up a workload, run its closed loop, check it.

run.py starts this file in a fresh interpreter, so that set-up time counts
the import of qring:

    python bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python bench/worker.py --workload W --seed N --probe

It prints one JSON line.  ``ready`` is the ``time.monotonic()`` reading just
before the first timed op; with ``--probe`` the process stops there.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 100  # p90 then has at least ten samples beyond it
# The speed of a shared host drifts by a quarter over tens of seconds.
# Every CAL_SECONDS of ops, a fixed reference workload is timed, and the
# times of the ops in between are scaled by REF_MS over the reference time
# measured around them: op times read as on a host where the reference
# takes REF_MS, about what it took on the host the baseline was recorded on
# (bench/baseline.json).  The unscaled times are kept as well.
CAL_SECONDS = 0.25
REF_MS = 3.5
REF_DATA = np.exp(1j * np.arange(2**16))


def reference_ms():
    """Median time of three runs of fixed interpreter and FFT work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(3000):
            acc += k * k
        np.fft.fft(REF_DATA)
        np.fft.fft(REF_DATA)
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[1]


class Timing:
    """Op latencies of closed loops, raw and calibrated, and their totals."""

    def __init__(self):
        self.raw = array("d")  # wall-clock op latencies, seconds
        self.scale = array("d")  # each op's calibration factor
        self.ref = array("d")  # reference times, ms
        self.wall = 0.0  # wall-clock seconds of the loops
        self.busy = 0.0  # the same, calibrated

    def latencies_ms(self, calibrated):
        raw = np.frombuffer(self.raw, dtype=np.float64) * 1e3
        return raw * np.frombuffer(self.scale, dtype=np.float64) \
            if calibrated else raw


def os_threads():
    """Threads of this process, or None where the OS does not list them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def import_qring():
    """Import qring from ``src/`` of this checkout and nowhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qring
    import qring.cli
    if not Path(qring.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qring imported from {qring.__file__}, not {src}")
    return qring


def closed_loop(wl, first, seconds, min_ops, timing, tracer=None):
    """Run ops back to back until ``seconds`` have passed and ``min_ops`` ran.

    Adds each op's latency and calibration factor to ``timing``.  Returns
    (ops run, {op id: error text} of ops that raised).
    """
    clock = time.perf_counter
    raised = {}
    i = first
    deadline = clock() + seconds
    ref_before = reference_ms()
    timing.ref.append(ref_before)
    seg_start, seg_first = clock(), len(timing.raw)
    while True:
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = wl.op(i)
        except (Exception, SystemExit):  # argparse exits on bad arguments
            out = None
            raised[i] = traceback.format_exc()
        t1 = clock()
        timing.raw.append(t1 - t0)
        if out is not None:
            wl.record(i, out)
        i += 1
        done = t1 >= deadline and i - first >= min_ops
        if done or t1 - seg_start >= CAL_SECONDS:
            wall = clock() - seg_start
            ref_after = reference_ms()
            timing.ref.append(ref_after)
            scale = 2.0 * REF_MS / (ref_before + ref_after)
            timing.scale.extend([scale] * (len(timing.raw) - seg_first))
            timing.wall += wall
            timing.busy += wall * scale
            ref_before = ref_after
            seg_start, seg_first = clock(), len(timing.raw)
        if done:
            return i - first, raised


def traced_loop(qring, wl, seconds, timing, block):
    """Alternate untraced and traced blocks until ``seconds`` have passed.

    Alternating blocks, rather than an untraced then a traced half, keeps
    slow spells of the machine out of the tracing overhead.  Returns (ops
    run, per-layer metrics, raised ops, tracer).
    """
    tracer = Tracer()
    rates = {False: [], True: []}
    raised = {}
    ops = traced_ops = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not rates[True]:
        traced = len(rates[False]) > len(rates[True])
        if traced:
            tracer.install(qring)
        busy = timing.busy
        try:
            n, bad = closed_loop(wl, ops, 0.0, block, timing,
                                 tracer if traced else None)
        finally:
            tracer.uninstall()
        rates[traced].append(n / (timing.busy - busy))
        raised.update(bad)
        ops += n
        traced_ops += n if traced else 0
    per_layer = layer_metrics(tracer.spans(), tracer.names, traced_ops)
    per_layer["trace.overhead_frac"] = 1.0 - (
        float(np.median(rates[True])) / float(np.median(rates[False])))
    return ops, per_layer, raised, tracer


def set_up(name, seed, workdir):
    """Import qring and build the workload's inputs."""
    qring = import_qring()
    return qring, WORKLOADS[name](qring, np.random.default_rng(seed), workdir)


def run_workload(name, seed, seconds, trace, workdir, min_ops=MIN_OPS,
                 block=None, spans_path=None):
    """Set up and run one workload; returns the raw result record.

    With ``trace`` untraced and traced blocks of ``block`` ops alternate
    (by default one pass over the workload's input pool); the traced ones
    give the per-layer metrics.
    """
    qring, wl = set_up(name, seed, workdir)
    block = block or wl.block
    ready = time.monotonic()
    timing = Timing()
    result = {"ready": ready}
    if trace:
        ops, result["per_layer"], raised, tracer = traced_loop(
            qring, wl, seconds, timing, block)
        if spans_path is not None:
            tracer.save(spans_path)
    else:
        ops, raised = closed_loop(wl, 0, seconds, min_ops, timing)
        for prefix, calibrated in (("", True), ("raw_", False)):
            p50, p90 = np.percentile(timing.latencies_ms(calibrated), [50, 90])
            result.update({f"{prefix}op_p50_ms": float(p50),
                           f"{prefix}op_p90_ms": float(p90)})
        result.update(ops_per_s=ops / timing.busy,
                      raw_ops_per_s=ops / timing.wall,
                      ref_ms=float(np.median(timing.ref)), samples=ops)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = wl.failed_ops() | raised.keys()
    import scipy
    result.update(attempted=ops, failed=len(failed),
                  threads=os_threads(),
                  first_error=next(iter(raised.values()), None),
                  numpy=np.__version__, scipy=scipy.__version__)
    return result


def main(argv=None):
    # One client on one CPU: staying on one core keeps the op timings from
    # jumping as the scheduler moves the process between cores.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up and print its end time")
    args = parser.parse_args(argv)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        if args.probe:
            set_up(args.workload, args.seed, workdir)
            result = {"ready": time.monotonic()}
        else:
            spans = None
            if args.trace:
                (ROOT / ".bench_out").mkdir(exist_ok=True)
                spans = ROOT / ".bench_out" / f"spans_{args.workload}.npz"
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, workdir, spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
