"""The benchmark's workloads: seeded inputs, one timed op, and its record.

Each workload is built from a seed (set-up, untimed), then runs ``op(i)``
in a closed loop with one client.  ``record(i, out)`` keeps what the
oracles need with memory bounded by the input pool, not by the op count,
and ``failed_ops()`` runs the oracles after the loop.

Why each workload exists:

* ``sweep`` -- acceptance criterion 8 as users run it: every axis and
  total check for n = 1..8 plus the window bound on random states.  The
  window moments dominate it.
* ``scan`` -- a full-window ``scan-beta`` of 63 rows; almost all of it is
  window moments, with parsing and CSV output around them.
* ``report`` -- ``report --nmax 8`` on mode spans 16..512 and mixed
  periodicity: the only workload with wide states, fold-symmetry detection
  and ``recommend_n``.
* ``packets`` -- ``mwp`` reports and ``--emit-state``: Bessel functions,
  sampling and state output, never the window moments.
"""

import contextlib
import io
import math
from array import array

import numpy as np

from oracles import (check_packet_json, check_packet_state, check_report,
                     check_scan, sweep_sample_ok)

CMP_TOL = 1e-9
PASSES = 64


def run_cli(cli, argv):
    """Run ``cli.main(argv)`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def write_state(path, theta, modes, amps):
    """Write the documented state-file format: ``theta`` then ``m re im``."""
    lines = [f"theta {theta:.17g}"]
    lines += [f"{int(m)} {a.real:.17g} {a.imag:.17g}"
              for m, a in zip(modes, amps)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def random_amps(rng, count):
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


class Sweep:
    """One op: ``random_state(8, seed_i)``, 24 axis/total checks, window bound."""

    name = "sweep"
    block = 128  # ops per traced or untraced block
    SAMPLE_EVERY, MAX_SAMPLES = 97, 12

    def __init__(self, qring, rng, workdir):
        self.q = qring
        self.base = int(rng.integers(0, 2**31))
        self.worst = array("d")
        self.ops = array("i")
        self.samples = []

    def op(self, i):
        state = self.q.state.random_state(8, self.base + i)
        unc = self.q.uncertainty
        reports = []
        for n in range(1, 9):
            reports += [unc.check_ur_x(state, n), unc.check_ur_y(state, n),
                        unc.check_total_ur(state, n)]
        reports.append(unc.check_fujikawa(state))
        return state, reports

    def record(self, i, out):
        state, reports = out
        slacks = [r.slack for r in reports]
        self.ops.append(i)
        self.worst.append(math.nan if any(map(math.isnan, slacks))
                          else min(slacks))
        if i % self.SAMPLE_EVERY == 0 and len(self.samples) < self.MAX_SAMPLES:
            self.samples.append((i, state.modes, state.amps,
                                 [(r.kind.value, r.n, r.lhs, r.rhs)
                                  for r in reports]))

    def failed_ops(self):
        bad = {i for i, w in zip(self.ops, self.worst) if not w >= -CMP_TOL}
        bad.update(i for i, modes, amps, reports in self.samples
                   if not sweep_sample_ok(modes, amps, reports))
        return bad


class PoolWorkload:
    """CLI ops over a seeded pool of argument lists, in shuffled passes.

    The first output of each pool entry is kept for the oracle; a later op
    on the same entry must reproduce it exactly.
    """

    def __init__(self, qring, rng, workdir):
        self.q = qring
        self.entries = []  # (argv, oracle context)
        self.build(rng, workdir)
        size = len(self.entries)
        self.perms = [rng.permutation(size).tolist() for _ in range(PASSES)]
        self.first = {}
        self.mismatch = set()
        self.by_entry = [array("i") for _ in range(size)]

    @property
    def block(self):
        """Ops per traced or untraced block: one pass over the pool."""
        return len(self.entries)

    def entry(self, i):
        size = len(self.entries)
        return self.perms[(i // size) % PASSES][i % size]

    def op(self, i):
        return run_cli(self.q.cli, self.entries[self.entry(i)][0])

    def record(self, i, out):
        k = self.entry(i)
        self.by_entry[k].append(i)
        if k not in self.first:
            self.first[k] = out
        elif out != self.first[k]:
            self.mismatch.add(i)

    def failed_ops(self):
        bad = set(self.mismatch)
        for k, (code, text) in self.first.items():
            try:
                ok = code == 0 and self.check(text, self.entries[k][1])
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False  # output that does not parse is a wrong output
            if not ok:
                bad.update(self.by_entry[k])
        return bad


class Scan(PoolWorkload):
    """One op: ``scan-beta`` over a full window, 63 rows of step 0.1."""

    name = "scan"

    def build(self, rng, workdir):
        states = [("uniform", np.array([0]), np.array([1.0 + 0j]))]
        for _ in range(6):
            mm = int(rng.integers(8, 65))
            states.append(("random", np.arange(-mm, mm + 1),
                           random_amps(rng, 2 * mm + 1)))
        for j in range(4):
            make_packet = self.q.mwp.mwp_x if j % 2 == 0 else self.q.mwp.mwp_y
            _, s = make_packet(int(rng.integers(1, 4)),
                               int(rng.integers(-3, 4)),
                               float(rng.uniform(0.5, 10.0)))
            states.append(("packet", s.modes, s.amps))
        for k, (kind, modes, amps) in enumerate(states):
            path = f"{workdir}/scan{k}.txt"
            write_state(path, 0.0, modes, amps)
            b0 = float(rng.uniform(-math.pi, math.pi))
            argv = ["scan-beta", path, "--from", repr(b0),
                    "--to", repr(b0 + 6.2832), "--step", "0.1"]
            self.entries.append((argv, (kind, modes, amps)))

    def check(self, text, ctx):
        kind, modes, amps = ctx
        return check_scan(text, kind, modes, amps)


class Report(PoolWorkload):
    """One op: ``report --nmax 8`` on a state file of mode span 16..512."""

    name = "report"
    SPANS = (16, 32, 64, 128, 256, 512)
    KINDS = ("periodic", "quasi", "symmetric")
    # States per (span, kind).  An op's cost varies from state to state
    # (recommend_n stops at a random n), so a large pool keeps the mix, and
    # with it throughput and p90, the same from seed to seed.
    REPLICAS = 6
    # (n, kappa range) of the packets; their spans run from 16 to about 500
    PACKETS = ((1, 0.5, 2.0), (2, 1.0, 3.0), (3, 4.0, 8.0), (4, 8.0, 12.0),
               (6, 15.0, 25.0), (8, 25.0, 35.0))

    def build(self, rng, workdir):
        strata = [(span, kind) for span in self.SPANS for kind in self.KINDS
                  for _ in range(self.REPLICAS)]
        states = []  # (theta, modes, amps, constructed fold)
        for span, kind in strata:
            lo = int(rng.integers(-512, 513 - span))
            theta, fold = 0.0, 1
            if kind == "symmetric":
                fold = int(rng.integers(2, 8))
                modes = lo + fold * np.arange(span // fold + 1)
            else:
                modes = np.arange(lo, lo + span + 1)
                if kind == "quasi":
                    theta = float(rng.uniform(0.1, 2 * math.pi - 0.1))
            states.append((theta, modes, random_amps(rng, modes.size), fold))
        for n, k_lo, k_hi in self.PACKETS * (self.REPLICAS // 2):
            _, s = self.q.mwp.mwp_x(n, int(rng.integers(-3, 4)),
                                    float(rng.uniform(k_lo, k_hi)))
            states.append((0.0, s.modes, s.amps, n))
        for k, (theta, modes, amps, fold) in enumerate(states):
            path = f"{workdir}/report{k}.txt"
            write_state(path, theta, modes, amps)
            self.entries.append((["report", path, "--nmax", "8"],
                                 (theta, modes, amps, fold)))

    def check(self, text, ctx):
        theta, modes, amps, fold = ctx
        return check_report(text, theta, modes, amps, fold)


class Packets(PoolWorkload):
    """One op: ``mwp``; half JSON verification reports, half --emit-state."""

    name = "packets"
    POOL = 512

    def build(self, rng, workdir):
        for k in range(self.POOL):
            axis = "X" if rng.integers(2) == 0 else "Y"
            n, m = int(rng.integers(1, 9)), int(rng.integers(-3, 4))
            kappa = float(rng.uniform(0.5, 40.0))
            argv = ["mwp", "--axis", axis, "--n", str(n), "--m", str(m),
                    "--kappa", repr(kappa)]
            emit = k % 2 == 0
            if emit:
                argv.append("--emit-state")
            self.entries.append((argv, (emit, axis, n, m, kappa)))

    def check(self, text, ctx):
        emit, axis, n, m, kappa = ctx
        if emit:
            return check_packet_state(text, axis, n, m, kappa)
        return check_packet_json(text, axis, n, m, kappa)


WORKLOADS = {w.name: w for w in (Sweep, Scan, Report, Packets)}
