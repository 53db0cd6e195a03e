"""Span tracing of qring from outside the package, and per-layer metrics.

``Tracer.install`` replaces each public function of the layer modules with
a wrapper that records one span per call: name, start, end, parent span and
op id.  Every binding of the function is replaced, including the names other
modules imported (``uncertainty.angle_moments_beta``, ``cli.mwp_x``), so
calls between layers are seen.  Spans are kept in flat arrays in memory and
written out once, at the end of a run.
"""

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("bessel", "state", "observables", "uncertainty", "mwp", "cli")
TRACED_METHODS = {"state": {"CircleState": ("evaluate", "density")}}


class Tracer:
    """Records spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self._patches = []

    def wrap(self, fn, name):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        start, end, names, parents, ops = (self.start, self.end, self.name,
                                           self.parent, self.op)
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package, layers=LAYERS):
        """Wrap the public functions of ``package.<layer>`` for each layer.

        Public means listed in ``__all__``, or not starting with an
        underscore when the module has no ``__all__``.
        """
        modules = [getattr(package, layer) for layer in layers]
        wrappers = {}
        for layer, mod in zip(layers, modules):
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = vars(mod).get(attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(fn, f"{layer}.{attr}")
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(
                        vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
        for mod in [package, *modules]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self):
        """The recorded spans as numpy arrays, times in seconds."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32).astype(np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(start, end, parent):
    """Each span's duration minus the time its child spans cover.

    In a single-threaded trace the children of a span are disjoint and lie
    inside it, so the covered time is the sum of their durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.size)
    return dur - covered


def outermost(parent, member):
    """Mask of member spans that have no member span among their ancestors."""
    inside = np.zeros(member.size, dtype=bool)
    idx = np.flatnonzero(member)
    cur = parent[idx]
    while idx.size:
        live = cur >= 0
        idx, cur = idx[live], cur[live]
        inside[idx[member[cur]]] = True
        keep = ~member[cur]
        idx, cur = idx[keep], parent[cur[keep]]
    return member & ~inside


def layer_metrics(spans, names, ops):
    """Per-op layer metrics from a trace covering ``ops`` completed ops.

    ``.ms`` metrics are inclusive times of the outermost calls of a group,
    ``.self_ms`` metrics exclude the time of child spans, and ``.calls``
    count outermost calls.  Times are wall clock, not calibrated.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    dur = end - start
    own = self_times(start, end, parent)

    def group(*fnames, layer=None):
        ids = [i for i, n in enumerate(names)
               if n in fnames or (layer and n.startswith(layer + "."))]
        return np.isin(spans["name"], ids)

    def per_op(x):
        return float(x) / ops

    def incl_ms(mask):
        return per_op(dur[outermost(parent, mask)].sum() * 1e3)

    def calls(mask):
        return per_op(outermost(parent, mask).sum())

    def self_ms(mask):
        return per_op(own[mask].sum() * 1e3)

    window = group("observables.angle_moments_beta")
    spectrum = group("observables.density_spectrum")
    observables = group(layer="observables")
    checks = group("uncertainty.check_ur_x", "uncertainty.check_ur_y",
                   "uncertainty.check_total_ur", "uncertainty.check_fujikawa")
    builds = group("mwp.mwp_x", "mwp.mwp_y")
    from_samples = group("state.from_samples")
    attempts = from_samples & ~outermost(parent, builds | from_samples)
    packets, tries = int(outermost(parent, builds).sum()), int(attempts.sum())
    bessel = group(layer="bessel")
    evaluate = group("state.CircleState.evaluate")
    return {
        "observables.window.calls": calls(window),
        "observables.window.ms": incl_ms(window),
        "observables.spectrum.calls": calls(spectrum),
        "observables.spectrum.ms": incl_ms(spectrum),
        "observables.autocorr_per_op": calls(
            group("observables.autocorrelation")),
        "observables.moments.self_ms": self_ms(
            observables & ~window & ~spectrum),
        "uncertainty.checks.self_ms": self_ms(checks),
        "uncertainty.fujikawa.ms": incl_ms(
            group("uncertainty.check_fujikawa")),
        "uncertainty.symmetry.ms": incl_ms(group(
            "uncertainty.detect_fold_symmetry",
            "uncertainty.is_fully_symmetric")),
        "uncertainty.recommend.ms": incl_ms(group("uncertainty.recommend_n")),
        "mwp.build.self_ms": self_ms(builds),
        "mwp.verify.ms": incl_ms(group("mwp.verify_packet")),
        "mwp.samples_per_packet": tries / packets if packets else 0.0,
        "mwp.grid_useful_ratio": packets / tries if tries else 0.0,
        "bessel.calls": calls(bessel),
        "bessel.ms": incl_ms(bessel),
        "state.build.ms": incl_ms(group(
            "state.from_fourier", "state.from_samples", "state.random_state",
            "state.uniform_state", "state.superposition_state",
            "state.sin_half_power_state", "state.cos_harmonic_state")),
        "state.parse.ms": incl_ms(group("state.load_state")),
        "state.dump.ms": incl_ms(group("state.dump_state")),
        "state.evaluate.calls": calls(evaluate),
        "state.evaluate.ms": incl_ms(evaluate),
        "cli.self_ms": self_ms(group(layer="cli")),
    }
