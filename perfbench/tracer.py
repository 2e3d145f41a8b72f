"""Spans around spme's layer boundaries, installed from outside the package.

`SPANS` names each wrapped function, the metric its span feeds and, for
some, a counter taken from its arguments or result.  `installed` replaces
every binding of each function in the loaded `spme` modules, including
names bound by `from ... import` (`spme.solver.certify_constants`,
`spme.ergodic.run_batch`), for the duration of a `with installed(...)`
block, and puts the originals back when the block ends.

Spans are kept in memory as flat arrays and written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children.  An absorbing span (certification, config parsing, bounds)
records no child spans: what it calls is its own work.
"""

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _rows(args, out):
    a = args[1]
    return {"basis.rows_transformed": a.size // a.shape[-1]}


def _normals(args, out):
    return {"noise.normals_drawn": out.size}


def _batch(args, rec):
    config, a0 = args[0], args[2]
    steps = round(config.t_end / config.dt)
    attempted = steps * len(a0)
    blown = int(np.sum(rec.blown))
    lost = sum(steps - round(t / config.dt) + 1 for t in rec.blow_up_times[rec.blown])
    return {"solver.traj_steps": attempted, "solver.blown": blown,
            "solver.live_traj_steps": attempted - lost}


def _coupled(args, out):
    config, rec_x = args[0], out[0]
    steps = round(config.t_end / config.dt)
    live = steps
    if rec_x.blown_up:
        live = round(rec_x.blow_up_time / config.dt) - 1
    return {"solver.traj_steps": 2 * steps, "solver.blown": 2 * rec_x.blown_up,
            "solver.live_traj_steps": 2 * live}


_BOUNDS = ("contraction_bound", "contraction_bound_free", "exponential_bound",
           "moment_decay_bound", "fit_envelope_constant", "comparison_ode_solve",
           "comparison_ode_closed_form", "contraction_ode_reference",
           "fit_power_law", "fit_exp_rate")

# (module, function or Class.method, metric, absorbs nested calls, counter)
SPANS = [
    ("spme.basis", "OperatorSpec.synth", "basis.synth", False, _rows),
    ("spme.basis", "OperatorSpec.analyze", "basis.analyze", False, _rows),
    ("spme.basis", "OperatorSpec.h_norm", "basis.norms", False, None),
    ("spme.basis", "OperatorSpec.l2_norm_spectral", "basis.norms", False, None),
    ("spme.basis", "OperatorSpec.lp_power", "basis.norms", False, None),
    ("spme.model", "Nonlinearity.psi", "model.psi", False, None),
    ("spme.model", "Nonlinearity.psi_prime", "model.psi_prime", False, None),
    ("spme.model", "certify_constants", "model.certify", True, None),
    ("spme.noise", "sample_increment_block", "noise.sample_block", False, _normals),
    ("spme.solver", "run_batch", "solver.integrate", False, _batch),
    ("spme.solver", "coupled_simulate", "solver.integrate", False, _coupled),
    *[("spme.bounds", name, "bounds", True, None) for name in _BOUNDS],
    ("spme.ergodic", "run_ensemble", "ergodic.ensemble", False, None),
    ("spme.ergodic", "mixing_experiment", "ergodic.estimate", False, None),
    ("spme.config", "parse_config", "config.parse", True, None),
    ("spme.cli", "cmd_simulate", "cli", False, None),
    ("spme.cli", "cmd_couple", "cli", False, None),
    ("spme.cli", "cmd_ergodic", "cli", False, None),
]


class Tracer:
    """In-memory span recorder: one row per span in flat typed arrays."""

    def __init__(self):
        self.metrics = sorted({m for _, _, m, _, _ in SPANS})
        self._ids = {m: i for i, m in enumerate(self.metrics)}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._absorbing = 0

    def wrap(self, fn, metric, absorbs, counter):
        nid = self._ids[metric]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._absorbing:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._absorbing += absorbs
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._absorbing -= absorbs
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                self.counts.update(counter(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per-metric span count, total duration and self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        self_s = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        k = len(self.metrics)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        return {m: (int(calls[i]), float(total[i]), float(own[i]))
                for i, m in enumerate(self.metrics)}

    def save(self, path):
        np.savez(path, metrics=np.array(self.metrics), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


@contextmanager
def installed(tracer):
    """Wrap every entry of SPANS wherever spme binds it, for the block's duration.

    The tracer is reset first, so it holds the spans of this block only.
    """
    tracer.reset()
    modules = [m for n, m in sys.modules.items() if n == "spme" or n.startswith("spme.")]
    patches = []
    try:
        for modname, attr, metric, absorbs, counter in SPANS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                sites = [(owner, meth)]
                orig = owner.__dict__[meth]
            else:
                orig = getattr(mod, attr)
                sites = [(m, n) for m in modules for n, v in vars(m).items() if v is orig]
            wrapped = tracer.wrap(orig, metric, absorbs, counter)
            for owner, name in sites:
                patches.append((owner, name, orig))
                setattr(owner, name, wrapped)
        yield
    finally:
        for owner, name, orig in reversed(patches):
            setattr(owner, name, orig)
