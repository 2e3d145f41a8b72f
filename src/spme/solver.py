"""Time stepping for the spectral Galerkin system.

The truncated dynamics for the coefficient vector a = (a_1..a_n) read

    da_i = [-lambda_i <Psi(X), e_i> + <Phi(X), e_i>] dt + q_i dB^i,
    X = sum_k a_k e_k,

and the drift is evaluated pseudo-spectrally (synthesize to the grid,
apply Psi/Phi pointwise, project back).  The default integrator is a
tamed Euler-Maruyama step, which keeps the superlinear drift from
exploding; explicit Euler-Maruyama is available behind a per-step
stability guard.  A batch axis over independent trajectories is
supported throughout, with per-trajectory noise streams.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from . import noise as noise_mod
from .model import AssumptionError, certify_constants

SCHEMES = ("explicit_em", "tamed_em")
INITIAL_PRESETS = ("zero", "e1", "band")
# noise increments are buffered in blocks of this many steps, and the
# record queues at most this many rows before it takes their norms
_BLOCK = 256

# explicit Euler is only trusted while dt <= GUARD_FRACTION / (lambda_n * (1 + max|Psi'|))
GUARD_FRACTION = 0.1

# run_batch steps a batch in row shards of at least this many rows, one
# shard per usable CPU.  At (n_modes, grid_size) = (32, 256) on 2 CPUs,
# two shards of 40 rows broke even with one thread and two of 44 to 64
# rows took 0.66-0.86 of its time; smaller grids break even later.
MIN_SHARD_ROWS = 48

# the most steps a run may take: past 2**53 every float is a whole number,
# so t_end / dt says nothing of whole steps, and step * dt is not exact
MAX_STEPS = 2**53


@dataclass(frozen=True)
class SimConfig:
    operator: object
    model: object
    noise: object
    dt: float
    t_end: float
    scheme: str = "tamed_em"
    record_every: int = 100
    initial: str = "e1"
    initial_scale: float = 1.0
    gate_override: bool = False

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise ValueError("need 0 < dt <= t_end")
        if not whole_steps(self.t_end, self.dt):
            raise ValueError(f"t_end must be a whole number of dt steps, at most {MAX_STEPS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")
        if not self.operator.dealiasing_ok(self.model.r):
            raise ValueError(
                "grid too coarse for the nonlinearity degree: need "
                f"grid_size >= {2 * (self.model.r + 1) * self.operator.n_modes:g}"
            )


def whole_steps(t_end, dt):
    """True if t_end is a whole number of dt steps, at most MAX_STEPS, to a relative 1e-9."""
    steps = t_end / dt
    return steps <= MAX_STEPS and abs(round(steps) * dt - t_end) <= 1e-9 * t_end


@dataclass
class BatchRecord:
    """Recorded series of a batch of trajectories (T, B).

    `empty` allocates it at its record and snapshot steps, and the
    integrators fill it in place: `observe` each step, `blow_up` when rows
    leave the run and `flush` before they return; `rows(lo, hi)` is a shard's.
    """

    times: np.ndarray
    h_norms: np.ndarray
    l2_norms: np.ndarray
    lrp1_powers: np.ndarray
    blown: np.ndarray  # (B,) bool
    blow_up_times: np.ndarray  # (B,), NaN while live
    blow_up_reasons: np.ndarray  # (B,) object, None while live
    final_coeffs: np.ndarray  # (B, n)
    snapshots: np.ndarray  # (S, B, n) coeffs at snapshot_times
    snapshot_times: np.ndarray
    # the record steps in slot order, and {step: index} of the snapshot steps
    _steps: np.ndarray = field(repr=False)
    _snaps: dict = field(repr=False)
    _slot: int = field(default=0, init=False, repr=False)  # the next record slot
    # (coeffs, values) of the queued slots, whose norms are not yet taken
    _queue: tuple = field(default=None, init=False, repr=False)
    _queued: int = field(default=0, init=False, repr=False)

    @classmethod
    def empty(cls, config, B, snapshot_times=()):
        """An all-NaN record of B rows at the record steps 0, k, 2k, ... (k =
        record_every) and the last step; `snapshot_times` are rounded to a step."""
        n, dt = config.operator.n_modes, config.dt
        n_steps = round(config.t_end / dt)
        steps = np.array([*range(0, n_steps, config.record_every), n_steps])
        snaps = np.array([int(round(t / dt)) for t in snapshot_times], dtype=int)
        series = [np.full((len(steps), B), np.nan) for _ in range(3)]
        return cls(steps * dt, *series, blown=np.zeros(B, dtype=bool),
                   blow_up_times=np.full(B, np.nan),
                   blow_up_reasons=np.full(B, None, dtype=object),
                   final_coeffs=np.full((B, n), np.nan),
                   snapshots=np.full((len(snaps), B, n), np.nan), snapshot_times=snaps * dt,
                   _steps=steps, _snaps={s: i for i, s in enumerate(snaps.tolist())})

    # perfbench/tracer.py reads these two from the pair's record
    @property
    def blown_up(self):
        """True if any row blew up."""
        return bool(self.blown.any())

    @property
    def blow_up_time(self):
        """The earliest row's blow-up time, or None if no row blew up."""
        return float(np.nanmin(self.blow_up_times)) if self.blown_up else None

    def rows(self, lo, hi):
        """Rows lo:hi as a record of views into this one, with its own queue and next slot."""
        by_row = ("blown", "blow_up_times", "blow_up_reasons", "final_coeffs")
        by_time = ("h_norms", "l2_norms", "lrp1_powers", "snapshots")
        return replace(self, **{k: getattr(self, k)[lo:hi] for k in by_row},
                       **{k: getattr(self, k)[:, lo:hi] for k in by_time})

    def observe(self, step_idx, a, operator, r):
        """Store `a` at a snapshot step, queue it at a record step; returns `record`'s result."""
        if step_idx in self._snaps:
            self.snapshots[self._snaps[step_idx]] = a
        if step_idx == self._steps[self._slot]:
            return self.record(a, operator, r)

    def record(self, a, operator, r):
        """Queue the next slot of the series: the rows of `a` and their grid values.

        The queue holds up to _BLOCK rows; once it is full, `flush` takes
        their norms and `record` returns its block (else None).  A blown-up
        row is frozen at NaN, so it writes the NaN its slot holds.
        """
        vals = operator.synth(a)
        if self._queue is None:
            depth = max(1, _BLOCK // len(a))
            self._queue = (np.empty((depth, *a.shape)), np.empty((depth, *vals.shape)))
        coeffs, values = self._queue
        k = self._queued
        coeffs[k], values[k] = a, vals
        self._queued, self._slot = k + 1, self._slot + 1
        if self._queued == len(coeffs):
            return self.flush(operator, r)

    def flush(self, operator, r):
        """Fill the series at every queued slot, one norm call each, and free the queue.

        Each row's norms do not depend on how many rows share the call, so
        the series hold the bytes that one call per slot would give.
        Returns the flushed block as (slots, coeffs): the slice of the series
        it filled and its (slots, B, n) coefficients, or None if none were queued.
        """
        if self._queue is None:
            return
        coeffs, values = self._queue
        k = self._queued
        slots = slice(self._slot - k, self._slot)
        self.h_norms[slots] = operator.h_norm(coeffs[:k])
        self.l2_norms[slots] = operator.l2_norm_spectral(coeffs[:k])
        self.lrp1_powers[slots] = operator.lp_power(values[:k], r + 1.0)
        self._queue, self._queued = None, 0
        return slots, coeffs[:k]

    def blow_up(self, a, rows, t, reason):
        """Flag the live rows among `rows` (a bool mask) as blown up at time t.

        Their coefficients in the state `a` are frozen at NaN.  Returns
        True once every row has blown up: the integrators stop there, as
        the rest of the run would only step NaN, and the record slots and
        snapshots it would fill already hold NaN.
        """
        rows = rows & ~self.blown
        if np.any(rows):
            self.blown |= rows
            self.blow_up_times[rows] = t
            self.blow_up_reasons[rows] = reason
            a[rows] = np.nan
        return self.blown.all()


class BlowUpError(RuntimeError):
    """More trajectories of an ensemble blew up than its estimates can exclude."""


def initial_coeffs(config, preset=None, scale=None):
    """Resolve an initial-data preset into a coefficient vector.

    Presets: "zero", "e1", "band" (fixed band-limited random profile).
    `scale` multiplies the result.
    """
    op = config.operator
    preset = config.initial if preset is None else preset
    scale = config.initial_scale if scale is None else scale
    if preset not in INITIAL_PRESETS:
        raise ValueError(f"unknown initial preset {preset!r}")
    a = np.zeros(op.n_modes)
    if preset == "e1":
        a[0] = 1.0
    elif preset == "band":
        rng = np.random.default_rng(12345)
        k = min(8, op.n_modes)
        a[:k] = rng.standard_normal(k) / np.arange(1, k + 1)
    return scale * a


def drift(coeffs, model, operator):
    """Pseudo-spectral drift vector and the grid values it was taken at.

    Batched over leading axes; returns (b, values).  Raises no exception
    for overflow: non-finite output is the caller's blow-up signal.
    """
    values = operator.synth(coeffs)
    psi_hat = operator.analyze(model.psi(values))
    b = operator.neg_eigenvalues * psi_hat
    if not model.phi_is_zero:
        b = b + operator.analyze(model.phi(values))
    return b, values


def step(coeffs, dt, increments, scheme, model, operator):
    """Advance coefficients by one Euler-Maruyama step; batched over leading axes.

    Returns (new coeffs, unstable).  For explicit_em, `unstable` flags the
    rows whose start-of-step grid values break the stability guard
    dt <= GUARD_FRACTION / (lambda_n * (1 + max|Psi'|)); it is None for
    tamed_em, which needs no guard.
    """
    b, values = drift(coeffs, model, operator)
    # np.maximum.reduce is .max(axis=-1) without its Python wrapper
    s = model.psi_prime(np.maximum.reduce(np.abs(values), axis=-1))
    lam = operator.eigenvalues
    if scheme == "tamed_em":
        # per-mode taming with the spectral stiffness estimate
        # mu_k = lambda_k * sup|Psi'(X)|: unconditionally stable for the
        # stiff diagonal part, O(dt * lambda_k * s) relative bias on mode k
        factor = dt / (1.0 + dt * lam * s[..., None])
        return coeffs + b * factor + increments, None
    unstable = dt > GUARD_FRACTION / (lam[-1] * (1.0 + s))
    return coeffs + b * dt + increments, unstable


def nonfinite_rows(a):
    """Mask of the rows of `a` holding a NaN or ±inf entry, or None if none do.

    One scalar test covers the usual all-finite state: a NaN or ±inf entry
    makes the sum non-finite.  Only a non-finite sum, which finite entries
    whose sum overflows also give, builds the exact per-row mask.  The sum
    warns on such inputs: both integrators call it under
    np.errstate(over="ignore", invalid="ignore").
    """
    if math.isfinite(a.sum()):
        return None
    rows = ~np.isfinite(a).all(axis=-1)
    return rows if rows.any() else None


def certify(config):
    """The run's noise trace, certified constants and gate verdict."""
    trace = noise_mod.trace(config.noise, config.operator)
    return trace, *certify_constants(config.model, config.operator.eigenvalue(1), trace)


def _check_gate(config):
    if config.gate_override:
        return
    verdict = certify(config)[2]
    if not verdict.passed:
        raise AssumptionError(
            "hypothesis gate failed: " + "; ".join(verdict.reasons)
        )


def _increments(config, streams):
    """Each step's noise increments, in step order.

    A (B, n_modes) array per step, row j drawn from streams[j] in blocks
    of _BLOCK steps, or 0.0 when there is no noise.  The blocks are drawn
    into one buffer, refilled in place, so a yielded array is a view that
    holds its values only until the next block is drawn.
    """
    nspec, n, dt = config.noise, config.operator.n_modes, config.dt
    n_steps = round(config.t_end / dt)
    if nspec.is_zero:
        yield from repeat(0.0, n_steps)
        return
    buf = np.empty((len(streams), min(_BLOCK, n_steps), n))
    for start in range(0, n_steps, _BLOCK):
        count = min(_BLOCK, n_steps - start)
        for j, stream in enumerate(streams):
            noise_mod.sample_increment_block(nspec, n, dt, stream, buf[j, :count])
        for k in range(count):
            yield buf[:, k, :]


def _shard_count(B):
    """How many row shards run_batch steps a B-row batch in.

    One per usable CPU, each of at least MIN_SHARD_ROWS rows, and never
    fewer than one.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, B // MIN_SHARD_ROWS))


def run_batch(config, streams, a0, snapshot_times=()):
    """Integrate a batch of trajectories with per-trajectory noise streams.

    a0 has shape (B, n_modes); streams is a length-B list (or None for
    zero noise).  Blown-up trajectories are frozen at NaN and flagged,
    the rest continue; a shard stops once all its rows have blown up.
    The coefficients at each of `snapshot_times` (rounded to a step) are
    kept in the record's `snapshots`.

    Large batches are split into contiguous row shards that are stepped
    on threads at once: the transforms, the Philox draws and the numpy
    arithmetic all release the GIL.  No row's arithmetic depends on
    the other rows of its batch, and each row draws from its own stream,
    so the record is byte-identical to stepping all rows together.
    """
    _check_gate(config)
    a0 = np.asarray(a0, dtype=float)
    B = len(a0)
    W = _shard_count(B)
    rec = BatchRecord.empty(config, B, snapshot_times)
    edges = [B * i // W for i in range(W + 1)]
    shards = [
        (None if streams is None else streams[lo:hi], a0[lo:hi], rec.rows(lo, hi))
        for lo, hi in zip(edges, edges[1:])
    ]
    with ThreadPoolExecutor(max(1, W - 1)) as pool:
        rest = [pool.submit(_integrate, config, *shard) for shard in shards[1:]]
        _integrate(config, *shards[0])
        for f in rest:
            f.result()
    return rec


# a non-finite state is the blow-up signal (nonfinite_rows), not a warning;
# the decorator enters its context on each call, on every shard's thread
@np.errstate(over="ignore", invalid="ignore")
def _integrate(config, streams, a0, rec):
    """run_batch's loop over the rows of a0, filling their record `rec` in place."""
    op, mdl, dt = config.operator, config.model, config.dt
    a = np.array(a0, dtype=float)
    rec.observe(0, a, op, mdl.r)
    for step_idx, inc in enumerate(_increments(config, streams), start=1):
        a, unstable = step(a, dt, inc, config.scheme, mdl, op)
        t = step_idx * dt
        if unstable is not None and unstable.any():
            rec.blow_up(a, unstable, t, "stability guard violated")
        bad = nonfinite_rows(a)  # holds the rows just frozen at NaN too
        if bad is not None and rec.blow_up(a, bad, t, "non-finite state"):
            break
        rec.observe(step_idx, a, op, mdl.r)

    rec.flush(op, mdl.r)
    rec.final_coeffs[...] = a


def simulate(config):
    """Integrate a single trajectory: the record of a batch of one."""
    a0 = initial_coeffs(config)[None, :]
    streams = None if config.noise.is_zero else [noise_mod.NoiseStream(config.noise)]
    return run_batch(config, streams, a0)


@np.errstate(over="ignore", invalid="ignore")
def coupled_simulate(config, initial_x, initial_y):
    """Two trajectories driven by the identical noise path, stream id 0.

    initial_x and initial_y are coefficient vectors of length n_modes.
    Returns (record, h_distance_series): the record holds x as row 0 and
    y as row 1.  The distance is computed spectrally, which is exact in
    the truncated space, once per flushed record block.  If either
    trajectory blows up, both stop at that step.
    """
    _check_gate(config)
    op, mdl, dt = config.operator, config.model, config.dt
    a = np.array([initial_x, initial_y], dtype=float)
    rec = BatchRecord.empty(config, 2)
    dist = np.full(len(rec.times), np.nan)
    streams = None if config.noise.is_zero else [noise_mod.NoiseStream(config.noise)]
    both = np.ones(2, dtype=bool)

    def distance(block):
        if block is not None:
            slots, coeffs = block
            dist[slots] = op.h_norm(coeffs[:, 0] - coeffs[:, 1])

    distance(rec.observe(0, a, op, mdl.r))
    for step_idx, inc in enumerate(_increments(config, streams), start=1):
        inc = 0.0 if streams is None else inc[0]
        # one row at a time: couple.csv pins the rounding of the 0-d sup|Psi'|
        a[0], ux = step(a[0], dt, inc, config.scheme, mdl, op)
        a[1], uy = step(a[1], dt, inc, config.scheme, mdl, op)
        t = step_idx * dt
        if (ux or uy) and rec.blow_up(a, both, t, "stability guard violated"):
            break
        if nonfinite_rows(a) is not None and rec.blow_up(a, both, t, "non-finite state"):
            break
        distance(rec.observe(step_idx, a, op, mdl.r))

    distance(rec.flush(op, mdl.r))
    rec.final_coeffs[...] = a
    return rec, dist
