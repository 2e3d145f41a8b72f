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
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from .model import AssumptionError, certify_constants

SCHEMES = ("explicit_em", "tamed_em")
INITIAL_PRESETS = ("zero", "e1", "band")
_BLOCK = 256  # noise increments are buffered in blocks of this many steps

# explicit Euler is only trusted while dt <= GUARD_FRACTION / (lambda_n * (1 + max|Psi'|))
GUARD_FRACTION = 0.1


@dataclass(frozen=True)
class SimConfig:
    operator: object
    model: object
    noise: object
    dt: float
    t_end: float
    scheme: str = "tamed_em"
    record_every: int = 100
    initial: object = "e1"
    initial_scale: float = 1.0
    gate_override: bool = False

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise ValueError("need 0 < dt <= t_end")
        if not whole_steps(self.t_end, self.dt):
            raise ValueError("t_end must be a whole number of dt steps")
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
    """True if t_end is a whole number of dt steps, to a relative 1e-9."""
    return abs(round(t_end / dt) * dt - t_end) <= 1e-9 * t_end


@dataclass
class TrajectoryRecord:
    """Recorded norm series of a single trajectory."""

    times: np.ndarray
    h_norms: np.ndarray
    l2_norms: np.ndarray
    lrp1_powers: np.ndarray
    scheme: str
    final_coeffs: np.ndarray = None
    blown_up: bool = False
    blow_up_time: float = None
    blow_up_reason: str = None


@dataclass
class BatchRecord:
    """Recorded series of a batch of trajectories (T, B).

    The integrators fill it in place: `record` at each record step and
    `blow_up` when rows leave the run.  `row(i)` is trajectory i's record.
    """

    times: np.ndarray
    h_norms: np.ndarray
    l2_norms: np.ndarray
    lrp1_powers: np.ndarray
    scheme: str
    blown: np.ndarray  # (B,) bool
    blow_up_times: np.ndarray  # (B,), NaN while live
    blow_up_reasons: np.ndarray  # (B,) object, None while live
    final_coeffs: np.ndarray = None
    snapshots: np.ndarray = None  # (S, B, n) coeffs at snapshot_times
    snapshot_times: np.ndarray = None

    @classmethod
    def empty(cls, config, slots, B):
        """All-NaN series with one row per record step in `slots`."""
        series = [np.full((len(slots), B), np.nan) for _ in range(3)]
        return cls(np.array(list(slots)) * config.dt, *series, config.scheme,
                   blown=np.zeros(B, dtype=bool), blow_up_times=np.full(B, np.nan),
                   blow_up_reasons=np.full(B, None, dtype=object))

    def record(self, slot, a, operator, r):
        """Fill one slot of the series from the rows of `a` not yet blown up."""
        live = ~self.blown
        if not np.any(live):
            return
        x = a[live]
        vals = operator.synth(x)
        self.h_norms[slot, live] = operator.h_norm(x)
        self.l2_norms[slot, live] = operator.l2_norm_spectral(x)
        self.lrp1_powers[slot, live] = operator.lp_power(vals, r + 1.0)

    def blow_up(self, a, rows, t, reason):
        """Flag the live rows among `rows` (a bool mask) as blown up at time t.

        Their coefficients in the state `a` are frozen at NaN.
        """
        rows = rows & ~self.blown
        if np.any(rows):
            self.blown |= rows
            self.blow_up_times[rows] = t
            self.blow_up_reasons[rows] = reason
            a[rows] = np.nan

    def row(self, i):
        """Trajectory i's record; its series are views into this batch's."""
        blown = bool(self.blown[i])
        return TrajectoryRecord(
            times=self.times,
            h_norms=self.h_norms[:, i],
            l2_norms=self.l2_norms[:, i],
            lrp1_powers=self.lrp1_powers[:, i],
            scheme=self.scheme,
            final_coeffs=self.final_coeffs[i],
            blown_up=blown,
            blow_up_time=float(self.blow_up_times[i]) if blown else None,
            blow_up_reason=self.blow_up_reasons[i],
        )


class BlowUpError(RuntimeError):
    """More trajectories of an ensemble blew up than its estimates can exclude."""


def initial_coeffs(config, preset=None, scale=None):
    """Resolve an initial-data preset into a coefficient vector.

    Presets: "zero", "e1", "band" (fixed band-limited random profile), or
    an explicit coefficient sequence.  `scale` multiplies the result.
    """
    op = config.operator
    preset = config.initial if preset is None else preset
    scale = config.initial_scale if scale is None else scale
    a = np.zeros(op.n_modes)
    if not isinstance(preset, str):
        vals = np.asarray(preset, dtype=float)
        a[: len(vals)] = vals
    elif preset not in INITIAL_PRESETS:
        raise ValueError(f"unknown initial preset {preset!r}")
    elif preset == "e1":
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
    s = model.psi_prime(np.abs(values).max(axis=-1))
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
    whose sum overflows also give, builds the exact per-row mask.
    """
    if math.isfinite(a.sum()):
        return None
    rows = ~np.isfinite(a).all(axis=-1)
    return rows if rows.any() else None


def _check_gate(config):
    if config.gate_override:
        return
    constants, verdict = certify_constants(
        config.model,
        config.operator.eigenvalue(1),
        noise_trace=noise_mod.trace(config.noise, config.operator),
    )
    if not verdict.passed:
        raise AssumptionError(
            "hypothesis gate failed: " + "; ".join(verdict.reasons)
        )


def _schedule(config):
    """Step count and the {step: slot} map of the record steps.

    The record steps are 0, k, 2k, ... (k = record_every) and n_steps.
    """
    n_steps = int(round(config.t_end / config.dt))
    steps = [*range(0, n_steps, config.record_every), n_steps]
    return n_steps, {s: i for i, s in enumerate(steps)}


def run_batch(config, streams, a0, snapshot_times=()):
    """Integrate a batch of trajectories with per-trajectory noise streams.

    a0 has shape (B, n_modes); streams is a length-B list (or None for
    zero noise).  Blown-up trajectories are frozen at NaN and flagged,
    the rest continue.  The coefficients at each of `snapshot_times`
    (rounded to a step) are kept in the record's `snapshots`.
    """
    _check_gate(config)
    op, mdl, nspec = config.operator, config.model, config.noise
    dt = config.dt
    a = np.array(a0, dtype=float)
    B, n = a.shape
    n_steps, slots = _schedule(config)
    snap_steps = [int(round(t / dt)) for t in snapshot_times]
    snap_slots = {s: i for i, s in enumerate(snap_steps)}
    rec = BatchRecord.empty(config, slots, B)
    rec.snapshots = np.full((len(snap_steps), B, n), np.nan)
    rec.snapshot_times = np.array(snap_steps, dtype=int) * dt

    def observe(step_idx):
        if step_idx in slots:
            rec.record(slots[step_idx], a, op, mdl.r)
        if step_idx in snap_slots:
            live = ~rec.blown
            rec.snapshots[snap_slots[step_idx]][live] = a[live]

    observe(0)
    step_idx = 0
    while step_idx < n_steps:
        count = min(_BLOCK, n_steps - step_idx)
        if nspec.is_zero:
            dW = None
        else:
            dW = np.empty((B, count, n))
            for j, stream in enumerate(streams):
                dW[j] = noise_mod.sample_increment_block(nspec, n, dt, stream, count)
        for k in range(count):
            step_idx += 1
            inc = 0.0 if dW is None else dW[:, k, :]
            a, unstable = step(a, dt, inc, config.scheme, mdl, op)
            t = step_idx * dt
            if unstable is not None and unstable.any():
                rec.blow_up(a, unstable, t, "stability guard violated")
            bad = nonfinite_rows(a)
            if bad is not None:
                rec.blow_up(a, bad, t, "non-finite state")
            observe(step_idx)

    rec.final_coeffs = a.copy()
    return rec


def simulate(config):
    """Integrate a single trajectory and record its norm series."""
    a0 = initial_coeffs(config)[None, :]
    streams = None if config.noise.is_zero else [noise_mod.NoiseStream(config.noise)]
    return run_batch(config, streams, a0).row(0)


def coupled_simulate(config, initial_x, initial_y, stream=None):
    """Two trajectories driven by the identical noise path.

    initial_x and initial_y are coefficient vectors of length n_modes.
    Returns (record_x, record_y, h_distance_series).  The distance is
    computed spectrally, which is exact in the truncated space.  If either
    trajectory blows up, both stop at that step.
    """
    _check_gate(config)
    op, mdl, nspec = config.operator, config.model, config.noise
    dt = config.dt
    a = np.array([initial_x, initial_y], dtype=float)
    n = op.n_modes
    n_steps, slots = _schedule(config)
    rec = BatchRecord.empty(config, slots, 2)
    dist = np.full(len(slots), np.nan)
    if not nspec.is_zero and stream is None:
        stream = noise_mod.NoiseStream(nspec)
    both = np.ones(2, dtype=bool)

    def observe(step_idx):
        if step_idx in slots:
            rec.record(slots[step_idx], a, op, mdl.r)
            dist[slots[step_idx]] = op.h_norm(a[0] - a[1])

    observe(0)
    step_idx = 0
    while step_idx < n_steps and not rec.blown[0]:
        count = min(_BLOCK, n_steps - step_idx)
        dW = (
            None
            if nspec.is_zero
            else noise_mod.sample_increment_block(nspec, n, dt, stream, count)
        )
        for k in range(count):
            step_idx += 1
            inc = 0.0 if dW is None else dW[k]
            # one row at a time: couple.csv pins the rounding of the 0-d sup|Psi'|
            a[0], ux = step(a[0], dt, inc, config.scheme, mdl, op)
            a[1], uy = step(a[1], dt, inc, config.scheme, mdl, op)
            t = step_idx * dt
            if ux or uy:
                rec.blow_up(a, both, t, "stability guard violated")
            elif nonfinite_rows(a) is not None:
                rec.blow_up(a, both, t, "non-finite state")
            if rec.blown[0]:
                break
            observe(step_idx)

    rec.final_coeffs = a.copy()
    return rec.row(0), rec.row(1), dist
