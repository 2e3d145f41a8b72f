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

from dataclasses import dataclass, field

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
    snapshot_times: tuple = ()

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
    snapshots: dict = field(default_factory=dict)
    final_coeffs: np.ndarray = None
    blown_up: bool = False
    blow_up_time: float = None
    blow_up_reason: str = None


@dataclass
class BatchRecord:
    """Recorded series of a batch of independent trajectories (T, B)."""

    times: np.ndarray
    h_norms: np.ndarray
    l2_norms: np.ndarray
    lrp1_powers: np.ndarray
    scheme: str
    snapshots: np.ndarray = None  # (S, B, n) coeffs at snapshot times
    snapshot_times: np.ndarray = None
    final_coeffs: np.ndarray = None
    blown: np.ndarray = None  # (B,) bool
    blow_up_times: np.ndarray = None
    blow_up_reason: str = None


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
    b = -operator.eigenvalues * psi_hat
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
    s = model.psi_prime(np.max(np.abs(values), axis=-1))
    lam = operator.eigenvalues
    if scheme == "tamed_em":
        # per-mode taming with the spectral stiffness estimate
        # mu_k = lambda_k * sup|Psi'(X)|: unconditionally stable for the
        # stiff diagonal part, O(dt * lambda_k * s) relative bias on mode k
        factor = dt / (1.0 + dt * lam * s[..., None])
        return coeffs + b * factor + increments, None
    unstable = dt > GUARD_FRACTION / (lam[-1] * (1.0 + s))
    return coeffs + b * dt + increments, unstable


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


def _record_steps(n_steps, record_every):
    steps = list(range(0, n_steps + 1, record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.array(steps)


def run_batch(config, streams, a0):
    """Integrate a batch of trajectories with per-trajectory noise streams.

    a0 has shape (B, n_modes); streams is a length-B list (or None for
    zero noise).  Blown-up trajectories are frozen at NaN and flagged,
    the rest continue.
    """
    _check_gate(config)
    op, mdl, nspec = config.operator, config.model, config.noise
    dt = config.dt
    a = np.array(a0, dtype=float)
    B, n = a.shape
    n_steps = int(round(config.t_end / dt))
    rec_steps = _record_steps(n_steps, config.record_every)
    rec_set = {int(s): i for i, s in enumerate(rec_steps)}
    T = len(rec_steps)
    h_norms = np.full((T, B), np.nan)
    l2_norms = np.full((T, B), np.nan)
    lrp1 = np.full((T, B), np.nan)
    snap_steps = np.array(
        [int(round(t / dt)) for t in config.snapshot_times], dtype=int
    )
    snap_set = {int(s): i for i, s in enumerate(snap_steps)}
    snaps = np.full((len(snap_steps), B, n), np.nan) if len(snap_steps) else None

    blown = np.zeros(B, dtype=bool)
    blow_times = np.full(B, np.nan)
    blow_reason = None
    quiet = nspec.is_zero

    def record(slot):
        live = ~blown
        if not np.any(live):
            return
        vals = op.synth(a[live])
        h_norms[slot, live] = op.h_norm(a[live])
        l2_norms[slot, live] = op.l2_norm_spectral(a[live])
        lrp1[slot, live] = op.lp_power(vals, mdl.r + 1.0)

    record(0)
    if snaps is not None and 0 in snap_set:
        snaps[snap_set[0]] = a

    step_idx = 0
    while step_idx < n_steps:
        count = min(_BLOCK, n_steps - step_idx)
        if quiet:
            dW = None
        else:
            dW = np.empty((B, count, n))
            for j, stream in enumerate(streams):
                dW[j] = noise_mod.sample_increment_block(nspec, n, dt, stream, count)
        for k in range(count):
            step_idx += 1
            inc = 0.0 if dW is None else dW[:, k, :]
            a, unstable = step(a, dt, inc, config.scheme, mdl, op)
            if unstable is not None:
                bad = (~blown) & unstable
                if np.any(bad):
                    blown |= bad
                    blow_times[bad] = step_idx * dt
                    blow_reason = "stability guard violated"
                    a[bad] = np.nan
            bad = (~blown) & ~np.all(np.isfinite(a), axis=-1)
            if np.any(bad):
                blown |= bad
                blow_times[bad] = step_idx * dt
                blow_reason = blow_reason or "non-finite state"
                a[bad] = np.nan
            if step_idx in rec_set:
                record(rec_set[step_idx])
            if snaps is not None and step_idx in snap_set:
                snaps[snap_set[step_idx]][~blown] = a[~blown]

    return BatchRecord(
        times=rec_steps * dt,
        h_norms=h_norms,
        l2_norms=l2_norms,
        lrp1_powers=lrp1,
        scheme=config.scheme,
        snapshots=snaps,
        snapshot_times=snap_steps * dt if len(snap_steps) else None,
        final_coeffs=a.copy(),
        blown=blown,
        blow_up_times=blow_times,
        blow_up_reason=blow_reason,
    )


def simulate(config):
    """Integrate a single trajectory and record its norm series."""
    a0 = initial_coeffs(config)[None, :]
    streams = None if config.noise.is_zero else [noise_mod.NoiseStream(config.noise)]
    rec = run_batch(config, streams, a0)
    snapshots = {}
    if rec.snapshots is not None:
        snapshots = {
            float(t): rec.snapshots[i, 0]
            for i, t in enumerate(rec.snapshot_times)
        }
    return TrajectoryRecord(
        times=rec.times,
        h_norms=rec.h_norms[:, 0],
        l2_norms=rec.l2_norms[:, 0],
        lrp1_powers=rec.lrp1_powers[:, 0],
        scheme=rec.scheme,
        snapshots=snapshots,
        final_coeffs=rec.final_coeffs[0],
        blown_up=bool(rec.blown[0]),
        blow_up_time=float(rec.blow_up_times[0]) if rec.blown[0] else None,
        blow_up_reason=rec.blow_up_reason if rec.blown[0] else None,
    )


def coupled_simulate(config, initial_x, initial_y, stream=None):
    """Two trajectories driven by the identical noise path.

    Returns (record_x, record_y, h_distance_series).  The distance is
    computed spectrally, which is exact in the truncated space.
    """
    _check_gate(config)
    op, mdl, nspec = config.operator, config.model, config.noise
    dt = config.dt
    # explicit arrays and presets alike resolve at unit scale here: callers
    # pass fully scaled initial data
    ax = np.array(initial_coeffs(config, preset=initial_x, scale=1.0), dtype=float)
    ay = np.array(initial_coeffs(config, preset=initial_y, scale=1.0), dtype=float)
    n = op.n_modes
    n_steps = int(round(config.t_end / dt))
    rec_steps = _record_steps(n_steps, config.record_every)
    rec_set = {int(s): i for i, s in enumerate(rec_steps)}
    T = len(rec_steps)
    series = {
        name: np.full((T, 2), np.nan) for name in ("h", "l2", "lrp1")
    }
    dist = np.full(T, np.nan)
    quiet = nspec.is_zero
    if not quiet and stream is None:
        stream = noise_mod.NoiseStream(nspec)

    blown = False
    blow_time = None
    blow_reason = None

    def record(slot):
        pair = np.stack([ax, ay])
        vals = op.synth(pair)
        series["h"][slot] = op.h_norm(pair)
        series["l2"][slot] = op.l2_norm_spectral(pair)
        series["lrp1"][slot] = op.lp_power(vals, mdl.r + 1.0)
        dist[slot] = op.h_norm(ax - ay)

    record(0)
    step_idx = 0
    while step_idx < n_steps and not blown:
        count = min(_BLOCK, n_steps - step_idx)
        dW = (
            None
            if quiet
            else noise_mod.sample_increment_block(nspec, n, dt, stream, count)
        )
        for k in range(count):
            step_idx += 1
            inc = 0.0 if dW is None else dW[k]
            ax, ux = step(ax, dt, inc, config.scheme, mdl, op)
            ay, uy = step(ay, dt, inc, config.scheme, mdl, op)
            if ux or uy:
                blow_reason = "stability guard violated"
            elif not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
                blow_reason = "non-finite state"
            if blow_reason:
                blown = True
                blow_time = step_idx * dt
                break
            if step_idx in rec_set:
                record(rec_set[step_idx])

    def make(idx, a_final):
        return TrajectoryRecord(
            times=rec_steps * dt,
            h_norms=series["h"][:, idx],
            l2_norms=series["l2"][:, idx],
            lrp1_powers=series["lrp1"][:, idx],
            scheme=config.scheme,
            final_coeffs=a_final,
            blown_up=blown,
            blow_up_time=blow_time,
            blow_up_reason=blow_reason,
        )

    return make(0, ax), make(1, ay), dist
