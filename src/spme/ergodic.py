"""Ensemble Monte Carlo: invariant-measure estimates and mixing rates.

P_t F(x) = E F(X_t(x)) is estimated by independent trajectories; the
mixing gap max_x |P_t F(x) - mu(F)| over a finite set of initial data is
fitted against the predicted power law t^(-1/(r-1)) (or exponential rate
sigma - delta in the strictly monotone regime).  The invariant-measure
moment of |X|^(r+1) is estimated from post-burn-in samples.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import noise as noise_mod
from .bounds import MIN_FIT_POINTS, fit_exp_rate, fit_power_law
from .solver import BlowUpError, SimConfig, initial_coeffs, run_batch


# Test functionals F(coeffs, operator) on H.  Each is 1-Lipschitz in the
# H-norm: |a_1| / sqrt(lambda_1) <= ||x||_H, and tanh and the clip to
# [-1e6, 1e6] (which keeps coord_1 bounded on all of H) are contractions.
BUILTIN_FUNCTIONALS = {
    "h_norm": lambda coeffs, op: op.h_norm(coeffs),
    "tanh_h_norm": lambda coeffs, op: np.tanh(op.h_norm(coeffs)),
    "coord_1": lambda coeffs, op: np.clip(
        coeffs[..., 0] / np.sqrt(op.eigenvalues[0]), -1e6, 1e6
    ),
}


@dataclass(frozen=True)
class EnsembleConfig:
    base: SimConfig
    n_traj: int
    burn_in: float = 1.0
    sample_times: tuple = ()
    initial_set: tuple = (("zero", 1.0), ("e1", 1.0))
    functionals: tuple = ("tanh_h_norm",)

    def __post_init__(self):
        errors = []
        if self.n_traj < 2:
            errors.append("need at least 2 trajectories")
        st = np.asarray(self.sample_times, dtype=float)
        if len(st) == 0 or np.any(np.diff(st) <= 0):
            errors.append("sample_times must be increasing and nonempty")
        elif st[0] <= 0 or st[-1] > self.base.t_end:
            errors.append("sample_times must lie in (0, t_end]")
        else:
            # run_batch keeps one snapshot per step, at round(t / dt)
            dt = self.base.dt
            errors += [f"sample times {t0:g} and {t1:g} round to the same dt step"
                       for t0, t1 in zip(st, st[1:]) if round(t0 / dt) == round(t1 / dt)]
        # run_ensemble keys each preset's samples by its label
        labels = [_initial_label(*initial) for initial in self.initial_set]
        if len(labels) < 2 or len(set(labels)) < len(labels):
            errors.append(
                "ensemble.initials: need at least two distinct presets, got "
                + ", ".join(labels)
            )
        errors += [f"unknown functional {name!r}"
                   for name in self.functionals if name not in BUILTIN_FUNCTIONALS]
        if errors:
            raise ValueError("; ".join(errors))


@dataclass
class EnsembleSamples:
    """Raw sample tensors from one ensemble run."""

    sample_times: np.ndarray
    # func_values[initial_label] has shape (n_traj, n_times, n_functionals)
    func_values: dict
    # lrp1[initial_label] has shape (n_traj, n_times): |X|^(r+1) mass
    lrp1: dict
    excluded: dict
    functionals: tuple


@dataclass
class ErgodicReport:
    mu_estimates: dict  # functional -> (mean, std_err)
    mixing_series: dict  # (functional, initial) -> gap series
    mixing_gap: dict  # functional -> max-over-initials gap series
    ptf: dict  # (functional, initial) -> (mean series, SE series)
    fit: object
    fit_kind: str
    moment_estimate: tuple
    uniqueness_diagnostic: dict  # functional -> (max pair gap, combined SE)


def _initial_label(preset, scale):
    return preset if scale == 1.0 else f"{scale:g}*{preset}"


def run_ensemble(config):
    """Simulate n_traj trajectories per initial preset.

    Stream ids are allocated per trajectory (shared across initial
    presets, which realizes the shared-noise coupling between ensembles).
    Blown-up trajectories are excluded and counted; more than 1%
    exclusions fail the run.
    """
    base = config.base
    op = base.operator
    funcs = [BUILTIN_FUNCTIONALS[name] for name in config.functionals]
    sample_times = np.asarray(config.sample_times, dtype=float)

    func_values, lrp1, excluded = {}, {}, {}
    for preset, scale in config.initial_set:
        label = _initial_label(preset, scale)
        a0 = np.tile(
            initial_coeffs(base, preset=preset, scale=scale), (config.n_traj, 1)
        )
        streams = None
        if not base.noise.is_zero:
            streams = [
                noise_mod.NoiseStream(base.noise, j) for j in range(config.n_traj)
            ]
        rec = run_batch(base, streams, a0, snapshot_times=sample_times)
        n_excl = int(np.sum(rec.blown))
        if n_excl / config.n_traj > 0.01:
            raise BlowUpError(
                f"{n_excl}/{config.n_traj} trajectories blew up for initial {label}"
            )
        live = ~rec.blown
        snaps = rec.snapshots[:, live, :]  # (S, B_live, n)
        fv = np.empty((snaps.shape[1], len(sample_times), len(funcs)))
        for fi, fn in enumerate(funcs):
            fv[:, :, fi] = fn(snaps, op).T
        func_values[label] = fv
        # sample-time observables from the snapshots themselves, one
        # sample time at a time: the (S, B, grid_size) grid values of all
        # of them and their powers set the memory peak of a large ensemble
        r = base.model.r
        lrp1[label] = np.array([op.lp_power(op.synth(x), r + 1.0) for x in snaps]).T
        excluded[label] = n_excl
        # dropped here, not at rebinding, so they are not alive through
        # the next preset's run_batch
        del rec, snaps

    return EnsembleSamples(
        sample_times=sample_times,
        func_values=func_values,
        lrp1=lrp1,
        excluded=excluded,
        functionals=tuple(config.functionals),
    )


def default_fit_window(sample_times):
    """The later half of the sample times."""
    return float(sample_times[len(sample_times) // 2]), float(sample_times[-1])


def window_errors(sample_times, burn_in, fit_window=None):
    """Messages for a burn-in or a fit window that the sample times cannot fill.

    After burn_in, at least one sample time must remain to average; the
    fit window (default: `default_fit_window`) must hold MIN_FIT_POINTS
    sample times.  Returns a list of messages, empty when both are met.
    """
    t = np.asarray(sample_times, dtype=float)
    last = f"the last sample time is {t[-1]:g}"
    errors = []
    if not np.any(t > burn_in):
        errors.append(f"ensemble.burn_in: no sample time after {burn_in:g}; {last}")
    lo, hi = fit_window or default_fit_window(t)
    inside = int(np.sum((t >= lo) & (t <= hi)))
    if inside < MIN_FIT_POINTS:
        which = "" if fit_window else " (default: the later half of the sample times)"
        errors.append(
            f"ensemble.fit_window{which}: [{lo:g}, {hi:g}] holds {inside} sample "
            f"times, need at least {MIN_FIT_POINTS}; {last}"
        )
    return errors


def _mean_se(x):
    """Mean and standard error over the trajectory axis 0."""
    return np.mean(x, axis=0), np.std(x, axis=0, ddof=1) / np.sqrt(x.shape[0])


def moment_check(samples, burn_in):
    """Estimate the invariant moment of |X|^(r+1): (estimate, standard error).

    The trajectories of every initial preset are pooled.  Each contributes
    its time average after burn_in, and those averages are iid, giving an
    honest standard error.
    """
    mask = samples.sample_times > burn_in
    if not np.any(mask):
        raise ValueError("no sample times beyond burn_in")
    mean, se = _mean_se(
        np.concatenate([np.mean(x[:, mask], axis=1) for x in samples.lrp1.values()])
    )
    return float(mean), float(se)


def mixing_experiment(config, exponential=False, fit_window=None):
    """Estimate the mixing gap toward the invariant measure and fit its rate.

    The reference mu(F) is taken from the most mixed ensemble (the one
    started at zero if present, else the first) at the largest sample
    time.
    """
    samples = run_ensemble(config)
    times = samples.sample_times
    labels = list(samples.func_values)
    ref_label = next((l for l in labels if l.endswith("zero")), labels[0])

    ptf, mixing_series, mixing_gap, mu_est, uniq = {}, {}, {}, {}, {}
    for fi, name in enumerate(samples.functionals):
        mu, mu_se = _mean_se(samples.func_values[ref_label][:, -1, fi])
        mu_est[name] = (float(mu), float(mu_se))
        gaps, finals = [], []
        for label in labels:
            mean, se = _mean_se(samples.func_values[label][:, :, fi])
            ptf[(name, label)] = (mean, se)
            mixing_series[(name, label)] = np.abs(mean - mu)
            gaps.append(mixing_series[(name, label)])
            finals.append((mean[-1], se[-1]))
        mixing_gap[name] = np.max(gaps, axis=0)
        worst, comb = 0.0, 0.0
        for (m1, s1), (m2, s2) in combinations(finals, 2):
            if abs(m1 - m2) > worst:
                worst, comb = abs(m1 - m2), np.hypot(s1, s2)
        uniq[name] = (float(worst), float(comb))

    gap = mixing_gap[samples.functionals[0]]
    if fit_window is None:
        fit_window = default_fit_window(times)
    if exponential:
        fit = fit_exp_rate(times, np.maximum(gap, 1e-300), fit_window)
        fit_kind = "exponential"
    else:
        fit = fit_power_law(times, np.maximum(gap, 1e-300), fit_window)
        fit_kind = "power"

    mom = moment_check(samples, burn_in=config.burn_in)
    return ErgodicReport(
        mu_estimates=mu_est,
        mixing_series=mixing_series,
        mixing_gap=mixing_gap,
        ptf=ptf,
        fit=fit,
        fit_kind=fit_kind,
        moment_estimate=mom,
        uniqueness_diagnostic=uniq,
    ), samples
