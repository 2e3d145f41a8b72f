"""Ensemble statistics: invariant estimates, mixing gaps, error scaling."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from spme import ergodic
from spme.basis import OperatorSpec
from spme.ergodic import (
    BUILTIN_FUNCTIONALS,
    EnsembleConfig,
    mixing_experiment,
    moment_check,
    run_ensemble,
)
from spme.model import Nonlinearity
from spme.noise import NoiseSpec
from spme.solver import BlowUpError, SimConfig

CUBIC = Nonlinearity(r=3.0, psi_kind="odd_power")
LINEAR = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=1.0, gamma=0.0)


def small_config(n_traj=32, t_end=0.5, model=CUBIC, c=0.2, dt=1e-3,
                 gate_override=False, scheme="tamed_em", n_times=8):
    op = OperatorSpec(n_modes=8, grid_size=64)
    nz = NoiseSpec(profile="diagonal_power", c=c, a=1.0, master_seed=21)
    base = SimConfig(operator=op, model=model, noise=nz, dt=dt, t_end=t_end,
                     scheme=scheme, record_every=100, gate_override=gate_override)
    times = tuple(np.linspace(t_end / n_times, t_end, n_times))
    return EnsembleConfig(base=base, n_traj=n_traj, burn_in=t_end / 2,
                          sample_times=times,
                          initial_set=(("zero", 1.0), ("e1", 1.0)),
                          functionals=("tanh_h_norm", "h_norm"))


def test_run_ensemble_shapes():
    cfg = small_config()
    samples = run_ensemble(cfg)
    assert set(samples.func_values) == {"zero", "e1"}
    assert samples.func_values["e1"].shape == (32, 8, 2)
    assert samples.excluded == {"zero": 0, "e1": 0}


def test_lrp1_per_sample_time_matches_whole_array(monkeypatch):
    # run_ensemble synthesizes the snapshots one sample time at a time;
    # the bytes must be those of the single synth over all of them
    cfg = small_config(n_traj=16, t_end=0.1)
    records, run_batch = [], ergodic.run_batch

    def spy(*args, **kwargs):
        records.append(run_batch(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(ergodic, "run_batch", spy)
    samples = run_ensemble(cfg)
    op, r = cfg.base.operator, cfg.base.model.r
    for label, rec in zip(samples.lrp1, records):
        snaps = rec.snapshots[:, ~rec.blown, :]
        whole = op.lp_power(op.synth(snaps), r + 1.0).T
        # the layout too: the post-burn-in means reduce along it
        assert samples.lrp1[label].strides == whole.strides
        assert samples.lrp1[label].tobytes() == whole.tobytes()


def test_monte_carlo_error_scaling():
    # doubling the trajectory count halves the standard error within 20%
    se = {}
    for n in (64, 256):
        samples = run_ensemble(small_config(n_traj=n))
        mu = oracles.estimate_invariant(samples, burn_in=0.25)
        se[n] = mu["tanh_h_norm"][1]
    assert se[256] / se[64] == pytest.approx(0.5, rel=0.2)


def test_linear_model_stationary_variance():
    # gate override: linear drift diagonalizes and mode 1 has exact
    # stationary variance q1^2 / (2 lambda_1)
    cfg = replace(small_config(n_traj=1000, t_end=1.0, model=LINEAR, c=0.3,
                               gate_override=True, dt=2e-4), functionals=("coord_1",))
    samples = run_ensemble(cfg)
    lam1 = np.pi**2
    q1 = 0.3
    target = q1**2 / (2.0 * lam1)
    # a_1 = sqrt(lambda_1) * coord_1 at the last sample time, t_end, from
    # the zero-started ensemble
    assert cfg.sample_times[-1] == cfg.base.t_end
    a1 = np.sqrt(lam1) * samples.func_values["zero"][:, -1, 0]
    var = np.var(a1, ddof=1)
    se = target * np.sqrt(2.0 / (len(a1) - 1))
    assert abs(var - target) < 4 * se


def test_time_average_matches_ensemble_average():
    cfg = small_config(n_traj=400, t_end=2.0, n_times=16)
    samples = run_ensemble(cfg)
    mu = oracles.estimate_invariant(samples, burn_in=1.0)["tanh_h_norm"]
    # ensemble average at the final time only
    finals = np.concatenate(
        [fv[:, -1, 0] for fv in samples.func_values.values()]
    )
    ens_mean = np.mean(finals)
    ens_se = np.std(finals, ddof=1) / np.sqrt(len(finals))
    combined = np.hypot(mu[1], ens_se)
    assert abs(mu[0] - ens_mean) < 4 * combined


def test_moment_check_stability_flag():
    samples = run_ensemble(small_config(n_traj=64))
    doubled = run_ensemble(small_config(n_traj=64))
    mean, se, flag = oracles.moment_doubling_check(samples, doubled, burn_in=0.25)
    assert np.isfinite(mean) and mean >= 0.0 and se >= 0.0
    assert flag is True  # identical runs are trivially stable
    assert moment_check(samples, burn_in=0.25) == (mean, se)


def test_blow_up_exclusion_raises():
    cfg = small_config(scheme="explicit_em", dt=5e-3, t_end=0.05, n_times=2,
                       gate_override=True)
    big = EnsembleConfig(base=cfg.base, n_traj=8, burn_in=0.01,
                         sample_times=cfg.sample_times,
                         initial_set=(("e1", 8.0), ("zero", 1.0)),
                         functionals=("h_norm",))
    with pytest.raises(BlowUpError):
        run_ensemble(big)


def test_mixing_experiment_report():
    cfg = small_config(n_traj=64, t_end=1.0, n_times=10)
    report, samples = mixing_experiment(cfg)
    assert report.fit_kind == "power"
    assert np.isfinite(report.fit.rate)
    gap = report.mixing_gap["tanh_h_norm"]
    assert gap.shape == (10,)
    worst, comb = report.uniqueness_diagnostic["tanh_h_norm"]
    assert worst >= 0.0 and comb > 0.0
    # deterministic: a second identical run reproduces the report exactly
    report2, _ = mixing_experiment(cfg)
    assert report2.fit.rate == report.fit.rate
    assert np.array_equal(report2.mixing_gap["tanh_h_norm"], gap)


def test_functional_lipschitz_declarations():
    # every builtin functional is 1-Lipschitz in the H-norm
    op = OperatorSpec(n_modes=4, grid_size=32)
    rng = np.random.default_rng(0)
    for fn in BUILTIN_FUNCTIONALS.values():
        x, y = rng.standard_normal((2, 4))
        lhs = abs(fn(x, op) - fn(y, op))
        assert lhs <= 1.0 * op.h_norm(x - y) + 1e-12
    # every builtin functional but h_norm itself is bounded on all of H
    far = 1e12 * np.sqrt(op.eigenvalues[0]) * np.eye(4)[0]
    assert abs(BUILTIN_FUNCTIONALS["tanh_h_norm"](-far, op)) <= 1.0
    assert BUILTIN_FUNCTIONALS["coord_1"](far, op) == 1e6
    assert BUILTIN_FUNCTIONALS["coord_1"](-far, op) == -1e6


def test_config_validation():
    cfg = small_config()
    with pytest.raises(ValueError):
        EnsembleConfig(base=cfg.base, n_traj=1, sample_times=(0.1,))
    with pytest.raises(ValueError):
        EnsembleConfig(base=cfg.base, n_traj=4, sample_times=())
    with pytest.raises(ValueError):
        EnsembleConfig(base=cfg.base, n_traj=4, sample_times=(0.1, 0.2),
                       functionals=("unknown",))
    # a sample time outside (0, t_end] would never be filled and read as NaN
    for times in ((0.1, 0.6), (0.0, 0.1), (-0.1, 0.1)):
        with pytest.raises(ValueError):
            EnsembleConfig(base=cfg.base, n_traj=4, sample_times=times)
    # two times on one dt step would leave the earlier snapshot unfilled
    with pytest.raises(ValueError, match="0.1 and 0.1002 round to the same dt step"):
        EnsembleConfig(base=cfg.base, n_traj=4, sample_times=(0.1, 0.1002, 0.5))
    # off-grid times inside the horizon stay allowed
    EnsembleConfig(base=cfg.base, n_traj=4, sample_times=(0.00012, 0.5))
    # one preset, or two labels for one preset, leave fewer ensembles than given
    for initials in ((("e1", 1.0),), (("e1", 1.0), ("e1", 1.0)),
                     (("zero", 1.0), ("e1", 2.0), ("e1", 2.0))):
        with pytest.raises(ValueError, match="need at least two distinct presets"):
            EnsembleConfig(base=cfg.base, n_traj=4, sample_times=(0.1, 0.5),
                           initial_set=initials)
