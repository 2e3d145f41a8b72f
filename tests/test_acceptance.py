"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

All tolerances are pinned in this module.  The experiments run at desk
scale with fixed seeds; the command-line entry point is exercised where
a criterion concerns an artifact-producing subcommand.
"""

import json

import numpy as np
import pytest

import oracles
from spme.basis import OperatorSpec
from spme.bounds import (
    BoundParams,
    comparison_ode_closed_form,
    contraction_bound,
    fit_envelope_constant,
    fit_exp_rate,
    fit_power_law,
)
from spme.cli import main
from spme.ergodic import EnsembleConfig, run_ensemble
from spme.model import Nonlinearity, certify_constants
from spme.noise import NoiseSpec, NoiseStream, trace
from spme.solver import SimConfig, coupled_simulate, drift, run_batch

CUBIC = Nonlinearity(r=3.0, psi_kind="odd_power")

DECAY_CONFIG = """
operator.n_modes = 64
operator.grid_size = 512
model.psi = odd_power
noise.profile = zero
sim.dt = 0.0001
sim.t_end = 5.0
sim.scheme = tamed_em
sim.record_every = 100
sim.initial = e1
sim.initial_scale = {scale}
sim.gate_override = true
"""

COUPLE_CONFIG = """
operator.n_modes = 32
operator.grid_size = 256
model.psi = odd_power
noise.profile = diagonal_power
noise.c = 0.2
noise.a = 1.0
noise.seed = 7
sim.dt = 0.0001
sim.t_end = 5.0
sim.scheme = tamed_em
sim.record_every = 100
sim.initial = e1
sim.initial_scale = 1.0
sim.initial_y = e1
sim.initial_y_scale = -1.0
"""

MIXING_CONFIG = """
operator.n_modes = 32
operator.grid_size = 256
model.psi = odd_power
noise.profile = diagonal_power
noise.c = 0.03
noise.a = 1.0
noise.seed = 13
sim.dt = 0.00025
sim.t_end = 10.0
sim.scheme = tamed_em
sim.record_every = 400
ensemble.n_traj = 500
ensemble.burn_in = 2.0
ensemble.sample_times = {times}
ensemble.fit_window = 0.1,1.5
ensemble.initials = zero,e1,10*e1
ensemble.functionals = tanh_h_norm
"""


def mixing_config_text():
    times = ",".join(f"{t:.17g}" for t in np.geomspace(0.1, 10.0, 18))
    return MIXING_CONFIG.format(times=times)


def run_cli(tmp, name, config_text, command, out_name):
    cfg = tmp / name
    cfg.write_text(config_text)
    out = tmp / out_name
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def decay_runs(workdir):
    """Criterion 1 experiments: one simulate run per initial scale."""
    runs = {}
    for scale_h in (0.1, 1.0, 10.0):
        text = DECAY_CONFIG.format(scale=repr(scale_h * np.pi))
        code, out = run_cli(workdir, f"decay_{scale_h}.cfg", text,
                            "simulate", f"decay_out_{scale_h}")
        runs[scale_h] = (code, out)
    return runs


def coupled_run(model, n, grid, dt, t_end, record_every, seed=7):
    op = OperatorSpec(n_modes=n, grid_size=grid)
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=seed)
    cfg = SimConfig(operator=op, model=model, noise=nz, dt=dt, t_end=t_end,
                    scheme="tamed_em", record_every=record_every)
    x0 = np.zeros(n)
    x0[0] = 1.0
    k, verdict = certify_constants(model, op.eigenvalue(1), trace(nz, op))
    rx, ry, dist = coupled_simulate(cfg, initial_x=x0, initial_y=-x0)
    params = BoundParams(r=model.r, eta=k.eta, theta=k.theta, sigma=k.sigma,
                         delta=k.delta, lambda_1=op.eigenvalue(1))
    return rx.times, dist, params, op.h_norm(2 * x0)


@pytest.fixture(scope="session")
def mixing_run(workdir):
    """Criterion 5 experiment through the ergodic subcommand."""
    code, out = run_cli(workdir, "mixing.cfg", mixing_config_text(),
                        "ergodic", "mixing_out")
    return code, out


def test_criterion_1_deterministic_optimal_decay(decay_runs):
    # target exponent -1/(r-1) = -0.5 on the fit window [0.5, 5]
    for scale_h, (code, out) in decay_runs.items():
        assert code == 0, f"simulate failed for initial scale {scale_h}"
        data = np.genfromtxt(out / "simulate.csv", delimiter=",", names=True)
        fit = fit_power_law(data["t"], data["h_norm"], (0.5, 5.0))
        assert -0.65 <= fit.rate <= -0.35, (
            f"decay exponent {fit.rate:.4f} outside [-0.65, -0.35] "
            f"for initial H-norm {scale_h}"
        )


def test_criterion_2_pathwise_contraction_bound():
    def margin(n, grid, dt):
        t, dist, params, z0 = coupled_run(CUBIC, n, grid, dt, 5.0, 1)
        bound = contraction_bound(z0, t, params)
        # per-step monotonicity of the coupled H-distance
        assert np.all(np.diff(dist) <= 1e-9)
        return float(np.max(np.maximum(dist - 1.1 * bound, 0.0)))

    base = margin(32, 256, 1e-4)
    refined = margin(64, 512, 5e-5)
    assert base == 0.0, f"distance exceeds 1.1x envelope by {base:.3e}"
    assert refined <= base, "violation margin grew under 2x refinement"


def test_criterion_3_exponential_regime():
    model = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=0.5)
    t, dist, params, z0 = coupled_run(model, 32, 256, 1e-4, 6.0, 100)
    assert params.sigma == 0.5 and params.delta == 0.0
    envelope = z0 * np.exp(-0.5 * t)
    assert np.all(dist <= 1.1 * envelope + 1e-12), "exponential envelope violated"
    fit = fit_exp_rate(t, np.maximum(dist, 1e-300), (1.0, 6.0))
    assert -0.65 <= fit.rate <= -0.35, (
        f"fitted rate {fit.rate:.4f} outside [-0.65, -0.35]; the observed "
        "contraction follows the sharp rate lambda_1*(sigma-delta) plus the "
        "superlinear contribution, an order of magnitude faster than the "
        "envelope rate sigma-delta"
    )


def test_criterion_4_moment_decay_envelope():
    n, grid, dt, n_traj = 32, 256, 2e-4, 200
    op = OperatorSpec(n_modes=n, grid_size=grid)
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=11)
    cfg = SimConfig(operator=op, model=CUBIC, noise=nz, dt=dt, t_end=5.0,
                    scheme="tamed_em", record_every=25)
    a0 = np.zeros((n_traj, n))
    a0[:, 0] = 10.0 * np.pi  # initial H-norm 10
    streams = [NoiseStream(nz, stream_id=j) for j in range(n_traj)]
    rec = run_batch(cfg, streams, a0)
    assert not np.any(rec.blown)
    t = rec.times
    m2 = np.mean(rec.h_norms**2, axis=1)
    C = fit_envelope_constant(t[t > 0], m2[t > 0], CUBIC.r)
    assert np.isfinite(C) and C > 0.0
    m_end = m2[-1]
    late = m2[(t >= 2.0) & (t <= 5.0)]
    assert np.all(late <= 3.0 * m_end) and np.all(late >= m_end / 3.0)
    excess = np.maximum(m2 - m_end, 0.0)
    fit = fit_power_law(t, excess, (0.02, 0.5))
    assert fit.rate <= -0.7, f"excess exponent {fit.rate:.3f} above -0.7"
    assert abs(fit.rate + 1.0) <= 0.35, (
        f"excess exponent {fit.rate:.3f} outside -1 +/- 0.35"
    )


def test_criterion_5_mixing_rate(mixing_run):
    code, out = mixing_run
    assert code == 0
    meta = json.loads((out / "ergodic_meta.json").read_text())
    assert meta["fit_kind"] == "power"
    rate = float(meta["fit_rate"])
    assert -0.65 <= rate <= -0.35, f"mixing exponent {rate:.4f} outside band"
    worst, comb = (float(v) for v in meta["uniqueness_diagnostic"]["tanh_h_norm"])
    assert worst < 4.0 * comb, (
        f"uniqueness diagnostic {worst:.5f} not below 4 x combined SE {comb:.5f}"
    )


def test_criterion_6_invariant_moment_stability():
    def ensemble(n, grid):
        op = OperatorSpec(n_modes=n, grid_size=grid)
        nz = NoiseSpec(profile="diagonal_power", c=0.1, a=1.0, master_seed=17)
        base = SimConfig(operator=op, model=CUBIC, noise=nz, dt=2.5e-4,
                         t_end=4.0, scheme="tamed_em", record_every=400)
        cfg = EnsembleConfig(base=base, n_traj=100, burn_in=1.0,
                             sample_times=tuple(np.linspace(1.5, 4.0, 11)),
                             initial_set=(("zero", 1.0), ("e1", 1.0)),
                             functionals=("tanh_h_norm",))
        return run_ensemble(cfg)

    coarse = ensemble(64, 512)
    fine = ensemble(128, 1024)
    mean, se, stable = oracles.moment_doubling_check(coarse, fine, burn_in=1.0)
    assert np.isfinite(mean) and mean >= 0.0
    assert stable, "invariant moment moved more than 10% under mode doubling"


def test_criterion_7_oracle_suite():
    # eta brute force
    eta = oracles.eta_bruteforce(lambda s: s**3, r=3.0)
    assert abs(eta - 0.25) < 1e-3
    # drift test vector
    op = OperatorSpec(n_modes=16, grid_size=512)
    a = np.zeros(16)
    a[0] = 1.0
    b, _ = drift(a, CUBIC, op)
    expected = np.zeros(16)
    expected[0] = -3.0 * np.pi**2 / 2.0
    expected[2] = 9.0 * np.pi**2 / 2.0
    assert np.max(np.abs(b - expected)) < 1e-8
    # exact-law linear SDE statistics
    lam, q, a0, t_obs, n = np.pi**2, 0.3, 1.0, 0.2, 4000
    factor, var = oracles.ou_statistics(lam, q, a0, t_obs, n, seed=2)
    mean_exact, var_exact = oracles.ou_exact_moments(lam, q, a0, t_obs)
    assert abs(factor * a0 - mean_exact) < 4 * np.sqrt(var_exact / n)
    assert abs(var - var_exact) < 4 * var_exact * np.sqrt(2.0 / (n - 1))
    # comparison ODE closed form
    assert abs(comparison_ode_closed_form(1.0, 3.0, 1.0, np.array([0.0, 1.0]))[-1]
               - 0.5) < 1e-6
    # noise trace with tail extrapolation
    spec = NoiseSpec(profile="diagonal_power", c=1.0, a=1.0)
    assert abs(trace(spec, OperatorSpec(n_modes=64, grid_size=256))
               - np.pi**2 / 90.0) < 1e-9
    assert abs(oracles.h_trace_extrapolated() - np.pi**2 / 90.0) < 1e-9


def test_criterion_8_byte_identical_reruns(workdir, decay_runs, mixing_run):
    # decay experiment (criterion 1, unit initial scale)
    text = DECAY_CONFIG.format(scale=repr(1.0 * np.pi))
    code, out = run_cli(workdir, "decay_again.cfg", text, "simulate", "decay_again")
    assert code == 0
    original = decay_runs[1.0][1] / "simulate.csv"
    assert (out / "simulate.csv").read_bytes() == original.read_bytes()

    # coupled experiment (criterion 2 base configuration)
    code_a, out_a = run_cli(workdir, "couple.cfg", COUPLE_CONFIG, "couple", "cpl_a")
    code_b, out_b = run_cli(workdir, "couple2.cfg", COUPLE_CONFIG, "couple", "cpl_b")
    assert code_a == 0 and code_b == 0
    assert (out_a / "couple.csv").read_bytes() == (out_b / "couple.csv").read_bytes()

    # mixing experiment (criterion 5 configuration)
    code, out = run_cli(workdir, "mixing_again.cfg", mixing_config_text(),
                        "ergodic", "mixing_again")
    assert code == 0
    original = mixing_run[1] / "ergodic.csv"
    assert (out / "ergodic.csv").read_bytes() == original.read_bytes()
