"""Certify the brute-force reference values before anything else runs."""

import numpy as np
import pytest

import oracles
from spme.basis import OperatorSpec
from spme.bounds import comparison_ode_closed_form, comparison_ode_solve
from spme.model import Nonlinearity
from spme.noise import NoiseSpec, trace
from spme.solver import drift


def test_eta_bruteforce_cubic():
    eta = oracles.eta_bruteforce(lambda s: s**3, r=3.0)
    assert abs(eta - 0.25) < 1e-3


def test_eta_bruteforce_scaling():
    eta = oracles.eta_bruteforce(lambda s: 2.0 * s**3, r=3.0)
    assert abs(eta - 0.50) < 2e-3


def test_eta_bruteforce_linear_degenerates():
    # linear psi admits no positive eta on the whole line: the infimum
    # sits on the box boundary and shrinks as the box grows
    small = oracles.eta_bruteforce(lambda s: s, r=3.0, box=(-10, 10))
    large = oracles.eta_bruteforce(lambda s: s, r=3.0, box=(-20, 20))
    assert small <= 1.0 / 400.0 + 1e-6
    assert large < small


def test_sine_product_integrals():
    assert abs(oracles.sine_product_integral((1,), (4,)) - 0.375) < 1e-9
    assert abs(oracles.sine_product_integral((3, 1), (1, 3)) + 0.125) < 1e-9
    assert abs(oracles.sine_product_integral((2, 1), (1, 3))) < 1e-9


def test_drift_quadrature_matches_analytic_pattern():
    mdl = Nonlinearity(r=3.0, psi_kind="odd_power")
    b = oracles.drift_quadrature([1.0], mdl.psi, n_modes=8)
    expected = np.zeros(8)
    expected[0] = -3.0 * np.pi**2 / 2.0
    expected[2] = 9.0 * np.pi**2 / 2.0
    assert np.max(np.abs(b - expected)) < 1e-8


def test_drift_quadrature_vs_pseudospectral_random_field():
    op = OperatorSpec(n_modes=12, grid_size=128)
    mdl = Nonlinearity(r=3.0, psi_kind="odd_power")
    rng = np.random.default_rng(3)
    a = rng.standard_normal(12) / np.arange(1, 13)
    b_spec, _ = drift(a, mdl, op)
    b_quad = oracles.drift_quadrature(a, mdl.psi, n_modes=12)
    assert np.max(np.abs(b_spec - b_quad)) < 1e-10 * max(1.0, np.max(np.abs(b_quad)))


def test_ou_statistics_match_exact_law():
    lam, q, a0, t = np.pi**2, 0.3, 1.0, 0.2
    n = 4000
    factor, var = oracles.ou_statistics(lam, q, a0, t, n, seed=2)
    mean_exact, var_exact = oracles.ou_exact_moments(lam, q, a0, t)
    se_mean = np.sqrt(var_exact / n)
    se_var = var_exact * np.sqrt(2.0 / (n - 1))
    assert abs(factor * a0 - mean_exact) < 4 * se_mean
    assert abs(var - var_exact) < 4 * se_var


def test_ou_zero_noise_has_zero_variance():
    _, var = oracles.ou_statistics(np.pi**2, 0.0, 1.0, 0.5, 100, seed=0)
    assert var < 1e-30  # identical samples up to summation rounding


def test_comparison_ode_closed_form_certified():
    t = np.linspace(0.0, 2.0, 21)
    exact = 1.0 / (1.0 + t)
    assert np.max(np.abs(comparison_ode_closed_form(1.0, 3.0, 1.0, t) - exact)) < 1e-6
    ref = oracles.comparison_ode_reference(0.0, 1.0, 3.0, 1.0, t)
    assert np.max(np.abs(ref - exact)) < 1e-9
    rk4 = comparison_ode_solve(0.0, 1.0, 3.0, 1.0, t)
    assert np.max(np.abs(rk4 - ref)) < 1e-6


def test_comparison_ode_equilibrium():
    t = np.array([0.0, 20.0])
    ref = oracles.comparison_ode_reference(1.0, 1.0, 3.0, 3.0, t)
    assert abs(ref[-1] - 1.0) < 1e-9  # h^2 = c1/c2 fixed point
    rk4 = comparison_ode_solve(1.0, 1.0, 3.0, 3.0, t)
    assert abs(rk4[-1] - 1.0) < 1e-6


def test_noise_trace_extrapolation():
    target = np.pi**2 / 90.0
    assert abs(oracles.h_trace_extrapolated() - target) < 1e-9
    op = OperatorSpec(n_modes=64, grid_size=256)
    spec = NoiseSpec(profile="diagonal_power", c=1.0, a=1.0)
    assert abs(trace(spec, op) - target) < 1e-9


@pytest.mark.parametrize("case", oracles.CASES, ids=lambda c: c.name)
def test_registry_cases(case):
    if case.name.startswith("eta cubic"):
        coef = 2.0 if "scaling" in case.name else 1.0
        got = oracles.eta_bruteforce(lambda s: coef * s**3, r=3.0)
    elif "integral" in case.name:
        got = oracles.sine_product_integral(*case.inputs)
    elif case.name == "comparison ODE":
        c1, c2, r, h0 = case.inputs
        got = float(oracles.comparison_ode_reference(c1, c2, r, h0, np.array([0.0, 1.0]))[-1])
    else:
        got = oracles.h_trace_extrapolated()
    assert abs(got - case.expected) < case.tolerance
