"""Certified structural constants and the hypothesis gate."""

import numpy as np
import pytest

from spme.model import (
    AssumptionError,
    Nonlinearity,
    certify_constants,
    derivative_growth_constant,
    estimate_eta_sigma,
    growth_constant,
    phi_constants,
)

LAM1 = np.pi**2


def test_eta_cubic():
    eta, sigma = estimate_eta_sigma(Nonlinearity(r=3.0, psi_kind="odd_power"))
    assert abs(eta - 0.25) < 1e-3
    assert sigma == 0.0


def test_eta_linear_plus_cubic():
    pure, _ = estimate_eta_sigma(Nonlinearity(r=3.0, psi_kind="odd_power"))
    # the linear part is folded into sigma before any rounding: at alpha
    # = 1e12 subtracting it afterwards cost 9% of eta, and from 1e14 on
    # it made eta negative
    for alpha in (0.7, 1e12, 1e14, 1e300):
        mdl = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=alpha)
        eta, sigma = estimate_eta_sigma(mdl)
        assert abs(eta - 0.25) < 1e-3
        assert eta == pure
        assert sigma == alpha


def test_eta_scaling_with_gamma():
    eta, _ = estimate_eta_sigma(Nonlinearity(r=3.0, psi_kind="odd_power", gamma=2.0))
    assert abs(eta - 0.50) < 2e-3


def test_monotonicity_violation_raises():
    with pytest.raises(AssumptionError):
        estimate_eta_sigma(Nonlinearity(r=3.0, psi_kind="odd_power", gamma=-1.0))


def test_phi_constants_scaled_identity():
    mdl = Nonlinearity(r=3.0, phi_kind="scaled_identity", beta=0.5)
    theta, delta, c1, c2 = phi_constants(mdl, LAM1)
    assert (theta, c1) == (0.0, 0.0)
    assert c2 == 0.5
    assert delta == pytest.approx(0.5 / np.pi**2)


def test_phi_constants_bounded_lipschitz():
    mdl = Nonlinearity(r=3.0, phi_kind="bounded_lipschitz", beta=1.0)
    theta, delta, c1, c2 = phi_constants(mdl, LAM1)
    assert (theta, c1, c2) == (0.0, 0.0, 1.0)
    assert delta == pytest.approx(1.0 / np.pi**2)


def test_growth_constants():
    cubic_tanh = Nonlinearity(r=3.0, phi_kind="bounded_lipschitz", beta=1.0)
    assert growth_constant(cubic_tanh) <= 2.0
    linear_cubic = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=0.5)
    assert growth_constant(linear_cubic) <= 1.5
    assert derivative_growth_constant(cubic_tanh) == pytest.approx(3.0, abs=1e-6)


def test_gate_pass_and_exponential_regime():
    pure = Nonlinearity(r=3.0, psi_kind="odd_power")
    k, verdict = certify_constants(pure, LAM1, noise_trace=0.1)
    assert verdict.passed and not verdict.exponential_regime
    strict = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=0.5)
    k, verdict = certify_constants(strict, LAM1, noise_trace=0.1)
    assert verdict.passed and verdict.exponential_regime


def test_gate_fail_sigma_below_delta():
    mdl = Nonlinearity(r=3.0, psi_kind="odd_power",
                       phi_kind="scaled_identity", beta=0.5)
    k, verdict = certify_constants(mdl, LAM1, noise_trace=0.1)
    assert not verdict.passed
    assert any("sigma" in reason for reason in verdict.reasons)


def test_gate_fail_infinite_trace():
    k, verdict = certify_constants(
        Nonlinearity(r=3.0, psi_kind="odd_power"), LAM1, noise_trace=np.inf
    )
    assert not verdict.passed
    assert any("trace" in reason for reason in verdict.reasons)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        Nonlinearity(r=1.0)
    with pytest.raises(ValueError):
        Nonlinearity(r=3.0, psi_kind="odd_power", alpha=0.5)
    with pytest.raises(ValueError):
        Nonlinearity(r=3.0, phi_kind="custom")
    with pytest.raises(ValueError):
        Nonlinearity(r=3.0, psi_kind="cubic")


def test_psi_evaluation():
    mdl = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=0.5)
    s = np.array([-2.0, 0.0, 1.5])
    assert np.allclose(mdl.psi(s), 0.5 * s + s**3)
    assert np.allclose(mdl.psi_prime(s), 0.5 + 3.0 * s**2)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e100, -1e100]


def general_psi(mdl, s):
    return mdl.alpha * s + mdl.gamma * s * np.abs(s) ** (mdl.r - 1.0)


# s**3 overflows to inf on the largest inputs, as intended
OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")


def psi_inputs():
    rng = np.random.default_rng(14)
    # magnitudes from subnormal to overflowing s**3
    s = rng.standard_normal(20000) * 10.0 ** rng.uniform(-320, 160, 20000)
    return np.concatenate([s, EDGE_VALUES])


@OVERFLOW_OK
def test_cubic_psi_fast_path_is_exact():
    mdl = Nonlinearity(r=3.0, psi_kind="odd_power")
    assert mdl.cubic
    s = psi_inputs()
    assert mdl.psi(s).tobytes() == general_psi(mdl, s).tobytes()
    # the one difference: s**3 keeps the sign of an infinity, 0*inf is NaN
    assert mdl.psi(np.array([np.inf, -np.inf])).tolist() == [np.inf, -np.inf]
    assert np.isnan(general_psi(mdl, np.array([np.inf, -np.inf]))).all()


@OVERFLOW_OK
@pytest.mark.parametrize(
    "kw",
    [dict(r=5.0), dict(psi_kind="linear_plus_odd_power", alpha=0.5), dict(gamma=2.0)],
    ids=["r5", "alpha", "gamma"],
)
def test_psi_general_formula_off_the_fast_path(kw):
    mdl = Nonlinearity(**kw)
    assert not mdl.cubic
    s = np.concatenate([psi_inputs(), [np.inf, -np.inf]])
    assert mdl.psi(s).tobytes() == general_psi(mdl, s).tobytes()


def general_psi_prime(mdl, s):
    return mdl.alpha + mdl.gamma * mdl.r * np.abs(s) ** (mdl.r - 1.0)


@OVERFLOW_OK
def test_cubic_psi_prime_fast_path_is_exact():
    mdl = Nonlinearity(r=3.0, psi_kind="odd_power")
    assert mdl.cubic
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(15)
    batch = rng.standard_normal((500, 256)) * 10.0 ** rng.uniform(-320, 160, (500, 256))
    batch[::100, :5] = specials
    for s in (np.concatenate([psi_inputs(), specials]), batch):
        assert mdl.psi_prime(s).tobytes() == general_psi_prime(mdl, s).tobytes()
    # a 0-d input keeps the general formula: its scalar power rounds apart
    # from s*s on some inputs, and couple.csv pins that rounding
    points = psi_inputs()[:2000]
    fast_differs = 0
    for x in points:
        got = mdl.psi_prime(x)
        want = general_psi_prime(mdl, np.asarray(x))
        assert np.ndim(got) == 0 and np.float64(got).tobytes() == np.float64(want).tobytes()
        fast_differs += np.float64(3.0 * (x * x)).tobytes() != np.float64(want).tobytes()
    assert fast_differs > 0
