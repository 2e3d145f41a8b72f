"""Closed-form decay/contraction envelopes and rate-fitting utilities.

The pathwise contraction envelope for two solutions at H-distance z0 is

    dist(t)^2 <= { z0^(1-r) + (r-1)(eta-theta) lambda_1^((r+1)/2) t }^(-2/(r-1))

together with the initial-value-free branch obtained as z0 -> inf, and in
the strictly monotone regime (sigma > delta) the distance also contracts
exponentially at rate sigma - delta.  The second-moment envelope is
C (1 + t^(-2/(r-1))), with C treated as a fitted constant.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundParams:
    r: float
    eta: float
    theta: float = 0.0
    sigma: float = 0.0
    delta: float = 0.0
    lambda_1: float = np.pi**2

    def __post_init__(self):
        if not self.r > 1:
            raise ValueError("r must exceed 1")
        if self.lambda_1 <= 0:
            raise ValueError("lambda_1 must be positive")

    @property
    def contraction_coeff(self):
        """(r-1)(eta-theta) lambda_1^((r+1)/2)."""
        return (self.r - 1.0) * (self.eta - self.theta) * self.lambda_1 ** (
            (self.r + 1.0) / 2.0
        )


@dataclass(frozen=True)
class RateFit:
    rate: float
    intercept: float
    residual: float
    window: tuple
    n_points: int


def contraction_bound(z0_h, t, p):
    """Pathwise H-distance envelope (square root of the squared bound).

    Vectorized over t.  At t = 0 returns z0_h; at z0_h = 0 returns 0;
    for large z0_h approaches the initial-value-free branch
    (contraction_coeff * t)^(-1/(r-1)).
    """
    if p.eta <= p.theta:
        raise ValueError("contraction requires eta > theta")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or z0_h < 0:
        raise ValueError("need z0_h >= 0 and t >= 0")
    if z0_h == 0.0:
        return np.zeros_like(t) if t.ndim else 0.0
    expo = -2.0 / (p.r - 1.0)
    sq = (z0_h ** (1.0 - p.r) + p.contraction_coeff * t) ** expo
    out = np.sqrt(np.minimum(sq, z0_h**2))
    return out if t.ndim else float(out)


def contraction_bound_free(t, p):
    """Initial-value-free branch (contraction_coeff * t)^(-1/(r-1))."""
    if p.eta <= p.theta:
        raise ValueError("contraction requires eta > theta")
    t = np.asarray(t, dtype=float)
    out = (p.contraction_coeff * t) ** (-1.0 / (p.r - 1.0))
    return out if t.ndim else float(out)


def exponential_bound(z_s, t_minus_s, p):
    """z_s * exp(-(sigma - delta)(t - s)); needs sigma > delta."""
    if p.sigma <= p.delta:
        raise ValueError("exponential regime requires sigma > delta")
    t = np.asarray(t_minus_s, dtype=float)
    out = z_s * np.exp(-(p.sigma - p.delta) * t)
    return out if t.ndim else float(out)


def moment_decay_bound(t, C, r):
    """Envelope C (1 + t^(-2/(r-1))) for the squared H-norm."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    out = C * (1.0 + t ** (-2.0 / (r - 1.0)))
    return out if t.ndim else float(out)


def fit_envelope_constant(times, values, r):
    """Smallest C whose moment envelope dominates the series pointwise."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    return float(np.max(v / (1.0 + t ** (-2.0 / (r - 1.0)))))


def comparison_ode_solve(c1, c2, r, h0, t_grid, max_step=1e-3):
    """Solve h' = -c2 h^((r+1)/2) + c1 on t_grid by classical RK4.

    The solution stays at or above the equilibrium (c1/c2)^(2/(r+1)), so
    fractional powers are well defined along the run.
    """
    if c2 <= 0 or h0 <= 0:
        raise ValueError("need c2 > 0 and h0 > 0")
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    t_grid = np.asarray(t_grid, dtype=float)
    p = (r + 1.0) / 2.0

    def f(h):
        return -c2 * max(h, 0.0) ** p + c1

    out = np.empty_like(t_grid)
    h = float(h0)
    t = float(t_grid[0])
    out[0] = h
    for i in range(1, len(t_grid)):
        target = float(t_grid[i])
        while t < target - 1e-15:
            dt = min(max_step, target - t)
            k1 = f(h)
            k2 = f(h + 0.5 * dt * k1)
            k3 = f(h + 0.5 * dt * k2)
            k4 = f(h + dt * k3)
            h = h + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            t += dt
        out[i] = h
    return out


def comparison_ode_closed_form(c2, r, h0, t_grid):
    """Exact solution of h' = -c2 h^((r+1)/2) (the c1 = 0 case)."""
    t = np.asarray(t_grid, dtype=float)
    beta = (r - 1.0) / 2.0
    return (h0 ** (-beta) + beta * c2 * t) ** (-1.0 / beta)


def contraction_ode_reference(z0, eps, p, t_grid):
    """Closed-form majorant h_{eps,t} for the squared coupled distance.

    Solves h' = -2 (eta-theta) lambda_1^((r+1)/2) h^((r+1)/2) from
    h(0) = (z0 + eps)^2; at eps = 0 it coincides with the square of
    contraction_bound (without the initial-value cap).
    """
    if p.eta <= p.theta:
        raise ValueError("contraction requires eta > theta")
    if z0 <= 0 and eps <= 0:
        raise ValueError("need z0 + eps > 0")
    c2 = 2.0 * (p.eta - p.theta) * p.lambda_1 ** ((p.r + 1.0) / 2.0)
    return comparison_ode_closed_form(c2, p.r, (z0 + eps) ** 2, t_grid)


MIN_FIT_POINTS = 5  # sample times a rate fit needs inside its window


def _window_select(times, values, window):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty fit window")
    mask = (t >= lo) & (t <= hi)
    t, v = t[mask], v[mask]
    if len(t) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} samples inside the fit window")
    if np.any(v <= 0):
        raise ValueError("nonpositive values inside the fit window")
    return t, v


def _fit_line(x, y, window):
    """Least-squares line y ~ rate * x + intercept, with its RMS residual."""
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return RateFit(
        rate=float(coef[0]),
        intercept=float(coef[1]),
        residual=float(np.sqrt(np.mean(resid**2))),
        window=(float(window[0]), float(window[1])),
        n_points=len(x),
    )


def fit_power_law(times, values, window):
    """Least-squares slope of log v against log t inside the window."""
    t, v = _window_select(times, values, window)
    return _fit_line(np.log(t), np.log(v), window)


def fit_exp_rate(times, values, window):
    """Least-squares slope of log v against t inside the window."""
    t, v = _window_select(times, values, window)
    return _fit_line(t, np.log(v), window)
