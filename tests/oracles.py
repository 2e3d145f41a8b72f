"""Brute-force and analytic reference implementations for the test suite.

Everything here is deliberately independent of the package's numerical
kernels: plain double loops instead of vectorized certificates, dense
quadrature instead of fast sine transforms, exact transition laws
instead of time stepping.  Clarity over speed; test-suite use only.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from spme.model import AssumptionError


@dataclass(frozen=True)
class OracleCase:
    """A single certified reference value."""

    name: str
    inputs: tuple
    expected: float
    tolerance: float
    note: str = ""


def eigenfunction_values(op, k, grid=None):
    """Point values of e_k(x) = sqrt(2) sin(k pi x), on op's midpoint grid by default."""
    if grid is None:
        grid = (np.arange(op.grid_size) + 0.5) / op.grid_size
    x = np.asarray(grid, dtype=float)
    return np.sqrt(2.0) * np.sin(k * np.pi * x)


def lp_norm(values, p):
    """L^p norm on (0,1) by the composite midpoint rule."""
    if p < 1:
        raise ValueError("p must be at least 1")
    v = np.asarray(values, dtype=float)
    return np.mean(np.abs(v) ** p, axis=-1) ** (1.0 / p)


def inv_l_coeffs(op, coeffs):
    """Apply L^{-1} spectrally: a_k -> -a_k / lambda_k."""
    a = np.asarray(coeffs, dtype=float)
    return -a / op.eigenvalues[: a.shape[-1]]


def apply_l_coeffs(op, coeffs):
    """Apply L spectrally: a_k -> -lambda_k a_k."""
    a = np.asarray(coeffs, dtype=float)
    return -a * op.eigenvalues[: a.shape[-1]]


def eta_bruteforce(psi, r, sigma=0.0, box=(-10.0, 10.0), grid=400):
    """Infimum of ((s-t)(psi(s)-psi(t)) - sigma (s-t)^2) / |s-t|^(r+1).

    Direct double loop over a dense grid.  For superlinear psi the
    infimum is attained in the interior; for linear psi it degenerates
    toward 0 as the box grows (divergence note: no positive eta exists
    on the whole line).
    """
    pts = np.linspace(box[0], box[1], grid)
    best = np.inf
    for i in range(grid):
        s = pts[i]
        ps = psi(s)
        for j in range(i + 1, grid):
            t = pts[j]
            d = s - t
            val = (d * (ps - psi(t)) - sigma * d * d) / abs(d) ** (r + 1.0)
            if val < best:
                best = val
    return best


def eta_sigma_meshgrid(spec):
    """(eta, sigma) by minimization over the full 400x400 grid of [-10, 10]^2.

    Reference for `model.estimate_eta_sigma`, which takes the grid's 400
    anti-diagonal pairs: sigma = alpha, and eta is the minimum over all
    pairs s != t of

        ((s-t)(Psi(s)-Psi(t)) - sigma*(s-t)^2) / |s-t|^(r+1),

    with the numerator taken on the superlinear part P = Psi - alpha*s.
    A minimum below -1e-12 raises `AssumptionError`.
    """
    sigma = spec.alpha
    power = replace(spec, psi_kind="odd_power", alpha=0.0)
    s = np.linspace(-10.0, 10.0, 400)
    S, T = np.meshgrid(s, s, indexing="ij")
    diff = S - T
    mask = np.abs(diff) > 1e-9
    num = diff * (power.psi(S) - power.psi(T))
    ratio = num[mask] / np.abs(diff[mask]) ** (spec.r + 1.0)
    eta = float(ratio.min())
    if eta < -1e-12:
        raise AssumptionError(
            f"monotonicity violated: certified eta = {eta:.3e} < 0"
        )
    return max(eta, 0.0), sigma


def growth_constant_scan(spec):
    """Sup of (|Psi(s)| + |Phi(s)|)/(1+|s|^r) on a 20,001-point scan of
    [-100, 100], joined with its |s| -> inf limit |gamma|."""
    s = np.linspace(-100.0, 100.0, 20001)
    ratio = (np.abs(spec.psi(s)) + np.abs(spec.phi(s))) / (
        1.0 + np.abs(s) ** spec.r
    )
    tail = abs(spec.gamma)  # |s|->inf limit of |Psi(s)|/|s|^r; Phi is lower order
    return float(max(ratio.max(), tail))


def derivative_growth_constant_scan(spec):
    """Sup of Psi'(s)/(1+|s|^(r-1)) on the same scan, joined with its limit |gamma|*r."""
    s = np.linspace(-100.0, 100.0, 20001)
    ratio = spec.psi_prime(s) / (1.0 + np.abs(s) ** (spec.r - 1.0))
    tail = abs(spec.gamma) * spec.r
    return float(max(ratio.max(), tail))


def sine_product_integral(indices, powers, nodes=1_000_000):
    """Integral over (0,1) of the product of sin(k_j pi x)^p_j.

    Composite midpoint quadrature with `nodes` cells; accurate far below
    1e-9 for small indices and powers.
    """
    x = (np.arange(nodes) + 0.5) / nodes
    prod = np.ones_like(x)
    for k, p in zip(indices, powers):
        prod *= np.sin(k * np.pi * x) ** p
    return float(np.mean(prod))


def drift_quadrature(coeffs, psi, n_modes, nodes=200_001):
    """Per-mode drift b_i = -lambda_i * integral of psi(X) e_i by quadrature.

    X is synthesized by direct summation of the sine series and the
    projections are computed with composite Simpson quadrature; no
    transform code is shared with the package.
    """
    x = np.linspace(0.0, 1.0, nodes)
    X = np.zeros_like(x)
    for k, a_k in enumerate(coeffs, start=1):
        X += a_k * np.sqrt(2.0) * np.sin(k * np.pi * x)
    f = psi(X)
    b = np.empty(n_modes)
    for i in range(1, n_modes + 1):
        e_i = np.sqrt(2.0) * np.sin(i * np.pi * x)
        integral = _simpson(f * e_i, x)
        b[i - 1] = -((i * np.pi) ** 2) * integral
    return b


def _simpson(y, x):
    n = len(x) - 1
    if n % 2 == 1:
        raise ValueError("need an even number of intervals")
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4 * np.sum(y[1:-1:2]) + 2 * np.sum(y[2:-1:2])))


def ou_statistics(lam, q, a0, t, n_samples, seed):
    """Sample the exact transition law of da = -lam a dt + q dB.

    No time discretization: a(t) ~ Normal(a0 e^{-lam t}, q^2 (1 -
    e^{-2 lam t}) / (2 lam)).  Returns (empirical mean factor,
    empirical variance) over n_samples draws.
    """
    rng = np.random.default_rng(seed)
    mean = a0 * np.exp(-lam * t)
    var = q * q * (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)
    samples = mean + np.sqrt(var) * rng.standard_normal(n_samples)
    factor = np.mean(samples) / a0 if a0 != 0 else np.nan
    return float(factor), float(np.var(samples, ddof=1))


def ou_exact_moments(lam, q, a0, t):
    """Exact mean and variance of the scalar linear SDE at time t."""
    mean = a0 * np.exp(-lam * t)
    var = q * q * (1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam)
    return float(mean), float(var)


def comparison_ode_reference(c1, c2, r, h0, t_grid):
    """High-accuracy scipy reference for h' = -c2 h^((r+1)/2) + c1."""
    p = (r + 1.0) / 2.0
    sol = solve_ivp(
        lambda _, h: -c2 * max(h[0], 0.0) ** p + c1,
        (t_grid[0], t_grid[-1]),
        [h0],
        t_eval=t_grid,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    return sol.y[0]


def post_burn_in_mean_se(series, sample_times, burn_in):
    """Mean and standard error of per-trajectory time averages after burn_in.

    `series` holds one (n_traj, n_times) array per initial preset; each
    trajectory of each preset contributes one time average.
    """
    keep = np.asarray(sample_times) > burn_in
    averages = np.concatenate([np.mean(x[:, keep], axis=1) for x in series])
    return float(np.mean(averages)), float(np.std(averages, ddof=1) / np.sqrt(len(averages)))


def estimate_invariant(samples, burn_in):
    """Per-functional invariant-measure estimates (mean, std_err) of an ensemble."""
    return {
        name: post_burn_in_mean_se(
            [fv[:, :, fi] for fv in samples.func_values.values()],
            samples.sample_times, burn_in,
        )
        for fi, name in enumerate(samples.functionals)
    }


def moment_doubling_check(samples, doubled_samples, burn_in):
    """The invariant moment of |X|^(r+1): (estimate, std_err, stable).

    stable says whether the estimate of a second ensemble, run at doubled
    mode count, lies within 10% of it.
    """
    mean, se = post_burn_in_mean_se(samples.lrp1.values(), samples.sample_times, burn_in)
    mean2, _ = post_burn_in_mean_se(
        doubled_samples.lrp1.values(), doubled_samples.sample_times, burn_in
    )
    return mean, se, bool(abs(mean2 - mean) / max(abs(mean), 1e-300) < 0.10)


def h_trace_extrapolated(n=2000):
    """sum_i q_i^2 / lambda_i for q_i = 1/i, lambda_i = (i pi)^2, n -> inf.

    Partial sums carry a c/n^3 tail; one Richardson step against the
    doubled truncation removes it to O(n^-4), far below 1e-9.
    """

    def partial(m):
        i = np.arange(1, m + 1, dtype=float)
        return float(np.sum(1.0 / (i * i * (i * np.pi) ** 2)))

    s_n, s_2n = partial(n), partial(2 * n)
    return s_2n + (s_2n - s_n) / 7.0


CASES = (
    OracleCase("eta cubic", ("s^3", 3.0), 0.25, 1e-3,
               "minimum of (s^2+st+t^2)/(s-t)^2 is 1/4 at t = -s"),
    OracleCase("eta cubic scaling", ("2s^3", 3.0), 0.50, 2e-3,
               "eta scales linearly with the leading coefficient"),
    OracleCase("sin^4 integral", ((1,), (4,)), 0.375, 1e-9, "analytic 3/8"),
    OracleCase("sin3 sin^3 integral", ((3, 1), (1, 3)), -0.125, 1e-9,
               "analytic -1/8"),
    OracleCase("sin2 sin^3 integral", ((2, 1), (1, 3)), 0.0, 1e-9, "parity"),
    OracleCase("comparison ODE", (0.0, 1.0, 3.0, 1.0), 0.5, 1e-6,
               "h' = -h^2 gives h(t) = 1/(1+t)"),
    OracleCase("noise trace", ("q_i = 1/i",), np.pi**2 / 90.0, 1e-9,
               "zeta(4)/pi^2"),
)
