"""Nonlinearity families and their certified structural constants.

Psi(s) = alpha*s + gamma*s*|s|^(r-1) drives the degenerate diffusion;
Phi is a lower-order perturbation.  The coercivity constants (eta, sigma)
of the monotonicity inequality

    (s-t)(Psi(s)-Psi(t)) >= eta*|s-t|^(r+1) + sigma*(s-t)^2

are certified by brute-force grid minimization, and the perturbation
constants (theta, delta) follow from pointwise increment bounds on Phi.
The gate checks the hypotheses under which the decay and contraction
experiments are meaningful.
"""

from dataclasses import dataclass, field

import numpy as np

PSI_KINDS = ("odd_power", "linear_plus_odd_power")
PHI_KINDS = ("zero", "scaled_identity", "bounded_lipschitz", "custom")


class AssumptionError(ValueError):
    """A structural hypothesis failed a numerical certificate."""


@dataclass(frozen=True)
class Nonlinearity:
    """Psi/Phi pair with growth exponent r > 1.

    alpha is the linear coefficient of Psi (0 for pure odd_power),
    gamma the coefficient of the superlinear term s*|s|^(r-1).
    beta parametrizes the built-in Phi kinds; custom Phi supplies a
    callable plus increment constants (c1, c2).
    """

    r: float = 3.0
    psi_kind: str = "odd_power"
    alpha: float = 0.0
    gamma: float = 1.0
    phi_kind: str = "zero"
    beta: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    phi_fn: object = field(default=None, repr=False, compare=False)
    # Psi(s) = s^3, the pure cubic: psi takes the exact fast path s*s*s
    cubic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.r > 1:
            raise ValueError("r must exceed 1")
        if self.psi_kind not in PSI_KINDS:
            raise ValueError(f"unknown psi kind {self.psi_kind!r}")
        if self.phi_kind not in PHI_KINDS:
            raise ValueError(f"unknown phi kind {self.phi_kind!r}")
        if self.psi_kind == "odd_power" and self.alpha != 0.0:
            raise ValueError("odd_power takes no linear coefficient")
        if self.phi_kind == "custom" and self.phi_fn is None:
            raise ValueError("custom phi requires a callable")
        for name in ("alpha", "gamma", "beta", "c1", "c2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(
            self, "cubic", self.r == 3.0 and self.alpha == 0.0 and self.gamma == 1.0
        )

    def psi(self, s):
        s = np.asarray(s, dtype=float)
        if self.cubic:
            # on arrays the general formula gives the same bytes for every
            # finite s: |s|**2.0 is s*s there and adding 0*s keeps the sign
            # of zero.  s = ±inf gives ±inf here and NaN there.
            return s * s * s
        return self.alpha * s + self.gamma * s * np.abs(s) ** (self.r - 1.0)

    def psi_prime(self, s):
        s = np.asarray(s, dtype=float)
        return self.alpha + self.gamma * self.r * np.abs(s) ** (self.r - 1.0)

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        if self.phi_kind == "zero":
            return np.zeros_like(s)
        if self.phi_kind == "scaled_identity":
            return self.beta * s
        if self.phi_kind == "bounded_lipschitz":
            return self.beta * np.tanh(s)
        return np.asarray(self.phi_fn(s), dtype=float)

    @property
    def phi_is_zero(self):
        return self.phi_kind == "zero" or (
            self.phi_kind in ("scaled_identity", "bounded_lipschitz")
            and self.beta == 0.0
        )


@dataclass(frozen=True)
class AssumptionConstants:
    """Certified constants entering the decay and contraction bounds."""

    eta: float
    sigma: float
    theta: float
    delta: float
    kappa: float
    c: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("kappa", "c", "c1", "c2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class GateVerdict:
    passed: bool
    exponential_regime: bool
    reasons: tuple


def estimate_eta_sigma(spec, search_box=(-10.0, 10.0), grid_count=400):
    """Certify (eta, sigma) by dense-grid minimization.

    sigma is taken to be the linear coefficient alpha (all linearity is
    folded there); eta is the infimum over grid pairs s != t of

        ((s-t)(Psi(s)-Psi(t)) - sigma*(s-t)^2) / |s-t|^(r+1).

    A negative infimum means the monotonicity assumption fails.
    """
    if grid_count < 10:
        raise ValueError("grid_count too small for a meaningful certificate")
    if abs(spec.psi(0.0)) > 1e-14:
        raise AssumptionError("Psi(0) must vanish")
    sigma = spec.alpha
    lo, hi = search_box
    s = np.linspace(lo, hi, grid_count)
    S, T = np.meshgrid(s, s, indexing="ij")
    diff = S - T
    mask = np.abs(diff) > 1e-9
    num = diff * (spec.psi(S) - spec.psi(T)) - sigma * diff**2
    ratio = num[mask] / np.abs(diff[mask]) ** (spec.r + 1.0)
    eta = float(ratio.min())
    if eta < -1e-12:
        raise AssumptionError(
            f"monotonicity violated: certified eta = {eta:.3e} < 0"
        )
    return max(eta, 0.0), sigma


def inv_l_norm_bound(r, lambda_1):
    """Upper bound (r+1)/(2*lambda_1) for the L^(r+1) norm of L^{-1}.

    Obtained by integrating the semigroup contraction
    |e^{tL}|_{r+1} <= e^{-2 lambda_1 t/(r+1)} over t >= 0.
    """
    return (r + 1.0) / (2.0 * lambda_1)


def phi_constants(spec, lambda_1, check_points=2000, seed=0):
    """Increment constants of Phi and the derived (theta, delta).

    Built-in kinds carry analytic (c1, c2); custom kinds declare them and
    are spot-checked on random pairs.
    """
    if spec.phi_kind == "zero":
        c1, c2 = 0.0, 0.0
    elif spec.phi_kind in ("scaled_identity", "bounded_lipschitz"):
        c1, c2 = 0.0, abs(spec.beta)
    else:
        c1, c2 = spec.c1, spec.c2
        rng = np.random.default_rng(seed)
        s = rng.uniform(-10, 10, check_points)
        t = rng.uniform(-10, 10, check_points)
        lhs = np.abs(spec.phi(s) - spec.phi(t))
        rhs = c1 * np.abs(s - t) ** spec.r + c2 * np.abs(s - t)
        worst = float(np.max(lhs - rhs))
        if worst > 1e-9:
            raise AssumptionError(
                f"declared increment constants violated by {worst:.3e}"
            )
    theta = c1 * inv_l_norm_bound(spec.r, lambda_1)
    delta = c2 / lambda_1
    return theta, delta, c1, c2


def growth_constant(spec, box_half_width=100.0, grid_count=20001):
    """Smallest c with |Psi(s)| + |Phi(s)| <= c(1+|s|^r) on a wide grid.

    The built-in kinds have ratio tending to |alpha spillover| + |gamma|
    at infinity, so the grid supremum together with the asymptotic value
    certifies the global constant.
    """
    s = np.linspace(-box_half_width, box_half_width, grid_count)
    ratio = (np.abs(spec.psi(s)) + np.abs(spec.phi(s))) / (
        1.0 + np.abs(s) ** spec.r
    )
    tail = abs(spec.gamma)  # |s|->inf limit of |Psi(s)|/|s|^r; Phi is lower order
    return float(max(ratio.max(), tail))


def derivative_growth_constant(spec, box_half_width=100.0, grid_count=20001):
    """Smallest kappa with Psi'(s) <= kappa(1+|s|^(r-1)) on a wide grid."""
    s = np.linspace(-box_half_width, box_half_width, grid_count)
    ratio = spec.psi_prime(s) / (1.0 + np.abs(s) ** (spec.r - 1.0))
    tail = abs(spec.gamma) * spec.r
    return float(max(ratio.max(), tail))


def gate_hypotheses(constants, noise_trace, r=None):
    """Check the hypotheses behind the decay/contraction/ergodicity bounds.

    Pass requires eta > theta, sigma >= delta, r > 1 and a finite noise
    trace.  The strict inequality sigma > delta enables the exponential
    convergence regime.
    """
    reasons = []
    if not constants.eta > constants.theta:
        reasons.append(
            f"eta = {constants.eta:g} does not exceed theta = {constants.theta:g}"
        )
    if not constants.sigma >= constants.delta:
        reasons.append(
            f"sigma = {constants.sigma:g} below delta = {constants.delta:g}"
        )
    if r is not None and not r > 1:
        reasons.append(f"r = {r:g} must exceed 1")
    if not np.isfinite(noise_trace):
        reasons.append("noise trace diverges")
    return GateVerdict(
        passed=not reasons,
        exponential_regime=(not reasons) and constants.sigma > constants.delta,
        reasons=tuple(reasons),
    )


def certify_constants(spec, lambda_1, noise_trace=0.0):
    """Run the full verification pipeline and return (constants, verdict)."""
    eta, sigma = estimate_eta_sigma(spec)
    theta, delta, c1, c2 = phi_constants(spec, lambda_1)
    constants = AssumptionConstants(
        eta=eta,
        sigma=sigma,
        theta=theta,
        delta=delta,
        kappa=derivative_growth_constant(spec),
        c=growth_constant(spec),
        c1=c1,
        c2=c2,
    )
    return constants, gate_hypotheses(constants, noise_trace, r=spec.r)
