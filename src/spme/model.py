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

from dataclasses import dataclass, field, fields, replace

import numpy as np

PSI_KINDS = ("odd_power", "linear_plus_odd_power")
PHI_KINDS = ("zero", "scaled_identity", "bounded_lipschitz")


class AssumptionError(ValueError):
    """A structural hypothesis failed a numerical certificate."""


@dataclass(frozen=True)
class Nonlinearity:
    """Psi/Phi pair with growth exponent r > 1.

    alpha is the linear coefficient of Psi (0 for pure odd_power),
    gamma the coefficient of the superlinear term s*|s|^(r-1).
    beta parametrizes the Phi kinds.
    """

    r: float = 3.0
    psi_kind: str = "odd_power"
    alpha: float = 0.0
    gamma: float = 1.0
    phi_kind: str = "zero"
    beta: float = 0.0
    # Psi(s) = s^3, the pure cubic: psi and psi_prime take exact fast paths
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
        for name in ("alpha", "gamma", "beta"):
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
        if self.cubic and s.ndim:
            # on arrays the general formula gives the same bytes, bar the
            # sign bit of a NaN input (abs clears it): |s|**2.0 is s*s
            # there, and adding 0 to the nonnegative 3*s*s changes nothing.
            # A 0-d s keeps the general formula, whose scalar rounding
            # couple.csv pins.
            return 3.0 * (s * s)
        return self.alpha + self.gamma * self.r * np.abs(s) ** (self.r - 1.0)

    def phi(self, s):
        s = np.asarray(s, dtype=float)
        if self.phi_kind == "zero":
            return np.zeros_like(s)
        if self.phi_kind == "scaled_identity":
            return self.beta * s
        return self.beta * np.tanh(s)

    @property
    def phi_is_zero(self):
        return self.phi_kind == "zero" or self.beta == 0.0


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


def estimate_eta_sigma(spec):
    """Certify (eta, sigma) by dense-grid minimization.

    sigma is taken to be the linear coefficient alpha (all linearity is
    folded there); eta is the infimum over pairs s != t of a 400-point
    grid on [-10, 10] of

        ((s-t)(Psi(s)-Psi(t)) - sigma*(s-t)^2) / |s-t|^(r+1).

    The numerator is evaluated as (s-t)(P(s)-P(t)) with P = Psi - alpha*s,
    the superlinear part: subtracting the linear part after the fact
    would lose P to rounding once alpha is large.
    A negative infimum means the monotonicity assumption fails.
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


def phi_constants(spec, lambda_1):
    """Increment constants (c1, c2) of Phi and the derived (theta, delta).

    They bound |Phi(s) - Phi(t)| <= c1|s-t|^r + c2|s-t|, and theta is c1
    times (r+1)/(2*lambda_1), a bound on the L^(r+1) norm of L^{-1}.
    Every Phi kind is globally Lipschitz with constant |beta| (0 for zero
    Phi), so c1 = theta = 0, c2 = |beta| and delta = c2/lambda_1.
    """
    c2 = 0.0 if spec.phi_kind == "zero" else abs(spec.beta)
    return 0.0, c2 / lambda_1, 0.0, c2


def growth_constant(spec):
    """Smallest c with |Psi(s)| + |Phi(s)| <= c(1+|s|^r) on a wide grid.

    The built-in kinds have ratio tending to |alpha spillover| + |gamma|
    at infinity, so the grid supremum together with the asymptotic value
    certifies the global constant.
    """
    s = np.linspace(-100.0, 100.0, 20001)
    ratio = (np.abs(spec.psi(s)) + np.abs(spec.phi(s))) / (
        1.0 + np.abs(s) ** spec.r
    )
    tail = abs(spec.gamma)  # |s|->inf limit of |Psi(s)|/|s|^r; Phi is lower order
    return float(max(ratio.max(), tail))


def derivative_growth_constant(spec):
    """Smallest kappa with Psi'(s) <= kappa(1+|s|^(r-1)) on a wide grid."""
    s = np.linspace(-100.0, 100.0, 20001)
    ratio = spec.psi_prime(s) / (1.0 + np.abs(s) ** (spec.r - 1.0))
    tail = abs(spec.gamma) * spec.r
    return float(max(ratio.max(), tail))


def gate_hypotheses(constants, noise_trace):
    """Check the hypotheses behind the decay/contraction/ergodicity bounds.

    Pass requires eta > theta, sigma >= delta, a finite noise trace and
    finite certified constants; r > 1 holds for every Nonlinearity.  The
    strict inequality sigma > delta enables the exponential convergence
    regime.
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
    if not np.isfinite(noise_trace):
        reasons.append("noise trace diverges")
    for f in fields(constants):
        value = getattr(constants, f.name)
        if not np.isfinite(value):
            # the growth scans overflow at |s| = 100 for a large gamma or r
            reasons.append(f"certified {f.name} = {value:g} is not finite")
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
    return constants, gate_hypotheses(constants, noise_trace)
