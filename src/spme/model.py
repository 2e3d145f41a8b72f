"""Nonlinearity families and their certified structural constants.

Psi(s) = alpha*s + gamma*s*|s|^(r-1) drives the degenerate diffusion;
Phi is a lower-order perturbation.  The coercivity constants (eta, sigma)
of the monotonicity inequality

    (s-t)(Psi(s)-Psi(t)) >= eta*|s-t|^(r+1) + sigma*(s-t)^2

are certified without a scan, as are the growth constants (kappa, c);
the perturbation constants (theta, delta) follow from pointwise
increment bounds on Phi.  The gate checks the hypotheses under which
the decay and contraction experiments are meaningful.
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


@dataclass(frozen=True)
class GateVerdict:
    passed: bool
    exponential_regime: bool
    reasons: tuple


def estimate_eta_sigma(spec):
    """Certify (eta, sigma): sigma = alpha, eta the minimum of

        ((s-t)(Psi(s)-Psi(t)) - sigma*(s-t)^2) / |s-t|^(r+1)

    over the pairs (s, -s), s on a 400-point grid of [-10, 10].  The ratio
    is homogeneous of degree 0 in (s, t) and least at t = -s, where it is
    gamma*2^(1-r); these 400 pairs give the bytes of the minimum over all
    160,000 pairs of the grid, and s - t is never 0 on them.  The
    numerator is (s-t)(P(s)-P(t)) with P = Psi - alpha*s, so that a large
    alpha cannot round P away.  An overflow leaves an eta that is not
    finite, which the gate names; a negative one fails monotonicity.
    """
    sigma = spec.alpha
    power = replace(spec, psi_kind="odd_power", alpha=0.0)
    s = np.linspace(-10.0, 10.0, 400)
    t = s[::-1]
    diff = s - t
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = diff * (power.psi(s) - power.psi(t)) / np.abs(diff) ** (spec.r + 1.0)
    eta = float(ratio.min())
    if eta < 0.0:
        raise AssumptionError(f"monotonicity violated: certified eta = {eta:.3e} < 0")
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
            # gamma*r overflows near gamma = 1e308, eta's ratio for a huge r
            reasons.append(f"certified {f.name} = {value:g} is not finite")
    return GateVerdict(
        passed=not reasons,
        exponential_regime=(not reasons) and constants.sigma > constants.delta,
        reasons=tuple(reasons),
    )


def certify_constants(spec, lambda_1, noise_trace=0.0):
    """Run the full verification pipeline and return (constants, verdict).

    kappa = max(alpha, |gamma|*r) is the supremum of Psi'(s)/(1+|s|^(r-1)),
    monotone in u = |s|^(r-1).  c = |alpha| + |gamma| + c2 bounds
    (|Psi(s)| + |Phi(s)|)/(1+|s|^r) on all of R, as each Phi kind is
    c2-Lipschitz with Phi(0) = 0; with alpha = 0 and Phi = 0 it is the
    least such bound, |gamma|.
    """
    eta, sigma = estimate_eta_sigma(spec)
    theta, delta, c1, c2 = phi_constants(spec, lambda_1)
    constants = AssumptionConstants(
        eta=eta,
        sigma=sigma,
        theta=theta,
        delta=delta,
        kappa=max(spec.alpha, abs(spec.gamma) * spec.r),
        c=abs(spec.alpha) + abs(spec.gamma) + c2,
        c1=c1,
        c2=c2,
    )
    return constants, gate_hypotheses(constants, noise_trace)
