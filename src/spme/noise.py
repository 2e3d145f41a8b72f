"""Constant (additive) noise: coefficient profiles and reproducible streams.

The driving noise acts mode-wise: mode i receives q_i * dB^i for
independent scalar Brownian motions B^i.  Streams are counter-based
(Philox) and keyed by (master_seed, stream_id), so every trajectory's
noise is reproducible independently of scheduling.
"""

from dataclasses import dataclass

import numpy as np

PROFILES = ("zero", "diagonal_power", "explicit_diagonal")

# Coefficients (2k)!/B_2k of the Euler-Maclaurin remainder, from cephes zeta.c
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


@dataclass(frozen=True)
class NoiseSpec:
    """Noise coefficient profile plus the master RNG seed.

    diagonal_power: q_i = c * i**(-a).
    explicit_diagonal: q given as a vector.
    """

    profile: str = "zero"
    c: float = 0.0
    a: float = 0.0
    q: np.ndarray = None
    master_seed: int = 0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown noise profile {self.profile!r}")
        if self.profile == "diagonal_power" and (self.c < 0 or self.a < 0):
            raise ValueError("diagonal_power requires c >= 0 and a >= 0")
        if self.profile == "explicit_diagonal":
            q = np.asarray(self.q, dtype=float)
            if q.ndim != 1 or not np.all(np.isfinite(q)):
                raise ValueError("explicit_diagonal requires a finite vector")
            object.__setattr__(self, "q", q)

    def q_vector(self, n_modes):
        """Per-mode amplitudes q_i for i <= n_modes (truncated profile)."""
        if self.profile == "zero":
            return np.zeros(n_modes)
        if self.profile == "diagonal_power":
            i = np.arange(1, n_modes + 1, dtype=float)
            return self.c * i ** (-self.a)
        out = np.zeros(n_modes)
        m = min(n_modes, len(self.q))
        out[:m] = self.q[:m]
        return out

    @property
    def is_zero(self):
        if self.profile == "zero":
            return True
        if self.profile == "diagonal_power":
            return self.c == 0.0
        return not np.any(self.q)


def trace(spec, operator):
    """The quantity sum_i q_i^2 / lambda_i (finite for all built-in profiles).

    For diagonal_power the sum over the retained modes is completed by the
    exact analytic tail c^2/pi^2 * zeta_H(2a+2, n+1); for an explicit
    profile the sum is finite.  Returns inf if a future profile ever
    diverges.
    """
    n = operator.n_modes
    qv = spec.q_vector(n)
    head = float(np.sum(qv**2 / operator.eigenvalues))
    if spec.profile == "diagonal_power" and spec.c > 0:
        tail = spec.c**2 / np.pi**2 * _hurwitz_zeta(float(2 * spec.a + 2), n + 1.0)
        return head + tail
    return head


def _hurwitz_zeta(x, q):
    """Hurwitz zeta sum_{k>=0} (k + q)^-x for real x > 1 and q > 0.

    An operation-for-operation copy of the Euler-Maclaurin routine of
    cephes (S. L. Moshier, 1989) that scipy.special.zeta runs here, so the
    trace keeps its bytes without importing scipy.special, which costs
    about 0.2 s at start-up.  One deliberate difference: once q^-x
    underflows every term does, and this returns 0.0 where the C code
    divides 0/0 and, for x above about 2.5e13, returns NaN.
    """
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q**-x
    if s == 0.0:
        return 0.0
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


class NoiseStream:
    """Reproducible Gaussian stream keyed by (master_seed, stream_id)."""

    def __init__(self, spec, stream_id=0):
        # a uint64 array: from a list, NumPy makes seeds of 2**63 and up
        # float64, and neighbouring seeds share a key
        key = np.array([spec.master_seed & (2**64 - 1), int(stream_id)], dtype=np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key))

    def normals(self, shape=None, out=None):
        return self._rng.standard_normal(shape, out=out)


def sample_increment_block(spec, n_modes, dt, stream, out):
    """Fill `out`, a C-contiguous (count, n_modes) array, with the next count
    increments of one stream, and return it."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    stream.normals(out=out)
    # each entry is q * (xi * sqrt(dt)), with those two roundings: the
    # recorded artifacts pin the order
    out *= np.sqrt(dt)
    out *= spec.q_vector(n_modes)
    return out
