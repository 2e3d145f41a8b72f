"""Constant (additive) noise: coefficient profiles and reproducible streams.

The driving noise acts mode-wise: mode i receives q_i * dB^i for
independent scalar Brownian motions B^i.  Streams are counter-based
(Philox) and keyed by (master_seed, stream_id), so every trajectory's
noise is reproducible independently of scheduling.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

PROFILES = ("zero", "diagonal_power", "explicit_diagonal")


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
        tail = spec.c**2 / np.pi**2 * float(zeta(2 * spec.a + 2, n + 1))
        return head + tail
    return head


class NoiseStream:
    """Reproducible Gaussian stream keyed by (master_seed, stream_id)."""

    def __init__(self, spec, stream_id=0):
        self.spec = spec
        self.stream_id = int(stream_id)
        bitgen = np.random.Philox(key=[spec.master_seed & (2**64 - 1), self.stream_id])
        self._rng = np.random.Generator(bitgen)

    def normals(self, shape):
        return self._rng.standard_normal(shape)


def sample_increment_block(spec, n_modes, dt, stream, count):
    """(count, n_modes) block of consecutive increments from one stream."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    xi = stream.normals((count, n_modes))
    # xi is scaled by sqrt(dt) before q: the recorded artifacts pin this order
    return spec.q_vector(n_modes) * (xi * np.sqrt(dt))
