"""Dirichlet Laplacian eigenbasis on (0,1): spectral transforms and norms.

The operator is L e_k = -lambda_k e_k with lambda_k = (k*pi)^2 and
e_k(x) = sqrt(2) sin(k*pi*x), the L^2-normalized eigenfunctions.
Fields are represented either by their first `n_modes` eigencoefficients
a_k = <X, e_k> or by point values on a uniform midpoint grid on (0,1).
Both representations and all norms here are exact up to rounding for
band-limited fields; the only quadrature is the composite midpoint rule.
"""

from dataclasses import dataclass, field

import numpy as np

# The kernel that scipy.fft.dst's default backend calls.  Calling it
# directly skips the backend dispatch paid on every call, which on a
# single 512-point row costs about as much as the transform itself.
# tests/test_basis.py pins its output to scipy.fft.dst's, byte for byte.
from scipy.fft._pocketfft import dst


@dataclass(frozen=True)
class OperatorSpec:
    """Truncated spectrum of the Dirichlet Laplacian plus its quadrature grid.

    Immutable after construction; safe to share across workers.
    """

    n_modes: int
    grid_size: int
    eigenvalues: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        if self.grid_size < self.n_modes:
            raise ValueError("grid_size must be at least n_modes")
        k = np.arange(1, self.n_modes + 1)
        object.__setattr__(self, "eigenvalues", (k * np.pi) ** 2)
        # midpoint nodes: avoids the boundary and makes the discrete sine
        # basis exactly orthonormal under the quadrature weights 1/grid_size
        x = (np.arange(self.grid_size) + 0.5) / self.grid_size
        object.__setattr__(self, "nodes", x)

    def eigenvalue(self, k):
        """lambda_k = (k*pi)^2 for 1 <= k <= n_modes."""
        if not 1 <= k <= self.n_modes:
            raise IndexError(f"mode index {k} outside 1..{self.n_modes}")
        return float(self.eigenvalues[k - 1])

    def eigenfunction_values(self, k, grid=None):
        """Point values of e_k(x) = sqrt(2) sin(k*pi*x)."""
        if not 1 <= k <= self.n_modes:
            raise IndexError(f"mode index {k} outside 1..{self.n_modes}")
        x = self.nodes if grid is None else np.asarray(grid, dtype=float)
        return np.sqrt(2.0) * np.sin(k * np.pi * x)

    def synth(self, coeffs):
        """Evaluate the eigen-expansion on the midpoint grid.

        Accepts a trailing-axis coefficient array of length <= n_modes
        (batched leading axes allowed); returns values of shape
        (..., grid_size). Uses a fast sine transform.
        """
        a = np.asarray(coeffs, dtype=float)
        if a.shape[-1] > self.grid_size:
            raise ValueError("coefficient vector longer than grid")
        pad = np.zeros(a.shape[:-1] + (self.grid_size,))
        pad[..., : a.shape[-1]] = a
        # DST-III: y_j = 2 sum_k v_k sin((k+1) pi x_j) + (-1)^j v_{N-1};
        # the last entry is zero-padded so the boundary term vanishes.
        return (np.sqrt(2.0) / 2.0) * dst(pad, type=3, axis=-1)

    def analyze(self, values):
        """Project grid values onto the first n_modes eigenfunctions.

        Inverse of `synth` up to rounding for band-limited input
        (n_modes <= grid_size / 4 leaves ample headroom).
        """
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.grid_size:
            raise ValueError(
                f"expected {self.grid_size} grid values, got {v.shape[-1]}"
            )
        # DST-II with midpoint quadrature weight 1/grid_size; only the
        # first n_modes outputs are scaled
        coeffs = dst(v, type=2, axis=-1)[..., : self.n_modes]
        return coeffs * (np.sqrt(2.0) / (2.0 * self.grid_size))

    def h_norm(self, coeffs):
        """Dual-space norm sqrt(sum_k a_k^2 / lambda_k)."""
        a = np.asarray(coeffs, dtype=float)
        lam = self.eigenvalues[: a.shape[-1]]
        return np.sqrt(np.sum(a * a / lam, axis=-1))

    def l2_norm_spectral(self, coeffs):
        """L^2 norm computed from coefficients (Parseval)."""
        a = np.asarray(coeffs, dtype=float)
        return np.sqrt(np.sum(a * a, axis=-1))

    def lp_norm(self, values, p):
        """L^p norm on (0,1) by the composite midpoint rule."""
        if p < 1:
            raise ValueError("p must be at least 1")
        v = np.asarray(values, dtype=float)
        return np.mean(np.abs(v) ** p, axis=-1) ** (1.0 / p)

    def lp_power(self, values, p):
        """Integral of |X|^p, i.e. lp_norm**p without the root."""
        if p < 1:
            raise ValueError("p must be at least 1")
        v = np.asarray(values, dtype=float)
        return np.mean(np.abs(v) ** p, axis=-1)

    def inv_l_coeffs(self, coeffs):
        """Apply L^{-1} spectrally: a_k -> -a_k / lambda_k."""
        a = np.asarray(coeffs, dtype=float)
        return -a / self.eigenvalues[: a.shape[-1]]

    def apply_l_coeffs(self, coeffs):
        """Apply L spectrally: a_k -> -lambda_k a_k."""
        a = np.asarray(coeffs, dtype=float)
        return -a * self.eigenvalues[: a.shape[-1]]

    def dealiasing_ok(self, r):
        """True if the grid resolves degree-r powers of n_modes fields."""
        return self.grid_size >= 2 * (r + 1) * self.n_modes


def dirichlet_laplacian(n_modes, grid_size=None, r=3.0):
    """Build an OperatorSpec with a grid satisfying the dealiasing policy.

    If grid_size is omitted, the smallest power-of-two grid with at least
    2*(r+1)*n_modes cells is chosen.
    """
    if grid_size is None:
        target = int(np.ceil(2 * (r + 1) * n_modes))
        grid_size = 1 << int(np.ceil(np.log2(target)))
    return OperatorSpec(n_modes=n_modes, grid_size=grid_size)
