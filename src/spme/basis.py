"""Dirichlet Laplacian eigenbasis on (0,1): spectral transforms and norms.

The operator is L e_k = -lambda_k e_k with lambda_k = (k*pi)^2 and
e_k(x) = sqrt(2) sin(k*pi*x), the L^2-normalized eigenfunctions.
Fields are represented either by their first `n_modes` eigencoefficients
a_k = <X, e_k> or by point values on a uniform midpoint grid on (0,1).
Both representations and all norms here are exact up to rounding for
band-limited fields; the only quadrature is the composite midpoint rule.
"""

import importlib.util
import os
from dataclasses import dataclass, field
from importlib.machinery import PathFinder

import numpy as np


def _load_pocketfft():
    """scipy's compiled pocketfft binding, loaded from its file.

    `from scipy.fft._pocketfft.pypocketfft import dst` would first run the
    `__init__` of scipy and scipy.fft, which import scipy's array-API layer
    and scipy.special: about 0.26 s at every start-up, for an extension that
    loads in under a millisecond.  Loading the file directly skips those
    packages, imports nothing into `sys.modules` and gives the same function.
    scipy stays a runtime dependency, for this compiled kernel.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed; spme needs its pocketfft extension")
    dirs = [os.path.join(d, "fft", "_pocketfft") for d in scipy_spec.submodule_search_locations]
    spec = PathFinder.find_spec("pypocketfft", dirs)
    if spec is None:
        raise ImportError(f"scipy's pypocketfft extension not found in {os.pathsep.join(dirs)}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The pocketfft binding that scipy.fft.dst ends in.  Calling it directly,
# positionally as dst(x, type, axes, inorm, out, nthreads, ortho), skips
# the backend dispatch and argument handling paid on every call, which
# on a single 512-point row cost about as much as the transform itself.
# tests/test_basis.py pins its output to scipy.fft.dst's, byte for byte,
# and tests/test_imports.py checks that spme imports no scipy package.
dst = _load_pocketfft().dst

_SYNTH_SCALE = np.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class OperatorSpec:
    """Truncated spectrum of the Dirichlet Laplacian plus its quadrature grid.

    Immutable after construction; safe to share across workers.
    """

    n_modes: int
    grid_size: int
    eigenvalues: np.ndarray = field(init=False, repr=False)
    neg_eigenvalues: np.ndarray = field(init=False, repr=False)  # -lambda_k, L's spectrum
    analyze_scale: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        if self.grid_size < self.n_modes:
            raise ValueError("grid_size must be at least n_modes")
        k = np.arange(1, self.n_modes + 1)
        object.__setattr__(self, "eigenvalues", (k * np.pi) ** 2)
        object.__setattr__(self, "neg_eigenvalues", -self.eigenvalues)
        # DST-II with midpoint quadrature weight 1/grid_size: midpoint nodes
        # avoid the boundary and make the discrete sine basis exactly
        # orthonormal under these weights
        object.__setattr__(self, "analyze_scale", np.sqrt(2.0) / (2.0 * self.grid_size))

    def eigenvalue(self, k):
        """lambda_k = (k*pi)^2 for 1 <= k <= n_modes."""
        if not 1 <= k <= self.n_modes:
            raise IndexError(f"mode index {k} outside 1..{self.n_modes}")
        return float(self.eigenvalues[k - 1])

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
        # The fresh buffer is transformed in place.  Scaling it in place
        # too and returning it measured 11% more peak RSS on a 500-row
        # ensemble, at the same peak of live arrays: an allocator effect.
        dst(pad, 3, (-1,), 0, pad, 1, None)
        return pad * _SYNTH_SCALE

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
        # only the first n_modes outputs are scaled
        coeffs = dst(v, 2, (-1,), 0, None, 1, None)[..., : self.n_modes]
        return coeffs * self.analyze_scale

    # The norms call np.add.reduce, the reduction np.sum and np.mean run,
    # without their Python wrappers, which cost about as much as the
    # arithmetic on a 2-row pair; the mean is that sum over the count.

    def h_norm(self, coeffs):
        """Dual-space norm sqrt(sum_k a_k^2 / lambda_k)."""
        a = np.asarray(coeffs, dtype=float)
        lam = self.eigenvalues[: a.shape[-1]]
        return np.sqrt(np.add.reduce(a * a / lam, axis=-1))

    def l2_norm_spectral(self, coeffs):
        """L^2 norm computed from coefficients (Parseval)."""
        a = np.asarray(coeffs, dtype=float)
        return np.sqrt(np.add.reduce(a * a, axis=-1))

    def lp_power(self, values, p):
        """Integral of |X|^p by the composite midpoint rule."""
        if p < 1:
            raise ValueError("p must be at least 1")
        v = np.asarray(values, dtype=float)
        return np.add.reduce(np.abs(v) ** p, axis=-1) / v.shape[-1]

    def dealiasing_ok(self, r):
        """True if the grid resolves degree-r powers of n_modes fields."""
        return self.grid_size >= 2 * (r + 1) * self.n_modes
