"""Spectral Galerkin simulation and verification for a generalized
stochastic porous medium equation on the unit interval."""

__version__ = "0.1.0"
