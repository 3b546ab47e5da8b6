"""Exception types shared across the package."""

from __future__ import annotations


class ShapeError(ValueError):
    """Input has the wrong shape (non-square, asymmetric, width mismatch)."""


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested tolerance.

    ``residual`` is the absolute Frobenius reconstruction residual
    ||V diag(w) V^T - M||_F that failed the check; no partial result is kept.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DegenerateSpectrumError(ValueError):
    """Spectrum too degenerate for the requested statistic (e.g. zero matrix)."""


class RankDeficientError(ValueError):
    """Basis or sketch has fewer usable directions than the requested rank."""


class ZeroMassError(ValueError):
    """Sampler saw no mass (all-zero input stream)."""


class DataFormatError(ValueError):
    """Malformed input file (CSV cell, ragged row, bad snapshot header)."""


class SketchSizeError(ValueError):
    """A covariance error target mu gives no sketch size numpy can hold."""
