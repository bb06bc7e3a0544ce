"""Parametric drift and scale families.

Every family is scalar-parametric.  Drift families are linear in their
parameter, ``a(x, theta) = theta * basis(x)``; scale families are
multiplicative, ``c(x, theta) = theta * profile(x)``.  ``basis`` and
``profile`` are vectorized over the state, and callers write the product
themselves.  Every parameter derivative follows from them, and the
estimation stages use both structures for their closed forms.  Each
family also carries its polynomial form, constant first: ``basis_coef``
for b and ``q_coef`` for q = 1/p(x)^2; other modules read the families as
polynomials through these alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeanRevertLinear",
    "ConstantDrift",
    "LinearDecay",
    "RationalSqrt",
    "ConstantScale",
    "DriftFamily",
    "ScaleFamily",
]


@dataclass(frozen=True)
class MeanRevertLinear:
    """a(x, alpha) = alpha (m - x)."""

    m: float = 1.0

    @property
    def basis_coef(self) -> tuple[float, ...]:
        return (float(self.m), -1.0)

    def basis(self, x):
        return self.m - np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ConstantDrift:
    """a(x, alpha) = alpha."""

    basis_coef = (1.0,)

    def basis(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LinearDecay:
    """a(x, alpha) = -alpha x."""

    basis_coef = (0.0, -1.0)

    def basis(self, x):
        return -np.asarray(x, dtype=float)


@dataclass(frozen=True)
class RationalSqrt:
    """c(x, gamma) = gamma (1 + x^2)^{-1/2}."""

    q_coef = (1.0, 0.0, 1.0)

    def profile(self, x):
        return 1.0 / np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


@dataclass(frozen=True)
class ConstantScale:
    """c(x, gamma) = gamma."""

    q_coef = (1.0,)

    def profile(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


DriftFamily = MeanRevertLinear | ConstantDrift | LinearDecay
ScaleFamily = RationalSqrt | ConstantScale
