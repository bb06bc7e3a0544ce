"""Parametric drift and scale families, each one its coefficients.

Drift families are linear in their parameter, a(x, alpha) = alpha b(x);
scale families are multiplicative, c(x, gamma) = gamma p(x), and are read
only through the variance c^2 = gamma^2 / q with q = 1/p(x)^2.  b and q
are polynomials, so a family is their coefficients, constant first:
``basis_coef`` (degree <= 1) and ``q_coef`` (degree <= 2).  Other modules
evaluate them with :func:`_horner` or re-expand them; no family evaluates
itself.
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


@dataclass(frozen=True)
class ConstantDrift:
    """a(x, alpha) = alpha."""

    basis_coef = (1.0,)


@dataclass(frozen=True)
class LinearDecay:
    """a(x, alpha) = -alpha x."""

    basis_coef = (0.0, -1.0)


@dataclass(frozen=True)
class RationalSqrt:
    """c(x, gamma) = gamma (1 + x^2)^{-1/2}: q = 1 + x^2."""

    q_coef = (1.0, 0.0, 1.0)


@dataclass(frozen=True)
class ConstantScale:
    """c(x, gamma) = gamma: q = 1."""

    q_coef = (1.0,)


DriftFamily = MeanRevertLinear | ConstantDrift | LinearDecay
ScaleFamily = RationalSqrt | ConstantScale


def _horner(coef, x) -> np.ndarray:
    """sum_i coef[i] x^i as a new array, by Horner's rule in place: for
    finite x bitwise numpy's ``polyval``, which takes the same steps."""
    acc = np.full(np.shape(x), coef[-1], dtype=float)
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc
