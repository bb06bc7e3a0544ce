"""Parametric drift and scale families.

Every family is scalar-parametric and exposes ``value``, vectorized over
the state.  Drift families are linear in their parameter,
``a(x, theta) = theta * basis(x)``; scale families are multiplicative,
``c(x, theta) = theta * profile(x)``.  Every parameter derivative follows
from ``basis``/``profile``, and the estimation stages use both structures
for their closed forms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "MeanRevertLinear",
    "ConstantDrift",
    "LinearDecay",
    "RationalSqrt",
    "ConstantScale",
    "DriftFamily",
    "ScaleFamily",
    "family_to_obj",
    "family_from_obj",
]


@dataclass(frozen=True)
class MeanRevertLinear:
    """a(x, alpha) = alpha (m - x)."""

    m: float = 1.0
    name = "mean_revert_linear"

    def basis(self, x):
        return self.m - np.asarray(x, dtype=float)

    def value(self, x, alpha):
        return alpha * self.basis(x)


@dataclass(frozen=True)
class ConstantDrift:
    """a(x, alpha) = alpha."""

    name = "constant_drift"

    def basis(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def value(self, x, alpha):
        return alpha * self.basis(x)


@dataclass(frozen=True)
class LinearDecay:
    """a(x, alpha) = -alpha x."""

    name = "linear_decay"

    def basis(self, x):
        return -np.asarray(x, dtype=float)

    def value(self, x, alpha):
        return alpha * self.basis(x)


@dataclass(frozen=True)
class RationalSqrt:
    """c(x, gamma) = gamma (1 + x^2)^{-1/2}."""

    name = "rational_sqrt"

    def profile(self, x):
        return 1.0 / np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)

    def value(self, x, gamma):
        return gamma * self.profile(x)


@dataclass(frozen=True)
class ConstantScale:
    """c(x, gamma) = gamma."""

    name = "constant_scale"

    def profile(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def value(self, x, gamma):
        return gamma * self.profile(x)


DriftFamily = MeanRevertLinear | ConstantDrift | LinearDecay
ScaleFamily = RationalSqrt | ConstantScale

_BY_NAME = {
    cls.name: cls for cls in (MeanRevertLinear, ConstantDrift, LinearDecay, RationalSqrt, ConstantScale)
}


def family_to_obj(fam: DriftFamily | ScaleFamily) -> dict:
    return {"family": fam.name, "params": asdict(fam)}


def family_from_obj(obj: dict) -> DriftFamily | ScaleFamily:
    return _BY_NAME[obj["family"]](**obj.get("params", {}))
