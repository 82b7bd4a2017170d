"""Factor base classes.

A :class:`Factor` connects a set of variable nodes and contributes a block
row to the linear system ``A delta = b`` (Fig. 4).  Concrete factors
implement :meth:`Factor.unwhitened_error` and, optionally, analytic
Jacobians via :meth:`Factor.jacobians`; the default falls back to central
finite differences, which every analytic implementation is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import LinearizationError
from repro.factorgraph.keys import Key
from repro.factorgraph.linear import GaussianFactor
from repro.factorgraph.noise import NoiseModel, Unit
from repro.factorgraph.values import Values, retract_value


class Factor:
    """A measurement or constraint over ``keys`` with a Gaussian noise model.

    Parameters
    ----------
    keys:
        The variable nodes this factor connects, in Jacobian-block order.
    noise:
        Noise model whose dimension equals the residual dimension.

    Factors are immutable once constructed: keys, measurements and noise
    model never change.  A compiled solve session
    (:class:`~repro.optim.compiled.CompiledSolver`) relies on this when
    it resolves a factor's constants once and reuses them while the
    same factor object comes back.  The one exception is the weight of
    a :class:`~repro.factorgraph.robust.RobustNoiseModel`, which follows
    the last residual it whitened; the session re-reads it every solve.
    """

    def __init__(self, keys: Sequence[Key], noise: NoiseModel):
        if len(set(keys)) != len(keys):
            raise LinearizationError(f"duplicate keys in factor: {list(keys)}")
        self._keys: List[Key] = list(keys)
        self._noise = noise

    @property
    def keys(self) -> List[Key]:
        return list(self._keys)

    @property
    def noise(self) -> NoiseModel:
        return self._noise

    @property
    def dim(self) -> int:
        """Residual dimension (the factor's block-row height)."""
        return self._noise.dim

    # ------------------------------------------------------------------
    # To be provided by concrete factors
    # ------------------------------------------------------------------
    def unwhitened_error(self, values: Values) -> np.ndarray:
        """Raw residual ``f(x)`` of Equ. 1, before noise whitening."""
        raise NotImplementedError

    def jacobians(self, values: Values) -> Optional[List[np.ndarray]]:
        """Analytic Jacobian blocks in key order, or None for numeric."""
        return None

    # ------------------------------------------------------------------
    # Provided machinery
    # ------------------------------------------------------------------
    def error(self, values: Values) -> float:
        """Squared whitened error contribution ``0.5 ||W f(x)||^2``."""
        whitened = self._noise.whiten(self.unwhitened_error(values))
        return 0.5 * float(whitened @ whitened)

    def linearize(self, values: Values) -> GaussianFactor:
        """Whitened Jacobian blocks and RHS at the current estimate.

        Returns the Gaussian factor ``||A delta - b||^2`` with
        ``b = -W f(x)`` so that the Gauss-Newton step solves
        ``A delta = b``.
        """
        residual = np.asarray(self.unwhitened_error(values), dtype=float)
        if residual.shape != (self.dim,):
            raise LinearizationError(
                f"{type(self).__name__} produced residual shape {residual.shape}, "
                f"expected ({self.dim},)"
            )
        blocks = self.jacobians(values)
        if blocks is None:
            blocks = [
                numerical_jacobian(self, values, k) for k in self._keys
            ]
        if len(blocks) != len(self._keys):
            raise LinearizationError(
                f"{type(self).__name__} returned {len(blocks)} Jacobian blocks "
                f"for {len(self._keys)} keys"
            )
        whitened_blocks = {}
        for k, block in zip(self._keys, blocks):
            block = np.asarray(block, dtype=float)
            expected = (self.dim, values.dim(k))
            if block.shape != expected:
                raise LinearizationError(
                    f"{type(self).__name__} Jacobian for {k} has shape "
                    f"{block.shape}, expected {expected}"
                )
            whitened_blocks[k] = self._noise.whiten_jacobian(block)
        rhs = -self._noise.whiten(residual)
        return GaussianFactor(self._keys, whitened_blocks, rhs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ", ".join(str(k) for k in self._keys)
        return f"{type(self).__name__}({keys})"


def numerical_jacobian(
    factor: Factor, values: Values, key: Key, step: float = 1e-6
) -> np.ndarray:
    """Central finite-difference Jacobian of a factor w.r.t. one variable."""
    base_value = values.at(key)
    dim = values.dim(key)
    jacobian = np.zeros((factor.dim, dim))
    for i in range(dim):
        delta = np.zeros(dim)
        delta[i] = step
        plus = values.copy()
        plus.update(key, retract_value(base_value, delta))
        minus = values.copy()
        minus.update(key, retract_value(base_value, -delta))
        jacobian[:, i] = (
            factor.unwhitened_error(plus) - factor.unwhitened_error(minus)
        ) / (2.0 * step)
    return jacobian


class FunctionFactor(Factor):
    """A factor defined by a plain Python error callable.

    Useful for quick prototyping and in tests; production factors live in
    :mod:`repro.factors` and carry analytic Jacobians.
    """

    def __init__(self, keys, noise: NoiseModel, fn, jac_fn=None):
        super().__init__(keys, noise)
        self._fn = fn
        self._jac_fn = jac_fn

    def unwhitened_error(self, values: Values) -> np.ndarray:
        return np.asarray(self._fn(values), dtype=float)

    def jacobians(self, values: Values):
        if self._jac_fn is None:
            return None
        return self._jac_fn(values)


def prior_on_vector(key: Key, target: np.ndarray, sigma: float = 1.0) -> Factor:
    """Convenience: a unit-Jacobian prior pulling a vector variable to target."""
    target = np.asarray(target, dtype=float)
    dim = target.shape[0]

    def fn(values: Values) -> np.ndarray:
        return values.vector(key) - target

    def jac(values: Values):
        return [np.eye(dim)]

    from repro.factorgraph.noise import Isotropic

    return FunctionFactor([key], Isotropic(dim, sigma), fn, jac)
