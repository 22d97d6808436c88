"""Optional numba (njit) kernel backend.

The kernels below are plain-Python loop implementations of the carried-load
tail pass and the fused scalar root-finder; when numba is importable they
are compiled with ``numba.njit`` on first use (lazy — importing this module
never imports numba), and when it is not, :func:`load_numba_backend`
returns ``None`` so the registry falls back to the reference backend.

Numerics: the loops accumulate the tail sum serially (left to right over
the sorted columns) instead of numpy's pairwise tree, so results differ
from the reference backend only in summation order — well inside the
``1e-10`` equivalence bound the backend contract requires (and the
property-test suite asserts).  The root-finder kernel mirrors
``CommonCapProfile.solve_cap`` exactly: bracket ``[0, upper]`` with the
endpoint residuals ``-target`` and ``prefix[-1] - target``, the Illinois
secant step (midpoint when the secant point is not strictly inside),
residual exit, then bracket update with the halving rule, then width exit,
returning ``high`` on iteration exhaustion.

The undecorated Python functions remain directly callable; the equivalence
tests run them interpreted, so the kernel arithmetic is validated even on
machines (like the no-numba CI lane) where the JIT path cannot execute.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["NumbaBackend", "load_numba_backend", "numba_available",
           "numba_version"]


# --------------------------------------------------------------------------- #
# Kernels (plain Python; njit-compiled when numba is present)
# --------------------------------------------------------------------------- #
# Each kernel is self-contained (no cross-kernel calls) so the njit
# compilation of one never depends on another being compiled; the saturated
# count is an inlined ``side="right"`` binary search on the sorted
# ``theta_hats``.

def _kernel_carried_scalar(theta_hats: np.ndarray, alphas: np.ndarray,
                           betas: np.ndarray, prefix: np.ndarray,
                           cap: float) -> float:
    if cap <= 0.0:
        return 0.0
    n = theta_hats.shape[0]
    low = 0
    high = n
    while low < high:
        mid = (low + high) // 2
        if theta_hats[mid] <= cap:
            low = mid + 1
        else:
            high = mid
    total = prefix[low]
    for i in range(low, n):
        # beta = 0: demand 1, also where theta_hat / cap overflows to inf.
        if betas[i] == 0.0:
            total += alphas[i] * cap
        else:
            total += (alphas[i]
                      * math.exp(-betas[i] * (theta_hats[i] / cap - 1.0)) * cap)
    return total


def _kernel_solve_scalar(theta_hats: np.ndarray, alphas: np.ndarray,
                         betas: np.ndarray, prefix: np.ndarray, upper: float,
                         target: float, iterations: int,
                         residual_tolerance: float,
                         width_tolerance: float) -> float:
    n = theta_hats.shape[0]
    low = 0.0
    high = upper
    f_low = -target
    f_high = prefix[n] - target
    side = 0
    for _ in range(iterations):
        cap = low - f_low * (high - low) / (f_high - f_low)
        if not low < cap < high:
            cap = 0.5 * (low + high)
        count_low = 0
        count_high = n
        while count_low < count_high:
            count_mid = (count_low + count_high) // 2
            if theta_hats[count_mid] <= cap:
                count_low = count_mid + 1
            else:
                count_high = count_mid
        value = prefix[count_low]
        for i in range(count_low, n):
            if betas[i] == 0.0:
                value += alphas[i] * cap
            else:
                value += (alphas[i] * math.exp(
                    -betas[i] * (theta_hats[i] / cap - 1.0)) * cap)
        value -= target
        if abs(value) <= residual_tolerance:
            return cap
        if value < 0.0:
            low = cap
            f_low = value
            if side > 0:
                f_high *= 0.5
            side = 1
        else:
            high = cap
            f_high = value
            if side < 0:
                f_low *= 0.5
            side = -1
        if high - low <= width_tolerance:
            return high
    return high


# --------------------------------------------------------------------------- #
# Lazy import / compilation
# --------------------------------------------------------------------------- #
_NUMBA_MODULE: Any = None
_NUMBA_CHECKED = False
_COMPILED: Optional[Tuple[Any, Any]] = None


def _numba_module() -> Any:
    """The ``numba`` module, imported lazily; ``None`` when unavailable."""
    global _NUMBA_MODULE, _NUMBA_CHECKED
    if not _NUMBA_CHECKED:
        _NUMBA_CHECKED = True
        try:
            import numba  # type: ignore[import-not-found]
        except Exception:  # pragma: no cover - depends on the environment
            _NUMBA_MODULE = None
        else:
            _NUMBA_MODULE = numba
    return _NUMBA_MODULE


def numba_available() -> bool:
    """True when numba can be imported in this interpreter."""
    return _numba_module() is not None


def numba_version() -> Optional[str]:
    """The installed numba version string, or ``None``."""
    module = _numba_module()
    return getattr(module, "__version__", None) if module is not None else None


def _compiled_kernels() -> Optional[Tuple[Any, Any]]:
    """The njit-compiled kernel pair (compiled once per process)."""
    global _COMPILED
    if _COMPILED is None:
        module = _numba_module()
        if module is None:
            return None
        njit = module.njit(cache=False, fastmath=False, nogil=True)
        _COMPILED = (njit(_kernel_carried_scalar),
                     njit(_kernel_solve_scalar))
    return _COMPILED


class NumbaBackend:
    """njit-compiled kernels for the sorted-prefix max-min profile."""

    name = "numba"

    def __init__(self, kernels: Tuple[Any, Any]) -> None:
        self._carried_scalar, self._solve = kernels

    def carried_scalar(self, profile: ExponentialMaxMinProfile,
                       cap: float) -> float:
        return float(self._carried_scalar(
            profile._theta_hats, profile._alphas, profile._betas,
            profile._prefix, float(cap)))

    def solve_scalar(self, profile: ExponentialMaxMinProfile,
                     target: float, iterations: int,
                     residual_tolerance: float,
                     width_tolerance: float) -> float:
        return float(self._solve(
            profile._theta_hats, profile._alphas, profile._betas,
            profile._prefix, float(profile.upper), float(target),
            iterations, residual_tolerance, width_tolerance))


def load_numba_backend() -> Optional[NumbaBackend]:
    """A :class:`NumbaBackend`, or ``None`` when numba is not installed."""
    kernels = _compiled_kernels()
    if kernels is None:
        return None
    return NumbaBackend(kernels)
