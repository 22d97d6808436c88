"""The reference (pure numpy) kernel backend.

The numerical baseline the other backends are compared against.  It has
one primitive, the carried-load tail pass of
:class:`repro.network.equilibrium.ExponentialMaxMinProfile` (an
``out=``-kernel sequence reduced with ``np.add.reduce``, numpy's
pairwise-summation tree), and no fused root-finder:
``CommonCapProfile.solve_cap`` drives it directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["ReferenceBackend", "reference_backend"]


class ReferenceBackend:
    """Vectorised numpy kernels; the numerical baseline of the repo."""

    name = "reference"

    #: No fused root-finder: ``CommonCapProfile.solve_cap`` drives
    #: :meth:`carried_scalar` directly.
    solve_scalar = None

    def carried_scalar(self, profile: ExponentialMaxMinProfile,
                       cap: float) -> float:
        """Carried load at one cap: prefix lookup plus the congested tail.

        The congestion tail (``theta > cap``) cannot overflow ``exp``
        (exponents are non-positive; underflow is ignored by default); only
        ``theta_hat / cap`` can overflow, at subnormal caps, to ``inf``.
        """
        if cap <= 0.0:
            return 0.0
        theta_hats = profile._theta_hats
        count = theta_hats.searchsorted(cap, side="right")
        saturated = profile._prefix[count]
        if count == profile.size:
            return float(saturated)
        # Same arithmetic as the expression form — ``theta/cap - 1`` then
        # ``alpha * exp(-beta * congestion) * cap`` — evaluated through
        # ``out=`` kernels into one contiguous buffer; ``np.add.reduce`` is
        # the reduction ``ndarray.sum`` itself dispatches to, so the pairwise
        # summation tree (and every bit of the result) is unchanged.
        buffer = profile._scratch[count:]
        if cap < profile._overflow_cap:
            with np.errstate(over="ignore"):
                np.divide(theta_hats[count:], cap, out=buffer)
            # An overflowed ratio with beta = 0 would make the exponent
            # -0 * inf = nan; that provider's demand is 1 at every cap.
            buffer[profile._betas[count:] == 0.0] = 1.0
        else:
            np.divide(theta_hats[count:], cap, out=buffer)
        np.subtract(buffer, 1.0, out=buffer)
        np.multiply(profile._neg_betas[count:], buffer, out=buffer)
        np.exp(buffer, out=buffer)
        np.multiply(profile._alphas[count:], buffer, out=buffer)
        np.multiply(buffer, cap, out=buffer)
        return float(saturated + np.add.reduce(buffer))


_REFERENCE = ReferenceBackend()


def reference_backend() -> ReferenceBackend:
    """The process-wide reference backend singleton."""
    return _REFERENCE
