"""The kernel-backend protocol of the solver stack.

A :class:`KernelBackend` supplies the two numerical primitives behind the
Theorem-1 cap root-finder on the sorted-``theta_hat`` prefix structure of
:class:`repro.network.equilibrium.ExponentialMaxMinProfile`:

* the **carried-load tail pass** (:meth:`KernelBackend.carried_scalar`) —
  the work-conservation LHS at one throughput cap: prefix lookup for the
  saturated providers plus the exponential-demand tail of Equation (3);
* optionally a **fused scalar root-finder** (``solve_scalar``) — the entire
  multi-iteration solve of one capacity target in a single kernel call,
  mirroring ``CommonCapProfile.solve_cap``'s bracket, Illinois update
  order and stopping rules.

Backends receive the profile object itself and read its sorted column
arrays (``_theta_hats``, ``_alphas``, ``_betas``, ``_neg_betas``,
``_prefix``, ``_scratch``); the profile is immutable after construction, so
a backend may precompute or reuse whatever it likes per call.

The ``reference`` backend is the numpy implementation that previously lived
inside the profile class and is bit-identical to it; the optional ``numba``
backend JIT-compiles the same arithmetic (agreeing to well below ``1e-10``)
and degrades gracefully to reference when numba is not installed.  Select a
backend with :class:`repro.backends.SolverConfig` or the ``REPRO_BACKEND``
environment variable.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Optional, Protocol,
                    runtime_checkable)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["KernelBackend"]


@runtime_checkable
class KernelBackend(Protocol):
    """Numerical kernels for the max-min + exponential-demand profile.

    Implementations must be pure functions of the profile's arrays and the
    cap argument(s): two backends may differ in summation order (and hence
    in the last float bits) but must agree to ``<= 1e-10`` relative — the
    property-test suite in ``tests/backends`` asserts this.
    """

    #: Stable backend identifier used in cache keys and solver provenance.
    name: str

    @property
    def solve_scalar(self) -> Optional[Callable[..., float]]:
        """Fused scalar root-finder, or ``None`` for no fused path.

        When ``None`` the profile runs the generic ``solve_cap`` loop over
        :meth:`carried_scalar`.  Signature when present::

            solve_scalar(profile, target, iterations,
                         residual_tolerance, width_tolerance) -> float

        with the same bracket ``[0, profile.upper]``, the same endpoint
        residuals, the same Illinois update order and the same
        residual/width stopping rules as ``CommonCapProfile.solve_cap``
        (guards for empty/uncongested/zero targets are handled by the
        caller).  Declared as a read-only property so a plain
        ``solve_scalar = None`` class attribute and a bound method both
        satisfy the protocol structurally.
        """
        ...

    def carried_scalar(self, profile: "ExponentialMaxMinProfile",
                       cap: float) -> float:
        """Per-capita carried load at a single throughput cap."""
        ...
