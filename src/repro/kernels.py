"""Contract stubs for ``benchmarks/e2e``.

The numpy batch kernels (:mod:`repro.align.batch`, :mod:`repro.core.batch`)
are the one fast path; there is no kernel tier to choose.  The frozen
benchmark drive still stamps ``resolve_kernel_tier(...)`` and
``native_available()`` and passes ``kernel_tier=`` to four public
callables, so those names answer with the one tier there is.
"""

from __future__ import annotations

from .errors import KernelError

__all__ = ["native_available", "resolve_kernel_tier"]


def native_available() -> bool:
    """There is no compiled tier."""
    return False


def resolve_kernel_tier(spec: str | None = None) -> str:
    """``"numpy"`` for ``None`` or ``"numpy"``; any other name raises."""
    if spec not in (None, "numpy"):
        raise KernelError(f"unknown kernel tier {spec!r}; the only tier is 'numpy'")
    return "numpy"
