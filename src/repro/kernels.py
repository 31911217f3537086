"""Kernel-tier registry: numpy reference kernels vs the compiled C tier.

The batched engines (:mod:`repro.align.batch`, :mod:`repro.core.batch`)
each have two implementations of their dominant inner loop:

* ``numpy`` -- the vectorized reference tier, always available;
* ``native`` -- the C extension under :mod:`repro._native`, compiled
  against the numpy C API by ``python setup.py build_ext --inplace``.

Both tiers are **bit-identical** (the property corpus in
``tests/test_kernels.py`` and the CI kernel smoke enforce element-wise
equality, and full pipeline runs must agree on ``contig_digest()``), so
the tier is a pure throughput knob: it is deliberately *not*
checkpoint-fingerprinted, and an explicit spec wins, otherwise the
``REPRO_KERNEL_TIER`` env var, otherwise ``numpy``.

Resolution degrades gracefully: asking for ``native`` on a host where the
extension is missing or failed to build resolves to ``numpy`` (the
pipeline engine surfaces an observer note when that happens), so the
whole suite runs unchanged on compiler-less environments.
"""

from __future__ import annotations

import os

from .errors import KernelError

__all__ = [
    "KERNEL_TIERS",
    "default_kernel_tier",
    "native_available",
    "native_import_error",
    "resolve_kernel_tier",
    "native_kernels",
]

#: Registered tier names, in documentation order.
KERNEL_TIERS = ("numpy", "native")

# probe state: the native module is imported at most once per process;
# tests monkeypatch these three to force the fallback path
_NATIVE = None
_NATIVE_ERROR: str | None = None
_PROBED = False


def _load_native():
    """The :mod:`repro._native` module when usable, else ``None`` (cached)."""
    global _NATIVE, _NATIVE_ERROR, _PROBED
    if not _PROBED:
        _PROBED = True
        try:
            from . import _native as mod

            if mod.AVAILABLE:
                _NATIVE = mod
            else:
                _NATIVE_ERROR = mod.IMPORT_ERROR or "extension not built"
        except Exception as exc:  # pragma: no cover - defensive
            _NATIVE_ERROR = f"{type(exc).__name__}: {exc}"
    return _NATIVE


def native_available() -> bool:
    """Whether the compiled tier is importable in this process."""
    return _load_native() is not None


def native_import_error() -> str | None:
    """Why the compiled tier is unavailable (``None`` when it is)."""
    _load_native()
    return _NATIVE_ERROR


def default_kernel_tier() -> str:
    """The default tier name; the ``REPRO_KERNEL_TIER`` env var overrides
    it (how CI runs the whole suite under the native tier)."""
    return os.environ.get("REPRO_KERNEL_TIER", "numpy")


def resolve_kernel_tier(spec: str | None = None) -> str:
    """Resolve a tier spec to the tier that will actually run.

    ``None`` defers to :func:`default_kernel_tier`.  An unknown name
    raises; ``"native"`` falls back to ``"numpy"`` when the extension is
    unavailable -- callers that care (the engine's observer note, the
    worker summary) compare the resolved tier against the requested one.
    """
    tier = spec if spec is not None else default_kernel_tier()
    if tier not in KERNEL_TIERS:
        raise KernelError(
            f"unknown kernel tier {tier!r}; options: {list(KERNEL_TIERS)}"
        )
    if tier == "native" and not native_available():
        return "numpy"
    return tier


def native_kernels():
    """The compiled kernel module; raises when unavailable.

    Dispatch sites call this only after :func:`resolve_kernel_tier`
    returned ``"native"``, so the raise guards against direct misuse.
    """
    mod = _load_native()
    if mod is None:
        raise KernelError(
            f"native kernel tier unavailable: {_NATIVE_ERROR}; build it "
            "with `python setup.py build_ext --inplace`"
        )
    return mod
