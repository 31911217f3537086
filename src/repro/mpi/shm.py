"""Zero-copy shared-memory transport for large read-only arrays.

Out-of-process executors (:class:`~repro.mpi.procexec.ProcessExecutor`)
must ship every rank task's arguments across a pool boundary.  Pickling
the big read-only inputs -- the :class:`~repro.seq.readstore.PackedReads`
``buffer``/``offsets``/``ids`` triplet, or the SUMMA A/B panels that a
broadcast hands to *every* rank in the superstep -- would copy the same
bytes once per rank.  Instead a :class:`SharedBufferRegistry` exports
each distinct array into a ``multiprocessing.shared_memory`` segment
exactly once, and a pickler hook (:func:`shm_dumps`) replaces eligible
ndarrays with a tiny :class:`SharedArrayHandle`; workers resolve handles
by attaching the segment (:func:`shm_loads`) and wrapping it in a
read-only ndarray view -- zero copies, regardless of rank count.

Eligibility is deliberately narrow: plain C-contiguous ndarrays of
non-object dtype at least ``threshold`` bytes (default 64 KiB).  Small
arrays pickle faster than a segment round-trip, and anything exotic
(views with strides, object dtypes, ndarray subclasses) takes the
ordinary pickle path for correctness.

Lifecycle: the registry caches segments by source-array identity and
holds a reference to the source, so repeated supersteps over the same
PackedReads re-use one segment.  :meth:`SharedBufferRegistry.sweep`
(called by the executor after each superstep's results land) unlinks
segments that no superstep has touched recently; :meth:`close` unlinks
everything and is registered ``atexit`` so segments never outlive the
parent process.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from collections import OrderedDict
from io import BytesIO
from multiprocessing import shared_memory
from typing import Any, NamedTuple

import numpy as np

try:  # pragma: no cover - exercised implicitly by every shm test
    import cloudpickle
except ImportError:  # pragma: no cover - container always ships it
    cloudpickle = None  # type: ignore[assignment]

from ..errors import CommunicatorError

__all__ = [
    "SharedArrayHandle",
    "SharedBufferRegistry",
    "SHM_THRESHOLD_DEFAULT",
    "attach_array",
    "shm_dumps",
    "shm_loads",
    "dumps_step",
    "dumps_task",
    "step_label",
]

#: arrays at least this large are exported to shared memory, smaller ones
#: travel inline in the pickle stream (a segment round-trip has fixed cost)
SHM_THRESHOLD_DEFAULT = 64 * 1024

#: tag marking our persistent ids so foreign streams fail loudly
_PID_TAG = "repro-shm-array"


class SharedArrayHandle(NamedTuple):
    """Pickle-sized stand-in for an array living in a shared segment."""

    name: str  # shared_memory segment name
    shape: tuple
    descr: Any  # np.lib.format dtype descr (round-trips structured dtypes)

    def dtype(self) -> np.dtype:
        return np.lib.format.descr_to_dtype(self.descr)

    @property
    def nbytes(self) -> int:
        n = int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1
        return n * self.dtype().itemsize


def _eligible(obj: Any, threshold: int) -> bool:
    return (
        type(obj) is np.ndarray
        and not obj.dtype.hasobject
        and obj.flags["C_CONTIGUOUS"]
        and obj.nbytes >= threshold
    )


class _Entry(NamedTuple):
    source: np.ndarray  # keepalive: id(source) is the cache key
    segment: shared_memory.SharedMemory
    handle: SharedArrayHandle
    last_used: int


class SharedBufferRegistry:
    """Export large read-only arrays to shared memory, once each.

    Keyed by ``id(array)`` with a strong reference to the source, so the
    key can never be recycled while the entry lives.  ``keep_sweeps``
    bounds how many sweeps an idle segment survives: the PackedReads
    buffer is touched every alignment superstep and persists, while a
    SUMMA phase panel goes idle after its phase and is reclaimed.
    """

    def __init__(self, keep_sweeps: int = 4) -> None:
        if keep_sweeps < 1:
            raise ValueError(f"keep_sweeps must be >= 1, got {keep_sweeps}")
        self.keep_sweeps = keep_sweeps
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self._clock = 0
        self._lock = threading.Lock()
        self.exported_arrays = 0  # lifetime counters (observability)
        self.exported_bytes = 0
        self.reused = 0
        atexit.register(self.close)

    # -- export ----------------------------------------------------------
    def export(self, arr: np.ndarray) -> SharedArrayHandle:
        """Return a handle for ``arr``, creating the segment on first use."""
        key = id(arr)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.source is arr:
                self._entries[key] = entry._replace(last_used=self._clock)
                self.reused += 1
                return entry.handle
            segment = shared_memory.SharedMemory(
                create=True, size=max(int(arr.nbytes), 1)
            )
            try:
                view = np.ndarray(arr.shape, arr.dtype, buffer=segment.buf)
                view[...] = arr
                handle = SharedArrayHandle(
                    segment.name,
                    tuple(arr.shape),
                    np.lib.format.dtype_to_descr(arr.dtype),
                )
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            self._entries[key] = _Entry(arr, segment, handle, self._clock)
            self.exported_arrays += 1
            self.exported_bytes += int(arr.nbytes)
            return handle

    # -- lifecycle -------------------------------------------------------
    @property
    def live_segments(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return sum(e.source.nbytes for e in self._entries.values())

    def sweep(self) -> int:
        """Advance the clock and unlink segments idle > ``keep_sweeps``.

        Call *between* supersteps only: workers may still be attached to
        any segment exported for the superstep in flight.
        """
        dropped = 0
        with self._lock:
            self._clock += 1
            horizon = self._clock - self.keep_sweeps
            for key in [
                k
                for k, e in self._entries.items()
                if e.last_used < horizon
            ]:
                self._unlink(self._entries.pop(key))
                dropped += 1
        return dropped

    def close(self) -> None:
        """Unlink every live segment (idempotent; runs atexit)."""
        with self._lock:
            entries, self._entries = self._entries, OrderedDict()
        for entry in entries.values():
            self._unlink(entry)

    @staticmethod
    def _unlink(entry: _Entry) -> None:
        try:
            entry.segment.close()
            entry.segment.unlink()
        except OSError:  # pragma: no cover - already gone (e.g. tmp wipe)
            pass


# ---------------------------------------------------------------------------
# worker-side attach cache
# ---------------------------------------------------------------------------

#: segment name -> (segment, read-only view); per process, bounded below
_ATTACHED: OrderedDict[str, tuple[shared_memory.SharedMemory, np.ndarray]]
_ATTACHED = OrderedDict()
_ATTACHED_MAX = 256
_ATTACH_LOCK = threading.Lock()


def attach_array(handle: SharedArrayHandle) -> np.ndarray:
    """Map ``handle``'s segment and return a read-only ndarray view.

    Attachments are cached per process so every task of a superstep (and
    successive supersteps over the same PackedReads) share one mapping.
    """
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(handle.name)
        if cached is not None:
            _ATTACHED.move_to_end(handle.name)
            return cached[1]
        # CPython < 3.13 auto-registers attached segments with the
        # resource tracker.  Spawned pool workers share the parent's
        # tracker, so letting the attach register (or unregistering it
        # afterwards) corrupts the parent's entry and either unlinks a
        # live segment or makes the owner's eventual unlink fail noisily.
        # Ownership stays with the registry; suppress registration for
        # the duration of the attach instead.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            segment = shared_memory.SharedMemory(name=handle.name)
        except FileNotFoundError as exc:
            raise CommunicatorError(
                f"shared buffer {handle.name!r} vanished before attach "
                "(registry swept a segment still in flight?)"
            ) from exc
        finally:
            resource_tracker.register = original_register
        arr = np.ndarray(handle.shape, handle.dtype(), buffer=segment.buf)
        arr.flags.writeable = False
        _ATTACHED[handle.name] = (segment, arr)
        while len(_ATTACHED) > _ATTACHED_MAX:
            _, (old_seg, _view) = _ATTACHED.popitem(last=False)
            try:
                old_seg.close()
            except OSError:  # pragma: no cover
                pass
        return arr


# ---------------------------------------------------------------------------
# pickle integration
# ---------------------------------------------------------------------------


def _require_cloudpickle() -> None:
    if cloudpickle is None:  # pragma: no cover - container always ships it
        raise CommunicatorError(
            "out-of-process executors need cloudpickle to serialize rank "
            "steps; it is not importable in this environment"
        )


def shm_dumps(
    obj: Any,
    registry: SharedBufferRegistry | None = None,
    threshold: int = SHM_THRESHOLD_DEFAULT,
) -> bytes:
    """cloudpickle ``obj``, diverting large arrays through ``registry``.

    With ``registry=None`` this is plain ``cloudpickle.dumps`` (the MPI
    backend serializes without shared memory: ranks may be remote).
    """
    _require_cloudpickle()
    if registry is None:
        return cloudpickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    buf = BytesIO()
    pickler = cloudpickle.CloudPickler(buf, protocol=pickle.HIGHEST_PROTOCOL)

    def persistent_id(item: Any):
        if _eligible(item, threshold):
            return (_PID_TAG, tuple(registry.export(item)))
        return None

    pickler.persistent_id = persistent_id  # type: ignore[method-assign]
    pickler.dump(obj)
    return buf.getvalue()


class _ShmUnpickler(pickle.Unpickler):
    def persistent_load(self, pid: Any) -> Any:
        if (
            not isinstance(pid, tuple)
            or len(pid) != 2
            or pid[0] != _PID_TAG
        ):
            raise pickle.UnpicklingError(
                f"unknown persistent id in rank-step stream: {pid!r}"
            )
        return attach_array(SharedArrayHandle(*pid[1]))


def shm_loads(blob: bytes) -> Any:
    """Inverse of :func:`shm_dumps`: handles resolve via attach cache."""
    return _ShmUnpickler(BytesIO(blob)).load()


# ---------------------------------------------------------------------------
# validated step/task serialization
# ---------------------------------------------------------------------------


def step_label(fn: Any) -> str:
    """Human-readable name for a rank step in error messages."""
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    return name if name else repr(fn)


def dumps_step(
    fn: Any, registry: SharedBufferRegistry, threshold: int
) -> bytes:
    """Serialize a rank-step callable, mapping failures to our error type."""
    try:
        return shm_dumps(fn, registry, threshold)
    except CommunicatorError:
        raise
    except Exception as exc:
        raise CommunicatorError(
            f"rank step {step_label(fn)} is not picklable and cannot cross "
            f"a process boundary ({type(exc).__name__}: {exc}); the "
            "process executor needs module-level step functions whose "
            "closures avoid locks, worlds and open handles"
        ) from exc


def dumps_task(
    rank: int, payload: Any, registry: SharedBufferRegistry, threshold: int
) -> bytes:
    """Serialize one rank's (ctx, args) task with a rank-tagged error."""
    try:
        return shm_dumps(payload, registry, threshold)
    except CommunicatorError:
        raise
    except Exception as exc:
        raise CommunicatorError(
            f"arguments for rank {rank} are not picklable and cannot cross "
            f"a process boundary ({type(exc).__name__}: {exc})"
        ) from exc
