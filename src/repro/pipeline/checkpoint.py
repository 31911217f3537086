"""Stage checkpointing and world-independent artifact serialization.

A checkpoint stores one stage's artifacts in a *grid-free* form so a
later run -- with its own fresh :class:`~repro.mpi.comm.SimWorld` and
clocks -- can rehydrate them onto its own process grid.  Distributed
matrices are stored as global COO triples, k-mer tables as their per-owner
arrays, read stores as the global read list, contig sets as bare contig
records.  Anything else is pickled as-is (it must not reference a grid).

Checkpoints are keyed by a **fingerprint chain**: the SHA-256 of the run's
base signature (nprocs + a digest of the read set) folded with each
stage's name and its ``config_fields`` values, in pipeline order.  A stage's
fingerprint therefore changes exactly when its own or any upstream stage's
relevant configuration (or the input reads) changes -- editing
``partition_method`` invalidates only ``ExtractContig``, never the
expensive overlap stages.  The machine model is deliberately excluded:
artifact *data* is machine-independent, only modeled time differs.

The same pack/unpack codecs back artifact *injection*
(``Pipeline.run(from_artifacts=...)``): an object produced under another
run's grid is re-homed onto the current grid before stages consume it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.assembly import Contig
from ..core.contig import ContigSet
from ..errors import PipelineError
from ..kmer.counter import KmerTable
from ..seq.readstore import DistReadStore
from ..sparse.distmat import DistSparseMatrix
from .config import PipelineConfig

if TYPE_CHECKING:  # pragma: no cover
    from .engine import RunContext, Stage

__all__ = [
    "CheckpointStore",
    "CheckpointLoadError",
    "base_fingerprint",
    "pack_artifact",
    "unpack_artifact",
    "adopt_artifact",
]

#: bumped when a tag's payload or a stage's checkpoint changes meaning.  3:
#: TrReduction's checkpoint holds S (2 held the reduction result as ``tr``)
#: and ExtractContig's fingerprint lost ``polish``; the version roots every
#: fingerprint, so a version-2 file is never found, hence never misread
CHECKPOINT_VERSION = 3

#: on-disk frame: MAGIC + sha256(payload) + pickled payload.  The digest
#: makes *any* on-disk corruption -- a flipped bit as much as a truncation
#: -- a detected :class:`CheckpointLoadError` (degrading to recompute)
#: instead of silently rehydrating altered artifacts.
CHECKPOINT_MAGIC = b"RPROCKPT"
_HEADER_LEN = len(CHECKPOINT_MAGIC) + 32


class CheckpointLoadError(PipelineError):
    """A checkpoint that existed (or was expected) could not be rehydrated.

    Raised when the file vanished between ``has`` and ``load`` (e.g. a
    shared-cache eviction), was torn by a killed writer, carries a stale
    format version, or fails to unpack.  The engine treats this as a cache
    miss and recomputes the stage instead of failing the run.
    """


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def reads_digest(store: DistReadStore) -> str:
    """Content hash of the distributed read set."""
    h = hashlib.sha256()
    h.update(str(store.nreads).encode())
    for shard in store.shards:
        h.update(shard.buffer.tobytes())
        h.update(shard.offsets.tobytes())
    return h.hexdigest()


def base_fingerprint(config: PipelineConfig, store: DistReadStore | None) -> str:
    """Root of the fingerprint chain: run-wide, stage-independent inputs."""
    return _digest(
        {
            "version": CHECKPOINT_VERSION,
            "nprocs": config.nprocs,
            "reads": reads_digest(store) if store is not None else None,
        }
    )


# ---------------------------------------------------------------------------
# artifact codecs
# ---------------------------------------------------------------------------


def _pack_matrix(m: DistSparseMatrix) -> dict:
    rows, cols, vals = m.to_global_coo()
    return {"shape": m.shape, "rows": rows, "cols": cols, "vals": vals}


def _unpack_matrix(payload: dict, ctx: "RunContext") -> DistSparseMatrix:
    return DistSparseMatrix.from_global_coo(
        ctx.grid,
        tuple(payload["shape"]),
        payload["rows"],
        payload["cols"],
        payload["vals"],
    )


def pack_artifact(value: Any) -> tuple[str, Any]:
    """Convert an artifact into a (tag, grid-free payload) pair."""
    if isinstance(value, DistSparseMatrix):
        return "distmat", _pack_matrix(value)
    if isinstance(value, KmerTable):
        return "kmertable", {
            "k": value.k,
            "kmers_by_owner": value.kmers_by_owner,
            "counts_by_owner": value.counts_by_owner,
            "offsets": value.offsets,
        }
    if isinstance(value, ContigSet):
        return "contigset", {
            "contigs": [
                {
                    "codes": c.codes,
                    "read_path": list(c.read_path),
                    "orientations": list(c.orientations),
                    "circular": c.circular,
                    "truncated": c.truncated,
                }
                for c in value.contigs
            ],
            "cc_rounds": value.cc_rounds,
        }
    return "pickle", value


def unpack_artifact(tag: str, payload: Any, ctx: "RunContext") -> Any:
    """Rehydrate a packed artifact onto the current run's grid."""
    if tag == "distmat":
        return _unpack_matrix(payload, ctx)
    if tag == "kmertable":
        if len(payload["kmers_by_owner"]) != ctx.grid.nprocs:
            raise PipelineError(
                f"k-mer table was built for "
                f"{len(payload['kmers_by_owner'])} ranks, current grid has "
                f"{ctx.grid.nprocs}"
            )
        return KmerTable(
            grid=ctx.grid,
            k=payload["k"],
            kmers_by_owner=payload["kmers_by_owner"],
            counts_by_owner=payload["counts_by_owner"],
            offsets=payload["offsets"],
        )
    if tag == "contigset":
        return ContigSet(
            contigs=[
                Contig(
                    codes=np.asarray(c["codes"], dtype=np.uint8),
                    read_path=list(c["read_path"]),
                    orientations=list(c["orientations"]),
                    circular=c["circular"],
                    truncated=c["truncated"],
                )
                for c in payload["contigs"]
            ],
            cc_rounds=payload["cc_rounds"],
        )
    if tag == "pickle":
        return payload
    raise PipelineError(f"unknown artifact tag {tag!r}")


def adopt_artifact(key: str, value: Any, ctx: "RunContext") -> Any:
    """Re-home an injected artifact onto the current run's grid.

    Objects already living on this run's grid (or grid-free objects) pass
    through untouched; anything carrying a foreign grid goes through a
    pack/unpack round trip so its operations charge this run's clocks.
    """
    foreign_grid = getattr(value, "grid", None)
    if foreign_grid is None or foreign_grid is ctx.grid:
        return value
    tag, payload = pack_artifact(value)
    if tag == "pickle":
        return value
    return unpack_artifact(tag, payload, ctx)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class CheckpointStore:
    """One directory of per-stage checkpoint files."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def chain(self, prev: str, stage: "Stage", config: PipelineConfig) -> str:
        """Fold one stage into the fingerprint chain."""
        return _digest(
            {
                "prev": prev,
                "stage": stage.name,
                "config": stage.config_signature(config),
            }
        )

    def path(self, stage_name: str, fingerprint: str) -> Path:
        return self.root / f"{stage_name}-{fingerprint[:20]}.ckpt"

    def has(self, stage_name: str, fingerprint: str) -> bool:
        return self.path(stage_name, fingerprint).exists()

    def save(
        self,
        stage_name: str,
        fingerprint: str,
        stage: "Stage",
        ctx: "RunContext",
        counts_delta: dict,
    ) -> Path:
        """Serialize a just-executed stage's products and counter deltas."""
        self.root.mkdir(parents=True, exist_ok=True)
        packed = {
            key: pack_artifact(ctx.artifacts[key])
            for key in stage.produces
            if key in ctx.artifacts
        }
        blob = {
            "version": CHECKPOINT_VERSION,
            "stage": stage_name,
            "fingerprint": fingerprint,
            "artifacts": packed,
            "counts": counts_delta,
        }
        target = self.path(stage_name, fingerprint)
        # per-process tmp name: concurrent writers of the same checkpoint
        # must not truncate each other before the atomic replace.  The
        # write is crash-safe: a killed worker leaves at worst an orphaned
        # ``*.tmp``, never a torn ``.ckpt`` under the target name.
        payload = pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)
        framed = (
            CHECKPOINT_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(framed)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return target

    def load(self, stage: "Stage", fingerprint: str, ctx: "RunContext") -> None:
        """Rehydrate a stage's artifacts and counters into the context.

        Raises :class:`CheckpointLoadError` on any failure to read or
        unpack, and commits nothing to ``ctx`` in that case -- a checkpoint
        evicted or corrupted after :meth:`has` answered true degrades to a
        recompute, never to a half-populated context.
        """
        path = self.path(stage.name, fingerprint)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CheckpointLoadError(
                f"cannot read checkpoint {path.name}: {exc}"
            ) from exc
        if len(raw) < _HEADER_LEN or not raw.startswith(CHECKPOINT_MAGIC):
            raise CheckpointLoadError(
                f"checkpoint {path.name} has no valid header "
                f"(truncated, foreign, or pre-checksum format)"
            )
        payload = raw[_HEADER_LEN:]
        if hashlib.sha256(payload).digest() != raw[len(CHECKPOINT_MAGIC):_HEADER_LEN]:
            raise CheckpointLoadError(
                f"checkpoint {path.name} failed its integrity check "
                f"(corrupted on disk)"
            )
        try:
            blob = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError, AttributeError,
                ImportError, IndexError, MemoryError) as exc:
            raise CheckpointLoadError(
                f"cannot read checkpoint {path.name}: {exc}"
            ) from exc
        if not isinstance(blob, dict) or blob.get("version") != CHECKPOINT_VERSION:
            got = blob.get("version") if isinstance(blob, dict) else type(blob)
            raise CheckpointLoadError(
                f"checkpoint version mismatch for {stage.name}: "
                f"{got} != {CHECKPOINT_VERSION}"
            )
        # unpack everything before touching the context: a failure midway
        # must not leave some artifacts rehydrated and others missing
        try:
            unpacked = {
                key: unpack_artifact(tag, payload, ctx)
                for key, (tag, payload) in blob["artifacts"].items()
            }
        except Exception as exc:
            raise CheckpointLoadError(
                f"cannot unpack checkpoint {path.name}: {exc}"
            ) from exc
        ctx.artifacts.update(unpacked)
        ctx.counts.update(blob["counts"])

    # -- cache-support surface ------------------------------------------
    def entries(self) -> list[Path]:
        """All checkpoint files under the root, sorted by name."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.ckpt"))

    def nbytes(self, path: str | Path) -> int:
        """On-disk size of one checkpoint file (0 when already gone)."""
        try:
            return (self.root / Path(path).name).stat().st_size
        except OSError:
            return 0

    def delete(self, path: str | Path) -> bool:
        """Remove one checkpoint file; True when a file was deleted."""
        try:
            os.unlink(self.root / Path(path).name)
            return True
        except OSError:
            return False
