"""Checkpoint-layer safety nets the job engine depends on.

Covers the PR's satellite fixes: crash-safe atomic saves, the TOCTOU gap
between ``has`` and ``load`` (evicted/torn checkpoints degrade to a
recompute, not a crash), and cross-process stability of the fingerprint
chain (the contract that makes the shared cache shareable at all).
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro import CollectingObserver, Pipeline, PipelineConfig
from repro.pipeline import CheckpointLoadError, CheckpointStore
from repro.pipeline.checkpoint import base_fingerprint
from repro.pipeline.engine import Stage
from repro.seq import GenomeSpec, make_genome, tile_reads

GENOME = dict(length=2500, seed=51)
TILE = dict(read_length=350, stride=140)


@pytest.fixture(scope="module")
def reads():
    return tile_reads(
        make_genome(GenomeSpec(length=GENOME["length"], seed=GENOME["seed"])),
        TILE["read_length"],
        TILE["stride"],
    )


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5)


class TestCrashSafeSave:
    def test_failed_save_leaves_no_debris(self, tmp_path):
        """A write that dies mid-pickle must leave neither a torn target
        nor an orphaned temp file."""
        store = CheckpointStore(tmp_path)

        class Doomed(Stage):
            name = "Doomed"
            produces = ("x",)

        ctx = types.SimpleNamespace(artifacts={"x": lambda: None})  # unpicklable
        with pytest.raises(Exception):
            store.save("Doomed", "f" * 40, Doomed(), ctx, {})
        assert list(Path(tmp_path).iterdir()) == []

    def test_save_then_load_round_trips(self, tmp_path, reads, cfg):
        store = CheckpointStore(tmp_path)
        res = Pipeline.default().run(reads, cfg, checkpoint_store=store)
        assert len(store.entries()) == 5
        assert not list(Path(tmp_path).glob("*.tmp"))
        again = Pipeline.default().run(reads, cfg, checkpoint_store=store)
        assert again.stages_run == []
        assert again.contig_digest() == res.contig_digest()

    def test_helpers_nbytes_delete(self, tmp_path, reads, cfg):
        store = CheckpointStore(tmp_path)
        Pipeline.default().run(reads, cfg, checkpoint_store=store)
        entry = store.entries()[0]
        assert store.nbytes(entry.name) == entry.stat().st_size > 0
        assert store.delete(entry.name)
        assert not store.delete(entry.name)  # already gone
        assert store.nbytes(entry.name) == 0


class TestToctouFallback:
    def _checkpointed(self, tmp_path, reads, cfg):
        store = CheckpointStore(tmp_path)
        first = Pipeline.default().run(reads, cfg, checkpoint_store=store)
        return store, first

    def test_torn_checkpoint_falls_back_to_recompute(
        self, tmp_path, reads, cfg
    ):
        store, first = self._checkpointed(tmp_path, reads, cfg)
        victim = next(
            p for p in store.entries() if p.name.startswith("TrReduction")
        )
        victim.write_bytes(victim.read_bytes()[:50])  # torn mid-write
        obs = CollectingObserver()
        res = Pipeline.default(observers=[obs]).run(
            reads, cfg, checkpoint_store=store
        )
        assert res.stages_run == ["TrReduction"]
        assert [s for s, _ in obs.notes] == ["TrReduction"]
        assert "recomputing" in obs.notes[0][1]
        assert res.contig_digest() == first.contig_digest()

    def test_vanished_between_has_and_load(self, tmp_path, reads, cfg):
        """Simulate an eviction racing the load: `has` says yes, the file
        is gone by the time `load` opens it."""
        store, first = self._checkpointed(tmp_path, reads, cfg)

        class RacingStore(CheckpointStore):
            def has(self, stage_name, fingerprint):
                present = super().has(stage_name, fingerprint)
                if present and stage_name == "Alignment":
                    os.unlink(self.path(stage_name, fingerprint))
                return present

        racing = RacingStore(tmp_path)
        obs = CollectingObserver()
        res = Pipeline.default(observers=[obs]).run(
            reads, cfg, checkpoint_store=racing
        )
        assert res.stages_run == ["Alignment"]
        assert obs.skips == {
            "CountKmer": "checkpoint",
            "DetectOverlap": "checkpoint",
            "TrReduction": "checkpoint",
            "ExtractContig": "checkpoint",
        }
        assert res.contig_digest() == first.contig_digest()

    def test_load_commits_nothing_on_failure(self, tmp_path, reads, cfg):
        store, _ = self._checkpointed(tmp_path, reads, cfg)
        victim = next(
            p for p in store.entries() if p.name.startswith("CountKmer")
        )
        victim.write_bytes(b"garbage")
        pipe = Pipeline.default()
        ctx = pipe._build_context(reads, cfg, cfg.resolve_machine())
        stage = pipe.stages[0]
        fp = store.chain(base_fingerprint(cfg, ctx.store), stage, cfg)
        before = dict(ctx.artifacts)
        with pytest.raises(CheckpointLoadError):
            store.load(stage, fp, ctx)
        assert ctx.artifacts == before

    def test_version_mismatch_is_load_error(self, tmp_path, reads, cfg):
        import hashlib
        import pickle

        from repro.pipeline.checkpoint import CHECKPOINT_MAGIC

        store, _ = self._checkpointed(tmp_path, reads, cfg)
        victim = store.entries()[0]
        raw = victim.read_bytes()
        blob = pickle.loads(raw[len(CHECKPOINT_MAGIC) + 32:])
        blob["version"] = 999
        payload = pickle.dumps(blob)
        # a correctly-framed file with a stale version: passes the
        # integrity check, fails the version check
        victim.write_bytes(
            CHECKPOINT_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        obs = CollectingObserver()
        res = Pipeline.default(observers=[obs]).run(
            reads, cfg, checkpoint_store=store
        )
        assert res.contigs is not None
        assert len(obs.notes) == 1


class TestFingerprintStabilityAcrossProcesses:
    """The cross-job cache contract: the same (config, reads) pair must
    fingerprint byte-identically in a fresh interpreter."""

    SCRIPT = """
import json, sys
from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.checkpoint import base_fingerprint
from repro.seq import GenomeSpec, make_genome, tile_reads
from repro.seq.readstore import DistReadStore

cfg = PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5)
reads = tile_reads(make_genome(GenomeSpec(length={length}, seed={seed})),
                   {read_length}, {stride})
world = SimWorld(cfg.nprocs, zero_cost())
store = DistReadStore.from_global(ProcGrid(world), reads.reads)
fp = base_fingerprint(cfg, store)
chain = [fp]
ckpt = Pipeline.default().stages
from repro.pipeline.checkpoint import CheckpointStore
cs = CheckpointStore(".")
for stage in ckpt:
    fp = cs.chain(fp, stage, cfg)
    chain.append(fp)
print(json.dumps(chain))
"""

    def _chain_here(self, reads, cfg):
        from repro.mpi import ProcGrid, SimWorld, zero_cost
        from repro.seq.readstore import DistReadStore

        world = SimWorld(cfg.nprocs, zero_cost())
        store = DistReadStore.from_global(ProcGrid(world), reads.reads)
        fp = base_fingerprint(cfg, store)
        chain = [fp]
        cs = CheckpointStore(".")
        for stage in Pipeline.default().stages:
            fp = cs.chain(fp, stage, cfg)
            chain.append(fp)
        return chain

    def test_chain_identical_in_fresh_interpreter(self, reads, cfg):
        src_dir = Path(__file__).resolve().parent.parent / "src"
        script = self.SCRIPT.format(**GENOME, **TILE)
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout)
        assert fresh == self._chain_here(reads, cfg)
        assert len(set(fresh)) == 6  # base + 5 distinct stage fingerprints

    #: the same chain under checkpoint version 2, before TrReduction's
    #: checkpoint held S itself and ExtractContig's fingerprint lost ``polish``
    V2_CHAIN = [
        "e92d58365830f56675a3ead3ebb14f1896ed279dd435c76c14efb8846b7a4674",
        "6b222e7d93a96340465c2e593961136e41b65d014d3b3aa4560677771160cfa8",
        "370b062ba65fc088d3c4848656349fe8be91707fe909ea3a2863f7c5f1de2007",
        "1b29147f03eed47d4ad8c9cc6cf16e17f32ae68a5100e976d60b20b998b55585",
        "a3ad6e6a6551d366b5a156f994719f007b365d2376dd30c6122a9fc437ef6640",
        "ebed096da675647b07736d9bd05748dce1aff74f58c50be8935a1efd166df0bb",
    ]

    def test_default_chain_pinned(self, reads):
        """The default config's chain on the fixture reads under checkpoint
        version 3.  Version 3 changed what TrReduction's checkpoint holds
        (S itself; version 2 stored the reduction's result object as
        ``tr``) and dropped ``polish`` from ExtractContig's fingerprint.
        The version is the chain's root, so every link moved: a directory
        written under version 2 holds no file that ``has()`` looks for,
        and each of its stages is recomputed, never misread.

        ``count_limit`` later left ExtractContig's fingerprint (it is a
        class constant now), which moved that one link
        (``c0e8a02e...`` before); the five upstream links stayed."""
        chain = self._chain_here(reads, PipelineConfig())
        assert chain == [
            "ea3a2a692541e70df4eff8b08cef22eafccd5fdc92c1729a24786eaa7e245a92",
            "7ccf958a43273a7d79a73a2fa8f08020736dcf0ae59108ae807f7d9f8740485f",
            "5147415491d5d8892eb1cabb3e4aa3f4f9af789cf6090533a87a91440a03002a",
            "4daaf0b49df529f9f45bc7b75baee8af1ad0a2a5435749b9ebf96a4d442f3bb2",
            "798cb2714008702c0741f889afaf59d5c4d5ec049f19bda155da5f291100d218",
            "338aa9dd1c2ed2da70a46d222bacd09ff5f587c957b1acdb4a3f2f32f8ea40ad",
        ]
        store = CheckpointStore(".")
        for stage, old, new in zip(
            Pipeline.default().stages, self.V2_CHAIN[1:], chain[1:]
        ):
            assert store.path(stage.name, old) != store.path(stage.name, new)

    def test_chain_sensitive_to_reads_and_config(self, reads, cfg):
        import dataclasses

        base = self._chain_here(reads, cfg)
        other_reads = tile_reads(
            make_genome(GenomeSpec(length=2500, seed=52)), 350, 140
        )
        assert self._chain_here(other_reads, cfg)[0] != base[0]
        changed = dataclasses.replace(cfg, partition_method="greedy")
        contig_only = self._chain_here(reads, changed)
        assert contig_only[:5] == base[:5]   # upstream chain untouched
        assert contig_only[5] != base[5]     # ExtractContig link moved
