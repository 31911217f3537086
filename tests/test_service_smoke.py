"""Job-engine smoke: a SIGKILLed worker's job resumes bit-identically.

This is the scenario the CI job-engine step runs: a worker process is
hard-killed mid-job (no atexit, no cleanup), the job's lease expires, a
fresh worker adopts the orphaned record, and the shared artifact cache
turns the re-run into cache hits for everything checkpointed before the
kill -- converging on a result bit-identical to an uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import JobService

SRC = {
    "kind": "simulate",
    "length": 2500,
    "seed": 51,
    "read_length": 350,
    "stride": 140,
}
CFG = {"nprocs": 4, "k": 17, "reliable_lo": 1, "end_margin": 5}

LEASE_TTL = 0.5

#: argv: store root, then optionally the stage after which the worker
#: SIGKILLs itself (a one-rule ``worker_kill`` fault plan)
WORKER_DRIVER = (
    "import sys\n"
    "from repro.faults import FaultPlan, worker_kill\n"
    "from repro.service import JobService\n"
    "kill = [worker_kill(after_stage=s, mode='sigkill') for s in sys.argv[2:]]\n"
    f"JobService(sys.argv[1], lease_ttl={LEASE_TTL}).run_worker(\n"
    "    fault_plan=FaultPlan(rules=tuple(kill)) if kill else None)\n"
)

#: fields of the job summary that must be bit-identical across resume
IDENTITY_FIELDS = ("contigs", "total_bases", "longest", "contig_digest")


def _spawn_worker(root, kill_after=None):
    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", WORKER_DRIVER, str(root),
         *([kill_after] if kill_after else [])],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
)
class TestKillAndResumeSmoke:
    def test_sigkilled_worker_resumes_bit_identical(self, tmp_path):
        # reference: the same job on a pristine root, never interrupted
        ref = JobService(tmp_path / "ref")
        ref_summary = None
        ref_id = ref.submit(SRC, CFG)
        ref.run_worker()
        ref_summary = ref.result(ref_id)

        svc = JobService(tmp_path / "svc", lease_ttl=LEASE_TTL)
        job_id = svc.submit(SRC, CFG)

        # a worker process that SIGKILLs itself right after Alignment
        # completes -- before that stage's checkpoint is written
        proc = _spawn_worker(tmp_path / "svc", kill_after="Alignment")
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        orphan = svc.status(job_id)
        assert orphan.state == "running"  # torn mid-flight, lease held
        assert orphan.progress["Alignment"] == "done"
        assert orphan.attempts == 1
        # upstream stages were checkpointed (and pinned) before the kill
        cached_stages = {p.name.split("-")[0] for p in svc.cache.entries()}
        assert cached_stages == {"CountKmer", "DetectOverlap"}
        assert len(svc.cache.pinned_files()) == 2

        # until the lease expires nobody may steal the job
        assert svc.store.claim_next("vulture") is None
        time.sleep(LEASE_TTL + 0.2)

        # a fresh worker (fresh process, like a restarted service) adopts
        proc = _spawn_worker(tmp_path / "svc")
        assert proc.returncode == 0, proc.stderr

        record = svc.status(job_id)
        assert record.state == "done"
        assert record.attempts == 2
        summary = svc.result(job_id)
        # CountKmer + DetectOverlap came from cache; Alignment (whose
        # checkpoint the kill beat to disk) was recomputed
        assert summary["stages_cached"] == 2
        assert summary["stages_run"] == [
            "Alignment", "TrReduction", "ExtractContig",
        ]
        for field in IDENTITY_FIELDS:
            assert summary[field] == ref_summary[field], field
        # artifact-derived counters are restored from checkpoints and must
        # match; peak modeled memory is a per-run property (the resumed
        # run only executed three stages) and is legitimately smaller
        drop = {"peak_memory_bytes"}
        assert {k: v for k, v in summary["counts"].items() if k not in drop} \
            == {k: v for k, v in ref_summary["counts"].items() if k not in drop}
        # terminal job released its pins
        assert svc.cache.pinned_files() == set()
        events = [e["event"] for e in svc.events(job_id)]
        assert "claimed" in events and "adopted" in events

    def test_two_knob_sweep_jobs_share_cache_across_processes(self, tmp_path):
        """The CI assertion: two knob-sweep jobs, one cache root, the
        second job's upstream stages all served from the first's cache --
        each job run by a separate worker process."""
        svc = JobService(tmp_path)
        a = svc.submit(SRC, CFG, owner="alice")
        b = svc.submit(SRC, {**CFG, "partition_method": "greedy"},
                       owner="bob")
        for _ in (a, b):
            proc = _spawn_worker(tmp_path)
            assert proc.returncode == 0, proc.stderr
            # each driver call drains the whole queue; second is idle
        ra, rb = svc.result(a), svc.result(b)
        assert rb["stages_cached"] == 4
        assert ra["contig_digest"] is not None
        assert ra["total_bases"] == rb["total_bases"]
