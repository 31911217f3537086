"""N-worker lease-race stress: one store, a fleet of worker processes.

Satellite invariants for the job engine under real concurrency: with
four worker processes draining one shared root at once, no job is ever
claimed by two workers (the claim critical section is an ``O_EXCL``
lock), no job runs twice to completion, a pre-made orphan (SIGKILLed
worker, expired lease) is adopted exactly once, and every job's contig
digest is bit-identical to an uncontended run of the same spec.
"""

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.pipeline import Pipeline, PipelineConfig
from repro.seq import GenomeSpec, make_genome, tile_reads
from repro.service import JobService

CFG = {"nprocs": 4, "k": 17, "reliable_lo": 1, "end_margin": 5}

#: genome seeds for the job mix; 51 appears twice so the fleet also
#: exercises concurrent cache sharing between identical specs
JOB_SEEDS = (51, 52, 53, 51, 54)

ORPHAN_TTL = 0.5      # the killed worker's lease must expire quickly
FLEET_TTL = 120.0     # fleet leases must NOT expire mid-run under load


def _source(seed: int) -> dict:
    return {
        "kind": "simulate",
        "length": 2500,
        "seed": seed,
        "read_length": 350,
        "stride": 140,
    }


def _driver(lease_ttl: float, kill_after: str | None = None) -> str:
    """A worker process; ``kill_after`` makes it SIGKILL itself after
    that stage (a one-rule ``worker_kill`` fault plan)."""
    rule = f"worker_kill(after_stage={kill_after!r}, mode='sigkill')"
    plan = f"FaultPlan(rules=({rule},))" if kill_after else "None"
    return (
        "import sys\n"
        "from repro.faults import FaultPlan, worker_kill\n"
        "from repro.service import JobService\n"
        f"JobService(sys.argv[1], lease_ttl={lease_ttl})"
        f".run_worker(fault_plan={plan})\n"
    )


def _env():
    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def reference_digests():
    digests = {}
    for seed in set(JOB_SEEDS):
        src = _source(seed)
        reads = tile_reads(
            make_genome(GenomeSpec(length=src["length"], seed=src["seed"])),
            src["read_length"],
            src["stride"],
        ).reads
        digests[seed] = Pipeline.default().run(
            reads, PipelineConfig(**CFG)
        ).contig_digest()
    return digests


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
)
class TestWorkerFleet:
    def test_fleet_races_cleanly_and_adopts_orphan_once(
        self, tmp_path, reference_digests
    ):
        svc = JobService(tmp_path, lease_ttl=ORPHAN_TTL)
        # the orphan-to-be goes in first so the doomed worker claims it
        orphan_id = svc.submit(_source(51), CFG, name="orphan")
        job_ids = [orphan_id] + [
            svc.submit(_source(seed), CFG) for seed in JOB_SEEDS[1:]
        ]

        doomed = subprocess.run(
            [sys.executable, "-c", _driver(ORPHAN_TTL, "Alignment"),
             str(tmp_path)],
            env=_env(), capture_output=True, text=True, timeout=180,
        )
        assert doomed.returncode == -signal.SIGKILL, doomed.stderr
        assert svc.status(orphan_id).state == "running"
        time.sleep(ORPHAN_TTL + 0.2)

        # four workers, one queue, no coordination beyond the store.
        # Their long lease TTL means a slow stage can't look like a dead
        # worker, so the only adoptable job is the real orphan.
        fleet = [
            subprocess.Popen(
                [sys.executable, "-c", _driver(FLEET_TTL), str(tmp_path)],
                env=_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        for proc in fleet:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err

        for job_id, seed in zip(job_ids, JOB_SEEDS):
            record = svc.status(job_id)
            assert record.state == "done", (job_id, record.error)
            counts = Counter(e["event"] for e in svc.events(job_id))
            # ran to completion exactly once...
            assert counts["done"] == 1, (job_id, counts)
            if job_id == orphan_id:
                # ...claimed once by the doomed worker, adopted exactly
                # once by the fleet
                assert counts["claimed"] == 1, counts
                assert counts["adopted"] == 1, counts
                assert record.attempts == 2
            else:
                assert counts["claimed"] == 1, (job_id, counts)
                assert counts["adopted"] == 0, (job_id, counts)
                assert record.attempts == 1
            # bit-identical to the uncontended reference run
            assert svc.result(job_id)["contig_digest"] == \
                reference_digests[seed], job_id

        # each stage of each job executed (or loaded) exactly once per
        # completing attempt: starts never exceed one per stage for the
        # fleet jobs (the orphan re-runs post-kill stages on adoption)
        for job_id in job_ids[1:]:
            starts = Counter(
                e["stage"] for e in svc.events(job_id)
                if e["event"] == "stage_start"
            )
            assert all(n == 1 for n in starts.values()), (job_id, starts)

        # the fleet went home: no leases, no pins, no stray claim locks
        assert svc.cache.pinned_files() == set()
        assert not list(Path(svc.store.root).glob("*.claim.lock"))
        for job_id in job_ids:
            assert svc.status(job_id).lease is None
