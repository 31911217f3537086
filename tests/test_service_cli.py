"""Tests for the ``repro-jobs`` command line (repro.cli.jobs)."""

import io

import pytest

from repro.cli import jobs_main

SIM = [
    "--simulate", "2500", "--sim-seed", "51",
    "--read-length", "350", "--stride", "140",
]
CFG = ["--nprocs", "4", "-k", "17"]


def run_cli(*argv):
    out = io.StringIO()
    code = jobs_main(list(argv), out=out)
    return code, out.getvalue()


def submit(root, *extra):
    code, out = run_cli("submit", "--root", str(root), *SIM, *CFG, *extra)
    assert code == 0
    return out.strip()


@pytest.fixture
def root(tmp_path):
    return tmp_path / "svc"


class TestSubmitAndWorker:
    def test_submit_prints_job_id(self, root):
        assert submit(root) == "j00001"

    def test_worker_drains_in_priority_order(self, root):
        a = submit(root, "--owner", "alice", "--partition", "greedy")
        b = submit(root, "--owner", "bob", "--priority", "5")
        code, out = run_cli("worker", "--root", str(root))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(f"{b}: done")
        assert lines[1].startswith(f"{a}: done")
        assert "(4 stage(s) from cache)" in lines[1]
        assert lines[-1] == "processed 2 job(s)"

    def test_worker_max_jobs(self, root):
        submit(root)
        submit(root)
        code, out = run_cli("worker", "--root", str(root), "--max-jobs", "1")
        assert code == 0 and "processed 1 job(s)" in out

    def test_worker_adopt_requeues_orphans(self, root):
        from repro.service import JobService

        job_id = submit(root)
        svc = JobService(root, lease_ttl=0.01)
        assert svc.store.claim_next("dead") is not None
        import time

        time.sleep(0.02)
        code, out = run_cli("worker", "--root", str(root), "--adopt")
        assert code == 0
        assert f"re-queued orphan {job_id}" in out
        assert f"{job_id}: done" in out


class TestInspection:
    def test_list_and_status(self, root):
        job_id = submit(root, "--owner", "alice", "--name", "sweep-1")
        code, out = run_cli("list", "--root", str(root))
        assert code == 0 and "queued" in out and "[sweep-1]" in out
        run_cli("worker", "--root", str(root))
        code, out = run_cli(
            "list", "--root", str(root), "--state", "done", "--owner", "alice"
        )
        assert code == 0 and job_id in out
        code, out = run_cli("status", "--root", str(root), job_id)
        assert code == 0
        assert "ExtractContig" in out and "result: 1 contigs" in out

    def test_list_empty(self, root):
        code, out = run_cli("list", "--root", str(root))
        assert code == 0 and "(no jobs)" in out

    def test_watch_replays_events_of_done_job(self, root):
        job_id = submit(root)
        run_cli("worker", "--root", str(root))
        code, out = run_cli("watch", "--root", str(root), job_id)
        assert code == 0
        assert out.count("stage_end") == 5
        assert out.rstrip().endswith("state: done")

    def test_watch_failed_job_exits_nonzero(self, root):
        code, out = run_cli(
            "submit", "--root", str(root), *SIM, "--nprocs", "3"
        )  # 3 is not a perfect square -> spec fails at materialization
        job_id = out.strip()
        run_cli("worker", "--root", str(root))
        code, out = run_cli("watch", "--root", str(root), job_id)
        assert code == 1 and "state: failed" in out

    def test_bad_fasta_fails_on_first_attempt(self, root, tmp_path):
        """An ``N`` in the reads is a spec error: terminal, never retried."""
        from repro.service import JobService

        bad = tmp_path / "n.fa"
        bad.write_text(">r1\nACGTNACGT\n")
        code, out = run_cli(
            "submit", "--root", str(root), "--fasta", str(bad), *CFG
        )
        assert code == 0
        job_id = out.strip()
        code, out = run_cli("worker", "--root", str(root))
        assert code == 0 and "processed 1 job(s)" in out
        record = JobService(root).status(job_id)
        assert record.state == "failed" and record.attempts == 1
        assert record.error.startswith("spec error: FASTA record 'r1', line 2")
        code, out = run_cli("worker", "--root", str(root))
        assert "processed 0 job(s)" in out


class TestCancelAndGc:
    def test_cancel_queued(self, root):
        job_id = submit(root)
        code, out = run_cli("cancel", "--root", str(root), job_id)
        assert code == 0 and "cancelled" in out
        code, out = run_cli("worker", "--root", str(root))
        assert "processed 0 job(s)" in out

    def test_gc_evicts_to_budget(self, root):
        submit(root)
        run_cli("worker", "--root", str(root))
        code, out = run_cli(
            "gc", "--root", str(root), "--budget-mb", "0.0001"
        )
        assert code == 0
        assert "evicted 5 entr(ies)" in out and "0 pinned" in out


class TestErrors:
    def test_missing_root_is_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS_ROOT", raising=False)
        code, _ = run_cli("list")
        assert code == 1

    def test_root_from_env(self, root, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_ROOT", str(root))
        code, out = run_cli("list")
        assert code == 0 and "(no jobs)" in out

    def test_unknown_job_is_error(self, root):
        code, _ = run_cli("status", "--root", str(root), "j09999")
        assert code == 1
