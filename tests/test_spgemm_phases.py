"""Memory-budgeted phased SpGEMM: symbolic planner + column-blocked SUMMA.

The contracts under test (ISSUE 5):

* ``spgemm_symbolic`` bounds are exact on flops and upper bounds on nnz;
* bulk / stream / phased (b in {1, 2, 4}) SpGEMM produce *bit-identical*
  matrices;
* ``phases=1`` reproduces the default path exactly (blocks, clocks,
  comm log, memory);
* stream / phased peak modeled bytes never exceed bulk's;
* the planner picks a phase count whose estimated and observed peaks fit
  a budget the unphased run violates, and budget violations are recorded
  per stage when no plan can fit; planning on the panels estimates
  exactly what a per-stage symbolic loop does;
* the pipeline / CLI wiring (``memory_budget_mb`` / ``--memory-budget-mb``)
  is bit-identical to an unbudgeted run and surfaces violations;
* the strict-upper ``A . A^T`` of ``detect_overlaps`` equals the full
  product pruned to ``r < c`` for every P, phase count, merge mode and
  ``min_shared``, its symbolic flops are the products it forms, and ranks
  below the grid diagonal form none;
* how a rank's one join is cut into runs of whole output columns (the
  product bound) changes nothing a run computes, charges, sends or holds,
  and what the join counts for the cost model equals what per-stage
  ``spgemm_local`` calls form.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DistributionError, PipelineError
from repro.kmer import build_kmer_matrix, count_kmers
from repro.mpi import MemoryBudget, MemoryMeter, ProcGrid, SimWorld, cori_haswell
from repro.mpi.comm import block_range
from repro.overlap import detect_overlaps
from repro.pipeline import Pipeline, PipelineConfig
from repro.seq import DistReadStore, GenomeSpec, dna, make_genome, tile_reads
from repro.sparse import (
    DistSparseMatrix,
    LocalCoo,
    SpgemmPlan,
    arithmetic_semiring,
    count_semiring,
    seed_semiring,
    spgemm_local,
    spgemm_symbolic,
)
from repro.sparse import dirmin_semiring, distmat
from repro.sparse import spgemm as spgemm_mod
from repro.strgraph import transitive_reduction
from repro.telemetry import Tracer, get_registry

from tests.test_strgraph import build_R

MODES = [("bulk", 1), ("bulk", 2), ("bulk", 4), ("stream", 1), ("stream", 2), ("stream", 4)]
def random_dist(grid, shape, density, seed):
    rng = np.random.default_rng(seed)
    n, m = shape
    nnz = max(int(n * m * density), 1)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, m, size=nnz)
    vals = rng.integers(1, 5, size=nnz).astype(np.int64)
    keys = rows * m + cols
    _, first = np.unique(keys, return_index=True)
    return DistSparseMatrix.from_global_coo(
        grid, shape, rows[first], cols[first], vals[first]
    )


def assert_blocks_identical(x: DistSparseMatrix, y: DistSparseMatrix, ctx=None):
    assert x.shape == y.shape, ctx
    for rank, (bx, by) in enumerate(zip(x.blocks, y.blocks)):
        assert np.array_equal(bx.rows, by.rows), (ctx, rank)
        assert np.array_equal(bx.cols, by.cols), (ctx, rank)
        assert np.array_equal(bx.vals, by.vals), (ctx, rank)


def world_accounting(world: SimWorld):
    """Everything a merge mode or phase count could perturb: clocks, comm
    log, memory."""
    clocks = {
        s: world.clock.per_rank_seconds(s).copy() for s in world.clock.stages()
    }
    events = [
        (e.op, e.stage, e.nprocs, e.total_bytes, e.max_bytes, e.messages,
         e.modeled_seconds)
        for e in world.log.events
    ]
    return clocks, events, world.memory.by_stage()


def assert_accounting_equal(wa, wb, ctx=None):
    ca, ea, ma = wa
    cb, eb, mb = wb
    assert list(ca) == list(cb), ctx
    for s in ca:
        assert np.array_equal(ca[s], cb[s]), (ctx, s)
    assert ea == eb, ctx
    assert ma == mb, ctx


# ---------------------------------------------------------------------------
# kernel: symbolic pass
# ---------------------------------------------------------------------------


class TestSpgemmSymbolic:
    @pytest.mark.parametrize("seed", range(12))
    def test_flops_exact_and_nnz_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n, k, m = rng.integers(1, 40, size=3)
        da = (rng.random((n, k)) < 0.3) * rng.integers(1, 5, (n, k))
        db = (rng.random((k, m)) < 0.3) * rng.integers(1, 5, (k, m))
        a = LocalCoo.from_dense(da.astype(np.int64))
        b = LocalCoo.from_dense(db.astype(np.int64))
        flops, nnz_ub = spgemm_symbolic(a, b)
        prod, actual_flops = spgemm_local(a, b, arithmetic_semiring(np.int64))
        assert int(flops.sum()) == actual_flops
        col_nnz = np.bincount(prod.cols, minlength=m)
        assert (col_nnz <= nnz_ub).all()
        assert (nnz_ub <= flops).all()

    def test_empty_operands(self):
        a = LocalCoo.empty((5, 4), np.dtype(np.int64))
        b = LocalCoo.empty((4, 7), np.dtype(np.int64))
        flops, nnz_ub = spgemm_symbolic(a, b)
        assert flops.shape == (7,) and not flops.any()
        assert nnz_ub.shape == (7,) and not nnz_ub.any()

    def test_shape_mismatch_rejected(self):
        from repro.errors import SparseFormatError

        a = LocalCoo.empty((5, 4), np.dtype(np.int64))
        b = LocalCoo.empty((5, 7), np.dtype(np.int64))
        with pytest.raises(SparseFormatError):
            spgemm_symbolic(a, b)


# ---------------------------------------------------------------------------
# distributed: modes x phases property corpus
# ---------------------------------------------------------------------------


class TestPhasedIdentity:
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_modes_and_phases_bit_identical(self, nprocs):
        """Every (mode, b) combination reproduces the default product
        block-for-block, including rectangular shapes."""
        world = SimWorld(nprocs, cori_haswell())
        grid = ProcGrid(world)
        A = random_dist(grid, (41, 29), 0.2, seed=nprocs + 1)
        B = random_dist(grid, (29, 53), 0.25, seed=nprocs + 70)
        sr = arithmetic_semiring(np.int64)
        ref = A.spgemm(B, sr)
        for mode, b in MODES:
            C = A.spgemm(B, sr, merge_mode=mode, phases=b)
            assert_blocks_identical(C, ref, ctx=(mode, b))

    @pytest.mark.parametrize("exclude", [False, True])
    def test_exclude_diagonal_folded_into_merge(self, exclude):
        """The folded diagonal mask matches an explicit post-prune, for
        every mode and phase count."""
        world = SimWorld(9, cori_haswell())
        grid = ProcGrid(world)
        A = random_dist(grid, (33, 33), 0.3, seed=5)
        sr = count_semiring()
        full = A.spgemm(A, sr)
        want = full.prune(lambda v, r, c: r == c) if exclude else full
        for mode, b in MODES:
            C = A.spgemm(A, sr, exclude_diagonal=exclude, merge_mode=mode, phases=b)
            assert_blocks_identical(C, want, ctx=(mode, b, exclude))

    def test_diagonal_prune_never_counts_toward_memory(self):
        """exclude_diagonal can only shrink the observed working set."""
        peaks = {}
        for exclude in (False, True):
            world = SimWorld(4, cori_haswell())
            grid = ProcGrid(world)
            A = random_dist(grid, (40, 40), 0.4, seed=9)
            A.spgemm(A, count_semiring(), exclude_diagonal=exclude)
            peaks[exclude] = world.memory.peak_overall()
        assert peaks[True] <= peaks[False]

    def test_phases_one_is_the_default_path(self):
        """phases=1 must reproduce today's behavior bit-identically:
        blocks, clocks, comm log and memory peaks."""
        for mode in ("bulk", "stream"):
            runs = {}
            for phases in (None, 1):
                world = SimWorld(16, cori_haswell())
                grid = ProcGrid(world)
                A = random_dist(grid, (50, 50), 0.25, seed=21)
                C = A.spgemm(
                    A, arithmetic_semiring(np.int64),
                    merge_mode=mode, phases=phases,
                )
                runs[phases] = (C, world_accounting(world))
            assert_blocks_identical(runs[None][0], runs[1][0], ctx=mode)
            assert_accounting_equal(runs[None][1], runs[1][1], ctx=mode)

    def test_invalid_phases_rejected(self):
        world = SimWorld(4, cori_haswell())
        grid = ProcGrid(world)
        A = random_dist(grid, (10, 10), 0.3, seed=2)
        with pytest.raises(DistributionError):
            A.spgemm(A, arithmetic_semiring(np.int64), phases=0)

    def test_stream_and_phased_peaks_never_exceed_bulk(self):
        peaks = {}
        for mode, b in MODES:
            world = SimWorld(16, cori_haswell())
            grid = ProcGrid(world)
            A = random_dist(grid, (80, 80), 0.3, seed=13)
            A.spgemm(A, arithmetic_semiring(np.int64), merge_mode=mode, phases=b)
            peaks[(mode, b)] = world.memory.peak_overall()
        bulk = peaks[("bulk", 1)]
        for key, peak in peaks.items():
            assert peak <= bulk, (key, peak, bulk)
        # more phases can only help on this transient-dominated input
        assert peaks[("bulk", 4)] < peaks[("bulk", 1)]


# ---------------------------------------------------------------------------
# planner + budget
# ---------------------------------------------------------------------------


def reference_plan(a, b, semiring, limit, max_phases, strict_upper):
    """The planner as a per-stage loop: ``spgemm_symbolic`` per rank and
    SUMMA stage, and each candidate's estimate one phase at a time."""
    grid, q = a.grid, a.grid.q
    out_entry = 16 + semiring.out_dtype.itemsize
    b_entry = 16 + b.dtype.itemsize
    per_rank = []
    out_bounds = grid.block_bounds((a.shape[0], b.shape[1]))
    for rank, (rlo, rhi, clo, chi) in enumerate(out_bounds):
        i, j = grid.coords_of(rank)
        a_ranks = [grid.rank_of(i, s) for s in range(q)]
        b_ranks = [grid.rank_of(s, j) for s in range(q)]
        partial_ub = np.zeros(chi - clo, dtype=np.int64)
        for ar, br in [] if strict_upper and i > j else zip(a_ranks, b_ranks):
            partial_ub += spgemm_symbolic(
                a.blocks[ar], b.blocks[br], strict_upper=strict_upper and i == j
            )[1]
        out_ub = np.minimum(partial_ub, rhi - rlo)
        cum_counts = np.zeros((q, chi - clo + 1), dtype=np.int64)
        np.cumsum(
            [b.blocks[br].col_counts() for br in b_ranks], axis=1, out=cum_counts[:, 1:]
        )
        a_panel = max(a.blocks[ar].nbytes for ar in a_ranks)
        per_rank.append(
            (a_panel, np.cumsum([0, *partial_ub]), np.cumsum([0, *out_ub]), cum_counts)
        )

    def estimate(phase_count):
        worst = 0.0
        for a_panel, cum_partial, cum_out, cum_counts in per_rank:
            width = cum_partial.size - 1
            peak = float(cum_out[-1]) * out_entry
            for p in range(phase_count):
                lo, hi = block_range(width, phase_count, p)
                panel = int((cum_counts[:, hi] - cum_counts[:, lo]).max()) * b_entry
                transient = (
                    a_panel + panel + float(cum_partial[hi] - cum_partial[lo]) * out_entry
                )
                peak = max(peak, transient + float(cum_out[lo]) * out_entry)
            worst = max(worst, peak)
        return worst * a.grid.world.machine.volume_scale

    max_width = max(chi - clo for _rlo, _rhi, clo, chi in out_bounds)
    candidates = [1]
    while candidates[-1] * 2 <= min(max_phases, max(max_width, 1)):
        candidates.append(candidates[-1] * 2)
    est_by_phases, chosen, fits = {}, candidates[-1], False
    for cand in candidates:
        est_by_phases[cand] = estimate(cand)
        if est_by_phases[cand] <= limit:
            chosen, fits = cand, True
            break
    return chosen, fits, est_by_phases[chosen], est_by_phases


class TestPlanner:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_panel_planner_equals_the_per_stage_loop(self, nprocs, strict):
        """One symbolic join per rank over its panels, and every phase of
        a candidate estimated at once, plan exactly what a per-stage
        symbolic pass estimated one phase at a time: the phase count,
        whether it fits, the chosen estimate and every candidate's."""
        grid = ProcGrid(SimWorld(nprocs, cori_haswell()))
        sr = arithmetic_semiring(np.int64)
        for seed in range(3):
            a = random_dist(grid, (70, 50), 0.2, seed=seed + 40)
            b = a.transpose() if strict else random_dist(grid, (50, 90), 0.15, seed=seed)
            unlimited = SpgemmPlan.choose(a, b, sr, MemoryBudget(1.0), strict_upper=strict)
            for limit in (1.0, unlimited.est_by_phases[1] * 0.7, 1e12):
                got = SpgemmPlan.choose(
                    a, b, sr, MemoryBudget(limit), max_phases=32, strict_upper=strict
                )
                want = reference_plan(a, b, sr, limit, 32, strict)
                assert (
                    got.phases, got.fits, got.est_peak_bytes, got.est_by_phases
                ) == want, (seed, limit)

    def _operand(self, nprocs=16, seed=3):
        world = SimWorld(nprocs, cori_haswell())
        grid = ProcGrid(world)
        return world, random_dist(grid, (80, 80), 0.3, seed=seed)

    def test_unlimited_budget_plans_one_phase(self):
        _, A = self._operand()
        sr = arithmetic_semiring(np.int64)
        for budget in (None, MemoryBudget(None)):
            plan = A.plan_spgemm(A, sr, budget)
            assert plan.phases == 1 and plan.fits

    def test_estimate_is_an_upper_bound(self):
        """A plan that fits guarantees the executor's modeled peak fits."""
        world, A = self._operand()
        sr = arithmetic_semiring(np.int64)
        for b in (1, 2, 4):
            plan = SpgemmPlan.choose(A, A, sr, MemoryBudget(1.0), max_phases=b)
            est = plan.est_by_phases[b]
            fresh_world, fresh_A = self._operand()
            fresh_A.spgemm(fresh_A, sr, phases=b)
            assert fresh_world.memory.peak_overall() <= est, b

    def test_planner_fits_budget_unphased_violates(self):
        world, A = self._operand()
        sr = arithmetic_semiring(np.int64)
        A.spgemm(A, sr)
        bulk_peak = world.memory.peak_overall()

        world2, A2 = self._operand()
        budget = MemoryBudget(bulk_peak * 0.7)
        plan = A2.plan_spgemm(A2, sr, budget)
        assert plan.phases > 1
        assert plan.fits
        assert plan.est_peak_bytes <= budget.limit_bytes
        C = A2.spgemm(A2, sr, budget=budget, plan=plan)
        assert world2.memory.peak_overall() <= budget.limit_bytes
        assert not budget.violations

        world3, A3 = self._operand()
        ref = A3.spgemm(A3, sr)
        assert_blocks_identical(C, ref)

    def test_budget_only_argument_plans_internally(self):
        world, A = self._operand()
        sr = arithmetic_semiring(np.int64)
        A.spgemm(A, sr)
        peak = world.memory.peak_overall()
        world2, A2 = self._operand()
        world2.memory.set_budget(MemoryBudget(peak * 0.7))
        A2.spgemm(A2, sr, budget=world2.memory.budget)
        assert world2.memory.peak_overall() <= peak * 0.7

    def test_impossible_budget_records_violations(self):
        world, A = self._operand()
        budget = MemoryBudget(10.0)  # bytes: nothing fits
        world.memory.set_budget(budget)
        plan = A.plan_spgemm(A, arithmetic_semiring(np.int64), budget)
        assert not plan.fits
        with world.stage_scope("Mult"):
            A.spgemm(A, arithmetic_semiring(np.int64), budget=budget, plan=plan)
        assert budget.violations
        assert budget.violated_stages() == ["Mult"]
        assert budget.headroom(world.memory.stage_peak("Mult")) == 0.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        b = MemoryBudget.from_mb(2.0)
        assert b.limit_bytes == 2e6
        assert b.headroom(1.5e6) == pytest.approx(0.5e6)
        assert b.headroom(3e6) == 0.0
        assert MemoryBudget.from_mb(None).unlimited
        assert MemoryBudget(None).headroom() == float("inf")

    def test_budget_rejects_nan(self):
        # NaN compares false: a ``<= 0`` check passes it, and it fits nothing
        with pytest.raises(ValueError):
            MemoryBudget(float("nan"))
        with pytest.raises(ValueError):
            MemoryBudget.from_mb(float("nan"))

    def test_meter_budget_attribution(self):
        meter = MemoryMeter(2)
        budget = MemoryBudget(100.0)
        meter.set_budget(budget)
        meter.observe(0, 50.0, stage="a")
        meter.observe(0, 150.0, stage="a")
        meter.observe(1, 120.0, stage="b")
        meter.observe(1, 110.0, stage="b")  # not a new high-water mark
        assert [(v.stage, v.rank, v.nbytes) for v in budget.violations] == [
            ("a", 0, 150.0),
            ("b", 1, 120.0),
        ]
        assert budget.violations[0].excess_bytes == 50.0
        assert budget.violated_stages() == ["a", "b"]
        assert meter.stage_peak("b") == 120.0


# ---------------------------------------------------------------------------
# graph + pipeline wiring
# ---------------------------------------------------------------------------


class TestGraphAndPipelineWiring:
    def test_transitive_reduction_budgeted_bit_identical(self, grid4):
        _rs, _store, R = build_R(grid4, stride=100)
        plain = transitive_reduction(R)
        assert plain.phases_per_round and set(plain.phases_per_round) == {1}

        world = SimWorld(4, cori_haswell())
        grid = ProcGrid(world)
        _rs, _store, R2 = build_R(grid, stride=100)
        peak = 1.0  # impossible headroom: planner maxes phases
        tr = transitive_reduction(R2, budget=MemoryBudget(peak))
        assert max(tr.phases_per_round) > 1
        assert_blocks_identical(tr.S, plain.S)
        assert tr.removed_per_round == plain.removed_per_round

    def test_transitive_reduction_observes_memory(self, grid4):
        """The edge-removal round reports its mark-matrix + join working
        set (it previously reported nothing)."""
        _rs, _store, R = build_R(grid4, stride=100)
        world = grid4.world
        with world.stage_scope("TrRemove"):
            result = transitive_reduction(R)
        assert result.total_removed > 0
        assert world.memory.stage_peak("TrRemove") > 0

    @pytest.fixture(scope="class")
    def readset(self):
        rng = np.random.default_rng(17)
        genome = dna.random_codes(rng, 3000)
        return tile_reads(genome, 200, 80)

    def test_pipeline_budget_bit_identical_and_fits(self, readset):
        base = Pipeline.default().run(readset, PipelineConfig(nprocs=16, k=21))
        budget_mb = base.peak_memory_bytes * 0.6 / 1e6
        res = Pipeline.default().run(
            readset,
            PipelineConfig(nprocs=16, k=21, memory_budget_mb=budget_mb),
        )
        assert res.counts.get("overlap_spgemm_phases", 1) > 1
        assert res.peak_memory_bytes <= budget_mb * 1e6
        assert res.counts["budget_violations"] == 0
        assert not res.budget_violations
        a = sorted(c.sequence() for c in base.contigs.contigs)
        b = sorted(c.sequence() for c in res.contigs.contigs)
        assert a == b

    def test_pipeline_impossible_budget_surfaces_violations(self, readset):
        res = Pipeline.default().run(
            readset,
            PipelineConfig(nprocs=4, k=21, memory_budget_mb=1e-6),
        )
        assert res.counts["budget_violations"] > 0
        assert res.budget_violations
        stages = {v.stage for v in res.budget_violations}
        assert "DetectOverlap" in stages

    def test_budget_audit_survives_world_reuse(self, readset):
        """A reused world's stale meter high-water marks must not
        suppress a later run's violation records, and an earlier result's
        audit must not be rewritten by later runs."""
        from repro.pipeline import Pipeline
        from repro.seq import DistReadStore

        world = SimWorld(4, cori_haswell())
        grid = ProcGrid(world)
        store = DistReadStore.from_global(grid, readset.reads)
        pipe = Pipeline.default()
        pipe.run(store, PipelineConfig(nprocs=4, k=21))  # unbudgeted warm-up
        audited = pipe.run(
            store, PipelineConfig(nprocs=4, k=21, memory_budget_mb=1e-6)
        )
        assert audited.counts["budget_violations"] > 0
        n = len(audited.budget_violations)
        pipe.run(store, PipelineConfig(nprocs=4, k=21))  # budget-free run
        assert audited.memory_budget is not None
        assert len(audited.budget_violations) == n

    def test_memory_table_renders_budget(self, readset):
        from repro.pipeline import memory_table

        res = Pipeline.default().run(
            readset, PipelineConfig(nprocs=4, k=21, memory_budget_mb=1e-6)
        )
        text = memory_table("demo", [res])
        assert "budget" in text and "violations" in text
        assert "DetectOverlap" in text

    def test_config_validation_rejects_nan(self):
        # NaN compares false: a ``<= 0`` check passes it, and the run then
        # reports a phantom violation at every stage high-water mark
        with pytest.raises(PipelineError, match="memory_budget_mb"):
            PipelineConfig(nprocs=4, memory_budget_mb=float("nan")).validate()

    def test_config_validation(self):
        with pytest.raises(PipelineError):
            PipelineConfig(nprocs=4, memory_budget_mb=-1).validate()
        assert PipelineConfig(nprocs=4).memory_budget() is None
        b = PipelineConfig(nprocs=4, memory_budget_mb=5.0).memory_budget()
        assert b is not None and b.limit_bytes == 5e6

    def test_budget_not_checkpoint_fingerprinted(self):
        """Identical results => the budget must not invalidate checkpoints."""
        cfg_a = PipelineConfig(nprocs=4)
        cfg_b = PipelineConfig(nprocs=4, memory_budget_mb=1.0)
        for stage in Pipeline.default().stages:
            assert stage.config_signature(cfg_a) == stage.config_signature(
                cfg_b
            ), stage.name

    def test_cli_flag_round_trip(self):
        import argparse

        from repro.cli.common import add_machine_arg, add_pipeline_args, build_pipeline_config

        parser = argparse.ArgumentParser()
        add_machine_arg(parser)
        add_pipeline_args(parser)
        args = parser.parse_args(["-P", "4", "--memory-budget-mb", "7.5"])
        cfg = build_pipeline_config(args)
        assert cfg.memory_budget_mb == 7.5
        cfg.validate()
        args = parser.parse_args(["-P", "4"])
        assert build_pipeline_config(args).memory_budget_mb is None
        with pytest.raises(SystemExit):
            parser.parse_args(["--memory-budget-mb", "-3"])


# ---------------------------------------------------------------------------
# strict upper triangle: A . A^T forms each unordered pair once
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overlap_reads():
    genome = make_genome(GenomeSpec(length=3000, seed=29))
    return tile_reads(genome, 200, 40, "alternate").reads


def kmer_matrix(reads, nprocs):
    grid = ProcGrid(SimWorld(nprocs, cori_haswell()))
    store = DistReadStore.from_global(grid, reads)
    return build_kmer_matrix(store, count_kmers(store, 15, reliable_lo=1))


def dense_block(rng, shape, density):
    fill = (rng.random(shape) < density) * rng.integers(1, 5, shape)
    return LocalCoo.from_dense(fill.astype(np.int64))


class TestStrictUpper:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        k=st.integers(1, 10),
        m=st.integers(1, 30),
        density=st.floats(0.0, 0.7),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_symbolic_flops_are_the_formed_products(
        self, seed, n, k, m, density
    ):
        """With the triangle, the symbolic flops are exactly the products
        the kernel forms, and the product is the full one cut to r < c --
        rectangular blocks too, where a column past the last row keeps
        every row."""
        rng = np.random.default_rng(seed)
        a, b = dense_block(rng, (n, k), density), dense_block(rng, (k, m), density)
        sr = arithmetic_semiring(np.int64)
        flops, nnz_ub = spgemm_symbolic(a, b, strict_upper=True)
        got, got_flops = spgemm_local(a, b, sr, strict_upper=True)
        assert int(flops.sum()) == got_flops
        full, _ = spgemm_local(a, b, sr)
        want = full.select(full.rows < full.cols)
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.vals, want.vals)
        assert (np.bincount(got.cols, minlength=m) <= nnz_ub).all()
        assert (nnz_ub <= flops).all()

    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_detect_equals_the_full_product_cut_to_r_below_c(
        self, overlap_reads, nprocs
    ):
        """``detect_overlaps`` == ``spgemm(exclude_diagonal=True)`` pruned
        to r < c, bit for bit, for every phase count (more phases than a
        grid column has columns included), merge mode and ``min_shared``."""
        A = kmer_matrix(overlap_reads, nprocs)
        width = -(-A.shape[0] // A.grid.q)
        full = A.spgemm(A.transpose(), seed_semiring(), exclude_diagonal=True)
        upper = full.prune(lambda v, r, c: r >= c)
        assert 0 < upper.nnz() < full.nnz()
        for min_shared in (1, 2):
            want = upper.prune(lambda v, r, c: v["count"] < min_shared)
            for mode in ("bulk", "stream"):
                for phases in (1, 3, 32, width + 1):
                    C, _ = detect_overlaps(
                        A, min_shared=min_shared, merge_mode=mode, phases=phases
                    )
                    assert_blocks_identical(
                        C, want, ctx=(min_shared, mode, phases)
                    )

    def test_below_diagonal_ranks_form_no_products(self, overlap_reads, monkeypatch):
        """Only ranks on or above the grid diagonal join -- the diagonal
        ones joining column prefixes -- each once, whatever the phase
        count, and each A row panel's key is built once per SpGEMM, not
        per rank."""
        A = kmer_matrix(overlap_reads, 16)
        grid, q = A.grid, A.grid.q
        column_key, panel_product = distmat.column_key, distmat._panel_product
        # no run bound: a rank's product is one join however many it forms
        monkeypatch.setattr(spgemm_mod, "_PRODUCTS_PER_JOIN", 2**62)
        for phases in (1, 3, 32):
            products, key_builds = [], []

            def recording_panel_product(a_op, *args):
                block, counts, joins = panel_product(a_op, *args)
                products.append((a_op[2] is not None, joins))
                return block, counts, joins

            def counting_column_key(blk):
                key_builds.append(blk)
                return column_key(blk)

            with monkeypatch.context() as m:
                m.setattr(distmat, "_panel_product", recording_panel_product)
                m.setattr(distmat, "column_key", counting_column_key)
                m.setattr(spgemm_mod, "column_key", counting_column_key)
                C, _ = detect_overlaps(A, phases=phases)

            # q(q + 1) / 2 ranks multiply, q of them on the diagonal
            assert len(products) == q * (q + 1) // 2, phases
            assert sum(strict for strict, _ in products) == q, phases
            assert all(joins == 1 for _, joins in products), phases
            assert len(key_builds) == q, phases
            for rank, blk in enumerate(C.blocks):
                i, j = grid.coords_of(rank)
                if i > j:
                    assert blk.nnz == 0, rank
                elif i == j:  # neighbouring reads overlap on every diagonal block
                    assert blk.nnz > 0, rank

    def test_strict_plan_bounds_the_strict_run(self, overlap_reads):
        """A strict-upper plan counts only the triangle's products: on this
        input, where diagonal ranks hold the peak, it estimates less than
        the full plan, and it still bounds the modeled peak of the
        multiplication it plans."""
        A = kmer_matrix(overlap_reads, 16)
        At, sr = A.transpose(), seed_semiring()
        budget = MemoryBudget(1.0)  # nothing fits: every candidate estimated
        full = SpgemmPlan.choose(A, At, sr, budget, max_phases=8)
        strict = SpgemmPlan.choose(
            A, At, sr, budget, max_phases=8, strict_upper=True
        )
        assert strict.phases == full.phases == 8
        for phases, est in strict.est_by_phases.items():
            assert est < full.est_by_phases[phases], phases
            fresh = kmer_matrix(overlap_reads, 16)
            world = fresh.grid.world
            with world.stage_scope("Mult"):
                fresh.spgemm(fresh.transpose(), sr, phases=phases, strict_upper=True)
            assert world.memory.stage_peak("Mult") <= est, phases

    def test_strict_upper_needs_a_square_product(self):
        grid = ProcGrid(SimWorld(4, cori_haswell()))
        A = random_dist(grid, (12, 9), 0.3, seed=4)
        B = random_dist(grid, (9, 7), 0.3, seed=5)
        sr = arithmetic_semiring(np.int64)
        for attempt in (
            lambda: A.spgemm(B, sr, strict_upper=True),
            lambda: A.plan_spgemm(B, sr, MemoryBudget(1.0), strict_upper=True),
        ):
            with pytest.raises(DistributionError, match="square"):
                attempt()


# ---------------------------------------------------------------------------
# join runs: the product bound cuts a rank's join, nothing else
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def chunking_operands(nprocs):
    """The product kinds of a run, on a throwaway world: the strict-upper
    ``A . A^T`` over the seed semiring, transitive reduction's ``dirmin``
    square with the diagonal excluded, a rectangular arithmetic product
    and a square count product with the diagonal excluded."""
    genome = make_genome(GenomeSpec(length=3000, seed=29))
    A = kmer_matrix(tile_reads(genome, 200, 40, "alternate").reads, nprocs)
    _, _, R = build_R(ProcGrid(SimWorld(nprocs, cori_haswell())), stride=100)
    X = random_dist(A.grid, (41, 29), 0.2, seed=nprocs + 1)
    Y = random_dist(A.grid, (29, 53), 0.25, seed=nprocs + 70)
    Z = random_dist(A.grid, (37, 37), 0.2, seed=nprocs + 90)
    return {
        "seed": (A, A.transpose(), seed_semiring(), dict(strict_upper=True)),
        "dirmin": (R, R, dirmin_semiring(), dict(exclude_diagonal=True)),
        "arith": (X, Y, arithmetic_semiring(np.int64), {}),
        # a square product with diagonal cells for the mask to drop
        "count": (Z, Z, count_semiring(), dict(exclude_diagonal=True)),
    }


def bounded_run(monkeypatch, bound, nprocs, product, mode, phases):
    """One product under join-run bound ``bound``: its blocks, clocks, comm
    log, every memory sample, peak, trace digest and local join count."""
    a, b, sr, kw = chunking_operands(nprocs)[product]
    world = SimWorld(nprocs, cori_haswell())
    grid = ProcGrid(world)
    samples, observe = [], world.memory.observe

    def recording_observe(rank, nbytes, stage="default"):
        samples.append((rank, nbytes, stage))
        observe(rank, nbytes, stage=stage)

    monkeypatch.setattr(world.memory, "observe", recording_observe)
    monkeypatch.setattr(spgemm_mod, "_PRODUCTS_PER_JOIN", bound)
    tracer = Tracer().attach(world)
    joins = get_registry().counter("sparse.local_joins")
    before = joins.value
    with world.stage_scope("Mult"):
        C = DistSparseMatrix(grid, a.shape, a.blocks).spgemm(
            DistSparseMatrix(grid, b.shape, b.blocks), sr,
            merge_mode=mode, phases=phases, **kw,
        )
    return (
        C, world_accounting(world), samples, world.memory.peak_overall(),
        tracer.digest(), joins.value - before,
    )


def per_stage_ledger(nprocs, product, phases):
    """Each rank's ledger counts from q ``spgemm_local`` calls per column
    phase, one per SUMMA stage: A(i, s) against B(s, j)'s phase columns."""
    a, b, sr, kw = chunking_operands(nprocs)[product]
    grid, q = a.grid, a.grid.q
    strict = kw.get("strict_upper", False)
    exclude = kw.get("exclude_diagonal", False)
    ledgers = []
    for rank, (rlo, _rhi, clo, chi) in enumerate(
        grid.block_bounds((a.shape[0], b.shape[1]))
    ):
        i, j = grid.coords_of(rank)
        counts = [np.zeros((phases, q), dtype=np.int64) for _ in range(3)]
        merged, kept = (np.zeros(phases, dtype=np.int64) for _ in range(2))
        for p in range(0 if strict and i > j else phases):
            lo, hi = block_range(chi - clo, phases, p)
            cells = set()
            for s in range(q):
                b_blk = b.blocks[grid.rank_of(s, j)]
                part, formed = spgemm_local(
                    a.blocks[grid.rank_of(i, s)],
                    b_blk.select((b_blk.cols >= lo) & (b_blk.cols < hi)),
                    sr, strict_upper=strict and i == j,
                )
                cells |= set(zip(part.rows.tolist(), part.cols.tolist()))
                counts[0][p, s], counts[1][p, s] = formed, part.nnz
                counts[2][p, s] = len(cells)
            merged[p] = len(cells)
            kept[p] = sum(not exclude or r + rlo != c + clo for r, c in cells)
        ledgers.append((*counts, merged, kept))
    return ledgers


def assert_runs_identical(x, y, ctx):
    assert_blocks_identical(x[0], y[0], ctx)
    assert_accounting_equal(x[1], y[1], ctx)
    assert x[2:5] == y[2:5], ctx


class TestJoinRuns:
    @pytest.mark.parametrize("product", ["seed", "dirmin", "arith"])
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_run_bound_changes_nothing(self, monkeypatch, nprocs, product):
        """A bound of one product (every run one column) and none (every
        rank's product one run) give the same blocks, per-rank clocks,
        memory samples, peak, comm log and trace digest, for every phase
        count and merge mode."""
        for mode in ("bulk", "stream"):
            for phases in (1, 3, 32):
                ctx = (nprocs, product, mode, phases)
                run = functools.partial(bounded_run, monkeypatch)
                whole = run(2**62, nprocs, product, mode, phases)
                one = run(1, nprocs, product, mode, phases)
                assert_runs_identical(one, whole, ctx)
                # one join per rank that multiplies, whatever the phases;
                # the bound only cuts a rank's product into column runs
                q = int(round(nprocs**0.5))
                assert whole[5] == (
                    q * (q + 1) // 2 if product == "seed" else nprocs
                ), ctx
                assert one[5] > whole[5], ctx

    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_one_join_ledger_equals_the_per_stage_products(self, monkeypatch, nprocs):
        """What a rank's one join counts for the cost model -- per (phase,
        stage) the products formed, the partial's nonzeros and (streamed)
        the accumulator's distinct keys; per phase the merged and kept
        nonzeros -- equals what q separate ``spgemm_local`` calls per
        phase, one per SUMMA stage, form."""
        recorded, rank_charges = [], distmat._rank_charges

        def recording_rank_charges(received, counts, *args):
            recorded.append(counts)
            return rank_charges(received, counts, *args)

        monkeypatch.setattr(distmat, "_rank_charges", recording_rank_charges)
        for product in ("seed", "dirmin", "arith", "count"):
            for phases in (1, 3, 32):
                want = per_stage_ledger(nprocs, product, phases)
                for mode in ("bulk", "stream"):
                    recorded.clear()
                    bounded_run(monkeypatch, 2**15, nprocs, product, mode, phases)
                    assert len(recorded) == nprocs
                    for rank, (got, ref) in enumerate(zip(recorded, want)):
                        ctx = (product, phases, mode, rank)
                        flops, part, held, merged, kept = ref
                        if mode == "bulk":  # no accumulator
                            held = np.zeros_like(held)
                        for g, w in zip(got, (flops, part, held, merged, kept)):
                            assert np.array_equal(g, w), ctx

