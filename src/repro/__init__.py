"""repro: distributed-memory parallel contig generation for de novo
long-read genome assembly.

A from-scratch Python reproduction of ELBA (Guidi, Raulet, et al., ICPP
2022): the full Overlap-Layout-Consensus pipeline over distributed sparse
matrices, with the paper's contig-generation algorithm -- branch masking,
connected components, greedy multiway partitioning, induced-subgraph
redistribution and local depth-first assembly -- as the core contribution.

Quickstart::

    from repro import Pipeline, PipelineConfig
    from repro.seq import make_genome, GenomeSpec, sample_reads

    genome = make_genome(GenomeSpec(length=20_000, seed=1))
    reads = sample_reads(genome, depth=20, mean_length=600, rng=2)
    # the P simulated ranks run one after another in this process; the
    # modeled clock says what P real ranks would have taken
    cfg = PipelineConfig(nprocs=4, k=21)
    result = Pipeline.default().run(reads, cfg)
    print(result.contigs.count, "contigs,", result.contigs.longest(), "bp longest")

Partial runs, injection, checkpoint/resume, hooks::

    from repro import TraceObserver

    pipe = Pipeline.default(observers=[TraceObserver()])

    partial = pipe.run(reads, cfg, until="TrReduction")   # stop after S
    S = partial.artifacts["S"]

    again = pipe.run(reads, cfg, from_artifacts={"S": S}) # reuse S, only
    print(again.stages_run)                               # ['ExtractContig']

    # checkpoints: the second run recomputes nothing upstream of the
    # changed contig-stage knob
    pipe.run(reads, cfg, checkpoint_dir="ckpt")
    cfg.partition_method = "greedy"
    resumed = pipe.run(reads, cfg, checkpoint_dir="ckpt")

    # tracing and fault injection attach the same way, as observers
    tracer = repro.telemetry.Tracer()
    pipe.run(reads, cfg, observers=[tracer])
    tracer.digest()                 # identical on every run of this input
"""

from .errors import ReproError
from .pipeline import (
    MAIN_STAGES,
    CollectingObserver,
    Pipeline,
    PipelineConfig,
    PipelineObserver,
    PipelineResult,
    RunContext,
    Stage,
    TraceObserver,
)
from .scaffold import (
    PolishConfig,
    ScaffoldConfig,
    polish_contigs,
    scaffold_contigs,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "ReproError",
    "PipelineConfig",
    "PipelineResult",
    "MAIN_STAGES",
    "Pipeline",
    "Stage",
    "RunContext",
    "PipelineObserver",
    "TraceObserver",
    "CollectingObserver",
    "ScaffoldConfig",
    "scaffold_contigs",
    "PolishConfig",
    "polish_contigs",
]
