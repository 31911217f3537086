"""Quickstart: assemble a small simulated genome end to end.

Runs the full ELBA pipeline (k-mer counting -> overlap detection ->
x-drop alignment -> transitive reduction -> distributed contig generation)
on a 10 kb synthetic genome sampled at 15x coverage, then scores the
assembly against the known reference.  Uses the stage engine with a
progress observer, and shows a partial run + artifact injection: the
contig stage re-runs with a different partitioner without recomputing the
string graph.

Run:  python examples/quickstart.py
"""

from repro import Pipeline, PipelineConfig, PipelineObserver
from repro.quality import evaluate_assembly
from repro.seq import GenomeSpec, make_genome, sample_reads


class Progress(PipelineObserver):
    """Minimal observer: one line per completed stage."""

    def on_stage_end(self, stage, ctx, timing):
        print(f"  [{stage:<14}] modeled {timing.modeled_seconds * 1e3:8.3f} ms  "
              f"wall {timing.wall_seconds * 1e3:7.1f} ms")


def main() -> None:
    # 1. simulate a genome and a long-read set
    genome = make_genome(GenomeSpec(length=10_000, seed=42))
    reads = sample_reads(
        genome,
        depth=15,
        mean_length=600,
        rng=7,
        error_rate=0.002,           # HiFi-like
        error_mix=(1.0, 0.0, 0.0),  # substitutions only -> fast aligner
    )
    print(f"simulated {reads.count} reads "
          f"({reads.depth():.1f}x coverage, mean {reads.mean_length():.0f} bp)")

    # 2. run the stage pipeline on a simulated 2x2 process grid.  The four
    #    ranks run one after another in this process; the modeled clock
    #    says what four real ranks would have taken.
    config = PipelineConfig(
        nprocs=4,
        k=21,
        reliable_lo=2,   # drop singleton k-mers (sequencing errors)
        xdrop=15,
        end_margin=20,
    )
    pipeline = Pipeline.default(observers=[Progress()])
    print("\npipeline stages:", " -> ".join(pipeline.stage_names))
    result = pipeline.run(reads, config)

    # 3. inspect the outputs
    contigs = result.contigs
    print(f"\nassembled {contigs.count} contigs, "
          f"longest {contigs.longest()} bp, "
          f"total {contigs.total_bases()} bp")
    print(f"pipeline counts: {result.counts}")

    # 4. score against the known reference (QUAST-style)
    report = evaluate_assembly(contigs.contigs, genome, k=21)
    print(f"\nquality: {report.row()}")
    print(f"N50 = {report.n50}, NG50 = {report.ng50}")

    # 5. partial run + injection: stop at the string graph, then feed it
    #    back in to re-run ONLY the contig stage with another partitioner
    partial = pipeline.run(reads, config, until="TrReduction")
    print(f"\npartial run produced {sorted(k for k in partial.artifacts if k != 'reads')}")
    config.partition_method = "greedy"
    again = pipeline.run(reads, config, from_artifacts={"S": partial.artifacts["S"]})
    print(f"re-ran {again.stages_run} only: "
          f"{again.contigs.count} contigs (same assembly: "
          f"{sorted(c.sequence() for c in again.contigs.contigs) == sorted(c.sequence() for c in contigs.contigs)})")


if __name__ == "__main__":
    main()
