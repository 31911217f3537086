"""Trace an assembly run and break its modeled time down per rank.

Reproduces the paper's Fig. 5 view -- *where does each rank spend its
time in each phase* -- from one traced pipeline run:

1. run the full Algorithm 1 pipeline with a :class:`~repro.telemetry.Tracer`
   attached, collecting a deterministic span tree over the modeled clock;
2. print the per-stage trace summary (supersteps, collectives, comm
   volume per phase);
3. print the Fig. 5-style per-rank breakdown table with the max/p50/
   imbalance footer the partitioning comparison optimizes;
4. write the Chrome trace to ``trace_and_profile.json`` -- open it at
   chrome://tracing or https://ui.perfetto.dev for the lane view, one
   lane per rank plus a pipeline lane.

Run:  python examples/trace_and_profile.py
"""

from repro import Pipeline, PipelineConfig
from repro.bench import build_bench_dataset
from repro.pipeline import rank_breakdown_table
from repro.telemetry import Tracer, summary_table, write_chrome_trace

NPROCS = 16


def main() -> None:
    dataset = build_bench_dataset("c_elegans", scale=20_000)
    rs = dataset.readset
    print(
        f"dataset: {dataset.name} at 1/{dataset.scale} scale -- "
        f"{rs.count} reads, {len(rs.genome)} bp genome, P={NPROCS}\n"
    )

    cfg = PipelineConfig(nprocs=NPROCS, k=17, reliable_lo=1)
    tracer = Tracer()
    result = Pipeline.default().run(rs, cfg, observers=[tracer])
    print(summary_table(tracer))

    print()
    print(rank_breakdown_table(f"{dataset.name} P={NPROCS}", result))

    n = write_chrome_trace(tracer, "trace_and_profile.json", include_wall=True)
    print(f"\nwrote {n} trace events to trace_and_profile.json")
    print("open at chrome://tracing or https://ui.perfetto.dev")

    # the digest hashes the modeled span tree (wall time excluded): any
    # run of this program on this input produces the same one
    print(f"\ntrace digest: {tracer.digest()[:16]}...")
    print(
        f"contigs: {len(result.contigs.contigs)}, "
        f"modeled total {result.modeled_total:.4f}s"
    )


if __name__ == "__main__":
    main()
