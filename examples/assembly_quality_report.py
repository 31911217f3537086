"""Assembly quality against the reference, in the style of the paper's Table 4.

Assembles the O. sativa bench dataset with distributed ELBA at three grid
sizes and prints the QUAST-style metrics (completeness, longest contig,
contig count, misassemblies) of each assembly against the simulated genome.
The paper's tool-vs-tool rows (Hifiasm, HiCanu) are not reproduced.

Run:  python examples/assembly_quality_report.py
"""

from repro.bench import build_bench_dataset, sweep_pipeline
from repro.quality import evaluate_assembly


def main() -> None:
    dataset = build_bench_dataset("o_sativa")
    rs = dataset.readset
    print(
        f"dataset: {dataset.name} at 1/{dataset.scale} scale -- "
        f"{rs.count} reads, {len(rs.genome)} bp genome"
    )

    print("\nrunning distributed ELBA (P = 4, 16, 64)...")
    for result in sweep_pipeline(dataset, "cori-haswell", [4, 16, 64]):
        report = evaluate_assembly(
            result.contigs.contigs, dataset.genome, k=dataset.k
        )
        print(
            f"P={result.config.nprocs:<3} modeled={result.modeled_total:9.2f}s  "
            f"{report.row()}  N50={report.n50}  NG50={report.ng50}  "
            f"duplication={report.duplication_ratio:.2f}  "
            f"unaligned={report.unaligned_contigs}"
        )


if __name__ == "__main__":
    main()
