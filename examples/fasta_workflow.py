"""File-based workflow: FASTA in, FASTA out.

Simulates a read set, round-trips it through FASTA files (the interface a
downstream user would have), assembles, and writes the contig set with
provenance headers -- the shape of a real assembler invocation.

Run:  python examples/fasta_workflow.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro import Pipeline, PipelineConfig
from repro.mpi import ProcGrid, SimWorld, cori_haswell
from repro.seq import (
    GenomeSpec,
    load_distributed,
    make_genome,
    sample_reads,
    write_fasta,
)


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    workdir.mkdir(parents=True, exist_ok=True)
    reads_path = workdir / "reads.fasta"
    contigs_path = workdir / "contigs.fasta"
    reference_path = workdir / "reference.fasta"

    # 1. simulate and write inputs
    genome = make_genome(GenomeSpec(length=6_000, seed=11))
    readset = sample_reads(genome, depth=12, mean_length=450, rng=13, error_rate=0.0)
    write_fasta(reference_path, [("reference", genome)])
    write_fasta(
        reads_path,
        [
            (f"read{rec.read_id} start={rec.start} strand={rec.strand}", codes)
            for rec, codes in zip(readset.records, readset.reads)
        ],
    )
    print(f"wrote {readset.count} reads to {reads_path}")

    # 2. load distributed and assemble
    world = SimWorld(4, cori_haswell())
    grid = ProcGrid(world)
    store = load_distributed(grid, reads_path)
    result = Pipeline.default().run(
        store, PipelineConfig(nprocs=4, k=21, reliable_lo=2, end_margin=10)
    )

    # 3. write contigs with provenance headers
    records = []
    for i, contig in enumerate(result.contigs.sorted_by_length()):
        header = (
            f"contig{i} length={contig.length} reads={contig.n_reads} "
            f"path={','.join(map(str, contig.read_path))}"
        )
        records.append((header, contig.codes))
    write_fasta(contigs_path, records)
    print(f"wrote {len(records)} contigs to {contigs_path}")
    print(f"longest contig: {result.contigs.longest()} bp "
          f"(reference: {genome.size} bp)")


if __name__ == "__main__":
    main()
