"""Scaffolding + polishing: the paper's §7 future work, implemented.

The paper closes with: "Future work includes developing a polishing or
scaffolding phase to further improve the quality of ELBA assembly.  One
possibility is to once again use the sparse matrix abstraction to find
similarities within the contig set and obtain even longer sequences."

This example assembles a repeat-bearing genome (branch masking fragments
the assembly at repeat boundaries), then:

1. **polishes** the contigs -- each contig's reads vote per column,
   correcting the single-read errors that verbatim concatenation inherits;
2. **scaffolds** the polished contigs -- each round is one run of the
   pipeline itself (k-mer seeding, SpGEMM candidates, x-drop alignment,
   transitive reduction, Algorithm 2 walk) over the contig set, and
   adjacent contigs merge into longer sequences;
3. scores all three assemblies (raw / polished / scaffolded) against the
   reference, showing completeness holding while contig count drops and
   the longest contig grows -- exactly the effect the paper attributes to
   the polishing stages of Hifiasm/HiCanu in Table 4.

Run:  python examples/scaffold_and_polish.py
"""

from repro import Pipeline, PipelineConfig
from repro.quality import evaluate_assembly
from repro.scaffold import (
    PolishConfig,
    ScaffoldConfig,
    gap_fill,
    polish_contigs,
    scaffold_contigs,
)
from repro.seq import GenomeSpec, make_genome, sample_reads


def score(label, seqs, genome, k=21):
    rep = evaluate_assembly(seqs, genome, k=k)
    print(
        f"  {label:<12} completeness={rep.completeness:6.2%}  "
        f"contigs={rep.n_contigs:<4} longest={rep.longest_contig:<6} "
        f"n50={rep.n50:<6} misassembled={rep.misassemblies}"
    )
    return rep


def main() -> None:
    # a genome with interspersed repeats: repeats create branch vertices,
    # branch masking cuts the string graph there, the assembly fragments
    genome = make_genome(
        GenomeSpec(length=20_000, n_repeats=6, repeat_length=260,
                   repeat_copies=2, seed=11)
    )
    reads = sample_reads(
        genome, depth=18, mean_length=700, rng=3,
        error_rate=0.003, error_mix=(1.0, 0.0, 0.0),
    )
    print(f"simulated {reads.count} reads at {reads.depth():.1f}x over "
          f"{genome.size} bp (6 interspersed repeats)")

    result = Pipeline.default().run(
        reads,
        PipelineConfig(nprocs=4, k=21, reliable_lo=2, xdrop=15, end_margin=20),
    )
    contigs = result.contigs.contigs
    print(f"\npipeline produced {len(contigs)} contigs")
    print("\nassembly quality:")
    raw = score("raw", [c.codes for c in contigs], genome)

    # 1. polishing: per-column majority vote of each contig's own reads
    polished = polish_contigs(contigs, reads, PolishConfig(k=15, min_depth=2))
    print(f"\npolish corrected {polished.total_changed} bases "
          f"({polished.total_reads_used} reads mapped back)")
    pol = score("polished", [c.codes for c in polished.contigs], genome)

    # 2. scaffolding: recursive sparse-matrix OLC over the contig set
    scaffolded = scaffold_contigs(
        polished.contigs, ScaffoldConfig(k=25, min_overlap=60, nprocs=1)
    )
    for r in scaffolded.rounds:
        print(f"scaffold round {r.round_index}: {r.n_input} -> {r.n_output} "
              f"({r.n_chains} chains, {r.n_absorbed} absorbed)")
    sca = score("scaffolded", scaffolded.contigs, genome)

    # 3. gap filling: the bases of a masked branch read belong to *no*
    # contig, so adjacent contigs sit across a small gap no overlap can
    # close.  gap_fill selects one bridge read per contig-end slot and
    # walks contig-read-contig chains through the gaps.
    filled = gap_fill(scaffolded.contigs, reads, ScaffoldConfig(k=25, min_overlap=25))
    for r in filled.rounds:
        print(f"gap-fill round {r.round_index}: {r.n_input} -> {r.n_output} "
              f"({r.n_chains} chains, {r.n_absorbed} absorbed)")
    gf = score("gap-filled", filled.contigs, genome)

    print("\nsummary: polishing fixes bases; scaffolding merges overlapping "
          "contigs; gap filling bridges the branch-masked gaps:")
    print(f"  contigs {raw.n_contigs} -> {gf.n_contigs}, "
          f"longest {raw.longest_contig} -> {gf.longest_contig}, "
          f"completeness {raw.completeness:.2%} -> {gf.completeness:.2%}")


if __name__ == "__main__":
    main()
