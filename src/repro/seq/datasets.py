"""Scaled-down synthetic counterparts of the paper's datasets (Table 2).

| Label       | Depth | Reads (K) | Length | Genome  | Error |
|-------------|-------|-----------|--------|---------|-------|
| O. sativa   | 30x   | 638.2     | 19,695 | 500 Mb  | 0.5%  |
| C. elegans  | 40x   | 420.7     | 14,550 | 100 Mb  | 0.5%  |
| H. sapiens  | 10x   | 4,421.6   |  7,401 | 3.2 Gb  | 15.0% |

The presets preserve each dataset's *relative* characteristics -- depth,
read-length-to-genome ratio and error rate -- at a laptop scale set by
``scale`` (genome length = paper length / scale; default scale keeps runs in
seconds).  Relative genome sizes across species are preserved exactly
(O. sativa 5x C. elegans; H. sapiens 32x C. elegans), which is what drives
the paper's "speedup grows with genome size" observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simulate import GenomeSpec, ReadSet, make_genome, sample_reads

__all__ = ["DatasetPreset", "PRESETS", "build_dataset"]

#: Default down-scaling of genome/read lengths relative to Table 2.
DEFAULT_SCALE = 10_000


@dataclass(frozen=True)
class DatasetPreset:
    """One species row of Table 2, parameterized for the simulator."""

    label: str
    paper_genome_mb: float
    depth: float
    paper_read_length: int
    error_rate: float
    error_mix: tuple[float, float, float]
    n_repeats_per_100kb: float = 2.0
    repeat_length_frac: float = 0.5  # fraction of read length
    seed: int = 7

    def scaled_genome_length(self, scale: int = DEFAULT_SCALE) -> int:
        return max(int(self.paper_genome_mb * 1e6 / scale), 2_000)

    def scaled_read_length(self, scale: int = DEFAULT_SCALE) -> int:
        # read length shrinks with the sqrt of the scale so reads stay long
        # relative to k-mers while genomes shrink linearly
        return max(int(self.paper_read_length / scale**0.5), 150)


PRESETS: dict[str, DatasetPreset] = {
    "o_sativa": DatasetPreset(
        label="O. sativa",
        paper_genome_mb=500.0,
        depth=30.0,
        paper_read_length=19_695,
        error_rate=0.005,
        error_mix=(0.8, 0.1, 0.1),
    ),
    "c_elegans": DatasetPreset(
        label="C. elegans",
        paper_genome_mb=100.0,
        depth=40.0,
        paper_read_length=14_550,
        error_rate=0.005,
        error_mix=(0.8, 0.1, 0.1),
    ),
    "h_sapiens": DatasetPreset(
        label="H. sapiens",
        paper_genome_mb=3_200.0,
        depth=10.0,
        paper_read_length=7_401,
        error_rate=0.15,
        error_mix=(0.4, 0.3, 0.3),
    ),
}


def build_dataset(
    preset: DatasetPreset | str,
    scale: int = DEFAULT_SCALE,
    seed: int | None = None,
) -> ReadSet:
    """Materialize a preset into a simulated genome + read set."""
    if isinstance(preset, str):
        preset = PRESETS[preset]
    seed = preset.seed if seed is None else seed
    glen = preset.scaled_genome_length(scale)
    rlen = preset.scaled_read_length(scale)
    n_repeats = int(preset.n_repeats_per_100kb * glen / 100_000)
    genome = make_genome(
        GenomeSpec(
            length=glen,
            n_repeats=n_repeats,
            repeat_length=int(rlen * preset.repeat_length_frac),
            repeat_copies=2,
            seed=seed,
        )
    )
    return sample_reads(
        genome,
        depth=preset.depth,
        mean_length=rlen,
        rng=seed + 1,
        error_rate=preset.error_rate,
        error_mix=preset.error_mix,
    )
