"""Alpha-beta-gamma machine cost model for the simulated MPI runtime.

The paper evaluates ELBA on two machines (Table 1): the Haswell partition of
Cori (Cray XC40, Aries dragonfly interconnect) and the POWER9 CPUs of Summit
(InfiniBand fat tree).  Real hardware is unavailable here, so each machine is
described by a small set of rate parameters and every simulated MPI operation
charges *modeled* seconds derived from standard collective cost formulas:

* ``alpha``  -- per-message latency in seconds,
* ``beta``   -- per-byte transfer time in seconds (inverse bandwidth),
* ``gamma``  -- per-elementary-operation compute time in seconds,
* ``simd_penalty`` -- multiplier applied to alignment-kernel operations.
  The paper notes ELBA's x-drop library uses SSE/AVX2 intrinsics that the
  POWER9 lacks, making alignment disproportionately slow on Summit; the
  penalty reproduces that effect.

The absolute values are calibration constants, not measurements: what matters
for reproducing the paper's *shape* (which stages scale, where the
latency-bound plateaus appear, how the two machines differ) are the ratios
between the two presets and between alpha, beta and gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MachineModel",
    "cori_haswell",
    "summit_cpu",
    "zero_cost",
    "MACHINE_PRESETS",
]


@dataclass(frozen=True)
class MachineModel:
    """Abstract machine description used to charge modeled time.

    Parameters
    ----------
    name:
        Human-readable machine name (appears in reports).
    alpha:
        Point-to-point message latency in seconds.
    beta:
        Seconds per byte of payload moved between two ranks.
    gamma:
        Seconds per elementary local operation (one payload element touched
        by a vectorized kernel).
    simd_penalty:
        Multiplier on ``gamma`` for alignment-kernel operations (``kind=
        "alignment"``); models missing SIMD intrinsics.
    ranks_per_node:
        MPI ranks placed on one node (Table 1's cores per node); the paper
        reports node counts on its x-axes.
    node_memory_gb:
        Memory per node, used only for capacity sanity checks.
    volume_scale:
        Extrapolation factor for *data volume*: every byte count and op
        count is multiplied by it before being charged, while per-message
        latency counts are not.  Benchmarks set this to the dataset
        down-scaling factor (see :mod:`repro.seq.datasets`) so modeled
        times correspond to the paper-sized inputs: payloads and flops grow
        linearly with genome size, but the *number* of collectives does
        not.
    """

    name: str
    alpha: float
    beta: float
    gamma: float
    simd_penalty: float = 1.0
    ranks_per_node: int = 32
    node_memory_gb: float = 128.0
    volume_scale: float = 1.0

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def op_time(self, ops: float, kind: str = "default") -> float:
        """Modeled seconds for ``ops`` elementary operations on one rank."""
        if ops < 0:
            raise ValueError(f"negative op count: {ops}")
        scale = self.simd_penalty if kind == "alignment" else 1.0
        return float(ops) * self.volume_scale * self.gamma * scale

    def op_time_all(self, ops) -> np.ndarray:
        """Vectorized :meth:`op_time` of default-kind ops."""
        arr = np.asarray(ops, dtype=np.float64)
        if arr.size and arr.min() < 0:
            raise ValueError(f"negative op count in {arr}")
        # multiply in the same order as the scalar path so per-element
        # float64 results match op_time bit for bit
        return arr * self.volume_scale * self.gamma

    # ------------------------------------------------------------------
    # communication primitives (time charged to each participating rank)
    # ------------------------------------------------------------------
    def ptp_time(self, nbytes: float, messages: int = 1) -> float:
        """One point-to-point transfer of ``nbytes`` split into ``messages``."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        return self.alpha * max(messages, 1) + self.beta * float(nbytes) * self.volume_scale

    def collective_time(
        self,
        kind: str,
        nprocs: int,
        total_bytes: float = 0.0,
        max_bytes: float = 0.0,
    ) -> float:
        """Modeled seconds for one collective over ``nprocs`` ranks.

        ``total_bytes`` is the sum of payload bytes over all ranks and
        ``max_bytes`` the largest per-rank payload; the classic formulas for
        tree/ring/pairwise-exchange algorithms are used per collective kind.
        """
        if nprocs < 1:
            raise ValueError(f"collective over {nprocs} ranks")
        if total_bytes < 0 or max_bytes < 0:
            raise ValueError("negative byte counts")
        total_bytes *= self.volume_scale
        max_bytes *= self.volume_scale
        p = nprocs
        logp = math.ceil(math.log2(p)) if p > 1 else 0
        a, b = self.alpha, self.beta
        if p == 1:
            return 0.0
        if kind == "bcast":
            # binomial tree broadcast of max_bytes
            return (a + b * max_bytes) * logp
        if kind in ("allgather", "gather"):
            # recursive-doubling style: latency log p, bandwidth on the
            # aggregate result payload (all-but-own fraction)
            bw = b * total_bytes * (p - 1) / p
            return a * logp + bw
        if kind == "allreduce":
            # Rabenseifner: reduce_scatter + allgather, each moving the
            # per-rank array (max_bytes) once across the all-but-own fraction
            return a * 2 * logp + 2 * b * max_bytes * (p - 1) / p
        if kind == "reduce_scatter":
            # pairwise-exchange halving: each rank sends/receives a shrinking
            # slice of its local array, totalling max_bytes*(p-1)/p
            return a * logp + b * max_bytes * (p - 1) / p
        if kind in ("alltoall", "alltoallv"):
            # pairwise-exchange algorithm: p-1 rounds, bandwidth bound by the
            # heaviest rank's aggregate send volume
            return a * (p - 1) + b * max_bytes
        raise ValueError(f"unknown collective kind: {kind!r}")

    def scaled(self, volume_scale: float) -> "MachineModel":
        """Copy of this model extrapolating data volumes by ``volume_scale``."""
        if volume_scale <= 0:
            raise ValueError(f"volume_scale must be positive, got {volume_scale}")
        return replace(self, volume_scale=float(volume_scale))


def cori_haswell() -> MachineModel:
    """Preset for the Cori Haswell partition (Cray XC40, Aries dragonfly).

    Fast network (low latency, high per-rank bandwidth) and x86 cores with
    AVX2, so no SIMD penalty.  Matches Table 1: 32 cores/node, 128 GB.
    """
    return MachineModel(
        name="cori-haswell",
        alpha=1.5e-6,
        beta=1.0 / 9.0e9,
        gamma=6.0e-10,
        simd_penalty=1.0,
        ranks_per_node=32,
        node_memory_gb=128.0,
    )


def summit_cpu() -> MachineModel:
    """Preset for Summit's POWER9 CPUs (InfiniBand fat tree).

    The paper observes: lower per-core network bandwidth (only 32 of 42
    cores used, not saturating the NIC), higher effective latency for the
    latency-bound phases, and a large alignment slowdown from the missing
    SSE/AVX2 intrinsics.  Matches Table 1: 512 GB/node.
    """
    return MachineModel(
        name="summit-cpu",
        alpha=4.0e-6,
        beta=1.0 / 4.5e9,
        gamma=8.0e-10,
        simd_penalty=2.6,
        ranks_per_node=32,
        node_memory_gb=512.0,
    )


def aws_hpc() -> MachineModel:
    """Preset for a cloud HPC cluster (EFA-class fabric, x86 instances).

    The paper's §7 names running ELBA in a cloud environment as future
    work, citing the authors' own measurement study that cloud fabrics
    have closed most of the bandwidth gap while retaining noticeably
    higher small-message latency than Cray Aries [Guidi et al., ICPE'21
    companion].  The preset encodes exactly that regime: per-core compute
    on par with Cori, comparable bandwidth, ~10x the latency -- so the
    bandwidth-bound stages scale like Cori's while the latency-bound
    phases (TrReduction, ExtractContig) plateau earlier.
    """
    return MachineModel(
        name="aws-hpc",
        alpha=1.5e-5,
        beta=1.0 / 8.0e9,
        gamma=6.0e-10,
        simd_penalty=1.0,
        ranks_per_node=32,
        node_memory_gb=256.0,
    )


def zero_cost() -> MachineModel:
    """A machine with zero modeled cost: useful for pure-correctness tests."""
    return MachineModel(
        name="zero-cost",
        alpha=0.0,
        beta=0.0,
        gamma=0.0,
        simd_penalty=1.0,
        ranks_per_node=32,
        node_memory_gb=1e9,
    )


MACHINE_PRESETS = {
    "cori-haswell": cori_haswell,
    "summit-cpu": summit_cpu,
    "aws-hpc": aws_hpc,
    "zero-cost": zero_cost,
}
