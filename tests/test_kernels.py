"""Kernel-tier registry: numpy is the one tier.

The numpy batch kernels are the only fast path.  ``resolve_kernel_tier``
still answers for callers that name a tier: ``None`` and ``"numpy"``
resolve to ``"numpy"``, any other name raises :class:`KernelError`.
"""

import pytest

from repro.errors import KernelError
from repro.kernels import resolve_kernel_tier
from repro.pipeline import PipelineConfig
from repro.pipeline.stages import AlignmentStage, ExtractContigStage


class TestRegistry:
    def test_default_is_numpy(self):
        assert resolve_kernel_tier(None) == "numpy"
        assert PipelineConfig.kernel_tier == "numpy"

    def test_unknown_tier_raises(self):
        with pytest.raises(KernelError, match="unknown kernel tier"):
            resolve_kernel_tier("fortran")


class TestConfigAndCli:
    def test_tier_not_fingerprinted(self):
        # the tier is no knob, so it stays out of checkpoint fingerprints
        assert "kernel_tier" not in AlignmentStage.config_fields
        assert "kernel_tier" not in ExtractContigStage.config_fields
