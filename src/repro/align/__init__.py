"""Pairwise x-drop alignment and overlap classification.

The scalar functions (:func:`xdrop_extend`, :func:`classify_overlap`) are
the readable reference; the :mod:`~repro.align.batch` engine runs the same
computations across whole arrays of candidate pairs and is the hot path
used by the pipeline.
"""

from .batch import (
    KIND_CONTAINED_A,
    KIND_CONTAINED_B,
    KIND_DOVETAIL,
    KIND_INTERNAL,
    BatchOverlapResult,
    BatchXdropResult,
    EdgeFieldArrays,
    batch_xdrop_extend,
    classify_overlaps,
    complemented_pool,
    iter_classified_chunks,
    pack_codes,
)
from .classify import EdgeFields, OverlapClass, OverlapInfo, classify_overlap
from .xdrop import XdropResult, extend_banded, extend_gapless, xdrop_extend

__all__ = [
    "XdropResult",
    "xdrop_extend",
    "extend_gapless",
    "extend_banded",
    "OverlapClass",
    "OverlapInfo",
    "EdgeFields",
    "classify_overlap",
    "BatchXdropResult",
    "BatchOverlapResult",
    "EdgeFieldArrays",
    "batch_xdrop_extend",
    "classify_overlaps",
    "complemented_pool",
    "iter_classified_chunks",
    "pack_codes",
    "KIND_DOVETAIL",
    "KIND_CONTAINED_A",
    "KIND_CONTAINED_B",
    "KIND_INTERNAL",
]
