"""Merge-convertible erasure codes over small finite fields.

Builds, executes and verifies conversions that merge several MDS or
(r, delta)-locally-repairable stripes into one, with exact access-cost
accounting checked against the matching lower bounds.
"""

from .field import FieldCtx, FieldElem, field_create
from .codes import LinearCode, LocalityCertificate, InfeasibleCheck
from .matrix import MatQ, vandermonde
from .pgl import GroupTable, Mobius, RationalFunction, SplitStructure
from .bounds import BoundReport, MergeParams
from .convert import (
    AccessReport,
    ConversionPlan,
    ConvertibleCode,
    build_lrc_merge,
    build_mds_merge,
    build_mds_to_lrc,
    execute,
    verify_convertible,
)
from .sim import ClusterLayout, SimReport, simulate

__all__ = [
    "FieldCtx",
    "FieldElem",
    "field_create",
    "LinearCode",
    "LocalityCertificate",
    "InfeasibleCheck",
    "MatQ",
    "vandermonde",
    "GroupTable",
    "Mobius",
    "RationalFunction",
    "SplitStructure",
    "BoundReport",
    "MergeParams",
    "AccessReport",
    "ConversionPlan",
    "ConvertibleCode",
    "build_lrc_merge",
    "build_mds_merge",
    "build_mds_to_lrc",
    "execute",
    "verify_convertible",
    "ClusterLayout",
    "SimReport",
    "simulate",
]
