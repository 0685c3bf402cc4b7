"""Exact-arithmetic good measures on the Cantor space.

Builds finite prefixes of Fraïssé chains of weighted clopen partitions,
manipulates the balanced-matrix categories encoding measure automorphisms,
and decides Rokhlin-type genericity properties from the clopen values set.
"""

from .chain import AutomorphismPrefix, ClopenSet, GoodMeasureChain
from .composite import CompositeMeasure, maximality_refute, weighted_sum
from .cycles import CycleTuple, TupleMorphism, rokhlin_decide
from .matrices import BalancedMatrix, CycleMatrix, MatrixMorphism
from .partitions import (
    CommonRefinement,
    PartitionMorphism,
    WeightedPartition,
    amalgamate,
    common_refinement,
    split_cell,
    verify_morphism,
)
from .values import (
    ExactValue,
    GroupDescriptor,
    INF,
    IrrationalSymbol,
    RationalGroup,
)

__all__ = [
    "AutomorphismPrefix",
    "BalancedMatrix",
    "ClopenSet",
    "CommonRefinement",
    "CompositeMeasure",
    "CycleMatrix",
    "CycleTuple",
    "ExactValue",
    "GoodMeasureChain",
    "GroupDescriptor",
    "INF",
    "IrrationalSymbol",
    "MatrixMorphism",
    "PartitionMorphism",
    "RationalGroup",
    "TupleMorphism",
    "WeightedPartition",
    "amalgamate",
    "common_refinement",
    "maximality_refute",
    "rokhlin_decide",
    "split_cell",
    "verify_morphism",
    "weighted_sum",
]

__version__ = "0.1.0"
