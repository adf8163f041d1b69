"""Finite binary-relation semigroups generated by partitions of pair sets.

The package builds the four canonical partitions of a Cartesian square,
generates subsemigroups of the relation semigroup by closure under
composition, classifies abstract Cayley tables against the structure of
those closures, and searches for d-transitive representations at bounded
ground size.
"""

from .errors import (AssociativityError, ClosureOverflowError, FormatError,
                     GroundMismatchError, GuardExceededError,
                     NotCommutativeBandError, NotEquivalenceError,
                     NotInClassError, RefinementError)
from .relations import BinaryRelation, GroundSet
from .partitions import (LabeledPartition, Partition, ProductKind,
                         canonical_labeling, enumerate_partitions,
                         from_equivalence, is_coherent, is_refinement,
                         is_symmetric_partition, product, to_equivalence,
                         verify_smallest)
from .semigroups import (AbstractSemigroup, BandDecomposition, BandOrder,
                         adjoin_identity, band_order, band_union_with_core,
                         find_isomorphism, hasse_dot, identity_absorbing_union,
                         is_ideal)
from .generation import GeneratedSemigroup, from_partition, generate
from .classify import (CanonicalModel, ClassVerdict, ConditionReport,
                       canonical_model, check_product_class,
                       decompose_band_with_core)
from .represent import (DTransitiveWitness, SearchReport, SearchBounds,
                        admissible_generator_counts, represent_left_zero,
                        represent_member, represent_right_zero,
                        search_d_transitive, verify_witness)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
