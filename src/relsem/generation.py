"""Closure of relation generators under composition.

The closure runs breadth first: the deduplicated generators come first,
then each new word length in turn, ties broken by the packed bit
representation.  That order is part of the contract, so element names and
Cayley tables are stable across runs and generator permutations change
nothing but the generator block order.
"""

from __future__ import annotations

from typing import Sequence

from . import _accel
from .errors import ClosureOverflowError, GroundMismatchError
from .partitions import LabeledPartition, Partition, ProductKind, product
from .relations import BinaryRelation, GroundSet
from .semigroups import AbstractSemigroup

DEFAULT_ELEMENT_CAP = 100_000


class GeneratedSemigroup:
    """A concrete subsemigroup of the relation semigroup over a ground set."""

    __slots__ = ("ground", "elements", "table", "generator_indices", "labels")

    def __init__(self, ground: GroundSet, elements, table, generator_indices,
                 labels):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "table", tuple(tuple(row) for row in table))
        object.__setattr__(self, "generator_indices", tuple(generator_indices))
        object.__setattr__(self, "labels", tuple(labels))

    def __setattr__(self, name, value):
        raise AttributeError("GeneratedSemigroup is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def to_abstract(self) -> AbstractSemigroup:
        """The abstract Cayley table with synthesized element names.

        Generator labels are kept where available, the empty relation is
        named "0", anything else becomes "w<index>".  Collisions get a
        numeric suffix.
        """
        names = []
        used = set()
        for i, rel in enumerate(self.elements):
            if rel.is_empty():
                base = "0"
            elif self.labels[i] is not None:
                base = self.labels[i]
            else:
                base = f"w{i}"
            name = base
            k = 2
            while name in used:
                name = f"{base}_{k}"
                k += 1
            used.add(name)
            names.append(name)
        return AbstractSemigroup(names, self.table)


def generate(gens: Sequence[BinaryRelation],
             labels: Sequence[str | None] | None = None,
             max_elements: int = DEFAULT_ELEMENT_CAP) -> GeneratedSemigroup:
    """Close a nonempty generator list under two-sided composition.

    Raises ClosureOverflowError once the element count would exceed
    ``max_elements``.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator required")
    ground = gens[0].ground
    for g in gens[1:]:
        if g.ground.size != ground.size:
            raise GroundMismatchError("generators over different ground sets")
    if labels is None:
        labels = [None] * len(gens)
    labels = list(labels)
    if len(labels) != len(gens):
        raise ValueError("one label per generator required")

    n = ground.size
    keys = [g.key() for g in gens]
    closed = _accel.closure(keys, n, max_elements)
    if closed is None:
        raise ClosureOverflowError(
            f"closure exceeded the cap of {max_elements} elements")
    index_by_key = {key: i for i, key in enumerate(closed)}
    first_label: dict[int, str | None] = {}
    for key, lab in zip(keys, labels):
        first_label.setdefault(key, lab)
    elements = [BinaryRelation.from_key(ground, key) for key in closed]
    elem_labels = [first_label.get(key) for key in closed]
    generator_indices = [index_by_key[key] for key in keys]
    table = [[index_by_key[_accel.compose_mask(a, b, n)] for b in closed]
             for a in closed]
    return GeneratedSemigroup(ground, elements, table, generator_indices,
                              elem_labels)


def from_partition(p: Partition | LabeledPartition,
                   kind: ProductKind | None = None,
                   max_elements: int = DEFAULT_ELEMENT_CAP) -> GeneratedSemigroup:
    """Closure generated by the blocks of a pair-set partition.

    Accepts either a partition of X together with a product kind, or a
    ready LabeledPartition of the pair set.  Block labels are carried onto
    the generators.
    """
    if isinstance(p, Partition):
        if kind is None:
            raise ValueError("a product kind is required with a plain partition")
        labeled = product(p, kind)
    else:
        labeled = p
    rels = labeled.block_relations()
    labels = tuple(labeled.label(b) for b in range(labeled.block_count))
    return generate(rels, labels, max_elements)
