"""Dense complete subcategories and their correspondence with subgroups.

A dense complete subcategory is cut out by a saturating integer lattice
between the relation lattice and Z^r: its objects are exactly the
nonnegative vectors lying in the lattice.  A `SubcategoryLattice` is built
from a subgroup of K0, for odd n only, and its lattice is the subgroup's
preimage, so subgroup -> subcategory -> subgroup is the identity.

Both certificates follow from that construction, as in the odd-n form of
Thomason's classification (Compositio Math. 105, 1997).  A preimage
contains the relation lattice: the public `Subgroup` constructor checks
it, and the enumeration lists lattices above the relations.  For odd n the
relations hold e_j + S e_j, so each object C has the member C + SC
(dense), and every Euler relation, so an angle with n - 1 member vertices
has a member last vertex (complete).  Neither certificate runs a lattice
test.  The bounded member search, the generator-rotation scan and the
summand-closure check, which test the same facts on any lattice, are
oracles in tests/support.py.

For finite groups `verify_correspondence` lists every subgroup with its
two certificates and realizes each generator as the class of an explicit
object.  Many subgroups share preimage-basis rows, so each distinct row is
realized once per call and its entries share that realization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EvenNUnsupportedError
from .k0 import K0Result, equal_classes, object_for_element
from .lattices import Lattice, Subgroup, enumerate_subgroups
from .presentations import ObjectVec


class SubcategoryLattice:
    """The full subcategory of objects whose class lies in a subgroup of
    K0, for odd n.  An object belongs to it exactly when its vector lies
    in the subgroup's preimage lattice.

    Raises EvenNUnsupportedError for even n and ValueError for a subgroup
    of another group; `k` is the result of `k0`.
    """

    __slots__ = ("presentation", "subgroup")

    def __init__(self, k: K0Result, subgroup: Subgroup):
        if k.presentation.n % 2 == 0:
            raise EvenNUnsupportedError(
                "subcategory construction from a subgroup requires odd n"
            )
        if subgroup.group != k.group:
            raise ValueError("subgroup of a different group")
        self.presentation = k.presentation
        self.subgroup = subgroup

    @property
    def lattice(self) -> Lattice:
        return self.subgroup.preimage

    def contains_object(self, v) -> bool:
        return tuple(v) in self.lattice


@dataclass(frozen=True)
class Certificate:
    """Outcome of a structural check with its machine-checkable reason."""

    status: str
    reason: str

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def subgroup_from_subcategory(k: K0Result, sub: SubcategoryLattice) -> Subgroup:
    """The subgroup generated by the classes of member objects: the one the
    subcategory was built from, as every coset of a saturating lattice
    contains a nonnegative vector."""
    if sub.presentation != k.presentation:
        raise ValueError("subcategory of a different presentation")
    return sub.subgroup


def _built(sub) -> None:
    # The certificates rest on SubcategoryLattice's construction checks.
    if not isinstance(sub, SubcategoryLattice):
        raise TypeError("certificates need a SubcategoryLattice built from a subgroup")


# Every built subcategory gets these two certificates.
DENSE = Certificate(
    "holds", "e_j + S e_j is a member for every symbol, so C + SC witnesses every C")
COMPLETE = Certificate(
    "holds", "lattice contains the relation lattice, so Euler relations close angles")


def is_dense(sub: SubcategoryLattice) -> Certificate:
    """Density: the lattice holds the relations, which for odd n hold
    e_j + S e_j, so each object C has the member C + SC as a witness."""
    _built(sub)
    return DENSE


def is_complete(sub: SubcategoryLattice) -> Certificate:
    """Completeness: the lattice holds the relations, so an angle with
    n - 1 member vertices forces the last one in by its Euler relation."""
    _built(sub)
    return COMPLETE


@dataclass(frozen=True)
class GeneratorRealization:
    element: tuple[int, ...]
    obj: ObjectVec
    realizes: bool


@dataclass(frozen=True)
class CorrespondenceEntry:
    subgroup: Subgroup
    subcategory: SubcategoryLattice
    dense: Certificate
    complete: Certificate
    generators: tuple[GeneratorRealization, ...]

    @property
    def verified(self) -> bool:
        return (
            self.dense.holds
            and self.complete.holds
            and all(g.realizes for g in self.generators)
        )


@dataclass(frozen=True)
class CorrespondenceReport:
    subgroup_count: int
    entries: tuple[CorrespondenceEntry, ...]
    distinct_lattices: int

    @property
    def all_verified(self) -> bool:
        return all(e.verified for e in self.entries)


def verify_correspondence(k: K0Result) -> CorrespondenceReport:
    """Exhaustive verification over every subgroup of K0.

    For each subgroup H the induced subcategory must be dense and complete,
    and every generator of H must be realized as the class of an explicit
    object.  Each subcategory stores its subgroup's preimage, and the
    enumeration lists each preimage once, so the lattices are distinct.
    A generator is a preimage-basis row; each distinct row is realized
    once, and every entry listing it holds the same GeneratorRealization.
    """
    p = k.presentation
    if p.n % 2 == 0:
        raise EvenNUnsupportedError("the correspondence is only verified for odd n")
    entries = []
    realized = {}  # basis row -> its realization, shared by every entry listing it
    for subgroup in enumerate_subgroups(k.group):
        sub = SubcategoryLattice(k, subgroup)
        for row in subgroup.preimage.basis:
            if row not in realized:
                x = k.group.element(row)
                obj = object_for_element(k, x)
                realizes = equal_classes(k.relation_lattice, obj, x.vec)
                realized[row] = GeneratorRealization(element=x.vec, obj=obj, realizes=realizes)
        entries.append(
            CorrespondenceEntry(
                subgroup=subgroup,
                subcategory=sub,
                dense=is_dense(sub),
                complete=is_complete(sub),
                generators=tuple(realized[row] for row in subgroup.preimage.basis),
            )
        )
    return CorrespondenceReport(
        subgroup_count=len(entries),
        entries=tuple(entries),
        distinct_lattices=len(entries),
    )
