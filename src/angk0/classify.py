"""Dense complete subcategories and their correspondence with subgroups.

A dense complete subcategory is cut out by a saturating integer lattice
between the relation lattice and Z^r: its objects are exactly the
nonnegative vectors lying in the lattice.  For odd n the maps
subgroup -> subcategory -> subgroup are mutually inverse by representation
(both store one preimage lattice).  For finite groups this module checks
exhaustively that every subcategory is dense and complete and realizes
each generator of its subgroup as the class of an explicit object.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import EvenNUnsupportedError, InfiniteGroupError
from .k0 import K0Result, class_of, object_for_element
from .lattices import Lattice, Subgroup, enumerate_subgroups
from .presentations import (
    ObjectVec,
    Presentation,
    basis_object,
    iter_object_vectors,
    rotate_angle,
    suspend_object,
)


@dataclass(frozen=True)
class SubcategoryLattice:
    """A full subcategory closed under sums and isomorphism, encoded by the
    lattice its member objects span.  An object belongs to the subcategory
    exactly when its vector lies in the lattice."""

    presentation: Presentation
    lattice: Lattice

    def contains_object(self, v) -> bool:
        return tuple(v) in self.lattice


@dataclass(frozen=True)
class Certificate:
    """Outcome of a structural check: holds, fails, or unknown.

    A holds verdict carries a machine-checkable reason; fails carries a
    concrete counterexample; unknown records the exhausted search bound.
    """

    status: str
    reason: str
    witness: object = None
    bound: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"


def subcategory_from_subgroup(
    k: K0Result, subgroup: Subgroup, allow_even_n: bool = False
) -> SubcategoryLattice:
    """The subcategory of objects whose class lies in the subgroup.

    Refused for even n (the correspondence is only established for odd n)
    unless `allow_even_n` is set for experimentation.
    """
    if k.presentation.n % 2 == 0 and not allow_even_n:
        raise EvenNUnsupportedError(
            "subcategory construction from a subgroup requires odd n"
        )
    if subgroup.group != k.group:
        raise ValueError("subgroup of a different group")
    return SubcategoryLattice(presentation=k.presentation, lattice=subgroup.preimage)


def subgroup_from_subcategory(k: K0Result, sub: SubcategoryLattice) -> Subgroup:
    """The subgroup generated by the classes of member objects.

    The lattice itself is the preimage: every coset of a saturating lattice
    contains a nonnegative vector, so member objects realize every class.
    """
    if sub.presentation != k.presentation:
        raise ValueError("subcategory of a different presentation")
    return Subgroup(k.group, sub.lattice)


def is_dense(p: Presentation, sub: SubcategoryLattice, bound: int = 4) -> Certificate:
    """Density certificate.

    Sufficient check first: if e_j + S e_j lies in the lattice for every
    symbol, each object C has the member C + SC as a witness.  Otherwise a
    bounded search looks, per symbol, for a member containing it.  Density
    can never be refuted from generating data, so there is no fails branch.
    """
    rank = p.rank
    pairs = []
    for j in range(rank):
        e = basis_object(rank, j)
        pairs.append(tuple(a + b for a, b in zip(e, suspend_object(p, e))))
    if all(row in sub.lattice for row in pairs):
        return Certificate(
            status="holds",
            reason="e_j + S e_j is a member for every symbol, so C + SC witnesses every C",
        )
    witnesses = []
    for j in range(rank):
        found = None
        for v in iter_object_vectors(rank, bound):
            if v[j] >= 1 and v in sub.lattice:
                found = v
                break
        if found is None:
            return Certificate(
                status="unknown",
                reason=f"no member containing symbol {p.indec_names[j]} "
                f"within total multiplicity {bound}",
                bound=bound,
            )
        witnesses.append(found)
    return Certificate(
        status="holds",
        reason="per-symbol member search succeeded",
        witness=tuple(witnesses),
        bound=bound,
    )


def is_complete(k: K0Result, sub: SubcategoryLattice) -> Certificate:
    """Completeness certificate.

    If the lattice contains the relation lattice, any angle with n-1 member
    vertices forces the last one in via its Euler relation.  Otherwise every
    listed generator and each of its rotations is scanned for a violation:
    n-1 member vertices plus one non-member.
    """
    p = k.presentation
    if sub.lattice.contains_lattice(k.relation_lattice):
        return Certificate(
            status="holds",
            reason="lattice contains the relation lattice, so Euler relations close angles",
        )
    for gi, gen in enumerate(p.angles):
        angle = gen
        for rot in range(p.n):
            member = [v in sub.lattice for v in angle.vertices]
            if member.count(False) == 1:
                missing = member.index(False)
                return Certificate(
                    status="fails",
                    reason=f"generator {gi} rotated {rot} times has {p.n - 1} member "
                    f"vertices but vertex {missing + 1} is not a member",
                    witness=(angle, missing),
                )
            angle = rotate_angle(p, angle)
    return Certificate(
        status="unknown",
        reason="relation lattice not contained and no generator rotation witnesses a failure",
    )


def summand_closure_check(
    p: Presentation, sub: SubcategoryLattice, trials: int, seed: int = 0
) -> Certificate:
    """Property test of summand cancellation: if c + a is a member and a is
    a member then c is a member.  Lattice arithmetic guarantees this; the
    check asserts it empirically on random splits of random members."""
    if trials == 0:
        return Certificate(status="holds", reason="0 trials")
    member_bound = 6
    members = [
        v
        for v in iter_object_vectors(p.rank, member_bound)
        if v in sub.lattice
    ]
    if not members:
        return Certificate(
            status="holds",
            reason=f"no nonzero members with total multiplicity <= {member_bound}",
        )
    rng = random.Random(seed)
    for _ in range(trials):
        m = rng.choice(members)
        splits = [
            a
            for a in _sub_vectors(m)
            if a in sub.lattice
        ]
        a = rng.choice(splits)  # 0 is always a member, so splits is nonempty
        c = tuple(x - y for x, y in zip(m, a))
        if c not in sub.lattice:
            return Certificate(
                status="fails",
                reason="summand of a member split is not a member",
                witness=(c, a),
            )
    return Certificate(status="holds", reason=f"{trials} trials")


def _sub_vectors(m):
    return list(itertools.product(*(range(x + 1) for x in m)))


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
        return (
            all(e.verified for e in self.entries)
            and self.distinct_lattices == self.subgroup_count
        )


def verify_correspondence(k: K0Result) -> CorrespondenceReport:
    """Exhaustive verification over every subgroup of K0.

    For each subgroup H the induced subcategory must be dense and complete,
    and every generator of H must be realized as the class of an explicit
    object.  Distinct subgroups must induce distinct lattices.
    """
    p = k.presentation
    if p.n % 2 == 0:
        raise EvenNUnsupportedError("the correspondence is only verified for odd n")
    if not k.group.is_finite:
        raise InfiniteGroupError("exhaustive verification requires a finite group")
    entries = []
    lattices = set()
    for subgroup in enumerate_subgroups(k.group):
        sub = subcategory_from_subgroup(k, subgroup)
        dense = is_dense(p, sub)
        complete = is_complete(k, sub)
        gens = []
        for row in subgroup.preimage.basis:
            x = k.group.element(row)
            obj = object_for_element(k, x)
            realizes = class_of(k, obj) == x
            gens.append(GeneratorRealization(element=x.vec, obj=obj, realizes=realizes))
        entries.append(
            CorrespondenceEntry(
                subgroup=subgroup,
                subcategory=sub,
                dense=dense,
                complete=complete,
                generators=tuple(gens),
            )
        )
        lattices.add(sub.lattice)
    return CorrespondenceReport(
        subgroup_count=len(entries),
        entries=tuple(entries),
        distinct_lattices=len(lattices),
    )
