"""The Grothendieck group of a finitely presented angle category.

The group is the quotient of Z^(symbols) by the relation lattice spanned by
the Euler vectors of the listed angles together with one suspension row per
symbol (the Euler vector of a rotated trivial angle).  A bounded witness
search certifies class equalities constructively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lattices import FgAbelianGroup, GroupElement, Lattice, quotient_group
from .presentations import (
    Angle,
    ObjectVec,
    Presentation,
    add_objects,
    basis_object,
    direct_sum_angle,
    iter_object_vectors,
    object_vec,
    rotate_angle,
    suspend_object,
    trivial_angle,
    zero_angle,
    zero_object,
)


def euler_vector(p: Presentation, a: Angle) -> tuple[int, ...]:
    """Alternating vertex sum A_1 - A_2 + ... + (-1)^(n+1) A_n."""
    out = [0] * p.rank
    for i, v in enumerate(a.vertices):
        sign = 1 if i % 2 == 0 else -1
        for j, x in enumerate(v):
            out[j] += sign * x
    return tuple(out)


def suspension_rows(p: Presentation) -> list[tuple[int, ...]]:
    """One row e_j + (-1)^(n+1) S e_j per symbol.

    These are the Euler vectors of rotated trivial angles, so they are
    forced relations for every presentation; for even n they may vanish.
    """
    sign = 1 if p.n % 2 else -1
    rows = []
    for j in range(p.rank):
        e = basis_object(p.rank, j)
        s = suspend_object(p, e)
        rows.append(tuple(a + sign * b for a, b in zip(e, s)))
    return rows


def relation_lattice(p: Presentation) -> Lattice:
    """Integer span of all listed Euler vectors and the suspension rows."""
    rows = [euler_vector(p, a) for a in p.angles]
    rows.extend(suspension_rows(p))
    return Lattice(p.rank, rows)


@dataclass(frozen=True)
class K0Result:
    """The computed Grothendieck group together with its class map."""

    presentation: Presentation
    relation_lattice: Lattice
    group: FgAbelianGroup

    def class_of(self, v) -> GroupElement:
        return class_of(self, v)

    def element(self, vec) -> GroupElement:
        """Class of an arbitrary integer vector (lifts need not be objects)."""
        return self.group.element(vec)


def k0(p: Presentation) -> K0Result:
    lattice = relation_lattice(p)
    return K0Result(presentation=p, relation_lattice=lattice, group=quotient_group(lattice))


def class_of(k: K0Result, v) -> GroupElement:
    v = object_vec(v)
    if len(v) != k.presentation.rank:
        raise ValueError("object has wrong length")
    return k.group.element(v)


def equal_classes(k: K0Result, a, b) -> bool:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or len(a) != k.presentation.rank:
        raise ValueError("objects have wrong length")
    return tuple(x - y for x, y in zip(a, b)) in k.relation_lattice


def object_for_element(k: K0Result, x: GroupElement):
    """A constructive preimage of a group element.

    For odd n a single object A with [A] = x is returned, built from the
    canonical lift v = v+ - v- as A = v+ + S v- (valid because suspension
    negates classes).  For even n the pair (v+, v-) with [v+] - [v-] = x is
    returned instead.
    """
    if x.group != k.group:
        raise ValueError("element of a different group")
    v = x.vec
    pos = tuple(max(c, 0) for c in v)
    neg = tuple(max(-c, 0) for c in v)
    if k.presentation.n % 2:
        return add_objects(pos, suspend_object(k.presentation, neg))
    return pos, neg


@dataclass(frozen=True)
class AngleTerm:
    """One summand in a witness decomposition.

    kind "generator" refers to a listed angle by index; kind "trivial"
    carries the base object of a trivial angle.  rotation counts left
    rotations applied to the referenced angle.
    """

    kind: str
    rotation: int
    index: int | None = None
    obj: ObjectVec | None = None


def resolve_term(p: Presentation, term: AngleTerm) -> Angle:
    if term.kind == "generator":
        angle = p.angles[term.index]
    elif term.kind == "trivial":
        angle = trivial_angle(p, term.obj, 1)
    else:
        raise ValueError(f"unknown term kind {term.kind!r}")
    for _ in range(term.rotation):
        angle = rotate_angle(p, angle)
    return angle


def sum_of_terms(p: Presentation, terms) -> Angle:
    total = zero_angle(p)
    for term in terms:
        total = direct_sum_angle(total, resolve_term(p, term))
    return total


@dataclass(frozen=True)
class Witness:
    """Certificate that [A] = [B]: two angle sums sharing all vertices past
    the first, with first vertices A + C_1 and B + C_1."""

    complements: tuple[ObjectVec, ...]
    left_terms: tuple[AngleTerm, ...]
    right_terms: tuple[AngleTerm, ...]


@dataclass(frozen=True)
class NotFound:
    """Search exhausted without a witness; never evidence of inequality."""

    bound: int


def _witness_pool(p: Presentation, bound: int):
    """Candidate summands: generators then trivial angles, each with all n
    rotations, in the fixed deterministic order."""
    pool = []
    for gi, gen in enumerate(p.angles):
        angle = gen
        for rot in range(p.n):
            pool.append((AngleTerm("generator", rot, index=gi), angle))
            angle = rotate_angle(p, angle)
    for obj in iter_object_vectors(p.rank, bound):
        angle = trivial_angle(p, obj, 1)
        for rot in range(p.n):
            pool.append((AngleTerm("trivial", rot, obj=obj), angle))
            angle = rotate_angle(p, angle)
    return pool


def witness_search(p: Presentation, a, b, bound: int):
    """Bounded search for a class-equality witness.

    Direct sums of at most `bound` pool angles are formed; two sums witness
    [A] = [B] when their vertex tuples agree except that the first vertices
    are A + C_1 and B + C_1 for a common nonnegative C_1.  Equal objects get
    a canonical self-witness (the shared trivial angle on A).  Returns the
    first witness in deterministic order, else NotFound(bound).
    """
    a = object_vec(a)
    b = object_vec(b)
    if len(a) != p.rank or len(b) != p.rank:
        raise ValueError("objects have wrong length")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if a == b:
        term = AngleTerm("trivial", 0, obj=a)
        angle = trivial_angle(p, a, 1)
        complements = (zero_object(p.rank),) + angle.vertices[1:]
        if not any(a):
            # the zero object needs no summand at all
            return Witness(complements=(zero_object(p.rank),) * p.n, left_terms=(), right_terms=())
        return Witness(complements=complements, left_terms=(term,), right_terms=(term,))

    pool = _witness_pool(p, bound)
    # (tail, head) -> first combo with that sum.  A left sum qualifies by its
    # key alone, so the first qualifying sum is the first of its key.
    first: dict[tuple, tuple[int, ...]] = {}
    for size in range(bound + 1):
        for combo in itertools.combinations_with_replacement(range(len(pool)), size):
            vertices = [zero_object(p.rank)] * p.n
            for idx in combo:
                angle = pool[idx][1]
                vertices = [add_objects(x, y) for x, y in zip(vertices, angle.vertices)]
            first.setdefault((tuple(vertices[1:]), vertices[0]), combo)

    for (tail, head), combo in first.items():
        c1 = tuple(h - x for h, x in zip(head, a))
        if any(c < 0 for c in c1):
            continue
        match = first.get((tail, tuple(x + c for x, c in zip(b, c1))))
        if match is None:
            continue
        left_terms = tuple(pool[i][0] for i in combo)
        right_terms = tuple(pool[i][0] for i in match)
        return Witness(complements=(c1,) + tail, left_terms=left_terms, right_terms=right_terms)
    return NotFound(bound)
