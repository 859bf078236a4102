"""The Grothendieck group of a finitely presented angle category.

The group is the quotient of Z^(symbols) by the relation lattice spanned by
the Euler vectors of the listed angles together with one suspension row per
symbol (the Euler vector of a rotated trivial angle).  The suspension rows
say only that S acts by -1 (odd n) or 1 (even n) along each of its cycles,
so `relation_lattice` eliminates on one coordinate per cycle and writes the
Hermite basis in Z^(symbols) down from that lattice's.  A class equality
[A] = [B] is certified constructively: one reduced integer solve writes
A - B over the relation rows (`lattices.reduced_solution`), and the
coefficients become the two angle sums of a Thomason-style witness.  The
witness is priced (terms plus complement fields) before it is built, and
one past WITNESS_LIMIT raises WitnessBoundError.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import WitnessBoundError
from .lattices import FgAbelianGroup, GroupElement, Lattice, reduced_solution
from .presentations import (
    Angle,
    ObjectVec,
    Presentation,
    add_objects,
    basis_object,
    object_vec,
    suspend_object,
    trivial_angle,
    zero_object,
)


def euler_vector(p: Presentation, a: Angle) -> tuple[int, ...]:
    """Alternating vertex sum A_1 - A_2 + ... + (-1)^(n+1) A_n."""
    vs = a.vertices
    out = vs[0] if vs else (0,) * p.rank
    for i in range(1, len(vs)):
        # a tuple a step: one lazy map chain would nest n deep in C
        out = tuple(map(sub if i % 2 else add, out, vs[i]))
    return tuple(out)


def suspension_rows(p: Presentation) -> list[tuple[int, ...]]:
    """One row e_j + (-1)^(n+1) S e_j per symbol.

    These are the Euler vectors of rotated trivial angles, so they are
    forced relations for every presentation; for even n they may vanish.
    """
    sign = 1 if p.n % 2 else -1
    rows = []
    for j, s in enumerate(p.suspension.images):
        row = [0] * p.rank
        row[j] += 1
        row[s] += sign  # a fixed point S j = j gets 1 + sign
        rows.append(tuple(row))
    return rows


def relation_rows(p: Presentation) -> list[tuple[int, ...]]:
    """The Euler vectors of the listed angles, then the suspension rows."""
    return [euler_vector(p, a) for a in p.angles] + suspension_rows(p)


def relation_lattice(p: Presentation) -> Lattice:
    """Integer span L of all listed Euler vectors and the suspension rows.

    pi: Z^r -> Z^c has one coordinate eps per cycle of S and sends e_x,
    x = S^i M for M the cycle's largest symbol, to (-1)^i eps for odd n and
    to eps for even n.  The suspension rows span ker pi and, for odd n, 2 eps
    for each odd cycle, so L = pi^-1(L') for L' spanned by those 2 eps and
    the projected Euler rows.  L's Hermite basis is L''s on the maxima's
    columns and, for each other x, e_x plus -pi(e_x) reduced by L'.
    """
    odd, cycles = p.n % 2, p.suspension.cycles()
    c = len(cycles)
    rows = [euler_vector(p, a) for a in p.angles]
    if c < p.rank:
        parts = [(cycle[::2], cycle[1::2]) if odd else (cycle, ()) for cycle in cycles]
        rows = [tuple([sum(map(v.__getitem__, plus)) - sum(map(v.__getitem__, minus))
                       for plus, minus in parts]) for v in rows]
    if odd:
        rows += [(0,) * k + (2,) + (0,) * (c - k - 1)
                 for k, cycle in enumerate(cycles) if len(cycle) % 2]
    small = Lattice(c, rows, _checked=True)
    if c == p.rank:  # every symbol is fixed: pi is the identity
        return small
    pad, by_column, col = [c] * p.rank, [None] * p.rank, 0
    for k, cycle in enumerate(cycles):
        pad[cycle[0]] = k

    def lifted(v):
        # column x reads v at x's cycle when x is its maximum, else a 0
        return list(map((*v, 0).__getitem__, pad))

    for h in small.basis:
        while not h[col]:
            col += 1
        by_column[cycles[col][0]] = tuple(lifted(h))
    for k, cycle in enumerate(cycles):
        # -pi(e_x) for x = S^i M, i > 0, is y eps with y = 1 for odd n and
        # odd i, else -1: reduced by L' once for each y that occurs
        tails = {y: lifted(small.reduce((0,) * k + (y,) + (0,) * (c - k - 1)))
                 for y in ((1, -1) if odd else (-1,))[:len(cycle) - 1]}
        for i, x in enumerate(cycle[1:], 1):
            row = tails[1 if odd and i % 2 else -1].copy()
            row[x] = 1
            by_column[x] = tuple(row)
    return Lattice._from_hermite(p.rank, tuple(filter(None, by_column)))


@dataclass(frozen=True)
class K0Result:
    """The computed Grothendieck group; its relation lattice is the group's."""

    presentation: Presentation
    group: FgAbelianGroup

    @property
    def relation_lattice(self) -> Lattice:
        return self.group.relations

    def element(self, vec) -> GroupElement:
        """Class of an arbitrary integer vector (lifts need not be objects)."""
        return self.group.element(vec)


def k0(p: Presentation) -> K0Result:
    return K0Result(presentation=p, group=FgAbelianGroup(relation_lattice(p)))


def class_of(k: K0Result, v) -> GroupElement:
    v = object_vec(v)
    if len(v) != k.presentation.rank:
        raise ValueError("object has wrong length")
    return k.group.element(v)


def equal_classes(relations: Lattice, a, b) -> bool:
    """[a] == [b] in Z^r / relations; K0 needs only the relation lattice."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or len(a) != relations.ambient_rank:
        raise ValueError("objects have wrong length")
    return tuple(x - y for x, y in zip(a, b)) in relations


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
    rotations applied to the referenced angle (right ones when negative).
    """

    kind: str
    rotation: int
    index: int | None = None
    obj: ObjectVec | None = None


@dataclass(frozen=True)
class Witness:
    """Certificate that [A] = [B]: two angle sums sharing all vertices past
    the first, with first vertices A + C_1 and B + C_1."""

    complements: tuple[ObjectVec, ...]
    left_terms: tuple[AngleTerm, ...]
    right_terms: tuple[AngleTerm, ...]


@dataclass(frozen=True)
class NotFound:
    """No witness exists: A - B is not in the relation lattice, so the
    classes differ."""


# Most terms plus complement fields a witness may list; `witness_search`
# refuses a larger one before building it.
WITNESS_LIMIT = 750_000


def witness_search(p: Presentation, a, b):
    """A witness for [A] = [B], or NotFound() when the classes differ.

    One reduced solve c . R = A - B over R = relation_rows(p) (generator
    Euler vectors, then suspension rows) gives the terms, as in Thomason
    (Compositio Math. 105, 1997): c_g copies of generator g and |c_j| copies
    of the trivial angle on e_j rotated once (Euler vector: suspension row
    j) go left when positive, else right.  Trivial angles on vertices K-1
    and K even out vertices n..2, leaving the first vertices A - B apart;
    one on max(0, A - L_1) on both sides makes C_1 = L_1 - A nonnegative.
    Equal objects take c = 0: the shared trivial angle on A.  Raises
    WitnessBoundError, before building, when the witness would list more
    than WITNESS_LIMIT terms and complement fields.
    """
    a = object_vec(a)
    b = object_vec(b)
    if len(a) != p.rank or len(b) != p.rank:
        raise ValueError("objects have wrong length")
    fields = p.n * p.rank
    if a == b:
        if fields > WITNESS_LIMIT:
            raise WitnessBoundError(
                f"the self-witness has {fields} complement fields, more than {WITNESS_LIMIT}")
        return _built_witness(p, a, (0,) * (len(p.angles) + p.rank))
    c = reduced_solution(relation_rows(p), [x - y for x, y in zip(a, b)])
    if c is None:
        return NotFound()
    # at most one evening-out term per side and vertex, and one C_1 term
    terms = sum(map(abs, c)) + 2 * p.n
    if terms + fields > WITNESS_LIMIT:
        raise WitnessBoundError(
            f"the witness lists up to {terms} terms and {fields} complement fields, "
            f"more than {WITNESS_LIMIT} in all")
    return _built_witness(p, a, c)


def _built_witness(p: Presentation, a: ObjectVec, c) -> Witness:
    n, g = p.n, len(p.angles)
    left, right = [zero_object(p.rank)] * n, [zero_object(p.rank)] * n
    left_terms, right_terms = [], []

    def add(total, vertices, copies=1):
        # vertices left at zero stay one shared tuple, so a large n is cheap
        for i, v in vertices:
            if any(v):
                total[i] = tuple(x + copies * y for x, y in zip(total[i], v))

    for total, terms, sign in ((left, left_terms, 1), (right, right_terms, -1)):
        for i, x in enumerate(c[:g]):
            if sign * x > 0:
                terms += [AngleTerm("generator", 0, index=i)] * abs(x)
                add(total, enumerate(p.angles[i].vertices), abs(x))
        counts = [abs(x) if sign * x > 0 else 0 for x in c[g:]]
        if any(counts):
            for j, x in enumerate(counts):
                terms += [AngleTerm("trivial", 1, obj=basis_object(p.rank, j))] * x
            add(total, enumerate(trivial_angle(p, counts, 2).vertices))

    # even out vertex K = i + 1 with a trivial angle on vertices K - 1 and K
    for i in range(n - 1, 0, -1):
        if left[i] == right[i]:
            continue
        for total, other, terms in ((left, right, left_terms), (right, left, right_terms)):
            x = tuple(max(0, y - z) for y, z in zip(other[i], total[i]))
            if any(x):
                terms.append(AngleTerm("trivial", 0, obj=x) if i == 1 else
                             AngleTerm("trivial", n - i + 1, obj=suspend_object(p, x, -1)))
                add(total, ((i - 1, x), (i, x)))
    x = tuple(max(0, y - z) for y, z in zip(a, left[0]))
    for total, terms in ((left, left_terms), (right, right_terms)) if any(x) else ():
        terms.append(AngleTerm("trivial", 0, obj=x))
        add(total, ((0, x), (1, x)))
    complements = (tuple(y - z for y, z in zip(left[0], a)),) + tuple(left[1:])
    return Witness(complements=complements, left_terms=tuple(left_terms),
                   right_terms=tuple(right_terms))
