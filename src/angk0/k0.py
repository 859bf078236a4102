"""The Grothendieck group of a finitely presented angle category.

The group is the quotient of Z^(symbols) by the relation lattice spanned by
the Euler vectors of the listed angles together with one suspension row per
symbol (the Euler vector of a rotated trivial angle).  A bounded witness
search certifies class equalities constructively: it walks the multisets of
pool angles in `combinations_with_replacement` order, each angle sum one
packed integer built from its prefix by a single addition, which needs
nonnegative multiplicities.  `witness_cost` counts those sums in closed
form, so the command line can refuse a search past WITNESS_LIMIT first.
"""

from __future__ import annotations

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


# Most angle sums a witness search may form; `angk0 witness` refuses a
# larger search before it starts.
WITNESS_LIMIT = 750_000


def witness_cost(p: Presentation, bound: int) -> int:
    """Number of angle sums `witness_search` forms for a != b, from the
    pool size alone.

    The pool holds P = n * (#angles + C(r + bound, bound) - 1) angles and
    the search forms one sum per multiset of at most `bound` of them,
    C(P + bound, bound) in all.  The count is exact up to WITNESS_LIMIT;
    past it multiplication stops, so a huge bound costs nothing and the
    value returned is only known to exceed the limit.
    """
    pool = p.n * (len(p.angles) + _binomial_past(p.rank + bound, p.rank, WITNESS_LIMIT) - 1)
    return _binomial_past(pool + bound, min(pool, bound), WITNESS_LIMIT)


def _binomial_past(top: int, k: int, cap: int) -> int:
    """C(top, k), or the first partial product C(top - k + i, i) above cap;
    the partial products only grow, so either way the result exceeds cap
    exactly when C(top, k) does."""
    out = 1
    for i in range(1, k + 1):
        out = out * (top - k + i) // i
        if out > cap:
            break
    return out


def witness_search(p: Presentation, a, b, bound: int):
    """Bounded search for a class-equality witness.

    Direct sums of at most `bound` pool angles are formed; two sums witness
    [A] = [B] when their vertex tuples agree except that the first vertices
    are A + C_1 and B + C_1 for a common nonnegative C_1.  Equal objects get
    a canonical self-witness (the shared trivial angle on A).  Returns the
    first witness in deterministic order, else NotFound(bound).

    Each sum is one packed integer (`_pack`), built from its prefix by one
    addition, and the multisets are visited in the order of
    `itertools.combinations_with_replacement`, size by size, so the first
    sum of each key and the witness returned are those of the plain scan.
    Packing needs nonnegative multiplicities: a listed angle with a negative
    entry raises ValueError.
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
    flat = [[x for v in angle.vertices for x in v] for _, angle in pool]
    if any(x < 0 for row in flat for x in row):
        raise ValueError("angle multiplicities must be nonnegative")
    # a field of a sum of at most `bound` pool angles never exceeds this
    width = (bound * max((x for row in flat for x in row), default=0)).bit_length()
    first = _first_sums([_pack(row, width) for row in flat], bound)

    # A left sum with head h qualifies when C_1 = h - A >= 0 and its match
    # head B + C_1 fits its field; the match key is then key + shift.
    limit = 1 << width
    head_mask = (1 << (width * p.rank)) - 1
    shift = _pack(b, width) - _pack(a, width)
    qualifies: dict[int, bool] = {}
    for key, combo in first.items():
        head = key & head_mask
        ok = qualifies.get(head)
        if ok is None:
            ok = qualifies[head] = all(
                h >= x and h - x + y < limit
                for h, x, y in zip(_unpack(head, width, p.rank), a, b)
            )
        if not ok:
            continue
        match = first.get(key + shift)
        if match is None:
            continue
        fields = _unpack(key, width, p.n * p.rank)
        vertices = [tuple(fields[i:i + p.rank]) for i in range(0, len(fields), p.rank)]
        c1 = tuple(h - x for h, x in zip(vertices[0], a))
        left_terms = tuple(pool[i][0] for i in combo)
        right_terms = tuple(pool[i][0] for i in match)
        return Witness(complements=(c1,) + tuple(vertices[1:]), left_terms=left_terms,
                       right_terms=right_terms)
    return NotFound(bound)


def _pack(values, width: int) -> int:
    """Fixed-width fields, values[i] at bits i*width; values are >= 0 and
    below 2**width."""
    out = 0
    for x in reversed(values):
        out = (out << width) | x
    return out


def _unpack(key: int, width: int, count: int) -> list[int]:
    mask = (1 << width) - 1
    return [(key >> (i * width)) & mask for i in range(count)]


def _first_sums(packed: list[int], bound: int) -> dict[int, tuple[int, ...]]:
    """Each packed sum of at most `bound` pool entries, mapped to the first
    multiset of pool indices forming it.

    A multiset of size s is its size s-1 prefix plus one index no smaller
    than the prefix's last, which walks each size in the order of
    `combinations_with_replacement`.
    """
    first: dict[int, tuple[int, ...]] = {0: ()}
    level = [(0, 0, ())]  # (sum, least next index, combo) of each prefix
    for size in range(1, bound + 1):
        grow = size < bound
        longer = []
        for total, start, combo in level:
            for j in range(start, len(packed)):
                key = total + packed[j]
                if key not in first:
                    first[key] = combo + (j,)
                if grow:
                    longer.append((key, j, combo + (j,)))
        level = longer
    return first
