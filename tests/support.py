"""Shared oracles and instance generators for the test suite.

The oracles here deliberately avoid the library's reduction paths:
invariant factors and memberships come from gcds of k x k minors,
bounded memberships also from exhaustive small-coefficient searches,
subgroup counts from subsets closed under addition, ring ideals from
filtering every subgroup for tensor closure, prime flags from every pair
of elements, witnesses from a scan that sums every multiset of pool
angles vertex by vertex, witness sums from the slots each term's base
vertices land in (`witness_sum`, linear in the witness), and density,
completeness and summand closure of a subcategory lattice from bounded
searches over small objects and listed angles.
`parse_document_two_pass` is the document parser as it was before it
read each document in one pass: a type check of every field, then a
second walk that resolves symbols.  `table_violations` is
the table scan `validate_tensor` ran first before `TensorPresentation`
refused incomplete and asymmetric tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from angk0.files import ParseError, table_key
from angk0.k0 import AngleTerm, NotFound, Witness
from angk0.presentations import (
    Angle,
    ObjectVec,
    Presentation,
    Suspension,
    add_objects,
    basis_object,
    object_vec,
    rotate_angle,
    trivial_angle,
    zero_object,
)
from angk0.lattices import enumerate_subgroups
from angk0.tensor import TensorPresentation, _tensor_escapes, tensor_int_vectors


def minors_gcd(entries, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            minor = _det([[entries[i][j] for j in csel] for i in rsel])
            g = math.gcd(g, minor)
    return g


def _det(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def invariant_factors_by_minors(entries):
    """Nonzero Smith diagonal from determinantal divisors: d_1 ... d_k with
    d_1 * ... * d_i = gcd of i x i minors."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors_gcd(entries, k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _rank_and_top_minors_gcd(rows):
    # (k, gcd of the k x k minors) for the rank k of rows
    k, g = 0, 1
    while k < min(len(rows), len(rows[0]) if rows else 0):
        h = minors_gcd(rows, k + 1)
        if not h:
            break
        k, g = k + 1, h
    return k, g


def in_row_span_by_minors(rows, vec):
    """Is vec an integer combination of rows?  The span L' of rows and vec
    contains the span L of rows; when both have rank k, [L' : L] is the
    ratio of the gcds of their k x k minors.  So vec lies in L exactly when
    adding it changes neither the rank nor that gcd."""
    rows = [list(row) for row in rows]
    return _rank_and_top_minors_gcd(rows) == _rank_and_top_minors_gcd(rows + [list(vec)])


def brute_force_membership(rows, vec, coeff_bound):
    """Is vec an integer combination of rows with coefficients in
    [-coeff_bound, coeff_bound]?  Exhaustive."""
    vec = tuple(vec)
    if not rows:
        return not any(vec)
    width = len(rows[0])
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(rows)):
        total = [0] * width
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                total[i] += c * x
        if tuple(total) == vec:
            return True
    return False


def count_cosets_exhaustive(rows, box, coeff_bound=4):
    """Count equivalence classes of the box vectors under differing by a
    small-coefficient combination of the rows."""
    vectors = list(itertools.product(*(range(b) for b in box)))
    classes = []
    for v in vectors:
        for rep in classes:
            diff = tuple(a - b for a, b in zip(v, rep))
            if brute_force_membership(rows, diff, coeff_bound):
                break
        else:
            classes.append(v)
    return len(classes)


def subgroup_count_by_subsets(group):
    """Count subsets of a finite group closed under addition.

    Exhaustive over subsets containing zero; subsets whose size does not
    divide the order are skipped (a nonempty finite set closed under
    addition is a subgroup, so its size divides the order).
    """
    elements = list(group.elements())
    order = len(elements)
    index = {e.vec: i for i, e in enumerate(elements)}
    zero_idx = index[group.zero().vec]
    add = [
        [index[(a + b).vec] for b in elements]
        for a in elements
    ]
    count = 0
    for mask in range(1 << order):
        if not (mask >> zero_idx) & 1:
            continue
        members = [i for i in range(order) if (mask >> i) & 1]
        if order % len(members):
            continue
        if all((mask >> add[i][j]) & 1 for i in members for j in members):
            count += 1
    return count


def ideals_by_filter(r):
    """Preimages of the subgroups of a finite ring that are tensor-closed,
    in enumeration order."""
    return [
        s.preimage
        for s in enumerate_subgroups(r.group)
        if next(_tensor_escapes(r.tensor, s.preimage), None) is None
    ]


def object_prime_by_pairs(r, preimage):
    """a*b in I implies a in I or b in I, over every pair of elements."""
    # Pairs of canonical representatives.  The preimage contains the
    # relations, so an unreduced product is in it exactly when its class
    # is in the subgroup; the same loop is the object-pair prime property.
    reps = [e.vec for e in r.group.elements()]
    for u in reps:
        for w in reps:
            if tensor_int_vectors(r.tensor, u, w) in preimage:
                if not (u in preimage or w in preimage):
                    return False
    return True


def _witness_pool(p: Presentation, bound: int):
    """Candidate summands: generators then trivial angles on objects of total
    multiplicity at most `bound`, each with all n rotations, in a fixed
    order."""
    pool = []
    for gi, gen in enumerate(p.angles):
        angle = gen
        for rot in range(p.n):
            pool.append((AngleTerm("generator", rot, index=gi), angle))
            angle = rotate_angle(p, angle)
    for obj in object_vectors_by_filter(p.rank, bound):
        angle = trivial_angle(p, obj, 1)
        for rot in range(p.n):
            pool.append((AngleTerm("trivial", rot, obj=obj), angle))
            angle = rotate_angle(p, angle)
    return pool


def witness_search_by_scan(p: Presentation, a, b, bound: int):
    """A bounded witness search as a plain scan: every multiset of at most
    `bound` pool angles summed vertex by vertex on tuples, keyed by (tail,
    head).  NotFound here only means no witness within the bound."""
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
    return NotFound()


def _suspension_power(images, m):
    """S^m as an image tuple, from a walk of each symbol's cycle: the
    symbol steps m mod (its cycle's length) times forward."""
    out = []
    for x in range(len(images)):
        length, y = 1, images[x]
        while y != x:
            length, y = length + 1, images[y]
        for _ in range(m % length):
            y = images[y]
        out.append(y)
    return tuple(out)


def witness_sum(p: Presentation, terms) -> Angle:
    """The vertex-wise sum of the terms' rotated angles, built sparsely.

    Base vertex j of a term rotated by k lands at slot i, where
    (q, i) = divmod(j - k, n), moved by S^(-q).  A trivial term's base angle
    is (obj, obj, 0, ..., 0), so it touches two slots; a generator term
    touches its angle's n vertices.  No `rotate_angle` or `Suspension.power`
    call is made, so the sum checks both.  A generator index outside
    0..len(p.angles) - 1 raises ValueError, and so does a trivial term whose
    object is not a nonnegative int vector of length p.rank."""
    total = [[0] * p.rank for _ in range(p.n)]
    powers = {}
    for term in terms:
        if term.kind == "generator":
            if not 0 <= term.index < len(p.angles):
                raise ValueError(f"angle index {term.index} out of range for {len(p.angles)} angles")
            base = enumerate(p.angles[term.index].vertices)
        elif term.kind == "trivial":
            obj = object_vec(term.obj)
            if len(obj) != p.rank:
                raise ValueError("object has wrong length")
            base = ((0, obj), (1, obj))
        else:
            raise ValueError(f"unknown term kind {term.kind!r}")
        for j, v in base:
            q, i = divmod(j - term.rotation, p.n)
            if -q not in powers:
                powers[-q] = _suspension_power(p.suspension.images, -q)
            image, slot = powers[-q], total[i]
            for x, y in enumerate(v):
                slot[image[x]] += y
    return Angle(tuple(map(tuple, total)))


def object_vectors_by_filter(rank: int, max_total: int, include_zero: bool = False):
    """Every vector of (max_total + 1)^rank, kept when its total fits."""
    for v in itertools.product(range(max_total + 1), repeat=rank):
        if sum(v) > max_total:
            continue
        if not include_zero and not any(v):
            continue
        yield v


def member_containing_each_symbol(p: Presentation, lattice, bound: int = 4):
    """Per symbol, the first member object of total multiplicity at most
    `bound` that contains it, or None when some symbol has none: a bounded
    density search, which cannot refute density."""
    found = []
    for j in range(p.rank):
        v = next((v for v in object_vectors_by_filter(p.rank, bound) if v[j] and v in lattice),
                 None)
        if v is None:
            return None
        found.append(v)
    return tuple(found)


def rotation_violation(p: Presentation, lattice):
    """(angle, missing vertex index) for the first rotation of a listed
    angle with n - 1 member vertices and one non-member, else None: a
    completeness counterexample among the generators."""
    for angle in p.angles:
        for _ in range(p.n):
            member = [v in lattice for v in angle.vertices]
            if member.count(False) == 1:
                return angle, member.index(False)
            angle = rotate_angle(p, angle)
    return None


def summand_closure_holds(p: Presentation, lattice, trials: int, seed: int = 0) -> bool:
    """Random test of summand cancellation: when m = c + a and a are
    members, c is a member.  Members of total multiplicity at most 6 are
    split at random."""
    members = [v for v in object_vectors_by_filter(p.rank, 6) if v in lattice]
    rng = random.Random(seed)
    for _ in range(trials if members else 0):
        m = rng.choice(members)
        # 0 is a member, so some split is
        a = rng.choice([a for a in itertools.product(*(range(x + 1) for x in m))
                        if a in lattice])
        if tuple(x - y for x, y in zip(m, a)) not in lattice:
            return False
    return True


_NAMES = "abcdefghij"


def random_presentation(rng: random.Random, max_rank=5, max_angles=4, max_mult=3, n=None):
    rank = rng.randint(1, max_rank)
    n = n if n is not None else rng.choice([3, 4, 5, 7])
    images = list(range(rank))
    rng.shuffle(images)
    angles = []
    for _ in range(rng.randint(0, max_angles)):
        vertices = tuple(
            object_vec([rng.randint(0, max_mult) for _ in range(rank)]) for _ in range(n)
        )
        angles.append(Angle(vertices))
    return Presentation(
        n=n,
        indec_names=tuple(_NAMES[:rank]),
        suspension=Suspension(tuple(images)),
        angles=tuple(angles),
    )


def random_paired_presentation(rng: random.Random, max_rank=5, max_mult=3, n=None):
    """A presentation whose K0 is, for odd n, mostly finite of order 8-64.

    The suspension swaps some disjoint pairs of symbols and fixes the rest,
    and there is one random angle per swapped pair.  For odd n a fixed
    symbol x gives the relation 2x and a swapped pair {a, b} the relation
    a + b, which leaves one free summand per pair for the angles to cut
    down.  Of seeds 0-199 with odd n, 110 give order 8-64, 2 above 64, 79
    below 8 and 9 an infinite group; `random_presentation` gives 13, 0,
    166 and 21.
    """
    rank = rng.randint(2, max_rank)
    n = n if n is not None else rng.choice([3, 5, 7])
    symbols = list(range(rank))
    rng.shuffle(symbols)
    images = list(range(rank))
    pairs = rng.randint(0, rank // 2)
    for i in range(pairs):
        a, b = symbols[2 * i], symbols[2 * i + 1]
        images[a], images[b] = b, a
    angles = [
        Angle(tuple(random_object(rng, rank, max_mult) for _ in range(n)))
        for _ in range(pairs)
    ]
    return Presentation(
        n=n,
        indec_names=tuple(_NAMES[:rank]),
        suspension=Suspension(tuple(images)),
        angles=tuple(angles),
    )


# The random witness tests draw small presentations, then paired ones.
WITNESS_DRAWS = (
    functools.partial(random_presentation, max_rank=3, max_angles=2),
    functools.partial(random_paired_presentation, max_rank=3),
)


def random_object(rng: random.Random, rank, max_mult=3):
    return object_vec([rng.randint(0, max_mult) for _ in range(rank)])


def random_valid_tensor(rng: random.Random, n=None):
    """A random valid tensor presentation (odd n, identity suspension).

    Three families: a cyclic-shift table with a translation-closed angle
    list, a random commutative associative monoid table with no angles, and
    a componentwise table with no angles.
    """
    n = n if n is not None else rng.choice([3, 5, 7])
    family = rng.randint(0, 2)
    if family == 0:
        rank = rng.randint(1, 4)
        names = tuple(_NAMES[:rank])
        base_angles = []
        for _ in range(rng.randint(0, 2)):
            vertices = tuple(
                object_vec([rng.randint(0, 2) for _ in range(rank)]) for _ in range(n)
            )
            base_angles.append(vertices)
        # close the angle list under the index shift so tensoring by any
        # basis vector permutes the listed Euler vectors
        angles = []
        for vertices in base_angles:
            for shift in range(rank):
                shifted = tuple(
                    tuple(v[(j - shift) % rank] for j in range(rank)) for v in vertices
                )
                angles.append(Angle(shifted))
        table = {
            (i, j): basis_object(rank, (i + j) % rank)
            for i in range(rank)
            for j in range(i, rank)
        }
        p = Presentation(
            n=n,
            indec_names=names,
            suspension=Suspension(tuple(range(rank))),
            angles=tuple(angles),
        )
        return TensorPresentation(p, table, basis_object(rank, 0))
    if family == 1:
        # commutative monoid on {0..rank-1} given by a random associative
        # sample: use min/max style tables, which are always associative
        rank = rng.randint(1, 4)
        names = tuple(_NAMES[:rank])
        op = min if rng.random() < 0.5 else max
        table = {
            (i, j): basis_object(rank, op(i, j))
            for i in range(rank)
            for j in range(i, rank)
        }
        unit = basis_object(rank, rank - 1 if op is min else 0)
        p = Presentation(
            n=n, indec_names=names, suspension=Suspension(tuple(range(rank)))
        )
        return TensorPresentation(p, table, unit)
    rank = rng.randint(1, 4)
    names = tuple(_NAMES[:rank])
    table = {
        (i, j): basis_object(rank, i) if i == j else (0,) * rank
        for i in range(rank)
        for j in range(i, rank)
    }
    unit = object_vec([1] * rank)
    p = Presentation(n=n, indec_names=names, suspension=Suspension(tuple(range(rank))))
    return TensorPresentation(p, table, unit)


def table_violations(names, table) -> tuple[str, ...]:
    """The missing and asymmetric pairs of a table keyed by index pairs,
    one violation per unordered pair, in order of (i, j) with i <= j."""
    violations = []
    for i in range(len(names)):
        for j in range(i, len(names)):
            forward = table.get((i, j))
            backward = table.get((j, i))
            if forward is None and backward is None:
                violations.append(f"missing-entry: no product for ({names[i]}, {names[j]})")
            elif forward is not None and backward is not None and forward != backward:
                violations.append(
                    f"symmetry: table({names[i]}, {names[j]}) != table({names[j]}, {names[i]})"
                )
    return tuple(violations)


@dataclass(frozen=True)
class LoadedDocument:
    """What the two-pass parser returned: `files.LoadedDocument` without the
    decoded fields."""

    presentation: Presentation | None
    tensor: TensorPresentation | None
    violations: tuple[str, ...]
    has_tensor_block: bool


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_int(x) -> bool:
    return type(x) is int


def parse_document_two_pass(doc) -> LoadedDocument:
    """Parse a decoded JSON document.

    Structural problems (wrong JSON types) raise ParseError; semantic
    problems that are representable (unknown symbols, bad multiplicities,
    a non-bijective suspension) are returned as violations.
    """
    _require(isinstance(doc, dict), "document: expected an object")
    _require("n" in doc, "field n: missing")
    _require(_is_int(doc["n"]), "field n: expected an integer")
    _require("indecomposables" in doc, "field indecomposables: missing")
    indec = doc["indecomposables"]
    _require(
        isinstance(indec, list) and all(isinstance(x, str) for x in indec),
        "field indecomposables: expected a list of strings",
    )
    _require("suspension" in doc, "field suspension: missing")
    susp = doc["suspension"]
    _require(
        isinstance(susp, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in susp.items()),
        "field suspension: expected a string-to-string object",
    )
    angles_raw = doc.get("angles", [])
    _require(isinstance(angles_raw, list), "field angles: expected a list")
    for ai, angle in enumerate(angles_raw):
        _require(isinstance(angle, list), f"field angles[{ai}]: expected a list")
        for vi, vertex in enumerate(angle):
            _require(
                isinstance(vertex, dict)
                and all(isinstance(k, str) and _is_int(v) for k, v in vertex.items()),
                f"field angles[{ai}][{vi}]: expected a symbol-to-integer object",
            )
    tensor_raw = doc.get("tensor")
    has_tensor = tensor_raw is not None
    if has_tensor:
        _require(isinstance(tensor_raw, dict), "field tensor: expected an object")
        _require("unit" in tensor_raw, "field tensor.unit: missing")
        _require("table" in tensor_raw, "field tensor.table: missing")
        _require(
            isinstance(tensor_raw["unit"], dict)
            and all(
                isinstance(k, str) and _is_int(v) for k, v in tensor_raw["unit"].items()
            ),
            "field tensor.unit: expected a symbol-to-integer object",
        )
        _require(isinstance(tensor_raw["table"], dict), "field tensor.table: expected an object")
        for key, value in tensor_raw["table"].items():
            _require(
                isinstance(key, str)
                and isinstance(value, dict)
                and all(isinstance(k, str) and _is_int(v) for k, v in value.items()),
                f"field tensor.table[{key!r}]: expected a symbol-to-integer object",
            )

    violations: list[str] = []
    names = tuple(indec)
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        violations.append("indecomposable names are not distinct")
    violations += [f"indecomposable name {x!r}: must not contain '|'" for x in names if "|" in x]

    def resolve_object(raw: dict, where: str) -> ObjectVec | None:
        vec = [0] * len(names)
        ok = True
        for name, mult in raw.items():
            if name not in index:
                violations.append(f"{where}: unknown symbol {name!r}")
                ok = False
                continue
            if mult < 1:
                violations.append(f"{where}: multiplicity for {name!r} must be positive")
                ok = False
                continue
            vec[index[name]] = mult
        return tuple(vec) if ok else None

    susp_images = [None] * len(names)
    for key, value in susp.items():
        if key not in index:
            violations.append(f"suspension: unknown symbol {key!r}")
            continue
        if value not in index:
            violations.append(f"suspension: unknown image symbol {value!r}")
            continue
        susp_images[index[key]] = index[value]
    for name in names:
        if susp_images[index[name]] is None and name not in susp:
            violations.append(f"suspension: missing symbol {name!r}")
    if None not in susp_images and len(set(susp_images)) != len(susp_images):
        violations.append("suspension not bijective")

    angle_objs = []
    for ai, angle in enumerate(angles_raw):
        vertices = []
        for vi, vertex in enumerate(angle):
            obj = resolve_object(vertex, f"angles[{ai}][{vi}]")
            vertices.append(obj)
        angle_objs.append(vertices)

    tensor_table = {}
    tensor_unit = None
    if has_tensor:
        tensor_unit = resolve_object(tensor_raw["unit"], "tensor.unit")
        seen_pairs = set()
        for key, value in tensor_raw["table"].items():
            parts = key.split("|")
            if len(parts) != 2:
                violations.append(f"tensor.table key {key!r}: expected 'x|y'")
                continue
            left, right = parts
            if left not in index or right not in index:
                violations.append(f"tensor.table key {key!r}: unknown symbol")
                continue
            if table_key(left, right) != key:
                violations.append(
                    f"tensor.table key {key!r}: smaller name must come first"
                )
                continue
            pair = (index[left], index[right])
            seen_pairs.add(pair)
            obj = resolve_object(value, f"tensor.table[{key!r}]")
            if obj is not None:
                tensor_table[pair] = obj
        for i in range(len(names)):
            for j in range(i, len(names)):
                if (i, j) not in seen_pairs and (j, i) not in seen_pairs:
                    violations.append(
                        f"tensor.table: missing entry for "
                        f"{names[i]!r}, {names[j]!r}"
                    )

    if violations:
        return LoadedDocument(
            presentation=None,
            tensor=None,
            violations=tuple(violations),
            has_tensor_block=has_tensor,
        )

    presentation = Presentation(
        n=doc["n"],
        indec_names=names,
        suspension=Suspension(tuple(susp_images)),
        angles=tuple(Angle(tuple(vs)) for vs in angle_objs),
    )
    tensor = None
    if has_tensor:
        tensor = TensorPresentation(presentation, tensor_table, tensor_unit)
    return LoadedDocument(
        presentation=presentation,
        tensor=tensor,
        violations=(),
        has_tensor_block=has_tensor,
    )
