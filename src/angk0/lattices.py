"""Exact integer linear algebra: normal forms, row lattices, and finitely
generated abelian groups presented as quotients of Z^r.

Everything runs on Python's arbitrary-precision integers.  Intermediate
entries in the normal-form routines can exceed machine words even for small
inputs, so no fixed-width shortcuts are taken anywhere.

Each normal form has one elimination, which carries companion matrices
only on request.  `Lattice` and `FgAbelianGroup` use it transform-free;
only the public `hermite_normal_form` and `smith_normal_form` build the
unimodular transforms.
"""

from __future__ import annotations

import itertools
import math

from .errors import InfiniteGroupError, NotWellDefinedError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Invariants:      x * a +      y * b ==      g
    #             next_x * a + next_y * b == next_g
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, found {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.entries = data
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        if other.rows == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        cols = list(zip(*other.entries))
        out = [
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in self.entries
        ]
        return IntMatrix(out, cols=other.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def apply_matrix(vec, matrix: IntMatrix) -> tuple[int, ...]:
    """Image of a row vector under right multiplication by `matrix`."""
    vec = tuple(vec)
    if len(vec) != matrix.rows:
        raise ValueError("vector length does not match matrix row count")
    out = [0] * matrix.cols
    for x, row in zip(vec, matrix.entries):
        if x:
            for j, m in enumerate(row):
                out[j] += x * m
    return tuple(out)


def _row_combine(a, u, r, i, col):
    # Make a[r][col] = gcd(a[r][col], a[i][col]) and a[i][col] = 0 with a
    # unimodular operation on rows r and i, mirrored on u unless u is None.
    ar, ai = a[r][col], a[i][col]
    if ai == 0:
        return
    mats = (a,) if u is None else (a, u)
    if ar == 0:
        for m in mats:
            m[r], m[i] = m[i], m[r]
    elif ai % ar == 0:
        q = ai // ar
        for m in mats:
            m[i] = [x - q * y for x, y in zip(m[i], m[r])]
    else:
        x, y, g = xgcd(ar, ai)
        p, q = ai // g, ar // g  # det [[x, y], [-p, q]] = (x*ar + y*ai)/g = 1
        for m in mats:
            m[r], m[i] = (
                [x * s + y * t for s, t in zip(m[r], m[i])],
                [-p * s + q * t for s, t in zip(m[r], m[i])],
            )


def _hermite_rows(a, cols, u=None):
    # Bring the row lists a to Hermite normal form in place, mirroring every
    # row operation on u unless u is None.
    mats = (a,) if u is None else (a, u)
    piv = 0
    for col in range(cols):
        if piv >= len(a):
            break
        for i in range(piv + 1, len(a)):
            _row_combine(a, u, piv, i, col)
        if a[piv][col] == 0:
            continue
        if a[piv][col] < 0:
            for m in mats:
                m[piv] = [-x for x in m[piv]]
        for i in range(piv):
            q = a[i][col] // a[piv][col]
            if q:
                for m in mats:
                    m[i] = [x - q * y for x, y in zip(m[i], m[piv])]
        piv += 1


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (h, u) with u unimodular, u @ m == h, every pivot positive,
    entries above a pivot reduced into [0, pivot), and zero rows at the
    bottom.  The nonzero rows are the canonical basis of the row span.
    """
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    _hermite_rows(a, m.cols, u)
    return IntMatrix(a, cols=m.cols), IntMatrix(u, cols=m.rows)


def _col_combine(a, v, t, j, row):
    # Column analogue of _row_combine, acting on columns t and j; the same
    # transformation is applied to the columns of v unless v is None.
    at, aj = a[row][t], a[row][j]
    if aj == 0:
        return
    rows = a if v is None else a + v
    if at == 0:
        for r in rows:
            r[t], r[j] = r[j], r[t]
    elif aj % at == 0:
        q = aj // at
        for r in rows:
            r[j] -= q * r[t]
    else:
        x, y, g = xgcd(at, aj)
        p, q = aj // g, at // g
        for r in rows:
            r[t], r[j] = x * r[t] + y * r[j], -p * r[t] + q * r[j]


def _smith_diagonal(a, cols, u=None, v=None):
    # Bring the row lists a to Smith normal form in place, mirroring row
    # operations on u and column operations on v unless they are None, and
    # return the diagonal.
    nr, nc = len(a), cols
    mats = (a,) if u is None else (a, u)
    for t in range(min(nr, nc)):
        while True:
            # Smallest nonzero entry, first in row-major order on ties.
            pivot = min(
                ((abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]),
                default=None,
            )
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != t:
                for m in mats:
                    m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for r in a if v is None else a + v:
                    r[t], r[pj] = r[pj], r[t]
            while True:
                for i in range(t + 1, nr):
                    _row_combine(a, u, t, i, t)
                for j in range(t + 1, nc):
                    _col_combine(a, v, t, j, t)
                if not any(a[t][t + 1 :]) and not any(a[i][t] for i in range(t + 1, nr)):
                    break
            # Divisibility fix-up: drag in a row holding an entry the corner
            # does not divide; the corner strictly shrinks, so this ends.
            offender = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % a[t][t]),
                None,
            )
            if offender is None:
                break
            for m in mats:
                m[t] = [x + y for x, y in zip(m[t], m[offender])]
        if a[t][t] < 0:
            for m in mats:
                m[t] = [-x for x in m[t]]
        if a[t][t] == 0:
            break
    return [a[i][i] for i in range(min(nr, nc))]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (d, u, v) with u, v unimodular and u @ m @ v == d, where d is
    diagonal with nonnegative entries satisfying d[i] | d[i+1].
    """
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    _smith_diagonal(a, m.cols, u, v)
    return IntMatrix(a, cols=m.cols), IntMatrix(u, cols=m.rows), IntMatrix(v, cols=m.cols)


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


class Lattice:
    """An integer row span inside Z^r, stored by its canonical Hermite basis.

    Canonical storage makes equality of lattices equality of the stored
    bases, which the correspondence's distinct-lattice count relies on.
    """

    __slots__ = ("ambient_rank", "basis", "_pivot_of_col")

    def __init__(self, ambient_rank: int, rows=()):
        a = [list(row) for row in IntMatrix(rows, cols=ambient_rank).entries]
        _hermite_rows(a, ambient_rank)
        self.ambient_rank = ambient_rank
        self.basis = tuple(tuple(row) for row in a if any(row))
        self._pivot_of_col = {
            next(j for j, x in enumerate(row) if x): idx for idx, row in enumerate(self.basis)
        }

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __contains__(self, vec) -> bool:
        v = [int(x) for x in vec]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        for j in range(self.ambient_rank):
            if v[j] == 0:
                continue
            idx = self._pivot_of_col.get(j)
            if idx is None:
                return False
            row = self.basis[idx]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            for k in range(j, self.ambient_rank):
                v[k] -= q * row[k]
        return True

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.ambient_rank != self.ambient_rank:
            raise ValueError("ambient ranks differ")
        return all(row in self for row in other.basis)

    def join(self, rows) -> "Lattice":
        """Smallest lattice containing self and the given rows."""
        return Lattice(self.ambient_rank, self.basis + tuple(tuple(r) for r in rows))

    def is_full(self) -> bool:
        # A Hermite basis of full rank with unit pivots is the identity.
        return self.index_in_ambient() == 1

    def index_in_ambient(self) -> int | None:
        """[Z^r : L] when L has full rank, else None."""
        if self.rank != self.ambient_rank:
            return None
        return math.prod(row[i] for i, row in enumerate(self.basis))

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"Lattice({self.ambient_rank}, {[list(r) for r in self.basis]!r})"


def lattice_membership(lattice: Lattice, vec) -> bool:
    """Decide v in L by back-substitution against the Hermite basis."""
    return tuple(vec) in lattice


class FgAbelianGroup:
    """Z^r modulo an integer row lattice.

    Carries the invariant factors, the free rank, and a canonical coset
    representative map: two vectors reduce to the same representative
    exactly when their difference lies in the relation lattice.
    """

    __slots__ = ("ambient_rank", "relations", "invariant_factors", "free_rank", "_pivots")

    def __init__(self, relations: Lattice):
        self.relations = relations
        self.ambient_rank = relations.ambient_rank
        diag = _smith_diagonal([list(row) for row in relations.basis], self.ambient_rank)
        self.invariant_factors = tuple(x for x in diag if x > 1)
        self.free_rank = self.ambient_rank - relations.rank
        # (pivot column, row) pairs in increasing column order; later rows
        # never touch earlier pivot columns, so greedy reduction lands in a
        # fundamental domain.
        self._pivots = tuple(
            (col, relations.basis[idx]) for col, idx in relations._pivot_of_col.items()
        )

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        if not self.is_finite:
            return None
        return math.prod(self.invariant_factors)

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coset representative of a vector in Z^r."""
        v = [int(x) for x in vec]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        for col, row in self._pivots:
            q = v[col] // row[col]
            if q:
                for k in range(col, self.ambient_rank):
                    v[k] -= q * row[k]
        return tuple(v)

    def element(self, vec) -> "GroupElement":
        return GroupElement(self, self.reduce(vec))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ambient_rank)

    def elements(self):
        """All elements of a finite group, by canonical representative."""
        if not self.is_finite:
            raise InfiniteGroupError("cannot enumerate an infinite group")
        bounds = [row[i] for i, row in enumerate(self.relations.basis)]
        for rep in itertools.product(*(range(b) for b in bounds)):
            yield GroupElement(self, rep)

    def __eq__(self, other):
        return isinstance(other, FgAbelianGroup) and self.relations == other.relations

    def __hash__(self):
        return hash(self.relations)

    def __repr__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{f}" for f in self.invariant_factors]
        return f"FgAbelianGroup({' + '.join(parts) if parts else '0'})"


class GroupElement:
    """An element of an FgAbelianGroup, held by canonical representative."""

    __slots__ = ("group", "vec")

    def __init__(self, group: FgAbelianGroup, vec: tuple[int, ...]):
        self.group = group
        self.vec = vec

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return self.group.element([a + b for a, b in zip(self.vec, other.vec)])

    def __neg__(self) -> "GroupElement":
        return self.group.element([-a for a in self.vec])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        return self.group.element([k * a for a in self.vec])

    @property
    def is_zero(self) -> bool:
        return not any(self.vec)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return f"GroupElement({list(self.vec)!r})"


def quotient_group(lattice: Lattice) -> FgAbelianGroup:
    """The quotient of Z^r by an integer row lattice."""
    return FgAbelianGroup(lattice)


class Subgroup:
    """A subgroup of an FgAbelianGroup, stored as its full preimage lattice
    in Z^r (which always contains the relation lattice)."""

    __slots__ = ("group", "preimage")

    def __init__(self, group: FgAbelianGroup, preimage: Lattice):
        if not preimage.contains_lattice(group.relations):
            raise ValueError("preimage lattice must contain the relation lattice")
        self.group = group
        self.preimage = preimage

    def contains(self, element: GroupElement) -> bool:
        if element.group != self.group:
            raise ValueError("element of a different group")
        return element.vec in self.preimage

    def generators(self) -> list[GroupElement]:
        """Group elements generating the subgroup (classes of basis rows)."""
        return [self.group.element(row) for row in self.preimage.basis]

    def order(self) -> int | None:
        """|H| = [Z^r : relations] / [Z^r : preimage] for finite groups."""
        if not self.group.is_finite:
            return None
        return (
            self.group.relations.index_in_ambient()
            // self.preimage.index_in_ambient()
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.preimage == other.preimage
        )

    def __hash__(self):
        return hash(self.preimage)

    def __repr__(self):
        return f"Subgroup(basis={[list(r) for r in self.preimage.basis]!r})"


def subgroup_from_generators(group: FgAbelianGroup, gens) -> Subgroup:
    """The subgroup generated by the given elements."""
    rows = []
    for g in gens:
        if g.group != group:
            raise ValueError("generator from a different group")
        rows.append(g.vec)
    return Subgroup(group, group.relations.join(rows))


def enumerate_subgroups(group: FgAbelianGroup) -> list[Subgroup]:
    """Every subgroup of a finite group, in lexicographic basis order.

    Subgroups correspond to the lattices between the relation lattice and
    Z^r.  Each is generated over the relations by finitely many elements, so
    closing the relation lattice under joins with one element reaches all.
    """
    if not group.is_finite:
        raise InfiniteGroupError("subgroup enumeration requires a finite group")
    elements = [x.vec for x in group.elements()]
    found = {group.relations}
    pending = [group.relations]
    while pending:
        lattice = pending.pop()
        new = {lattice.join([vec]) for vec in elements if vec not in lattice} - found
        found |= new
        pending += new
    return [Subgroup(group, lattice) for lattice in sorted(found, key=lambda lat: lat.basis)]


class GroupHom:
    """A homomorphism between quotient groups, induced by an integer matrix
    on the ambient spaces (row vectors act on the left)."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup, matrix: IntMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def __call__(self, element: GroupElement) -> GroupElement:
        if element.group != self.source:
            raise ValueError("element not in the source group")
        return self.target.element(apply_matrix(element.vec, self.matrix))

    def __repr__(self):
        return f"GroupHom({self.matrix!r})"


def hom_from_generator_images(
    source: FgAbelianGroup, target: FgAbelianGroup, matrix: IntMatrix
) -> GroupHom:
    """Build the hom induced by `matrix`, verifying well-definedness.

    Raises NotWellDefinedError with a witness relation row when the matrix
    fails to map the source relations into the target relations.
    """
    if matrix.rows != source.ambient_rank or matrix.cols != target.ambient_rank:
        raise ValueError("matrix shape does not match the ambient ranks")
    for row in source.relations.basis:
        if apply_matrix(row, matrix) not in target.relations:
            raise NotWellDefinedError(
                f"relation row {list(row)} does not map into the target relations",
                witness=row,
            )
    return GroupHom(source, target, matrix)


def is_surjective(hom: GroupHom) -> bool:
    """True iff the image lattice plus the target relations is all of Z^r."""
    rows = hom.matrix.entries + hom.target.relations.basis
    return Lattice(hom.target.ambient_rank, rows).is_full()
