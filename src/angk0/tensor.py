"""Object-level symmetric tensor structure and the Grothendieck ring.

A tensor table on indecomposables extends bilinearly to all objects.  When
the table is compatible with the angle structure (tensoring fixes the
relation lattice), multiplication descends to classes and the group becomes
a commutative ring whose ideals match the dense complete tensor ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Certificate, SubcategoryLattice, is_complete, is_dense
from .errors import EvenNUnsupportedError, InfiniteGroupError, InvalidTensorError
from .k0 import K0Result, k0 as compute_k0
from .lattices import GroupElement, Lattice, Subgroup, _join_closure
from .presentations import (
    ObjectVec,
    Presentation,
    ViolationReport,
    _int_entries,
    basis_object,
    object_vec,
    suspend_object,
)


class TensorPresentation:
    """A presentation plus a symmetric tensor table on indecomposables.

    `table` maps index pairs to objects, in one orientation or both; a pair
    with no entry, or with two that differ, is refused with
    InvalidTensorError, and a key entry not an int in 0..rank-1 or a value
    that `object_vec` refuses or of the wrong length with ValueError.  The
    stored table holds both orientations of every pair.  `unit` is the
    monoidal unit object.
    """

    __slots__ = ("base", "table", "unit")

    def __init__(self, base: Presentation, table, unit):
        self.base = base
        given, full, violations = {}, {}, []
        for (i, j), value in table.items():
            if not _int_entries((i, j)):
                raise ValueError(f"table key {(i, j)} entries must be ints")
            i, j, v = int(i), int(j), object_vec(value)
            if not (0 <= i < base.rank and 0 <= j < base.rank):
                raise ValueError(f"table key {(i, j)} out of range for rank {base.rank}")
            if len(v) != base.rank:
                raise ValueError("table value has wrong length")
            given[(i, j)] = v
        for i in range(base.rank):
            for j in range(i, base.rank):
                a, b = base.indec_names[i], base.indec_names[j]
                values = {given[key] for key in ((i, j), (j, i)) if key in given}
                if len(values) == 1:
                    full[(i, j)] = full[(j, i)] = values.pop()
                elif values:
                    violations.append(f"symmetry: table({a}, {b}) != table({b}, {a})")
                else:
                    violations.append(f"missing-entry: no product for ({a}, {b})")
        if violations:
            raise InvalidTensorError("tensor table is not complete and symmetric", violations)
        self.table = full
        self.unit = object_vec(unit)
        if len(self.unit) != base.rank:
            raise ValueError("unit has wrong length")

    def product_basis(self, i: int, j: int) -> ObjectVec:
        return self.table[(i, j)]


def tensor_int_vectors(t: TensorPresentation, v, w) -> tuple[int, ...]:
    """Bilinear extension of the table to arbitrary integer vectors."""
    v, w = tuple(v), tuple(w)
    rank = t.base.rank
    if len(v) != rank or len(w) != rank:
        raise ValueError("vectors have wrong length")
    out = [0] * rank
    for i, a in enumerate(v):
        if not a:
            continue
        for j, b in enumerate(w):
            if not b:
                continue
            prod = t.product_basis(i, j)
            coeff = a * b
            for idx, x in enumerate(prod):
                out[idx] += coeff * x
    return tuple(out)


def tensor_objects(t: TensorPresentation, v, w) -> ObjectVec:
    """Tensor product of two objects (commutative by table symmetry)."""
    return tensor_int_vectors(t, object_vec(v), object_vec(w))


def _tensor_escapes(t: TensorPresentation, lattice: Lattice):
    """(i, row) for each symbol i and basis row with e_i (x) row outside the
    lattice; by bilinearity, none means the lattice is tensor-closed."""
    rank = t.base.rank
    for i in range(rank):
        e = basis_object(rank, i)
        for row in lattice.basis:
            if tensor_int_vectors(t, e, row) not in lattice:
                yield i, row


def validate_tensor(t: TensorPresentation, relations: Lattice) -> ViolationReport:
    """Check the object-level tensor axioms.

    The table is complete and symmetric by construction.  This checks the
    unit law, associativity on all indecomposable triples, suspension
    compatibility, and the angle-compatibility condition
    e_i (x) relations <= relations for the relation lattice of t.base,
    which is what makes class multiplication well-defined.
    """
    p = t.base
    rank = p.rank
    names = p.indec_names
    violations = []
    for j in range(rank):
        e = basis_object(rank, j)
        if tensor_int_vectors(t, t.unit, e) != e:
            violations.append(f"unit: unit (x) {names[j]} != {names[j]}")

    for i in range(rank):
        for j in range(rank):
            for kdx in range(rank):
                left = tensor_int_vectors(
                    t, t.product_basis(i, j), basis_object(rank, kdx)
                )
                right = tensor_int_vectors(
                    t, basis_object(rank, i), t.product_basis(j, kdx)
                )
                if left != right:
                    violations.append(
                        f"associativity: ({names[i]} (x) {names[j]}) (x) {names[kdx]} "
                        f"differs from {names[i]} (x) ({names[j]} (x) {names[kdx]})"
                    )

    for i in range(rank):
        for j in range(rank):
            si = p.suspension.images[i]
            left = t.product_basis(si, j)
            right = suspend_object(p, t.product_basis(i, j))
            if left != right:
                violations.append(
                    f"suspension-compatibility: (S {names[i]}) (x) {names[j]} "
                    f"!= S({names[i]} (x) {names[j]})"
                )

    for i, row in _tensor_escapes(t, relations):
        violations.append(
            f"angle-compatibility: {names[i]} (x) relation row {list(row)} "
            "leaves the relation lattice"
        )
    return ViolationReport(tuple(violations))


class K0Ring:
    """The Grothendieck group with multiplication induced by the table."""

    __slots__ = ("result", "tensor", "_principal")

    def __init__(self, result: K0Result, tensor: TensorPresentation):
        self.result = result
        self.tensor = tensor
        self._principal = {}  # coset rep -> _principal_rows, built once per ring

    @property
    def group(self):
        return self.result.group

    @property
    def unit_class(self) -> GroupElement:
        return self.group.element(self.tensor.unit)

    def mul(self, x: GroupElement, y: GroupElement) -> GroupElement:
        if x.group != self.group or y.group != self.group:
            raise ValueError("elements of a different group")
        return self.group.element(tensor_int_vectors(self.tensor, x.vec, y.vec))

    def structure_constants(self) -> dict[tuple[int, int], GroupElement]:
        rank = self.result.presentation.rank
        out = {}
        for i in range(rank):
            for j in range(i, rank):
                out[(i, j)] = self.group.element(self.tensor.product_basis(i, j))
        return out


def ring(t: TensorPresentation) -> K0Ring:
    """Build the Grothendieck ring; a valid table and odd n are required."""
    k = compute_k0(t.base)
    report = validate_tensor(t, k.relation_lattice)
    if not report.valid:
        raise InvalidTensorError(
            "tensor table failed validation", violations=report.violations
        )
    if t.base.n % 2 == 0:
        raise EvenNUnsupportedError("the ring structure is only available for odd n")
    return K0Ring(result=k, tensor=t)


@dataclass(frozen=True)
class RingIdeal:
    subgroup: Subgroup
    prime: bool


def _principal_rows(r: K0Ring, v) -> tuple[tuple[int, ...], ...]:
    # e_i (x) v for every symbol i.  Over the relations these span the
    # principal ideal of v, which holds v itself: validate_tensor checks the
    # unit law on objects, so unit (x) v == v exactly.  The ideal closure
    # and the prime test ask for the same reps, so each is built once.
    rows = r._principal.get(v)
    if rows is None:
        rank = r.result.presentation.rank
        rows = r._principal[v] = tuple(
            tensor_int_vectors(r.tensor, basis_object(rank, i), v) for i in range(rank))
    return rows


def is_prime_ideal(r: K0Ring, ideal) -> bool:
    """Prime test for a RingIdeal, or a Subgroup that must be an ideal.

    It decides the verbatim definition: a*b in I implies a in I or b in I,
    with no properness requirement (the full ring passes vacuously).
    """
    subgroup = ideal.subgroup if isinstance(ideal, RingIdeal) else ideal
    if not r.group.is_finite:
        raise InfiniteGroupError("prime testing requires a finite ring")
    return _object_prime(r, subgroup.preimage)


def _object_prime(r: K0Ring, preimage) -> bool:
    # R is a finite commutative unital ring, so a proper prime ideal is
    # maximal (Atiyah-Macdonald, Prop. 8.1): I is prime iff I = R or
    # I + aR = R for every a outside I.  The principal rows are int tuples
    # of length rank, so the joins skip `Lattice.join`'s row check.
    rank, basis = preimage.ambient_rank, preimage.basis
    return preimage.is_full() or all(
        Lattice(rank, basis + _principal_rows(r, a), _plain=True).is_full()
        for a in preimage.coset_reps()
        if any(a)
    )


def enumerate_ideals(r: K0Ring) -> list[RingIdeal]:
    """Every ideal: the relation lattice closed under joins with principal ideals.

    `src/` has no independent ideal count: only `tests/support.ideals_by_filter`
    checks that the list is exhaustive.
    """
    if not r.group.is_finite:
        raise InfiniteGroupError("ideal enumeration requires a finite ring")
    subgroups = _join_closure(r.group, lambda v: _principal_rows(r, v))
    return [RingIdeal(subgroup=s, prime=is_prime_ideal(r, s)) for s in subgroups]


@dataclass(frozen=True)
class TensorCorrespondenceEntry:
    """One ideal with its subcategory.  Joins of principal ideals are
    tensor-closed, and the prime flag is the object-pair prime property."""

    ideal: RingIdeal
    subcategory: SubcategoryLattice
    dense: Certificate
    complete: Certificate

    @property
    def verified(self) -> bool:
        return self.dense.holds and self.complete.holds


@dataclass(frozen=True)
class TensorCorrespondenceReport:
    ring: K0Ring
    ideal_count: int
    entries: tuple[TensorCorrespondenceEntry, ...]
    distinct_lattices: int

    @property
    def all_verified(self) -> bool:
        return all(e.verified for e in self.entries)


def verify_tensor_correspondence(t: TensorPresentation) -> TensorCorrespondenceReport:
    """Exhaustive verification of the ideal correspondence.

    Every ideal must induce a dense, complete subcategory.  The
    subcategory's lattice is the ideal's preimage, listed once by the
    enumeration, so it maps back to the ideal, is tensor-closed, and its
    object-pair prime property is the ideal's prime flag.  `src/` has no
    independent ideal count: only `tests/support.ideals_by_filter` checks
    that every ideal is listed.
    """
    r = ring(t)
    k = r.result
    entries = []
    for ideal in enumerate_ideals(r):
        sub = SubcategoryLattice(k, ideal.subgroup)
        entries.append(
            TensorCorrespondenceEntry(
                ideal=ideal,
                subcategory=sub,
                dense=is_dense(sub),
                complete=is_complete(sub),
            )
        )
    return TensorCorrespondenceReport(
        ring=r,
        ideal_count=len(entries),
        entries=tuple(entries),
        distinct_lattices=len(entries),
    )
