import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import angk0.tensor
from angk0.errors import EvenNUnsupportedError, InvalidTensorError
from angk0.k0 import k0, relation_lattice
from angk0.lattices import enumerate_subgroups
from angk0.presentations import (
    Angle,
    Presentation,
    Suspension,
    ViolationReport,
    basis_object,
)
from angk0.tensor import (
    TensorPresentation,
    _principal_rows,
    enumerate_ideals,
    is_prime_ideal,
    ring,
    tensor_int_vectors,
    tensor_objects,
    validate_tensor,
    verify_tensor_correspondence,
)
from support import (
    ideals_by_filter,
    object_prime_by_pairs,
    random_valid_tensor,
    table_violations,
)


def make(n, rank, images=None, angles=()):
    return Presentation(
        n=n,
        indec_names=tuple("abcdef"[:rank]),
        suspension=Suspension(tuple(images if images is not None else range(rank))),
        angles=angles,
    )


def f2_tensor():
    # single symbol, x (x) x = x, unit x: the two-element field
    return TensorPresentation(make(3, 1), {(0, 0): (1,)}, (1,))


def componentwise_tensor():
    # (Z/2)^2 with componentwise product: two orthogonal idempotents
    return TensorPresentation(
        make(3, 2), {(0, 0): (1, 0), (0, 1): (0, 0), (1, 1): (0, 1)}, (1, 1)
    )


def zero_ring_tensor():
    # trivial Grothendieck group: the listed angle forces [x] = 0
    p = make(3, 1, angles=(Angle(((1,), (0,), (0,))),))
    return TensorPresentation(p, {(0, 0): (1,)}, (1,))


class TestValidate:
    def test_one_element_table(self):
        report = validate_tensor(f2_tensor(), relation_lattice(f2_tensor().base))
        assert type(report) is ViolationReport
        assert report.valid

    def test_missing_pair(self):
        # only (a, a) is listed: construction needs every pair
        with pytest.raises(InvalidTensorError) as refused:
            TensorPresentation(make(3, 2), {(0, 0): (1, 0)}, (1, 0))
        assert refused.value.violations == ("missing-entry: no product for (a, b)",
                                            "missing-entry: no product for (b, b)")

    def test_asymmetric_table(self):
        with pytest.raises(InvalidTensorError) as refused:
            TensorPresentation(
                make(3, 2),
                {(0, 1): (1, 0), (1, 0): (0, 1), (0, 0): (1, 0), (1, 1): (0, 1)},
                (1, 1),
            )
        assert refused.value.violations == ("symmetry: table(a, b) != table(b, a)",)

    @pytest.mark.parametrize("table", [
        {(0, 0): (1,), (0, 1): (0,), (7, -2): (1,)},
        {(0, 0): (1,), (7, -2): (1,)},
        {(0, 0): (1,), (-1, 0): (1,)},
        {(1, 0): (1,), (0, 0): (1,)},
    ])
    def test_key_out_of_range(self, table):
        # refused like a value of the wrong length, not dropped
        with pytest.raises(ValueError, match="out of range for rank 1") as refused:
            TensorPresentation(make(3, 1), table, (1,))
        assert type(refused.value) is ValueError

    def test_angle_compatibility(self):
        # relation lattice contains e_a; tensoring by b sends it to e_b,
        # which escapes the lattice
        p = make(3, 2, angles=(Angle(((1, 0), (0, 0), (0, 0))),))
        t = TensorPresentation(
            p, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)}, (1, 0)
        )
        report = validate_tensor(t, relation_lattice(t.base))
        assert any(v.startswith("angle-compatibility") for v in report.violations)


@st.composite
def tables(draw):
    """A table on r = 0..4 symbols keyed by index pairs: each unordered pair
    absent, in one orientation, or in both (equal or not), with values in
    {0, 1}^r."""
    rank = draw(st.integers(0, 4))
    value = st.tuples(*[st.integers(0, 1)] * rank)
    table = {}
    for i in range(rank):
        for j in range(i, rank):
            kind = draw(st.sampled_from(["absent", "forward", "backward", "both", "two"]))
            if kind in ("forward", "both", "two"):
                table[(i, j)] = draw(value)
            if kind in ("backward", "two"):
                table[(j, i)] = draw(value)
            elif kind == "both":
                table[(j, i)] = table[(i, j)]
    return make(3, rank), table


@settings(max_examples=300, deadline=None)
@given(tables())
def test_construction_refuses_exactly_the_table_scan(case):
    p, table = case
    expected = table_violations(p.indec_names, table)
    try:
        t = TensorPresentation(p, table, (0,) * p.rank)
    except InvalidTensorError as exc:
        assert exc.violations == expected != ()
        return
    assert expected == ()
    for (i, j), value in table.items():
        assert t.product_basis(i, j) == t.product_basis(j, i) == value


class TestTensorObjects:
    def test_unit_law(self):
        t = componentwise_tensor()
        for j in range(2):
            assert tensor_objects(t, t.unit, basis_object(2, j)) == basis_object(2, j)

    def test_zero_absorbs(self):
        t = componentwise_tensor()
        assert tensor_objects(t, (0, 0), (3, 5)) == (0, 0)

    def test_bilinear(self):
        t = componentwise_tensor()
        ea, eb = basis_object(2, 0), basis_object(2, 1)
        lhs = tensor_objects(t, (1, 1), ea)
        rhs = tuple(
            x + y for x, y in zip(tensor_objects(t, ea, ea), tensor_objects(t, eb, ea))
        )
        assert lhs == rhs

    def test_commutative(self):
        rng = random.Random(73)
        for _ in range(30):
            t = random_valid_tensor(rng)
            rank = t.base.rank
            v = tuple(rng.randint(0, 3) for _ in range(rank))
            w = tuple(rng.randint(0, 3) for _ in range(rank))
            assert tensor_objects(t, v, w) == tensor_objects(t, w, v)


class TestRing:
    def test_f2_field(self):
        r = ring(f2_tensor())
        assert r.group.order() == 2
        assert not r.unit_class.is_zero
        x = r.group.element((1,))
        assert r.mul(x, x) == x == r.unit_class

    def test_unit_is_identity(self):
        rng = random.Random(79)
        for _ in range(20):
            r = ring(random_valid_tensor(rng))
            for _ in range(10):
                x = r.group.element(
                    [rng.randint(-4, 4) for _ in range(r.result.presentation.rank)]
                )
                assert r.mul(r.unit_class, x) == x

    def test_ring_axioms_random(self):
        rng = random.Random(83)
        for _ in range(10):
            r = ring(random_valid_tensor(rng))
            rank = r.result.presentation.rank
            for _ in range(10):
                x, y, z = (
                    r.group.element([rng.randint(-4, 4) for _ in range(rank)])
                    for _ in range(3)
                )
                assert r.mul(x, y) == r.mul(y, x)
                assert r.mul(r.mul(x, y), z) == r.mul(x, r.mul(y, z))
                assert r.mul(x, y + z) == r.mul(x, y) + r.mul(x, z)

    def test_well_defined_under_lift_shifts(self):
        rng = random.Random(89)
        for _ in range(20):
            t = random_valid_tensor(rng)
            rank = t.base.rank
            rel = relation_lattice(t.base)
            k = k0(t.base)
            if not rel.basis:
                continue
            for _ in range(10):
                v = tuple(rng.randint(0, 3) for _ in range(rank))
                w = tuple(rng.randint(0, 3) for _ in range(rank))
                baseline = k.group.element(tensor_int_vectors(t, v, w))
                row = rel.basis[rng.randrange(len(rel.basis))]
                coeff = rng.randint(-2, 2)
                shifted = tuple(a + coeff * b for a, b in zip(w, row))
                assert k.group.element(tensor_int_vectors(t, v, shifted)) == baseline

    def test_even_n_refused(self):
        t = TensorPresentation(make(4, 1), {(0, 0): (1,)}, (1,))
        with pytest.raises(EvenNUnsupportedError):
            ring(t)

    def test_invalid_table_refused(self):
        p = make(3, 2, angles=(Angle(((1, 0), (0, 0), (0, 0))),))
        t = TensorPresentation(
            p, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)}, (1, 0)
        )
        with pytest.raises(InvalidTensorError):
            ring(t)


class TestIdeals:
    def test_f2_two_ideals(self):
        r = ring(f2_tensor())
        ideals = enumerate_ideals(r)
        assert len(ideals) == 2
        flags = {i.subgroup.order(): i.prime for i in ideals}
        assert flags == {1: True, 2: True}

    def test_zero_ring_single_ideal(self):
        r = ring(zero_ring_tensor())
        assert r.group.order() == 1
        assert len(enumerate_ideals(r)) == 1

    def test_componentwise_four_ideals(self):
        r = ring(componentwise_tensor())
        ideals = enumerate_ideals(r)
        assert len(ideals) == 4
        # the diagonal subgroup is a subgroup but not an ideal
        assert len(enumerate_subgroups(r.group)) == 5

    def test_prime_flags(self):
        r = ring(componentwise_tensor())
        ideals = enumerate_ideals(r)
        zero_ideal = next(i for i in ideals if i.subgroup.order() == 1)
        assert not zero_ideal.prime
        full_ideal = next(i for i in ideals if i.subgroup.order() == 4)
        assert full_ideal.prime  # verbatim definition: consequent always holds

    def test_is_prime_accepts_subgroup(self):
        r = ring(f2_tensor())
        trivial = enumerate_subgroups(r.group)[-1]
        assert trivial.order() in (1, 2)
        assert is_prime_ideal(r, trivial) in (True, False)


def graded_infinite_tensor():
    # swap suspension with no angles: the group is Z, so enumeration is
    # refused while the ring structure itself still exists
    p = make(3, 2, images=[1, 0])
    return TensorPresentation(
        p, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)}, (1, 0)
    )


class TestInfiniteRing:
    def test_ring_builds(self):
        r = ring(graded_infinite_tensor())
        assert not r.group.is_finite

    def test_enumeration_refused(self):
        from angk0.errors import InfiniteGroupError
        from angk0.lattices import Subgroup

        r = ring(graded_infinite_tensor())
        with pytest.raises(InfiniteGroupError):
            enumerate_ideals(r)
        with pytest.raises(InfiniteGroupError):
            is_prime_ideal(r, Subgroup(r.group, r.group.relations))
        with pytest.raises(InfiniteGroupError):
            verify_tensor_correspondence(graded_infinite_tensor())


class TestTensorCorrespondence:
    def test_f2(self):
        report = verify_tensor_correspondence(f2_tensor())
        assert report.ideal_count == 2
        assert report.all_verified

    def test_componentwise_excludes_diagonal(self):
        report = verify_tensor_correspondence(componentwise_tensor())
        assert report.ideal_count == 4
        assert report.all_verified
        r = ring(componentwise_tensor())
        diagonal = next(
            s
            for s in enumerate_subgroups(r.group)
            if s.order() == 2 and s.contains(r.group.element((1, 1)))
        )
        assert diagonal.preimage not in {
            e.ideal.subgroup.preimage for e in report.entries
        }

    def test_trivial_ring(self):
        report = verify_tensor_correspondence(zero_ring_tensor())
        assert report.ideal_count == 1
        assert report.all_verified


def finite_ring(rng):
    """The ring of a random valid tensor presentation, if finite of order
    at most 64."""
    r = ring(random_valid_tensor(rng))
    assume(r.group.is_finite and r.group.order() <= 64)
    return r


class TestIdealOracles:
    """enumerate_ideals against subgroups filtered for tensor closure, and
    its prime flags against the pair-loop definition."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_ideals_and_primes_match_oracles(self, rng):
        r = finite_ring(rng)
        ideals = enumerate_ideals(r)
        got = sorted(i.subgroup.preimage.basis for i in ideals)
        assert got == sorted(lattice.basis for lattice in ideals_by_filter(r))
        for ideal in ideals:
            assert ideal.prime == object_prime_by_pairs(r, ideal.subgroup.preimage)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_no_preimage_twice(self, rng):
        r = finite_ring(rng)
        for preimages in (
            [s.preimage for s in enumerate_subgroups(r.group)],
            [i.subgroup.preimage for i in enumerate_ideals(r)],
        ):
            assert len(set(preimages)) == len(preimages)


class TestPrincipalRowsOnce:
    """The ideal closure and the prime tests share one build of each coset
    rep's principal rows per verification."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_each_rep_built_once(self, rng):
        t = random_valid_tensor(rng)
        group = k0(t.base).group
        assume(group.is_finite and group.order() <= 64)
        reps, inside, built = [], [], []

        def principal(r, v):
            reps.append(v)
            inside.append(v)
            try:
                return _principal_rows(r, v)
            finally:
                inside.pop()

        def product(t, v, w):
            if inside:
                built.append(w)
            return tensor_int_vectors(t, v, w)

        with mock.patch.object(angk0.tensor, "_principal_rows", principal), \
                mock.patch.object(angk0.tensor, "tensor_int_vectors", product):
            report = verify_tensor_correspondence(t)
        assert len(built) <= t.base.rank * len(set(reps))
        r = report.ring
        assert [e.ideal.subgroup.preimage for e in report.entries] == ideals_by_filter(r)
        for e in report.entries:
            assert e.ideal.prime == object_prime_by_pairs(r, e.ideal.subgroup.preimage)


def identity_presentation(k):
    # n = 3 and identity suspension: K0 = (Z/2)^k
    names = tuple(f"e{i}" for i in range(k))
    return Presentation(n=3, indec_names=names, suspension=Suspension(tuple(range(k))))


def componentwise_power(k):
    # F2^k: k orthogonal idempotents summing to the unit
    table = {(i, j): basis_object(k, i) if i == j else (0,) * k
             for i in range(k) for j in range(i, k)}
    return TensorPresentation(identity_presentation(k), table, (1,) * k)


def cyclic_group_ring(k):
    # F2[C_k]: e_i (x) e_j = e_(i+j mod k), unit e_0
    table = {(i, j): basis_object(k, (i + j) % k) for i in range(k) for j in range(i, k)}
    return TensorPresentation(identity_presentation(k), table, basis_object(k, 0))


class TestClosedForms:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_componentwise_power(self, k):
        # 2^k ideals (one per subset of the idempotents); the primes are
        # the k maximal ideals and R itself
        ideals = enumerate_ideals(ring(componentwise_power(k)))
        assert len(ideals) == 2**k
        assert sum(i.prime for i in ideals) == k + 1

    @pytest.mark.parametrize("k, count", [(1, 2), (2, 3), (3, 4), (4, 5)])
    def test_cyclic_group_ring(self, k, count):
        # ideals of F2[x]/(x^k - 1) are the divisors of x^k - 1 over F2
        r = ring(cyclic_group_ring(k))
        ideals = enumerate_ideals(r)
        assert [i.subgroup.preimage for i in ideals] == ideals_by_filter(r)
        assert len(ideals) == count
        for ideal in ideals:
            assert ideal.prime == object_prime_by_pairs(r, ideal.subgroup.preimage)
