import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from angk0.errors import InfiniteGroupError, NotWellDefinedError
from angk0.lattices import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    determinant,
    enumerate_subgroups,
    hermite_normal_form,
    hom_from_generator_images,
    is_surjective,
    lattice_membership,
    quotient_group,
    smith_normal_form,
    subgroup_from_generators,
    xgcd,
)
from support import (
    brute_force_membership,
    count_cosets_exhaustive,
    invariant_factors_by_minors,
    subgroup_count_by_subsets,
)


def nonzero_rows(m):
    return [list(r) for r in m.entries if any(r)]


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


class TestHermite:
    def test_already_hnf(self):
        h, u = hermite_normal_form(IntMatrix([[2, 0], [0, 3]]))
        assert h.entries == ((2, 0), (0, 3))
        assert u @ IntMatrix([[2, 0], [0, 3]]) == h

    def test_zero_matrix(self):
        h, u = hermite_normal_form(IntMatrix([[0, 0], [0, 0]]))
        assert nonzero_rows(h) == []
        assert abs(determinant(u)) == 1

    def test_rank_drop(self):
        # frozen from the span {(4,6),(6,9)}: single canonical row (2,3)
        m = IntMatrix([[4, 6], [6, 9]])
        h, u = hermite_normal_form(m)
        assert nonzero_rows(h) == [[2, 3]]
        assert u @ m == h
        assert abs(determinant(u)) == 1
        # row-span equality, both directions, by exhaustive search
        for row in m.entries:
            assert brute_force_membership(nonzero_rows(h), row, 4)
        for row in nonzero_rows(h):
            assert brute_force_membership([list(r) for r in m.entries], row, 4)

    def test_random_properties(self):
        rng = random.Random(7)
        for _ in range(200):
            rows = rng.randint(0, 4)
            cols = rng.randint(1, 4)
            m = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            h, u = hermite_normal_form(m)
            assert u @ m == h
            assert abs(determinant(u)) == 1
            # canonical shape: positive pivots, reduced entries above
            pivots = []
            for row in h.entries:
                nz = [j for j, x in enumerate(row) if x]
                if not nz:
                    continue
                j = nz[0]
                assert row[j] > 0
                if pivots:
                    assert j > pivots[-1][0]
                pivots.append((j, row[j]))
            for k, (j, pivot) in enumerate(pivots):
                for i in range(k):
                    assert 0 <= h.entries[i][j] < pivot
            # span equality via two-sided membership
            lat_m = Lattice(cols, m.entries)
            lat_h = Lattice(cols, h.entries)
            assert lat_m == lat_h


class TestSmith:
    def test_identity(self):
        m = IntMatrix.identity(3)
        d, u, v = smith_normal_form(m)
        assert d == m
        assert u @ m @ v == d

    def test_diag_2_3(self):
        m = IntMatrix([[2, 0], [0, 3]])
        d, u, v = smith_normal_form(m)
        assert [d.entries[i][i] for i in range(2)] == [1, 6]
        assert u @ m @ v == d
        assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]

    def test_rank_deficient(self):
        m = IntMatrix([[2, 4], [4, 8]])
        d, u, v = smith_normal_form(m)
        assert [d.entries[i][i] for i in range(2)] == [2, 0]
        assert u @ m @ v == d
        assert invariant_factors_by_minors([[2, 4], [4, 8]]) == [2]

    def test_random_against_minors_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            entries = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            m = IntMatrix(entries, cols=cols)
            d, u, v = smith_normal_form(m)
            assert u @ m @ v == d
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            diag = [d.entries[i][i] for i in range(min(rows, cols))]
            for i in range(len(diag) - 1):
                assert diag[i] >= 0
                if diag[i + 1]:
                    assert diag[i] and diag[i + 1] % diag[i] == 0
            # off-diagonal must vanish
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d.entries[i][j] == 0
            assert [x for x in diag if x] == invariant_factors_by_minors(entries)


class TestMembership:
    def test_sum_of_basis_rows(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        assert lattice_membership(lat, (2, 2))

    def test_odd_coordinate(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        assert not lattice_membership(lat, (1, 0))

    def test_back_substitution_vs_exhaustive(self):
        rows = [(1, -1, 1), (0, 2, 0), (0, 0, 2)]
        lat = Lattice(3, rows)
        assert lattice_membership(lat, (1, 1, 1))
        assert brute_force_membership([list(r) for r in rows], (1, 1, 1), 2)
        rng = random.Random(3)
        for _ in range(100):
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            assert lattice_membership(lat, v) == brute_force_membership(
                [list(r) for r in rows], v, 4
            )

    def test_dimension_mismatch(self):
        lat = Lattice(2, [(2, 0)])
        with pytest.raises(ValueError):
            lattice_membership(lat, (1, 0, 0))


class TestQuotient:
    def test_diagonal(self):
        g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
        assert g.invariant_factors == (2, 2)
        assert g.free_rank == 0

    def test_no_relations(self):
        g = quotient_group(Lattice(2))
        assert g.invariant_factors == ()
        assert g.free_rank == 2

    def test_padded_snf_and_coset_count(self):
        rows = [(1, -1, 1), (0, 2, 0), (0, 0, 2)]
        g = quotient_group(Lattice(3, rows))
        assert g.invariant_factors == (2, 2)
        assert g.free_rank == 0
        assert g.order() == 4
        # exhaustive cross-check: 4 classes among the 8 vectors of {0,1}^3
        assert count_cosets_exhaustive([list(r) for r in rows], (2, 2, 2)) == 4

    def test_reduce_idempotent_and_coset_constant(self):
        rng = random.Random(5)
        for _ in range(50):
            rank = rng.randint(1, 4)
            rows = [
                tuple(rng.randint(-4, 4) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 1))
            ]
            g = quotient_group(Lattice(rank, rows))
            for _ in range(10):
                v = tuple(rng.randint(-10, 10) for _ in range(rank))
                rep = g.reduce(v)
                assert g.reduce(rep) == rep
                if g.relations.basis:
                    coeffs = [rng.randint(-3, 3) for _ in g.relations.basis]
                    shift = list(v)
                    for c, row in zip(coeffs, g.relations.basis):
                        for i, x in enumerate(row):
                            shift[i] += c * x
                    assert g.reduce(shift) == rep

    def test_equal_reps_iff_difference_in_lattice(self):
        rng = random.Random(17)
        for _ in range(30):
            rank = rng.randint(1, 3)
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(0, rank))
            ]
            g = quotient_group(Lattice(rank, rows))
            for _ in range(20):
                v = tuple(rng.randint(-6, 6) for _ in range(rank))
                w = tuple(rng.randint(-6, 6) for _ in range(rank))
                diff = tuple(a - b for a, b in zip(v, w))
                assert (g.reduce(v) == g.reduce(w)) == (diff in g.relations)


class TestSubgroups:
    def test_empty_generators(self):
        g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
        sub = subgroup_from_generators(g, [])
        assert sub.preimage == g.relations

    def test_full_generators(self):
        g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
        gens = [g.element((1, 0)), g.element((0, 1))]
        assert subgroup_from_generators(g, gens).preimage.is_full()

    def test_order_two_subgroup(self):
        g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
        sub = subgroup_from_generators(g, [g.element((1, 0))])
        assert sub.order() == 2
        # enumerate the subgroup's elements by closing under addition
        elems = {g.zero()}
        frontier = [g.element((1, 0))]
        while frontier:
            x = frontier.pop()
            if x not in elems:
                elems.add(x)
                frontier.extend(x + y for y in list(elems))
        assert len(elems) == 2

    def test_monotone_in_generators(self):
        rng = random.Random(13)
        for _ in range(50):
            rank = rng.randint(1, 3)
            rows = [tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(rank)]
            g = quotient_group(Lattice(rank, rows))
            gens = [
                g.element(tuple(rng.randint(-2, 2) for _ in range(rank)))
                for _ in range(3)
            ]
            small = subgroup_from_generators(g, gens[:2])
            large = subgroup_from_generators(g, gens)
            assert large.preimage.contains_lattice(small.preimage)

    def test_enumerate_trivial_group(self):
        g = quotient_group(Lattice(1, [(1,)]))
        assert len(enumerate_subgroups(g)) == 1

    def test_enumerate_z2(self):
        g = quotient_group(Lattice(1, [(2,)]))
        assert len(enumerate_subgroups(g)) == 2

    def test_enumerate_z2_squared(self):
        g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
        subs = enumerate_subgroups(g)
        assert len(subs) == 5
        assert subgroup_count_by_subsets(g) == 5
        # deterministic order, no duplicates
        bases = [s.preimage.basis for s in subs]
        assert bases == sorted(bases)
        assert len(set(bases)) == 5

    def test_enumerate_matches_subset_oracle(self):
        cases = [
            Lattice(1, [(6,)]),
            Lattice(2, [(2, 0), (0, 4)]),
            Lattice(2, [(3, 0), (0, 3)]),
            Lattice(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
            Lattice(2, [(2, 1), (0, 6)]),
        ]
        for lat in cases:
            g = quotient_group(lat)
            assert g.order() <= 16
            assert len(enumerate_subgroups(g)) == subgroup_count_by_subsets(g)

    def test_infinite_group_refused(self):
        g = quotient_group(Lattice(2, [(2, 0)]))
        with pytest.raises(InfiniteGroupError):
            enumerate_subgroups(g)


class TestHoms:
    def test_identity(self):
        g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
        h = hom_from_generator_images(g, g, IntMatrix.identity(2))
        assert h(g.element((1, 1))) == g.element((1, 1))
        assert is_surjective(h)

    def test_free_source(self):
        z = quotient_group(Lattice(1))
        z2 = quotient_group(Lattice(1, [(2,)]))
        h = hom_from_generator_images(z, z2, IntMatrix([[1]]))
        assert h(z.element((3,))) == z2.element((1,))

    def test_not_well_defined_witness(self):
        z2 = quotient_group(Lattice(1, [(2,)]))
        z = quotient_group(Lattice(1))
        with pytest.raises(NotWellDefinedError) as exc:
            hom_from_generator_images(z2, z, IntMatrix([[1]]))
        assert exc.value.witness == (2,)

    def test_zero_hom_not_surjective(self):
        z2 = quotient_group(Lattice(1, [(2,)]))
        h = hom_from_generator_images(z2, z2, IntMatrix([[0]]))
        assert not is_surjective(h)

    def test_onto_quotient_of_plane(self):
        z = quotient_group(Lattice(1))
        target = quotient_group(Lattice(2, [(1, 1)]))
        h = hom_from_generator_images(z, target, IntMatrix([[1, 0]]))
        assert is_surjective(h)

    def test_shape_mismatch(self):
        z = quotient_group(Lattice(1))
        with pytest.raises(ValueError):
            hom_from_generator_images(z, z, IntMatrix([[1, 0]]))


def test_subgroup_requires_containment():
    from angk0.lattices import Subgroup

    g = quotient_group(Lattice(2, [(2, 0), (0, 2)]))
    with pytest.raises(ValueError):
        Subgroup(g, Lattice(2, [(3, 0)]))


@st.composite
def relation_matrices(draw, max_dim=6):
    """(cols, rows): tall, square and short integer matrices, with entries
    small or up to 2^40, sometimes holding a zero row or a row that is a
    combination of two others (rank deficient)."""
    cols = draw(st.integers(1, max_dim))
    bound = draw(st.sampled_from([4, 2**40]))
    entry = st.integers(-bound, bound)
    row = st.lists(entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=max_dim))
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return cols, rows


class TestTransformFreeCore:
    """Lattice and FgAbelianGroup skip the transforms; their results must
    match the transform-carrying public forms and independent oracles."""

    @settings(max_examples=150, deadline=None)
    @given(relation_matrices())
    def test_lattice_basis_is_hermite_form(self, case):
        cols, rows = case
        lattice = Lattice(cols, rows)
        h, _ = hermite_normal_form(IntMatrix(rows, cols=cols))
        assert [list(r) for r in lattice.basis] == nonzero_rows(h)
        assert lattice.is_full() == (lattice.basis == IntMatrix.identity(cols).entries)

    @settings(max_examples=150, deadline=None)
    @given(relation_matrices())
    def test_invariant_factors_match_sympy(self, case):
        cols, rows = case
        group = FgAbelianGroup(Lattice(cols, rows))
        diag = sympy_invariant_factors(Matrix(rows), domain=ZZ) if rows else ()
        assert group.invariant_factors == tuple(int(x) for x in diag if x > 1)
        assert group.free_rank == cols - (Matrix(rows).rank() if rows else 0)

    @settings(max_examples=150, deadline=None)
    @given(relation_matrices(max_dim=3))
    def test_invariant_factors_match_minors(self, case):
        cols, rows = case
        group = FgAbelianGroup(Lattice(cols, rows))
        expected = [x for x in invariant_factors_by_minors(rows) if x > 1]
        assert list(group.invariant_factors) == expected


@st.composite
def small_finite_groups(draw):
    """Z^r / L with r <= 3 and order <= 16: L is spanned by a triangular
    basis with its columns permuted, plus one row dependent on the others."""
    r = draw(st.integers(1, 3))
    budget, rows = 16, []
    for i in range(r):
        d = draw(st.integers(1, budget))
        budget //= d
        tail = draw(st.lists(st.integers(-5, 5), min_size=r - i - 1, max_size=r - i - 1))
        rows.append([0] * i + [d] + tail)
    perm = draw(st.permutations(range(r)))
    rows = [[row[j] for j in perm] for row in rows]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(r)])
    return quotient_group(Lattice(r, rows))


class TestEnumerationCanonical:
    """Every preimage enumerate_subgroups returns must be the canonical
    Hermite basis of its lattice, listed once and in increasing order."""

    @settings(max_examples=60, deadline=None)
    @given(small_finite_groups())
    def test_preimages_are_canonical_and_complete(self, group):
        subs = enumerate_subgroups(group)
        for s in subs:
            assert s.preimage == Lattice(group.ambient_rank, s.preimage.basis)
        bases = [s.preimage.basis for s in subs]
        assert all(a < b for a, b in zip(bases, bases[1:]))
        assert len(subs) == subgroup_count_by_subsets(group)
