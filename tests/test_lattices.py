import math
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.polys.matrices import DomainMatrix

from angk0.errors import InfiniteGroupError
from angk0.k0 import k0, relation_rows
from angk0.lattices import (
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    Lattice,
    determinant,
    enumerate_subgroups,
    hermite_normal_form,
    is_surjective,
    reduced_solution,
    smith_normal_form,
    subgroup_from_generators,
    xgcd,
)
import angk0.lattices
from angk0.lattices import _bareiss, _hermite_mod, _join_closure
from angk0.presentations import Angle, Presentation, Suspension
from support import (
    brute_force_membership,
    count_cosets_exhaustive,
    in_row_span_by_minors,
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


def big_ints():
    return st.just(0) | st.integers(0, 10**4).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@settings(max_examples=200, deadline=None)
@given(big_ints(), big_ints(), big_ints())
@example(0, 0, 0)
@example(-5, 0, 1)
@example(0, -7, 1)
@example(1, 2, 1)
def test_xgcd_bezout_large(a, b, c):
    # c makes a common factor, so that g is large too; |x| is Euclid's bound
    for a, b in ((a, b), (a * c, b * c)):
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g == math.gcd(a, b)
        assert abs(x) <= 1 or 2 * g * abs(x) <= abs(b)


def test_xgcd_edge_cases():
    assert xgcd(0, 0) == (1, 0, 0)
    assert xgcd(-5, 0) == (-1, 0, 5)
    assert xgcd(5, 0) == (1, 0, 5)
    assert xgcd(0, -7) == (0, -1, 7)
    assert xgcd(-4, -6) == (1, -1, 2)


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


@st.composite
def lattices_with_vectors(draw):
    """(lattice, rows, v, w) in Z^r, r <= 4.  The rows are a triangular
    basis with its columns permuted plus one dependent row.  Full-rank
    lattices have index 8..64; rank-deficient ones keep a proper subset of
    the pivot columns.  v is a member, or a member plus a small offset, and
    so is w - v, so both outcomes of a membership test come up."""
    r = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pivots = list(range(r))
    else:
        pivots = sorted(draw(st.sets(st.integers(0, r - 1), max_size=r - 1)))
    index, rows = draw(st.integers(8, 64)), []
    for i, col in enumerate(pivots):
        d = index if i == len(pivots) - 1 else draw(
            st.sampled_from([d for d in range(1, index + 1) if index % d == 0]))
        index //= d
        tail = draw(st.lists(st.integers(-5, 5), min_size=r - col - 1, max_size=r - col - 1))
        rows.append([0] * col + [d] + tail)
    perm = draw(st.permutations(range(r)))
    rows = [[row[j] for j in perm] for row in rows]
    if rows:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append(combination(coeffs, rows, r))

    def near_member():
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        offset = draw(st.just([0] * r) | st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        return [x + y for x, y in zip(combination(coeffs, rows, r), offset)]

    v = near_member()
    w = [x + y for x, y in zip(v, near_member())]
    return Lattice(r, rows), rows, v, w


class TestMembership:
    def test_sum_of_basis_rows(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        assert (2, 2) in lat

    def test_odd_coordinate(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        assert (1, 0) not in lat

    def test_back_substitution_vs_exhaustive(self):
        rows = [(1, -1, 1), (0, 2, 0), (0, 0, 2)]
        lat = Lattice(3, rows)
        assert (1, 1, 1) in lat
        assert brute_force_membership([list(r) for r in rows], (1, 1, 1), 2)
        rng = random.Random(3)
        for _ in range(100):
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            assert (v in lat) == brute_force_membership(
                [list(r) for r in rows], v, 4
            )

    def test_dimension_mismatch(self):
        lat = Lattice(2, [(2, 0)])
        for call in (lat.__contains__, lat.reduce, lambda v: lat.reduce_all([(1, 1), v])):
            with pytest.raises(ValueError, match="^vector length does not match ambient rank$"):
                call((1, 0, 0))

    @settings(max_examples=150, deadline=None)
    @given(lattices_with_vectors())
    def test_matches_minors_oracle(self, case):
        lattice, rows, v, _ = case
        assert (v in lattice) == in_row_span_by_minors(rows, v)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_join_wrong_length_row(self, r):
        # only the added rows are checked, so the message is the same at
        # every rank of the lattice joined onto
        for rank in range(r + 1):
            lattice = Lattice(r, [[2 * int(i == j) for j in range(r)] for i in range(rank)])
            for width in (r - 1, r + 1):
                with pytest.raises(ValueError, match=f"^expected {r} columns, found {width}$"):
                    lattice.join([[1] * width])


class TestQuotient:
    def test_diagonal(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
        assert g.invariant_factors == (2, 2)
        assert g.free_rank == 0

    def test_no_relations(self):
        g = FgAbelianGroup(Lattice(2))
        assert g.invariant_factors == ()
        assert g.free_rank == 2

    def test_padded_snf_and_coset_count(self):
        rows = [(1, -1, 1), (0, 2, 0), (0, 0, 2)]
        g = FgAbelianGroup(Lattice(3, rows))
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
            g = FgAbelianGroup(Lattice(rank, rows))
            for _ in range(10):
                v = tuple(rng.randint(-10, 10) for _ in range(rank))
                rep = g.relations.reduce(v)
                assert g.relations.reduce(rep) == rep
                if g.relations.basis:
                    coeffs = [rng.randint(-3, 3) for _ in g.relations.basis]
                    shift = list(v)
                    for c, row in zip(coeffs, g.relations.basis):
                        for i, x in enumerate(row):
                            shift[i] += c * x
                    assert g.relations.reduce(shift) == rep

    @settings(max_examples=150, deadline=None)
    @given(lattices_with_vectors())
    def test_equal_reps_iff_difference_in_lattice(self, case):
        lattice, rows, v, w = case
        diff = [a - b for a, b in zip(v, w)]
        assert (lattice.reduce(v) == lattice.reduce(w)) == in_row_span_by_minors(rows, diff)

    @settings(max_examples=150, deadline=None)
    @given(lattices_with_vectors())
    def test_reduce_all_reduces_each_vector(self, case):
        lattice, rows, v, w = case
        vecs = [v, w, [a - b for a, b in zip(v, w)], [0] * lattice.ambient_rank, v]
        assert lattice.reduce_all(vecs) == [lattice.reduce(x) for x in vecs]
        assert lattice.reduce_all(iter(vecs)) == lattice.reduce_all(vecs)
        assert lattice.reduce_all([]) == []

    @pytest.mark.parametrize("rows", [
        [[0, 2, 1, 0], [0, 0, 0, 3]],
        [[3, 1, 0, 2, 5], [0, 0, 0, 4, 1]],
        [[0, 0, 5]],
        [[1, 0, 0, 7], [0, 0, 6, 2], [0, 0, 0, 0]],
    ])
    def test_reduce_when_pivot_columns_skip(self, rows):
        lattice = Lattice(len(rows[0]), rows)
        assert lattice.rank < lattice.ambient_rank
        rng = random.Random(7)
        for _ in range(60):
            v = [rng.randint(-12, 12) for _ in range(lattice.ambient_rank)]
            rep = lattice.reduce(v)
            assert lattice.reduce(rep) == rep
            assert in_row_span_by_minors(rows, [a - b for a, b in zip(rep, v)])
            assert (v in lattice) == in_row_span_by_minors(rows, v)
            for row in lattice.basis:
                col = next(j for j, x in enumerate(row) if x)
                assert 0 <= rep[col] < row[col]

    @settings(max_examples=150, deadline=None)
    @given(lattices_with_vectors())
    def test_reps_lie_in_the_fundamental_domain(self, case):
        lattice, rows, v, _ = case
        rep = lattice.reduce(v)
        assert lattice.reduce(rep) == rep
        assert in_row_span_by_minors(rows, [a - b for a, b in zip(rep, v)])
        for row in lattice.basis:
            col = next(j for j, x in enumerate(row) if x)
            assert 0 <= rep[col] < row[col]


class TestSubgroups:
    def test_empty_generators(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
        sub = subgroup_from_generators(g, [])
        assert sub.preimage == g.relations

    def test_full_generators(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
        gens = [g.element((1, 0)), g.element((0, 1))]
        assert subgroup_from_generators(g, gens).preimage.is_full()

    def test_order_two_subgroup(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
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
            g = FgAbelianGroup(Lattice(rank, rows))
            gens = [
                g.element(tuple(rng.randint(-2, 2) for _ in range(rank)))
                for _ in range(3)
            ]
            small = subgroup_from_generators(g, gens[:2])
            large = subgroup_from_generators(g, gens)
            assert large.preimage.contains_lattice(small.preimage)

    def test_enumerate_trivial_group(self):
        g = FgAbelianGroup(Lattice(1, [(1,)]))
        assert len(enumerate_subgroups(g)) == 1

    def test_enumerate_z2(self):
        g = FgAbelianGroup(Lattice(1, [(2,)]))
        assert len(enumerate_subgroups(g)) == 2

    def test_enumerate_z2_squared(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
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
            g = FgAbelianGroup(lat)
            assert g.order() <= 16
            assert len(enumerate_subgroups(g)) == subgroup_count_by_subsets(g)

    def test_infinite_group_refused(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0)]))
        with pytest.raises(InfiniteGroupError):
            enumerate_subgroups(g)


class TestHoms:
    def test_identity(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
        h = GroupHom(g, g, IntMatrix.identity(2))
        assert h(g.element((1, 1))) == g.element((1, 1))
        assert is_surjective(h)

    def test_free_source(self):
        z = FgAbelianGroup(Lattice(1))
        z2 = FgAbelianGroup(Lattice(1, [(2,)]))
        h = GroupHom(z, z2, IntMatrix([[1]]))
        assert h(z.element((3,))) == z2.element((1,))

    def test_zero_hom_not_surjective(self):
        z2 = FgAbelianGroup(Lattice(1, [(2,)]))
        h = GroupHom(z2, z2, IntMatrix([[0]]))
        assert not is_surjective(h)

    def test_onto_quotient_of_plane(self):
        z = FgAbelianGroup(Lattice(1))
        target = FgAbelianGroup(Lattice(2, [(1, 1)]))
        h = GroupHom(z, target, IntMatrix([[1, 0]]))
        assert is_surjective(h)


def test_subgroup_requires_containment():
    from angk0.lattices import Subgroup

    g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
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


def combination(c, rows, cols):
    return [sum(x * row[j] for x, row in zip(c, rows)) for j in range(cols)]


class TestReducedSolution:
    @settings(max_examples=150, deadline=None)
    @given(relation_matrices(), st.data())
    def test_solves_near_any_other_solution(self, case, data):
        cols, rows = case
        planted = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        target = combination(planted, rows, cols)
        c = reduced_solution(rows, target)
        assert combination(c, rows, cols) == target
        # Babai's nearest plane on an LLL-reduced (delta 3/4) kernel basis
        kernel = len(rows) - Lattice(cols, rows).rank
        assert sum(x * x for x in c) <= 2**kernel * sum(x * x for x in planted)
        assert reduced_solution(rows, target) == c

    @settings(max_examples=150, deadline=None)
    @given(relation_matrices(), st.data())
    def test_none_exactly_off_the_lattice(self, case, data):
        cols, rows = case
        target = data.draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols))
        c = reduced_solution(rows, target)
        assert (c is None) == (tuple(target) not in Lattice(cols, rows))
        if c is not None:
            assert combination(c, rows, cols) == target


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

    @settings(max_examples=150, deadline=None)
    @given(relation_matrices(max_dim=3), st.data())
    def test_order_is_the_index_of_the_relations(self, case, data):
        cols, rows = case
        group = FgAbelianGroup(Lattice(cols, rows))
        gen = data.draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
        sub = subgroup_from_generators(group, [group.element(gen)])
        if not group.is_finite:
            assert group.order() is sub.order() is None
            return
        by_minors = math.prod(invariant_factors_by_minors(rows))
        assert group.order() == math.prod(group.invariant_factors) == by_minors
        assert group.order() % sub.order() == 0


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
    return FgAbelianGroup(Lattice(r, rows))


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

    @settings(max_examples=60, deadline=None)
    @given(small_finite_groups())
    def test_coset_reps_are_canonical_and_complete(self, group):
        reps = list(group.relations.coset_reps())
        assert len(reps) == len(set(reps)) == group.order()
        assert all(group.relations.reduce(v) == v for v in reps)

    @settings(max_examples=60, deadline=None)
    @given(small_finite_groups())
    def test_subgroup_order_counts_its_elements(self, group):
        elements = list(group.elements())
        for s in enumerate_subgroups(group):
            assert s.order() == sum(s.contains(x) for x in elements)
            assert group.order() % s.order() == 0


@st.composite
def enumerable_groups(draw):
    """Z^r / L with r <= 6 and order <= 256: a triangular basis whose pivots
    multiply to at most 256, units among them, with entries in [-7, 7] right
    of the pivots and its columns permuted, plus one dependent row."""
    r = draw(st.integers(1, 6))
    budget, rows = 256, []
    for i in range(r):
        d = draw(st.integers(1, min(budget, 16)))
        budget //= d
        tail = draw(st.lists(st.integers(-7, 7), min_size=r - i - 1, max_size=r - i - 1))
        rows.append([0] * i + [d] + tail)
    perm = draw(st.permutations(range(r)))
    rows = [[row[j] for j in perm] for row in rows]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    rows.append(combination(coeffs, rows, r))
    return FgAbelianGroup(Lattice(r, rows))


def diagonal_group(*factors):
    r = len(factors)
    return FgAbelianGroup(Lattice(r, [[d * (i == j) for j in range(r)] for i, d in enumerate(factors)]))


def z2_on(r):
    """Z/2 on r symbols: e_i = e_(i+1) and 2 e_(r-1) = 0, one pivot 2 and
    r - 1 unit pivots."""
    rows = [[(j == i) - (j == i + 1) for j in range(r)] for i in range(r - 1)]
    return FgAbelianGroup(Lattice(r, rows + [[2 * (j == r - 1) for j in range(r)]]))


class TestEnumerationOracle:
    """enumerate_subgroups writes each preimage down as a Hermite basis
    above the relations; the join closure with one coset rep at a time,
    which eliminates once per join, must list the same bases in order."""

    @settings(max_examples=100, deadline=None)
    @given(enumerable_groups())
    @example(FgAbelianGroup(Lattice(2, [(2, 1), (0, 6)])))
    @example(diagonal_group(1, 4, 1, 6))
    def test_same_bases_as_the_join_closure(self, group):
        got = [s.preimage.basis for s in enumerate_subgroups(group)]
        assert got == [s.preimage.basis for s in _join_closure(group, lambda v: (v,))]

    @pytest.mark.parametrize("group", [diagonal_group(2, 2, 2, 2), diagonal_group(3, 9), z2_on(16)],
                             ids=["z2^4", "z3xz9", "z2-on-16"])
    def test_no_elimination(self, monkeypatch, group):
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        for name in ("_bareiss", "_hermite_basis", "_hermite_mod", "_hermite_rows"):
            monkeypatch.setattr(angk0.lattices, name, counted(name, getattr(angk0.lattices, name)))
        monkeypatch.setattr(Lattice, "__init__", counted("Lattice", Lattice.__init__))
        subs = enumerate_subgroups(group)
        assert calls == []
        monkeypatch.undo()
        assert len(subs) == len(_join_closure(group, lambda v: (v,)))

    def test_z2_on_400_symbols(self):
        # 399 unit pivots split off: the search runs on one row
        group = z2_on(400)
        subs = enumerate_subgroups(group)
        assert [s.preimage for s in subs] == [Lattice(400, [[int(i == j) for j in range(400)]
                                                            for i in range(400)]), group.relations]


def assert_smith_form(cols, rows):
    """smith_normal_form against its contract and sympy's invariant factors."""
    m = IntMatrix(rows, cols=cols)
    d, u, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [d.entries[i][i] for i in range(min(m.rows, cols))]
    assert all(x == 0 for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j)
    assert all(x >= 0 for x in diag)
    assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))
    expected = sympy_invariant_factors(Matrix(rows), domain=ZZ) if rows else ()
    assert diag == [int(x) for x in expected]


@st.composite
def shuffled_diagonals(draw):
    """(cols, rows): a diagonal matrix whose entries are products of 2, 3, 5
    and 7 (or zero), padded with zero rows or columns, with its rows and
    columns shuffled.  Entries that do not divide one another make the Smith
    elimination repeat its divisibility fix-up."""
    small = st.builds(
        lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3],
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )
    diag = draw(st.lists(st.one_of(small, st.just(0)), min_size=1, max_size=6))
    rows_n = len(diag) + draw(st.integers(0, 2))
    cols = len(diag) + draw(st.integers(0, 2))
    rows = [[0] * cols for _ in range(rows_n)]
    for i, x in enumerate(diag):
        rows[i][i] = x
    row_perm = draw(st.permutations(range(rows_n)))
    col_perm = draw(st.permutations(range(cols)))
    return cols, [[rows[i][j] for j in col_perm] for i in row_perm]


@st.composite
def near_diagonals(draw):
    """(cols, rows): a diagonal matrix with signed entries, some zero and some
    not dividing the next, padded with zero rows or columns, with at most two
    entries overwritten anywhere (on or off the diagonal)."""
    diag = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=5))
    rows_n = len(diag) + draw(st.integers(0, 2))
    cols = len(diag) + draw(st.integers(0, 2))
    rows = [[0] * cols for _ in range(rows_n)]
    for i, x in enumerate(diag):
        rows[i][i] = x
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows_n - 1)), draw(st.integers(0, cols - 1))
        rows[i][j] = draw(st.integers(-9, 9))
    return cols, rows


def refuse_hermite_passes(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("Hermite pass run")

    for name in ("_hermite_rows", "_hermite_mod"):
        monkeypatch.setattr(angk0.lattices, name, refused)


class TestSmithLoop:
    """The Smith form alternates column and row Hermite eliminations; check
    the public form on every shape and on diagonals that need the fix-up."""

    @settings(max_examples=200, deadline=None)
    @given(near_diagonals())
    @example((1, [[-5]]))
    @example((2, [[-2, 0], [0, 3]]))
    @example((2, [[2, 0], [0, -4]]))
    @example((2, [[0, 0], [0, 5]]))
    @example((2, [[4, 0], [0, 2]]))
    @example((3, [[1, 0, 0], [0, 0, 0], [0, 0, 3]]))
    def test_diagonal_and_near_diagonal(self, case):
        assert_smith_form(*case)

    @pytest.mark.parametrize("rows", [[[5]], [[1, 0, 0], [0, 2, 0], [0, 0, 6]],
                                      [[3, 0], [0, 0], [0, 0]], [[2, 0, 0], [0, 0, 0]], [[0]]])
    def test_smith_form_input_runs_no_pass(self, rows, monkeypatch):
        refuse_hermite_passes(monkeypatch)
        m = IntMatrix(rows, cols=len(rows[0]))
        d, u, v = smith_normal_form(m)
        assert (d, u, v) == (m, IntMatrix.identity(m.rows), IntMatrix.identity(m.cols))

    def test_cyclic_group_factors_run_no_pass(self, monkeypatch):
        # Z/5, and Z/2 + Z/4 whose Hermite basis diag(2, 4) is its Smith form
        groups = [FgAbelianGroup(Lattice(1, [(5,)])), FgAbelianGroup(Lattice(2, [(2, 0), (0, 4)]))]
        refuse_hermite_passes(monkeypatch)
        assert [g.invariant_factors for g in groups] == [(5,), (2, 4)]

    def test_coprime_diagonal_still_runs_passes(self):
        # diag(2, 3) is diagonal but not in Smith form: Z/2 + Z/3 = Z/6
        assert FgAbelianGroup(Lattice(2, [(2, 0), (0, 3)])).invariant_factors == (6,)

    @settings(max_examples=150, deadline=None)
    @given(relation_matrices())
    def test_relation_matrices(self, case):
        assert_smith_form(*case)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_diagonals())
    @example((2, [[2, 0], [0, 3]]))
    @example((3, [[0, 0, 8], [0, 27, 0], [10, 0, 0]]))
    def test_shuffled_diagonals(self, case):
        assert_smith_form(*case)


def sympy_rank(cols, rows):
    return DomainMatrix(rows, (len(rows), cols), ZZ).rank() if rows else 0


def sympy_factors(rows):
    return tuple(int(x) for x in sympy_invariant_factors(Matrix(rows), domain=ZZ) if x > 1)


@st.composite
def full_rank_matrices(draw, max_dim=12):
    """(cols, rows): square and tall matrices of full rank, entries small or
    up to 2^40, sometimes with a repeated row."""
    cols = draw(st.integers(1, max_dim))
    bound = draw(st.sampled_from([3, 2**40]))
    row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=cols, max_size=cols + 4))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    assume(sympy_rank(cols, rows) == cols)
    return cols, rows


@st.composite
def unimodular_products(draw, max_dim=8):
    """(cols, rows, diag): diag(d) mixed by random elementary row and column
    operations, so its Smith form is that of diag(d).  The d_i are either
    large and unrelated or multiples of one shared factor, which makes the
    group far from cyclic."""
    n = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        diag = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    else:
        p = draw(st.sampled_from([2, 3, 12, 2**31 - 1]))
        diag = draw(st.lists(st.integers(1, 6).map(lambda k: p * k), min_size=n, max_size=n))
    m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i == j:
            continue
        if draw(st.booleans()):
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    return n, m, diag


def triangular_basis(r, seed):
    """Upper-triangular Hermite basis: pivots d_j drawn from [1, 2^40] and
    the entries above pivot j from [0, d_j)."""
    rng = random.Random(seed)
    piv = [rng.randint(1, 2**40) for _ in range(r)]
    return [[0] * i + [piv[i]] + [rng.randrange(piv[j]) for j in range(i + 1, r)]
            for i in range(r)]


@st.composite
def mixed_hermite_bases(draw, max_dim=8):
    """(cols, rows): an upper-triangular basis with entries up to 2^40 and
    pivots from 1, 2, 3, 4, 6, mixed by elementary row operations and
    shuffled.  Mod a multiple of the index, a pivot-1 column often holds a
    unit and a larger pivot never does, so both kinds of column come up."""
    cols = draw(st.integers(1, max_dim))
    bound = draw(st.sampled_from([3, 2**40]))
    rows = []
    for i in range(cols):
        tail = draw(st.lists(st.integers(-bound, bound), min_size=cols - i - 1,
                             max_size=cols - i - 1))
        rows.append([0] * i + [draw(st.sampled_from([1, 2, 3, 4, 6]))] + tail)
    for _ in range(draw(st.integers(0, 2 * cols))):
        i, j = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        c = draw(st.integers(-3, 3))
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return cols, draw(st.permutations(rows))


class TestModularHermite:
    """A full-rank Lattice is built mod a multiple of its index, and a finite
    group's Smith form mod its order; both must match the plain elimination
    (hermite_normal_form keeps it) and sympy."""

    @settings(max_examples=100, deadline=None)
    @given(full_rank_matrices())
    def test_full_rank_matches_plain_and_sympy(self, case):
        cols, rows = case
        lattice = Lattice(cols, rows)
        h, _ = hermite_normal_form(IntMatrix(rows, cols=cols))
        assert [list(r) for r in lattice.basis] == nonzero_rows(h)
        assert FgAbelianGroup(lattice).invariant_factors == sympy_factors(rows)

    @settings(max_examples=100, deadline=None)
    @given(unimodular_products())
    def test_unimodular_products(self, case):
        cols, rows, diag = case
        lattice = Lattice(cols, rows)
        h, _ = hermite_normal_form(IntMatrix(rows, cols=cols))
        assert [list(r) for r in lattice.basis] == nonzero_rows(h)
        assert lattice.index_in_ambient() == math.prod(diag)
        expected = sympy_factors([[x if i == j else 0 for j in range(cols)]
                                  for i, x in enumerate(diag)])
        assert FgAbelianGroup(lattice).invariant_factors == expected

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(mixed_hermite_bases(), full_rank_matrices(max_dim=8)),
           st.sampled_from([1, 2, 3, 7, 4, 12, 30]) | st.integers(2**39, 2**40))
    def test_hermite_mod_matches_plain(self, case, k):
        # any multiple of the index serves as the modulus
        cols, rows = case
        h = nonzero_rows(hermite_normal_form(IntMatrix(rows, cols=cols))[0])
        index = math.prod(row[i] for i, row in enumerate(h))
        assert _hermite_mod(rows, cols, k * index) == h

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(relation_matrices(), full_rank_matrices(max_dim=6)))
    def test_minor_gcd(self, case):
        # D, read where the Bareiss elimination leaves the minors on its
        # pivot columns P, is a multiple of the index; the gcd of the
        # cols x cols minors is 0 exactly when P misses a column.
        cols, rows = case
        piv, d, _ = bareiss_profile(rows, cols)
        h = nonzero_rows(hermite_normal_form(IntMatrix(rows, cols=cols))[0])
        assert piv == [next(j for j, x in enumerate(row) if x) for row in h]
        assert len(piv) == sympy_rank(cols, rows)
        projected_index = math.prod(row[j] for row, j in zip(h, piv))
        assert d == 0 if not piv else d > 0 and d % projected_index == 0
        d = d if len(piv) == cols else 0
        index = Lattice(cols, rows).index_in_ambient()
        assert (d == 0) == (sympy_rank(cols, rows) < cols)
        assert d == 0 if index is None else d > 0 and d % index == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_determinant_matches_sympy(self, rows):
        # determinant shares its Bareiss elimination with Lattice
        n = len(rows)
        expected = int(DomainMatrix(rows, (n, n), ZZ).det()) if n else 1
        assert determinant(IntMatrix(rows, cols=n)) == expected

    @pytest.mark.parametrize("r, windows", [(48, (0, 1)), (64, (0, 2))])
    def test_tall_random_is_trivial(self, r, windows):
        # (r + 4) x r, entries in [-3, 3]: the plain elimination did not
        # finish in 120 s.  Two coprime r x r minors prove L = Z^r.
        rng = random.Random(1)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r + 4)]
        dets = [int(DomainMatrix(rows[k : k + r], (r, r), ZZ).det()) for k in windows]
        assert math.gcd(*dets) == 1
        lattice = Lattice(r, rows)
        assert lattice.is_full()
        group = FgAbelianGroup(lattice)
        assert (group.invariant_factors, group.free_rank) == ((), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32))
    def test_triangular_bases(self, r, seed):
        rows = triangular_basis(r, seed)
        group = FgAbelianGroup(Lattice(r, rows))
        assert group.invariant_factors == sympy_factors(rows)

    def test_triangular_r18(self):
        # The plain Smith elimination ran over 300 s on this basis.  Its
        # invariant factors but the last, from sympy (about 15 s); the last
        # is fixed by their product, the determinant.
        rows = triangular_basis(18, 1)
        factors = FgAbelianGroup(Lattice(18, rows)).invariant_factors
        small = (2, 6, 5778)
        assert factors == small + (math.prod(row[i] for i, row in enumerate(rows))
                                   // math.prod(small),)


def bareiss_profile(rows, cols):
    """(P, D, minors) from the elimination Lattice runs (Lattice drops zero
    rows first, which changes none of them): the pivot columns, the gcd of
    the minors on P left in column P[-1] (0 when P is empty), and the
    leading minors on P of the permuted rows, from 1 up to the k x k one."""
    a = [list(row) for row in rows]
    piv, _ = _bareiss(a, cols)
    d = math.gcd(*(row[piv[-1]] for row in a[len(piv) - 1 :])) if piv else 0
    return piv, d, [1] + [a[t][c] for t, c in enumerate(piv)]


@st.composite
def pipeline_matrices(draw, max_dim=7):
    """(cols, rows): short, square and tall, of any rank: products of a
    random m x k and k x cols factor, then maybe a zero column, a repeated
    row or a zero row."""
    cols = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, cols))
    m = draw(st.integers(max(k, 1), max_dim + 3))
    bound = draw(st.sampled_from([3, 2**40]))
    entry = st.integers(-bound, bound)
    left = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=k, max_size=k))
    rows = [[sum(x * r[j] for x, r in zip(row, right)) for j in range(cols)] for row in left]
    if draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        rows = [row[:zero] + [0] + row[zero + 1 :] for row in rows]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return cols, rows


@st.composite
def shared_prime_matrices(draw, max_dim=7):
    """(cols, rows) whose first column is a nonzero multiple of p: p divides
    every leading minor on the pivot columns and D, so no leading block is
    invertible mod D and the modular pass runs on all pivot columns."""
    cols, rows = draw(pipeline_matrices(max_dim))
    p = draw(st.sampled_from([2, 3, 5]))
    rows = [[p * row[0]] + row[1:] for row in rows]
    rows.append([p * draw(st.integers(1, 3))] + draw(
        st.lists(st.integers(-9, 9), min_size=cols - 1, max_size=cols - 1)))
    return cols, rows


@st.composite
def unit_leading_block_matrices(draw, max_dim=7):
    """(cols, rows): L U for L unit lower triangular and U upper triangular
    with diagonal (1, ..., 1, d), d > 1, maybe with extra rows that are
    multiples of d.  Every leading minor below the last is 1 and D = d, so
    the modular pass runs on the last column alone."""
    n = draw(st.integers(1, max_dim))
    d = draw(st.integers(2, 10**6))
    bound = draw(st.sampled_from([3, 2**40]))
    upper = [[0] * i + [d if i == n - 1 else 1]
             + draw(st.lists(st.integers(-bound, bound), min_size=n - i - 1, max_size=n - i - 1))
             for i in range(n)]
    rows = []
    for i in range(n):
        lower = draw(st.lists(st.integers(-3, 3), min_size=i, max_size=i)) + [1]
        rows.append([sum(x * upper[l][j] for l, x in enumerate(lower)) for j in range(n)])
    for _ in range(draw(st.integers(0, 2))):
        rows.append([d * x for x in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))])
    return n, rows


@st.composite
def smooth_d_matrices(draw, max_dim=7):
    """(cols, rows): L U for L square with entries in [-3, 3] and U upper
    triangular with diagonal entries 2^a 3^b 5^c, maybe with extra rows that
    are such multiples: D carries powers of 2, 3 and 5, the primes the
    Bareiss pivot rule steers around."""
    n = draw(st.integers(1, max_dim))
    smooth = st.builds(lambda a, b, c: 2**a * 3**b * 5**c,
                       st.integers(0, 5), st.integers(0, 3), st.integers(0, 2))
    bound = draw(st.sampled_from([3, 2**40]))
    upper = [[0] * i + [draw(smooth)]
             + draw(st.lists(st.integers(-bound, bound), min_size=n - i - 1, max_size=n - i - 1))
             for i in range(n)]
    lower = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=n, max_size=n))
    rows = [[sum(x * upper[l][j] for l, x in enumerate(row)) for j in range(n)] for row in lower]
    for _ in range(draw(st.integers(0, 2))):
        m = draw(smooth)
        rows.append([m * x for x in draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))])
    return n, rows


@st.composite
def sparse_odd_n_rows(draw, max_rank=10):
    """(r, rows): the relation rows of an odd-n presentation on r <= 10
    symbols, any suspension, up to 4 angles whose vertices have at most
    three nonzero multiplicities: the r suspension rows e_j + S e_j make
    up most of the rows."""
    r = draw(st.integers(1, max_rank))
    n = draw(st.sampled_from([3, 5, 7]))
    entry = st.tuples(st.integers(0, r - 1), st.integers(1, 2))
    vertex = st.lists(entry, max_size=3).map(
        lambda es: tuple(sum(m for i, m in es if i == j) for j in range(r)))
    angles = draw(st.lists(st.tuples(*[vertex] * n), max_size=4))
    p = Presentation(n=n, indec_names=tuple(f"x{i}" for i in range(r)),
                     suspension=Suspension(tuple(draw(st.permutations(range(r))))),
                     angles=tuple(Angle(v) for v in angles))
    return r, [list(row) for row in relation_rows(p)]


class TestBareissSchurPipeline:
    """Lattice(r, rows) runs one Bareiss elimination with a column profile,
    a Schur-complement step mod D and an exact lift of the pivotless
    columns; its basis must be the plain Hermite form, and the Smith form
    on the non-unit block must give sympy's invariant factors."""

    def check(self, cols, rows):
        lattice = Lattice(cols, rows)
        h, _ = hermite_normal_form(IntMatrix(rows, cols=cols))
        assert [list(r) for r in lattice.basis] == nonzero_rows(h)
        group = FgAbelianGroup(lattice)
        assert group.invariant_factors == (sympy_factors(rows) if rows else ())
        assert group.free_rank == cols - sympy_rank(cols, rows)

    @settings(max_examples=200, deadline=None)
    @given(pipeline_matrices())
    @example((3, [[0, 2, 4], [0, 1, 2]]))
    @example((4, [[2, 4, 0, 6], [1, 2, 3, 3], [1, 2, 3, 3]]))
    def test_any_shape_and_rank(self, case):
        self.check(*case)

    @settings(max_examples=100, deadline=None)
    @given(shared_prime_matrices())
    def test_no_leading_block_prime_to_d(self, case):
        cols, rows = case
        _, d, minors = bareiss_profile(rows, cols)
        assert all(math.gcd(x, d) > 1 for x in minors[1:])
        self.check(cols, rows)

    @settings(max_examples=100, deadline=None)
    @given(unit_leading_block_matrices())
    def test_modular_pass_on_the_last_column(self, case):
        cols, rows = case
        _, d, minors = bareiss_profile(rows, cols)
        assert d > 1 and math.gcd(minors[-2], d) == 1
        self.check(cols, rows)

    @settings(max_examples=100, deadline=None)
    @given(smooth_d_matrices())
    def test_d_with_powers_of_2_3_and_5(self, case):
        self.check(*case)

    @settings(max_examples=100, deadline=None)
    @given(sparse_odd_n_rows())
    def test_sparse_odd_n_relation_rows(self, case):
        self.check(*case)

    @pytest.mark.parametrize("n, digits", [(32, 40), (12, 400)])
    def test_modular_pass_gets_at_most_two_columns(self, monkeypatch, n, digits):
        # Bareiss pivots prime to 30 keep the leading minors prime to D's
        # small primes, so the Schur split lands near the rank: the first
        # nonzero pivot gave the modular pass all n columns here.
        rng = random.Random(7)
        rows = [[rng.randint(-10**digits, 10**digits) for _ in range(n)] for _ in range(n)]
        cols = []

        def counted(rows, width, d):
            cols.append(width)
            return _hermite_mod(rows, width, d)

        monkeypatch.setattr(angk0.lattices, "_hermite_mod", counted)
        lattice = Lattice(n, rows)
        monkeypatch.undo()
        assert sum(cols) <= 2
        assert lattice.index_in_ambient() == abs(determinant(IntMatrix(rows)))

    @pytest.mark.parametrize("r", [48, 64])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_short_random_grows_gently(self, r, seed):
        # (r - 2) x r, entries in [-3, 3]: the plain elimination did not
        # finish r = 48 in 3 minutes.
        rng = random.Random(seed)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r - 2)]
        start = time.perf_counter()
        lattice = Lattice(r, rows)
        assert time.perf_counter() - start < 1.0
        assert lattice.rank == sympy_rank(r, rows) == r - 2
        assert FgAbelianGroup(lattice).free_rank == 2


@st.composite
def tall_small_rows(draw, max_dim=8):
    """(cols, rows): 1 to 4 more rows than columns, entries in [-3, 3]."""
    cols = draw(st.integers(1, max_dim))
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return cols, draw(st.lists(row, min_size=cols + 1, max_size=cols + 4))


@st.composite
def unit_pivot_products(draw, max_dim=7):
    """(cols, rows): U E, for E k echelon rows with unit pivots on columns P
    and any entries right of them, pivotless columns among them, and U a
    k x k product of elementary operations; square and unimodular when
    k = cols.  Maybe with integer combinations of the rows added."""
    cols = draw(st.integers(1, max_dim))
    piv = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=1)))
    bound = draw(st.sampled_from([3, 2**40]))
    entry = st.integers(-bound, bound)
    rows = [[0] * c + [1] + draw(st.lists(entry, min_size=cols - c - 1, max_size=cols - c - 1))
            for c in piv]
    for _ in range(draw(st.integers(0, 4 * len(rows)))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(-3, 3))
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(cols)])
    return cols, rows


@st.composite
def index_one_rows(draw, tries=8):
    """(cols, rows) whose D, read after Bareiss, is 1: tall rows with
    entries in [-3, 3], unimodular products of any rank, with pivotless
    columns when the rank is below cols, and sparse odd-n relation rows.
    A kind is drawn up to `tries` times until D = 1 (about a third of the
    odd-n rows have it)."""
    kind = draw(st.sampled_from([tall_small_rows, unit_pivot_products, sparse_odd_n_rows]))
    for _ in range(tries):
        cols, rows = draw(kind())
        if bareiss_profile(rows, cols)[1] == 1:
            return cols, rows
    assume(False)


class TestIndexOne:
    """At D = 1 the lattice's image on the pivot columns P is Z^|P|, so
    Lattice takes the identity there with no Schur step or modular pass and
    lifts the pivotless columns from the Bareiss rows."""

    @settings(max_examples=200, deadline=None)
    @given(index_one_rows())
    @example((3, [[1, 2, 3], [0, 1, 4]]))
    @example((4, [[0, 1, 5, 2], [0, 0, 0, 1], [0, 1, 5, 3]]))
    def test_basis_is_hermite_form(self, case):
        cols, rows = case
        h, _ = hermite_normal_form(IntMatrix(rows, cols=cols))
        assert [list(r) for r in Lattice(cols, rows).basis] == nonzero_rows(h)

    def test_tall_random_runs_nothing_after_bareiss(self, monkeypatch):
        # the r = 48 input of test_tall_random_is_trivial
        r, rng, calls = 48, random.Random(1), []
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r + 4)]

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        for name in ("_hermite_mod", "_adjugate_solve"):
            monkeypatch.setattr(angk0.lattices, name, counted(name, getattr(angk0.lattices, name)))
        lattice = Lattice(r, rows)
        monkeypatch.undo()
        assert calls == []
        assert lattice.is_full()


class TestCheckedRows:
    """Relation rows and is_surjective's rows are int tuples of the right
    width, so they skip validation; the public constructor checks as ever,
    and each of those callers still builds exactly one Lattice."""

    def test_public_constructor_refuses_bad_rows(self):
        with pytest.raises(ValueError, match="^ragged rows$"):
            Lattice(2, [(1, 0), (1, 0, 0)])
        with pytest.raises(ValueError, match="^expected 3 columns, found 2$"):
            Lattice(3, [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="invalid literal for int"):
            Lattice(2, [("a", 1)])
        with pytest.raises(TypeError):
            Lattice(2, [(None, 1)])

    def test_one_lattice_per_k0_and_per_surjectivity_test(self, monkeypatch):
        p = Presentation(n=3, indec_names=("x", "y"), suspension=Suspension((1, 0)),
                         angles=(Angle(((1, 0), (0, 1), (1, 1))),))
        calls = []
        init = Lattice.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Lattice, "__init__", counted)
        group = k0(p).group
        assert len(calls) == 1
        assert group.relations == Lattice(2, relation_rows(p))
        calls.clear()
        assert is_surjective(GroupHom(group, group, IntMatrix.identity(2)))
        assert len(calls) == 1

    def test_surjectivity_refuses_a_matrix_of_the_wrong_width(self):
        g = FgAbelianGroup(Lattice(2, [(2, 0), (0, 2)]))
        with pytest.raises(ValueError, match="^matrix width does not match the target rank$"):
            is_surjective(GroupHom(g, g, IntMatrix([[1, 0, 0], [0, 1, 0]])))
