import contextlib
import io
import itertools
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from angk0 import files
from angk0.cli import main
from angk0.errors import WitnessBoundError
from angk0.k0 import (
    WITNESS_LIMIT,
    AngleTerm,
    NotFound,
    Witness,
    class_of,
    equal_classes,
    euler_vector,
    k0,
    object_for_element,
    relation_lattice,
    relation_rows,
    resolve_term,
    sum_of_terms,
    suspension_rows,
    witness_search,
)
from angk0.lattices import Lattice, reduced_solution
from angk0.presentations import (
    Angle,
    Presentation,
    Suspension,
    add_objects,
    basis_object,
    object_vec,
    rotate_angle,
    suspend_object,
    trivial_angle,
    validate_presentation,
    zero_object,
)
from support import (
    WITNESS_DRAWS,
    _witness_pool,
    count_cosets_exhaustive,
    object_vectors_by_filter,
    random_object,
    random_paired_presentation,
    random_presentation,
    witness_search_by_scan,
)


def make(n, rank, images=None, angles=()):
    return Presentation(
        n=n,
        indec_names=tuple("abcdef"[:rank]),
        suspension=Suspension(tuple(images if images is not None else range(rank))),
        angles=angles,
    )


G1 = make(3, 3, angles=(Angle((basis_object(3, 0), basis_object(3, 1), basis_object(3, 2))),))
G2 = make(3, 1)
G2_K0 = k0(G2)


class TestEuler:
    def test_trivial_angle_vanishes(self):
        p = make(3, 2)
        assert euler_vector(p, trivial_angle(p, (2, 1), 1)) == (0, 0)

    def test_alternating_signs(self):
        assert euler_vector(G1, G1.angles[0]) == (1, -1, 1)

    def test_additive_on_direct_sums(self):
        rng = random.Random(43)
        for draw in (random_presentation, random_paired_presentation):
            for _ in range(40):
                p = draw(rng)
                va = tuple(random_object(rng, p.rank) for _ in range(p.n))
                vb = tuple(random_object(rng, p.rank) for _ in range(p.n))
                a, b = Angle(va), Angle(vb)
                ab = Angle(tuple(add_objects(x, y) for x, y in zip(va, vb)))
                assert euler_vector(p, ab) == tuple(
                    x + y for x, y in zip(euler_vector(p, a), euler_vector(p, b))
                )


@st.composite
def angles_on_symbols(draw):
    """A presentation with n = 3..8 and r = 0..6 symbols, and an angle on it."""
    n, r = draw(st.integers(3, 8)), draw(st.integers(0, 6))
    vertex = st.tuples(*[st.integers(0, 2**70)] * r)
    return make(n, r), Angle(tuple(draw(st.lists(vertex, min_size=n, max_size=n))))


@settings(max_examples=200, deadline=None)
@given(angles_on_symbols())
def test_euler_vector_is_the_alternating_vertex_sum(case):
    p, a = case
    assert euler_vector(p, a) == tuple(
        sum((-1) ** i * v[j] for i, v in enumerate(a.vertices)) for j in range(p.rank))


def test_euler_vector_of_a_long_angle():
    # one vertex a step: nothing nests as deep as the angle is long
    p = make(200_001, 2)
    a = Angle(((1, 2),) * 200_001)
    assert euler_vector(p, a) == (1, 2)


class TestRelationLattice:
    def test_single_symbol_odd(self):
        lat = relation_lattice(G2)
        assert lat.basis == ((2,),)
        # cross-check the quotient has two classes by exhaustive cosets
        assert count_cosets_exhaustive([[2]], (2,)) == 2

    def test_single_symbol_even(self):
        p = make(4, 1)
        assert relation_lattice(p).basis == ()

    def test_three_symbols_one_angle(self):
        lat = relation_lattice(G1)
        expected = Lattice(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, -1, 1)])
        assert lat == expected

    def test_relation_rows_order(self):
        # witness coefficients index into this order: angles, then symbols
        assert relation_rows(G1) == [(1, -1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        rng = random.Random(53)
        for draw in (random_presentation, random_paired_presentation):
            for _ in range(30):
                p = draw(rng)
                rows = relation_rows(p)
                assert rows == [euler_vector(p, a) for a in p.angles] + suspension_rows(p)
                assert relation_lattice(p) == Lattice(p.rank, rows)

    def test_rotation_closure(self):
        rng = random.Random(47)
        for draw in (random_presentation, random_paired_presentation):
            for _ in range(60):
                p = draw(rng)
                lat = relation_lattice(p)
                for a in p.angles:
                    angle = a
                    for _ in range(p.n):
                        assert euler_vector(p, angle) in lat
                        angle = rotate_angle(p, angle)


class TestK0:
    def test_z2(self):
        k = k0(G2)
        assert k.group.invariant_factors == (2,)
        assert k.group.free_rank == 0

    def test_z2_squared(self):
        k = k0(G1)
        assert k.group.invariant_factors == (2, 2)
        assert k.group.free_rank == 0

    def test_free(self):
        k = k0(make(4, 1))
        assert k.group.invariant_factors == ()
        assert k.group.free_rank == 1


class TestClassOf:
    def test_zero_object_is_zero(self):
        for p in (G1, G2, make(4, 2)):
            k = k0(p)
            assert class_of(k, zero_object(p.rank)).is_zero

    def test_suspension_sign(self):
        rng = random.Random(53)
        for draw in (random_presentation, random_paired_presentation):
            for _ in range(60):
                p = draw(rng)
                k = k0(p)
                v = random_object(rng, p.rank)
                lhs = class_of(k, suspend_object(p, v))
                rhs = class_of(k, v)
                if p.n % 2:
                    assert lhs == -rhs
                else:
                    assert lhs == rhs

    def test_additivity_nonzero(self):
        k = k0(G1)
        ea, eb = basis_object(3, 0), basis_object(3, 1)
        total = class_of(k, add_objects(ea, eb))
        assert total == class_of(k, ea) + class_of(k, eb)
        assert not total.is_zero


class TestEqualClasses:
    def test_reflexive(self):
        k = k0(G1)
        assert equal_classes(k.relation_lattice, (1, 2, 0), (1, 2, 0))

    def test_dimension_mismatch(self):
        k = k0(G1)
        with pytest.raises(ValueError):
            class_of(k, (1, 0))
        with pytest.raises(ValueError):
            equal_classes(k.relation_lattice, (1, 0), (1, 0, 0))

    def test_z2_collapse(self):
        k = k0(G2)
        assert equal_classes(k.relation_lattice, (1,), (3,))

    def test_free_distinguishes(self):
        k = k0(make(4, 1))
        assert not equal_classes(k.relation_lattice, (1,), (2,))


class TestObjectForElement:
    def test_zero_element(self):
        k = k0(G2)
        obj = object_for_element(k, k.group.zero())
        assert class_of(k, obj).is_zero

    def test_negative_part_uses_suspension(self):
        p = make(3, 2, images=[1, 0])
        k = k0(p)
        x = k.element((1, -1))
        obj = object_for_element(k, x)
        assert obj == (2, 0)
        assert class_of(k, obj) == x

    def test_even_returns_pair(self):
        p = make(4, 2)
        k = k0(p)
        x = k.element((1, -1))
        pos, neg = object_for_element(k, x)
        assert class_of(k, pos) - class_of(k, neg) == x

    def test_round_trip_random(self):
        rng = random.Random(59)
        for draw in (random_presentation, random_paired_presentation):
            for _ in range(40):
                p = draw(rng, n=rng.choice([3, 5, 7]))
                k = k0(p)
                for _ in range(10):
                    x = k.element([rng.randint(-5, 5) for _ in range(p.rank)])
                    obj = object_for_element(k, x)
                    assert class_of(k, obj) == x

    def test_pair_difference_random_even(self):
        rng = random.Random(60)
        for draw in (random_presentation, random_paired_presentation):
            for _ in range(40):
                p = draw(rng, n=4)
                k = k0(p)
                for _ in range(10):
                    x = k.element([rng.randint(-5, 5) for _ in range(p.rank)])
                    pos, neg = object_for_element(k, x)
                    assert class_of(k, pos) - class_of(k, neg) == x


def check_witness(p, a, b, w):
    assert all(x >= 0 for c in w.complements for x in c)
    left = sum_of_terms(p, w.left_terms)
    right = sum_of_terms(p, w.right_terms)
    c1 = w.complements[0]
    assert left.vertices[0] == add_objects(object_vec(a), c1)
    assert right.vertices[0] == add_objects(object_vec(b), c1)
    assert left.vertices[1:] == w.complements[1:]
    assert right.vertices[1:] == w.complements[1:]


def two_term_sums(p, bound=2):
    """All direct sums of at most two pool angles, keyed by their tails."""
    pool = []
    for g in p.angles:
        angle = g
        for _ in range(p.n):
            pool.append(angle)
            angle = rotate_angle(p, angle)
    for obj in object_vectors_by_filter(p.rank, bound):
        angle = trivial_angle(p, obj, 1)
        for _ in range(p.n):
            pool.append(angle)
            angle = rotate_angle(p, angle)
    sums = {}
    for size in (1, 2):
        for combo in itertools.combinations_with_replacement(pool, size):
            vertices = [zero_object(p.rank)] * p.n
            for angle in combo:
                vertices = [add_objects(x, y) for x, y in zip(vertices, angle.vertices)]
            sums.setdefault(tuple(vertices[1:]), set()).add(tuple(vertices[0]))
    return sums


class TestWitnessSearch:
    def test_self_witness(self):
        w = witness_search(G2, (2,), (2,))
        assert isinstance(w, Witness)
        check_witness(G2, (2,), (2,), w)

    def test_found_in_z2(self):
        w = witness_search(G2, (1,), (3,))
        assert isinstance(w, Witness)
        check_witness(G2, (1,), (3,), w)
        assert equal_classes(G2_K0.relation_lattice, (1,), (3,))

    def test_long_witness_over_a_three_cycle(self):
        # [e_0] = [2 e_0 + e_1] for odd n: the evening-out terms rotate by up to n - 1
        p = make(101, 3, images=(1, 2, 0))
        w = witness_search(p, (1, 0, 0), (2, 1, 0))
        assert isinstance(w, Witness)
        assert max(t.rotation for t in w.left_terms + w.right_terms) == 100
        check_witness(p, (1, 0, 0), (2, 1, 0), w)

    def test_not_found_when_classes_differ(self):
        p = make(4, 1)
        assert witness_search(p, (1,), (2,)) == NotFound()

    def test_soundness_random(self):
        rng = random.Random(61)
        for draw in WITNESS_DRAWS:
            for _ in range(25):
                p = draw(rng, n=rng.choice([3, 4, 5]))
                k = k0(p)
                a = random_object(rng, p.rank, max_mult=2)
                b = random_object(rng, p.rank, max_mult=2)
                outcome = witness_search(p, a, b)
                if isinstance(outcome, Witness):
                    assert equal_classes(k.relation_lattice, a, b)
                    check_witness(p, a, b, outcome)

    def test_desk_completeness_constructed(self):
        rng = random.Random(67)
        for draw in WITNESS_DRAWS:
            built = 0
            while built < 20:
                p = draw(rng, n=rng.choice([3, 5]))
                k = k0(p)
                buckets = [
                    (tail, sorted(heads))
                    for tail, heads in sorted(two_term_sums(p).items())
                    if len(heads) >= 2
                ]
                if not buckets:
                    continue
                tail, heads = buckets[rng.randrange(len(buckets))]
                a, b = rng.sample(heads, 2)
                assert equal_classes(k.relation_lattice, a, b)
                outcome = witness_search(p, a, b)
                assert isinstance(outcome, Witness)
                check_witness(p, a, b, outcome)
                built += 1


class TestResolveTerm:
    P = make(5, 3, images=(1, 2, 0), angles=(
        Angle(tuple(basis_object(3, i % 3) for i in range(5))),
        Angle(((1, 0, 0), (0, 1, 1), (2, 0, 0), (0, 0, 1), (1, 1, 0)))))

    @pytest.mark.parametrize("k", [1, 2, 5, 7, 11])
    def test_negative_rotation_undoes_positive(self, k):
        p = self.P
        for term in (AngleTerm("generator", k, index=1), AngleTerm("trivial", k, obj=(1, 2, 0))):
            back = resolve_term(p, AngleTerm(term.kind, -k, index=term.index, obj=term.obj))
            base = resolve_term(p, AngleTerm(term.kind, 0, index=term.index, obj=term.obj))
            assert back != base
            assert rotate_angle(p, back, k) == base
            assert rotate_angle(p, resolve_term(p, term), -k) == base

    def test_rotation_minus_one_is_a_right_rotation(self):
        p = self.P
        a = p.angles[1]
        s_inverse_last = suspend_object(p, a.vertices[-1], -1)
        assert resolve_term(p, AngleTerm("generator", -1, index=1)) == Angle(
            (s_inverse_last,) + a.vertices[:-1])

    @pytest.mark.parametrize("p, index", [(P, -1), (P, -2), (P, 2), (P, 7), (G2, 0)])
    def test_generator_index_out_of_range(self, p, index):
        with pytest.raises(ValueError, match="out of range"):
            resolve_term(p, AngleTerm("generator", 0, index=index))


@st.composite
def witness_inputs(draw, kinds=("equal", "zero", "free", "suspension", "planted")):
    """A valid presentation (n = 3..6, r <= 5, any suspension, 0-2 angles),
    a pair of objects and, when the pair was made from one, the planted
    combination c of relation rows with c . R = A - B (else None).  Pairs,
    of the given kinds: equal objects, an object and the zero object, two
    independent objects (so unequal classes come up), a pair with equal
    classes by suspension rows, or a planted small combination of all the
    relation rows, shifted to nonnegative objects."""
    n = draw(st.integers(3, 6))
    rank = draw(st.integers(1, 5))
    images = draw(st.permutations(range(rank)))
    obj = st.tuples(*[st.integers(0, 2)] * rank)
    angles = draw(st.lists(st.tuples(*[obj] * n), max_size=2))
    p = Presentation(
        n=n,
        indec_names=tuple("abcde"[:rank]),
        suspension=Suspension(tuple(images)),
        angles=tuple(Angle(v) for v in angles),
    )
    g = len(angles)
    a = draw(obj)
    kind = draw(st.sampled_from(kinds))
    planted = None
    if kind == "equal":
        b, planted = a, (0,) * (g + rank)
    elif kind == "zero":
        b = zero_object(rank)
    elif kind == "free":
        b = draw(obj)
    elif kind == "planted":
        planted = draw(st.tuples(*[st.integers(-3, 3)] * (g + rank)))
        rows = relation_rows(p)
        diff = [sum(c * row[j] for c, row in zip(planted, rows)) for j in range(rank)]
        b = tuple(max(0, -x) for x in diff)
        a = tuple(x + y for x, y in zip(b, diff))
    elif n % 2:
        # [X] + [SX] = 0 for odd n: A - B = -(e_j + S e_j), minus row j
        j = draw(st.integers(0, rank - 1))
        e = basis_object(rank, j)
        b = add_objects(a, add_objects(e, suspend_object(p, e)))
        planted = tuple(-int(i == g + j) for i in range(g + rank))
    else:
        # [SX] = [X] for even n: A - SA is the sum of a_j (e_j - S e_j)
        b = suspend_object(p, a)
        planted = (0,) * g + a
    if draw(st.booleans()):
        a, b = b, a
        planted = planted and tuple(-x for x in planted)
    return p, a, b, planted


def copies(p, w):
    """The coefficients c a constructed witness lists: copies of generator
    g at rotation 0 and of the trivial angle on e_j at rotation 1, counted
    positive on the left and negative on the right."""
    c = [0] * (len(p.angles) + p.rank)
    for terms, sign in ((w.left_terms, 1), (w.right_terms, -1)):
        for t in terms:
            if t.kind == "generator":
                c[t.index] += sign
            elif t.rotation == 1:
                c[len(p.angles) + t.obj.index(1)] += sign
    return tuple(c)


class TestWitnessOracle:
    @settings(max_examples=200, deadline=None)
    @given(witness_inputs())
    def test_witness_exactly_on_equal_classes(self, case):
        p, a, b, _ = case
        assert validate_presentation(p).valid
        equal = equal_classes(relation_lattice(p), a, b)
        outcome = witness_search(p, a, b)
        event(("a == b" if a == b else "equal classes" if equal else "unequal classes"))
        if equal:
            assert isinstance(outcome, Witness)
            check_witness(p, a, b, outcome)
        else:
            assert outcome == NotFound()

    @settings(max_examples=100, deadline=None)
    @given(witness_inputs())
    def test_finds_whatever_the_scan_finds(self, case):
        p, a, b, _ = case
        assume(a != b)
        # the scan sums tuples vertex by vertex over C(P + k, k) multisets of
        # the P pool angles at bound k: run the largest k <= 3 that stays fast
        bound = max(k for k in range(4) if math.comb(len(_witness_pool(p, k)) + k, k) <= 4000)
        found = isinstance(witness_search_by_scan(p, a, b, bound), Witness)
        event(f"bound {bound}, scan finds {'a witness' if found else 'none'}")
        if found:
            outcome = witness_search(p, a, b)
            assert isinstance(outcome, Witness)
            check_witness(p, a, b, outcome)

    @settings(max_examples=100, deadline=None)
    @given(witness_inputs())
    def test_same_input_same_witness(self, case):
        p, a, b, _ = case
        assert witness_search(p, a, b) == witness_search(p, a, b)

    @settings(max_examples=200, deadline=None)
    @given(witness_inputs(kinds=("suspension", "planted")))
    def test_multipliers_near_the_planted_combination(self, case):
        p, a, b, planted = case
        assume(planted is not None and a != b)
        rows = relation_rows(p)
        c = reduced_solution(rows, [x - y for x, y in zip(a, b)])
        kernel = len(rows) - Lattice(p.rank, rows).rank
        event(f"kernel dimension {kernel}")
        assert sum(x * x for x in c) <= 2**kernel * sum(x * x for x in planted)
        assert copies(p, witness_search(p, a, b)) == c

    def test_negative_angle_multiplicity_rejected(self):
        # refused at construction, so witness_search never sees it
        with pytest.raises(ValueError, match="^angle multiplicities must be nonnegative$"):
            make(3, 1, angles=(Angle(((1,), (-1,), (0,))),))

    def test_oversized_witness_raises_before_it_is_built(self):
        # [x] = [x^1500001] in Z/2 needs 750,000 copies of the suspension row
        with pytest.raises(WitnessBoundError, match="750006 terms"):
            witness_search(G2, (1,), (1_500_001,))
        w = witness_search(G2, (1,), (2001,))
        assert copies(G2, w) == (-1000,)
        check_witness(G2, (1,), (2001,), w)
        with pytest.raises(WitnessBoundError, match="self-witness"):
            witness_search(make(WITNESS_LIMIT + 1, 1), (1,), (1,))


@st.composite
def drawn_presentations(draw):
    """Random or paired presentations at odd and even n; most suspensions
    fix a symbol (every rank-1 draw, and every unpaired symbol)."""
    make_p = draw(st.sampled_from((random_presentation, random_paired_presentation)))
    n = draw(st.sampled_from((3, 4, 5, 6)))
    p = make_p(random.Random(draw(st.integers(0, 2**32 - 1))), n=n)
    fixed = any(i == s for i, s in enumerate(p.suspension.images))
    event(f"{'odd' if n % 2 else 'even'} n, {'a' if fixed else 'no'} fixed symbol")
    return p


class TestRowsAndClassesByOracle:
    @settings(max_examples=200, deadline=None)
    @given(drawn_presentations())
    def test_suspension_rows_by_permuting(self, p):
        # row j is e_j + (-1)^(n+1) S e_j, with S e_j from the suspension's apply
        sign = (-1) ** (p.n + 1)
        for j, row in enumerate(suspension_rows(p)):
            e = basis_object(p.rank, j)
            assert row == tuple(x + sign * y for x, y in zip(e, suspend_object(p, e)))

    @settings(max_examples=100, deadline=None)
    @given(drawn_presentations())
    def test_k0_report_classes(self, p):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            path.write_text(json.dumps(files.serialize(p)), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["k0", str(path), "--json"]) == 0
        k = k0(p)
        assert json.loads(out.getvalue())["results"]["indecomposable_classes"] == {
            name: list(class_of(k, basis_object(p.rank, i)).vec)
            for i, name in enumerate(p.indec_names)
        }
