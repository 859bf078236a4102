import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from angk0.files import parse_document
from angk0.k0 import NotFound, Witness, class_of, k0, witness_search
from angk0.presentations import (
    Angle,
    Presentation,
    Suspension,
    ViolationReport,
    basis_object,
    direct_sum_angle,
    object_vec,
    rotate_angle,
    suspend_object,
    trivial_angle,
    validate_presentation,
    zero_object,
)
from support import random_presentation


def simple_presentation(n=3, rank=2, images=None, angles=()):
    return Presentation(
        n=n,
        indec_names=tuple("abcdef"[:rank]),
        suspension=Suspension(tuple(images if images is not None else range(rank))),
        angles=angles,
    )


class TestValidate:
    def test_valid_three_angle(self):
        p = simple_presentation(angles=(Angle(((1, 0), (0, 1), (0, 0))),))
        report = validate_presentation(p)
        assert report.valid
        assert report.parity == "odd"
        assert report.classification_applies

    def test_arity_bound(self):
        report = validate_presentation(simple_presentation(n=2))
        assert any("n must be >= 3" in v for v in report.violations)

    def test_non_bijective_suspension(self):
        # refused when built, and reported by the parser, which then builds
        # no presentation
        with pytest.raises(ValueError, match="^suspension not bijective$"):
            simple_presentation(images=[0, 0])
        loaded = parse_document(
            {"n": 3, "indecomposables": ["a", "b"], "suspension": {"a": "a", "b": "a"}})
        assert loaded.violations == ("suspension not bijective",)
        assert loaded.presentation is None

    def test_even_parity_reported(self):
        report = validate_presentation(simple_presentation(n=4))
        assert report.valid
        assert report.parity == "even"
        assert not report.classification_applies

    def test_wrong_arity_angle(self):
        p = simple_presentation(angles=(Angle(((1, 0), (0, 1))),))
        report = validate_presentation(p)
        assert any("vertices" in v for v in report.violations)

    def test_repeated_names(self):
        with pytest.raises(ValueError, match="^indecomposable names are not distinct$"):
            Presentation(n=3, indec_names=("a", "a"), suspension=Suspension((0, 1)))

    def test_negative_multiplicity(self):
        # refused however many vertices are negative
        with pytest.raises(ValueError, match="^angle multiplicities must be nonnegative$"):
            simple_presentation(angles=(Angle(((1, 0), (0, -1), (-1, 0))),))

    @pytest.mark.parametrize("entry", [1.0, 1.5, Fraction(1, 2), Decimal(1), 1j, "1", None])
    def test_non_int_entry(self, entry):
        # refused at construction, so k0's elimination never meets it
        with pytest.raises(ValueError, match="^angle multiplicities must be ints$"):
            simple_presentation(angles=(Angle(((1, 0), (0, 1), (entry, 1))),))

    def test_constructor_output_always_validates(self):
        rng = random.Random(23)
        for _ in range(50):
            assert validate_presentation(random_presentation(rng)).valid


@st.composite
def presentations_with_negatives(draw):
    """The arguments (n, r, angles) of a presentation: n = 3..8, r = 0..6, up
    to three angles with entries in [-2, 3]; some with one negative entry,
    at the end of the last vertex of the last angle."""
    n, r = draw(st.integers(3, 8)), draw(st.integers(0, 6))
    vertex = st.tuples(*[st.integers(-2, 3)] * r)
    angles = draw(st.lists(st.lists(vertex, min_size=n, max_size=n), max_size=3))
    if r and angles and draw(st.booleans()):
        last = [tuple(map(abs, v)) for v in angles[-1]]
        last[-1] = last[-1][:-1] + (-1,)
        angles[-1] = last
    return n, r, tuple(Angle(tuple(a)) for a in angles)


@settings(max_examples=200, deadline=None)
@given(presentations_with_negatives())
def test_every_negative_entry_is_reported(args):
    n, r, angles = args
    if any(x < 0 for a in angles for v in a.vertices for x in v):
        with pytest.raises(ValueError, match="^angle multiplicities must be nonnegative$"):
            simple_presentation(n=n, rank=r, angles=angles)
    else:
        assert simple_presentation(n=n, rank=r, angles=angles).angles == angles


@st.composite
def documents_with_defects(draw):
    """Documents on names from "abc", some repeated, with the identity
    suspension and up to three angles of multiplicities in -2..3, zero and
    negatives included."""
    names = draw(st.lists(st.sampled_from("abc"), max_size=4))
    n = draw(st.integers(3, 6))
    obj = st.dictionaries(st.sampled_from(names), st.integers(-2, 3)) if names else st.just({})
    angles = draw(st.lists(st.lists(obj, min_size=n, max_size=n), max_size=3))
    return {"n": n, "indecomposables": names, "suspension": {x: x for x in names},
            "angles": angles}


@settings(max_examples=300, deadline=None)
@given(documents_with_defects())
def test_parse_refuses_what_construction_refuses(doc):
    # the parser reports a repeated name or a multiplicity <= 0 and builds
    # nothing, so the CLI never reaches the refusals at construction
    names = doc["indecomposables"]
    defective = len(set(names)) != len(names) or any(
        m <= 0 for angle in doc["angles"] for vertex in angle for m in vertex.values())
    loaded = parse_document(doc)
    assert bool(loaded.violations) == defective
    assert (loaded.presentation is None) == defective


IMAGE_LISTS = st.integers(0, 6).flatmap(
    lambda r: st.lists(st.integers(-1, 6), min_size=r, max_size=r)
    | st.permutations(range(r)))


def is_permutation(images) -> bool:
    return sorted(images) == list(range(len(images)))


@settings(max_examples=300, deadline=None)
@given(IMAGE_LISTS)
def test_suspension_accepts_exactly_the_permutations(images):
    try:
        s = Suspension(tuple(images))
    except ValueError as exc:
        assert str(exc) == "suspension not bijective"
        assert not is_permutation(images)
        return
    assert is_permutation(images)
    p = Presentation(n=3, indec_names=tuple("abcdef"[: len(images)]), suspension=s)
    k0(p)
    v = tuple(range(1, len(images) + 1))
    assert suspend_object(p, suspend_object(p, v), -1) == v
    assert isinstance(witness_search(p, v, v), Witness)
    assert isinstance(witness_search(p, v, (0,) * len(v)), (Witness, NotFound))


@settings(max_examples=300, deadline=None)
@given(IMAGE_LISTS)
def test_parse_reports_a_resolved_non_bijective_suspension(images):
    # an image outside 0..r-1 is written as an unknown symbol
    names = "abcdef"[: len(images)]
    doc = {"n": 3, "indecomposables": list(names),
           "suspension": {names[i]: names[x] if 0 <= x < len(names) else "zz"
                          for i, x in enumerate(images)}}
    loaded = parse_document(doc)
    resolved = all(0 <= x < len(names) for x in images)
    assert ("suspension not bijective" in loaded.violations) == (
        resolved and not is_permutation(images))
    if not loaded.violations:
        assert loaded.presentation.suspension.images == tuple(images)


class TestBasisObject:
    @pytest.mark.parametrize("rank, index", [(0, 0), (3, 3), (3, -1), (2, 5)])
    def test_index_out_of_range(self, rank, index):
        with pytest.raises(ValueError, match="out of range"):
            basis_object(rank, index)


NON_INTS = [1.5, 1.0, Fraction(3, 2), Decimal("1.5"), "1", None]


class TestObjectVec:
    def test_ints_kept(self):
        assert object_vec([0, 3, 2]) == (0, 3, 2)
        assert object_vec(iter([1, 2])) == (1, 2)
        assert object_vec(()) == ()

    def test_bools_become_ints(self):
        out = object_vec([True, False, 2])
        assert out == (1, 0, 2) and all(type(x) is int for x in out)

    @pytest.mark.parametrize("entry", NON_INTS)
    def test_non_int_entry_refused(self, entry):
        with pytest.raises(ValueError, match="^object multiplicities must be ints$"):
            object_vec([entry, 2])

    @pytest.mark.parametrize("entry", NON_INTS)
    def test_callers_refuse_a_non_int_entry(self, entry):
        p = simple_presentation()
        for call in (lambda: trivial_angle(p, (entry, 0)), lambda: class_of(k0(p), (entry, 0)),
                     lambda: witness_search(p, (entry, 0), (1, 0))):
            with pytest.raises(ValueError, match="must be ints"):
                call()

    def test_negative_entry_refused(self):
        with pytest.raises(ValueError, match="^object multiplicities must be nonnegative$"):
            object_vec([1, -1])


class TestSuspend:
    def test_identity_power(self):
        p = simple_presentation()
        assert suspend_object(p, (3, 4), 0) == (3, 4)

    def test_transposition(self):
        p = simple_presentation(images=[1, 0])
        assert suspend_object(p, basis_object(2, 0)) == basis_object(2, 1)

    def test_inverse_round_trip(self):
        rng = random.Random(29)
        for _ in range(50):
            p = random_presentation(rng)
            v = object_vec([rng.randint(0, 5) for _ in range(p.rank)])
            k = rng.randint(-4, 4)
            assert suspend_object(p, suspend_object(p, v, k), -k) == v

    def test_bijection_on_objects(self):
        rng = random.Random(31)
        p = random_presentation(rng)
        seen = set()
        for _ in range(50):
            v = object_vec([rng.randint(0, 2) for _ in range(p.rank)])
            seen.add((v, suspend_object(p, v)))
        assert len({a for a, _ in seen}) == len({b for _, b in seen})


    @pytest.mark.parametrize("images", [(1, 2, 3, 0), (1, 0, 3, 4, 2), (2, 0, 1, 4, 3, 5)])
    def test_power_is_periodic_and_invertible(self, images):
        s = Suspension(images)
        period = math.lcm(*(len(c) for c in cycles(images)))
        v = tuple(range(1, len(images) + 1))
        for k in (*range(-13, 14), 10**9, -10**9, 10**9 + 7, -(10**9 + 7)):
            assert s.apply(v, k) == s.apply(v, k % period)
            assert s.apply(s.apply(v, k), -k) == v

    @pytest.mark.parametrize("images", [(), (0,), (1, 2, 3, 0), (1, 0, 3, 4, 2), (2, 0, 1, 4, 3, 5)])
    def test_cycles_start_at_their_largest_symbol(self, images):
        # each cycle rotated to open at its largest symbol, ordered by it
        expected = [tuple(c[c.index(max(c)):] + c[:c.index(max(c))]) for c in cycles(images)]
        assert Suspension(images).cycles() == sorted(expected, key=max)

    def test_huge_power_is_fast(self):
        p = simple_presentation(rank=4, images=[1, 2, 3, 0])
        for k in (10**9, -10**9):
            start = time.perf_counter()
            assert suspend_object(p, (1, 2, 3, 4), k) == (1, 2, 3, 4)
            assert time.perf_counter() - start < 0.01
        assert suspend_object(p, (1, 2, 3, 4), 10**9 + 1) == (4, 1, 2, 3)
        assert suspend_object(p, (1, 2, 3, 4), -10**9 - 1) == (2, 3, 4, 1)


def cycles(images):
    out, seen = [], set()
    for x in range(len(images)):
        if x not in seen:
            cycle = [x]
            while images[cycle[-1]] != x:
                cycle.append(images[cycle[-1]])
            seen.update(cycle)
            out.append(cycle)
    return out


def rotate_by_steps(p, a, k):
    """k single left rotations (A_2, ..., A_n, S A_1), or -k single right
    rotations (S^-1 A_n, A_1, ..., A_{n-1}) for negative k, with S read off
    the image list: (S v)[images[i]] = v[i]."""
    images = p.suspension.images
    vs = list(a.vertices)
    for _ in range(k):
        moved = [0] * len(images)
        for i, x in enumerate(vs[0]):
            moved[images[i]] = x
        vs = vs[1:] + [tuple(moved)]
    for _ in range(-k):
        vs = [tuple(vs[-1][images[i]] for i in range(len(images)))] + vs[:-1]
    return Angle(tuple(vs))


@st.composite
def rotation_cases(draw):
    """A presentation at n = 2..8 with any suspension on 1-6 symbols (most
    have a fixed point, many several cycles), an angle, an object and a
    rotation count k in -2n..3n."""
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(1, 6))
    images = draw(st.permutations(range(rank)))
    obj = st.tuples(*[st.integers(0, 3)] * rank)
    p = simple_presentation(n=n, rank=rank, images=images)
    event(f"{len(cycles(images))} cycle(s), "
          f"{'a' if any(i == x for i, x in enumerate(images)) else 'no'} fixed point")
    return p, Angle(draw(st.tuples(*[obj] * n))), draw(obj), draw(st.integers(-2 * n, 3 * n))


class TestRotate:
    def test_trivial_angle_rotation(self):
        p = simple_presentation(rank=1)
        a = Angle(((1,), (1,), (0,)))
        assert rotate_angle(p, a) == Angle(((1,), (0,), (1,)))

    def test_full_cycle_suspends_every_vertex(self):
        rng = random.Random(37)
        for _ in range(30):
            p = random_presentation(rng)
            if not p.angles:
                continue
            a = p.angles[0]
            rotated = a
            for _ in range(p.n):
                rotated = rotate_angle(p, rotated)
            expected = Angle(tuple(suspend_object(p, v) for v in a.vertices))
            assert rotated == expected

    def test_zero_angle_fixed(self):
        p = simple_presentation()
        z = Angle((zero_object(2),) * 3)
        assert rotate_angle(p, z) == z

    @settings(max_examples=300, deadline=None)
    @given(rotation_cases())
    def test_any_k_matches_single_steps(self, case):
        p, a, v, k = case
        assert rotate_angle(p, a, k) == rotate_by_steps(p, a, k)
        assert rotate_angle(p, rotate_angle(p, a, k), -k) == a
        for slot in range(1, p.n + 1):
            expected = rotate_by_steps(p, trivial_angle(p, v, 1), slot - 1)
            assert trivial_angle(p, v, slot) == expected
            assert trivial_angle(p, v, slot) == rotate_angle(p, trivial_angle(p, v, 1), slot - 1)

    def test_any_rotation_is_fast(self):
        def fastest(f):
            # best of three, so one garbage-collection pass cannot fail the bound
            times = []
            for _ in range(3):
                start = time.perf_counter()
                out = f()
                times.append(time.perf_counter() - start)
            assert min(times) < 0.01
            return out

        p = simple_presentation(n=2000, images=[1, 0])
        a = fastest(lambda: trivial_angle(p, (1, 0), 2000))
        assert a == Angle(((0, 0), (0, 1), (0, 1)) + ((0, 0),) * 1997)
        # the rotations have period n * lcm(3, 2) = 42 on this angle
        p = simple_presentation(n=7, rank=6, images=[1, 2, 0, 4, 3, 5])
        a = Angle(tuple(tuple(range(i, i + 6)) for i in range(7)))
        for k in (10**9, -10**9):
            assert fastest(lambda: rotate_angle(p, a, k)) == rotate_by_steps(p, a, k % 42)


class TestDirectSum:
    def test_zero_identity(self):
        p = simple_presentation()
        a = Angle(((1, 0), (0, 1), (1, 1)))
        z = Angle((zero_object(2),) * 3)
        assert direct_sum_angle(a, z) == a

    def test_componentwise(self):
        a = Angle(((1, 0), (0, 0), (1, 0)))
        b = Angle(((0, 0), (0, 1), (0, 0)))
        assert direct_sum_angle(a, b) == Angle(((1, 0), (0, 1), (1, 0)))

    def test_commutative_associative(self):
        rng = random.Random(41)
        for _ in range(30):
            p = random_presentation(rng)
            angs = [
                Angle(
                    tuple(
                        object_vec([rng.randint(0, 3) for _ in range(p.rank)])
                        for _ in range(p.n)
                    )
                )
                for _ in range(3)
            ]
            a, b, c = angs
            assert direct_sum_angle(a, b) == direct_sum_angle(b, a)
            assert direct_sum_angle(direct_sum_angle(a, b), c) == direct_sum_angle(
                a, direct_sum_angle(b, c)
            )

    def test_arity_mismatch(self):
        a = Angle(((1,), (0,), (0,)))
        b = Angle(((1,), (0,)))
        with pytest.raises(ValueError):
            direct_sum_angle(a, b)


class TestTrivialAngle:
    def test_slot_one(self):
        p = simple_presentation(rank=1)
        assert trivial_angle(p, (1,), 1) == Angle(((1,), (1,), (0,)))

    def test_slot_two_is_left_rotation(self):
        p = simple_presentation(rank=1)
        assert trivial_angle(p, (1,), 2) == rotate_angle(p, trivial_angle(p, (1,), 1))
        assert trivial_angle(p, (1,), 2) == Angle(((1,), (0,), (1,)))

    def test_zero_object_any_slot(self):
        p = simple_presentation()
        for slot in range(1, 4):
            assert trivial_angle(p, zero_object(2), slot) == Angle((zero_object(2),) * 3)

    def test_slot_out_of_range(self):
        p = simple_presentation()
        with pytest.raises(ValueError):
            trivial_angle(p, (1, 0), 4)
