import time

import pytest
from hypothesis import event, given, settings, strategies as st

from angk0.embeddings import (
    Embedding,
    check_surjective,
    embedding_matrix,
    induced_hom,
    validate_embedding,
)
from angk0.errors import InvalidEmbeddingError, NotWellDefinedError
from angk0.k0 import euler_vector, k0, relation_lattice, suspension_rows
from angk0.lattices import IntMatrix, apply_matrix, is_surjective
from angk0.presentations import Angle, Presentation, Suspension, ViolationReport


def make(n, names, images, angles=()):
    return Presentation(
        n=n, indec_names=tuple(names), suspension=Suspension(tuple(images)), angles=angles
    )


# target with two swapped symbols: K0 = Z^2 / <(1,1)> = Z
T_SWAP = make(3, ("p", "q"), (1, 0))
# domain: one symbol, arity 4, identity suspension: K0 = Z
C_FREE = make(4, ("c",), (0,))


class TestValidate:
    def test_identity_self_embedding(self):
        t = make(3, ("p", "q"), (1, 0))
        e = Embedding(domain=t, target=t, images=(0, 1))
        assert validate_embedding(e).valid

    def test_broken_intertwining(self):
        # domain suspension is the identity but sigma_T^2 is not the
        # identity on the image unless the image is sigma_T^2-fixed
        t = make(3, ("p", "q", "s"), (1, 0, 2))
        c = make(5, ("c",), (0,))  # power n-2 = 3, sigma_T^3 = swap
        e = Embedding(domain=c, target=t, images=(0,))
        report = validate_embedding(e)
        assert any("intertwining" in v for v in report.violations)

    def test_not_injective(self):
        t = make(3, ("p", "q"), (1, 0))
        c = make(4, ("x", "y"), (0, 1))
        e = Embedding(domain=c, target=t, images=(0, 0))
        report = validate_embedding(e)
        assert any("injective" in v for v in report.violations)

    def test_target_arity(self):
        c = make(4, ("x",), (0,))
        e = Embedding(domain=c, target=make(5, ("p",), (0,)), images=(0,))
        assert any("arity" in v for v in validate_embedding(e).violations)

    def test_wrong_image_count(self):
        e = Embedding(domain=C_FREE, target=T_SWAP, images=(0, 1))
        report = validate_embedding(e)
        assert type(report) is ViolationReport
        assert not report.valid
        assert report.violations == ("image list length does not match domain symbol count",)

    def test_image_out_of_range(self):
        e = Embedding(domain=C_FREE, target=T_SWAP, images=(2,))
        report = validate_embedding(e)
        assert type(report) is ViolationReport
        assert not report.valid
        assert report.violations == ("image index out of range",)

    def test_induced_hom_refuses_an_invalid_embedding(self):
        e = Embedding(domain=C_FREE, target=make(4, ("p",), (0,)), images=(1,))
        with pytest.raises(ValueError) as exc:
            induced_hom(e)
        assert str(exc.value) == (
            "invalid embedding: target arity must be 3, found 4; image index out of range")
        assert isinstance(exc.value, InvalidEmbeddingError)
        assert exc.value.violations == validate_embedding(e).violations


class TestInducedHom:
    def test_identity_embedding(self):
        t = make(3, ("p", "q"), (1, 0))
        e = Embedding(domain=t, target=t, images=(0, 1))
        hom = induced_hom(e)
        x = hom.source.element((1, 0))
        assert hom(x) == hom.target.element((1, 0))

    def test_synthetic_z_to_z(self):
        e = Embedding(domain=C_FREE, target=T_SWAP, images=(0,))
        hom = induced_hom(e)
        kt = k0(T_SWAP)
        assert kt.group.free_rank == 1
        assert kt.group.invariant_factors == ()
        assert is_surjective(hom)

    def test_not_well_defined(self):
        # the angle's Euler vector is -2 e_c; its image -2 e_p is not in
        # the target relations <(1,1)>
        c = make(4, ("c",), (0,), angles=(Angle(((1,), (2,), (0,), (1,))),))
        e = Embedding(domain=c, target=T_SWAP, images=(0,))
        with pytest.raises(NotWellDefinedError) as exc:
            induced_hom(e)
        assert exc.value.witness == (-2,)
        assert apply_matrix(exc.value.witness, embedding_matrix(e)) == (-2, 0)
        assert (-2, 0) not in relation_lattice(T_SWAP)


class TestSurjectivity:
    def test_identity(self):
        t = make(3, ("p", "q"), (1, 0))
        e = Embedding(domain=t, target=t, images=(0, 1))
        assert check_surjective(e)

    def test_synthetic_true(self):
        e = Embedding(domain=C_FREE, target=T_SWAP, images=(0,))
        assert check_surjective(e)

    def test_unreachable_symbol(self):
        t = make(3, ("p", "q", "s"), (1, 0, 2))
        e = Embedding(domain=C_FREE, target=t, images=(0,))
        assert validate_embedding(e).valid
        assert not check_surjective(e)


@st.composite
def intertwined_embeddings(draw):
    """A valid embedding into an arity-3 target (r <= 6, any suspension
    permutation, 0-3 angles).  The domain (n = 3..9) is a symbol subset
    closed under T^(n-2), listed in a drawn order, with the restricted
    power as its suspension and 0-3 random angles."""
    t_rank = draw(st.integers(1, 6))
    t_images = draw(st.permutations(range(t_rank)))
    t_obj = st.tuples(*[st.integers(0, 2)] * t_rank)
    t = make(
        3,
        tuple("pqrstu"[:t_rank]),
        tuple(t_images),
        tuple(Angle(v) for v in draw(st.lists(st.tuples(*[t_obj] * 3), max_size=3))),
    )
    n = draw(st.integers(3, 9))

    def power(y):
        for _ in range(n - 2):
            y = t_images[y]
        return y

    closure = set(draw(st.sets(st.integers(0, t_rank - 1), min_size=1)))
    while not {power(y) for y in closure} <= closure:
        closure |= {power(y) for y in closure}
    images = draw(st.permutations(sorted(closure)))
    index_of = {y: x for x, y in enumerate(images)}
    c_obj = st.tuples(*[st.integers(0, 2)] * len(images))
    c = make(
        n,
        tuple(f"c{x}" for x in range(len(images))),
        tuple(index_of[power(y)] for y in images),
        tuple(Angle(v) for v in draw(st.lists(st.tuples(*[c_obj] * n), max_size=3))),
    )
    return Embedding(domain=c, target=t, images=tuple(images))


class TestWellDefinedness:
    @settings(max_examples=300, deadline=None)
    @given(intertwined_embeddings())
    def test_equivalent_to_image_containment(self, e):
        # induced_hom tests only the Euler vectors; the relation basis of
        # the whole domain lattice is the independent oracle
        assert validate_embedding(e).valid
        target_lattice = relation_lattice(e.target)
        m = embedding_matrix(e)

        def maps_inside(row):
            return apply_matrix(row, m) in target_lattice

        assert all(maps_inside(row) for row in suspension_rows(e.domain))
        contained = all(maps_inside(row) for row in relation_lattice(e.domain).basis)
        first = next(
            (
                (idx, row)
                for idx, row in enumerate(euler_vector(e.domain, a) for a in e.domain.angles)
                if not maps_inside(row)
            ),
            None,
        )
        event("well defined" if contained else "not well defined")
        try:
            induced_hom(e)
        except NotWellDefinedError as exc:
            assert not contained
            idx, row = first
            assert exc.witness == row
            assert f"listed angle {idx} " in str(exc)
        else:
            assert contained and first is None


def permutation_matrix(s: Suspension) -> IntMatrix:
    """Row-vector action of a suspension: row i is the basis vector at images[i]."""
    n = len(s.images)
    return IntMatrix([[int(j == s.images[i]) for j in range(n)] for i in range(n)], cols=n)


class TestIntertwining:
    @settings(max_examples=100, deadline=None)
    @given(intertwined_embeddings())
    def test_matrix_commutes_with_suspensions(self, e):
        assert validate_embedding(e).valid
        m = embedding_matrix(e)
        s_t = permutation_matrix(e.target.suspension)
        s_t_pow = s_t
        for _ in range(e.domain.n - 3):
            s_t_pow = s_t_pow @ s_t
        assert permutation_matrix(e.domain.suspension) @ m == m @ s_t_pow


class TestLargeArity:
    # sigma_T is a 3-cycle on p, q, r and a 2-cycle on s, t, so the
    # intertwining at arity n depends on n - 2 modulo 6 alone.
    T_CYCLES = make(3, ("p", "q", "r", "s", "t"), (1, 2, 0, 4, 3))
    HUGE_N = 10**12 + 2

    def verdicts(self, n):
        c = make(n, ("c",), (0,))
        return [
            validate_embedding(Embedding(domain=c, target=self.T_CYCLES, images=(x,))).valid
            for x in range(5)
        ]

    def test_huge_n_matches_its_residue(self):
        small_n = 2 + (self.HUGE_N - 2) % 6
        start = time.perf_counter()
        huge = self.verdicts(self.HUGE_N)
        assert time.perf_counter() - start < 1.0
        assert huge == self.verdicts(small_n) == [False, False, False, True, True]

    def test_matches_stepwise_power(self):
        images = self.T_CYCLES.suspension.images
        for n in range(3, 16):
            powered = list(range(5))
            for _ in range(n - 2):
                powered = [images[y] for y in powered]
            assert self.verdicts(n) == [y == x for x, y in enumerate(powered)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda r: st.permutations(range(r))), st.data())
def test_iterate_matches_stepwise_power(images, data):
    # Suspension.power against stepping one image (or one preimage) at a time
    x = data.draw(st.integers(0, len(images) - 1))
    power = data.draw(st.integers(-10**4, 10**4))
    step = images if power >= 0 else [images.index(y) for y in range(len(images))]
    y = x
    for _ in range(abs(power)):
        y = step[y]
    assert Suspension(tuple(images)).power(power)[x] == y
