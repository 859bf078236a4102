import random
import time

import pytest

from angk0.embeddings import (
    Embedding,
    check_surjective,
    embedding_matrix,
    induced_hom,
    validate_embedding,
)
from angk0.errors import NotWellDefinedError
from angk0.k0 import k0, relation_lattice
from angk0.lattices import apply_matrix, is_surjective
from angk0.presentations import Angle, Presentation, Suspension


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


class TestWellDefinedness:
    def test_equivalent_to_image_containment(self):
        # induced_hom succeeds exactly when every canonical relation row of
        # the domain maps into the target relation lattice
        rng = random.Random(101)
        from angk0.presentations import Angle, object_vec

        for _ in range(60):
            # n - 2 must be even so the identity domain suspension
            # intertwines with the swap on the target
            n = rng.choice([4, 6])
            angles = tuple(
                Angle(
                    tuple(
                        object_vec([rng.randint(0, 2)]) for _ in range(n)
                    )
                )
                for _ in range(rng.randint(0, 2))
            )
            c = make(n, ("c",), (0,), angles=angles)
            e = Embedding(domain=c, target=T_SWAP, images=(0,))
            target_lattice = relation_lattice(T_SWAP)
            m = embedding_matrix(e)
            contained = all(
                apply_matrix(row, m) in target_lattice
                for row in relation_lattice(c).basis
            )
            try:
                induced_hom(e)
                assert contained
            except NotWellDefinedError:
                assert not contained


class TestIntertwining:
    def test_matrix_commutes_with_suspensions(self):
        rng = random.Random(97)
        for _ in range(40):
            # random valid embedding: choose a target permutation, then set
            # the domain suspension to the induced power on a symbol subset
            t_rank = rng.randint(1, 4)
            images_t = list(range(t_rank))
            rng.shuffle(images_t)
            t = make(3, tuple("pqrs"[:t_rank]), tuple(images_t))
            n = rng.choice([4, 5, 6])
            power = n - 2
            # find an orbit-closed subset under sigma_T^power
            def power_image(i):
                for _ in range(power):
                    i = images_t[i]
                return i

            subset = sorted({power_image(j) for j in range(t_rank)} | {0})
            closure = set(subset)
            while True:
                extended = closure | {power_image(i) for i in closure}
                if extended == closure:
                    break
                closure = extended
            subset = sorted(closure)
            index_of = {sym: i for i, sym in enumerate(subset)}
            c = make(
                n,
                tuple(f"c{i}" for i in range(len(subset))),
                tuple(index_of[power_image(sym)] for sym in subset),
            )
            e = Embedding(domain=c, target=t, images=tuple(subset))
            assert validate_embedding(e).valid
            m = embedding_matrix(e)
            s_c = c.suspension.matrix()
            s_t_pow = t.suspension.matrix()
            for _ in range(power - 1):
                s_t_pow = s_t_pow @ t.suspension.matrix()
            assert s_c @ m == m @ s_t_pow


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
