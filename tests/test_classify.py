import itertools
import random

import pytest

from angk0.classify import (
    SubcategoryLattice,
    is_complete,
    is_dense,
    subcategory_from_subgroup,
    subgroup_from_subcategory,
    summand_closure_check,
    verify_correspondence,
)
from angk0.errors import EvenNUnsupportedError, InfiniteGroupError
from angk0.k0 import k0, relation_lattice
from angk0.lattices import Lattice, enumerate_subgroups, subgroup_from_generators
from angk0.presentations import Angle, Presentation, Suspension, basis_object, rotate_angle
from support import random_presentation


def make(n, rank, images=None, angles=()):
    return Presentation(
        n=n,
        indec_names=tuple("abcdef"[:rank]),
        suspension=Suspension(tuple(images if images is not None else range(rank))),
        angles=angles,
    )


G1 = make(3, 3, angles=(Angle((basis_object(3, 0), basis_object(3, 1), basis_object(3, 2))),))
G2 = make(3, 1)


class TestSubcategoryFromSubgroup:
    def test_full_subgroup(self):
        k = k0(G1)
        full = subgroup_from_generators(
            k.group, [k.group.element(basis_object(3, j)) for j in range(3)]
        )
        sub = subcategory_from_subgroup(k, full)
        assert sub.lattice.is_full()
        assert sub.contains_object((1, 2, 3))

    def test_trivial_subgroup(self):
        k = k0(G1)
        trivial = subgroup_from_generators(k.group, [])
        sub = subcategory_from_subgroup(k, trivial)
        assert sub.lattice == k.relation_lattice
        # members are exactly the objects of class zero
        for v in itertools.product(range(3), repeat=3):
            assert sub.contains_object(v) == k.group.element(v).is_zero

    def test_order_two_membership(self):
        k = k0(G1)
        h = subgroup_from_generators(k.group, [k.group.element(basis_object(3, 0))])
        sub = subcategory_from_subgroup(k, h)
        assert sub.contains_object((1, 0, 0))
        assert not sub.contains_object((0, 1, 0))
        assert sub.contains_object((0, 1, 1))

    def test_even_n_refused(self):
        p = make(4, 1)
        k = k0(p)
        full = subgroup_from_generators(k.group, [k.group.element((1,))])
        with pytest.raises(EvenNUnsupportedError):
            subcategory_from_subgroup(k, full)
        # expert override still constructs
        sub = subcategory_from_subgroup(k, full, allow_even_n=True)
        assert sub.lattice.is_full()


class TestSubgroupFromSubcategory:
    def test_round_trip_by_construction(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            sub = subcategory_from_subgroup(k, h)
            assert subgroup_from_subcategory(k, sub) == h

    def test_relation_lattice_gives_trivial_subgroup(self):
        k = k0(G1)
        sub = SubcategoryLattice(G1, k.relation_lattice)
        back = subgroup_from_subcategory(k, sub)
        assert back.order() == 1

    def test_coset_count(self):
        k = k0(G1)
        sub = SubcategoryLattice(G1, k.relation_lattice.join([basis_object(3, 0)]))
        assert subgroup_from_subcategory(k, sub).order() == 2


class TestIsDense:
    def test_odd_n_suspension_certificate(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            cert = is_dense(G1, subcategory_from_subgroup(k, h))
            assert cert.holds
            assert "S e_j" in cert.reason or "e_j" in cert.reason

    def test_even_n_zero_lattice_unknown(self):
        p = make(4, 1)
        cert = is_dense(p, SubcategoryLattice(p, Lattice(1)))
        assert cert.status == "unknown"
        assert cert.bound is not None

    def test_even_n_full_lattice_holds(self):
        p = make(4, 1)
        cert = is_dense(p, SubcategoryLattice(p, Lattice(1, [(1,)])))
        assert cert.holds


class TestIsComplete:
    def test_containment_certificate(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            cert = is_complete(k, subcategory_from_subgroup(k, h))
            assert cert.holds

    def test_scan_finds_failure(self):
        # one angle with a single vertex outside the even sublattice
        p = make(
            3,
            3,
            angles=(Angle(((2, 0, 0), (0, 1, 0), (0, 0, 2))),),
        )
        sub = SubcategoryLattice(p, Lattice(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
        cert = is_complete(k0(p), sub)
        assert cert.fails
        angle, missing = cert.witness
        assert angle.vertices[missing] == (0, 1, 0)

    def test_no_generators_holds(self):
        p = make(3, 2)
        sub = SubcategoryLattice(p, relation_lattice(p))
        assert is_complete(k0(p), sub).holds

    def test_one_containment_test_per_entry(self, monkeypatch):
        # (Z/2)^3 has 16 subgroups; enumerated preimages contain the
        # relations by construction, so only is_complete tests it
        k = k0(make(3, 3))
        tested = []
        original = Lattice.contains_lattice
        monkeypatch.setattr(Lattice, "contains_lattice",
                            lambda self, other: tested.append(self) or original(self, other))
        report = verify_correspondence(k)
        assert report.subgroup_count == 16 and report.all_verified
        assert sorted(lat.basis for lat in tested) == sorted(
            e.subgroup.preimage.basis for e in report.entries)
        # the public constructors still test it
        with pytest.raises(ValueError):
            subgroup_from_subcategory(k, SubcategoryLattice(k.presentation, Lattice(3)))
        assert len(tested) == 17

    def test_holds_certificate_never_contradicted_by_scan(self):
        # when containment holds, the generator scan must find no violation
        rng = random.Random(71)
        for _ in range(30):
            p = random_presentation(rng, max_rank=3, max_angles=2, n=3)
            k = k0(p)
            if not k.group.is_finite:
                continue
            for h in enumerate_subgroups(k.group):
                sub = subcategory_from_subgroup(k, h)
                assert is_complete(k, sub).holds
                for gi, gen in enumerate(p.angles):
                    angle = gen
                    for _ in range(p.n):
                        members = [v in sub.lattice for v in angle.vertices]
                        assert members.count(False) != 1
                        angle = rotate_angle(p, angle)


class TestSummandClosure:
    def test_full_lattice(self):
        p = G1
        sub = SubcategoryLattice(p, Lattice(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert summand_closure_check(p, sub, trials=20).holds

    def test_subgroup_lattices(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            sub = subcategory_from_subgroup(k, h)
            assert summand_closure_check(G1, sub, trials=30).holds

    def test_zero_trials(self):
        k = k0(G1)
        sub = subcategory_from_subgroup(k, enumerate_subgroups(k.group)[0])
        cert = summand_closure_check(G1, sub, trials=0)
        assert cert.holds
        assert "0 trials" in cert.reason


class TestVerifyCorrespondence:
    def test_g2(self):
        report = verify_correspondence(k0(G2))
        assert report.subgroup_count == 2
        assert report.all_verified

    def test_g1(self):
        report = verify_correspondence(k0(G1))
        assert report.subgroup_count == 5
        assert report.distinct_lattices == 5
        assert report.all_verified

    def test_trivial_group(self):
        p = make(3, 1, angles=(Angle(((1,), (0,), (0,))),))
        k = k0(p)
        assert k.group.order() == 1
        report = verify_correspondence(k)
        assert report.subgroup_count == 1
        assert report.all_verified

    def test_even_n_refused(self):
        with pytest.raises(EvenNUnsupportedError):
            verify_correspondence(k0(make(4, 1)))

    def test_infinite_refused(self):
        p = make(3, 2, images=[1, 0])  # relation row e_a + e_b only
        assert not k0(p).group.is_finite
        with pytest.raises(InfiniteGroupError):
            verify_correspondence(k0(p))

    def test_monotone(self):
        k = k0(G1)
        subs = enumerate_subgroups(k.group)
        for h1 in subs:
            for h2 in subs:
                lattice_contained = h2.preimage.contains_lattice(h1.preimage)
                # element-level containment, computed independently
                elems_h1 = [x for x in k.group.elements() if h1.contains(x)]
                assert lattice_contained == all(h2.contains(x) for x in elems_h1)

    def test_membership_matches_class_in_subgroup(self):
        # member objects are exactly those whose class lies in the subgroup,
        # cross-checked against closure-generated subgroup elements
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            sub = subcategory_from_subgroup(k, h)
            closure = {k.group.zero()}
            frontier = list(h.generators())
            while frontier:
                x = frontier.pop()
                if x not in closure:
                    closure.add(x)
                    frontier.extend(x + y for y in list(closure))
            for v in itertools.product(range(3), repeat=3):
                assert sub.contains_object(v) == (k.group.element(v) in closure)


def gaussian_binomial_sum(k, q):
    # Number of subspaces of F_q^k: the sum over j of the Gaussian binomials.
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= q ** (k - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


class TestClosedFormCounts:
    """Subgroup counts of the enumeration against closed forms, independent
    of the subset oracle in support.py."""

    @pytest.mark.parametrize("k, count", [(1, 2), (2, 5), (3, 16), (4, 67), (5, 374)])
    def test_elementary_abelian(self, k, count):
        # identity suspension on k symbols and no angles: K0 = (Z/2)^k
        kr = k0(make(3, k))
        assert kr.group.invariant_factors == (2,) * k
        assert gaussian_binomial_sum(k, 2) == count
        assert len(enumerate_subgroups(kr.group)) == count
        report = verify_correspondence(kr)
        assert report.subgroup_count == count
        assert report.all_verified

    def test_z2_on_sixteen_symbols(self):
        # angles (e_i, e_(i+1), 0) identify all symbols, the suspension
        # rows 2 e_j leave K0 = Z/2, which has exactly two subgroups
        r = 16
        zero = (0,) * r
        p = Presentation(
            n=3,
            indec_names=tuple(f"x{j}" for j in range(r)),
            suspension=Suspension(tuple(range(r))),
            angles=tuple(
                Angle((basis_object(r, i), basis_object(r, i + 1), zero)) for i in range(r - 1)
            ),
        )
        kr = k0(p)
        assert kr.group.invariant_factors == (2,)
        subs = enumerate_subgroups(kr.group)
        assert len(subs) == 2
        assert subs[-1].preimage == kr.relation_lattice
        assert subs[0].preimage.is_full()
