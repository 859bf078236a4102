import importlib.util
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import angk0.classify
import angk0.tensor
from angk0.classify import (
    GeneratorRealization,
    SubcategoryLattice,
    is_complete,
    is_dense,
    subgroup_from_subcategory,
    verify_correspondence,
)
from angk0.errors import EvenNUnsupportedError, InfiniteGroupError
from angk0.k0 import equal_classes, k0, object_for_element
from angk0.lattices import (
    FgAbelianGroup,
    Lattice,
    Subgroup,
    enumerate_subgroups,
    subgroup_from_generators,
)
from angk0.presentations import Angle, Presentation, Suspension, basis_object
from angk0.tensor import verify_tensor_correspondence
from support import (
    member_containing_each_symbol,
    random_paired_presentation,
    random_valid_tensor,
    rotation_violation,
    summand_closure_holds,
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


class TestSubcategoryFromSubgroup:
    def test_full_subgroup(self):
        k = k0(G1)
        full = subgroup_from_generators(
            k.group, [k.group.element(basis_object(3, j)) for j in range(3)]
        )
        sub = SubcategoryLattice(k, full)
        assert sub.lattice.is_full()
        assert sub.contains_object((1, 2, 3))

    def test_trivial_subgroup(self):
        k = k0(G1)
        trivial = subgroup_from_generators(k.group, [])
        sub = SubcategoryLattice(k, trivial)
        assert sub.lattice == k.relation_lattice
        # members are exactly the objects of class zero
        for v in itertools.product(range(3), repeat=3):
            assert sub.contains_object(v) == k.group.element(v).is_zero

    def test_order_two_membership(self):
        k = k0(G1)
        h = subgroup_from_generators(k.group, [k.group.element(basis_object(3, 0))])
        sub = SubcategoryLattice(k, h)
        assert sub.contains_object((1, 0, 0))
        assert not sub.contains_object((0, 1, 0))
        assert sub.contains_object((0, 1, 1))

    def test_even_n_refused(self):
        # the certificates rest on odd n, so there is no override
        p = make(4, 1)
        k = k0(p)
        full = subgroup_from_generators(k.group, [k.group.element((1,))])
        with pytest.raises(EvenNUnsupportedError):
            SubcategoryLattice(k, full)

    def test_subgroup_of_another_group_refused(self):
        k = k0(G1)
        other = k0(G2)
        with pytest.raises(ValueError):
            SubcategoryLattice(k, enumerate_subgroups(other.group)[0])

    def test_certificates_refuse_other_objects(self):
        k = k0(G1)
        for cert in (is_dense, is_complete):
            with pytest.raises(TypeError):
                cert(k.relation_lattice)


class TestSubgroupFromSubcategory:
    def test_round_trip_by_construction(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            sub = SubcategoryLattice(k, h)
            assert subgroup_from_subcategory(k, sub) is h

    def test_relation_lattice_gives_trivial_subgroup(self):
        k = k0(G1)
        sub = SubcategoryLattice(k, Subgroup(k.group, k.relation_lattice))
        back = subgroup_from_subcategory(k, sub)
        assert back.order() == 1

    def test_coset_count(self):
        k = k0(G1)
        h = Subgroup(k.group, k.relation_lattice.join([basis_object(3, 0)]))
        assert subgroup_from_subcategory(k, SubcategoryLattice(k, h)).order() == 2

    def test_other_presentation_refused(self):
        # same group, other presentation
        k = k0(G1)
        twin = k0(make(3, 3, angles=G1.angles + G1.angles))
        assert twin.group == k.group
        sub = SubcategoryLattice(twin, enumerate_subgroups(twin.group)[0])
        with pytest.raises(ValueError):
            subgroup_from_subcategory(k, sub)


class TestIsDense:
    def test_odd_n_suspension_certificate(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            cert = is_dense(SubcategoryLattice(k, h))
            assert cert.holds
            assert cert.reason == (
                "e_j + S e_j is a member for every symbol, so C + SC witnesses every C")

    def test_even_n_zero_lattice_unknown(self):
        # the bounded search oracle can fail: no member holds the symbol
        assert member_containing_each_symbol(make(4, 1), Lattice(1)) is None

    def test_even_n_full_lattice_holds(self):
        assert member_containing_each_symbol(make(4, 1), Lattice(1, [(1,)])) == ((1,),)


class TestIsComplete:
    def test_containment_certificate(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            cert = is_complete(SubcategoryLattice(k, h))
            assert cert.holds
            assert cert.reason == (
                "lattice contains the relation lattice, so Euler relations close angles")

    def test_scan_finds_failure(self):
        # the rotation scan oracle can fail: one angle with a single vertex
        # outside the even sublattice
        p = make(3, 3, angles=(Angle(((2, 0, 0), (0, 1, 0), (0, 0, 2))),))
        angle, missing = rotation_violation(p, Lattice(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
        assert angle.vertices[missing] == (0, 1, 0)

    def test_no_generators_holds(self):
        p = make(3, 2)
        k = k0(p)
        sub = SubcategoryLattice(k, Subgroup(k.group, k.relation_lattice))
        assert rotation_violation(p, sub.lattice) is None
        assert is_complete(sub).holds

    def test_no_lattice_test_per_entry(self, monkeypatch):
        # (Z/2)^3 has 16 subgroups.  Each certificate runs once per entry,
        # and none runs a containment or membership test.
        k = k0(make(3, 3))
        log = count_lattice_tests(monkeypatch, angk0.classify)
        report = verify_correspondence(k)
        assert report.subgroup_count == 16 and report.all_verified
        # the only membership tests left realize the generators, one for
        # each distinct preimage-basis row however many entries list it
        rows = {row for e in report.entries for row in e.subgroup.preimage.basis}
        assert log == {"dense": 16, "complete": 16, "contains_lattice": 0,
                       "member_in_certificate": 0, "member_elsewhere": len(rows)}
        # the public Subgroup constructor still tests containment
        with pytest.raises(ValueError):
            Subgroup(k.group, Lattice(3))
        assert log["contains_lattice"] == 1

    def test_ring_entries_run_no_lattice_test(self, monkeypatch):
        t = random_valid_tensor(random.Random(3))
        log = count_lattice_tests(monkeypatch, angk0.tensor)
        report = verify_tensor_correspondence(t)
        assert report.all_verified
        assert (log["dense"], log["complete"]) == (report.ideal_count,) * 2
        assert log["member_in_certificate"] == 0


def count_lattice_tests(monkeypatch, module):
    """Count the calls of `module`'s two certificates, and the lattice
    containment and membership tests, inside a certificate or elsewhere."""
    log = {"dense": 0, "complete": 0, "contains_lattice": 0,
           "member_in_certificate": 0, "member_elsewhere": 0}
    inside = []
    contains, contains_lattice = Lattice.__contains__, Lattice.contains_lattice

    def member(self, vec):
        log["member_in_certificate" if inside else "member_elsewhere"] += 1
        return contains(self, vec)

    def containment(self, other):
        log["contains_lattice"] += 1
        return contains_lattice(self, other)

    def counted(name, certificate):
        def wrapper(sub):
            log[name] += 1
            inside.append(name)
            try:
                return certificate(sub)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(Lattice, "__contains__", member)
    monkeypatch.setattr(Lattice, "contains_lattice", containment)
    monkeypatch.setattr(module, "is_dense", counted("dense", is_dense))
    monkeypatch.setattr(module, "is_complete", counted("complete", is_complete))
    return log


@st.composite
def small_odd_k0s(draw):
    """K0 of an odd-n presentation on 2-4 symbols, with up to two angles of
    multiplicities up to 2, whose group is finite of order <= 32."""
    rank = draw(st.integers(2, 4))
    n = draw(st.sampled_from([3, 5, 7]))
    images = draw(st.permutations(range(rank)))
    vertex = st.tuples(*[st.integers(0, 2)] * rank)
    angles = draw(st.lists(st.tuples(*[vertex] * n).map(Angle), max_size=2))
    k = k0(make(n, rank, images, tuple(angles)))
    assume(k.group.is_finite and k.group.order() <= 32)
    return k


def assert_oracles_agree(entry):
    """The bounded oracles confirm what the certificates derive from the
    construction."""
    p, lattice = entry.subcategory.presentation, entry.subcategory.lattice
    assert entry.dense.holds and entry.complete.holds
    assert member_containing_each_symbol(p, lattice, bound=4) is not None
    assert rotation_violation(p, lattice) is None
    assert summand_closure_holds(p, lattice, trials=3)


class TestOraclesAgree:
    @settings(max_examples=60, deadline=None)
    @given(small_odd_k0s())
    def test_classify_entries(self, k):
        for entry in verify_correspondence(k).entries:
            assert_oracles_agree(entry)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_ring_entries(self, seed):
        for entry in verify_tensor_correspondence(random_valid_tensor(random.Random(seed))).entries:
            assert_oracles_agree(entry)


class TestSummandClosure:
    def test_full_lattice(self):
        assert summand_closure_holds(G1, Lattice(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), trials=20)

    def test_subgroup_lattices(self):
        k = k0(G1)
        for h in enumerate_subgroups(k.group):
            assert summand_closure_holds(G1, SubcategoryLattice(k, h).lattice, trials=30)

    def test_zero_trials(self):
        # no trial, no failure, even off lattices
        assert summand_closure_holds(G2, {(0,), (2,), (3,)}, trials=0)

    def test_fails_off_lattices(self):
        # 3 = 2 + 1 with 3 and 2 members but 1 not: the oracle can fail
        assert not summand_closure_holds(G2, {(0,), (2,), (3,)}, trials=20)


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
            sub = SubcategoryLattice(k, h)
            closure = {k.group.zero()}
            frontier = list(h.generators())
            while frontier:
                x = frontier.pop()
                if x not in closure:
                    closure.add(x)
                    frontier.extend(x + y for y in list(closure))
            for v in itertools.product(range(3), repeat=3):
                assert sub.contains_object(v) == (k.group.element(v) in closure)


class TestRealizedOncePerRow:
    """verify_correspondence realizes each distinct preimage-basis row once
    and hands that realization to every entry listing the row."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_one_realization_per_row(self, seed):
        k = k0(random_paired_presentation(random.Random(seed), max_rank=4))
        assume(k.group.is_finite and k.group.order() <= 64)
        with mock.patch.object(angk0.classify, "object_for_element",
                               side_effect=object_for_element) as realize:
            report = verify_correspondence(k)
        by_row = {}
        for entry in report.entries:
            for row, g in zip(entry.subgroup.preimage.basis, entry.generators, strict=True):
                assert by_row.setdefault(row, g) is g
        assert realize.call_count == len(by_row)
        for row, g in by_row.items():
            x = k.group.element(row)
            obj = object_for_element(k, x)
            assert g == GeneratorRealization(x.vec, obj, equal_classes(k.relation_lattice, obj, x.vec))
            assert g.realizes

    def test_elementary_abelian_rank_6(self):
        # (Z/2)^6 lists 16,950 generators over its 2825 subgroups, on 69
        # distinct rows: the 63 nonzero 0/1 vectors and the six 2 e_i
        report = verify_correspondence(k0(make(3, 6)))
        assert report.subgroup_count == 2825 and report.all_verified
        assert sum(len(e.generators) for e in report.entries) == 16950
        assert len({id(g) for e in report.entries for g in e.generators}) == 69


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


def perfbench_oracle(monkeypatch):
    """perfbench/oracle.py, which imports its sibling corpus.py."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_oracle", perfbench / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClosedFormCounts:
    """Subgroup counts of the enumeration against closed forms, independent
    of the subset oracle in support.py."""

    @pytest.mark.parametrize("factors, count", [
        ((2,) * 6, 2825), ((2,) * 7, 29212), ((3,) * 4, 212), ((4,) * 3, 129),
        ((3, 9, 27), 202), ((2, 4, 8, 16), 2821)])
    def test_enumeration_counts(self, monkeypatch, factors, count):
        # Birkhoff's counts, as perfbench's oracle computes them; counts
        # only, no timing
        assert perfbench_oracle(monkeypatch).subgroup_count(factors) == count
        r = len(factors)
        rows = [[d * (i == j) for j in range(r)] for i, d in enumerate(factors)]
        assert len(enumerate_subgroups(FgAbelianGroup(Lattice(r, rows)))) == count

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
