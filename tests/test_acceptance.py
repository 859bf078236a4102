"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

from angk0.cli import main
from angk0.k0 import (
    NotFound,
    Witness,
    class_of,
    equal_classes,
    euler_vector,
    k0,
    object_for_element,
    relation_lattice,
    witness_search,
)
from angk0.lattices import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    determinant,
    enumerate_subgroups,
    hermite_normal_form,
    smith_normal_form,
)
from angk0.presentations import (
    add_objects,
    rotate_angle,
    suspend_object,
    trivial_angle,
    zero_object,
)
from angk0.tensor import enumerate_ideals, ring, tensor_int_vectors, verify_tensor_correspondence
from angk0.classify import verify_correspondence
from angk0.embeddings import Embedding, check_surjective, induced_hom
from angk0.presentations import Angle, Presentation, Suspension, basis_object
from support import (
    WITNESS_DRAWS,
    count_cosets_exhaustive,
    invariant_factors_by_minors,
    object_vectors_by_filter,
    random_object,
    random_paired_presentation,
    random_presentation,
    random_valid_tensor,
    subgroup_count_by_subsets,
)

G1_DOC = {
    "n": 3,
    "indecomposables": ["a", "b", "c"],
    "suspension": {"a": "a", "b": "b", "c": "c"},
    "angles": [[{"a": 1}, {"b": 1}, {"c": 1}]],
}

G2_DOC = {
    "n": 3,
    "indecomposables": ["x"],
    "suspension": {"x": "x"},
    "angles": [],
}

F2_DOC = {
    "n": 3,
    "indecomposables": ["x"],
    "suspension": {"x": "x"},
    "angles": [],
    "tensor": {"unit": {"x": 1}, "table": {"x|x": {"x": 1}}},
}


def make(n, rank, images=None, angles=()):
    return Presentation(
        n=n,
        indec_names=tuple("abcdef"[:rank]),
        suspension=Suspension(tuple(images if images is not None else range(rank))),
        angles=angles,
    )


G1 = make(3, 3, angles=(Angle((basis_object(3, 0), basis_object(3, 1), basis_object(3, 2))),))
G2 = make(3, 1)


def sampled_presentations():
    rng = random.Random(2024)
    return [random_presentation(rng) for _ in range(100)]


def paired_presentations():
    rng = random.Random(2025)
    return [random_paired_presentation(rng) for _ in range(100)]


def run_cli_json(args, capsys):
    code = main(args + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_golden_g1(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(G1_DOC), encoding="utf-8")
    code, doc = run_cli_json(["k0", str(path)], capsys)
    assert code == 0
    assert doc["results"]["invariant_factors"] == [2, 2]
    assert doc["results"]["free_rank"] == 0
    # independent oracle: invariant factors from determinantal divisors of
    # the relation span, and an exhaustive coset count
    rows = [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, -1, 1]]
    oracle = [f for f in invariant_factors_by_minors(rows) if f > 1]
    assert oracle == [2, 2]
    assert count_cosets_exhaustive(rows, (2, 2, 2)) == 4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: G1 invariant factors [2,2], free rank 0 ({elapsed:.3f}s)")


def test_criterion_2_classification_round_trip_g1(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(G1_DOC), encoding="utf-8")
    code, doc = run_cli_json(["classify", str(path)], capsys)
    assert code == 0
    assert doc["results"]["subgroup_count"] == 5
    assert doc["results"]["distinct_lattices"] == 5
    assert doc["results"]["all_verified"]
    for entry in doc["results"]["subgroups"]:
        assert entry["dense"]["status"] == "holds"
        assert entry["complete"]["status"] == "holds"
        assert entry["round_trip"] is True
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: G1 classification, 5 subgroups round-trip ({elapsed:.3f}s)")


def test_criterion_3_golden_g2(tmp_path, capsys):
    start = time.monotonic()
    k = k0(G2)
    assert k.group.invariant_factors == (2,)
    assert k.group.free_rank == 0
    report = verify_correspondence(k)
    assert report.subgroup_count == 2
    assert report.all_verified
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: G2 is Z/2 with 2 subgroups round-tripping ({elapsed:.3f}s)")


def test_criterion_4_elementary_properties():
    start = time.monotonic()
    rng = random.Random(4)
    presentations = sampled_presentations()
    assert len(presentations) == 100
    for p in presentations + paired_presentations():
        k = k0(p)
        assert class_of(k, zero_object(p.rank)).is_zero
        for _ in range(5):
            v = random_object(rng, p.rank)
            w = random_object(rng, p.rank)
            assert class_of(k, add_objects(v, w)) == class_of(k, v) + class_of(k, w)
            s = class_of(k, suspend_object(p, v))
            assert s == (class_of(k, v) if p.n % 2 == 0 else -class_of(k, v))
        if p.n % 2:
            for _ in range(20):
                x = k.element([rng.randint(-5, 5) for _ in range(p.rank)])
                obj = object_for_element(k, x)
                assert class_of(k, obj) == x
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: elementary properties on 100 + 100 paired presentations "
          f"({elapsed:.3f}s)")


def test_criterion_5_rotation_closure():
    start = time.monotonic()
    failures = 0
    for p in sampled_presentations() + paired_presentations():
        lat = relation_lattice(p)
        for a in p.angles:
            angle = a
            for _ in range(p.n):
                if euler_vector(p, angle) not in lat:
                    failures += 1
                angle = rotate_angle(p, angle)
    assert failures == 0
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 5 PASS: rotation closure on 100 + 100 paired presentations "
          f"({elapsed:.3f}s)")


def _two_term_sums(p, bound=2):
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


def test_criterion_6_witness_soundness_and_desk_completeness():
    start = time.monotonic()
    rng = random.Random(6)
    for draw in WITNESS_DRAWS:
        found = 0
        while found < 50:
            p = draw(rng, n=rng.choice([3, 5]))
            k = k0(p)
            buckets = [
                (tail, sorted(heads))
                for tail, heads in sorted(_two_term_sums(p).items())
                if len(heads) >= 2
            ]
            if not buckets:
                continue
            tail, heads = buckets[rng.randrange(len(buckets))]
            a, b = rng.sample(heads, 2)
            assert equal_classes(k.relation_lattice, a, b)
            outcome = witness_search(p, a, b)
            assert isinstance(outcome, Witness)
            found += 1

        unequal = 0
        while unequal < 50:
            p = draw(rng)
            k = k0(p)
            a = random_object(rng, p.rank, max_mult=2)
            b = random_object(rng, p.rank, max_mult=2)
            if equal_classes(k.relation_lattice, a, b):
                continue
            outcome = witness_search(p, a, b)
            assert isinstance(outcome, NotFound)
            unequal += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: 50 witnesses found, 50 unequal pairs NotFound per draw "
          f"({elapsed:.3f}s)")


def test_criterion_7_tensor_suite(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(F2_DOC), encoding="utf-8")
    code, doc = run_cli_json(["ring", str(path)], capsys)
    assert code == 0
    assert doc["results"]["ideal_count"] == 2
    assert doc["results"]["all_verified"]
    flags = {i["order"]: i["prime"] for i in doc["results"]["ideals"]}
    assert flags == {1: True, 2: True}

    from angk0.tensor import TensorPresentation

    componentwise = TensorPresentation(
        make(3, 2), {(0, 0): (1, 0), (0, 1): (0, 0), (1, 1): (0, 1)}, (1, 1)
    )
    r = ring(componentwise)
    ideals = enumerate_ideals(r)
    assert len(ideals) == 4
    zero_ideal = next(i for i in ideals if i.subgroup.order() == 1)
    assert not zero_ideal.prime
    assert verify_tensor_correspondence(componentwise).all_verified
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 7 PASS: F2 field with 2 ideals; componentwise ring 4 ideals, 0 not prime ({elapsed:.3f}s)")


def test_criterion_8_ring_well_definedness():
    start = time.monotonic()
    rng = random.Random(8)
    checked = 0
    while checked < 20:
        t = random_valid_tensor(rng)
        rel = relation_lattice(t.base)
        if not rel.basis:
            continue
        k = k0(t.base)
        for _ in range(10):
            v = random_object(rng, t.base.rank)
            w = random_object(rng, t.base.rank)
            baseline = k.group.element(tensor_int_vectors(t, v, w))
            row = rel.basis[rng.randrange(len(rel.basis))]
            coeff = rng.randint(-2, 2)
            shifted = tuple(a + coeff * b for a, b in zip(w, row))
            assert k.group.element(tensor_int_vectors(t, v, shifted)) == baseline
        checked += 1
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 8 PASS: lift-shift invariance on 20 tensor presentations ({elapsed:.3f}s)")


def test_criterion_9_cluster_hom_suite():
    start = time.monotonic()
    t_swap = Presentation(
        n=3, indec_names=("p", "q"), suspension=Suspension((1, 0))
    )
    identity = Embedding(domain=t_swap, target=t_swap, images=(0, 1))
    hom = induced_hom(identity)
    assert hom.matrix == IntMatrix.identity(2)
    assert check_surjective(identity)

    c_single = Presentation(n=4, indec_names=("c",), suspension=Suspension((0,)))
    synthetic = Embedding(domain=c_single, target=t_swap, images=(0,))
    kt = k0(t_swap)
    assert kt.group.free_rank == 1 and kt.group.invariant_factors == ()
    assert check_surjective(synthetic)

    t_three = Presentation(
        n=3, indec_names=("p", "q", "s"), suspension=Suspension((1, 0, 2))
    )
    unreachable = Embedding(domain=c_single, target=t_three, images=(0,))
    assert not check_surjective(unreachable)
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 9 PASS: identity/synthetic surjective, unreachable not ({elapsed:.3f}s)")


def test_criterion_10_lattice_core_oracles():
    start = time.monotonic()
    rng = random.Random(10)
    for _ in range(1000):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
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
        assert [x for x in diag if x] == invariant_factors_by_minors(entries)
        h, uh = hermite_normal_form(m)
        assert uh @ m == h
        assert abs(determinant(uh)) == 1

    # subgroup counts vs the exhaustive closed-subset oracle, all abelian
    # groups of order <= 16
    group_lattices = [
        Lattice(1, [(1,)]),
        Lattice(1, [(2,)]),
        Lattice(1, [(3,)]),
        Lattice(1, [(4,)]),
        Lattice(2, [(2, 0), (0, 2)]),
        Lattice(1, [(5,)]),
        Lattice(1, [(6,)]),
        Lattice(1, [(7,)]),
        Lattice(1, [(8,)]),
        Lattice(2, [(2, 0), (0, 4)]),
        Lattice(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
        Lattice(1, [(9,)]),
        Lattice(2, [(3, 0), (0, 3)]),
        Lattice(1, [(10,)]),
        Lattice(1, [(11,)]),
        Lattice(1, [(12,)]),
        Lattice(2, [(2, 0), (0, 6)]),
        Lattice(1, [(13,)]),
        Lattice(1, [(14,)]),
        Lattice(1, [(15,)]),
        Lattice(1, [(16,)]),
        Lattice(2, [(2, 0), (0, 8)]),
        Lattice(2, [(4, 0), (0, 4)]),
        Lattice(3, [(2, 0, 0), (0, 2, 0), (0, 0, 4)]),
        Lattice(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
        Lattice(2, [(2, 1), (0, 6)]),  # nondiagonal presentation of Z/12
    ]
    for lat in group_lattices:
        g = FgAbelianGroup(lat)
        assert g.order() <= 16
        assert len(enumerate_subgroups(g)) == subgroup_count_by_subsets(g)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 10 PASS: 1000 normal-form cases + subgroup counts to order 16 ({elapsed:.3f}s)")


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(G1_DOC), encoding="utf-8")
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ, ANGK0_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "angk0", "classify", str(path), "--json"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 11 PASS: byte-identical classify reports across thread caps ({elapsed:.3f}s)")
