import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from angk0 import cli, files
from angk0.classify import CorrespondenceReport
from angk0.cli import build_parser, main
from angk0.k0 import relation_rows, sum_of_terms, witness_search
from angk0.lattices import FgAbelianGroup
from angk0.tensor import TensorCorrespondenceReport

G1 = {
    "n": 3,
    "indecomposables": ["a", "b", "c"],
    "suspension": {"a": "a", "b": "b", "c": "c"},
    "angles": [[{"a": 1}, {"b": 1}, {"c": 1}]],
}

F2 = {
    "n": 3,
    "indecomposables": ["x"],
    "suspension": {"x": "x"},
    "angles": [],
    "tensor": {"unit": {"x": 1}, "table": {"x|x": {"x": 1}}},
}

T_SWAP = {
    "n": 3,
    "indecomposables": ["p", "q"],
    "suspension": {"p": "q", "q": "p"},
    "angles": [],
}

C_SINGLE = {
    "n": 4,
    "indecomposables": ["c"],
    "suspension": {"c": "c"},
    "angles": [],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def literal(names, vec):
    return json.dumps({x: v for x, v in zip(names, vec) if v})


def run_json(args, capsys):
    code = main(args + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidate:
    def test_valid(self, tmp_path, capsys):
        code, doc = run_json(["validate", write(tmp_path, "g1.json", G1)], capsys)
        assert code == 0
        assert doc["results"]["valid"]
        assert doc["results"]["parity"] == "odd"
        assert doc["schema_version"] == 1

    def test_arity_violation(self, tmp_path, capsys):
        bad = dict(G1, n=2)
        code, doc = run_json(["validate", write(tmp_path, "bad.json", bad)], capsys)
        assert code == 2
        assert any("n must be >= 3" in v for v in doc["results"]["violations"])

    def test_pipe_in_name(self, tmp_path, capsys):
        bad = dict(F2, indecomposables=["a|x"], suspension={"a|x": "a|x"}, tensor=None)
        code, doc = run_json(["validate", write(tmp_path, "pipe.json", bad)], capsys)
        assert code == 2
        assert any("must not contain '|'" in v for v in doc["results"]["violations"])

    def test_malformed(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()

    def test_tensor_violation(self, tmp_path, capsys):
        bad = dict(F2, tensor={"unit": {"x": 1}, "table": {"x|x": {"x": 2}}})
        code, doc = run_json(["validate", write(tmp_path, "t.json", bad)], capsys)
        assert code == 2
        assert any("unit" in v for v in doc["results"]["violations"])


class TestK0:
    def test_g1(self, tmp_path, capsys):
        code, doc = run_json(["k0", write(tmp_path, "g1.json", G1)], capsys)
        assert code == 0
        assert doc["results"]["invariant_factors"] == [2, 2]
        assert doc["results"]["free_rank"] == 0

    def test_free(self, tmp_path, capsys):
        free = {
            "n": 4,
            "indecomposables": ["x"],
            "suspension": {"x": "x"},
            "angles": [],
        }
        code, doc = run_json(["k0", write(tmp_path, "free.json", free)], capsys)
        assert code == 0
        assert doc["results"]["invariant_factors"] == []
        assert doc["results"]["free_rank"] == 1

    def test_empty_category(self, tmp_path, capsys):
        empty = {"n": 3, "indecomposables": [], "suspension": {}, "angles": []}
        code, doc = run_json(["k0", write(tmp_path, "empty.json", empty)], capsys)
        assert code == 0
        assert doc["results"]["invariant_factors"] == []
        assert doc["results"]["free_rank"] == 0
        assert doc["results"]["order"] == 1


class TestClassify:
    def test_g1(self, tmp_path, capsys):
        code, doc = run_json(["classify", write(tmp_path, "g1.json", G1)], capsys)
        assert code == 0
        assert doc["results"]["subgroup_count"] == 5
        assert doc["results"]["all_verified"]
        assert doc["results"]["distinct_lattices"] == 5

    def test_even_n(self, tmp_path, capsys):
        code, doc = run_json(["classify", write(tmp_path, "c.json", C_SINGLE)], capsys)
        assert code == 3
        assert doc["results"]["reason"] == "EvenNUnsupported"

    def test_infinite(self, tmp_path, capsys):
        free = {
            "n": 3,
            "indecomposables": ["p", "q"],
            "suspension": {"p": "q", "q": "p"},
            "angles": [],
        }
        code, doc = run_json(["classify", write(tmp_path, "f.json", free)], capsys)
        assert code == 3
        assert doc["results"]["reason"] == "InfiniteGroup"

    def test_order_bound(self, tmp_path, capsys):
        code, doc = run_json(
            ["classify", write(tmp_path, "g1.json", G1), "--max-order", "2"], capsys
        )
        assert code == 3
        assert doc["results"]["reason"].startswith("OrderBound")


class TestRing:
    def test_f2(self, tmp_path, capsys):
        code, doc = run_json(["ring", write(tmp_path, "f2.json", F2)], capsys)
        assert code == 0
        assert doc["results"]["ideal_count"] == 2
        assert doc["results"]["all_verified"]
        assert doc["results"]["structure_constants"] == {"x|x": [1]}

    def test_missing_tensor_block(self, tmp_path, capsys):
        code, doc = run_json(["ring", write(tmp_path, "g1.json", G1)], capsys)
        assert code == 2
        assert "missing tensor block" in doc["results"]["violations"]

    def test_even_n_refused(self, tmp_path, capsys):
        even = {
            "n": 4,
            "indecomposables": ["x"],
            "suspension": {"x": "x"},
            "angles": [],
            "tensor": {"unit": {"x": 1}, "table": {"x|x": {"x": 1}}},
        }
        code, doc = run_json(["ring", write(tmp_path, "even.json", even)], capsys)
        assert code == 3
        assert doc["results"]["reason"] == "EvenNUnsupported"

    def test_infinite_refused(self, tmp_path, capsys):
        graded = {
            "n": 3,
            "indecomposables": ["a", "b"],
            "suspension": {"a": "b", "b": "a"},
            "angles": [],
            "tensor": {
                "unit": {"a": 1},
                "table": {"a|a": {"a": 1}, "a|b": {"b": 1}, "b|b": {"a": 1}},
            },
        }
        code, doc = run_json(["ring", write(tmp_path, "inf.json", graded)], capsys)
        assert code == 3
        assert doc["results"]["reason"] == "InfiniteGroup"

    def test_invalid_table_names_axiom(self, tmp_path, capsys):
        bad = {
            "n": 3,
            "indecomposables": ["a", "b"],
            "suspension": {"a": "a", "b": "b"},
            "angles": [[{"a": 1}, {}, {}]],
            "tensor": {
                "unit": {"a": 1},
                "table": {"a|a": {"a": 1}, "a|b": {"b": 1}, "b|b": {"a": 1}},
            },
        }
        code, doc = run_json(["ring", write(tmp_path, "bad.json", bad)], capsys)
        assert code == 2
        assert any(
            v.startswith("angle-compatibility") for v in doc["results"]["violations"]
        )


class TestHom:
    def test_identity(self, tmp_path, capsys):
        t = write(tmp_path, "t.json", T_SWAP)
        m = tmp_path / "map.json"
        m.write_text(json.dumps({"p": "p", "q": "q"}), encoding="utf-8")
        code, doc = run_json(["hom", t, t, str(m)], capsys)
        assert code == 0
        assert doc["results"]["well_defined"]
        assert doc["results"]["surjective"]

    def test_synthetic(self, tmp_path, capsys):
        t = write(tmp_path, "t.json", T_SWAP)
        c = write(tmp_path, "c.json", C_SINGLE)
        m = tmp_path / "map.json"
        m.write_text(json.dumps({"c": "p"}), encoding="utf-8")
        code, doc = run_json(["hom", t, c, str(m)], capsys)
        assert code == 0
        assert doc["results"]["well_defined"]
        assert doc["results"]["surjective"]

    def test_unreachable_not_surjective(self, tmp_path, capsys):
        t3 = {
            "n": 3,
            "indecomposables": ["p", "q", "s"],
            "suspension": {"p": "q", "q": "p", "s": "s"},
            "angles": [],
        }
        t = write(tmp_path, "t.json", t3)
        c = write(tmp_path, "c.json", C_SINGLE)
        m = tmp_path / "map.json"
        m.write_text(json.dumps({"c": "p"}), encoding="utf-8")
        code, doc = run_json(["hom", t, c, str(m)], capsys)
        assert code == 0  # a verdict, not an error
        assert doc["results"]["well_defined"]
        assert not doc["results"]["surjective"]

    def test_not_well_defined(self, tmp_path, capsys):
        c_bad = dict(C_SINGLE, angles=[[{"c": 1}, {"c": 2}, {}, {"c": 1}]])
        t = write(tmp_path, "t.json", T_SWAP)
        c = write(tmp_path, "c.json", c_bad)
        m = tmp_path / "map.json"
        m.write_text(json.dumps({"c": "p"}), encoding="utf-8")
        code, doc = run_json(["hom", t, c, str(m)], capsys)
        assert code == 3
        assert not doc["results"]["well_defined"]
        assert doc["results"]["witness"] == [-2]

    def test_invalid_embedding(self, tmp_path, capsys):
        t = write(tmp_path, "t.json", T_SWAP)
        c = write(tmp_path, "c.json", C_SINGLE)
        m = tmp_path / "map.json"
        m.write_text(json.dumps({"c": "zz"}), encoding="utf-8")
        code, doc = run_json(["hom", t, c, str(m)], capsys)
        assert code == 2

    def test_huge_domain_arity_matches_its_residue(self, tmp_path, capsys):
        # (n - 2) = 10**12 is even, so the identity domain suspension
        # intertwines with the target swap exactly as at n = 4.
        t = write(tmp_path, "t3.json", dict(T_SWAP, indecomposables=["p", "q", "s"],
                                            suspension={"p": "q", "q": "p", "s": "s"}))
        m = tmp_path / "map.json"
        m.write_text(json.dumps({"c": "p"}), encoding="utf-8")
        runs = []
        for n in (4, 10**12 + 2):
            c = write(tmp_path, f"c{n}.json", dict(C_SINGLE, n=n))
            start = time.perf_counter()
            code, doc = run_json(["hom", t, c, str(m)], capsys)
            runs.append((code, doc["results"], time.perf_counter() - start))
        assert runs[1][2] < 1.0
        assert runs[0][:2] == runs[1][:2]
        code, results, _ = runs[1]
        assert code == 0 and results["well_defined"] and not results["surjective"]


class TestWitness:
    def test_self(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2)
        code, doc = run_json(
            ["witness", path, "--left", '{"x": 1}', "--right", '{"x": 1}'], capsys
        )
        assert code == 0
        assert doc["results"]["equal"]
        assert doc["results"]["witness"] is not None

    def test_found(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2)
        code, doc = run_json(
            ["witness", path, "--left", '{"x": 1}', "--right", '{"x": 3}', "--bound", "2"],
            capsys,
        )
        assert code == 0
        assert doc["results"]["equal"]
        assert doc["results"]["witness"] is not None

    def test_unequal_skips_search(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", C_SINGLE)
        code, doc = run_json(
            ["witness", path, "--left", '{"c": 1}', "--right", '{"c": 2}'], capsys
        )
        assert code == 0
        assert not doc["results"]["equal"]
        assert doc["results"]["searched"] is False

    def test_unknown_name(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2)
        code = main(["witness", path, "--left", '{"zz": 1}', "--right", "{}"])
        capsys.readouterr()
        assert code == 2

    def test_huge_bound_builds_the_same_witness(self, tmp_path, capsys, monkeypatch):
        # --bound is validated and echoed; the witness comes from one solve
        path = write(tmp_path, "f2.json", F2)
        args = ["witness", path, "--left", '{"x": 1}', "--right", '{"x": 3}']
        _, small = run_json(args + ["--bound", "2"], capsys)
        searches = count_calls(monkeypatch, "cli", "witness_search")
        start = time.perf_counter()
        code, doc = run_json(args + ["--bound", "1000000000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, doc["results"]["bound"], len(searches)) == (0, 1000000000, 1)
        assert doc["results"]["witness"] == small["results"]["witness"] is not None

    @pytest.mark.parametrize(
        "doc, left, right",
        [(F2, '{"x": 1}', '{"x": 1}'), (C_SINGLE, '{"c": 1}', '{"c": 2}')],
        ids=["same-object", "unequal"],
    )
    def test_huge_bound_without_search_runs(self, tmp_path, capsys, doc, left, right):
        # equal objects take the self-witness and unequal classes build none
        path = write(tmp_path, "doc.json", doc)
        code, _ = run_json(
            ["witness", path, "--left", left, "--right", right, "--bound", "1000000000"],
            capsys,
        )
        assert code == 0

    def test_oversized_witness_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # 750,000 copies of the suspension row 2x, priced before any is listed
        path = write(tmp_path, "f2.json", F2)
        built = count_calls(monkeypatch, "k0", "_built_witness")
        start = time.perf_counter()
        code, doc = run_json(
            ["witness", path, "--left", '{"x": 1}', "--right", '{"x": 1500001}'], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert doc["results"]["reason"].startswith("WitnessBound: ")
        assert built == []

    @pytest.mark.parametrize("rank, n, angles", [(6, 5, 3), (16, 5, 6)], ids=["r6", "r16"])
    def test_growth(self, tmp_path, capsys, rank, n, angles):
        # r = 6, n = 5 at bound 3 was refused before the search (C(418, 3)
        # angle sums at the least); an equal pair at r = 16 is one solve too
        rng = random.Random(rank)
        names = [f"s{j}" for j in range(rank)]
        images = names[1:] + names[:1]
        doc = {
            "n": n,
            "indecomposables": names,
            "suspension": dict(zip(names, images)),
            "angles": [[{x: v for x in names if (v := rng.randint(0, 2))} for _ in range(n)]
                       for _ in range(angles)],
        }
        loaded = files.load_path(write(tmp_path, "p.json", doc))
        p = loaded.presentation
        rows = relation_rows(p)
        c = [rng.randint(-2, 2) for _ in rows]
        diff = [sum(x * row[j] for x, row in zip(c, rows)) for j in range(rank)]
        right = [max(0, -x) for x in diff]
        left = [x + y for x, y in zip(right, diff)]
        start = time.perf_counter()
        code, report = run_json(
            ["witness", write(tmp_path, "p.json", doc), "--left", literal(names, left),
             "--right", literal(names, right), "--bound", "3"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, report["results"]["equal"]) == (0, True)
        w = witness_search(p, left, right)
        assert len(report["results"]["witness"]["left_terms"]) == len(w.left_terms)
        sums = [sum_of_terms(p, terms).vertices for terms in (w.left_terms, w.right_terms)]
        c1 = w.complements[0]
        assert sums[0] == (tuple(x + y for x, y in zip(left, c1)),) + w.complements[1:]
        assert sums[1] == (tuple(x + y for x, y in zip(right, c1)),) + w.complements[1:]

    @pytest.mark.parametrize(
        "doc, left, right",
        [(F2, '{"x": 1}', '{"x": 3}'), (C_SINGLE, '{"c": 1}', '{"c": 2}')],
        ids=["equal", "unequal"],
    )
    @pytest.mark.parametrize("output", ["--text", "--json"])
    def test_negative_bound_refused(self, tmp_path, capsys, doc, left, right, output):
        path = write(tmp_path, "doc.json", doc)
        code = main(["witness", path, "--left", left, "--right", right, "--bound", "-1", output])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: --bound must be nonnegative\n")


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to angk0.<module>.<name>, through
    every module attribute that is bound to it."""
    original = getattr(sys.modules[f"angk0.{module}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "angk0" or key.startswith("angk0."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestCallCounts:
    def test_ring_validates_once_and_builds_k0_once(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "comp.json", COMPONENTWISE)
        validations = count_calls(monkeypatch, "tensor", "validate_tensor")
        k0_calls = count_calls(monkeypatch, "k0", "k0")
        assert main(["ring", path, "--json"]) == 0
        capsys.readouterr()
        assert (len(validations), len(k0_calls)) == (1, 1)

    def test_classify_builds_k0_and_relations_once(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "g1.json", G1)
        k0_calls = count_calls(monkeypatch, "k0", "k0")
        lattices = count_calls(monkeypatch, "k0", "relation_lattice")
        assert main(["classify", path, "--json"]) == 0
        capsys.readouterr()
        assert (len(k0_calls), len(lattices)) == (1, 1)

    def test_ring_builds_relations_once(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "comp.json", COMPONENTWISE)
        lattices = count_calls(monkeypatch, "k0", "relation_lattice")
        assert main(["ring", path, "--json"]) == 0
        capsys.readouterr()
        assert len(lattices) == 1

    def test_witness_builds_relations_only(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "f2.json", F2)
        lattices = count_calls(monkeypatch, "k0", "relation_lattice")
        groups = []
        original = FgAbelianGroup.__init__
        monkeypatch.setattr(FgAbelianGroup, "__init__",
                            lambda self, rel: groups.append(rel) or original(self, rel))
        assert main(["witness", path, "--left", '{"x": 1}', "--right", '{"x": 3}', "--json"]) == 0
        capsys.readouterr()
        assert (len(lattices), groups) == (1, [])

    def test_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "g1.json", G1)
        built = []
        original = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or original(self, *a, **kw))
        for args in (["k0", path], ["classify", path, "--json"], ["k0", path, "--json"]):
            assert main(args) == 0
        capsys.readouterr()
        assert built == []

    def test_hom_builds_target_relations_once(self, tmp_path, capsys, monkeypatch):
        t = write(tmp_path, "t.json", T_SWAP)
        c = write(tmp_path, "c.json", C_SINGLE)
        m = write(tmp_path, "map.json", {"c": "p"})
        lattices = count_calls(monkeypatch, "k0", "relation_lattice")
        assert main(["hom", t, c, m, "--json"]) == 0
        capsys.readouterr()
        built = [p.indec_names for (p,) in lattices]
        assert built.count(("p", "q")) == 1

    def test_no_command_serializes(self, tmp_path, capsys, monkeypatch):
        # digests hash the decoded document; serialize is the library's round trip
        g1, f2 = write(tmp_path, "g1.json", G1), write(tmp_path, "f2.json", F2)
        comp = write(tmp_path, "comp.json", COMPONENTWISE)
        t, c = write(tmp_path, "t.json", T_SWAP), write(tmp_path, "c.json", C_SINGLE)
        m = write(tmp_path, "map.json", {"c": "p"})
        calls = count_calls(monkeypatch, "files", "serialize")
        for args in (["validate", comp], ["k0", g1], ["classify", g1], ["ring", comp],
                     ["witness", f2, "--left", '{"x": 1}', "--right", '{"x": 3}'],
                     ["hom", t, c, m]):
            for output in ("--text", "--json"):
                assert main(args + [output]) == 0
                capsys.readouterr()
        assert calls == []

    def test_k0_and_ring_run_one_smith_form(self, tmp_path, capsys, monkeypatch):
        # G1 is Z/2 + Z/2 and the componentwise ring's group too; the text
        # and JSON reports share one Smith form.
        g1 = write(tmp_path, "g1.json", G1)
        comp = write(tmp_path, "comp.json", COMPONENTWISE)
        calls = count_calls(monkeypatch, "lattices", "_smith_diagonal")
        for command, path in (("k0", g1), ("ring", comp)):
            for output in ("--text", "--json"):
                before = len(calls)
                assert main([command, path, output]) == 0
                capsys.readouterr()
                assert len(calls) - before == 1


@pytest.mark.parametrize("command, doc, report_class", [
    ("classify", G1, CorrespondenceReport),
    ("ring", F2, TensorCorrespondenceReport),
])
def test_verdict_is_the_reports(command, doc, report_class, tmp_path, capsys, monkeypatch):
    # The text line, the JSON field and the exit code all follow the
    # report's all_verified, so a failing verdict reaches each of them.
    path = write(tmp_path, "p.json", doc)
    monkeypatch.setattr(report_class, "all_verified", property(lambda self: False))
    assert main([command, path]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "VERIFICATION FAILED"
    code, out = run_json([command, path], capsys)
    assert (code, out["results"]["all_verified"]) == (2, False)


class TestDeterminism:
    def test_byte_identical_across_thread_caps(self, tmp_path):
        path = write(tmp_path, "g1.json", G1)
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, ANGK0_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "angk0", "classify", path, "--json"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_bad_thread_env(self, tmp_path):
        path = write(tmp_path, "g1.json", G1)
        env = dict(os.environ, ANGK0_THREADS="many")
        proc = subprocess.run(
            [sys.executable, "-m", "angk0", "k0", path],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 2

    def test_repeat_runs_identical(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2)
        code1, doc1 = run_json(["ring", path], capsys)
        code2, doc2 = run_json(["ring", path], capsys)
        assert (code1, doc1) == (code2, doc2)

    def test_text_reports_identical_across_thread_caps(self, tmp_path):
        path = write(tmp_path, "g1.json", G1)
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, ANGK0_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "angk0", "classify", path],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


C_NOT_WELL_DEFINED = dict(C_SINGLE, angles=[[{"c": 1}, {"c": 2}, {}, {"c": 1}]])

COMPONENTWISE = {
    "n": 3,
    "indecomposables": ["a", "b"],
    "suspension": {"a": "a", "b": "b"},
    "angles": [],
    "tensor": {
        "unit": {"a": 1, "b": 1},
        "table": {"a|a": {"a": 1}, "a|b": {}, "b|b": {"b": 1}},
    },
}

GOLDEN_FILES = {
    "g1.json": G1,
    "f2.json": F2,
    "t.json": T_SWAP,
    "c.json": C_SINGLE,
    "c_bad.json": C_NOT_WELL_DEFINED,
    "t3.json": dict(T_SWAP, indecomposables=["p", "q", "s"],
                    suspension={"p": "q", "q": "p", "s": "s"}),
    "arity.json": dict(G1, n=2),
    "unknown.json": dict(G1, angles=[[{"zz": 1}, {}, {}]]),
    "broken.json": "{",
    "comp.json": COMPONENTWISE,
    "bad_table.json": dict(
        COMPONENTWISE,
        angles=[[{"a": 1}, {}, {}]],
        tensor={"unit": {"a": 1},
                "table": {"a|a": {"a": 1}, "a|b": {"b": 1}, "b|b": {"a": 1}}},
    ),
    "even_ring.json": dict(F2, n=4),
    "even_bad_table.json": dict(
        F2, n=4, tensor={"unit": {"x": 1}, "table": {"x|x": {"x": 2}}}
    ),
    "graded.json": dict(
        T_SWAP,
        tensor={"unit": {"p": 1},
                "table": {"p|p": {"p": 1}, "p|q": {"q": 1}, "q|q": {"p": 1}}},
    ),
    "id.map": {"p": "p", "q": "q"},
    "c_p.map": {"c": "p"},
    "c_zz.map": {"c": "zz"},
    "broken.map": "{",
    "list.map": ["c"],
    "latin1.json": '{"n": 3, "indecomposables": ["\xe9"]}'.encode("latin-1"),
    "latin1.map": '{"c": "\xe9"}'.encode("latin-1"),
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "deep.map": "{\"c\": " * 100_000 + "0" + "}" * 100_000,
    "long_int.json": '{"n": ' + "3" * 5001 + ', "indecomposables": ["x"]}',
    "long_int.map": '{"c": ' + "1" * 5001 + "}",
    "f2_wide.json": dict(F2, n=750_001),
    "non_bijective.json": {"n": 3, "indecomposables": ["a", "b"],
                           "suspension": {"a": "a", "b": "a"}},
}

# One run per report branch of every command.
GOLDEN_RUNS = {
    "validate-valid": ["validate", "g1.json"],
    "validate-invalid": ["validate", "arity.json"],
    "validate-parse-error": ["validate", "broken.json"],
    "k0": ["k0", "g1.json"],
    "k0-invalid-file": ["k0", "unknown.json"],
    "k0-invalid-presentation": ["k0", "arity.json"],
    "classify-ok": ["classify", "g1.json"],
    "classify-even-n": ["classify", "c.json"],
    "classify-infinite": ["classify", "t.json"],
    "classify-order-bound": ["classify", "g1.json", "--max-order", "2"],
    "ring-ok": ["ring", "comp.json"],
    "ring-field": ["ring", "f2.json"],
    "ring-missing-block": ["ring", "g1.json"],
    "ring-invalid-table": ["ring", "bad_table.json"],
    "ring-even-n": ["ring", "even_ring.json"],
    "ring-even-n-invalid-table": ["ring", "even_bad_table.json"],
    "ring-infinite": ["ring", "graded.json"],
    "hom-ok": ["hom", "t.json", "t.json", "id.map"],
    "hom-not-surjective": ["hom", "t3.json", "c.json", "c_p.map"],
    "hom-not-well-defined": ["hom", "t.json", "c_bad.json", "c_p.map"],
    "hom-invalid-embedding": ["hom", "t.json", "c.json", "c_zz.map"],
    "hom-bad-map-json": ["hom", "t.json", "c.json", "broken.map"],
    "hom-bad-map-shape": ["hom", "t.json", "c.json", "list.map"],
    "witness-found": ["witness", "f2.json", "--left", '{"x": 1}', "--right", '{"x": 3}'],
    "witness-not-found": ["witness", "f2.json", "--left", '{"x": 1}', "--right", '{"x": 3}',
                          "--bound", "0"],
    "witness-unequal": ["witness", "c.json", "--left", '{"c": 1}', "--right", '{"c": 2}'],
    "witness-bad-literal": ["witness", "f2.json", "--left", '{"zz": 1}', "--right", "{}"],
    "witness-bound": ["witness", "f2.json", "--left", '{"x": 1}', "--right", '{"x": 1500001}'],
    "witness-huge-bound": ["witness", "f2.json", "--left", '{"x": 1}', "--right", '{"x": 3}',
                           "--bound", "1000000000"],
    "validate-not-utf8": ["validate", "latin1.json"],
    "validate-too-deep": ["validate", "deep.json"],
    "hom-map-not-utf8": ["hom", "t.json", "c.json", "latin1.map"],
    "hom-map-too-deep": ["hom", "t.json", "c.json", "deep.map"],
    "witness-literal-too-deep": ["witness", "f2.json", "--left", "[" * 100_000 + "]" * 100_000,
                                 "--right", "{}"],
    "validate-long-int": ["validate", "long_int.json"],
    "hom-map-long-int": ["hom", "t.json", "c.json", "long_int.map"],
    "witness-literal-long-int": ["witness", "f2.json", "--left", '{"x": ' + "1" * 5001 + "}",
                                 "--right", "{}"],
    "witness-self-bound": ["witness", "f2_wide.json", "--left", '{"x": 1}', "--right", '{"x": 1}'],
    "validate-non-bijective": ["validate", "non_bijective.json"],
    "k0-non-bijective": ["k0", "non_bijective.json"],
}


def run_golden(case, as_json, tmp_path, monkeypatch, capsys):
    """(sha256 of stdout, stderr, exit code) of one golden run."""
    monkeypatch.chdir(tmp_path)
    for name, doc in GOLDEN_FILES.items():
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
            continue
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp_path / name).write_text(text, encoding="utf-8")
    code = main(GOLDEN_RUNS[case] + (["--json"] if as_json else ["--text"]))
    out, err = capsys.readouterr()
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), err, code


# (sha256 of text stdout, sha256 of --json stdout, stderr, exit code), recorded
# before the runner refactor of the CLI; reports must stay byte-identical.
GOLDEN = {
    "validate-valid": (
        "91362d53545b60240003ca6ec942f054790821f7d6049d70aa3c92c009f84762",
        "1f36ffa646e64a3b12557de0cc1721e6719dd116ac8f4cb8d970d0fc5a3550f5",
        "",
        0,
    ),
    "validate-invalid": (
        "b23e8604bc9b9e4a9f7ecbc5c8292284a4c4614a4dab5de8ac345ff0961c5dbf",
        "de8c0628c2c3751a7374416802034242887d34c2cd1dba70452b3e35d466a1a1",
        "",
        2,
    ),
    "validate-parse-error": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: broken.json: invalid JSON at line 1:"
        " Expecting property name enclosed in double quotes\n",
        1,
    ),
    "k0": (
        "5aba2e2c0e56ddff1a340faf8b7a33fb71c0220b8f0cd1b601990647d52361c6",
        "8ca7d5e142a2bb26e79762f544d54a819dbc66df56863b923ce26725f5d9516f",
        "",
        0,
    ),
    "k0-invalid-file": (
        "a983dfd8529edf2d7c0742e2a3f430eb0295d87ba2d18ad2d8db33ec4d78a4d1",
        "3ea58af8d3e6ad02eeff64d302fc909aa7631d883e898e9a55ffebfe232e060c",
        "",
        2,
    ),
    "k0-invalid-presentation": (
        "7a74a013f012834ab963829a077afc6dc25c2ebc6c0fd23c3729c53575e80b23",
        "fd85a5d7dc5fca4be9af1533a82eb08b9d72c3d6f52acff840476e9cebf02cf2",
        "",
        2,
    ),
    "classify-ok": (
        "17223d64246bf18a21d57901b77ab3ee661203d66f0df05a09388cdd2c34a9d4",
        "e5713c15dbeec0c0cab954a8cc7a04ec66aa55fc2ceb6a6904eada4929a8d8b2",
        "",
        0,
    ),
    "classify-even-n": (
        "82edefe70b8e318cedfe1eec502628014d5dc2d7876bac57102f0b90b72fc9af",
        "f3d43154ed61ff5241ccfc4cf68fe260c0f53b654d8ca0de0e989d42591d4a06",
        "",
        3,
    ),
    "classify-infinite": (
        "3a1b00901365a59cfcf1d6beb5eca8e1ec910953ded89873ddd40a86bbb48a0e",
        "5e01df91623d5b6cef813744351ec50e673d98f78152e0950393d342f2ceced3",
        "",
        3,
    ),
    "classify-order-bound": (
        "be4cb795a01a7a02c16fe59cc2624cdbdd561d92d04ec0efc5d7b7c101f34a3e",
        "0fa78e4ba68fd703c7cd111b1b41b82b9778b2879f99b96b91c54224b2461e99",
        "",
        3,
    ),
    "ring-ok": (
        "efc85e24b208a59baeed1b5bdbc32185952a5edc18b514aa9cfa1e822fe78a0d",
        "9edc70144f25ad85b88bd25dfa32cb63aa6effbafb782cde2943830cfc782921",
        "",
        0,
    ),
    "ring-field": (
        "3e125f99e2e71d81d4269c28a388f3cef1f1f1a95a6183cf65127f3bde669e1a",
        "ba1edfc123a0681dcc1d4d60ed1e32267b091abce46fb456c9e72165a7744c81",
        "",
        0,
    ),
    "ring-missing-block": (
        "3d893892562d773e1e00e9188cce6500204fc091fd037fb005e280715a97e132",
        "5c368bcf3ff5520790abbda841469a2ce3f0361f1bb0cf06359a5ebb52426f13",
        "",
        2,
    ),
    "ring-invalid-table": (
        "7edfe69a16c403a11e19b469c68027025e52c25abc956f2181663fb3b5d18363",
        "1348de748af1848841f0f40cd92acc370ec3af094adc6c74d378a8c795162287",
        "",
        2,
    ),
    "ring-even-n": (
        "82edefe70b8e318cedfe1eec502628014d5dc2d7876bac57102f0b90b72fc9af",
        "f4f4e5d95328ee37caad0ddd502a281e2a0035f00e47098ec1f14682a805badf",
        "",
        3,
    ),
    "ring-even-n-invalid-table": (
        "cd6400e9b17c8db028719591edf03e9d0bf7f1b2a8b3b57cc73abb07d21e7aed",
        "39cbd670f5b14c5687b9c22d7003562356084af867150f5a667ff76425971fca",
        "",
        2,
    ),
    "ring-infinite": (
        "3a1b00901365a59cfcf1d6beb5eca8e1ec910953ded89873ddd40a86bbb48a0e",
        "07d75d0dbce046dca595b6d93f571672114777bf0ef4cee6f2ebc98775fd6088",
        "",
        3,
    ),
    "hom-ok": (
        "b76b0a2afbcf77b9a0347c43e4433c113861f4a101f1e6c56e6fdf81e501fe89",
        "553f629cfa8616816951d7bef634b627f7b0ed321b1414b00341695f1bf178b8",
        "",
        0,
    ),
    "hom-not-surjective": (
        "52b2e247dbb31067986180288242161f2cb8a86084dcf9035bd4e943a3a3d3da",
        "4fe54acb66e9958dcb170c06bb769d5de860fbcc22b6610001d4772a4ff17b0c",
        "",
        0,
    ),
    "hom-not-well-defined": (
        "de22ae332899277faaa876f9890940e72eaffca65a872bbd8824ccf8c4599fd0",
        "e8548e326be98254a107a1932498b161c65893f05a9367976f625bb631764b6c",
        "",
        3,
    ),
    "hom-invalid-embedding": (
        "06235e60e12dee4cb36e96cd5643b7f3bafa0d847d129817f412df0210ffd46a",
        "62b68ae0d14943c7a8b32018e9a8eeab634653e04c07440126418d6f14cb1a00",
        "",
        2,
    ),
    "hom-bad-map-json": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: broken.map: invalid JSON: Expecting property name enclosed in double quotes\n",
        1,
    ),
    "hom-bad-map-shape": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: map file must be a string-to-string object\n",
        1,
    ),
    "witness-found": (
        "a40204e40a73ec1d84f2f8a93facce82628e79328d284b98618d431c7890c225",
        "7fd0a7901a90536ebec5b54b249faf47f0bfc08f66ba82f49db2f22dc5558be7",
        "",
        0,
    ),
    "witness-not-found": (
        "a40204e40a73ec1d84f2f8a93facce82628e79328d284b98618d431c7890c225",
        "ca7b0d8d5f9ad52b6672325fcd75b8109b972c5e169d7526b4d65bd4d96e9a02",
        "",
        0,
    ),
    "witness-unequal": (
        "0dc6488fc42d15f1cc6550ecb90f01be4f046a2381c411c78038f0eb31b58012",
        "9ca69398cd18bb62f273e109ec9a10158cd3a689e5f689f1857e0b7c234b6247",
        "",
        0,
    ),
    "witness-bad-literal": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: unknown symbol 'zz'\n",
        2,
    ),
    "witness-bound": (
        "1160dbb8897ca6aad7ac6a054bced9ca6ffa2d77a26ccc050288b8517752dbd4",
        "fed25903fd997ac3039237c83d5724e7af97ae13d61e0c8759a41fcef87e422f",
        "",
        3,
    ),
    "witness-huge-bound": (
        "a40204e40a73ec1d84f2f8a93facce82628e79328d284b98618d431c7890c225",
        "ddb6c5262314395e265cc782d678b4e95db540740fa0e8882951f57f8bfbcc3c",
        "",
        0,
    ),
    "validate-not-utf8": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: latin1.json: not UTF-8 text (invalid continuation byte)\n",
        1,
    ),
    "validate-too-deep": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: deep.json: JSON nested too deeply\n",
        1,
    ),
    "hom-map-not-utf8": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: latin1.map: not UTF-8 text (invalid continuation byte)\n",
        1,
    ),
    "hom-map-too-deep": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: deep.map: JSON nested too deeply\n",
        1,
    ),
    "witness-literal-too-deep": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: object literal is nested too deeply\n",
        2,
    ),
    "validate-long-int": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: long_int.json: JSON integer longer than 4300 digits\n",
        1,
    ),
    "hom-map-long-int": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: long_int.map: JSON integer longer than 4300 digits\n",
        1,
    ),
    "witness-literal-long-int": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: Exceeds the limit (4300 digits) for integer string conversion: value has 5001"
        " digits; use sys.set_int_max_str_digits() to increase the limit\n",
        2,
    ),
    "witness-self-bound": (
        "2a2ea77baa79005a0c7002ee6d2a880953512e6c9592f31426b11cd3381c6b5d",
        "6828f632876c7ed7a8ae765704767b01e92300965e928a6f27b47bd6bee5d8e4",
        "",
        3,
    ),
    "validate-non-bijective": (
        "4184ba29a45564a3291afadc40549d9fc4e79f6769eae71cfc9906c122be129c",
        "e3a1fefcd6079b8e3de6d22310f798ce7e698b8945b556b060300f3d40ce2d5f",
        "",
        2,
    ),
    "k0-non-bijective": (
        "b4920c152b3e3b25fcdfed4a591bbe2677a8cfb34b821dd1e0c02efb0efc5aac",
        "09da5eb59411f04da971c3da2b93188bb131fa161bbfa6d3f3a63f95f5e231c3",
        "",
        2,
    ),
}


class TestGolden:
    def test_every_branch_is_covered(self):
        assert set(GOLDEN) == set(GOLDEN_RUNS)

    @pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
    def test_byte_identical(self, case, tmp_path, monkeypatch, capsys):
        text_sha, json_sha, stderr, code = GOLDEN[case]
        assert run_golden(case, False, tmp_path, monkeypatch, capsys) == (text_sha, stderr, code)
        assert run_golden(case, True, tmp_path, monkeypatch, capsys) == (json_sha, stderr, code)

    @pytest.mark.parametrize("case", ["classify-ok", "classify-order-bound", "classify-infinite",
                                      "hom-ok", "hom-not-surjective", "hom-not-well-defined"])
    def test_no_smith_form_unless_printed(self, case, tmp_path, monkeypatch, capsys):
        # classify, hom and the classify refusals need the relations and their
        # index only.  g1.json is Z/2 + Z/2 and t3.json is Z + Z/2, so these
        # cases would reach the Smith form if anything asked for the factors.
        def refused(*args, **kwargs):
            raise AssertionError("Smith form computed")

        monkeypatch.setattr("angk0.lattices._smith_diagonal", refused)
        text_sha, json_sha, stderr, code = GOLDEN[case]
        assert run_golden(case, False, tmp_path, monkeypatch, capsys) == (text_sha, stderr, code)
        assert run_golden(case, True, tmp_path, monkeypatch, capsys) == (json_sha, stderr, code)

    @pytest.mark.parametrize("case", [case for case in sorted(GOLDEN_RUNS)
                                      if case.startswith("hom-")])
    def test_hom_validates_the_embedding_once(self, case, tmp_path, monkeypatch, capsys):
        # the other hom goldens stop at the files or the map, before an embedding
        checked = case in ("hom-ok", "hom-not-surjective", "hom-not-well-defined")
        calls = count_calls(monkeypatch, "embeddings", "validate_embedding")
        text_sha, json_sha, stderr, code = GOLDEN[case]
        assert run_golden(case, False, tmp_path, monkeypatch, capsys) == (text_sha, stderr, code)
        assert len(calls) == checked
        assert run_golden(case, True, tmp_path, monkeypatch, capsys) == (json_sha, stderr, code)
        assert len(calls) == 2 * checked

    def test_shuffled_in_one_process(self, tmp_path, monkeypatch, capsys):
        # Every golden run twice per output mode, in one process and in shuffled
        # order, between usage errors and refused thread settings: the one
        # parser this process holds carries nothing from one call to the next.
        monkeypatch.delenv("ANGK0_THREADS", raising=False)
        runs = [(case, as_json) for case in GOLDEN_RUNS for as_json in (False, True)] * 2
        runs += [("usage", None), ("threads", None)] * 6
        random.Random(8).shuffle(runs)
        for case, as_json in runs:
            if case == "usage":
                with pytest.raises(SystemExit) as exc:
                    main(["classify", "g1.json", "--max-order", "many"])
                out, err = capsys.readouterr()
                assert (exc.value.code, out) == (2, "")
                assert err.startswith("usage: angk0 classify")
            elif case == "threads":
                monkeypatch.setenv("ANGK0_THREADS", "many")
                assert main(["k0", "g1.json", "--json"]) == 2
                out, err = capsys.readouterr()
                assert (out, err) == ("", "error: ANGK0_THREADS must be a nonnegative integer\n")
                monkeypatch.delenv("ANGK0_THREADS")
            else:
                text_sha, json_sha, stderr, code = GOLDEN[case]
                expected = (json_sha if as_json else text_sha, stderr, code)
                assert run_golden(case, as_json, tmp_path, monkeypatch, capsys) == expected


class TestOneFormat:
    @pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
    def test_each_mode_builds_one_format(self, case, tmp_path, monkeypatch, capsys):
        # A --json run renders no text view, and a text run writes no JSON;
        # a run that stops with an error on stderr renders neither.
        texts = count_calls(monkeypatch, "cli", "_text_report")
        documents = count_calls(monkeypatch, "files", "report_json")
        views = [count_calls(monkeypatch, "cli", name) for name in list(vars(cli))
                 if name.startswith("_") and name.endswith("_text")]
        text_sha, json_sha, stderr, code = GOLDEN[case]
        printed = int(text_sha != EMPTY_SHA)
        assert run_golden(case, False, tmp_path, monkeypatch, capsys) == (text_sha, stderr, code)
        assert (len(texts), len(documents)) == (printed, 0)
        seen = sum(map(len, views))
        assert run_golden(case, True, tmp_path, monkeypatch, capsys) == (json_sha, stderr, code)
        assert (len(texts), len(documents), sum(map(len, views))) == (printed, printed, seen)


# Malformed command lines: main must exit as the full parser does.
USAGE_ERRORS = [
    [], ["-h"], ["bogus"], ["--json", "k0", "f"],
    ["k0"], ["k0", "-h"],
    ["k0", "f", "extra"], ["k0", "f", "--bogus"], ["k0", "f", "--json", "--text"],
    ["classify", "f", "--max-order", "many"], ["classify", "f", "--max-order=3", "--", "y"],
    ["witness", "f", "--left", "{}"], ["hom", "a"],
]


def parser_exit(argv, capsys):
    """(exit code, stdout, stderr) of the full parser on argv."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


def main_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return (exc.value.code, *capsys.readouterr())


class TestUsage:
    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "empty")
    def test_usage_error_is_the_full_parsers(self, argv, capsys):
        assert main_exit(argv, capsys) == parser_exit(argv, capsys)

    def test_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "g1.json", G1)
        monkeypatch.setattr(sys, "argv", ["angk0", "k0", path, "extra"])
        assert main_exit(None, capsys) == parser_exit(None, capsys)
        monkeypatch.setattr(sys, "argv", ["angk0", "k0", path, "--json"])
        assert main(None) == 0
        via_sys_argv = capsys.readouterr()
        assert main(["k0", path, "--json"]) == 0
        assert capsys.readouterr() == via_sys_argv

    def test_a_call_is_parsed_once_by_its_command(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "f2.json", F2)
        parsed = []
        original = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *a, **kw: parsed.append(self.prog) or original(self, *a, **kw))
        for args in (["k0", path], ["classify", path, "--max-order", "3", "--json"],
                     ["witness", path, "--left", '{"x": 1}', "--right", '{"x": 3}', "--text"]):
            assert main(args) == 0
            capsys.readouterr()
        assert parsed == ["angk0 k0", "angk0 classify", "angk0 witness"]


ERROR_FILES = {
    # symmetric with a unit, but (a (x) b) (x) b = 0 while a (x) (b (x) b) = a
    "assoc.json": dict(
        G1, indecomposables=["u", "a", "b"], suspension={"u": "u", "a": "a", "b": "b"},
        angles=[],
        tensor={"unit": {"u": 1},
                "table": {"u|u": {"u": 1}, "a|u": {"a": 1}, "b|u": {"b": 1},
                          "a|a": {"a": 1}, "a|b": {}, "b|b": {"a": 1}}},
    ),
    # S swaps u and s, but s (x) s = s where S(u (x) s) = u asks for u
    "susp.json": dict(
        G1, indecomposables=["u", "s"], suspension={"u": "s", "s": "u"}, angles=[],
        tensor={"unit": {"u": 1}, "table": {"u|u": {"u": 1}, "s|u": {"s": 1}, "s|s": {"s": 1}}},
    ),
    "susp_unknown.json": dict(G1, indecomposables=["a", "b"],
                              suspension={"a": "zz", "b": "b"}, angles=[]),
    "f2.json": F2,
    "t.json": T_SWAP,
    "c.json": C_SINGLE,
    "c2.json": dict(T_SWAP, indecomposables=["a", "b"], suspension={"a": "a", "b": "b"}),
    "empty.map": {},
    "extra.map": {"c": "p", "zz": "q"},
    "pp.map": {"a": "p", "b": "p"},
}

ASSOC_TEXT = (
    "  - associativity: (a (x) b) (x) b differs from a (x) (b (x) b)\n"
    "  - associativity: (b (x) b) (x) a differs from b (x) (b (x) a)\n"
)
SUSP_TEXT = (
    "  - suspension-compatibility: (S u) (x) s != S(u (x) s)\n"
    "  - suspension-compatibility: (S s) (x) s != S(s (x) s)\n"
    "  - angle-compatibility: s (x) relation row [1, 1] leaves the relation lattice\n"
)
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# args -> (text stdout, sha256 of --json stdout, stderr, exit code); the
# error messages no golden run reaches, recorded before ViolationReport.
ERROR_RUNS = [
    (["validate", "assoc.json"], "invalid:\n" + ASSOC_TEXT,
     "ccd122464d5cdb7376e7482a2bf85f8c04ab17b64f12cd618ecfdc80ff327585", "", 2),
    (["ring", "assoc.json"], "invalid tensor table:\n" + ASSOC_TEXT,
     "1bf6b430cf2d5b8ddd147b896b7e94cb321315eef1025080998eaef025343fb4", "", 2),
    (["validate", "susp.json"], "invalid:\n" + SUSP_TEXT,
     "2ebccf16ccf36dc357c3859685289a6dafb6f5fa5d46b30d764d3eb37a097229", "", 2),
    (["ring", "susp.json"], "invalid tensor table:\n" + SUSP_TEXT,
     "3ca540edc2e17fcccc9219a95d1baab7d4b0b029d70066ca88acb0af5aa47686", "", 2),
    (["witness", "f2.json", "--left", "{x", "--right", "{}"], "", EMPTY_SHA,
     "error: object literal is not valid JSON: Expecting property name enclosed in double"
     " quotes\n", 2),
    (["witness", "f2.json", "--left", '{"x": "1"}', "--right", "{}"], "", EMPTY_SHA,
     "error: object literal must map symbol names to integers\n", 2),
    (["witness", "f2.json", "--left", '{"x": -1}', "--right", "{}"], "", EMPTY_SHA,
     "error: multiplicity for 'x' must be nonnegative\n", 2),
    (["hom", "t.json", "c.json", "empty.map"],
     "invalid embedding:\n  - map: missing domain symbol 'c'\n",
     "c997cc6434575a3b442449d0ec5cd41e89500434b71d290f0e955e78404c69e5", "", 2),
    (["hom", "t.json", "c.json", "extra.map"],
     "invalid embedding:\n  - map: unknown domain symbol 'zz'\n",
     "676926fb925c7ca52d7299146658a8451b9a1a0a692343cb8855c11bb62841e5", "", 2),
    (["validate", "susp_unknown.json"], "invalid:\n  - suspension: unknown image symbol 'zz'\n",
     "836867c1c63e2692fed42837fc1fd213a602324b14915dcab41a8fa0c91e0677", "", 2),
    # reported from the violations that induced_hom's InvalidEmbeddingError carries
    (["hom", "t.json", "c2.json", "pp.map"],
     "invalid embedding:\n  - not injective\n  - suspension intertwining fails at a\n"
     "  - suspension intertwining fails at b\n",
     "168b2bf19938fba41a99b26ab079c00925651626bf5a57e4abdf10036c3fa8be", "", 2),
]


@pytest.mark.parametrize("args, text, json_sha, stderr, code", ERROR_RUNS,
                         ids=[f"{run[0][0]}-{i}" for i, run in enumerate(ERROR_RUNS)])
def test_error_messages(args, text, json_sha, stderr, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in ERROR_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    assert main(args + ["--text"]) == code
    assert capsys.readouterr() == (text, stderr)
    assert main(args + ["--json"]) == code
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (json_sha, stderr)
