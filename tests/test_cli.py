import json
import os
import subprocess
import sys

from angk0.cli import main

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
