import contextlib
import enum
import gc
import hashlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from angk0.files import (
    LoadedDocument,
    ParseError,
    canonical_json,
    digest,
    load_path,
    parse_document,
    parse_object_literal,
    report_json,
    serialize,
)
from angk0.cli import main
from angk0.k0 import relation_lattice
from angk0.presentations import Angle, Presentation, Suspension, validate_presentation
from angk0.tensor import TensorPresentation, validate_tensor
from support import parse_document_two_pass

G1_DOC = {
    "n": 3,
    "indecomposables": ["a", "b", "c"],
    "suspension": {"a": "a", "b": "b", "c": "c"},
    "angles": [[{"a": 1}, {"b": 1}, {"c": 1}]],
}

F2_DOC = {
    "n": 3,
    "indecomposables": ["x"],
    "suspension": {"x": "x"},
    "angles": [],
    "tensor": {"unit": {"x": 1}, "table": {"x|x": {"x": 1}}},
}


class TestParse:
    def test_g1(self):
        loaded = parse_document(G1_DOC)
        assert not loaded.violations
        p = loaded.presentation
        assert p.n == 3
        assert p.rank == 3
        assert p.angles[0].vertices == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_tensor_block(self):
        loaded = parse_document(F2_DOC)
        assert loaded.tensor is not None
        assert loaded.tensor.unit == (1,)

    def test_unknown_symbol_is_violation(self):
        doc = dict(G1_DOC, angles=[[{"z": 1}, {}, {}]])
        loaded = parse_document(doc)
        assert loaded.presentation is None
        assert any("unknown symbol" in v for v in loaded.violations)

    def test_nonpositive_multiplicity_is_violation(self):
        doc = dict(G1_DOC, angles=[[{"a": 0}, {}, {}]])
        loaded = parse_document(doc)
        assert any("positive" in v for v in loaded.violations)

    def test_missing_suspension_symbol(self):
        doc = dict(G1_DOC, suspension={"a": "a", "b": "b"})
        loaded = parse_document(doc)
        assert any("missing symbol" in v for v in loaded.violations)

    def test_table_key_order_enforced(self):
        doc = {
            "n": 3,
            "indecomposables": ["a", "b"],
            "suspension": {"a": "a", "b": "b"},
            "angles": [],
            "tensor": {
                "unit": {"a": 1},
                "table": {"b|a": {}, "a|a": {"a": 1}, "a|b": {}, "b|b": {"b": 1}},
            },
        }
        loaded = parse_document(doc)
        assert any("smaller name" in v for v in loaded.violations)

    def test_pipe_in_name_is_violation(self):
        # "a|x" would make the table key "a|x|a|x", which cannot be split
        doc = {
            "n": 3,
            "indecomposables": ["a|x"],
            "suspension": {"a|x": "a|x"},
            "angles": [],
            "tensor": {"unit": {"a|x": 1}, "table": {"a|x|a|x": {"a|x": 1}}},
        }
        loaded = parse_document(doc)
        assert loaded.presentation is None
        assert "indecomposable name 'a|x': must not contain '|'" in loaded.violations
        del doc["tensor"]
        assert parse_document(doc).presentation is None

    def test_shape_errors_raise(self):
        with pytest.raises(ParseError):
            parse_document([])
        with pytest.raises(ParseError):
            parse_document({"n": "three", "indecomposables": [], "suspension": {}})
        with pytest.raises(ParseError):
            parse_document({"n": 3, "indecomposables": [1], "suspension": {}})
        with pytest.raises(ParseError):
            parse_document(dict(G1_DOC, angles=[[{"a": "one"}, {}, {}]]))


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        loaded = parse_document(G1_DOC)
        doc = serialize(loaded.presentation)
        again = parse_document(doc)
        assert again.presentation == loaded.presentation
        assert serialize(again.presentation) == doc

    def test_tensor_round_trip(self):
        loaded = parse_document(F2_DOC)
        doc = serialize(loaded.presentation, loaded.tensor)
        again = parse_document(doc)
        assert again.presentation == loaded.presentation
        assert again.tensor.table == loaded.tensor.table
        assert again.tensor.unit == loaded.tensor.unit

    def test_digest_stable(self):
        loaded = parse_document(G1_DOC)
        assert digest(loaded) == digest(parse_document(G1_DOC))
        assert len(digest(loaded)) == 64

    def test_canonical_json_sorted(self):
        loaded = parse_document(G1_DOC)
        text = canonical_json(serialize(loaded.presentation))
        assert json.loads(text) == serialize(loaded.presentation)


# every code point, lone surrogates and control characters included
REPORT_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
REPORT_SCALARS = st.none() | st.booleans() | st.integers(-(2**80), 2**80) | REPORT_TEXT
REPORT_VALUES = st.recursive(
    REPORT_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(REPORT_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(REPORT_VALUES)
def test_report_json_is_json_dumps(x):
    assert report_json(x) == json.dumps(x, sort_keys=True, indent=2)


@st.composite
def documents_sharing_nodes(draw):
    """A report in which the same dict and list objects sit at several
    places and depths; later shared nodes may hold earlier ones."""
    shared = []
    for _ in range(draw(st.integers(1, 3))):
        inner = REPORT_SCALARS | st.sampled_from(shared) if shared else REPORT_SCALARS
        shared.append(draw(
            st.dictionaries(REPORT_TEXT, inner, min_size=1, max_size=3)
            | st.lists(inner, min_size=1, max_size=3)
        ))
    return draw(st.recursive(
        st.sampled_from(shared) | REPORT_SCALARS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_TEXT, inner),
        max_leaves=12,
    ))


@settings(max_examples=300, deadline=None)
@given(documents_sharing_nodes())
def test_report_json_shared_nodes(x):
    # a node's text depends on its indent, so reuse must too
    assert report_json(x) == json.dumps(x, sort_keys=True, indent=2)


class Level(enum.IntEnum):
    LOW = 1


# True == 1 and Level.LOW == 1, but each has its own text
MIXED_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.just(Level.LOW)


@settings(max_examples=200, deadline=None)
@given(st.lists(MIXED_SCALARS) | st.dictionaries(REPORT_TEXT, MIXED_SCALARS))
def test_report_json_bools_are_not_ints(x):
    assert report_json(x) == json.dumps(x, sort_keys=True, indent=2)


def test_report_json_memo_lives_for_one_call():
    # Each document dies when its call returns, so the next one's dict
    # reuses its id: text kept between calls would be written again.
    for i in range(20):
        expected = json.dumps([{"i": i}] * 3, sort_keys=True, indent=2)
        assert report_json([{"i": i}] * 3) == expected


def test_report_json_leaves_no_cycles():
    # The memo holds the text of every shared node, megabytes on a large
    # classify report: it must die with the call, not wait for the cycle
    # collector.
    doc = {"a": [{"b": [1]}] * 3}
    gc.collect()
    report_json(doc)
    assert gc.collect() == 0


def test_report_json_refuses_other_types():
    with pytest.raises(TypeError):
        report_json({"a": [1.5]})


@st.composite
def presentations_with_tensor(draw):
    """A presentation with random names (no "|"), suspension and angles,
    plus a complete tensor table."""
    names = draw(
        st.lists(st.text(max_size=3).filter(lambda x: "|" not in x), max_size=4, unique=True)
    )
    rank = len(names)
    images = draw(st.permutations(range(rank)))
    n = draw(st.integers(3, 6))
    obj = st.tuples(*[st.integers(0, 3)] * rank)
    angles = draw(st.lists(st.tuples(*[obj] * n), max_size=3))
    p = Presentation(
        n=n,
        indec_names=tuple(names),
        suspension=Suspension(tuple(images)),
        angles=tuple(Angle(vs) for vs in angles),
    )
    table = {(i, j): draw(obj) for i in range(rank) for j in range(i, rank)}
    return p, TensorPresentation(p, table, draw(obj))


@settings(max_examples=100, deadline=None)
@given(presentations_with_tensor())
def test_parse_inverts_serialize(case):
    p, t = case
    doc = serialize(p, t)
    loaded = parse_document(json.loads(canonical_json(doc)))
    assert not loaded.violations
    assert loaded.presentation == p
    assert loaded.tensor.unit == t.unit
    for i in range(p.rank):
        for j in range(p.rank):
            assert loaded.tensor.product_basis(i, j) == t.product_basis(i, j)
    assert serialize(loaded.presentation, loaded.tensor) == doc


JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(["a", "b|a", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "unit", "table"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def fuzzed_documents(draw):
    """Documents of the right shape, with symbols that may be unknown and
    values that may be out of range; some have one field dropped or
    replaced by arbitrary JSON."""
    names = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True)
        | st.lists(st.sampled_from(["a", "a|b", ""]), max_size=3)
    )
    symbol = st.sampled_from(names + ["zz"])
    obj = st.dictionaries(symbol, st.sampled_from([1, 1, 1, 2, 3, 0, -1]), max_size=3)
    pairs = ["|".join(sorted(pair)) for pair in itertools.combinations_with_replacement(names, 2)]
    fields = {
        "n": st.integers(1, 6),
        "indecomposables": st.just(names),
        "suspension": st.permutations(names).map(lambda images: dict(zip(names, images)))
        | st.dictionaries(symbol, symbol, max_size=3),
        "angles": st.lists(st.lists(obj, max_size=5), max_size=3),
        "tensor": st.fixed_dictionaries({
            "unit": obj,
            "table": st.fixed_dictionaries({key: obj for key in pairs})
            | st.dictionaries(st.tuples(symbol, symbol).map("|".join), obj, max_size=6),
        }),
    }
    doc = {key: draw(shaped) for key, shaped in fields.items()}
    spoiled = draw(st.sampled_from([None, None, *fields]))
    if spoiled is not None:
        if draw(st.booleans()):
            del doc[spoiled]
        else:
            doc[spoiled] = draw(JSON_ANY)
    return doc


@settings(max_examples=100, deadline=None)
@given(fuzzed_documents() | JSON_ANY)
def test_parse_document_fuzz(doc):
    try:
        loaded = parse_document(doc)
    except ParseError:
        return
    assert isinstance(loaded, LoadedDocument)
    if loaded.presentation is not None:
        validate_presentation(loaded.presentation)
        if loaded.tensor is not None:
            validate_tensor(loaded.tensor, relation_lattice(loaded.presentation))


EXTRA_KEYS = st.dictionaries(st.sampled_from(["comment", "version", "x"]), JSON_ANY, max_size=2)


@st.composite
def documents_with_extras(draw, documents=fuzzed_documents() | JSON_ANY):
    """Documents with keys outside the grammar at the top level and in the
    tensor block, and some with "tensor": null, no angles, or one more
    field replaced by arbitrary JSON (so that two fields can be wrong)."""
    doc = draw(documents)
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc, **draw(EXTRA_KEYS))
    if isinstance(doc.get("tensor"), dict):
        doc["tensor"] = dict(doc["tensor"], **draw(EXTRA_KEYS))
    change = draw(st.sampled_from([None, None, "tensor-null", "no-angles", "spoil"]))
    if change == "tensor-null":
        doc["tensor"] = None
    elif change == "no-angles":
        doc.pop("angles", None)
    elif change == "spoil":
        doc[draw(st.sampled_from(["n", "indecomposables", "suspension", "angles", "tensor"]))] = (
            draw(JSON_ANY))
    return doc


def parse_outcome(parse, doc):
    """The ParseError message, or what a parse found: the violations, the
    presentation, the tensor's data and has_tensor_block."""
    try:
        loaded = parse(doc)
    except ParseError as exc:
        return str(exc)
    t = loaded.tensor
    return (loaded.violations, loaded.presentation, loaded.has_tensor_block,
            None if t is None else (t.base, t.table, t.unit))


HEAD = {"n": 3, "indecomposables": ["a"], "suspension": {"a": "a"}}


@settings(max_examples=400, deadline=None)
@given(documents_with_extras())
# a shape error in the angles wins over one in the tensor block
@example(dict(HEAD, angles=1, tensor=1))
@example(dict(HEAD, angles=[7], tensor={"unit": {}}))
@example(dict(HEAD, angles=[[{"a": "1"}]], tensor={"unit": [], "table": {}}))
def test_one_pass_parse_matches_two_pass(doc):
    assert parse_outcome(parse_document, doc) == parse_outcome(parse_document_two_pass, doc)


def serialized_digest(p, tensor=None) -> str:
    return hashlib.sha256(canonical_json(serialize(p, tensor)).encode("utf-8")).hexdigest()


# serialize() of a presentation that validates unless a name is empty
SERIALIZED = presentations_with_tensor().flatmap(
    lambda case: st.sampled_from([serialize(*case), serialize(case[0])]))


@settings(max_examples=300, deadline=None)
@given(documents_with_extras() | documents_with_extras(SERIALIZED))
def test_digest_hashes_the_grammar_fields(doc):
    try:
        loaded = parse_document(doc)
    except ParseError:
        return
    fields = {key: doc[key] for key in ("n", "indecomposables", "suspension")}
    fields["angles"] = doc.get("angles", [])
    if doc.get("tensor") is not None:
        fields["tensor"] = {key: doc["tensor"][key] for key in ("unit", "table")}
    assert loaded.fields == fields
    if loaded.violations:
        return
    p, t = loaded.presentation, loaded.tensor
    assert digest(loaded) == serialized_digest(p, t)
    assert digest(loaded, with_tensor=False) == serialized_digest(p)


def printed_digests(argv) -> dict:
    """The digest block of a --json report, or {} when nothing is printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv + ["--json"])
    return json.loads(out.getvalue())["digest"] if out.getvalue() else {}


@settings(max_examples=100, deadline=None)
@given(documents_with_extras() | documents_with_extras(SERIALIZED))
def test_every_command_prints_the_serialized_digest(doc):
    try:
        loaded = parse_document(doc)
    except ParseError:
        return
    if loaded.violations:
        return
    p, t = loaded.presentation, loaded.tensor
    with tempfile.TemporaryDirectory() as tmp:
        path, map_path = os.path.join(tmp, "p.json"), os.path.join(tmp, "id.map")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open(map_path, "w", encoding="utf-8") as fh:
            json.dump({name: name for name in p.indec_names}, fh)
        for argv in (["validate", path], ["k0", path], ["classify", path, "--max-order", "64"],
                     ["ring", path], ["witness", path, "--left", "{}", "--right", "{}"]):
            assert set(printed_digests(argv).values()) <= {serialized_digest(p, t)}
        hom = printed_digests(["hom", path, path, map_path])
        assert set(hom.values()) <= {serialized_digest(p)}


class TestLiterals:
    def test_parse_literal(self):
        p = parse_document(G1_DOC).presentation
        assert parse_object_literal('{"a": 2, "c": 1}', p) == (2, 0, 1)

    def test_unknown_name(self):
        p = parse_document(G1_DOC).presentation
        with pytest.raises(ValueError):
            parse_object_literal('{"z": 1}', p)

    def test_empty_is_zero_object(self):
        p = parse_document(G1_DOC).presentation
        assert parse_object_literal("{}", p) == (0, 0, 0)


def test_load_path_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_path(str(bad))
    assert "line" in str(exc.value)
    with pytest.raises(ParseError):
        load_path(str(tmp_path / "missing.json"))
