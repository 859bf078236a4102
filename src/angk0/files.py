"""JSON interchange for presentations and tensor tables.

The document grammar:

    {"n": 3,
     "indecomposables": ["a", "b"],
     "suspension": {"a": "b", "b": "a"},
     "angles": [[{"a": 1}, {"b": 1}, {}], ...],
     "tensor": {"unit": {"a": 1}, "table": {"a|a": {"a": 1}, "a|b": {}}}}

Objects are sparse {symbol: positive multiplicity} maps; the empty map is
the zero object.  Table keys join the two symbol names with "|", smaller
name first, so no symbol name may contain "|".  Serialization is
canonical, so digests and reports are byte-stable.

A document's digest is the sha256 of the canonical JSON (sorted keys, no
whitespace) of its grammar fields as decoded: any other key is dropped,
"angles" defaults to [] and "tensor": null means no tensor block.  Parse
refuses unknown or missing symbols, a non-bijective suspension, nonpositive
multiplicities and missing or non-canonical table keys, so for an accepted
document this JSON is byte for byte that of `serialize(presentation, tensor)`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import AngK0Error
from .presentations import Angle, ObjectVec, Presentation, Suspension
from .tensor import TensorPresentation

SCHEMA_VERSION = 1


class ParseError(AngK0Error):
    """The document is not structurally a presentation file."""


@dataclass(frozen=True)
class LoadedDocument:
    presentation: Presentation | None
    tensor: TensorPresentation | None
    violations: tuple[str, ...]
    # the grammar's fields of the decoded JSON and no other key (the digest's
    # input; see the module docstring)
    fields: dict

    @property
    def has_tensor_block(self) -> bool:
        return "tensor" in self.fields


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def read_json(path: str):
    """The decoded JSON in a file.  Unreadable, non-UTF-8 or too deeply
    nested files, and integers past the interpreter's digit limit, raise
    ParseError; invalid JSON raises json.JSONDecodeError, which each caller
    words for itself."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the interpreter's limit on the digits of an int read from a string
        raise ParseError(
            f"{path}: JSON integer longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def load_path(path: str) -> LoadedDocument:
    try:
        doc = read_json(path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_document(doc)


def parse_document(doc) -> LoadedDocument:
    """Parse a decoded JSON document in one pass over it.

    Structural problems (wrong JSON types) raise ParseError; semantic
    problems that are representable (unknown symbols, bad multiplicities,
    a non-bijective suspension) are returned as violations.  Each object is
    type-checked while it is resolved, and a message is formatted only
    when something is wrong.
    """
    _require(isinstance(doc, dict), "document: expected an object")
    _require("n" in doc, "field n: missing")
    _require(type(doc["n"]) is int, "field n: expected an integer")
    _require("indecomposables" in doc, "field indecomposables: missing")
    indec = doc["indecomposables"]
    _require(
        isinstance(indec, list) and all(isinstance(x, str) for x in indec),
        "field indecomposables: expected a list of strings",
    )
    _require("suspension" in doc, "field suspension: missing")
    susp = doc["suspension"]
    _require(
        isinstance(susp, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in susp.items()),
        "field suspension: expected a string-to-string object",
    )
    angles_raw = doc.get("angles", [])
    _require(isinstance(angles_raw, list), "field angles: expected a list")
    fields = {"n": doc["n"], "indecomposables": indec, "suspension": susp, "angles": angles_raw}

    violations: list[str] = []
    names = tuple(indec)
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        violations.append("indecomposable names are not distinct")
    violations += [f"indecomposable name {x!r}: must not contain '|'" for x in names if "|" in x]
    zero = (0,) * len(names)

    def resolve_object(raw, found: list, where: str, *at) -> ObjectVec | None:
        # raw's vector, or None once its violations are appended to found;
        # the place where.format(*at) is formatted only for a message
        if not isinstance(raw, dict):
            raise ParseError(f"field {where.format(*at)}: expected a symbol-to-integer object")
        if not raw:
            return zero
        vec = list(zero)
        ok = True
        for name, mult in raw.items():
            i = index.get(name)
            if i is not None and type(mult) is int and mult > 0:
                vec[i] = mult
                continue
            if not (isinstance(name, str) and type(mult) is int):
                raise ParseError(f"field {where.format(*at)}: expected a symbol-to-integer object")
            ok = False
            if i is None:
                found.append(f"{where.format(*at)}: unknown symbol {name!r}")
            else:
                found.append(f"{where.format(*at)}: multiplicity for {name!r} must be positive")
        return tuple(vec) if ok else None

    susp_images = [None] * len(names)
    for key, value in susp.items():
        if key not in index:
            violations.append(f"suspension: unknown symbol {key!r}")
            continue
        if value not in index:
            violations.append(f"suspension: unknown image symbol {value!r}")
            continue
        susp_images[index[key]] = index[value]
    for name in names:
        if susp_images[index[name]] is None and name not in susp:
            violations.append(f"suspension: missing symbol {name!r}")
    if None not in susp_images and len(set(susp_images)) != len(susp_images):
        violations.append("suspension not bijective")

    angle_objs = []
    for ai, angle in enumerate(angles_raw):
        if not isinstance(angle, list):
            raise ParseError(f"field angles[{ai}]: expected a list")
        angle_objs.append([
            resolve_object(vertex, violations, "angles[{}][{}]", ai, vi)
            for vi, vertex in enumerate(angle)
        ])

    tensor_raw = doc.get("tensor")
    if tensor_raw is not None:
        _require(isinstance(tensor_raw, dict), "field tensor: expected an object")
        _require("unit" in tensor_raw, "field tensor.unit: missing")
        _require("table" in tensor_raw, "field tensor.table: missing")
        unit_raw, table_raw = tensor_raw["unit"], tensor_raw["table"]
        tensor_unit = resolve_object(unit_raw, violations, "tensor.unit")
        _require(isinstance(table_raw, dict), "field tensor.table: expected an object")
        fields["tensor"] = {"unit": unit_raw, "table": table_raw}
        tensor_table, seen_pairs = {}, set()
        for key, value in table_raw.items():
            if not isinstance(key, str):
                raise ParseError(f"field tensor.table[{key!r}]: expected a symbol-to-integer"
                                 " object")
            found = []  # kept only if the key is a valid table key
            obj = resolve_object(value, found, "tensor.table[{!r}]", key)
            parts = key.split("|")
            if len(parts) != 2:
                violations.append(f"tensor.table key {key!r}: expected 'x|y'")
                continue
            left, right = parts
            if left not in index or right not in index:
                violations.append(f"tensor.table key {key!r}: unknown symbol")
                continue
            if table_key(left, right) != key:
                violations.append(f"tensor.table key {key!r}: smaller name must come first")
                continue
            pair = (index[left], index[right])
            seen_pairs.add(pair)
            violations += found
            if obj is not None:
                tensor_table[pair] = obj
        for i in range(len(names)):
            for j in range(i, len(names)):
                if (i, j) not in seen_pairs and (j, i) not in seen_pairs:
                    violations.append(
                        f"tensor.table: missing entry for "
                        f"{names[i]!r}, {names[j]!r}"
                    )

    presentation = tensor = None
    if not violations:
        presentation = Presentation(
            n=doc["n"],
            indec_names=names,
            suspension=Suspension(tuple(susp_images)),
            angles=tuple(Angle(tuple(vs)) for vs in angle_objs),
        )
        if "tensor" in fields:
            tensor = TensorPresentation(presentation, tensor_table, tensor_unit)
    return LoadedDocument(presentation, tensor, tuple(violations), fields)


def object_json(names, vec) -> dict:
    """Sparse {symbol: multiplicity} map of an object vector."""
    return {names[i]: vec[i] for i in range(len(names)) if vec[i]}


def table_key(x: str, y: str) -> str:
    """Tensor-table key of a symbol pair: the names joined by "|", smaller first."""
    return "|".join(sorted((x, y)))


def serialize(p: Presentation, tensor: TensorPresentation | None = None) -> dict:
    """Canonical document for a presentation (round-trips through parse)."""
    doc = {
        "n": p.n,
        "indecomposables": list(p.indec_names),
        "suspension": {
            name: p.indec_names[p.suspension.images[i]]
            for i, name in enumerate(p.indec_names)
        },
        "angles": [
            [object_json(p.indec_names, v) for v in angle.vertices]
            for angle in p.angles
        ],
    }
    if tensor is not None:
        table = {}
        for i in range(p.rank):
            for j in range(i, p.rank):
                key = table_key(p.indec_names[i], p.indec_names[j])
                table[key] = object_json(p.indec_names, tensor.product_basis(i, j))
        doc["tensor"] = {
            "unit": object_json(p.indec_names, tensor.unit),
            "table": table,
        }
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def report_json(x) -> str:
    """Exactly ``json.dumps(x, sort_keys=True, indent=2)`` for what reports
    hold: str-keyed dicts, lists, tuples, str, int, bool and None.

    ``indent`` turns off json's C encoder, so reports are written here
    instead.  A report lists shared nodes many times (a generator under
    every subgroup it generates), so a dict object met a second time at the
    same indent keeps its text for the rest of the call; a dict met once
    keeps none.  The memo is keyed by ``id``, which is safe only while x
    keeps every node alive, so it lives for one call.  Containers write
    their plain int and str children inline; bools, which are ints too, and
    other subclasses of int and str go through ``_encode``.
    """
    return _encode(x, "\n", {})


def _encode(x, newline: str, memo: dict) -> str:
    # newline is a line break plus the indent of x's line.  memo maps the
    # (id, newline) of a dict met once to None and of a dict met again to
    # its text.  Items are built in one comprehension: a child's text held
    # in a local while the parent joins would keep the largest child alive
    # twice.  One `%` copies the joined items once, where a chain of `+`
    # would copy them once per operand.
    if isinstance(x, dict):
        if not x:
            return "{}"
        key = (id(x), newline)
        text = memo.get(key)
        if text is None:
            inner = newline + "  "
            text = "{%s%s%s}" % (inner, ("," + inner).join([
                encode_basestring_ascii(k) + ": " + (
                    repr(v) if type(v) is int
                    else encode_basestring_ascii(v) if type(v) is str
                    else _encode(v, inner, memo))
                for k, v in sorted(x.items())
            ]), newline)
            memo[key] = text if key in memo else None
        return text
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = newline + "  "
        return "[%s%s%s]" % (inner, ("," + inner).join([
            repr(v) if type(v) is int
            else encode_basestring_ascii(v) if type(v) is str
            else _encode(v, inner, memo)
            for v in x
        ]), newline)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def digest(loaded: LoadedDocument, with_tensor: bool = True) -> str:
    """sha256 of the canonical JSON of a document's grammar fields, with its
    tensor block unless with_tensor is false (see the module docstring)."""
    fields = {key: value for key, value in loaded.fields.items() if with_tensor or key != "tensor"}
    return hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()


def parse_object_literal(text: str, p: Presentation) -> ObjectVec:
    """Parse a {symbol: multiplicity} literal used by CLI flags."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"object literal is not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("object literal is nested too deeply") from None
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and type(v) is int for k, v in raw.items()
    ):
        raise ValueError("object literal must map symbol names to integers")
    vec = [0] * p.rank
    for name, mult in raw.items():
        if name not in p.indec_names:
            raise ValueError(f"unknown symbol {name!r}")
        if mult < 0:
            raise ValueError(f"multiplicity for {name!r} must be nonnegative")
        vec[p.indec_names.index(name)] = mult
    return tuple(vec)
