"""Command-line interface: validate, k0, classify, ring, hom, witness.

Exit codes: 0 success or verdict delivered, 1 I/O or parse error,
2 validation failure, 3 unsupported regime (even n, infinite group, order
bound).  Reports are deterministic and byte-identical across runs and
thread settings.

The argument parser is built once, when this module is imported.  A call
that names a command is parsed by that command's own parser alone; the full
parser runs only to word a usage error.  Each command builds its results
once and each call formats one report from them: the text view, or under
`--json` the document `files.report_json` writes, byte for byte as
`json.dumps(sort_keys=True, indent=2)` would.  A node listed at several
places of a report (a classify generator or certificate, a witness term) is
one object, which the writer writes at most twice per indent and reuses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import files
from .classify import verify_correspondence
from .errors import (
    EvenNUnsupportedError,
    InfiniteGroupError,
    InvalidEmbeddingError,
    InvalidTensorError,
    NotWellDefinedError,
    WitnessBoundError,
)
from .embeddings import Embedding, induced_hom
from .files import object_json
from .k0 import equal_classes, k0, relation_lattice, witness_search
from .lattices import is_surjective
from .presentations import basis_object, validate_presentation
from .tensor import validate_tensor, verify_tensor_correspondence

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3


def _threads_valid() -> bool:
    """Is ANGK0_THREADS unset or a nonnegative integer (0 = auto)?  The
    engine is sequential, so every valid cap gives the same reports."""
    raw = os.environ.get("ANGK0_THREADS")
    if raw is None:
        return True
    try:
        return int(raw) >= 0
    except ValueError:
        return False


class _Stop(Exception):
    """Ends a command early; its args are what the command would return.

    Those are (digests, results, view, exit code), where view(results) gives
    the text report's lines.  When results is None they go to stderr alone.
    """


def _invalid_text(header: str, results) -> list:
    return [header] + [f"  - {v}" for v in results["violations"]]


def invalid(header: str, violations, digests: dict) -> _Stop:
    return _Stop(digests, {"valid": False, "violations": list(violations)},
                 functools.partial(_invalid_text, header), EXIT_VALIDATION)


def refuse(reason: str, digests: dict) -> _Stop:
    return _Stop(digests, {"verified": False, "reason": reason},
                 lambda results: [f"unsupported: {results['reason']}"], EXIT_UNSUPPORTED)


def _error(message, code: int) -> _Stop:
    return _Stop({}, None, lambda _: [f"error: {message}"], code)


def _object_text(obj: dict) -> str:
    return " + ".join(f"{x}^{k}" if k > 1 else x for x, k in obj.items()) or "0"


def _cert_json(cert) -> dict:
    return {"status": cert.status, "reason": cert.reason}


def _read(path):
    try:
        return files.load_path(path)
    except files.ParseError as exc:
        raise _error(exc, EXIT_PARSE)


def _load(path):
    """Load a presentation file that passes validation, else stop."""
    loaded = _read(path)
    if loaded.violations:
        raise invalid("invalid presentation file:", loaded.violations, {})
    report = validate_presentation(loaded.presentation)
    if report.violations:
        raise invalid("invalid presentation:", report.violations, {})
    return loaded


def cmd_validate(args):
    loaded = _read(args.path)
    violations = list(loaded.violations)
    parity, classification = None, False
    if loaded.presentation is not None:
        report = validate_presentation(loaded.presentation)
        violations.extend(report.violations)
        parity = report.parity
        classification = report.classification_applies
        if loaded.tensor is not None:
            rel = relation_lattice(loaded.presentation)
            violations.extend(validate_tensor(loaded.tensor, rel).violations)
    results = {
        "valid": not violations,
        "violations": violations,
        "parity": parity,
        "classification_applies": classification,
        "has_tensor": loaded.has_tensor_block,
    }
    digests = {}
    if loaded.presentation is not None and not violations:
        digests["presentation"] = files.digest(loaded)
    return digests, results, _validate_text, EXIT_OK if not violations else EXIT_VALIDATION


def _validate_text(results) -> list:
    if results["violations"]:
        return _invalid_text("invalid:", results)
    applies = "applies" if results["classification_applies"] else "does not apply"
    return [f"valid ({results['parity']} n; classification {applies})"]


def cmd_k0(args):
    loaded = _load(args.path)
    p = loaded.presentation
    result = k0(p)
    group, relations = result.group, result.relation_lattice
    units = relations.reduce_all(basis_object(p.rank, i) for i in range(p.rank))
    classes = {name: list(v) for name, v in zip(p.indec_names, units)}
    results = {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "order": group.order(),
        "relation_basis": relations.basis,
        "indecomposable_classes": classes,
    }
    return {"presentation": files.digest(loaded)}, results, _k0_text, EXIT_OK


def _k0_text(results) -> list:
    return [
        f"invariant factors: {results['invariant_factors']}",
        f"free rank: {results['free_rank']}",
        f"order: {results['order'] or 'infinite'}",  # None if infinite
        "relation basis:",
        *(f"  {list(r)}" for r in results["relation_basis"]),
        "classes of indecomposables:",
        *(f"  [{name}] = {c}" for name, c in results["indecomposable_classes"].items()),
    ]


def cmd_classify(args):
    loaded = _load(args.path)
    p = loaded.presentation
    digests = {"presentation": files.digest(loaded)}
    if p.n % 2 == 0:
        raise refuse("EvenNUnsupported", digests)
    result = k0(p)
    if not result.group.is_finite:
        raise refuse("InfiniteGroup", digests)
    order = result.group.order()
    if order > args.max_order:
        raise refuse(f"OrderBound: group order {order} exceeds {args.max_order}", digests)

    report = verify_correspondence(result)
    # entries share their generators and certificates, so share their nodes
    cert_json = functools.cache(_cert_json)

    @functools.cache
    def generator_json(g):
        return {
            "element": g.element,
            "object": object_json(p.indec_names, g.obj),
            "realized": g.realizes,
        }

    entries = []
    for idx, entry in enumerate(report.entries):
        entries.append(
            {
                "index": idx,
                "preimage_basis": entry.subgroup.preimage.basis,
                "order": entry.subgroup.order(),
                "dense": cert_json(entry.dense),
                "complete": cert_json(entry.complete),
                "round_trip": True,  # the subcategory stores the preimage
                "generators": [generator_json(g) for g in entry.generators],
                "verified": entry.verified,
            }
        )
    all_verified = report.all_verified
    results = {
        "subgroup_count": report.subgroup_count,
        "distinct_lattices": report.distinct_lattices,
        "all_verified": all_verified,
        "subgroups": entries,
    }
    return digests, results, _classify_text, EXIT_OK if all_verified else EXIT_VALIDATION


def _classify_text(results) -> list:
    return [
        f"subgroups: {results['subgroup_count']}",
        *(f"  subgroup {e['index']}: order {e['order']}, dense={e['dense']['status']}, "
          f"complete={e['complete']['status']}, round_trip=ok" for e in results["subgroups"]),
        f"distinct subcategory lattices: {results['distinct_lattices']}",
        "all verified" if results["all_verified"] else "VERIFICATION FAILED",
    ]


def cmd_ring(args):
    loaded = _load(args.path)
    p = loaded.presentation
    if not loaded.has_tensor_block:
        raise _Stop({}, {"valid": False, "violations": ["missing tensor block"]},
                    lambda _: ["invalid: missing tensor block"], EXIT_VALIDATION)
    digests = {"presentation": files.digest(loaded)}
    # Checked in report order: the table, then n, then finiteness.
    try:
        report = verify_tensor_correspondence(loaded.tensor)
    except InvalidTensorError as exc:
        raise invalid("invalid tensor table:", exc.violations, digests)
    except EvenNUnsupportedError:
        raise refuse("EvenNUnsupported", digests)
    except InfiniteGroupError:
        raise refuse("InfiniteGroup", digests)
    r = report.ring

    constants = {}
    for (i, j), value in sorted(r.structure_constants().items()):
        constants[files.table_key(p.indec_names[i], p.indec_names[j])] = value.vec
    ideals = []
    cert_json = functools.cache(_cert_json)  # one node per certificate
    for idx, entry in enumerate(report.entries):
        preimage = entry.ideal.subgroup.preimage
        ideals.append(
            {
                "index": idx,
                "preimage_basis": preimage.basis,
                "order": entry.ideal.subgroup.order(),
                "prime": entry.ideal.prime,
                "is_full_ring": preimage.is_full(),
                # enumerated ideals are joins of principal ideals, and
                # their prime flag is the object-pair prime property.
                "tensor_closed": True,
                "dense": cert_json(entry.dense),
                "complete": cert_json(entry.complete),
                "round_trip": True,  # the subcategory stores the preimage
                "object_prime": entry.ideal.prime,
                "verified": entry.verified,
            }
        )
    all_verified = report.all_verified
    results = {
        "invariant_factors": list(r.group.invariant_factors),
        "unit_class": r.unit_class.vec,
        "structure_constants": constants,
        "ideal_count": report.ideal_count,
        "distinct_lattices": report.distinct_lattices,
        "all_verified": all_verified,
        "ideals": ideals,
    }
    return digests, results, _ring_text, EXIT_OK if all_verified else EXIT_VALIDATION


def _ring_text(results) -> list:
    return [
        f"invariant factors: {results['invariant_factors']}",
        f"unit class: {list(results['unit_class'])}",
        f"ideals: {results['ideal_count']}",
        *(f"  ideal {e['index']}: order {e['order']}, prime={e['prime']}"
          + (" (improper: the whole ring)" if e["is_full_ring"] else "") for e in results["ideals"]),
        "all verified" if results["all_verified"] else "VERIFICATION FAILED",
    ]


def cmd_hom(args):
    t_loaded, c_loaded = _load(args.t_path), _load(args.c_path)
    t_pres, c_pres = t_loaded.presentation, c_loaded.presentation
    try:
        mapping = files.read_json(args.map_path)
    except files.ParseError as exc:
        raise _error(exc, EXIT_PARSE)
    except json.JSONDecodeError as exc:
        raise _error(f"{args.map_path}: invalid JSON: {exc.msg}", EXIT_PARSE)
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise _error("map file must be a string-to-string object", EXIT_PARSE)

    digests = {
        "target": files.digest(t_loaded, with_tensor=False),
        "domain": files.digest(c_loaded, with_tensor=False),
    }
    violations, images = [], []
    for name in c_pres.indec_names:
        if name not in mapping:
            violations.append(f"map: missing domain symbol {name!r}")
        elif mapping[name] not in t_pres.indec_names:
            violations.append(f"map: unknown target symbol {mapping[name]!r}")
        else:
            images.append(t_pres.indec_names.index(mapping[name]))
    for name in mapping:
        if name not in c_pres.indec_names:
            violations.append(f"map: unknown domain symbol {name!r}")
    if violations:
        raise invalid("invalid embedding:", violations, digests)

    try:
        hom = induced_hom(Embedding(domain=c_pres, target=t_pres, images=tuple(images)))
    except InvalidEmbeddingError as exc:
        raise invalid("invalid embedding:", exc.violations, digests)
    except NotWellDefinedError as exc:
        results = {
            "well_defined": False,
            "witness": list(exc.witness),
            "reason": str(exc),
        }
        return digests, results, lambda results: [f"not well-defined: {results['reason']}"], EXIT_UNSUPPORTED
    results = {
        "well_defined": True,
        "matrix": hom.matrix.entries,
        "surjective": is_surjective(hom),
    }
    return digests, results, _hom_text, EXIT_OK


def _hom_text(results) -> list:
    return [
        "well-defined: yes",
        f"matrix: {[list(r) for r in results['matrix']]}",
        f"surjective: {'yes' if results['surjective'] else 'no'}",
    ]


def _term_json(p, term) -> dict:
    out = {"kind": term.kind, "rotation": term.rotation}
    if term.kind == "generator":
        out["generator"] = term.index
    else:
        out["object"] = object_json(p.indec_names, term.obj)
    return out


def cmd_witness(args):
    if args.bound < 0:
        raise _error("--bound must be nonnegative", EXIT_VALIDATION)
    loaded = _load(args.path)
    p = loaded.presentation
    try:
        left = files.parse_object_literal(args.left, p)
        right = files.parse_object_literal(args.right, p)
    except ValueError as exc:
        raise _error(exc, EXIT_VALIDATION)
    digests = {"presentation": files.digest(loaded)}
    equal = equal_classes(relation_lattice(p), left, right)
    results = {
        "left": object_json(p.indec_names, left),
        "right": object_json(p.indec_names, right),
        "equal": equal,
        "bound": args.bound,
    }
    if not equal:
        results.update(witness=None, searched=False)
        return digests, results, _witness_text, EXIT_OK
    try:
        # equal classes always have a witness; only its size can refuse it
        witness = witness_search(p, left, right)
    except WitnessBoundError as exc:
        raise refuse(f"WitnessBound: {exc}", digests)
    # a witness lists one term per copy: report each distinct term once
    as_json = {t: _term_json(p, t) for t in set(witness.left_terms + witness.right_terms)}
    results["searched"] = True
    results["witness"] = {
        "complements": [object_json(p.indec_names, c) for c in witness.complements],
        "left_terms": [as_json[t] for t in witness.left_terms],
        "right_terms": [as_json[t] for t in witness.right_terms],
    }
    return digests, results, _witness_text, EXIT_OK


def _witness_text(results) -> list:
    lines = [f"equal classes: {'yes' if results['equal'] else 'no'}"]
    if not results["searched"]:
        return lines + ["no search performed (classes differ)"]
    witness = results["witness"]
    return lines + [
        "witness found:",
        "  complements: " + ", ".join(_object_text(c) for c in witness["complements"]),
        f"  left decomposition: {len(witness['left_terms'])} summand(s)",
        f"  right decomposition: {len(witness['right_terms'])} summand(s)",
    ]


def _finish(sub, func):
    """Add the output flags every command takes last, and the function it runs."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON report")
    group.add_argument("--text", dest="json", action="store_false", help="emit text (default)")
    sub.set_defaults(json=False, func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angk0", description="Grothendieck groups of finitely presented angle categories")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a presentation file")
    p_validate.add_argument("path")
    _finish(p_validate, cmd_validate)

    p_k0 = sub.add_parser("k0", help="compute the Grothendieck group")
    p_k0.add_argument("path")
    _finish(p_k0, cmd_k0)

    p_classify = sub.add_parser("classify", help="verify the subgroup/subcategory correspondence")
    p_classify.add_argument("path")
    p_classify.add_argument("--max-order", type=int, default=256)
    _finish(p_classify, cmd_classify)

    p_ring = sub.add_parser("ring", help="compute the Grothendieck ring and its ideals")
    p_ring.add_argument("path")
    _finish(p_ring, cmd_ring)

    p_hom = sub.add_parser("hom", help="check an induced homomorphism")
    p_hom.add_argument("t_path", help="target presentation (arity 3)")
    p_hom.add_argument("c_path", help="domain presentation")
    p_hom.add_argument("map_path", help="JSON object {domain symbol: target symbol}")
    _finish(p_hom, cmd_hom)

    p_witness = sub.add_parser("witness", help="build a class-equality witness")
    p_witness.add_argument("path")
    p_witness.add_argument("--left", required=True, help='object literal, e.g. {"a": 1}')
    p_witness.add_argument("--right", required=True, help="object literal")
    p_witness.add_argument("--bound", type=int, default=2, help="echoed; no effect on the witness")
    _finish(p_witness, cmd_witness)
    return parser


_PARSER = build_parser()
# command name -> the parser add_subparsers made for it
_COMMANDS = next(a.choices for a in _PARSER._actions if a.dest == "command")


def _text_report(view, results) -> str:
    return "\n".join(view(results))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _COMMANDS.get(argv[0]) if argv else None
    args, extra = parser.parse_known_args(argv[1:]) if parser else (None, argv)
    if parser is None or extra:
        args = _PARSER.parse_args(argv)  # words the usage error
    args.command = argv[0]
    if not _threads_valid():
        print("error: ANGK0_THREADS must be a nonnegative integer", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        digests, results, view, code = args.func(args)
    except _Stop as stop:
        digests, results, view, code = stop.args
    if results is None:
        print("\n".join(view(results)), file=sys.stderr)
        return code
    if args.json:
        report = files.report_json({
            "schema_version": files.SCHEMA_VERSION,
            "command": args.command,
            "digest": digests,
            "results": results,
        })
    else:
        report = _text_report(view, results)
    try:
        print(report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
