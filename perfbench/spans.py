"""Spans around angk0's public functions, installed from outside the package.

Every target is reached through ``sys.modules`` (the package rebinds the
attribute ``angk0.k0`` to the function, so ``import angk0.k0`` would return
the function) and every module attribute that holds the original object is
rebound, which covers ``from ... import`` aliases such as ``cli.k0``,
``classify.compute_k0``, ``tensor.compute_k0`` and ``embeddings.k0``.

Spans are aggregated in memory by (name, parent): calls, inclusive seconds
and self seconds, so inclusive time per layer can be rebuilt from the parent
links.  Hooks that read a result (bit lengths, certificate outcomes) run
outside every span and are charged to nobody.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("files", "load_path", "files.load_path"),
    ("files", "digest", "files.digest"),
    ("presentations", "validate_presentation", "presentations.validate_presentation"),
    ("presentations", "rotate_angle", "presentations.rotate_angle"),
    ("lattices", "Lattice.__init__", "lattices.Lattice"),
    ("lattices", "Lattice.__contains__", "lattices.contains"),
    ("lattices", "FgAbelianGroup.__init__", "lattices.FgAbelianGroup"),
    ("lattices", "enumerate_subgroups", "lattices.enumerate_subgroups"),
    ("lattices", "is_surjective", "lattices.is_surjective"),
    ("k0", "k0", "k0.k0"),
    ("k0", "relation_lattice", "k0.relation_lattice"),
    ("k0", "witness_search", "k0.witness_search"),
    ("classify", "verify_correspondence", "classify.verify_correspondence"),
    ("classify", "is_dense", "classify.is_dense"),
    ("classify", "is_complete", "classify.is_complete"),
    ("tensor", "validate_tensor", "tensor.validate_tensor"),
    ("tensor", "ring", "tensor.ring"),
    ("tensor", "enumerate_ideals", "tensor.enumerate_ideals"),
    ("tensor", "is_prime_ideal", "tensor.is_prime_ideal"),
    ("tensor", "_object_prime", "tensor._object_prime"),
    ("tensor", "verify_tensor_correspondence", "tensor.verify_tensor_correspondence"),
    ("embeddings", "induced_hom", "embeddings.induced_hom"),
)

_COMMON = ("cli.main", "files.load_path", "files.digest",
           "presentations.validate_presentation", "lattices.Lattice",
           "lattices.FgAbelianGroup", "k0.k0", "k0.relation_lattice")
_CLASSIFY = _COMMON + ("lattices.enumerate_subgroups", "lattices.contains",
                       "classify.verify_correspondence", "classify.is_dense",
                       "classify.is_complete")
# Spans that must record calls on each workload; a zero means a target was
# renamed or bypassed and the layer metrics built on it would read 0.
MUST_FIRE = {
    "k0-wide": _COMMON,
    "classify-enum": _CLASSIFY,
    "desk-mix": _CLASSIFY + tuple(name for _, _, name in TARGETS
                                  if name.split(".")[0] in ("tensor", "embeddings"))
    + ("lattices.is_surjective", "k0.witness_search", "presentations.rotate_angle"),
}

CASE_COUNTED = ("cli.main", "k0.k0", "k0.relation_lattice", "lattices.Lattice",
                "tensor.validate_tensor", "tensor.ring", "k0.witness_search")


# spans whose results _hook reads
_HOOKED = ("lattices.Lattice", "lattices.enumerate_subgroups", "classify.is_dense",
           "classify.is_complete", "k0.witness_search")


def _basis_bits(lattice) -> int:
    return max((abs(x).bit_length() for row in lattice.basis for x in row), default=0)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self._stack = []  # [name, seconds spent in children]
        self.spans = {}  # (name, parent) -> [calls, inclusive s, self s]
        self.counts = {}
        self.max_bits = 0
        self._saved = []

    def reset(self):
        self.spans = {}
        self.counts = {}
        self.max_bits = 0

    def _hook(self, name, args, result):
        if name == "lattices.Lattice":
            self.max_bits = max(self.max_bits, _basis_bits(args[0]))
        elif name == "lattices.enumerate_subgroups":
            self._count("enum_found", len(result))
        elif name in ("classify.is_dense", "classify.is_complete"):
            self._count(f"cert_{result.status}", 1)
        elif name == "k0.witness_search" and type(result).__name__ == "Witness":
            self._count("witness_found", 1)

    def _count(self, key, k):
        self.counts[key] = self.counts.get(key, 0) + k

    def _wrap(self, name, fn):
        stack = self._stack
        hooked = name in _HOOKED
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = tracer.spans.get((name, parent))
                if rec is None:
                    rec = tracer.spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if hooked:
                hook_start = clock()
                tracer._hook(name, args, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; raises AttributeError if one no longer exists."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "angk0" or key.startswith("angk0."))]
        for module_name, path, name in TARGETS:
            module = sys.modules[f"angk0.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def self_s(self, name) -> float:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def case_counts(self) -> dict:
        """Running totals that per-case differences are taken from."""
        out = {name: self.calls(name) for name in CASE_COUNTED}
        out["enum_lattices"] = self.calls_under("lattices.Lattice", "lattices.enumerate_subgroups")
        out["enum_found"] = self.counts.get("enum_found", 0)
        return out

    def calls_under(self, name, parent) -> int:
        rec = self.spans.get((name, parent))
        return rec[0] if rec else 0


def layer_totals(t: Tracer) -> dict:
    """Per-layer figures for one traced pass (times in ms)."""
    ms = lambda name: 1000.0 * t.self_s(name)  # noqa: E731
    built = t.calls_under("lattices.Lattice", "lattices.enumerate_subgroups")
    found = t.counts.get("enum_found", 0)
    return {
        "lattices.lattice_calls": t.calls("lattices.Lattice"),
        "lattices.lattice_ms": ms("lattices.Lattice"),
        "lattices.lattice_max_bits": t.max_bits,
        "lattices.group_ms": ms("lattices.FgAbelianGroup"),
        "lattices.enum_ms": ms("lattices.enumerate_subgroups"),
        "lattices.enum_lattices": built,
        "lattices.enum_found": found,
        "lattices.enum_yield": found / built if built else 0.0,
        "lattices.contains_calls": t.calls("lattices.contains"),
        "lattices.contains_ms": ms("lattices.contains"),
        "lattices.surjective_ms": ms("lattices.is_surjective"),
        "k0.k0_calls": t.calls("k0.k0"),
        "k0.relation_lattice_calls": t.calls("k0.relation_lattice"),
        "k0.witness_ms": ms("k0.witness_search"),
        "k0.witness_searched": t.calls("k0.witness_search"),
        "k0.witness_found": t.counts.get("witness_found", 0),
        "classify.verify_ms": ms("classify.verify_correspondence"),
        "classify.dense_ms": ms("classify.is_dense"),
        "classify.complete_ms": ms("classify.is_complete"),
        "classify.cert_holds": t.counts.get("cert_holds", 0),
        "classify.cert_unknown": t.counts.get("cert_unknown", 0),
        "classify.cert_fails": t.counts.get("cert_fails", 0),
        "tensor.validate_calls": t.calls("tensor.validate_tensor"),
        "tensor.validate_ms": ms("tensor.validate_tensor"),
        "tensor.ring_calls": t.calls("tensor.ring"),
        "tensor.ideals_ms": ms("tensor.enumerate_ideals"),
        "tensor.prime_ms": ms("tensor.is_prime_ideal") + ms("tensor._object_prime"),
        "embeddings.induced_hom_ms": ms("embeddings.induced_hom"),
        "presentations.validate_ms": ms("presentations.validate_presentation"),
        "presentations.rotate_calls": t.calls("presentations.rotate_angle"),
        "files.load_ms": ms("files.load_path"),
        "files.digest_ms": ms("files.digest"),
        "cli.self_ms": ms("cli.main"),
    }
