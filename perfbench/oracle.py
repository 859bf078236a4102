"""Answers computed without angk0, to check every report the benchmark gets.

- k0: invariant factors and free rank of the relation span from sympy's
  Smith form (sympy is a test and bench dependency only).
- classify: the closed-form subgroup count of a finite abelian group
  (Birkhoff's formula per Sylow part, which gives the number of divisors for
  a cyclic group and sums of Gaussian binomials for (Z/p)^k), multiplied
  over the primes.
- ring: ideal and prime counts of F2^k and of F2[C_k] = F2[x]/(x^k - 1)
  from polynomial arithmetic over F2.
- witness: equality of classes from the Smith forms of L and L + Z(A - B),
  and any returned witness re-verified by summing its angles here.
- hom: the verdicts of acceptance criterion 9; refusals: exit code 3.
"""

from __future__ import annotations

import json
import math

from corpus import relation_rows, rotate

EXIT_UNSUPPORTED = 3


def invariants(rows, r: int):
    """(invariant factors > 1, free rank) of Z^r modulo the row span."""
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    rows = [row for row in rows if any(row)]
    if not rows:
        return [], r
    m = DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), r), ZZ)
    rank = m.convert_to(QQ).rank()
    factors = [int(f) for f in invariant_factors(m) if int(f) > 1]
    return factors, r - rank


def _factorize(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def _conjugate(parts):
    return [sum(1 for x in parts if x > i) for i in range(max(parts, default=0))]


def _sub_partitions(parts):
    if not parts:
        yield ()
        return
    for first in range(parts[0], -1, -1):
        for rest in _sub_partitions(parts[1:]):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def p_group_subgroups(parts, p: int) -> int:
    """Subgroups of the abelian p-group of type `parts` (Birkhoff)."""
    lam = _conjugate(sorted(parts, reverse=True))
    total = 0
    for mu in _sub_partitions(tuple(sorted(parts, reverse=True))):
        mu_c = _conjugate(mu) + [0] * (len(lam) + 1)
        term = 1
        for i in range(len(lam)):
            term *= p ** (mu_c[i + 1] * (lam[i] - mu_c[i]))
            term *= _gaussian_binomial(lam[i] - mu_c[i + 1], mu_c[i] - mu_c[i + 1], p)
        total += term
    return total


def subgroup_count(factors) -> int:
    """Subgroups of the finite abelian group with these invariant factors."""
    by_prime = {}
    for d in factors:
        for p, e in _factorize(d).items():
            by_prime.setdefault(p, []).append(e)
    count = 1
    for p, parts in by_prime.items():
        count *= p_group_subgroups(parts, p)
    return count


def _f2_mod(a: int, b: int) -> int:
    while a and a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def f2_ring_counts(family: str, k: int):
    """(ideal count, prime count) of F2^k or F2[C_k].

    Every ideal of a finite commutative ring counts as prime exactly when it
    is maximal or the whole ring, the convention angk0 reports.
    """
    if family == "componentwise":
        return 2**k, k + 1
    modulus = (1 << k) | 1  # x^k + 1 = x^k - 1 over F2
    divisors = [d for d in range(1, 1 << (k + 1)) if _f2_mod(modulus, d) == 0]
    irreducible = [d for d in divisors if d > 1
                   and not any(_f2_mod(d, e) == 0 for e in range(2, d) if e.bit_length() > 1
                               and e.bit_length() < d.bit_length())]
    return len(divisors), len(irreducible) + 1


def _vectors(doc):
    names = doc["indecomposables"]
    return names, {name: j for j, name in enumerate(names)}


def _vec(pos, r, obj):
    v = [0] * r
    for name, mult in obj.items():
        v[pos[name]] += mult
    return v


def classes_equal(doc, a, b) -> bool:
    """[A] = [B] iff adding A - B to the relation rows changes neither the
    rank nor the product of the invariant factors."""
    r = len(doc["indecomposables"])
    rows = relation_rows(doc)
    diff = [x - y for x, y in zip(a, b)]
    if not any(diff):
        return True
    base_factors, base_free = invariants(rows, r)
    more_factors, more_free = invariants(rows + [diff], r)
    return base_free == more_free and math.prod(base_factors) == math.prod(more_factors)


def witness_holds(doc, a, b, witness) -> bool:
    """Re-check a reported witness from its terms: the left and right angle
    sums must be (A + C1, C2, ..., Cn) and (B + C1, C2, ..., Cn)."""
    names, pos = _vectors(doc)
    r, n = len(names), doc["n"]
    susp = [pos[doc["suspension"][x]] for x in names]

    def angle_of(term):
        if term["kind"] == "generator":
            angle = [_vec(pos, r, v) for v in doc["angles"][term["generator"]]]
        elif term["kind"] == "trivial":
            v = _vec(pos, r, term["object"])
            angle = [v, list(v)] + [[0] * r for _ in range(n - 2)]
        else:
            return None
        for _ in range(term["rotation"]):
            angle = rotate(angle, susp)
        return angle

    def total(terms):
        out = [[0] * r for _ in range(n)]
        for term in terms:
            angle = angle_of(term)
            if angle is None or len(angle) != n:
                return None
            out = [[x + y for x, y in zip(u, v)] for u, v in zip(out, angle)]
        return out

    comps = [_vec(pos, r, c) for c in witness["complements"]]
    if len(comps) != n or any(x < 0 for c in comps for x in c):
        return False
    left, right = total(witness["left_terms"]), total(witness["right_terms"])
    want_left = [[x + y for x, y in zip(a, comps[0])]] + comps[1:]
    want_right = [[x + y for x, y in zip(b, comps[0])]] + comps[1:]
    return left == want_left and right == want_right


def _check_k0(doc, res):
    r = len(doc["indecomposables"])
    factors, free = invariants(relation_rows(doc), r)
    order = math.prod(factors) if free == 0 else None
    got = (res.get("invariant_factors"), res.get("free_rank"), res.get("order"))
    if got != (factors, free, order):
        return f"k0 {got} != oracle {(factors, free, order)}"
    return None


def _check_classify(doc, res):
    r = len(doc["indecomposables"])
    factors, free = invariants(relation_rows(doc), r)
    if free:
        return "classify case has an infinite group"
    want = subgroup_count(factors)
    if res.get("subgroup_count") != want:
        return f"subgroup_count {res.get('subgroup_count')} != closed form {want}"
    if res.get("distinct_lattices") != want:
        return f"distinct_lattices {res.get('distinct_lattices')} != {want}"
    if res.get("all_verified") is not True:
        return "all_verified is not true"
    return None


def check(case, doc_of, code, stdout):
    """None if the report is right, else the reason it is not.

    Also returns a dict of facts the metrics need (for witness calls:
    whether the classes are equal and whether a witness was certified).
    """
    expect = case["expect"]
    kind = expect["check"]
    facts = {}
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document", facts
    res = report.get("results", {})
    if kind == "refuse":
        if code != EXIT_UNSUPPORTED:
            return f"exit {code}, expected {EXIT_UNSUPPORTED}", facts
        reason = str(res.get("reason", ""))
        if res.get("verified") is not False or not reason.startswith(expect["reason"]):
            return f"refusal reason {reason!r}, expected {expect['reason']}", facts
        return None, facts
    want_code = 0
    if code != want_code:
        return f"exit {code}, expected {want_code}", facts
    doc = doc_of(case["argv"][1])
    if kind == "validate":
        parity = "odd" if doc["n"] % 2 else "even"
        if res.get("valid") is not True or res.get("parity") != parity:
            return f"validate gave valid={res.get('valid')} parity={res.get('parity')}", facts
        return None, facts
    if kind == "k0":
        return _check_k0(doc, res), facts
    if kind == "classify":
        return _check_classify(doc, res), facts
    if kind == "ring":
        ideals, primes = f2_ring_counts(expect["family"], expect["k"])
        got_primes = sum(1 for entry in res.get("ideals", []) if entry.get("prime"))
        if (res.get("ideal_count"), got_primes) != (ideals, primes):
            return (f"ring gave {res.get('ideal_count')} ideals, {got_primes} primes; "
                    f"expected {ideals}, {primes}"), facts
        if res.get("all_verified") is not True:
            return "all_verified is not true", facts
        return None, facts
    if kind == "hom":
        if res.get("well_defined") is not True or res.get("surjective") != expect["surjective"]:
            return (f"hom gave well_defined={res.get('well_defined')} "
                    f"surjective={res.get('surjective')}"), facts
        return None, facts
    if kind == "witness":
        names, pos = _vectors(doc)
        r = len(names)
        argv = case["argv"]
        a = _vec(pos, r, json.loads(argv[argv.index("--left") + 1]))
        b = _vec(pos, r, json.loads(argv[argv.index("--right") + 1]))
        equal = classes_equal(doc, a, b)
        facts["equal"] = equal
        if res.get("equal") is not equal:
            return f"equal={res.get('equal')}, oracle says {equal}", facts
        witness = res.get("witness")
        if not equal:
            return (None if witness is None else "witness reported for unequal classes"), facts
        facts["certified"] = witness is not None and witness_holds(doc, a, b, witness)
        if witness is not None and not facts["certified"]:
            return "reported witness fails re-verification", facts
        return None, facts
    return f"unknown check {kind!r}", facts
