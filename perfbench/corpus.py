"""Seeded case lists for the three benchmark workloads.

This module uses the standard library only: the same generator runs in the
measured process (as part of set-up) and in the checking process (to know
what each case should answer), and neither may depend on angk0 to decide
what its inputs are.

A corpus is a dict with ``files`` (file name -> JSON document) and ``cases``
(a list of dicts with ``id``, ``argv`` and ``expect``).  An argv entry that
names a key of ``files`` is replaced by the path of the written file.
"""

from __future__ import annotations

import random

WORKLOADS = ("k0-wide", "classify-enum", "desk-mix")

# The small-coefficient r = 19..24 and large-coefficient r = 11..16 matrices
# come from this fixed stream, not from --seed.  On the seed code one such
# matrix can take 100 times the median case (the discarded HNF transform
# grows without bound), so drawing them per seed would make corpus_s and
# call_p90_ms follow the seed more than the code.  The 44 anchors hold the
# slowest tenth of the cases; --seed draws the 84 smaller matrices
# (r = 16..18 and r = 8..10), where the median case lies.
ANCHOR_SEED = 20120523
# Witness pairs also come from a fixed stream: whether bound 2 finds a
# witness depends on the drawn presentation, and witness_certified_share
# must compare like with like across seeds.
WITNESS_SEED = 9


def _names(r: int) -> list[str]:
    return [f"s{i}" for i in range(r)]


def _obj(names, vec) -> dict:
    return {names[j]: x for j, x in enumerate(vec) if x}


def _doc(n, names, susp, angles, tensor=None) -> dict:
    doc = {
        "n": n,
        "indecomposables": list(names),
        "suspension": {names[j]: names[susp[j]] for j in range(len(names))},
        "angles": [[_obj(names, v) for v in angle] for angle in angles],
    }
    if tensor is not None:
        doc["tensor"] = tensor
    return doc


def matrix_doc(rows, r: int, n: int = 4, susp=None) -> dict:
    """A presentation whose Euler span contains exactly the given rows.

    Row m becomes the angle (m+, m-, 0, ..., 0).  With n = 4 and the
    identity suspension the suspension rows vanish, so the relation lattice
    is the row span of the matrix.
    """
    names = _names(r)
    angles = []
    for row in rows:
        pos = [max(x, 0) for x in row]
        neg = [max(-x, 0) for x in row]
        angles.append([pos, neg] + [[0] * r] * (n - 2))
    return _doc(n, names, susp if susp is not None else list(range(r)), angles)


def _shape_rows(r: int, shape: str) -> int:
    return {"square": r, "tall": r + 4, "short": r - 2}[shape]


def _matrix(rng, rows, r, bound):
    return [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(rows)]


def k0_wide(seed: int) -> dict:
    files, cases = {}, []

    def add(tag, doc):
        name = f"m{len(cases):03d}.json"
        files[name] = doc
        cases.append({"id": f"{len(cases):03d}-{tag}", "argv": ["k0", name, "--json"],
                      "expect": {"check": "k0"}})

    shapes = ("square", "tall", "short")
    anchor = random.Random(ANCHOR_SEED)
    for r in range(19, 25):
        for shape in shapes:
            rows = _matrix(anchor, _shape_rows(r, shape), r, 3)
            add(f"anchor-small-{shape}-r{r}", matrix_doc(rows, r))
    for r in range(11, 17):
        for shape in shapes:
            rows = _matrix(anchor, _shape_rows(r, shape), r, 1 << 40)
            add(f"anchor-large-{shape}-r{r}", matrix_doc(rows, r))
    for r in range(13, 17):
        for shape in ("square", "tall"):
            rows = _matrix(anchor, _shape_rows(r, shape), r, 1 << 40)
            add(f"anchor-large-{shape}-r{r}", matrix_doc(rows, r))

    rng = random.Random(seed)
    for i in range(84):
        shape = shapes[(i // 6) % 3]
        if i % 2 == 0:
            r, bound, kind = 16 + i // 2 % 3, 3, "small"
        else:
            r, bound, kind = 8 + i // 2 % 3, 1 << 40, "large"
        rows = _matrix(rng, _shape_rows(r, shape), r, bound)
        if i % 6 == 0:
            # odd n: the suspension rows e_j + S e_j join the span
            n = rng.choice((3, 5))
            susp = list(range(r))
            rng.shuffle(susp)
            add(f"odd{n}-{kind}-{shape}-r{r}", matrix_doc(rows, r, n, susp))
        else:
            add(f"{kind}-{shape}-r{r}", matrix_doc(rows, r))
    return {"files": files, "cases": cases}


def elementary_doc(k: int) -> dict:
    """(Z/2)^k: k symbols, n = 3, identity suspension, no angles."""
    return _doc(3, _names(k), list(range(k)), [])


def z2_on_doc(r: int) -> dict:
    """Z/2 on r symbols: angles force e_i = e_(i+1), suspension gives 2 e_j."""
    angles = []
    for i in range(r - 1):
        angles.append([[int(j == i) for j in range(r)], [int(j == i + 1) for j in range(r)],
                       [0] * r])
    return _doc(3, _names(r), list(range(r)), angles)


def two_cycle_doc(orders) -> dict:
    """A direct sum of cyclic groups, one 2-cycle (a b) per factor.

    The suspension row a + b makes each pair a copy of Z; the angle
    (d a, 0, 0) cuts it down to Z/d.
    """
    r = 2 * len(orders)
    susp = []
    for i in range(len(orders)):
        susp += [2 * i + 1, 2 * i]
    angles = []
    for i, d in enumerate(orders):
        first = [0] * r
        first[2 * i] = d
        angles.append([first, [0] * r, [0] * r])
    return _doc(3, _names(r), susp, angles)


G1_DOC = {
    "n": 3,
    "indecomposables": ["a", "b", "c"],
    "suspension": {"a": "a", "b": "b", "c": "c"},
    "angles": [[{"a": 1}, {"b": 1}, {"c": 1}]],
}
G2_DOC = {"n": 3, "indecomposables": ["x"], "suspension": {"x": "x"}, "angles": []}
F2_DOC = {
    "n": 3,
    "indecomposables": ["x"],
    "suspension": {"x": "x"},
    "angles": [],
    "tensor": {"unit": {"x": 1}, "table": {"x|x": {"x": 1}}},
}


def lattice_index(rows, r: int) -> int | None:
    """[Z^r : span(rows)] by gcd row elimination, or None if rank < r."""
    a = [list(row) for row in rows if any(row)]
    index = 1
    for col in range(r):
        live = [row for row in a if row[col]]
        if not live:
            return None
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[col]))
            pivot = live[0]
            for row in live[1:]:
                q = row[col] // pivot[col]
                for j in range(col, r):
                    row[j] -= q * pivot[j]
            live = [row for row in live if row[col]]
        pivot = live[0]
        index *= abs(pivot[col])
        a = [row for row in a if row is not pivot and any(row)]
    return index


def relation_rows(doc) -> list[list[int]]:
    """Euler vectors of the listed angles plus one suspension row per symbol."""
    names = doc["indecomposables"]
    pos = {name: j for j, name in enumerate(names)}
    r, n = len(names), doc["n"]
    rows = []
    for angle in doc["angles"]:
        row = [0] * r
        for i, vertex in enumerate(angle):
            sign = 1 if i % 2 == 0 else -1
            for name, mult in vertex.items():
                row[pos[name]] += sign * mult
        rows.append(row)
    sign = 1 if n % 2 else -1
    for j, name in enumerate(names):
        row = [0] * r
        row[j] += 1
        row[pos[doc["suspension"][name]]] += sign
        rows.append(row)
    return rows


def random_presentation(rng, r: int, n: int, max_angles: int = 3, max_mult: int = 2) -> dict:
    susp = list(range(r))
    rng.shuffle(susp)
    angles = [
        [[rng.randint(0, max_mult) for _ in range(r)] for _ in range(n)]
        for _ in range(rng.randint(0, max_angles))
    ]
    return _doc(n, _names(r), susp, angles)


def _finite_presentation(rng, r: int, low: int, high: int) -> dict:
    """A random odd-n presentation on r symbols with group order in [low, high]."""
    while True:
        doc = random_presentation(rng, r, rng.choice((3, 5, 7)))
        order = lattice_index(relation_rows(doc), r)
        if order is not None and low <= order <= high:
            return doc


def classify_enum(seed: int) -> dict:
    files, cases = {}, []

    def add(tag, doc):
        name = f"c{len(cases):03d}.json"
        files[name] = doc
        cases.append({"id": f"{len(cases):03d}-{tag}", "argv": ["classify", name, "--json"],
                      "expect": {"check": "classify"}})

    add("g1", G1_DOC)
    add("g2", G2_DOC)
    add("z2^3", elementary_doc(3))
    add("z2^4", elementary_doc(4))
    for r in range(6, 13):
        add(f"z2-on-r{r}", z2_on_doc(r))
    for orders in ((9,), (64,), (2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 9)):
        add("z" + "x".join(map(str, orders)), two_cycle_doc(orders))

    # The cost of enumerate_subgroups is set by (symbol count, group order),
    # so the random cases follow a fixed schedule of both and the seed
    # draws the presentation inside each slot.  A third of the slots are
    # cheap (under 4 ms at seed) and the rest are order 8 on 3 symbols or
    # order 4 on 4 symbols (7-10 ms), so the median case lies inside that
    # tight group, and the slowest tenth are fixed cases.
    rng = random.Random(seed)
    schedule = [(2, 1, 16), (3, 1, 4), (4, 1, 2)] + [(3, 8, 8), (4, 4, 4)] * 3
    for i in range(82):
        r, low, high = schedule[i % len(schedule)]
        add(f"random-r{r}-order{low}-{high}", _finite_presentation(rng, r, low, high))
    return {"files": files, "cases": cases}


def componentwise_doc(k: int) -> dict:
    """F2^k: (Z/2)^k with e_i (x) e_j = delta_ij e_i and unit sum e_i."""
    names = _names(k)
    table = {}
    for i in range(k):
        for j in range(i, k):
            table[f"{names[i]}|{names[j]}"] = {names[i]: 1} if i == j else {}
    tensor = {"unit": {name: 1 for name in names}, "table": table}
    return _doc(3, names, list(range(k)), [], tensor)


def group_ring_doc(k: int) -> dict:
    """F2[C_k]: symbols g^0..g^(k-1), g^i (x) g^j = g^(i+j mod k)."""
    names = [f"g{i}" for i in range(k)]
    table = {}
    for i in range(k):
        for j in range(i, k):
            a, b = sorted((names[i], names[j]))
            table[f"{a}|{b}"] = {names[(i + j) % k]: 1}
    tensor = {"unit": {names[0]: 1}, "table": table}
    return _doc(3, names, list(range(k)), [], tensor)


T_SWAP = {"n": 3, "indecomposables": ["p", "q"], "suspension": {"p": "q", "q": "p"}, "angles": []}
T_THREE = {
    "n": 3,
    "indecomposables": ["p", "q", "s"],
    "suspension": {"p": "q", "q": "p", "s": "s"},
    "angles": [],
}
C_SINGLE = {"n": 4, "indecomposables": ["c"], "suspension": {"c": "c"}, "angles": []}


def rotate(angle, susp):
    """(A_2, ..., A_n, S A_1) for vertex vectors and the suspension as a list
    of image indices."""
    image = [0] * len(susp)
    for j, x in enumerate(angle[0]):
        image[susp[j]] += x
    return angle[1:] + [image]


def _two_term_pair(rng, doc):
    """Two objects with equal classes: the first vertices of two sums of
    at most two rotated angles that agree on every other vertex."""
    names = doc["indecomposables"]
    r, n = len(names), doc["n"]
    susp = [names.index(doc["suspension"][x]) for x in names]
    base = [[[v.get(x, 0) for x in names] for v in angle] for angle in doc["angles"]]
    for x in range(3 ** r):
        v = [x // 3 ** i % 3 for i in range(r)]
        if 0 < sum(v) <= 2:
            base.append([v, v] + [[0] * r] * (n - 2))
    pool = []
    for angle in base:
        for _ in range(n):
            pool.append(angle)
            angle = rotate(angle, susp)
    by_tail = {}
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            total = [[x + y for x, y in zip(u, v)] for u, v in zip(pool[i], pool[j])]
            tail = tuple(tuple(v) for v in total[1:])
            by_tail.setdefault(tail, set()).add(tuple(total[0]))
    buckets = sorted(sorted(heads) for heads in by_tail.values() if len(heads) >= 2)
    if not buckets:
        return None
    heads = sorted(buckets[rng.randrange(len(buckets))])
    a, b = rng.sample(heads, 2)
    return list(a), list(b)


def witness_cases(add, files):
    """Four r = 3, n = 3 presentations, each with three pairs at bounds 2
    and 3: an equal pair found among two-term sums, an equal pair that
    differs by a combination of relation rows, and a pair A, A + e_i that is
    unequal unless e_i is a relation."""
    rng = random.Random(WITNESS_SEED)
    made = 0
    while made < 4:
        doc = random_presentation(rng, 3, 3, max_angles=2)
        if not doc["angles"]:
            continue
        rows = relation_rows(doc)
        index = lattice_index(rows, 3)
        if index is None or index < 3:
            continue  # an unequal pair needs at least two classes
        pair = _two_term_pair(rng, doc)
        if pair is None:
            continue
        name = f"w{made}.json"
        files[name] = doc
        names = doc["indecomposables"]
        # A - B = a small combination of relation rows, shifted nonnegative
        combo = [0, 0, 0]
        for row in rng.sample(rows, 2):
            c = rng.choice((-1, 1))
            combo = [x + c * y for x, y in zip(combo, row)]
        far_a = [rng.randint(0, 2) for _ in range(3)]
        far_b = [x - y for x, y in zip(far_a, combo)]
        shift = [max(0, -x) for x in far_b]
        far_a = [x + s for x, s in zip(far_a, shift)]
        far_b = [x + s for x, s in zip(far_b, shift)]
        # A and A + e_i have equal classes only when e_i is a relation; the
        # checker decides, and the pair is kept either way
        odd_a = [rng.randint(0, 2) for _ in range(3)]
        odd_b = list(odd_a)
        odd_b[rng.randrange(3)] += 1
        for tag, a, b in (("two-term",) + pair, ("combo", far_a, far_b),
                          ("shifted", odd_a, odd_b)):
            for bound in (2, 3):
                add(f"witness-{made}-{tag}-b{bound}",
                    ["witness", name, "--left", _literal(names, a), "--right",
                     _literal(names, b), "--bound", str(bound), "--json"],
                    {"check": "witness"})
        made += 1


def _literal(names, vec) -> str:
    return "{" + ", ".join(f'"{names[j]}": {x}' for j, x in enumerate(vec) if x) + "}"


def desk_mix(seed: int) -> dict:
    """The goldens, rings, homs and witness pairs are fixed; --seed draws
    the refused inputs and the 30 small presentations for validate and k0."""
    files = {"g1.json": G1_DOC, "g2.json": G2_DOC, "f2.json": F2_DOC,
             "t_swap.json": T_SWAP, "t_three.json": T_THREE, "c_single.json": C_SINGLE,
             "map_pq.json": {"p": "p", "q": "q"}, "map_cp.json": {"c": "p"}}
    cases = []

    def add(tag, argv, expect):
        cases.append({"id": f"{len(cases):03d}-{tag}", "argv": argv, "expect": expect})

    for golden in ("g1", "g2", "f2"):
        path = f"{golden}.json"
        add(f"validate-{golden}", ["validate", path, "--json"], {"check": "validate"})
        add(f"k0-{golden}", ["k0", path, "--json"], {"check": "k0"})
        add(f"classify-{golden}", ["classify", path, "--json"], {"check": "classify"})
    # 40-60 ms at seed: with the eight bound-3 searches and the two k = 4
    # rings they are the slowest twelve cases, so call_p90_ms falls on a
    # fixed case with clear gaps on both sides
    for orders in ((2, 4), (3, 3)):
        name = "z" + "x".join(map(str, orders)) + ".json"
        files[name] = two_cycle_doc(orders)
        add(f"classify-{name[:-5]}", ["classify", name, "--json"], {"check": "classify"})
    for k in (2, 3, 4):
        files[f"ring_prod{k}.json"] = componentwise_doc(k)
        add(f"ring-f2^{k}", ["ring", f"ring_prod{k}.json", "--json"],
            {"check": "ring", "family": "componentwise", "k": k})
        files[f"ring_cyc{k}.json"] = group_ring_doc(k)
        add(f"ring-f2[c{k}]", ["ring", f"ring_cyc{k}.json", "--json"],
            {"check": "ring", "family": "group-ring", "k": k})
    add("hom-identity", ["hom", "t_swap.json", "t_swap.json", "map_pq.json", "--json"],
        {"check": "hom", "surjective": True})
    add("hom-synthetic", ["hom", "t_swap.json", "c_single.json", "map_cp.json", "--json"],
        {"check": "hom", "surjective": True})
    add("hom-unreachable", ["hom", "t_three.json", "c_single.json", "map_cp.json", "--json"],
        {"check": "hom", "surjective": False})
    witness_cases(add, files)

    rng = random.Random(seed)
    for i in range(4):
        name = f"even{i}.json"
        files[name] = random_presentation(rng, rng.randint(1, 3), rng.choice((4, 6)))
        add(f"refuse-even-{i}", ["classify", name, "--json"],
            {"check": "refuse", "reason": "EvenNUnsupported"})
    for i in range(4):
        name = f"big{i}.json"
        files[name] = elementary_doc(3 + i % 2)
        add(f"refuse-order-{i}", ["classify", name, "--max-order", str(2 + i), "--json"],
            {"check": "refuse", "reason": "OrderBound"})
    for i in range(4):
        # an even-length suspension cycle with no angles leaves a copy of Z
        r = rng.randint(2, 3)
        names = _names(r)
        susp = [1, 0] + list(range(2, r))
        name = f"inf{i}.json"
        files[name] = _doc(rng.choice((3, 5)), names, susp, [])
        add(f"refuse-infinite-{i}", ["classify", name, "--json"],
            {"check": "refuse", "reason": "InfiniteGroup"})
    for i in range(30):
        name = f"desk{i}.json"
        files[name] = random_presentation(rng, rng.randint(1, 5), rng.choice((3, 4, 5, 7)))
        add(f"validate-desk{i}", ["validate", name, "--json"], {"check": "validate"})
        add(f"k0-desk{i}", ["k0", name, "--json"], {"check": "k0"})
    return {"files": files, "cases": cases}


def build(workload: str, seed: int) -> dict:
    return {"k0-wide": k0_wide, "classify-enum": classify_enum, "desk-mix": desk_mix}[workload](seed)
