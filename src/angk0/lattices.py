"""Exact integer linear algebra: normal forms, row lattices, and finitely
generated abelian groups presented as quotients of Z^r.

Everything runs on Python's arbitrary-precision integers.  Intermediate
entries in the normal-form routines can exceed machine words even for small
inputs, so no fixed-width shortcuts are taken anywhere.

The row Hermite form serves both normal forms: the Smith form alternates it
on rows and on columns.  It has two passes.  The plain elimination carries
companion matrices on request.  It serves only the public
`hermite_normal_form` and `smith_normal_form`, the Smith form of an
infinite group, and the joins (`Lattice.join`, the ring's ideal closure,
the prime test), whose rows are a Hermite basis plus a few more.  The
modular pass works mod a known multiple D of the index of a full-rank
lattice, so no entry outgrows D.  Every other `Lattice`, of any shape and
rank, takes one Bareiss elimination with a column profile, which gives D.
At D = 1 (index 1) the basis on the pivot columns is the identity; else a
Schur-complement step mod D leaves the modular pass only the columns past
the last leading minor prime to D.  The pivotless columns are lifted
exactly from the Bareiss rows.  Bareiss pivots are prime to 30 where they
can be, so leading minors miss 2, 3 and 5, the primes D most often carries,
and the modular pass gets one or two columns on random rows.  A Bezout step
takes `math.gcd` and one modular inverse (`xgcd`).
`FgAbelianGroup` drops the unit pivots of its Hermite basis, which split
off, and runs the Smith form on the block left, mod the group order when
the group is finite.  `enumerate_subgroups` writes each subgroup's Hermite
basis down and runs no elimination.
"""

from __future__ import annotations

import itertools
import math

from .errors import InfiniteGroupError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    # x * a + y * b == g == gcd(a, b).  x inverts a / g mod m = |b| / g, taken
    # in (-m/2, m/2] as Euclid's is; x = sign(a), or 1 for a = 0, when b = 0.
    g = math.gcd(a, b)
    if not b:
        return (-1 if a < 0 else 1), 0, g
    m = abs(b) // g
    x = pow(a // g, -1, m)
    if 2 * x > m:
        x -= m
    return x, (g - x * a) // b, g


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        data = tuple([tuple(map(int, row)) for row in entries])
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, found {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.entries = data
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        cols = list(zip(*other.entries)) or [()] * other.cols  # empty when no rows
        out = [
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in self.entries
        ]
        return IntMatrix(out, cols=other.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def apply_matrix(vec, matrix: IntMatrix) -> tuple[int, ...]:
    """Image of a row vector under right multiplication by `matrix`."""
    vec = tuple(vec)
    if len(vec) != matrix.rows:
        raise ValueError("vector length does not match matrix row count")
    out = [0] * matrix.cols
    for x, row in zip(vec, matrix.entries):
        if x:
            for j, m in enumerate(row):
                out[j] += x * m
    return tuple(out)


def _row_combine(a, u, r, i, col):
    # Make a[r][col] = gcd(a[r][col], a[i][col]) and a[i][col] = 0 with a
    # unimodular operation on rows r and i, mirrored on u unless u is None.
    ar, ai = a[r][col], a[i][col]
    if ai == 0:
        return
    mats = (a,) if u is None else (a, u)
    if ar == 0:
        for m in mats:
            m[r], m[i] = m[i], m[r]
    elif ai % ar == 0:
        q = ai // ar
        for m in mats:
            m[i] = [x - q * y for x, y in zip(m[i], m[r])]
    else:
        x, y, g = xgcd(ar, ai)
        p, q = ai // g, ar // g  # det [[x, y], [-p, q]] = (x*ar + y*ai)/g = 1
        for m in mats:
            m[r], m[i] = (
                [x * s + y * t for s, t in zip(m[r], m[i])],
                [-p * s + q * t for s, t in zip(m[r], m[i])],
            )


def _hermite_rows(a, cols, u=None):
    # Bring the row lists a to Hermite normal form in place, mirroring every
    # row operation on u unless u is None.
    mats = (a,) if u is None else (a, u)
    piv = 0
    for col in range(cols):
        if piv >= len(a):
            break
        for i in range(piv + 1, len(a)):
            _row_combine(a, u, piv, i, col)
        if a[piv][col] == 0:
            continue
        if a[piv][col] < 0:
            for m in mats:
                m[piv] = [-x for x in m[piv]]
        for i in range(piv):
            q = a[i][col] // a[piv][col]
            if q:
                for m in mats:
                    m[i] = [x - q * y for x, y in zip(m[i], m[piv])]
        piv += 1


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (h, u) with u unimodular, u @ m == h, every pivot positive,
    entries above a pivot reduced into [0, pivot), and zero rows at the
    bottom.  The nonzero rows are the canonical basis of the row span.
    """
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    _hermite_rows(a, m.cols, u)
    return IntMatrix(a, cols=m.cols), IntMatrix(u, cols=m.rows)


def _smith_diagonal(a, cols, u=None, v=None, det=0):
    # Bring the row lists a to Smith normal form in place, mirroring row
    # operations on u and column operations on v unless they are None, and
    # return the diagonal.  Column and row Hermite eliminations alternate
    # (Kannan and Bachem 1979); a column one is a row one on the transpose.
    # Given det, |det a| for a square nonsingular a, and no
    # transforms, every pass runs mod det, as the row and column lattices of
    # each matrix in the loop have index det.
    # The loop stops, before its first pass too, once a is diagonal and
    # nonnegative with each entry dividing the next.  It ends: each column+row pair strictly shrinks the leading
    # unsettled diagonal entry or leaves its row and column clear for good,
    # and the fix-up shrinks one diagonal entry to a proper divisor, leaving
    # those before it alone.  The column pass goes first, as the row pass
    # would reduce the added row away again and cycle on diag(2, 3).
    n = min(len(a), cols)
    if n == 0:
        return []
    vt = None if v is None else [list(col) for col in zip(*v)]
    while True:
        d = [a[i][i] for i in range(n)]
        if min(d) >= 0 and not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(a)):
            t = next((i for i in range(n - 1) if (d[i + 1] % d[i] if d[i] else d[i + 1])), None)
            if t is None:
                break
            for m in (a,) if u is None else (a, u):
                m[t] = [x + y for x, y in zip(m[t], m[t + 1])]
        at = [list(col) for col in zip(*a)]
        if det:
            at = _hermite_mod(at, len(a), det)
        else:
            _hermite_rows(at, len(a), vt)
        a[:] = [list(row) for row in zip(*at)]
        if det:
            a[:] = _hermite_mod(a, cols, det)
        else:
            _hermite_rows(a, cols, u)
    if v is not None:
        v[:] = [list(row) for row in zip(*vt)]
    return d


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (d, u, v) with u, v unimodular and u @ m @ v == d, where d is
    diagonal with nonnegative entries satisfying d[i] | d[i+1].
    """
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    _smith_diagonal(a, m.cols, u, v)
    return IntMatrix(a, cols=m.cols), IntMatrix(u, cols=m.rows), IntMatrix(v, cols=m.cols)


def _bareiss(a, cols, rows=None):
    # Fraction-free elimination, in place, of the rows a, skipping each column
    # with no pivot; rows, when given, is permuted alongside a.  Returns the
    # pivot columns P and the sign of the row permutation.  By Sylvester's
    # identity row t ends holding (t+1) x (t+1) minors of the permuted input:
    # right of its pivot, a[t][c] is taken on rows 0..t and columns P[0..t-1]
    # and c, so a[t][P[t]] is the leading minor on P.  Column P[-1] keeps,
    # in every row from len(P) - 1 down, the minor on rows 0..len(P)-2, that
    # row and columns P.  Left of a row's pivot, pivotless columns hold 0 and
    # pivot columns stale values.  A pivot of the previous pivot's size comes
    # first: rows with a zero in the pivot column keep their entries up to
    # sign; else the first prime to 30, else the one sharing least with 30.
    sign, prev, piv = 1, 1, []
    for c in range(cols):
        t = len(piv)
        if t == len(a):
            break
        p, g = None, 31
        for i in range(t, len(a)):
            x = a[i][c]
            if x == prev or x == -prev:
                p = i
                break
            if x and g > 1 and (h := math.gcd(x, 30)) < g:
                p, g = i, h
        if p is None:
            continue
        if p != t:
            a[t], a[p] = a[p], a[t]
            if rows is not None:
                rows[t], rows[p] = rows[p], rows[t]
            sign = -sign
        pivot, head = a[t][c], a[t][c + 1 :]
        for row in a[t + 1 :]:
            x = row[c]
            if x:
                row[c + 1 :] = [(y * pivot - x * z) // prev for y, z in zip(row[c + 1 :], head)]
            elif pivot == -prev:
                row[c + 1 :] = [-y for y in row[c + 1 :]]
            elif pivot != prev:
                row[c + 1 :] = [y * pivot // prev for y in row[c + 1 :]]
        prev = pivot
        piv.append(c)
    return piv, sign


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    if m.rows == 0:
        return 1
    a = [list(row) for row in m.entries]
    piv, sign = _bareiss(a, m.cols)
    return sign * a[-1][-1] if len(piv) == m.cols else 0


def _adjugate_solve(a, piv, j, cols):
    # adj(A11) @ A12 and det(A11), for A11 the leading j x j block on the
    # pivot columns of the rows that _bareiss left in a, and A12 the same
    # rows on cols.  Back-substitution on the Bareiss rows 0..j-1, scaled by
    # det(A11) = a[j-1][piv[j-1]]: x_i = (det * a[i][c] - sum over l > i of
    # a[i][piv[l]] * x_l) / a[i][piv[i]], an exact quotient by Cramer's rule.
    if not j:
        return [], 1
    det = a[j - 1][piv[j - 1]]
    x = [None] * (j - 1) + [[a[j - 1][c] for c in cols]]
    for i in range(j - 2, -1, -1):
        row = a[i]
        acc = [det * row[c] for c in cols]
        for l in range(i + 1, j):
            e = row[piv[l]]
            if e:
                acc = [u - e * v for u, v in zip(acc, x[l])]
        p = row[piv[i]]
        x[i] = [u // p for u in acc]
    return x, det


def _hermite_basis(rows, cols):
    # The Hermite basis of the row span L of rows (int tuples of length
    # cols), in three steps (Pernet and Stein, J. Number Theory 130, 2010).
    # 1. Bareiss with a column profile gives the pivot columns P, k = |P|,
    #    and D, the gcd of the k x k minors on P that it leaves in column
    #    P[-1].  Projecting onto P is one-to-one on L, and D is a multiple of
    #    the index of the image L_P in Z^k.
    # 2. When D = 1, L_P = Z^k: its basis is the identity, and step 3
    #    follows at once.  Else split the permuted rows at the largest j < k
    #    whose leading minor on P, det(A11), is prime to D.  Mod D, A11 is
    #    invertible, so L_P is spanned by [I, X] and [0, S] with
    #    X = A11^-1 A12 and S = A22 - A21 X, A21 and A22 taken from the input
    #    rows: L_P has unit pivots on its first j columns, and the modular
    #    pass runs on S alone, whose lattice has L_P's index.  The top rows
    #    are [I, X] reduced by S's basis.  The minors are the Bareiss pivots,
    #    prime to 30 where they can be: a prime p divides a random integer
    #    with odds 1/p, so 2, 3 and 5 are what D shares most.
    # 3. Lift: every h in L is h_P T for T = E_P^-1 E_free, E the Bareiss
    #    rows 0..k-1 on P and on the pivotless columns; det(E_P) T is
    #    integral and comes from the same back-substitution as X.
    orig = [row for row in rows if any(row)]
    a = [list(row) for row in orig]
    piv, _ = _bareiss(a, cols, orig)
    k = len(piv)
    if not k:
        return []
    d = math.gcd(*(row[piv[-1]] for row in a[k - 1 :]))
    j = k
    if d == 1:
        basis = [[0] * l + [1] + [0] * (k - l - 1) for l in range(k)]
    else:
        while j and math.gcd(a[j - 1][piv[j - 1]], d) != 1:
            j -= 1
        tail = piv[j:]
        x, det = _adjugate_solve(a, piv, j, tail)
        inv = pow(det, -1, d)
        x = [[v * inv % d for v in row] for row in x]
        schur = []
        for row in orig[j:]:
            acc = [row[c] for c in tail]
            for c, v in zip(piv, x):
                e = row[c]
                if e:
                    acc = [y - e * z for y, z in zip(acc, v)]
            schur.append(acc)
        low = _hermite_mod(schur, k - j, d)
        basis = []
        for l, v in enumerate(x):
            for n, h in enumerate(low):
                q = v[n] // h[n]
                if q:
                    v[n:] = [y - q * z for y, z in zip(v[n:], h[n:])]
            basis.append([0] * l + [1] + [0] * (j - l - 1) + v)
        basis += [[0] * j + h for h in low]
    if k == cols:
        return basis
    pivots = set(piv)
    free = [c for c in range(cols) if c not in pivots]
    t, det = _adjugate_solve(a, piv, k, free)
    where = [0] * cols
    for i, c in enumerate(piv + free):
        where[c] = i
    lifted = []
    for l, h in enumerate(basis):
        acc = t[l] if l < j else [0] * len(free)
        for y, w in zip(h[j:], t[j:]):
            if y:
                acc = [u + y * z for u, z in zip(acc, w)]
        row = h + [u // det for u in acc]
        lifted.append([row[i] for i in where])
    return lifted


def _hermite_mod(rows, cols, d):
    # The Hermite basis of the full-rank lattice L spanned by rows, given a
    # multiple d of [Z^cols : L], so that L contains d * Z^cols and entries
    # can be reduced mod d (Domich, Kannan and Trotter 1987; Cohen, GTM 138,
    # Alg. 2.4.8).  Column j's pivot is g = gcd(column j, d).  The lattice
    # left below it, L' = {v in L : v_0 = ... = v_j = 0}, has index dividing
    # d / g, so the pass goes on mod d / g and needs no extra row.  Work rows
    # are full length but only read right of the current column; an entry
    # that is 0 mod d counts as 0.  A unit pivot, when there is one, is
    # scaled to 1 and goes first, so one subtraction clears each other row.
    basis, mod = [], d
    work = [[x % d for x in row] for row in rows]
    for j in range(cols):
        live = [row for row in work if row[j] % d]
        if live:
            for i, row in enumerate(live):
                if math.gcd(row[j], d) == 1:
                    x = pow(row[j], -1, d)
                    row[j:] = [1] + [x * y % d for y in row[j + 1 :]]
                    live.insert(0, live.pop(i))
                    break
            piv = live[0]
            work = [row for row in work if row is not piv]
            for row in live[1:]:
                a, b = piv[j], row[j]
                if b % a == 0:
                    q = b // a
                    row[j + 1 :] = [(y - q * z) % d for y, z in zip(row[j + 1 :], piv[j + 1 :])]
                    continue
                x, y, g = xgcd(a, b)
                p, q = b // g, a // g  # det [[x, y], [-p, q]] = 1
                piv[j + 1 :], row[j + 1 :] = (
                    [(x * s + y * t) % d for s, t in zip(piv[j + 1 :], row[j + 1 :])],
                    [(q * t - p * s) % d for s, t in zip(piv[j + 1 :], row[j + 1 :])],
                )
                piv[j] = g
            g = math.gcd(piv[j], d)
            d //= g
            x = pow(piv[j] // g, -1, d)  # x * piv[j] = g mod the old d
            head = [x * v % d for v in piv[j + 1 :]]
        else:
            g, d, head = d, 1, [0] * (cols - j - 1)
        basis.append([0] * j + [g] + head)
    # Size reduction, mod the first d: d * e_k lies in the span of rows k..
    for j in range(1, cols):
        pivot_row = basis[j]
        for i in range(j):
            q = basis[i][j] // pivot_row[j]
            if q:
                basis[i][j:] = [(x - q * y) % mod for x, y in zip(basis[i][j:], pivot_row[j:])]
    return basis


def _pivot(row) -> int:
    # Column of the first nonzero entry, or len(row) for a zero row.
    return next((j for j, x in enumerate(row) if x), len(row))


def reduced_solution(rows, target) -> tuple[int, ...] | None:
    """A short integer c with sum_i c[i] * rows[i] == target, or None.

    The LLL-based Hermite elimination of Havas, Majewski and Matthews
    (Experiment. Math. 7(2), 1998, Alg. 4, less its sign normalisation)
    echelons the rows by a small unimodular transform b, whose rows with a
    zero echelon row come first as an LLL-reduced (delta 3/4) kernel basis.
    b's Gram-Schmidt data are integers: d[i], the Gram determinant of rows
    1..i, and lam[k][j] (Cohen, GTM 138, Alg. 2.6.7).  Back-substitution
    gives one solution, and Babai's nearest plane on the kernel basis makes
    |c| at most 2^(k/2) times the norm of any solution, k the kernel rank.
    """
    m, cols = len(rows), len(target)
    a = [None] + [list(row) for row in rows]  # 1-based, like b, d and lam
    if any(len(row) != cols for row in a[1:]):
        raise ValueError("rows and target differ in length")
    b = [None] + [[int(i == j) for j in range(m)] for i in range(m)]
    d = [1] * (m + 1)
    lam = [[0] * (m + 1) for _ in range(m + 1)]

    def reduce(k, i):
        # Euclid on an echelon row, size reduction on a kernel row.  Pivot
        # signs are left as they fall, since no canonical form is needed.
        col = _pivot(a[i])
        q = a[k][col] // a[i][col] if col < cols else (2 * lam[k][i] + d[i]) // (2 * d[i])
        if q:
            a[k] = [x - q * y for x, y in zip(a[k], a[i])]
            b[k] = [x - q * y for x, y in zip(b[k], b[i])]
            lam[k][i] -= q * d[i]
            for j in range(1, i):
                lam[k][j] -= q * lam[i][j]

    # Rows end zero rows first, then by strictly decreasing pivot column: a
    # row swaps below its successor when its pivot is no later, and two
    # kernel rows swap by the Lovasz condition.
    k = 2
    while k <= m:
        reduce(k, k - 1)
        col1, col2 = _pivot(a[k - 1]), _pivot(a[k])
        mu = lam[k][k - 1]
        if col1 < cols and col1 <= col2 or col1 == col2 == cols and (
                4 * (d[k - 2] * d[k] + mu * mu) < 3 * d[k - 1] ** 2):
            a[k], a[k - 1], b[k], b[k - 1] = a[k - 1], a[k], b[k - 1], b[k]
            lam[k][1:k - 1], lam[k - 1][1:k - 1] = lam[k - 1][1:k - 1], lam[k][1:k - 1]
            for i in range(k + 1, m + 1):
                t = lam[i][k - 1] * d[k] - lam[i][k] * mu
                lam[i][k - 1] = (lam[i][k - 1] * mu + lam[i][k] * d[k - 2]) // d[k - 1]
                lam[i][k] = t // d[k - 1]
            d[k - 1] = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
            k = max(k - 1, 2)
        else:
            for i in range(k - 2, 0, -1):
                reduce(k, i)
            k += 1

    kernel = next((k for k in range(1, m + 1) if any(a[k])), m + 1) - 1
    row_of = {_pivot(a[k]): k for k in range(kernel + 1, m + 1)}
    v, c = [int(x) for x in target], [0] * m
    for j in range(cols):
        if v[j]:
            k = row_of.get(j)
            if k is None or v[j] % a[k][j]:
                return None
            q = v[j] // a[k][j]
            v = [x - q * y for x, y in zip(v, a[k])]
            c = [x + q * y for x, y in zip(c, b[k])]
    # Nearest plane, with lc[j] = d[j-1] <c, b_j*> built like the
    # coefficients of a row added to the integral LLL.
    lc = [0] * (kernel + 1)
    for j in range(1, kernel + 1):
        u = sum(x * y for x, y in zip(c, b[j]))
        for i in range(1, j):
            u = (d[i] * u - lam[j][i] * lc[i]) // d[i - 1]
        lc[j] = u
    for j in range(kernel, 0, -1):
        q = (2 * lc[j] + d[j]) // (2 * d[j])
        if q:
            c = [x - q * y for x, y in zip(c, b[j])]
            for i in range(1, j):
                lc[i] -= q * lam[j][i]
    return tuple(c)


class Lattice:
    """An integer row span inside Z^r, stored by its canonical Hermite basis.

    Canonical storage makes equality of lattices equality of the stored
    bases, which the ideal closure's set of found lattices relies on.
    """

    __slots__ = ("ambient_rank", "basis")

    def __init__(self, ambient_rank: int, rows=(), *, _checked=False, _plain=False):
        # _checked marks int tuples of length ambient_rank (the relation rows,
        # `is_surjective`), which skip validation.  _plain marks such rows
        # that are a Hermite basis plus a few rows (`join`, the join closure,
        # the prime test): the plain elimination finishes them faster than
        # Bareiss alone would run.
        if _plain:
            a = [list(row) for row in rows]
            _hermite_rows(a, ambient_rank)
        else:
            if not _checked:
                rows = IntMatrix(rows, cols=ambient_rank).entries
            a = _hermite_basis(rows, ambient_rank)
        self.ambient_rank = ambient_rank
        self.basis = tuple(tuple(row) for row in a if any(row))

    @classmethod
    def _from_hermite(cls, ambient_rank: int, basis) -> "Lattice":
        # basis is a Hermite basis of int tuples (`enumerate_subgroups`)
        lat = object.__new__(cls)
        lat.ambient_rank, lat.basis = ambient_rank, basis
        return lat

    @property
    def rank(self) -> int:
        return len(self.basis)

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coset representative of a vector in Z^r.

        Every pivot entry of the result lies in [0, pivot), and two vectors
        reduce alike exactly when their difference lies in the lattice.
        """
        v = [int(x) for x in vec]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        self._reduce_rows((v,))
        return tuple(v)

    def reduce_all(self, vecs) -> list[tuple[int, ...]]:
        """`reduce` of each vector, in one pass over the basis."""
        vs = [[int(x) for x in vec] for vec in vecs]
        if any(len(v) != self.ambient_rank for v in vs):
            raise ValueError("vector length does not match ambient rank")
        self._reduce_rows(vs)
        return [tuple(v) for v in vs]

    def _reduce_rows(self, vs):
        # Each basis row in turn reduces every list in vs, in place.  Pivot
        # columns strictly increase down the basis, so one forward scan finds
        # them, and later rows never touch earlier pivot columns, so greedy
        # reduction lands in a fundamental domain (Cohen, GTM 138, 2.4.3).
        r, col = self.ambient_rank, 0
        for row in self.basis:
            while not row[col]:
                col += 1
            p = row[col]
            for v in vs:
                q = v[col] // p
                if q:
                    for k in range(col, r):
                        v[k] -= q * row[k]

    def __contains__(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.ambient_rank != self.ambient_rank:
            raise ValueError("ambient ranks differ")
        return all(row in self for row in other.basis)

    def join(self, rows) -> "Lattice":
        """Smallest lattice containing self and the given rows."""
        rows = IntMatrix(rows, cols=self.ambient_rank).entries
        return Lattice(self.ambient_rank, self.basis + rows, _plain=True)

    def is_full(self) -> bool:
        # A Hermite basis of full rank with unit pivots is the identity.
        return self.index_in_ambient() == 1

    def coset_reps(self):
        """Canonical coset reps of a full-rank lattice: 0 <= v_i < basis[i][i]."""
        return itertools.product(*(range(row[i]) for i, row in enumerate(self.basis)))

    def index_in_ambient(self) -> int | None:
        """[Z^r : L] when L has full rank, else None."""
        if self.rank != self.ambient_rank:
            return None
        return math.prod(row[i] for i, row in enumerate(self.basis))

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"Lattice({self.ambient_rank}, {[list(r) for r in self.basis]!r})"


class FgAbelianGroup:
    """Z^r modulo an integer row lattice.

    Holds its relations and free rank; elements are held by the canonical
    coset representatives of `relations.reduce`.
    """

    __slots__ = ("ambient_rank", "relations", "free_rank")

    def __init__(self, relations: Lattice):
        self.relations = relations
        self.ambient_rank = relations.ambient_rank
        self.free_rank = self.ambient_rank - relations.rank

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """The invariant factors above 1, computed on each read."""
        # A unit pivot's column is zero in every other row of a Hermite
        # basis, so its row and column split off and the Smith form runs on
        # the rest; the group order is the determinant of that block.
        rows, units, c = [], set(), 0
        for row in self.relations.basis:
            while not row[c]:
                c += 1
            if row[c] == 1:
                units.add(c)
            else:
                rows.append(row)
        cols = [c for c in range(self.ambient_rank) if c not in units]
        a = [[row[c] for c in cols] for row in rows]
        diag = _smith_diagonal(a, len(cols), det=self.order() or 0)
        return tuple(x for x in diag if x > 1)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        return self.relations.index_in_ambient()

    def element(self, vec) -> "GroupElement":
        return GroupElement(self, self.relations.reduce(vec))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ambient_rank)

    def elements(self):
        """All elements of a finite group, by canonical representative."""
        if not self.is_finite:
            raise InfiniteGroupError("cannot enumerate an infinite group")
        for rep in self.relations.coset_reps():
            yield GroupElement(self, rep)

    def __eq__(self, other):
        return isinstance(other, FgAbelianGroup) and self.relations == other.relations

    def __hash__(self):
        return hash(self.relations)

    def __repr__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{f}" for f in self.invariant_factors]
        return f"FgAbelianGroup({' + '.join(parts) if parts else '0'})"


class GroupElement:
    """An element of an FgAbelianGroup, held by canonical representative."""

    __slots__ = ("group", "vec")

    def __init__(self, group: FgAbelianGroup, vec: tuple[int, ...]):
        self.group = group
        self.vec = vec

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return self.group.element([a + b for a, b in zip(self.vec, other.vec)])

    def __neg__(self) -> "GroupElement":
        return self.group.element([-a for a in self.vec])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        return self.group.element([k * a for a in self.vec])

    @property
    def is_zero(self) -> bool:
        return not any(self.vec)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return f"GroupElement({list(self.vec)!r})"


class Subgroup:
    """A subgroup of an FgAbelianGroup, stored as its full preimage lattice
    in Z^r (which always contains the relation lattice)."""

    __slots__ = ("group", "preimage")

    def __init__(self, group: FgAbelianGroup, preimage: Lattice):
        if not preimage.contains_lattice(group.relations):
            raise ValueError("preimage lattice must contain the relation lattice")
        self.group = group
        self.preimage = preimage

    @classmethod
    def _above_relations(cls, group: FgAbelianGroup, preimage: Lattice) -> "Subgroup":
        # preimage holds group.relations by construction: skip the test
        sub = object.__new__(cls)
        sub.group, sub.preimage = group, preimage
        return sub

    def contains(self, element: GroupElement) -> bool:
        if element.group != self.group:
            raise ValueError("element of a different group")
        return element.vec in self.preimage

    def generators(self) -> list[GroupElement]:
        """Group elements generating the subgroup (classes of basis rows)."""
        return [self.group.element(row) for row in self.preimage.basis]

    def order(self) -> int | None:
        """|H| = |G| / [Z^r : preimage] for finite groups."""
        order = self.group.order()
        return None if order is None else order // self.preimage.index_in_ambient()

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.preimage == other.preimage
        )

    def __hash__(self):
        return hash(self.preimage)

    def __repr__(self):
        return f"Subgroup(basis={[list(r) for r in self.preimage.basis]!r})"


def subgroup_from_generators(group: FgAbelianGroup, gens) -> Subgroup:
    """The subgroup generated by the given elements."""
    rows = []
    for g in gens:
        if g.group != group:
            raise ValueError("generator from a different group")
        rows.append(g.vec)
    return Subgroup._above_relations(group, group.relations.join(rows))


def _join_closure(group: FgAbelianGroup, rows_of) -> list[Subgroup]:
    # Close a finite group's relations under joins with rows_of(v) for each
    # nonzero coset rep v: v's principal ideal for the ring, or (v,) as the
    # tests' oracle for `enumerate_subgroups`.  The join with a found lattice
    # depends only on v's coset.  rows_of returns int tuples of length r, so
    # the joins skip `join`'s row check.
    r = group.ambient_rank
    found, pending = {group.relations}, [group.relations]
    while pending:
        current = pending.pop()
        new = {Lattice(r, current.basis + rows_of(v), _plain=True)
               for v in current.coset_reps() if any(v)} - found
        found |= new
        pending += new
    return [Subgroup._above_relations(group, lattice)
            for lattice in sorted(found, key=lambda lat: lat.basis)]


def enumerate_subgroups(group: FgAbelianGroup) -> list[Subgroup]:
    """Every subgroup of a finite group, in lexicographic basis order.

    Subgroups correspond to the lattices M between the relation lattice L
    and Z^r.  Each M is written down as its Hermite basis, bottom row first
    (Cohen, GTM 138, 2.4.3): row i has a pivot h dividing L_ii, and L lies
    in M exactly when (L_ii / h) M_i - L_i lies in the span of the rows
    below, so each entry x_j in [0, M_jj) right of the pivot solves
    (L_ii / h) x_j + w_j = 0 mod M_jj, w being -L_i less the multiples of the
    rows below taken so far.  A unit pivot of L leaves one choice, L_i
    reduced by M: the search runs on the other rows, which are written first.
    """
    if not group.is_finite:
        raise InfiniteGroupError("subgroup enumeration requires a finite group")
    r, rel = group.ambient_rank, group.relations.basis
    block = [i for i in range(r) if rel[i][i] != 1]
    units = [(i, row) for i, row in enumerate(rel) if row[i] == 1]
    rows, found = [None] * len(block), []

    def search(b):
        # Rows b+1.. of the block are chosen: choose row b, or write M out.
        if b < 0:
            full = list(rows)
            for i, v in units:
                for col, row in zip(block, rows):
                    q = v[col] // row[col]
                    if q:
                        v = tuple([a - q * y for a, y in zip(v, row)])
                full.insert(i, v)
            found.append(tuple(full))
            return
        i, lii = block[b], rel[block[b]][block[b]]
        for c in [c for c in range(1, lii + 1) if lii % c == 0]:
            partial = [((0,) * i + (lii // c,) + (0,) * (r - i - 1), [-a for a in rel[i]])]
            for col, below in zip(block[b + 1:], rows[b + 1:]):
                m = below[col]
                g = math.gcd(c, m)
                step = m // g
                inv = pow(c // g, -1, step)
                nxt = []
                for x, w in partial:
                    if w[col] % g == 0:
                        for t in range(-w[col] // g * inv % step, m, step):
                            q = (c * t + w[col]) // m
                            y = [a - q * z for a, z in zip(w, below)]
                            nxt.append((x[:col] + (t,) + x[col + 1:], y))
                partial = nxt
            for rows[b], _ in partial:
                search(b - 1)

    search(len(block) - 1)
    return [Subgroup._above_relations(group, Lattice._from_hermite(r, basis))
            for basis in sorted(found)]


class GroupHom:
    """A homomorphism between quotient groups, induced by an integer matrix
    on the ambient spaces (row vectors act on the left).

    Unchecked: the caller vouches that the matrix maps the source relations
    into the target relations.  `embeddings.induced_hom` is the checked
    constructor.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup, matrix: IntMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def __call__(self, element: GroupElement) -> GroupElement:
        if element.group != self.source:
            raise ValueError("element not in the source group")
        return self.target.element(apply_matrix(element.vec, self.matrix))

    def __repr__(self):
        return f"GroupHom({self.matrix!r})"


def is_surjective(hom: GroupHom) -> bool:
    """True iff the image lattice plus the target relations is all of Z^r."""
    if hom.matrix.cols != hom.target.ambient_rank:
        raise ValueError("matrix width does not match the target rank")
    rows = hom.matrix.entries + hom.target.relations.basis
    return Lattice(hom.target.ambient_rank, rows, _checked=True).is_full()
