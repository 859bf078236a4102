"""Finitely presented categories with an n-term angle structure.

Objects are multiplicity vectors over a fixed list of indecomposable
symbols (so isomorphism is vector equality), the suspension acts by
permuting symbols, and the distinguished n-angles are recorded as tuples
of objects.  Morphism data is deliberately absent: every computation
downstream depends on objects only.
"""

from __future__ import annotations

from dataclasses import dataclass

ObjectVec = tuple[int, ...]


def _int_entries(v) -> bool:
    """Whether every entry of v is an int (a bool counts), by one sum in C: a
    float, Fraction or Decimal entry makes the sum one too; a str fails it."""
    try:
        return type(sum(v)) is int
    except TypeError:
        return False


def object_vec(values) -> ObjectVec:
    out = tuple(values)
    if not _int_entries(out):
        raise ValueError("object multiplicities must be ints")
    if min(out, default=0) < 0:
        raise ValueError("object multiplicities must be nonnegative")
    return tuple(map(int, out))


def zero_object(rank: int) -> ObjectVec:
    return (0,) * rank


def basis_object(rank: int, index: int) -> ObjectVec:
    if not 0 <= index < rank:
        raise ValueError(f"basis index {index} out of range for rank {rank}")
    return (0,) * index + (1,) + (0,) * (rank - index - 1)


def add_objects(v: ObjectVec, w: ObjectVec) -> ObjectVec:
    if len(v) != len(w):
        raise ValueError("objects live over different symbol lists")
    return tuple(a + b for a, b in zip(v, w))


@dataclass(frozen=True)
class Suspension:
    """The suspension automorphism as a permutation of symbol indices.

    images[i] is the index of the suspension of symbol i; a list that is
    not a permutation of 0..len-1 is refused.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("suspension not bijective")

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of S, each listed (M, S M, S^2 M, ...) from its
        largest symbol M, in increasing order of M."""
        images, out = self.images, []
        seen = [False] * len(images)
        for start in reversed(range(len(images))):
            if not seen[start]:
                cycle, x = [start], images[start]
                while x != start:
                    seen[x] = True
                    cycle.append(x)
                    x = images[x]
                out.append(tuple(cycle))
        return out[::-1]

    def power(self, k: int) -> tuple[int, ...]:
        """The image tuple of S^k for any integer k: each symbol moves k
        steps along its cycle, k reduced mod the cycle's length."""
        if k == 1:
            return self.images
        out = [0] * len(self.images)
        for cycle in self.cycles():
            for i, x in enumerate(cycle):
                out[x] = cycle[(i + k) % len(cycle)]
        return tuple(out)

    def apply(self, v, times: int = 1) -> ObjectVec:
        """Permute an integer vector by S^times."""
        v = tuple(v)
        if len(v) != len(self.images):
            raise ValueError("vector length does not match symbol count")
        out = [0] * len(v)
        for x, img in zip(v, self.power(times)):
            out[img] = x
        return tuple(out)


@dataclass(frozen=True)
class Angle:
    """The object tuple (A_1, ..., A_n) of an n-angle.

    The closing vertex (the suspension of A_1) is implicit, so direct sums
    and rotations of stored angles keep the convention automatically.
    """

    vertices: tuple[ObjectVec, ...]


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: arity n, symbols, suspension, listed angles.

    The semantic angle collection is the closure of the listed angles and
    the trivial angles under rotation and direct sum; only generators are
    stored.  Construction refuses repeated names and a vertex entry that
    is negative or not an int with ValueError, as the parser refuses them.
    """

    n: int
    indec_names: tuple[str, ...]
    suspension: Suspension
    angles: tuple[Angle, ...] = ()

    def __post_init__(self):
        r = len(self.indec_names)
        if len(set(self.indec_names)) != r:
            raise ValueError("indecomposable names are not distinct")
        if len(self.suspension.images) != r:
            raise ValueError("suspension image list must match symbol count")
        for a in self.angles:
            for v in a.vertices:
                if len(v) != r:
                    raise ValueError("angle vertex has wrong length")
                if not _int_entries(v):
                    raise ValueError("angle multiplicities must be ints")
                if r and min(v) < 0:
                    raise ValueError("angle multiplicities must be nonnegative")

    @property
    def rank(self) -> int:
        return len(self.indec_names)


@dataclass(frozen=True)
class ViolationReport:
    """What a validator found wrong; valid when it found nothing."""

    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ValidationReport(ViolationReport):
    parity: str
    classification_applies: bool


def validate_presentation(p: Presentation) -> ValidationReport:
    """Reports n < 3, an empty name and an angle with other than n vertices
    (construction refuses the rest), plus the parity gate."""
    violations = []
    if p.n < 3:
        violations.append(f"n must be >= 3, found {p.n}")
    if any(not name for name in p.indec_names):
        violations.append("indecomposable names must be nonempty")
    for idx, a in enumerate(p.angles):
        if len(a.vertices) != p.n:
            violations.append(
                f"angle {idx} has {len(a.vertices)} vertices, expected {p.n}"
            )
    parity = "odd" if p.n % 2 else "even"
    return ValidationReport(
        violations=tuple(violations),
        parity=parity,
        classification_applies=not violations and p.n % 2 == 1,
    )


def suspend_object(p: Presentation, v, k: int = 1) -> ObjectVec:
    """S^k v for any integer k (negative k applies the inverse)."""
    return p.suspension.apply(v, k)


def rotate_angle(p: Presentation, a: Angle, k: int = 1) -> Angle:
    """The k-fold left rotation (A_{k+1}, ..., A_n, S A_1, ..., S A_k), k any integer:
    with q, s = divmod(k, n), S^q moves A_{s+1}, ..., A_n and S^(q+1) moves A_1, ..., A_s."""
    q, s = divmod(k, len(a.vertices))
    tail = a.vertices[s:] if q == 0 else tuple(suspend_object(p, v, q) for v in a.vertices[s:])
    return Angle(tail + tuple(suspend_object(p, v, q + 1) for v in a.vertices[:s]))


def direct_sum_angle(a: Angle, b: Angle) -> Angle:
    if len(a.vertices) != len(b.vertices):
        raise ValueError("angles have different arity")
    return Angle(tuple(add_objects(x, y) for x, y in zip(a.vertices, b.vertices)))


def trivial_angle(p: Presentation, v, slot: int = 1) -> Angle:
    """The trivial angle on v, rotated slot-1 times from (v, v, 0, ..., 0)."""
    if not 1 <= slot <= p.n:
        raise ValueError(f"slot must be in 1..{p.n}")
    v = object_vec(v)
    if len(v) != p.rank:
        raise ValueError("object has wrong length")
    return rotate_angle(p, Angle((v, v) + (zero_object(p.rank),) * (p.n - 2)), slot - 1)
