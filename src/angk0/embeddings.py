"""Induced maps from an n-angle presentation into a triangulated one.

When the domain category sits inside a triangulated category (arity 3) as a
subcategory closed under the (n-2)-fold suspension, sending each symbol to
its image induces a homomorphism of Grothendieck groups.  Only the
consequences visible at the object level are checked here: the suspension
intertwining, well-definedness on relations, and surjectivity.  Of the
domain relations only the listed Euler vectors can map outside the target
relations: with T the target suspension, the intertwining sends each
suspension row to e_y - (-1)^(n-2) e_(T^(n-2) y), a sum of the target's
rows e_z + e_(Tz).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidEmbeddingError, NotWellDefinedError
from .k0 import euler_vector, k0
from .lattices import GroupHom, IntMatrix, apply_matrix, is_surjective
from .presentations import Presentation, ViolationReport


@dataclass(frozen=True)
class Embedding:
    """An injective symbol map from `domain` into a target of arity 3.

    images[x] is the target index of domain symbol x.  Compatibility
    requires the domain suspension to match the (n-2)-fold target
    suspension under the map.
    """

    domain: Presentation
    target: Presentation
    images: tuple[int, ...]


def validate_embedding(e: Embedding) -> ViolationReport:
    """Check injectivity and the suspension intertwining.

    Hom-vanishing conditions live at the morphism level and are out of
    reach of object data; they are deliberately not checked.
    """
    violations = []
    if e.target.n != 3:
        violations.append(f"target arity must be 3, found {e.target.n}")
    if len(e.images) != e.domain.rank:
        violations.append("image list length does not match domain symbol count")
        return ViolationReport(tuple(violations))
    if any(not 0 <= i < e.target.rank for i in e.images):
        violations.append("image index out of range")
        return ViolationReport(tuple(violations))
    if len(set(e.images)) != len(e.images):
        violations.append("not injective")
    powered = e.target.suspension.power(e.domain.n - 2)
    for x in range(e.domain.rank):
        if e.images[e.domain.suspension.images[x]] != powered[e.images[x]]:
            violations.append(
                f"suspension intertwining fails at {e.domain.indec_names[x]}"
            )
    return ViolationReport(tuple(violations))


def embedding_matrix(e: Embedding) -> IntMatrix:
    """Row x is the target basis vector at images[x] (row-vector action)."""
    return IntMatrix(
        [
            [int(j == e.images[x]) for j in range(e.target.rank)]
            for x in range(e.domain.rank)
        ],
        cols=e.target.rank,
    )


def induced_hom(e: Embedding) -> GroupHom:
    """The induced homomorphism on Grothendieck groups.

    An invalid embedding raises InvalidEmbeddingError with the violations.
    The Euler vector of each listed domain angle must land in the target
    relation lattice; the first offender is reported as the witness.  The
    suspension rows need no test: the intertwining maps each to a sum of
    target suspension rows.  Together they span the domain relations, so
    the matrix then induces a well-defined hom.
    """
    violations = validate_embedding(e).violations
    if violations:
        raise InvalidEmbeddingError("invalid embedding: " + "; ".join(violations), violations)
    matrix = embedding_matrix(e)
    target = k0(e.target)
    for idx, angle in enumerate(e.domain.angles):
        row = euler_vector(e.domain, angle)
        if apply_matrix(row, matrix) not in target.relation_lattice:
            raise NotWellDefinedError(
                f"Euler vector of listed angle {idx} maps outside the target relations",
                witness=row,
            )
    return GroupHom(k0(e.domain).group, target.group, matrix)


def check_surjective(e: Embedding) -> bool:
    return is_surjective(induced_hom(e))
