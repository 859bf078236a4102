"""Grothendieck groups and rings of finitely presented angle categories,
computed with exact integer lattice arithmetic."""

from .errors import (
    AngK0Error,
    EvenNUnsupportedError,
    InfiniteGroupError,
    InvalidEmbeddingError,
    InvalidTensorError,
    NotWellDefinedError,
    WitnessBoundError,
)
from .lattices import (
    FgAbelianGroup,
    GroupElement,
    GroupHom,
    IntMatrix,
    Lattice,
    Subgroup,
    determinant,
    enumerate_subgroups,
    hermite_normal_form,
    is_surjective,
    smith_normal_form,
    subgroup_from_generators,
    xgcd,
)
from .presentations import (
    Angle,
    ObjectVec,
    Presentation,
    Suspension,
    ValidationReport,
    direct_sum_angle,
    rotate_angle,
    suspend_object,
    trivial_angle,
    validate_presentation,
)
from .k0 import (
    K0Result,
    NotFound,
    Witness,
    class_of,
    equal_classes,
    euler_vector,
    k0,
    object_for_element,
    relation_lattice,
    witness_search,
)
from .classify import (
    Certificate,
    CorrespondenceReport,
    SubcategoryLattice,
    is_complete,
    is_dense,
    subgroup_from_subcategory,
    verify_correspondence,
)
from .tensor import (
    K0Ring,
    RingIdeal,
    TensorPresentation,
    enumerate_ideals,
    is_prime_ideal,
    ring,
    tensor_objects,
    validate_tensor,
    verify_tensor_correspondence,
)
from .embeddings import (
    Embedding,
    check_surjective,
    induced_hom,
    validate_embedding,
)

__version__ = "0.1.0"
