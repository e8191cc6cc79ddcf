"""Cellular automata over finitely generated group universes.

The pieces, bottom up: group universes with canonical encodings and
finite-subset combinatorics; pointed finite alphabets with optional module
or group structure; the window calculus of local rules (induced maps,
composition, one-sided inverse criteria); inverse-rule synthesis by
determinacy scanning; transport through finite-group approximations; and
exact group-ring matrices as the independent linear oracle.
"""

from .alphabets import (
    Alphabet,
    StructuredMap,
    finite_map_classify,
    verify_pointed,
    verify_structure,
)
from .ca import (
    CellularAutomaton,
    LocalRule,
    Pattern,
    check_left_inverse,
    check_right_inverse,
    common_memory,
    compose,
    evolve,
    extend_memory,
    identity_ca,
    induced_map,
    projection_ca,
    same_action,
)
from .errors import (
    EmbeddingCollisionError,
    EmptyWindowError,
    InvalidInputError,
    NotInvertibleError,
    ResourceCapError,
    SymbaError,
    UncertifiedInverseError,
    UnsupportedModulusError,
)
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    from_linear_ca,
    gr_mul,
    matrix_mul,
    one_sided_inverse_solve,
    random_invertible_matrix,
    to_linear_ca,
)
from .groups import (
    FiniteGroup,
    FiniteSubset,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    ProductGroup,
    SymmetricGroup,
    ball,
    generated_ball,
    product_window,
    set_product,
    symmetrize,
)
from .synthesis import (
    DeterminacyResult,
    SynthesisResult,
    determinacy_check,
    synthesize_left_inverse,
)
from .transport import (
    LefEmbedding,
    TransportResult,
    TransportedEndomap,
    build_embedding,
    check_equivariance,
    composes_to_identity,
    extract_local_rule,
    invert_transport,
    transport_endomap,
    transport_inverse_pipeline,
    verify_embedding,
)

__version__ = "0.1.0"
