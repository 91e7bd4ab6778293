"""Finite C*-dynamical systems made computable: Hilbert C^n-modules,
equivariant and cocycle representations, multipliers with positive
definiteness certificates, and reduced crossed products."""

from .core import (
    DEFAULT_TOL,
    FiniteGroup,
    FiniteSpace,
    GroupAction,
    System,
    cyclic_group,
    cyclic_shift_action,
    symmetric_action,
    symmetric_group,
    trivial_action,
)
from .hilbmod import (
    ModuleVector,
    NotAModuleError,
    SectionalModule,
    banach_stone_operator,
    basis_vector,
    direct_sum,
    inner_product,
    internal_tensor,
    module_action,
    module_norm,
    sectionalize,
    trivial_module,
)
from .equivrep import (
    CyclicVector,
    EquivariantRep,
    NotPositiveDefiniteError,
    direct_sum_reps,
    fell_absorption_unitary,
    gns_from_pd,
    is_cyclic,
    regular_rep,
    slot_embed,
    slot_restrict,
    tensor_rep,
    trivial_rep,
    unitarily_equivalent,
    verify_equivariant,
)
from .cocycle import (
    CocycleRep,
    EquivariantMap,
    NotBanachStoneError,
    banach_stone_extract,
    cocycle_equivalent,
    equivariant_maps,
    rho_from_sigma,
    verify_cocycle,
)
from .multiplier import (
    TRACE_CONE_NOTE,
    Multiplier,
    NormBounds,
    PdCertificate,
    TraceSample,
    coefficient,
    is_positive_definite,
    multiplier_distance,
    norm_bounds,
    pd_sample_oracle,
    realize_via_regular,
    span_dimension,
    trace_image_sample,
    truncate_realization,
    unit_multiplier,
)
from .crossed import (
    CovariantRep,
    NotInAlgebraError,
    ReducedCrossedProduct,
    build_reduced,
    center_dimension,
    fourier_coefficients,
    induced_map,
    is_commutative,
    is_completely_positive,
    regular_covariant,
    verify_covariant,
)
from .cyclic_examples import (
    matrix_unit_family,
    omega_example_rep,
    omega_system,
    sigma_example_rep,
    sigma_system,
    shift_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
