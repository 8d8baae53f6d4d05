"""Exact integer arithmetic for the semigroup of ordered colored set
partitions, its symmetric-group-invariant subalgebra, the wreath product
G wr S_n, and the descent algebra sitting inside its group algebra."""

from .errors import (
    FormatError,
    GroupAxiomError,
    InvarianceViolationError,
    NotAChamberError,
    NotInSpanError,
    ParseError,
    SizeLimitError,
)
from .groups import (
    FiniteGroup,
    cyclic,
    from_table,
    group_from_spec,
    klein_four,
    load_group,
    symmetric,
)
from .limits import DEFAULT_LIMIT
from .linear import LinearCombination
from .partitions import (
    apply_permutation,
    coarsenings,
    composition_sort_key,
    composition_total,
    count_colored_compositions,
    count_colored_partitions,
    count_partitions_of_type,
    enumerate_colored_compositions,
    enumerate_colored_partitions,
    enumerate_partitions_of_type,
    is_refinement,
    partition_type,
    stirling2,
)
from .semigroup import idempotents, identity_partition, multiply, power
from .wreath import (
    chamber_product_direct,
    chamber_to_wreath,
    count_wreath,
    descent_composition,
    enumerate_wreath,
    is_chamber,
    sorting_permutation,
    wreath_identity,
    wreath_inverse,
    wreath_mul,
    wreath_to_chamber,
)
from .invariant import (
    CompatibleMatrix,
    enumerate_compatible_matrices,
    invariant_mul,
    matrix_is_compatible,
    read_row_by_row,
    sigma_product,
    sigma_product_bruteforce,
    sigma_vector,
    structure_constant_table,
)
from .descent import (
    descent_fibers,
    express_in_x_basis,
    group_algebra_mul,
    sigma_act_on_chamber,
    sigma_to_x,
    x_basis,
    y_basis,
    y_from_x,
)
from .verify import (
    VERIFY_TARGETS,
    check_identities,
    run_verification,
    verify_antihomomorphism,
    verify_counts,
    verify_identities,
    verify_left_ideal,
    verify_mobius,
    verify_prop1,
)

__version__ = "0.1.0"
