"""Dense linear-algebra substrate: spaces, states, operators, evolution, metrics.

It runs on numpy alone; ``expm`` is its own matrix exponential.

Everything downstream (time-correlation protocols, open-system
reconstruction, embedding simulators, ion models, digital-analog
Trotterization) is validated against this layer.  All values are immutable
after construction and every operation is a pure function.
"""
from .spaces import (
    DEFAULT_N_MAX,
    DIMENSION_CAP,
    Boson,
    DimensionCapError,
    DimensionMismatchError,
    HilbertSpace,
    Qubit,
    TruncationError,
)
from .operators import (
    OperatorSum,
    PAULIS,
    SIGMA_I,
    SIGMA_M,
    SIGMA_P,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    boson_annihilation,
    boson_displacement_generator,
    boson_number,
    dense_pauli,
    kron_all,
    on_factors,
    pauli_apply,
    pauli_product,
    pauli_rotation,
    pauli_terms,
)
from .states import (
    DensityMatrix,
    EXCITED,
    GROUND,
    PureState,
    all_plus_state,
    basis_state,
    plus_state,
    qubit_register_state,
    random_pure_state,
)
from .linalg import expm, expm_block_toeplitz
from .evolve import (
    DEFAULT_TOL,
    Schedule,
    ToleranceError,
    carry,
    evolve,
    evolve_trace,
    integrate,
    propagator,
    propagator_stack,
)
from .shots import check_count, check_stream_key, shot_means, shot_uniforms
from .metrics import (
    expectation,
    fidelity,
    operator_infinity_norm,
    partial_trace,
    trace_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
