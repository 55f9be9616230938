"""Update structures over finite sets and finite-dimensional matrices.

A library and law-runner for (system, property, put, get, mult,
comult) tuples: build them over exact finite-set tables or complex
matrices, check the strong/weak law suites and a stack of derived
implications, convert to and from very well behaved lenses, construct
quantum measurements from projector families, and split the
``get ; put`` idempotent to recover strong structures from weak ones.

The :mod:`putget.registry` module catalogues worked examples with
their expected law profiles; the ``putget`` console script runs them.
"""

from .algebras import (
    ALGEBRA_LAWS,
    Algebra,
    AlgebraError,
    check_algebra,
    pair_of_pants,
    scfa_from_dimension,
)
from .finsets import (
    SET_UNIT,
    FinFunction,
    FinSet,
    SetType,
    TableError,
    bang,
    diagonal,
    fun_compose,
    fun_pair,
    fun_product,
    projection,
)
from .karoubi import (
    GetPutRestriction,
    SplitError,
    absorption,
    getput_restriction,
)
from .lenses import (
    LensError,
    SeparabilityReport,
    VwbLens,
    VwbReport,
    check_vwb,
    constant_complement_lens,
    identity_lens,
    lens_to_update,
    random_lens,
    security_db,
    security_db_update_flag,
    trivial_update_separability,
    update_flag_lens,
    update_to_lens,
)
from .quantum import (
    PremiseError,
    ProjectorValuedSpectrum,
    PvsError,
    causal_lens_like_get,
    characterize_pvs,
    cpm_double,
    decoherence,
    double_structure,
    double_type,
    doubled_discard,
    getput_defect_formula,
    pair_of_pants_update,
    pvs_equations,
    pvs_from_projectors,
    pvs_to_update,
    quantum_db_causal,
    quantum_db_postselected,
    quantum_measurement,
    reduced_get,
    trace_preserving,
    transform_update,
)
from .registry import (
    ExampleReport,
    ExampleSpec,
    ExtraCheck,
    REGISTRY,
    RegistryError,
    build_example,
    get_example,
    names,
    run_example,
)
from .structures import (
    CORE_LAWS,
    DERIVED_PROPS,
    LAW_NAMES,
    Classification,
    DerivedResult,
    LawCheckResult,
    StructureError,
    UpdateStructure,
    applicable_laws,
    check_law,
    check_laws,
    classify,
    verify_derived,
)
from .tensors import (
    DEFAULT_TOL,
    Morphism,
    TensorType,
    Tolerance,
    WireError,
    basis_effect,
    basis_state,
    cap,
    cup,
    scalar,
)

__version__ = "0.1.0"
