"""Finite-dimensional tools for thermal states as entangled pure states.

The library covers four layers: dense linear algebra with validation
(``linalg``), bipartite pure states with Schmidt analysis (``bipartite``),
Gibbs ensembles and their doubled-space purifications (``thermal``), and a
small catalog of model Hamiltonians plus deterministic random instances
(``models``).  ``serialize`` fixes the JSON file formats and ``cli`` exposes
everything as a command-line tool.
"""

from .bipartite import (
    BipartitePureState,
    DensityMatrix,
    SchmidtResult,
    entanglement_entropy,
    environment_density,
    expectation,
    joint_density,
    purify,
    reduced_density,
    schmidt_coefficients,
    schmidt_decompose,
    schmidt_entropy,
    schmidt_rank,
)
from .errors import CapacityError, ValidationError
from .linalg import (
    EigResult,
    Operator,
    dagger,
    hermitian_eig,
    hermiticity_residual,
    require_hermitian,
    svd,
)
from .models import (
    MODEL_KINDS,
    OBSERVABLE_NAMES,
    ModelSpec,
    build_model,
    build_observable,
    parse_model_spec,
    random_bipartite_state,
)
from .thermal import (
    ThermalReport,
    ThermalSpectrum,
    decohere_tfd,
    gibbs_density,
    thermal_spectrum,
    thermofield_double,
    verify_betas,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitePureState",
    "CapacityError",
    "DensityMatrix",
    "EigResult",
    "MODEL_KINDS",
    "ModelSpec",
    "OBSERVABLE_NAMES",
    "Operator",
    "SchmidtResult",
    "ThermalReport",
    "ThermalSpectrum",
    "ValidationError",
    "build_model",
    "build_observable",
    "dagger",
    "decohere_tfd",
    "entanglement_entropy",
    "environment_density",
    "expectation",
    "gibbs_density",
    "hermitian_eig",
    "hermiticity_residual",
    "joint_density",
    "parse_model_spec",
    "purify",
    "random_bipartite_state",
    "reduced_density",
    "require_hermitian",
    "schmidt_coefficients",
    "schmidt_decompose",
    "schmidt_entropy",
    "schmidt_rank",
    "svd",
    "thermal_spectrum",
    "thermofield_double",
    "verify_betas",
    "verify_equivalence",
]
