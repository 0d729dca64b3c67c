"""Pure states of a composite system and their reductions.

A pure state of system-plus-surroundings is stored as its coefficient
matrix ``amplitudes[i, mu]`` over the standard coordinate bases of the two
factors, so the flattened joint index is ``k = i * dim_b + mu``.  All
operations are pure functions over read-only values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .linalg import (
    MAX_OPERATOR_DIM,
    Operator,
    as_matrix,
    dagger,
    describe_residual,
    hermitian_eig,
    norm_deviation,
    real_value,
    require_hermitian,
    singular_values,
    svd,
    trace_deviation,
)

__all__ = [
    "MAX_STATE_AMPLITUDES",
    "BipartitePureState",
    "DensityMatrix",
    "SchmidtResult",
    "expectation",
    "reduced_density",
    "environment_density",
    "schmidt_decompose",
    "schmidt_coefficients",
    "schmidt_rank",
    "purify",
    "entanglement_entropy",
    "schmidt_entropy",
    "joint_density",
]

# Largest allowed amplitude count dim_a * dim_b for a joint pure state.
MAX_STATE_AMPLITUDES = 1 << 24

# Admission tolerance for state / vector normalization.  Off-norm inputs
# are rejected, never silently renormalized.
NORM_TOL = 1e-9

# Density-matrix admission tolerances (absolute).
DENSITY_TOL = 1e-9

# Schmidt coefficients at or below this fraction of the largest one count
# as zero when determining the rank.
RANK_CUTOFF = 1e-12

# Probabilities below this are dropped from the entropy sum (0 ln 0 = 0).
ENTROPY_CUTOFF = 1e-15


def _amount(deviation: float) -> str:
    """A deviation for an error message, never written as ``inf``."""
    return f"{deviation:.3e}" if math.isfinite(deviation) else "more than the float range"


@dataclass(frozen=True)
class BipartitePureState:
    """Normalized pure state of a two-factor system.

    ``amplitudes`` has shape ``(dim_a, dim_b)``; row index for the system,
    column index for the surroundings.  It is float64 when every imaginary
    part is exactly zero, complex128 otherwise (:func:`linalg.as_matrix`).
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        size = math.prod(np.shape(self.amplitudes))  # before any copy is made
        if size > MAX_STATE_AMPLITUDES:
            raise CapacityError(
                f"state with {size} amplitudes exceeds the maximum {MAX_STATE_AMPLITUDES}"
            )
        a = as_matrix(self.amplitudes)
        deviation = norm_deviation(a)
        if deviation > NORM_TOL:
            raise ValidationError(
                "state is not normalized: sum of squared amplitudes deviates "
                f"from 1 by {_amount(deviation)}"
            )
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amplitudes.shape[1]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    All three axioms are enforced at construction: Hermiticity residual
    and trace deviation at most 1e-9, smallest eigenvalue at least -1e-9.
    The Hermiticity residual is the one :func:`require_hermitian` keeps on
    the operator, scaled so it cannot overflow; the trace deviation is
    summed on the same scale, so one past the float range is reported as
    such instead of as ``inf``.  The smallest eigenvalue is read from
    :func:`hermitian_eig`, so an admitted matrix carries its
    eigendecomposition, cached on ``op``, and :func:`purify` reuses it.
    """

    op: Operator

    def __post_init__(self):
        residual, _, scale = self.op._hermiticity
        if residual * scale > DENSITY_TOL:
            raise ValidationError(
                f"density matrix is not Hermitian: {describe_residual(residual, scale)}"
            )
        trace_dev = trace_deviation(self.op)
        if trace_dev > DENSITY_TOL:
            raise ValidationError(f"density matrix trace deviates from 1 by {_amount(trace_dev)}")
        min_eig = float(hermitian_eig(self.op).eigenvalues[0])
        if min_eig < -DENSITY_TOL:
            raise ValidationError(
                f"density matrix is not positive semidefinite: "
                f"smallest eigenvalue {min_eig:.3e}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class SchmidtResult:
    """Biorthogonal expansion of a bipartite pure state.

    ``coefficients`` are nonnegative and descending with squares summing
    to 1; ``basis_a`` / ``basis_b`` hold the matching orthonormal columns,
    float64 for a real state and complex128 otherwise.
    Columns of ``basis_b`` past ``rank`` are zero placeholders: the
    surroundings vector is undefined where the coefficient vanishes.  The
    squares may deviate from 1 by as much as a state's norm may
    (``NORM_TOL``), so every admitted state has a Schmidt form.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self):
        _check_coefficients(np.asarray(self.coefficients, dtype=np.float64))

    @property
    def rank(self) -> int:
        """:func:`schmidt_rank` of the coefficients."""
        return schmidt_rank(self.coefficients)


def _check_coefficients(c: np.ndarray) -> None:
    """Reject coefficients that are not a Schmidt spectrum of an admitted state."""
    # negated comparisons, so NaN is rejected too
    if not (np.all(c >= 0.0) and np.all(np.diff(c) <= 0.0)):
        raise ValidationError("Schmidt coefficients must be finite, nonnegative and descending")
    sum_dev = abs(float(np.sum(c**2)) - 1.0)
    if sum_dev > NORM_TOL:
        raise ValidationError(
            f"squared Schmidt coefficients must sum to 1, deviation {sum_dev:.3e}"
        )


def expectation(state: BipartitePureState, observable: Operator) -> float:
    """Expectation value of ``observable (x) identity`` in the given state.

    Evaluated as the double sum ``sum conj(a[j, mu]) F[j, i] a[i, mu]`` over
    amplitudes and matrix elements of the system observable, as one matrix
    product and one inner product, without forming any density matrix.  The
    result is the real part; :func:`linalg.real_value` holds the imaginary
    residue to the Hermiticity bound that admitted the observable, and
    rejects a value past the float range.
    """
    if observable.dim != state.dim_a:
        raise ValidationError(
            f"observable dimension {observable.dim} does not match "
            f"system dimension {state.dim_a}"
        )
    require_hermitian(observable, "observable")
    a = state.amplitudes
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.vdot(a, observable.matrix @ a))
    return real_value(value, observable, "expectation value")


def reduced_density(state: BipartitePureState) -> DensityMatrix:
    """Density matrix of the system factor, surroundings traced out."""
    a = state.amplitudes
    return DensityMatrix(Operator(a @ dagger(a)))


def environment_density(state: BipartitePureState) -> DensityMatrix:
    """Density matrix of the surroundings factor, system traced out."""
    a = state.amplitudes
    return DensityMatrix(Operator(a.T @ a.conj()))


def schmidt_decompose(state: BipartitePureState) -> SchmidtResult:
    """Biorthogonal decomposition of a bipartite pure state, measured by SVD.

    The amplitude matrix is factored as ``sum_k c_k u_k b_k^T`` with
    orthonormal ``u_k`` (system) and ``b_k`` (surroundings), the rows of
    ``vh`` transposed.  Each system column is rephased so its first entry
    of largest modulus is real and nonnegative, with the surroundings
    column compensating, which makes the output deterministic whenever the
    coefficients are nondegenerate.  The surroundings columns past the rank
    are zeroed.  A dense reconstruction is checked against the amplitudes
    within 1e-10 Frobenius.
    """
    u, s, vh = svd(state.amplitudes)
    rank = schmidt_rank(s)
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]  # first entry of largest modulus
    # hypot is the scalar abs(); np.abs on arrays can differ in the last bit
    phases = lead / np.hypot(lead.real, lead.imag)
    u = u * phases.conjugate()[np.newaxis, :]
    basis_b = vh.T * phases[np.newaxis, :]
    basis_b[:, rank:] = 0.0
    result = SchmidtResult(s, u, basis_b)
    residual = float(np.linalg.norm(state.amplitudes - (u * s[np.newaxis, :]) @ basis_b.T))
    if residual > 1e-10:
        raise ValidationError(f"Schmidt reconstruction residual {residual:.3e} exceeds 1e-10")
    return result


def schmidt_coefficients(state: BipartitePureState) -> np.ndarray:
    """The Schmidt coefficients of a state, descending, without the bases.

    The singular values of the amplitudes, measured without vectors, and
    held to the coefficient checks of :class:`SchmidtResult`.  They agree
    with ``schmidt_decompose(state).coefficients`` at rounding level.  No
    reconstruction is made: that check lives in :func:`schmidt_decompose`.
    """
    c = singular_values(state.amplitudes)
    _check_coefficients(c)
    return c


def schmidt_rank(coefficients: np.ndarray) -> int:
    """The count of Schmidt coefficients above ``RANK_CUTOFF`` times the largest."""
    return int(np.sum(coefficients > RANK_CUTOFF * coefficients[0]))


def purify(rho: DensityMatrix) -> BipartitePureState:
    """Pure state on a doubled space whose system reduction is ``rho``.

    The surroundings factor has the same dimension as the system.  Its
    coordinate basis is paired with the eigenvectors of ``rho`` in
    descending-eigenvalue order, so the dominant weight sits at
    surroundings index 0 and a projector purifies to a product state on
    the (0, 0) corner.  The eigenvectors are the ones admission cached on
    ``rho.op`` (:func:`hermitian_eig`), so no second factorization runs.
    """
    eigenvalues, eigenvectors = hermitian_eig(rho.op)
    weights = np.clip(eigenvalues[::-1], 0.0, None)
    return BipartitePureState(eigenvectors[:, ::-1] * np.sqrt(weights)[np.newaxis, :])


def entanglement_entropy(state: BipartitePureState) -> float:
    """Entropy of entanglement in nats.

    :func:`schmidt_entropy` of :func:`schmidt_coefficients`.  Ranges from 0
    (product state) to ``ln min(dim_a, dim_b)`` (maximally entangled).
    """
    return schmidt_entropy(schmidt_coefficients(state))


def schmidt_entropy(coefficients: np.ndarray) -> float:
    """Entropy of entanglement in nats, from the Schmidt coefficients.

    ``-sum p ln p`` over the squared coefficients, dropping probabilities
    at or below 1e-15.  The result is never negative: a product state gives
    ``+0.0``, also when its coefficient is a rounding step above 1.
    """
    p = np.asarray(coefficients, dtype=np.float64) ** 2
    p = p[p > ENTROPY_CUTOFF]
    return max(0.0, float(-np.sum(p * np.log(p))))


def joint_density(state: BipartitePureState) -> DensityMatrix:
    """Projector onto the state, on the flattened joint space.

    Row-major flattening keeps the system index major, so the matrix acts
    on joint index ``k = i * dim_b + mu``.
    """
    joint_dim = state.dim_a * state.dim_b
    if joint_dim > MAX_OPERATOR_DIM:
        raise CapacityError(
            f"joint dimension {joint_dim} exceeds the maximum {MAX_OPERATOR_DIM}"
        )
    vec = state.amplitudes.reshape(-1)
    return DensityMatrix(Operator(np.outer(vec, vec.conj())))
