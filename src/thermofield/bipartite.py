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
    as_complex_matrix,
    dagger,
    describe_residual,
    eigvalsh,
    hermitian_eig,
    require_hermitian,
    singular_values,
    svd,
)

__all__ = [
    "MAX_STATE_AMPLITUDES",
    "BipartitePureState",
    "DensityMatrix",
    "SchmidtResult",
    "from_product",
    "expectation",
    "reduced_density",
    "environment_density",
    "schmidt_decompose",
    "schmidt_from_factors",
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


@dataclass(frozen=True)
class BipartitePureState:
    """Normalized pure state of a two-factor system.

    ``amplitudes`` has shape ``(dim_a, dim_b)``; row index for the system,
    column index for the surroundings.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        size = math.prod(np.shape(self.amplitudes))  # before any copy is made
        if size > MAX_STATE_AMPLITUDES:
            raise CapacityError(
                f"state with {size} amplitudes exceeds the maximum {MAX_STATE_AMPLITUDES}"
            )
        a = as_complex_matrix(self.amplitudes)
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(
                f"state is not normalized: sum of squared amplitudes deviates "
                f"from 1 by {abs(norm_sq - 1.0):.3e}"
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
    the operator, scaled so it cannot overflow.
    """

    op: Operator

    def __post_init__(self):
        m = self.op.matrix
        residual, _, scale = self.op._hermiticity
        if residual * scale > DENSITY_TOL:
            raise ValidationError(
                f"density matrix is not Hermitian: {describe_residual(residual, scale)}"
            )
        trace_dev = abs(complex(np.trace(m)) - 1.0)
        if trace_dev > DENSITY_TOL:
            raise ValidationError(
                f"density matrix trace deviates from 1 by {trace_dev:.3e}"
            )
        min_eig = float(eigvalsh(m)[0])
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
    to 1; ``basis_a`` / ``basis_b`` hold the matching orthonormal columns.
    Columns of ``basis_b`` past ``rank`` are zero placeholders: the
    surroundings vector is undefined where the coefficient vanishes.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    rank: int

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if np.any(c < 0.0) or np.any(np.diff(c) > 0.0):
            raise ValidationError("Schmidt coefficients must be nonnegative and descending")
        sum_dev = abs(float(np.sum(c**2)) - 1.0)
        if sum_dev > 1e-10:
            raise ValidationError(
                f"squared Schmidt coefficients must sum to 1, deviation {sum_dev:.3e}"
            )
        expected_rank = int(np.sum(c > RANK_CUTOFF * c[0]))
        if self.rank != expected_rank:
            raise ValidationError(
                f"rank {self.rank} does not match coefficient count {expected_rank}"
            )


def from_product(vec_a: np.ndarray, vec_b: np.ndarray) -> BipartitePureState:
    """Product state with amplitudes ``a[i] * b[mu]``.

    Both vectors must be unit norm within 1e-9.
    """
    va = np.asarray(vec_a, dtype=np.complex128).reshape(-1)
    vb = np.asarray(vec_b, dtype=np.complex128).reshape(-1)
    for name, v in (("first", va), ("second", vb)):
        dev = abs(float(np.linalg.norm(v)) - 1.0)
        if dev > NORM_TOL:
            raise ValidationError(f"{name} factor is not unit norm: deviation {dev:.3e}")
    return BipartitePureState(np.outer(va, vb))


def expectation(state: BipartitePureState, observable: Operator) -> float:
    """Expectation value of ``observable (x) identity`` in the given state.

    Evaluated as the double sum ``sum conj(a[j, mu]) F[j, i] a[i, mu]`` over
    amplitudes and matrix elements of the system observable, as one matrix
    product and one inner product, without forming any density matrix.  The
    result must be real; an imaginary residue above 1e-10 is reported as a
    defect.
    """
    if observable.dim != state.dim_a:
        raise ValidationError(
            f"observable dimension {observable.dim} does not match "
            f"system dimension {state.dim_a}"
        )
    require_hermitian(observable, "observable")
    a = state.amplitudes
    value = complex(np.vdot(a, observable.matrix @ a))
    if abs(value.imag) > 1e-10:
        raise ValidationError(
            f"expectation value has imaginary residue {value.imag:.3e}"
        )
    return value.real


def reduced_density(state: BipartitePureState) -> DensityMatrix:
    """Density matrix of the system factor, surroundings traced out."""
    a = state.amplitudes
    return DensityMatrix(Operator(a @ dagger(a)))


def environment_density(state: BipartitePureState) -> DensityMatrix:
    """Density matrix of the surroundings factor, system traced out."""
    a = state.amplitudes
    return DensityMatrix(Operator(a.T @ a.conj()))


def schmidt_decompose(state: BipartitePureState) -> SchmidtResult:
    """Biorthogonal decomposition of a bipartite pure state.

    The amplitude matrix is factored by SVD as ``sum_k c_k u_k b_k^T`` with
    orthonormal ``u_k`` (system) and ``b_k`` (surroundings), and the factors
    are passed to :func:`schmidt_from_factors`.  Each system
    column is rephased so its first entry of largest modulus is real and
    nonnegative, with the surroundings column compensating, which makes the
    output deterministic whenever the coefficients are nondegenerate.
    """
    u, s, v = svd(state.amplitudes)
    # b_k[mu] = conj(V[mu, k]) reproduces a = sum c u b^T
    return schmidt_from_factors(state, s, u, v.conj())


def schmidt_from_factors(
    state: BipartitePureState,
    coefficients: np.ndarray,
    basis_a: np.ndarray,
    basis_b: np.ndarray,
) -> SchmidtResult:
    """Schmidt decomposition of ``state`` from a known factorization.

    The factors must satisfy ``amplitudes = sum_k c_k a_k b_k^T`` with
    nonnegative descending ``coefficients`` and orthonormal columns
    ``a_k`` (``basis_a``) and ``b_k`` (``basis_b``), as an SVD gives or as
    a construction states.  The inputs are not modified.  Counts the rank
    and checks the reconstruction against the state's own amplitudes: a
    residual above 1e-10 Frobenius raises :class:`ValidationError`, so a
    wrong factorization cannot pass.

    ``basis_b`` takes one of two forms.

    - A ``(dim_b, k)`` matrix of columns.  The phase convention of
      :func:`schmidt_decompose` is applied, the surroundings columns past
      the rank are zeroed, and the reconstruction is a dense product.
    - A 1-D integer array of ``k`` distinct coordinate indices, for
      ``b_k = e_{basis_b[k]}``, the coordinate basis vector of the
      surroundings.  A coordinate vector carries no phase, so ``basis_a``
      is kept as given, and the result's ``basis_b`` holds the indices of
      the first ``rank`` vectors only.  The check scatters the scaled
      columns ``c_k a_k`` into columns ``basis_b[:rank]`` of a zero matrix
      and compares that with the amplitudes, in O(dim_a * dim_b) with no
      matrix product.
    """
    rank = int(np.sum(coefficients > RANK_CUTOFF * coefficients[0]))
    amplitudes = state.amplitudes

    if np.ndim(basis_b) == 1:
        order = _coordinate_indices(basis_b, basis_a.shape[1], state.dim_b)
        result = SchmidtResult(coefficients, basis_a, order[:rank], rank)
        rebuilt = np.zeros_like(amplitudes)
        rebuilt[:, order[:rank]] = basis_a[:, :rank] * coefficients[np.newaxis, :rank]
    else:
        columns = np.arange(basis_a.shape[1])
        lead = basis_a[np.argmax(np.abs(basis_a), axis=0), columns]  # first entry of largest modulus
        # hypot is the scalar abs(); np.abs on arrays can differ in the last bit
        phases = lead / np.hypot(lead.real, lead.imag)
        u = basis_a * phases.conjugate()[np.newaxis, :]
        basis_b = basis_b * phases[np.newaxis, :]
        basis_b[:, rank:] = 0.0
        result = SchmidtResult(coefficients, u, basis_b, rank)
        rebuilt = (u * coefficients[np.newaxis, :]) @ basis_b.T

    residual = float(np.linalg.norm(np.subtract(amplitudes, rebuilt, out=rebuilt)))
    if residual > 1e-10:
        raise ValidationError(
            f"Schmidt reconstruction residual {residual:.3e} exceeds 1e-10"
        )
    return result


def _coordinate_indices(indices, count: int, dim_b: int) -> np.ndarray:
    """``indices`` as ``count`` distinct integers in ``[0, dim_b)``, else raise."""
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer) or indices.shape != (count,):
        raise ValidationError(
            f"surroundings indices must be {count} integers, got {indices.dtype} {indices.shape}"
        )
    if np.any(indices < 0) or np.any(indices >= dim_b):
        raise ValidationError(f"surroundings indices must lie in [0, {dim_b})")
    if np.bincount(indices, minlength=dim_b).max() > 1:
        raise ValidationError("surroundings indices must be distinct")
    return indices


def purify(rho: DensityMatrix) -> BipartitePureState:
    """Pure state on a doubled space whose system reduction is ``rho``.

    The surroundings factor has the same dimension as the system.  Its
    coordinate basis is paired with the eigenvectors of ``rho`` in
    descending-eigenvalue order, so the dominant weight sits at
    surroundings index 0 and a projector purifies to a product state on
    the (0, 0) corner.  The eigenvectors come from :func:`hermitian_eig`,
    so they are cached on ``rho.op``.
    """
    eigenvalues, eigenvectors = hermitian_eig(rho.op)
    weights = np.clip(eigenvalues[::-1], 0.0, None)
    return BipartitePureState(eigenvectors[:, ::-1] * np.sqrt(weights)[np.newaxis, :])


def entanglement_entropy(state: BipartitePureState) -> float:
    """Entropy of entanglement in nats.

    Computes the singular values of the amplitudes and passes them to
    :func:`schmidt_entropy`.  Ranges from 0 (product state) to
    ``ln min(dim_a, dim_b)`` (maximally entangled).
    """
    return schmidt_entropy(singular_values(state.amplitudes))


def schmidt_entropy(coefficients: np.ndarray) -> float:
    """Entropy of entanglement in nats, from the Schmidt coefficients.

    ``-sum p ln p`` over the squared coefficients, dropping probabilities
    at or below 1e-15.  A product state gives ``+0.0``, never ``-0.0``.
    """
    p = np.asarray(coefficients, dtype=np.float64) ** 2
    p = p[p > ENTROPY_CUTOFF]
    return float(-np.sum(p * np.log(p))) + 0.0  # + 0.0 maps -0.0 to +0.0


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
