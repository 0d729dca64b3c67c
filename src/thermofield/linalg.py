"""Dense complex matrix arithmetic and the spectral factorizations.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype complex128 in
row-major order.  Square operators are wrapped in :class:`Operator`, which
pins down the dimension, rejects non-finite entries, and enforces the
desk-scale capacity limit.  The joint index of a tensor product is always
``k = i * dim_b + mu`` (first factor major), matching C-order reshapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError

__all__ = [
    "MAX_OPERATOR_DIM",
    "Operator",
    "EigResult",
    "dagger",
    "identity",
    "hermiticity_residual",
    "require_hermitian",
    "kronecker_product",
    "hermitian_eig",
    "svd",
    "trace",
]

# Largest allowed side of a square operator.  Guardrail against memory
# exhaustion; raise deliberately rather than let allocations fail.
MAX_OPERATOR_DIM = 4096

# Relative Hermiticity tolerance used by every precondition check.
HERMITICITY_TOL = 1e-9


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce input to a read-only 2-D complex128 array with finite entries."""
    m = np.array(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Operator:
    """A square complex matrix with a fixed dimension.

    Carries Hamiltonians, observables, and density matrices.  The wrapped
    array is read-only, so instances are safe to share across threads.

    The eigendecomposition is made the first time :func:`hermitian_eig` is
    called on an instance and kept, read-only, while the instance lives;
    every later call returns it.  The cache can never go stale because the
    matrix is a private read-only copy.  It holds a second dim x dim
    complex array, so a diagonalized operator takes twice the memory of the
    matrix alone (512 MiB instead of 256 MiB at dim 4096).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] > MAX_OPERATOR_DIM:
            raise CapacityError(
                f"operator dimension {m.shape[0]} exceeds the maximum {MAX_OPERATOR_DIM}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eig(self) -> EigResult:
        require_hermitian(self.matrix)
        eigenvalues, eigenvectors = np.linalg.eigh(self.matrix)
        if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(eigenvectors))):
            raise ValidationError(
                "eigendecomposition is not finite: the operator's entries are too large"
            )
        eigenvalues.flags.writeable = False
        eigenvectors.flags.writeable = False
        return EigResult(eigenvalues, eigenvectors)


class EigResult(NamedTuple):
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching unit-norm eigenvectors as columns.  Contract: the columns are
    orthonormal to within 1e-10 (Frobenius) and the reconstruction residual
    ``||H V - V diag(w)||_F`` stays below ``1e-10 * max(1, ||H||_F)``.

    Both arrays are read-only: the result returned by :func:`hermitian_eig`
    is the one cached on the operator and shared by every caller.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def identity(dim: int) -> Operator:
    """Identity operator of the given dimension."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    return Operator(np.eye(dim, dtype=np.complex128))


def hermiticity_residual(m: np.ndarray) -> float:
    """Frobenius norm of ``M - M^dagger``."""
    return float(np.linalg.norm(m - dagger(m)))


def require_hermitian(m: np.ndarray, what: str = "operator") -> None:
    """Reject matrices whose Hermiticity residual exceeds the tolerance.

    The bound is relative: ``||M - M^dagger||_F <= 1e-9 * max(1, ||M||_F)``.
    Both norms are taken of ``M`` divided by its largest entry modulus when
    that exceeds 1, so neither overflows for entries near the float limit.
    """
    scale = max(1.0, float(np.max(np.abs(m))))
    scaled = m * (1.0 / scale)
    residual = hermiticity_residual(scaled)
    bound = HERMITICITY_TOL * max(1.0 / scale, float(np.linalg.norm(scaled)))
    if residual > bound:
        raise ValidationError(
            f"{what} is not Hermitian: residual {residual * scale:.3e} "
            f"exceeds {bound * scale:.3e}"
        )


def kronecker_product(a: Operator, b: Operator) -> Operator:
    """Tensor product of two operators.

    The result acts on the joint space with index ``k = i * b.dim + mu``,
    i.e. the first factor is the slow (major) index.

    Raises
    ------
    CapacityError
        If ``a.dim * b.dim`` exceeds :data:`MAX_OPERATOR_DIM`.
    """
    joint = a.dim * b.dim
    if joint > MAX_OPERATOR_DIM:
        raise CapacityError(
            f"tensor product dimension {joint} exceeds the maximum {MAX_OPERATOR_DIM}"
        )
    return Operator(np.kron(a.matrix, b.matrix))


def hermitian_eig(h: Operator) -> EigResult:
    """Eigendecomposition of a Hermitian operator, made once per operator.

    Parameters
    ----------
    h : Operator
        Must satisfy the relative Hermiticity precondition; violations
        raise :class:`ValidationError` naming the residual.  A spectrum
        that overflows to a non-finite value also raises.

    Returns
    -------
    EigResult
        Real eigenvalues sorted ascending and orthonormal eigenvector
        columns in the same order.  The arrays are read-only and cached on
        ``h``, so repeated calls (every beta of a sweep, both sides of the
        equivalence check) share one diagonalization.
    """
    return h._eig


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``M = U diag(s) V^dagger``.

    Returns
    -------
    (u, s, v)
        ``u`` and ``v`` have orthonormal columns; ``s`` is nonnegative and
        sorted descending.  Note ``v`` is returned directly, not ``v``
        conjugate-transposed.
    """
    m = np.asarray(m, dtype=np.complex128)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, dagger(vh)


def trace(a: Operator) -> complex:
    """Sum of the diagonal entries."""
    return complex(np.trace(a.matrix))
