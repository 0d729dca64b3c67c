"""Dense complex matrix arithmetic and the spectral factorizations.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype complex128 in
row-major order.  Square operators are wrapped in :class:`Operator`, which
pins down the dimension, rejects non-finite entries, and enforces the
desk-scale capacity limit.  The joint index of a tensor product is always
``k = i * dim_b + mu`` (first factor major), matching C-order reshapes.

Every dense factorization of the package (:func:`hermitian_eig`,
:func:`eigvalsh`, :func:`svd`) runs here.  A matrix whose imaginary parts
are all exactly zero is factored by the real LAPACK drivers, which are
several times faster than the complex ones; the results are returned as
complex128 all the same, and may differ from the complex path at rounding
level.
"""

from __future__ import annotations

import math
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
    "scaled_hermiticity",
    "require_hermitian",
    "kronecker_product",
    "hermitian_eig",
    "eigvalsh",
    "svd",
    "singular_values",
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
    every later call returns it.  The Hermiticity margin of
    :func:`require_hermitian` is kept the same way, so an operator is
    checked once however many layers require it.  Neither cache can go
    stale because the matrix is a private read-only copy.  The
    eigendecomposition holds a second dim x dim complex array, so a
    diagonalized operator takes twice the memory of the matrix alone
    (512 MiB instead of 256 MiB at dim 4096).
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
    def _hermiticity(self) -> tuple[float, float, float]:
        return scaled_hermiticity(self.matrix)

    @cached_property
    def _eig(self) -> EigResult:
        require_hermitian(self)
        eigenvalues, eigenvectors = np.linalg.eigh(_real_if_exact(self.matrix))
        if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(eigenvectors))):
            raise ValidationError(
                "eigendecomposition is not finite: the operator's entries are too large"
            )
        eigenvectors = eigenvectors.astype(np.complex128, copy=False)
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


def scaled_hermiticity(m: np.ndarray) -> tuple[float, float, float]:
    """Hermiticity residual and norm of ``M``, computed without overflow.

    Returns ``(residual, norm, scale)``: ``scale`` is the largest entry
    modulus of ``M`` or 1, whichever is larger, and ``residual`` and
    ``norm`` are ``||S - S^dagger||_F`` and ``||S||_F`` of ``S = M / scale``.
    Neither can overflow, so ``residual * scale`` is the true residual
    whenever that is a float at all.
    """
    scale = max(1.0, float(np.max(np.abs(m))))
    scaled = m * (1.0 / scale)
    return hermiticity_residual(scaled), float(np.linalg.norm(scaled)), scale


def describe_residual(residual: float, scale: float, bound: float | None = None) -> str:
    """``residual * scale`` for an error message, never printed as ``inf``.

    Gives ``"residual 1.234e+00"``, followed by ``" exceeds <bound>"`` when
    a bound is given, or ``"residual exceeds the float range"``.
    """
    value = residual * scale
    if not math.isfinite(value):
        return "residual exceeds the float range"
    text = f"residual {value:.3e}"
    return text if bound is None else f"{text} exceeds {bound:.3e}"


def require_hermitian(m: Operator | np.ndarray, what: str = "operator") -> None:
    """Reject matrices whose Hermiticity residual exceeds the tolerance.

    The bound is relative: ``||M - M^dagger||_F <= 1e-9 * max(1, ||M||_F)``,
    with both norms taken by :func:`scaled_hermiticity`, so neither
    overflows for entries near the float limit.  For an :class:`Operator`
    the norms are computed on the first call and kept on the instance;
    every call still raises with its own ``what``.
    """
    if isinstance(m, Operator):
        residual, norm, scale = m._hermiticity
    else:
        residual, norm, scale = scaled_hermiticity(m)
    bound = HERMITICITY_TOL * max(1.0 / scale, norm)
    if residual > bound:
        raise ValidationError(
            f"{what} is not Hermitian: {describe_residual(residual, scale, bound * scale)}"
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
        Real eigenvalues sorted ascending and orthonormal complex128
        eigenvector columns in the same order.  The arrays are read-only
        and cached on ``h``, so repeated calls (every beta of a sweep, both
        sides of the equivalence check) share one diagonalization.

    A real-valued ``h`` (every imaginary part exactly zero) is factored in
    real arithmetic; its eigenvectors are real, and the result may differ
    from the complex driver's at rounding level.
    """
    return h._eig


def _real_if_exact(m) -> np.ndarray:
    """``m.real`` when every imaginary part is exactly zero, else ``m``."""
    m = np.asarray(m)
    return m.real if not m.imag.any() else m


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, as float64.

    Only the lower triangle is read.  A real-valued ``m`` is factored in
    real arithmetic.
    """
    return np.linalg.eigvalsh(_real_if_exact(m))


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``M = U diag(s) V^dagger``.

    Returns
    -------
    (u, s, v)
        ``u`` and ``v`` have orthonormal complex128 columns; ``s`` is
        nonnegative and sorted descending.  Note ``v`` is returned
        directly, not ``v`` conjugate-transposed.

    A real-valued ``m`` (every imaginary part exactly zero) is factored in
    real arithmetic, which can differ from the complex driver at rounding
    level.
    """
    u, s, vh = np.linalg.svd(_real_if_exact(m), full_matrices=False)
    return u.astype(np.complex128, copy=False), s, dagger(vh).astype(np.complex128, copy=False)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m``, descending, as by :func:`svd` without vectors."""
    return np.linalg.svd(_real_if_exact(m), compute_uv=False)


def trace(a: Operator) -> complex:
    """Sum of the diagonal entries."""
    return complex(np.trace(a.matrix))
