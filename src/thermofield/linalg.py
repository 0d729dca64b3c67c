"""Dense matrix arithmetic and the spectral factorizations.

Matrices are plain 2-D ``numpy.ndarray`` values in row-major order.  Their
dtype is the one record of realness: float64 for real input, complex128
otherwise (see :func:`as_matrix`).  Square operators are wrapped in
:class:`Operator`, which pins down the dimension, rejects non-finite
entries, and enforces the desk-scale capacity limit.  The joint index of a
tensor product is always ``k = i * dim_b + mu`` (first factor major),
matching C-order reshapes.

Every dense factorization of the package runs here, as a plain numpy call:
a float64 matrix goes to the real LAPACK drivers, several times faster than
the complex ones, and its eigenvectors and singular vectors are float64.
"""

from __future__ import annotations

import cmath
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
    "hermiticity_residual",
    "scaled_hermiticity",
    "require_hermitian",
    "hermitian_eig",
    "svd",
    "singular_values",
]

# Largest allowed side of a square operator.  Guardrail against memory
# exhaustion; raise deliberately rather than let allocations fail.
MAX_OPERATOR_DIM = 4096

# Relative Hermiticity tolerance used by every precondition check.
HERMITICITY_TOL = 1e-9


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a read-only 2-D array with finite entries, copied once.

    float64 when the input has no imaginary part or every one is exactly
    zero (``-0.0`` too), complex128 otherwise; real input is copied straight
    to float64.
    """
    m = np.asarray(entries)
    if m.dtype.kind not in "biuf":  # complex, or objects numpy reads as complex
        m = np.asarray(m, dtype=np.complex128)
    real = m.dtype.kind != "c" or not m.imag.any()
    m = np.array(m.real if real else m, dtype=np.float64 if real else np.complex128, order="C")
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():  # False where either part is not finite
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Operator:
    """A square matrix with a fixed dimension.

    Carries Hamiltonians, observables, and density matrices.  The wrapped
    array is :func:`as_matrix`'s read-only copy, so instances are safe to
    share across threads.

    The eigendecomposition is made the first time :func:`hermitian_eig` is
    called on an instance and kept, read-only, while the instance lives;
    every later call returns it.  The Hermiticity margin of
    :func:`require_hermitian` is kept the same way, so an operator is
    checked once however many layers require it.  Neither cache can go
    stale because the matrix is a private read-only copy.  The
    eigendecomposition holds a second dim x dim array of the matrix's
    dtype, so a diagonalized operator takes twice the memory of the matrix
    alone (512 MiB instead of 256 MiB for a complex one at dim 4096).
    """

    matrix: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.matrix)  # before as_matrix copies
        if len(shape) == 2 and shape[0] == shape[1] > MAX_OPERATOR_DIM:
            raise CapacityError(
                f"operator dimension {shape[0]} exceeds the maximum {MAX_OPERATOR_DIM}"
            )
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"operator matrix must be square, got {m.shape}")
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
        try:
            eigenvalues, eigenvectors = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError:  # no convergence: retry at a power-of-two scale
            exponent = math.frexp(self._hermiticity[2])[1]
            eigenvalues, eigenvectors = np.linalg.eigh(self.matrix * 2.0**-exponent)
            with np.errstate(over="ignore"):  # an overflow is rejected below
                eigenvalues = np.ldexp(eigenvalues, exponent)
        if np.any(eigenvalues[1:] < eigenvalues[:-1]):  # LAPACK can misorder wide spectra
            order = np.argsort(eigenvalues, kind="stable")
            eigenvalues, eigenvectors = eigenvalues[order], eigenvectors[:, order]
        if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(eigenvectors))):
            raise ValidationError(
                "eigendecomposition is not finite: the operator's entries are too large"
            )
        eigenvalues.flags.writeable = False
        eigenvectors.flags.writeable = False
        return EigResult(eigenvalues, eigenvectors)


class EigResult(NamedTuple):
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are float64 and ascending; ``eigenvectors`` holds the
    matching unit-norm eigenvectors as columns, float64 for a float64
    operator and complex128 otherwise.  Contract: the columns are
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


def bound_exceeded(x: float, tol: float, op: Operator | None = None) -> float | None:
    """The bound ``tol * max(1, ||M||_F)`` of ``M = op.matrix`` if ``|x|`` exceeds it, else None.

    The one bound rule of the package.  Both sides are compared divided by
    M's largest entry modulus, kept on ``op`` by :func:`require_hermitian`,
    so neither overflows; the bound returned is in the units of ``x``.
    Without ``op`` the bound is the absolute ``tol``.
    """
    _, norm, scale = op._hermiticity if op is not None else (0.0, 0.0, 1.0)
    bound = tol * max(1.0 / scale, norm)
    return bound * scale if abs(x) / scale > bound else None


def trace_deviation(op: Operator) -> float:
    """``|tr M - 1|`` of ``M = op.matrix``; ``inf`` past the float range.

    The diagonal is summed divided by M's largest entry modulus, kept on
    ``op`` by :func:`require_hermitian`, so no partial sum overflows and
    nothing warns; the result overflows only when the deviation does.
    """
    _, _, scale = op._hermiticity
    trace = complex(np.sum(np.diagonal(op.matrix) * (1.0 / scale)))
    return abs(trace - 1.0 / scale) * scale  # Python floats: inf, no warning


def norm_deviation(a: np.ndarray) -> float:
    """``|sum |a_k|**2 - 1|`` of an array; ``inf`` past the float range.

    The squares are summed divided by the largest real or imaginary part
    when that exceeds 1, so none overflows and nothing warns.  Otherwise,
    as for every normalized state, the sum is the plain one, bit for bit.
    """
    parts = a.view(np.float64)
    scale = max(1.0, float(parts.max()), -float(parts.min()))
    norm_sq = float(np.sum(np.abs(a if scale == 1.0 else a * (1.0 / scale)) ** 2))
    return abs(norm_sq - 1.0 / scale / scale) * scale * scale  # Python floats: inf, no warning


def require_hermitian(op: Operator, what: str = "operator") -> None:
    """Reject an operator whose Hermiticity residual exceeds the tolerance.

    The bound is relative: ``||M - M^dagger||_F <= 1e-9 * max(1, ||M||_F)``,
    with both norms taken by :func:`scaled_hermiticity` and compared by
    :func:`bound_exceeded`, so neither overflows for entries near the float
    limit.  The norms are computed on the first call and kept on the
    instance; every call still raises with its own ``what``.
    """
    residual, _, scale = op._hermiticity
    bound = bound_exceeded(residual * scale, HERMITICITY_TOL, op)
    if bound is not None:
        raise ValidationError(
            f"{what} is not Hermitian: {describe_residual(residual, scale, bound)}"
        )


def real_value(value: complex, op: Operator, what: str) -> float:
    """The real part of ``value``, a quadratic form ``<x|F|x>`` of ``F = op.matrix``.

    For unit ``x`` the imaginary part is at most ``||F - F^dagger||_2 / 2``,
    half what :func:`require_hermitian` admits, so it is held to that same
    bound: a larger residue is a defect.  A value past the float range
    raises as well.
    """
    if not cmath.isfinite(value):
        raise ValidationError(f"{what} exceeds the float range")
    if bound_exceeded(value.imag, HERMITICITY_TOL, op) is not None:
        raise ValidationError(f"{what} has imaginary residue {value.imag:.3e}")
    return value.real


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
        columns in the same order, float64 for a real ``h`` and complex128
        otherwise.  The arrays are read-only and cached on ``h``, so
        repeated calls (every beta of a sweep, both sides of the
        equivalence check) share one diagonalization.
    """
    return h._eig


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``M = U diag(s) Vh``, as numpy's.

    ``u`` (orthonormal columns) and ``vh`` (orthonormal rows) have the dtype
    of ``m``; ``s`` is nonnegative and sorted descending.
    """
    return np.linalg.svd(m, full_matrices=False)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m``, descending, as by :func:`svd` without vectors."""
    return np.linalg.svd(m, compute_uv=False)
