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
    "ADMISSION_TOL",
    "RESIDUAL_TOL",
    "ROUNDING_ALLOWANCE",
    "RANK_CUTOFF",
    "ENTROPY_CUTOFF",
    "PROBABILITY_SUM_TOL",
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


def numeric_array(entries) -> np.ndarray:
    """``entries`` as an array of numbers, copied only to make it complex128.

    Strings (never parsed as numbers), dates, ragged rows and other objects
    raise :class:`ValidationError`.
    """
    try:
        m = np.asarray(entries)
        if m.dtype.kind in "biuf":
            return m
        if m.dtype.kind in "cO":  # complex, or objects numpy may read as complex
            return np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError):  # ragged rows, or objects that are not numbers
        pass
    raise ValidationError("matrix entries must be numbers, in rows of equal length")


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a read-only 2-D array with finite entries, copied once.

    float64 when the input has no imaginary part or every one is exactly
    zero (``-0.0`` too), complex128 otherwise; real input is copied straight
    to float64.  What :func:`numeric_array` rejects raises here too.
    """
    m = numeric_array(entries)
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


@dataclass(frozen=True, eq=False)
class Operator:
    """A square matrix with a fixed dimension.

    Carries Hamiltonians, observables, and, as the subclass
    :class:`bipartite.DensityMatrix`, density matrices.  The matrix is
    :func:`as_matrix`'s read-only copy, safe to share across threads.

    The eigendecomposition is made the first time :func:`hermitian_eig` is
    called on an instance and kept, read-only, while the instance lives;
    every later call returns it.  The Hermiticity margin of
    :func:`require_hermitian` is kept the same way, so an operator is
    checked once however many layers require it.  Neither cache can go
    stale because the matrix is a private read-only copy, and operators
    compare and hash by identity, as the caches do.  The eigendecomposition
    holds a second dim x dim array of the matrix's dtype, so a diagonalized
    operator takes twice the memory of the matrix alone (512 MiB instead of
    256 MiB for a complex one at dim 4096).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = numeric_array(self.matrix)  # before as_matrix copies
        if m.ndim == 2 and m.shape[0] == m.shape[1] > MAX_OPERATOR_DIM:
            raise CapacityError(
                f"operator dimension {m.shape[0]} exceeds the maximum {MAX_OPERATOR_DIM}"
            )
        m = as_matrix(m)
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


# -- the tolerance table ------------------------------------------------------
# Every tolerance of the package, each defined once here: why it has its
# value, and the layer that applies it.

# Admission, the first layer: what a value may be off by and still enter.
# Relative for Hermiticity (require_hermitian, through bound_exceeded), a
# density matrix's too; absolute for a state's norm (BipartitePureState) and
# for a density matrix's trace and smallest eigenvalue (DensityMatrix),
# objects of norm 1.  About 4.5 million units of 2**-52: far above the
# rounding that sound input carries, far below a real defect.
ADMISSION_TOL = 1e-9

# Residual checks on results: schmidt_decompose's reconstruction of the
# amplitudes (Frobenius), the default of CLI --tol (verify, relative to the
# observable; purify, absolute, plus the mass purify clips), and the
# orthonormality certificate of singular_values.  Ten times tighter than
# admission, and over fifty times the largest reconstruction residual
# measured (1.8e-12, see README), so a residual past it is a defect.  It is
# the orthonormality EigResult promises, so the thermal double and the
# purification, V diag(sqrt p), pass the certificate.  Its error bound
# (Ostrowski's theorem, as in Demmel & Veselic, SIAM J. Matrix Anal. Appl.
# 13, 1992): when the normalized nonzero columns of M have the Gram matrix
# I + E, each singular value is its column norm times sqrt(1 + e) with
# |e| <= ||E||_2 <= ||E||_F, so within relative RESIDUAL_TOL of the norm;
# measured ||E||_F is at most 1.3e-13 on thermal doubles up to d = 1024.
RESIDUAL_TOL = 1e-10

# Rounding allowed, on top of ADMISSION_TOL, to a normalization that a later
# layer sums again in another order: the squared Schmidt coefficients of a
# state (min(dim_a, dim_b) terms, bipartite._check_coefficients) or the
# trace of a reduction (dim terms, DensityMatrix).  Neither sum has more
# than MAX_OPERATOR_DIM terms, and each term carries a few units of 2**-52
# from the factorization or the product that made it (at most 2.5
# measured), so 4 units per term of the longest sum: about 3.6e-12, far
# below the tolerances themselves.
ROUNDING_ALLOWANCE = 4 * MAX_OPERATOR_DIM * 2.0**-52

# Schmidt coefficients at or below this fraction of the largest one count
# as zero in the rank (bipartite.schmidt_rank) and are dropped from the
# reconstruction: at most MAX_OPERATOR_DIM of them add at most
# sqrt(4096) * 1e-12 = 6.4e-11, inside RESIDUAL_TOL.
RANK_CUTOFF = 1e-12

# Probabilities at or below this are dropped from the entropy sum
# (bipartite.schmidt_entropy, 0 ln 0 = 0): each would add under 3.5e-14 nats.
ENTROPY_CUTOFF = 1e-15

# Deviation from 1 allowed to the probability sum of a ThermalSpectrum
# (thermal).  thermal._boltzmann divides the weights by their own float
# sum, which leaves a few units of 2**-52, far below it.
PROBABILITY_SUM_TOL = 1e-12


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

    The bound is relative:
    ``||M - M^dagger||_F <= ADMISSION_TOL * max(1, ||M||_F)``,
    with both norms taken by :func:`scaled_hermiticity` and compared by
    :func:`bound_exceeded`, so neither overflows for entries near the float
    limit.  The norms are computed on the first call and kept on the
    instance; every call still raises with its own ``what``, and never
    prints the residual as ``inf``.
    """
    residual, _, scale = op._hermiticity
    value = residual * scale
    bound = bound_exceeded(value, ADMISSION_TOL, op)
    if bound is not None:
        amount = f"{value:.3e} exceeds {bound:.3e}" if math.isfinite(value) else None
        raise ValidationError(
            f"{what} is not Hermitian: residual {amount or 'exceeds the float range'}"
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
    if bound_exceeded(value.imag, ADMISSION_TOL, op) is not None:
        raise ValidationError(f"{what} has imaginary residue {value.imag:.3e}")
    return value.real


def hermitian_eig(h: Operator) -> EigResult:
    """Eigendecomposition of a Hermitian operator, made once per operator.

    Real eigenvalues sorted ascending and orthonormal eigenvector columns in
    the same order, float64 for a real ``h`` and complex128 otherwise.  An
    ``h`` that :func:`require_hermitian` rejects raises its
    :class:`ValidationError`, and so does a spectrum that overflows.  The
    arrays are read-only and cached on ``h``, so repeated calls (every beta
    of a sweep, both sides of the equivalence check, :func:`bipartite.purify`
    of an admitted density matrix) share one diagonalization.
    """
    return h._eig


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``M = U diag(s) Vh``, as numpy's.

    ``u`` (orthonormal columns) and ``vh`` (orthonormal rows) have the dtype
    of ``m``; ``s`` is nonnegative and sorted descending.
    """
    return np.linalg.svd(m, full_matrices=False)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m``, descending, as by :func:`svd` without vectors.

    A matrix whose nonzero columns are orthogonal, such as a thermal double
    or a purification (the Schmidt form ``V diag(sqrt p)``), has its column
    norms as singular values.  They are taken when
    :func:`_orthogonal_column_norms` certifies that form, sorted descending
    and padded with zeros to ``min(m.shape)``; any other matrix goes to one
    LAPACK ``gesdd`` without vectors, in its own dtype.
    """
    norms = _orthogonal_column_norms(m)
    return np.linalg.svd(m, compute_uv=False) if norms is None else norms


# Columns per Gram block: a generic matrix fails the certificate on its
# first block, and the temporaries beside the normalized columns stay
# O(64 * dim).
_GRAM_BLOCK = 64


def _orthogonal_column_norms(m: np.ndarray) -> np.ndarray | None:
    """Column norms of ``m``, descending, if its nonzero columns are orthogonal.

    The columns are taken a block at a time: the exactly-zero ones are
    dropped and the rest normalized into a scratch matrix.  Each norm is
    taken on the column divided by its largest modulus, so no square
    underflows or overflows, and a one-entry column's norm is exactly its
    modulus (a division, unlike a product with the reciprocal, gives
    exactly 1).  The normalized columns pass when the Frobenius norm of
    their Gram matrix minus the identity is at most ``RESIDUAL_TOL`` (see
    the tolerance table for the error bound).  The Gram matrix is made a
    block of rows at a time, each block against the columns up to its own,
    and the check stops at the first block past the bound.  None if the
    certificate fails.
    """
    rows, cols = m.shape
    # the normalized nonzero columns, written a block at a time, so a matrix
    # that fails on its first block touches no more of this than that block
    u = np.empty((rows, min(rows, cols)), dtype=np.result_type(m, 1.0))
    norms = np.zeros(min(rows, cols))
    k = 0  # nonzero columns so far
    deviation = 0.0  # ||G - I||_F**2 over the blocks made so far
    for start in range(0, cols, _GRAM_BLOCK):
        block = m[:, start:start + _GRAM_BLOCK]
        block = block[:, np.any(block, axis=0)]
        first, k = k, k + block.shape[1]
        if k > rows:  # more nonzero columns than rows cannot be orthogonal
            return None
        modulus = np.abs(block)
        scale = modulus.max(axis=0)
        modulus /= scale
        norms[first:k] = np.sqrt(np.sum(modulus * modulus, axis=0)) * scale
        np.divide(block, norms[first:k], out=u[:, first:k])
        gram = u[:, first:k].conj().T @ u[:, :k]
        off_diagonal, diagonal = gram[:, :first], gram[:, first:] - np.eye(k - first)
        deviation += 2.0 * np.linalg.norm(off_diagonal) ** 2 + np.linalg.norm(diagonal) ** 2
        if not deviation <= RESIDUAL_TOL**2:  # negated, so NaN fails too
            return None
    return np.sort(norms)[::-1].copy()
