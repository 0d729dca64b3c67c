"""Canonical ensembles and their purification on a doubled space.

Inverse temperature ``beta`` is taken directly (Boltzmann constant folded
in, so ``beta`` carries inverse energy units).  All Boltzmann weights are
computed relative to the ground energy and the partition function is
only ever exposed through its logarithm, which keeps every quantity finite
for arbitrarily large ``beta`` or energy spans; a log partition sum past the
float range raises.  An observable that ``require_hermitian`` admits is
accepted by every expectation value (see :func:`linalg.real_value`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import bipartite
from .bipartite import BipartitePureState, DensityMatrix
from .errors import CapacityError, ValidationError
from .linalg import EigResult, Operator, dagger, hermitian_eig, real_value, require_hermitian

__all__ = [
    "ThermalSpectrum",
    "ThermalReport",
    "thermal_spectrum",
    "gibbs_density",
    "thermofield_double",
    "verify_betas",
    "verify_equivalence",
    "decohere_tfd",
]


@dataclass(frozen=True)
class ThermalSpectrum:
    """Energies and occupation probabilities of a canonical ensemble.

    ``energies`` ascend; ``probabilities[n]`` is the Boltzmann weight of
    the n-th eigenstate (degenerate levels contribute one entry per
    eigenstate).  ``log_partition`` is the log of the full partition sum.
    Every value must be finite.
    """

    beta: float
    energies: np.ndarray
    probabilities: np.ndarray
    log_partition: float

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=np.float64)
        p = np.asarray(self.probabilities, dtype=np.float64)
        if e.shape != p.shape or e.ndim != 1:
            raise ValidationError("energies and probabilities must be matching vectors")
        if not np.isfinite(np.concatenate([e, p, [self.log_partition]])).all():
            raise ValidationError("energies, probabilities and log partition sum must be finite")
        if np.any(e[1:] < e[:-1]):  # no difference, which could overflow
            raise ValidationError("energies must be ascending")
        if np.any(p < 0.0):
            raise ValidationError("probabilities must be nonnegative")
        dev = abs(float(np.sum(p)) - 1.0)
        if dev > 1e-12:
            raise ValidationError(f"probabilities must sum to 1, deviation {dev:.3e}")


@dataclass(frozen=True)
class ThermalReport:
    """Serializable outcome of one equivalence check at fixed ``beta``."""

    beta: float
    observable_name: str
    trace_average: float
    doubled_expectation: float
    schmidt_coefficients: np.ndarray

    @property
    def residual(self) -> float:
        """``|trace_average - doubled_expectation|``."""
        return abs(self.trace_average - self.doubled_expectation)

    @property
    def entropy(self) -> float:
        """Entropy of entanglement of the thermal double, in nats."""
        return bipartite.schmidt_entropy(self.schmidt_coefficients)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")
    if beta < 0.0:
        raise ValidationError(f"negative beta rejected, got {beta}")
    return beta


def _boltzmann(eig: EigResult, beta: float) -> tuple[np.ndarray, float]:
    """Occupation probabilities and log partition sum for given energies.

    Weights are shifted by the ground energy before exponentiation so
    none can overflow.  An exponent that overflows is a vanishing weight,
    and at ``beta = 0`` every weight is 1 even when the spectrum spans more
    than the float range.
    """
    energies = eig.eigenvalues
    shift = energies[0]
    if beta == 0.0:
        weights = np.ones_like(energies)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (energies - shift))
    total = float(np.sum(weights))
    probabilities = weights / total
    log_partition = math.log(total) - beta * float(shift)
    return probabilities, log_partition


def thermal_spectrum(hamiltonian: Operator, beta: float) -> ThermalSpectrum:
    """Diagonalize a Hamiltonian and attach canonical weights.

    Parameters
    ----------
    hamiltonian : Operator
        Hermitian within the standard tolerance.
    beta : float
        Inverse temperature, finite and nonnegative.

    Returns
    -------
    ThermalSpectrum
        Ascending energies, per-eigenstate probabilities, and the log of
        the partition sum.
    """
    beta = _check_beta(beta)
    eig = hermitian_eig(hamiltonian)
    probabilities, log_partition = _boltzmann(eig, beta)
    return ThermalSpectrum(beta, eig.eigenvalues, probabilities, log_partition)


def gibbs_density(hamiltonian: Operator, beta: float) -> DensityMatrix:
    """Canonical equilibrium density matrix at inverse temperature ``beta``.

    Assembled in the energy eigenbasis, so it commutes with the
    Hamiltonian by construction.
    """
    beta = _check_beta(beta)
    eig = hermitian_eig(hamiltonian)
    probabilities, _ = _boltzmann(eig, beta)
    v = eig.eigenvectors
    return DensityMatrix(Operator((v * probabilities[np.newaxis, :]) @ dagger(v)))


def _check_dims(hamiltonian: Operator, observable: Operator) -> None:
    if observable.dim != hamiltonian.dim:
        raise ValidationError(
            f"observable dimension {observable.dim} does not match "
            f"Hamiltonian dimension {hamiltonian.dim}"
        )


def _check_capacity(dim: int) -> None:
    if dim * dim > bipartite.MAX_STATE_AMPLITUDES:
        raise CapacityError(
            f"doubled state with {dim * dim} amplitudes exceeds the maximum "
            f"{bipartite.MAX_STATE_AMPLITUDES}"
        )


def _ensemble_diagonal(eig: EigResult, observable: Operator) -> np.ndarray:
    """Matrix elements ``<n|F|n>`` in the energy eigenbasis; beta does not enter."""
    v = eig.eigenvectors
    with np.errstate(over="ignore", invalid="ignore"):  # real_value rejects what overflows
        return np.sum(v.conj() * (observable.matrix @ v), axis=0)


def thermofield_double(hamiltonian: Operator, beta: float) -> BipartitePureState:
    """Thermal double: the canonical ensemble lifted to a pure state.

    The doubled factor gets one coordinate basis vector per eigenstate, in
    eigenvalue order, so the amplitude matrix is the eigenvector matrix
    with columns scaled by the square-root probabilities.  Reducing over
    the doubled factor recovers the Gibbs state exactly.
    """
    beta = _check_beta(beta)
    _check_capacity(hamiltonian.dim)
    eig = hermitian_eig(hamiltonian)
    probabilities, _ = _boltzmann(eig, beta)
    amplitudes = eig.eigenvectors * np.sqrt(probabilities)[np.newaxis, :]
    return BipartitePureState(amplitudes)


def verify_betas(
    hamiltonian: Operator,
    betas: Iterable[float],
    observable: Operator,
    observable_name: str = "observable",
) -> list[ThermalReport]:
    """Check that the ensemble average equals the doubled-space expectation.

    Returns one :class:`ThermalReport` per entry of ``betas``, in order.
    Every input is validated first (the dimensions, each beta, the
    capacity of the doubled state), so a bad input raises before any
    diagonalization.  The work that does not depend on beta is then done
    once: one diagonalization of the Hamiltonian, one Hermiticity check of
    the observable, and the eigenbasis matrix elements ``<n|F|n>`` (one
    ``F @ V`` product).  Each beta then costs one inner product on the
    ensemble side.

    The doubled side runs independently for every beta: it builds the
    thermal double with :func:`thermofield_double` and evaluates the
    amplitude double sum of :func:`bipartite.expectation` (one ``F @ a``
    product).  The two sides share only the diagonalization of the
    Hamiltonian, which is cached on it.  They agree within
    ``1e-10 * max(1, ||F||_2)``, the bound the tests hold them to; a larger
    residual is a defect, so the report carries it rather than raising.
    CLI ``verify`` holds the worst residual to ``--tol * max(1, ||F||_F)``
    with :func:`linalg.bound_exceeded`; the Frobenius norm is at least the
    spectral one.  Each side is the real part of a quadratic form of ``F``,
    whose imaginary residue :func:`linalg.real_value` holds to the bound
    that admitted ``F``, so an admitted observable passes; a side past the
    float range raises :class:`ValidationError`.

    The Schmidt spectrum is read from the construction, not measured: in
    the energy eigenbasis the thermal double already is the biorthogonal
    expansion ``sum_n sqrt(p_n) |n> (x) |e_n>``, with the coordinate (tilde)
    basis as the surroundings basis, so the coefficients are the
    square-root probabilities sorted descending.  CLI ``tfd`` and
    ``schmidt`` measure the spectrum as singular values instead.
    """
    _check_dims(hamiltonian, observable)
    betas = [_check_beta(beta) for beta in betas]
    _check_capacity(hamiltonian.dim)
    eig = hermitian_eig(hamiltonian)
    require_hermitian(observable, "observable")
    diagonal = _ensemble_diagonal(eig, observable)
    reports = []
    for beta in betas:
        probabilities, _ = _boltzmann(eig, beta)
        with np.errstate(invalid="ignore"):
            value = complex(np.dot(probabilities, diagonal))
        trace_average = real_value(value, observable, "thermal average")
        state = thermofield_double(hamiltonian, beta)
        doubled = bipartite.expectation(state, observable)
        coefficients = np.sort(np.sqrt(probabilities))[::-1]
        reports.append(ThermalReport(beta, observable_name, trace_average, doubled, coefficients))
    return reports


def verify_equivalence(
    hamiltonian: Operator,
    beta: float,
    observable: Operator,
    observable_name: str = "observable",
) -> ThermalReport:
    """The equivalence check of :func:`verify_betas` at one ``beta``."""
    return verify_betas(hamiltonian, [beta], observable, observable_name)[0]


def decohere_tfd(hamiltonian: Operator, beta: float) -> DensityMatrix:
    """Reduce the thermal double state over its doubled factor.

    The result matches :func:`gibbs_density` within 1e-10 Frobenius: the
    mixed equilibrium state re-emerges from the pure doubled one.
    """
    return bipartite.reduced_density(thermofield_double(hamiltonian, beta))

