"""Canonical ensembles and their purification on a doubled space.

Inverse temperature ``beta`` is taken directly (Boltzmann constant folded
in, so ``beta`` carries inverse energy units).  All Boltzmann weights are
computed relative to the extremal energy and the partition function is
only ever exposed through its logarithm, which keeps every quantity finite
for arbitrarily large ``beta`` or energy spans.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import bipartite
from .bipartite import BipartitePureState, DensityMatrix
from .errors import CapacityError, ValidationError
from .linalg import EigResult, Operator, dagger, hermitian_eig, require_hermitian

__all__ = [
    "ThermalSpectrum",
    "ThermalReport",
    "thermal_spectrum",
    "gibbs_density",
    "thermal_average",
    "thermofield_double",
    "verify_betas",
    "verify_equivalence",
    "decohere_tfd",
    "gibbs_grand",
]


@dataclass(frozen=True)
class ThermalSpectrum:
    """Energies and occupation probabilities of a canonical ensemble.

    ``energies`` ascend; ``probabilities[n]`` is the Boltzmann weight of
    the n-th eigenstate (degenerate levels contribute one entry per
    eigenstate).  ``log_partition`` is the log of the full partition sum.
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
        if np.any(np.diff(e) < 0.0):
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
    residual: float
    entropy: float
    schmidt_coefficients: np.ndarray

    def __post_init__(self):
        expected = abs(self.trace_average - self.doubled_expectation)
        if not math.isclose(self.residual, expected, rel_tol=0.0, abs_tol=1e-15):
            raise ValidationError("residual must equal |trace_average - doubled_expectation|")


def _check_beta(beta: float, allow_negative_beta: bool) -> float:
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")
    if beta < 0.0 and not allow_negative_beta:
        raise ValidationError(
            "negative beta rejected; pass allow_negative_beta=True to permit "
            "population inversion on a bounded spectrum"
        )
    return beta


def _boltzmann(eig: EigResult, beta: float) -> tuple[np.ndarray, float]:
    """Occupation probabilities and log partition sum for given energies.

    Weights are shifted by the extremal energy before exponentiation so
    none can overflow; for ``beta >= 0`` the shift is the ground energy,
    for the negative-beta extension it is the top of the spectrum.  An
    exponent that overflows is a vanishing weight, and at ``beta = 0``
    every weight is 1 even when the spectrum spans more than the float
    range.
    """
    energies = eig.eigenvalues
    shift = energies[0] if beta >= 0.0 else energies[-1]
    if beta == 0.0:
        weights = np.ones_like(energies)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (energies - shift))
    total = float(np.sum(weights))
    probabilities = weights / total
    log_partition = math.log(total) - beta * float(shift)
    return probabilities, log_partition


def thermal_spectrum(
    hamiltonian: Operator, beta: float, *, allow_negative_beta: bool = False
) -> ThermalSpectrum:
    """Diagonalize a Hamiltonian and attach canonical weights.

    Parameters
    ----------
    hamiltonian : Operator
        Hermitian within the standard tolerance.
    beta : float
        Inverse temperature, finite and nonnegative unless the explicit
        opt-in flag is set.

    Returns
    -------
    ThermalSpectrum
        Ascending energies, per-eigenstate probabilities, and the log of
        the partition sum.
    """
    beta = _check_beta(beta, allow_negative_beta)
    eig = hermitian_eig(hamiltonian)
    probabilities, log_partition = _boltzmann(eig, beta)
    return ThermalSpectrum(beta, eig.eigenvalues, probabilities, log_partition)


def gibbs_density(
    hamiltonian: Operator, beta: float, *, allow_negative_beta: bool = False
) -> DensityMatrix:
    """Canonical equilibrium density matrix at inverse temperature ``beta``.

    Assembled in the energy eigenbasis, so it commutes with the
    Hamiltonian by construction.
    """
    beta = _check_beta(beta, allow_negative_beta)
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
    return np.sum(v.conj() * (observable.matrix @ v), axis=0)


def _ensemble_value(probabilities: np.ndarray, diagonal: np.ndarray) -> float:
    value = complex(np.dot(probabilities, diagonal))
    if abs(value.imag) > 1e-10:
        raise ValidationError(f"thermal average has imaginary residue {value.imag:.3e}")
    return value.real


def thermal_average(hamiltonian: Operator, beta: float, observable: Operator) -> float:
    """Ensemble average of an observable: probability-weighted eigensum.

    Evaluates ``sum_n p_n <n|F|n>`` directly from the eigenvectors.  This
    path never touches the doubled space, so it can serve as one side of
    the equivalence check.
    """
    _check_dims(hamiltonian, observable)
    beta = _check_beta(beta, allow_negative_beta=False)
    eig = hermitian_eig(hamiltonian)
    require_hermitian(observable, "observable")
    probabilities, _ = _boltzmann(eig, beta)
    return _ensemble_value(probabilities, _ensemble_diagonal(eig, observable))


def thermofield_double(
    hamiltonian: Operator, beta: float, *, allow_negative_beta: bool = False
) -> BipartitePureState:
    """Thermal double: the canonical ensemble lifted to a pure state.

    The doubled factor gets one coordinate basis vector per eigenstate, in
    eigenvalue order, so the amplitude matrix is the eigenvector matrix
    with columns scaled by the square-root probabilities.  Reducing over
    the doubled factor recovers the Gibbs state exactly.
    """
    beta = _check_beta(beta, allow_negative_beta)
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
    Hamiltonian, which is cached on it.  They agree within 1e-10 for every
    valid input; a larger residual is a defect, so the report carries it
    rather than raising.

    The Schmidt spectrum is taken from the construction, not measured: in
    the energy eigenbasis the thermal double is already the biorthogonal
    expansion ``sum_n sqrt(p_n) |n> (x) |e_n>``, so the coefficients are the
    square-root probabilities sorted descending (stably), the system basis
    is the eigenvectors and the surroundings basis the coordinate vectors
    in that order.  :func:`bipartite.schmidt_from_factors` takes that basis
    as coordinate indices and checks the factorization against the state's
    amplitudes within 1e-10, in O(d^2).  CLI ``tfd`` and ``schmidt``
    measure the spectrum by SVD instead.
    """
    _check_dims(hamiltonian, observable)
    betas = [_check_beta(beta, allow_negative_beta=False) for beta in betas]
    _check_capacity(hamiltonian.dim)
    eig = hermitian_eig(hamiltonian)
    require_hermitian(observable, "observable")
    diagonal = _ensemble_diagonal(eig, observable)
    reports = []
    for beta in betas:
        probabilities, _ = _boltzmann(eig, beta)
        trace_average = _ensemble_value(probabilities, diagonal)
        state = thermofield_double(hamiltonian, beta)
        doubled = bipartite.expectation(state, observable)
        weights = np.sqrt(probabilities)
        order = np.argsort(-weights, kind="stable")
        schmidt = bipartite.schmidt_from_factors(
            state, weights[order], eig.eigenvectors[:, order], order
        )
        reports.append(
            ThermalReport(
                beta=beta,
                observable_name=observable_name,
                trace_average=trace_average,
                doubled_expectation=doubled,
                residual=abs(trace_average - doubled),
                entropy=bipartite.schmidt_entropy(schmidt.coefficients),
                schmidt_coefficients=schmidt.coefficients,
            )
        )
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


def gibbs_grand(
    hamiltonian: Operator,
    number_op: Operator,
    beta: float,
    mu: float,
    *,
    allow_negative_beta: bool = False,
) -> DensityMatrix:
    """Grand-canonical density matrix via the shifted Hamiltonian.

    Standard construction: weights follow ``H - mu * N`` at the same
    inverse temperature, which reduces to the canonical result when the
    chemical potential vanishes or the number operator is a multiple of
    the identity.
    """
    if number_op.dim != hamiltonian.dim:
        raise ValidationError(
            f"number operator dimension {number_op.dim} does not match "
            f"Hamiltonian dimension {hamiltonian.dim}"
        )
    require_hermitian(hamiltonian, "Hamiltonian")
    require_hermitian(number_op, "number operator")
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValidationError(f"chemical potential must be finite, got {mu}")
    shifted = Operator(hamiltonian.matrix - mu * number_op.matrix)
    return gibbs_density(shifted, beta, allow_negative_beta=allow_negative_beta)
