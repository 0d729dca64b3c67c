"""Acceptance gate: the ten shipping criteria.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
and fails loudly through pytest if its criterion is not met.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import oracles
from thermofield.bipartite import (
    DensityMatrix,
    entanglement_entropy,
    environment_density,
    joint_density,
    reduced_density,
    schmidt_decompose,
)
from thermofield.errors import ValidationError
from thermofield.linalg import Operator, hermitian_eig, hermiticity_residual
from thermofield.models import build_oscillator, build_random_hermitian, random_bipartite_state
from thermofield.thermal import (
    decohere_tfd,
    gibbs_density,
    thermal_spectrum,
    thermofield_double,
    verify_equivalence,
)

BETAS = (0.0, 0.1, 1.0, 10.0, 100.0)


def _report(number, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} FAIL {label}")
        raise
    print(f"criterion {number:2d} PASS {label}")


def sweep_cases():
    """100 seeded (h, beta) pairs over dims 2..8 and the documented betas."""
    for i in range(100):
        dim = 2 + i % 7
        beta = BETAS[i % 5]
        yield i, dim, beta


def test_criterion_1_equivalence_theorem():
    def body():
        start = time.monotonic()
        for i, dim, beta in sweep_cases():
            h = build_random_hermitian(dim, seed=1000 + i)
            f = build_random_hermitian(dim, seed=2000 + i)
            report = verify_equivalence(h, beta, f)
            assert report.residual <= 1e-10, (i, dim, beta, report.residual)
        assert time.monotonic() - start <= 10.0

    _report(1, "ensemble average equals doubled-state expectation (100 cases)", body)


def test_criterion_2_purification_identity():
    def body():
        for i, dim, beta in sweep_cases():
            h = build_random_hermitian(dim, seed=1000 + i)
            state = thermofield_double(h, beta)
            want = oracles.gibbs_expm(h.matrix, beta)
            gap = np.linalg.norm(reduced_density(state).matrix - want)
            assert gap <= 1e-10, (i, dim, beta, gap)

    _report(2, "doubled-state reduction reproduces the Gibbs matrix", body)


def test_criterion_3_schmidt_correctness():
    def body():
        dims = [(da, db) for da in range(2, 6) for db in range(2, 6)]
        for i in range(200):
            da, db = dims[i % len(dims)]
            state = random_bipartite_state(da, db, seed=3000 + i)
            result = schmidt_decompose(state)
            recon = (result.basis_a * result.coefficients[np.newaxis, :]) @ result.basis_b.T
            assert np.linalg.norm(recon - state.amplitudes) <= 1e-10
            eigs = np.linalg.eigvalsh(reduced_density(state).matrix)[::-1]
            padded = np.zeros(da)
            padded[: result.coefficients.size] = result.coefficients**2
            assert np.max(np.abs(np.sort(padded) - np.sort(eigs))) <= 1e-10

    _report(3, "Schmidt reconstruction and spectrum match (200 states)", body)


def test_criterion_4_maximal_entanglement_at_beta_zero():
    def body():
        for d in range(2, 9):
            h = build_random_hermitian(d, seed=4000 + d)
            state = thermofield_double(h, 0.0)
            assert abs(entanglement_entropy(state) - math.log(d)) <= 1e-10
        flat = Operator(2.25 * np.eye(5))
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            state = thermofield_double(flat, beta)
            assert abs(entanglement_entropy(state) - math.log(5)) <= 1e-10

    _report(4, "infinite-temperature doubled state is maximally entangled", body)


def test_criterion_5_ground_state_limit():
    def body():
        for seed in range(5000, 5010):
            h = build_random_hermitian(5, seed=seed)
            eig = hermitian_eig(h)
            gap = float(eig.eigenvalues[1] - eig.eigenvalues[0])
            assert gap > 1e-6  # seeded spectra are nondegenerate
            state = thermofield_double(h, beta=50.0 / gap)
            ground_pair = np.zeros((5, 5), dtype=complex)
            ground_pair[:, 0] = eig.eigenvectors[:, 0]
            overlap = complex(np.vdot(ground_pair, state.amplitudes))
            fidelity = abs(overlap) ** 2 / (
                float(np.vdot(ground_pair, ground_pair).real)
                * float(np.vdot(state.amplitudes, state.amplitudes).real)
            )
            assert fidelity >= 1.0 - 1e-15, (seed, fidelity)

    _report(5, "deep-cold doubled state collapses onto the ground pair", body)


def test_criterion_6_density_matrix_axioms():
    def body():
        produced = []
        for seed, beta in ((6001, 0.0), (6002, 0.7), (6003, 12.0)):
            h = build_random_hermitian(4, seed=seed)
            produced.append(gibbs_density(h, beta))
            produced.append(decohere_tfd(h, beta))
            state = random_bipartite_state(4, 3, seed=seed)
            produced.append(reduced_density(state))
            produced.append(environment_density(state))
            produced.append(joint_density(state))
        for rho in produced:
            m = rho.matrix
            assert hermiticity_residual(m) <= 1e-9
            assert abs(np.trace(m).real - 1.0) <= 1e-9
            assert float(np.min(np.linalg.eigvalsh(m))) >= -1e-9
        # and the constructor actually enforces them
        try:
            DensityMatrix(np.diag([1.5, -0.5]))
        except ValidationError:
            pass
        else:
            raise AssertionError("invalid density matrix was accepted")

    _report(6, "every produced density matrix satisfies the three axioms", body)


def test_criterion_7_entropy_monotone_in_beta():
    def body():
        grid = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
        for seed in range(7000, 7020):
            h = build_random_hermitian(5, seed=seed)
            entropies = [entanglement_entropy(thermofield_double(h, b)) for b in grid]
            drops = np.diff(entropies)
            assert np.all(drops <= 1e-12), (seed, entropies)

    _report(7, "doubled-state entropy never increases with beta (20 models)", body)


def test_criterion_8_extreme_beta_stability():
    def body():
        h = Operator(np.diag(np.linspace(0.0, 100.0, 8)))
        spec = thermal_spectrum(h, beta=1e4)
        assert np.all(np.isfinite(spec.probabilities))
        assert abs(float(np.sum(spec.probabilities)) - 1.0) <= 1e-12
        assert abs(spec.probabilities[0] - 1.0) <= 1e-12
        assert np.isfinite(spec.log_partition)

    _report(8, "beta 1e4 over a 100-unit span stays finite and normalized", body)


def test_criterion_9_cli_determinism_and_exit_codes():
    def body():
        model = '{"kind": "random_hermitian", "params": {"dim": 4, "seed": 99}}'

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "thermofield", *args],
                capture_output=True,
                text=True,
            )

        verify_args = ("verify", "--model", model, "--observable", "energy", "--beta", "0.5,3")
        first, second = run(*verify_args), run(*verify_args)
        assert first.stdout == second.stdout and first.stdout
        assert first.returncode == second.returncode == 0
        tfd_args = ("tfd", "--model", model, "--beta", "0.5,3")
        third, fourth = run(*tfd_args), run(*tfd_args)
        assert third.stdout == fourth.stdout and third.stdout
        assert third.returncode == 0
        failing = run(*verify_args, "--tol", "1e-30")
        assert failing.returncode == 1
        json.loads(failing.stdout)  # data still emitted
        broken = run("verify", "--model", "{oops", "--observable", "energy", "--beta", "1")
        assert broken.returncode == 2

    _report(9, "CLI output is byte-stable and exit codes follow the contract", body)


def test_criterion_10_oscillator_closed_form():
    def body():
        spec = thermal_spectrum(build_oscillator(1.0, 50), beta=1.0)
        want = oracles.oscillator_log_z(1.0, 1.0, 50)
        assert abs(spec.log_partition - want) <= 1e-12

    _report(10, "truncated oscillator log partition matches the series", body)
