import math
import pathlib

import numpy as np
import pytest

import oracles
import thermofield
from thermofield.bipartite import entanglement_entropy, reduced_density, schmidt_decompose
from thermofield.errors import ValidationError
from thermofield.linalg import Operator, identity
from thermofield.models import build_random_hermitian, build_two_level
from thermofield.thermal import (
    ThermalReport,
    ThermalSpectrum,
    decohere_tfd,
    gibbs_density,
    gibbs_grand,
    thermal_average,
    thermal_spectrum,
    thermofield_double,
    verify_equivalence,
)

LN2 = math.log(2.0)


class TestThermalSpectrum:
    def test_flat_hamiltonian_uniform(self):
        spec = thermal_spectrum(Operator(np.zeros((3, 3))), beta=4.2)
        np.testing.assert_allclose(spec.probabilities, [1 / 3] * 3, atol=1e-15)
        assert spec.log_partition == pytest.approx(math.log(3.0), abs=1e-12)

    def test_infinite_temperature(self):
        spec = thermal_spectrum(build_two_level(1.0), beta=0.0)
        np.testing.assert_allclose(spec.probabilities, [0.5, 0.5], atol=1e-15)
        assert spec.log_partition == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_level_ln2(self):
        # weights 1 and 1/2, normalization 3/2
        spec = thermal_spectrum(build_two_level(1.0), beta=LN2)
        np.testing.assert_allclose(spec.probabilities, [2 / 3, 1 / 3], atol=1e-14)
        assert spec.log_partition == pytest.approx(math.log(1.5), abs=1e-12)

    def test_energies_ascending_and_normalized(self):
        for seed in range(5):
            spec = thermal_spectrum(build_random_hermitian(6, seed=80 + seed), beta=1.3)
            assert np.all(np.diff(spec.energies) >= 0.0)
            assert np.sum(spec.probabilities) == pytest.approx(1.0, abs=1e-12)
            assert np.all(spec.probabilities >= 0.0)

    def test_log_ratio_identity(self):
        spec = thermal_spectrum(build_random_hermitian(5, seed=85), beta=2.0)
        logs = np.log(spec.probabilities)
        for m in range(5):
            for n in range(5):
                gap = spec.energies[m] - spec.energies[n]
                assert abs(logs[m] - logs[n] + 2.0 * gap) <= 1e-9

    def test_extreme_beta_stability(self):
        h = Operator(np.diag(np.linspace(0.0, 100.0, 6)))
        spec = thermal_spectrum(h, beta=1e4)
        assert np.all(np.isfinite(spec.probabilities))
        assert np.isfinite(spec.log_partition)
        assert spec.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(spec.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_beta_by_default(self):
        with pytest.raises(ValidationError):
            thermal_spectrum(build_two_level(1.0), beta=-1.0)

    def test_negative_beta_opt_in(self):
        spec = thermal_spectrum(build_two_level(1.0), beta=-LN2, allow_negative_beta=True)
        # population inversion: excited state twice the ground weight
        np.testing.assert_allclose(spec.probabilities, [1 / 3, 2 / 3], atol=1e-14)

    def test_rejects_nan_beta(self):
        with pytest.raises(ValidationError):
            thermal_spectrum(build_two_level(1.0), beta=float("nan"))

    def test_type_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ThermalSpectrum(
                beta=1.0,
                energies=np.array([0.0, 1.0]),
                probabilities=np.array([0.7, 0.7]),
                log_partition=0.0,
            )
        with pytest.raises(ValidationError):
            ThermalSpectrum(
                beta=1.0,
                energies=np.array([1.0, 0.0]),
                probabilities=np.array([0.5, 0.5]),
                log_partition=0.0,
            )


class TestGibbsDensity:
    def test_infinite_temperature_is_maximally_mixed(self):
        rho = gibbs_density(build_random_hermitian(4, seed=90), beta=0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-12)

    def test_cold_limit_is_ground_projector(self):
        rho = gibbs_density(build_two_level(1.0), beta=50.0)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-20)

    def test_two_level_ln2(self):
        rho = gibbs_density(build_two_level(1.0), beta=LN2)
        np.testing.assert_allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-14)

    def test_matches_expm_oracle(self):
        for seed, beta in ((91, 0.3), (92, 1.0), (93, 7.0)):
            h = build_random_hermitian(5, seed=seed)
            rho = gibbs_density(h, beta)
            np.testing.assert_allclose(
                rho.matrix, oracles.gibbs_expm(h.matrix, beta), atol=1e-12
            )

    def test_commutes_with_hamiltonian(self):
        h = build_random_hermitian(6, seed=94)
        rho = gibbs_density(h, beta=1.7)
        comm = rho.matrix @ h.matrix - h.matrix @ rho.matrix
        assert np.linalg.norm(comm) <= 1e-12 * max(1.0, np.linalg.norm(h.matrix))


class TestThermalAverage:
    def test_identity_observable(self):
        h = build_random_hermitian(4, seed=95)
        assert thermal_average(h, 2.2, identity(4)) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_temperature_mean(self):
        f = Operator(np.diag([1.0, 2.0, 6.0]))
        h = build_random_hermitian(3, seed=96)
        assert thermal_average(h, 0.0, f) == pytest.approx(3.0, abs=1e-12)

    def test_two_level_third(self):
        h = build_two_level(1.0)
        assert thermal_average(h, LN2, h) == pytest.approx(1 / 3, abs=1e-14)

    def test_against_expm_oracle(self):
        h = build_random_hermitian(5, seed=97)
        f = build_random_hermitian(5, seed=98)
        want = np.trace(oracles.gibbs_expm(h.matrix, 1.4) @ f.matrix).real
        assert thermal_average(h, 1.4, f) == pytest.approx(want, abs=1e-12)

    def test_against_expm_oracle_dims_2_to_64(self):
        for d in range(2, 65):
            h = build_random_hermitian(d, seed=3000 + d)
            f = build_random_hermitian(d, seed=4000 + d)
            want = np.trace(oracles.gibbs_expm(h.matrix, 0.7) @ f.matrix).real
            bound = 1e-12 * max(1.0, np.linalg.norm(f.matrix))
            assert abs(thermal_average(h, 0.7, f) - want) <= bound, d

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            thermal_average(build_two_level(1.0), 1.0, identity(3))


def test_no_einsum_in_package():
    # the O(d^3) contractions run as BLAS matrix products, not einsum loops
    for path in pathlib.Path(thermofield.__file__).parent.glob("*.py"):
        assert "np.einsum" not in path.read_text(encoding="utf-8"), path.name


class TestThermofieldDouble:
    def test_infinite_temperature_maximally_entangled(self):
        for d in (2, 3, 5):
            state = thermofield_double(build_random_hermitian(d, seed=100 + d), beta=0.0)
            coeffs = schmidt_decompose(state).coefficients
            np.testing.assert_allclose(coeffs, [d**-0.5] * d, atol=1e-12)
            assert entanglement_entropy(state) == pytest.approx(math.log(d), abs=1e-10)

    def test_cold_limit_ground_pair(self):
        state = thermofield_double(build_two_level(1.0), beta=50.0)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.linalg.norm(np.abs(state.amplitudes) - expected) <= 1e-10

    def test_two_level_ln2_coefficients(self):
        state = thermofield_double(build_two_level(1.0), beta=LN2)
        coeffs = schmidt_decompose(state).coefficients
        np.testing.assert_allclose(
            coeffs, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12
        )

    def test_proportional_identity_uniform_at_any_beta(self):
        h = Operator(3.7 * np.eye(4))
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            state = thermofield_double(h, beta)
            coeffs = schmidt_decompose(state).coefficients
            np.testing.assert_allclose(coeffs, [0.5] * 4, atol=1e-14)
            assert entanglement_entropy(state) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_reduction_is_gibbs(self):
        h = build_random_hermitian(6, seed=105)
        state = thermofield_double(h, beta=0.8)
        np.testing.assert_allclose(
            reduced_density(state).matrix, gibbs_density(h, 0.8).matrix, atol=1e-12
        )


class TestVerifyEquivalence:
    def test_identity_residual_zero(self):
        h = build_random_hermitian(5, seed=110)
        report = verify_equivalence(h, 1.1, identity(5), "identity")
        assert report.residual <= 1e-12
        assert report.trace_average == pytest.approx(1.0, abs=1e-12)

    def test_bell_point(self):
        h = build_two_level(1.0)
        report = verify_equivalence(h, 0.0, Operator(np.diag([1.0, -1.0])), "z")
        assert report.trace_average == pytest.approx(0.0, abs=1e-12)
        assert report.doubled_expectation == pytest.approx(0.0, abs=1e-12)

    def test_seeded_sweep_dim_6(self):
        h = build_random_hermitian(6, seed=31)
        f = build_random_hermitian(6, seed=32)
        for beta in (0.1, 1.0, 10.0):
            report = verify_equivalence(h, beta, f, "f")
            assert report.residual <= 1e-10
            assert report.beta == beta
            assert report.observable_name == "f"
            assert report.residual == abs(report.trace_average - report.doubled_expectation)

    def test_report_carries_schmidt_and_entropy(self):
        h = build_two_level(1.0)
        report = verify_equivalence(h, LN2, h, "energy")
        np.testing.assert_allclose(
            report.schmidt_coefficients, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12
        )
        want = oracles.shannon_entropy([2 / 3, 1 / 3])
        assert report.entropy == pytest.approx(want, abs=1e-12)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValidationError):
            ThermalReport(
                beta=1.0,
                observable_name="x",
                trace_average=1.0,
                doubled_expectation=0.5,
                residual=0.1,
                entropy=0.0,
                schmidt_coefficients=np.array([1.0]),
            )


class TestDecohere:
    def test_infinite_temperature(self):
        rho = decohere_tfd(build_random_hermitian(3, seed=115), beta=0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(3) / 3.0, atol=1e-12)

    def test_cold_limit(self):
        rho = decohere_tfd(build_two_level(1.0), beta=50.0)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-20)

    def test_matches_gibbs_seed_37(self):
        h = build_random_hermitian(5, seed=37)
        delta = decohere_tfd(h, beta=2.0).matrix - gibbs_density(h, 2.0).matrix
        assert np.linalg.norm(delta) <= 1e-10


class TestGibbsGrand:
    def test_zero_chemical_potential(self):
        h = build_random_hermitian(4, seed=120)
        n_op = Operator(np.diag([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            gibbs_grand(h, n_op, 1.3, 0.0).matrix, gibbs_density(h, 1.3).matrix, atol=1e-14
        )

    def test_identity_number_shift_cancels(self):
        h = build_random_hermitian(4, seed=121)
        np.testing.assert_allclose(
            gibbs_grand(h, identity(4), 1.3, 0.7).matrix,
            gibbs_density(h, 1.3).matrix,
            atol=1e-13,
        )

    def test_effective_zero_hamiltonian(self):
        h = Operator(np.diag([0.0, 1.0, 2.0]))
        n_op = Operator(np.diag([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(
            gibbs_grand(h, n_op, 1.0, 1.0).matrix, np.eye(3) / 3.0, atol=1e-14
        )
