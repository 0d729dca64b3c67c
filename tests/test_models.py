import math

import numpy as np
import pytest

import oracles
from thermofield.errors import ValidationError
from thermofield.linalg import Operator, hermitian_eig, hermiticity_residual, trace
from thermofield.models import (
    MODEL_KINDS,
    ModelSpec,
    build_ising,
    build_model,
    build_observable,
    build_oscillator,
    build_random_hermitian,
    build_two_level,
    parse_model_spec,
    random_bipartite_state,
    random_unit_vector,
    standard_normals,
)
from thermofield.thermal import thermal_spectrum

# values frozen from the documented generator scheme (counter-based keyed
# stream -> 53-bit uniforms -> polar pairs); changing the scheme breaks these
NORMALS_SEED_42 = [
    0.69011144018238346,
    1.7191701230273642,
    -1.5858830335039964,
    1.2368302793258699,
    -0.87805885463606992,
    0.38360259253388829,
]


class TestModelSpec:
    def test_parse_round_trip(self):
        spec = parse_model_spec({"kind": "two_level", "params": {"gap": 1.5}})
        assert spec.kind == "two_level"
        assert spec.params["gap"] == 1.5

    def test_all_kinds_buildable(self):
        samples = {
            "two_level": {"gap": 1.0},
            "oscillator": {"omega": 2.0, "cutoff": 4},
            "ising": {"n": 2, "j": 1.0, "h": 0.5},
            "random_hermitian": {"dim": 3, "seed": 1},
        }
        assert set(samples) == set(MODEL_KINDS)
        for kind, params in samples.items():
            op = build_model(parse_model_spec({"kind": kind, "params": params}))
            assert hermiticity_residual(op.matrix) <= 1e-12

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            parse_model_spec({"kind": "heisenberg", "params": {}})

    def test_rejects_missing_param(self):
        with pytest.raises(ValidationError):
            parse_model_spec({"kind": "two_level", "params": {}})

    def test_rejects_unknown_param(self):
        with pytest.raises(ValidationError):
            parse_model_spec({"kind": "two_level", "params": {"gap": 1.0, "tilt": 2.0}})

    def test_rejects_extra_top_level_keys(self):
        with pytest.raises(ValidationError):
            parse_model_spec({"kind": "two_level", "params": {"gap": 1.0}, "note": "x"})

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError):
            parse_model_spec(["two_level"])

    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError):
            ModelSpec(kind="two_level", params={"gap": -1.0})


class TestTwoLevel:
    def test_gap_one(self):
        np.testing.assert_array_equal(build_two_level(1.0).matrix, np.diag([0.0, 1.0]))

    def test_gap_two_point_five(self):
        np.testing.assert_array_equal(build_two_level(2.5).matrix, np.diag([0.0, 2.5]))

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValidationError):
            build_two_level(0.0)

    def test_boltzmann_point(self):
        spec = thermal_spectrum(build_two_level(1.0), beta=math.log(2.0))
        np.testing.assert_allclose(spec.probabilities, [2 / 3, 1 / 3], atol=1e-14)


class TestOscillator:
    def test_unit_frequency(self):
        np.testing.assert_array_equal(
            build_oscillator(1.0, 2).matrix, np.diag([0.5, 1.5])
        )

    def test_frequency_two(self):
        np.testing.assert_array_equal(
            build_oscillator(2.0, 3).matrix, np.diag([1.0, 3.0, 5.0])
        )

    def test_log_partition_geometric_series(self):
        spec = thermal_spectrum(build_oscillator(1.0, 50), beta=1.0)
        want = oracles.oscillator_log_z(1.0, 1.0, 50)
        assert abs(spec.log_partition - want) <= 1e-12

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValidationError):
            build_oscillator(1.0, 1)


class TestIsing:
    def test_single_site_pure_field(self):
        op = build_ising(1, 5.0, 1.0)
        np.testing.assert_allclose(op.matrix, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(
            hermitian_eig(op).eigenvalues, [-1.0, 1.0], atol=1e-12
        )

    def test_two_site_pure_coupling(self):
        op = build_ising(2, 1.0, 0.0)
        np.testing.assert_allclose(
            hermitian_eig(op).eigenvalues, [-1.0, -1.0, 1.0, 1.0], atol=1e-12
        )

    def test_three_site_entrywise_oracle(self):
        op = build_ising(3, 1.0, 0.5)
        want = oracles.ising_matrix_by_bits(3, 1.0, 0.5)
        np.testing.assert_allclose(op.matrix, want, atol=1e-12)
        np.testing.assert_allclose(
            hermitian_eig(op).eigenvalues,
            np.linalg.eigvalsh(want),
            atol=1e-12,
        )

    def test_zero_couplings_give_uniform_ensemble(self):
        op = build_ising(3, 0.0, 0.0)
        np.testing.assert_array_equal(op.matrix, np.zeros((8, 8)))
        spec = thermal_spectrum(op, beta=3.0)
        np.testing.assert_allclose(spec.probabilities, [1 / 8] * 8, atol=1e-15)

    def test_site_bounds(self):
        with pytest.raises(ValidationError):
            build_ising(0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            build_ising(11, 1.0, 1.0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bytes_equal_kronecker_assembly(self, n):
        rng = np.random.default_rng(100 + n)
        couplings = [(0.9, 1.1), (-0.3, 0.0), (0.0, -2.5), tuple(rng.normal(size=2) * 3.0)]
        for j, h in couplings:
            want = ising_by_kronecker(n, j, h)
            assert build_ising(n, j, h).matrix.tobytes() == want.tobytes(), (n, j, h)

    def test_overflowing_chain_rejected(self):
        # the diagonal sum -2e308 overflows; no RuntimeWarning escapes
        with pytest.raises(ValidationError, match="finite"):
            build_ising(3, 1e308, 1.0)

    def test_one_operator_per_chain(self, monkeypatch):
        made = []
        original = Operator.__post_init__

        def counting(self):
            made.append(1)
            original(self)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        build_ising(9, 0.7, 1.3)
        assert len(made) == 1


def ising_by_kronecker(n: int, j: float, h_field: float) -> np.ndarray:
    """The chain as a sum of dense Kronecker products, one term at a time.

    The byte reference for :func:`build_ising`: the same terms, added to a
    complex accumulator in the same order.
    """
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    pauli_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

    def chain_term(site_ops):
        acc = site_ops.get(0, np.eye(2, dtype=np.complex128))
        for k in range(1, n):
            acc = np.kron(acc, site_ops.get(k, np.eye(2, dtype=np.complex128)))
        return acc

    total = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k in range(n - 1):
        total -= j * chain_term({k: pauli_z, k + 1: pauli_z})
    for k in range(n):
        total -= h_field * chain_term({k: pauli_x})
    return total


class TestRandomHermitian:
    def test_exactly_hermitian(self):
        op = build_random_hermitian(5, seed=123)
        assert hermiticity_residual(op.matrix) <= 1e-15

    def test_bit_identical_repeats(self):
        a = build_random_hermitian(4, seed=42)
        b = build_random_hermitian(4, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_seeds_differ(self):
        a = build_random_hermitian(4, seed=1)
        b = build_random_hermitian(4, seed=2)
        assert np.linalg.norm(a.matrix - b.matrix) > 0.1

    def test_trace_equals_eigenvalue_sum_seed_31(self):
        op = build_random_hermitian(6, seed=31)
        eig = hermitian_eig(op)
        assert abs(trace(op) - float(np.sum(eig.eigenvalues))) <= 1e-10


class TestGeneratorVectors:
    def test_frozen_normals_seed_42(self):
        got = standard_normals(42, 6)
        assert [f"{x:.17g}" for x in got] == [f"{x:.17g}" for x in NORMALS_SEED_42]

    def test_moments_plausible(self):
        draws = standard_normals(7, 20000)
        assert abs(float(np.mean(draws))) < 0.05
        assert abs(float(np.var(draws)) - 1.0) < 0.05

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            standard_normals(-1, 4)


class TestRandomStates:
    def test_unit_vector(self):
        v = random_unit_vector(5, seed=9)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(v, random_unit_vector(5, seed=9))

    def test_bipartite_state(self):
        state = random_bipartite_state(3, 4, seed=9)
        assert (state.dim_a, state.dim_b) == (3, 4)
        total = float(np.sum(np.abs(state.amplitudes) ** 2))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    def test_identity(self):
        h = build_two_level(1.0)
        np.testing.assert_array_equal(build_observable("identity", h).matrix, np.eye(2))

    def test_energy_is_hamiltonian(self):
        h = build_random_hermitian(3, seed=130)
        np.testing.assert_array_equal(build_observable("energy", h).matrix, h.matrix)

    def test_occupation(self):
        h = build_oscillator(1.0, 4)
        np.testing.assert_array_equal(
            build_observable("occupation", h).matrix, np.diag([0.0, 1.0, 2.0, 3.0])
        )

    def test_magnetization_single_site(self):
        h = build_ising(1, 0.0, 1.0)
        np.testing.assert_allclose(
            build_observable("magnetization", h).matrix, np.diag([1.0, -1.0])
        )

    def test_magnetization_two_sites(self):
        h = build_ising(2, 1.0, 0.5)
        np.testing.assert_allclose(
            build_observable("magnetization", h).matrix,
            np.diag([1.0, 0.0, 0.0, -1.0]),
        )

    def test_magnetization_requires_power_of_two(self):
        h = build_oscillator(1.0, 3)
        with pytest.raises(ValidationError):
            build_observable("magnetization", h)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            build_observable("parity", build_two_level(1.0))
