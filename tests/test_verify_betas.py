"""The batched equivalence check and its O(d^2) Schmidt construction check.

``verify_betas`` does the beta-independent work once (validation, one
diagonalization, one ``F @ V``) and must give, field for field and bit for
bit, what one ``verify_equivalence`` call per beta gives.  The thermal
double's surroundings basis is passed to ``schmidt_from_factors`` as
coordinate indices; the dense permuted-identity check it replaces is
kept here as the reference.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from test_cli import count_calls

from thermofield import bipartite, cli, thermal
from thermofield.bipartite import (
    RANK_CUTOFF,
    BipartitePureState,
    SchmidtResult,
    schmidt_from_factors,
)
from thermofield.errors import CapacityError, ValidationError
from thermofield.linalg import hermitian_eig
from thermofield.models import (
    build_ising,
    build_observable,
    build_oscillator,
    build_random_hermitian,
    build_two_level,
)
from thermofield.serialize import dump_matrix
from thermofield.thermal import thermofield_double, verify_betas, verify_equivalence

BETAS = (0.0, 0.1, 1.0, 10.0, 100.0)
RANDOM_64 = '{"kind": "random_hermitian", "params": {"dim": 64, "seed": 3}}'


def report_bytes(report) -> tuple:
    """Every field of a ThermalReport, floats by their exact bits."""
    return (
        np.float64(report.beta).tobytes(),
        report.observable_name,
        np.float64(report.trace_average).tobytes(),
        np.float64(report.doubled_expectation).tobytes(),
        np.float64(report.residual).tobytes(),
        np.float64(report.entropy).tobytes(),
        report.schmidt_coefficients.dtype,
        report.schmidt_coefficients.tobytes(),
    )


def assert_batch_matches_single_calls(h, betas, f, name="F"):
    batched = verify_betas(h, betas, f, name)
    assert len(batched) == len(betas)
    for beta, report in zip(betas, batched):
        assert report_bytes(report) == report_bytes(verify_equivalence(h, beta, f, name))
    return batched


def named_cases():
    ising = build_ising(4, 0.9, 1.1)
    oscillator = build_oscillator(0.7, 9)
    two_level = build_two_level(1.0)
    return [
        (two_level, "energy"),
        (two_level, "occupation"),
        (oscillator, "energy"),
        (oscillator, "occupation"),
        (ising, "magnetization"),
        (ising, "energy"),
        (ising, "identity"),
    ]


def construction_factors(h, beta):
    """State, coefficients, system basis and coordinate order as verify builds them."""
    eig = hermitian_eig(h)
    state = thermofield_double(h, beta)
    weights = np.sqrt(thermal.thermal_spectrum(h, beta).probabilities)
    order = np.argsort(-weights, kind="stable")
    return state, weights[order], eig.eigenvectors[:, order], order


def dense_reference(state, coefficients, basis_a, order):
    """The check the index form replaces: a dense product with permuted identity columns."""
    rank = int(np.sum(coefficients > RANK_CUTOFF * coefficients[0]))
    basis_b = np.eye(state.dim_b, dtype=np.complex128)[:, order]
    basis_b[:, rank:] = 0.0
    result = SchmidtResult(coefficients, basis_a, basis_b, rank)
    residual = np.linalg.norm(state.amplitudes - (basis_a * coefficients) @ basis_b.T)
    if residual > 1e-10:
        raise ValidationError(f"Schmidt reconstruction residual {residual:.3e} exceeds 1e-10")
    return result


def passes(check) -> bool:
    try:
        check()
    except ValidationError:
        return False
    return True


class TestBatchEqualsSingleCalls:
    def test_random_hermitian_dims_2_to_64(self):
        for d in range(2, 65):
            h = build_random_hermitian(d, seed=800 + d)
            f = build_random_hermitian(d, seed=900 + d)
            assert_batch_matches_single_calls(h, BETAS, f)

    def test_named_models(self):
        for h, name in named_cases():
            f = build_observable(name, h)
            assert_batch_matches_single_calls(h, BETAS, f, name)

    def test_repeated_and_unordered_betas(self):
        h = build_random_hermitian(7, seed=5)
        f = build_random_hermitian(7, seed=6)
        reports = assert_batch_matches_single_calls(h, (3.0, 0.0, 3.0, 0.5), f)
        assert [r.beta for r in reports] == [3.0, 0.0, 3.0, 0.5]

    def test_empty_beta_list(self):
        h = build_random_hermitian(3, seed=5)
        assert verify_betas(h, [], h) == []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(min_value=2, max_value=32),
        seed_h=st.integers(min_value=0, max_value=2**63 - 1),
        seed_f=st.integers(min_value=0, max_value=2**63 - 1),
        betas=st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), max_size=6
        ),
    )
    def test_property_any_finite_betas(self, dim, seed_h, seed_f, betas):
        h = build_random_hermitian(dim, seed=seed_h)
        f = build_random_hermitian(dim, seed=seed_f)
        bound = 1e-10 * max(1.0, float(np.linalg.norm(f.matrix, 2)))
        for report in assert_batch_matches_single_calls(h, betas, f):
            assert report.residual <= bound


class TestBothSchmidtRoutes:
    """A unitary on the surroundings alone changes no system quantity.

    The tilde basis is only the surroundings' coordinate basis: rotating it
    by any ``U`` leaves the expectation of ``F (x) 1`` at the Gibbs average,
    and the Schmidt spectrum measured by SVD equal to the one ``verify``
    takes from the construction.
    """

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(min_value=2, max_value=32),
        seed_h=st.integers(min_value=0, max_value=2**63 - 1),
        seed_f=st.integers(min_value=0, max_value=2**63 - 1),
        seed_u=st.integers(min_value=0, max_value=2**63 - 1),
        beta=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    def test_property_surroundings_rotation(self, dim, seed_h, seed_f, seed_u, beta):
        h = build_random_hermitian(dim, seed=seed_h)
        f = build_random_hermitian(dim, seed=seed_f)
        u = oracles.random_unitary(dim, seed_u)
        rotated = BipartitePureState(thermofield_double(h, beta).amplitudes @ u.T)
        bound = 1e-10 * max(1.0, float(np.linalg.norm(f.matrix, 2)))
        want = thermal.thermal_average(h, beta, f)
        assert abs(bipartite.expectation(rotated, f) - want) <= bound
        measured = bipartite.schmidt_decompose(rotated).coefficients
        constructed = verify_equivalence(h, beta, f).schmidt_coefficients
        np.testing.assert_allclose(measured, constructed, rtol=0.0, atol=1e-12)


class TestOrderOfWork:
    def test_validates_every_beta_before_diagonalizing(self, monkeypatch):
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        h = build_random_hermitian(4, seed=1)
        with pytest.raises(ValidationError, match="beta must be finite"):
            verify_betas(h, [0.0, 1.0, math.nan], h)
        with pytest.raises(ValidationError, match="negative beta"):
            verify_betas(h, [0.0, -1.0], h)
        assert eigh == []

    def test_capacity_before_diagonalizing(self, monkeypatch):
        monkeypatch.setattr(bipartite, "MAX_STATE_AMPLITUDES", 64 * 64 - 1)
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        h = build_random_hermitian(64, seed=1)
        f = build_random_hermitian(64, seed=2)
        with pytest.raises(CapacityError, match="4096 amplitudes exceeds the maximum 4095"):
            verify_equivalence(h, 1.0, f)
        assert eigh == []

    def test_cli_capacity_before_diagonalizing(self, monkeypatch, capsys):
        monkeypatch.setattr(bipartite, "MAX_STATE_AMPLITUDES", 64 * 64 - 1)
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        args = ["verify", "--model", RANDOM_64, "--observable", "energy", "--beta", "0,1"]
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: doubled state with 4096 amplitudes exceeds the maximum 4095\n"
        )
        assert eigh == []

    def test_capacity_is_the_documented_ceiling(self):
        assert bipartite.MAX_STATE_AMPLITUDES == 4096 * 4096

    def test_one_ensemble_diagonal_per_command(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(dump_matrix(build_random_hermitian(16, seed=4).matrix))
        diagonals = count_calls(monkeypatch, thermal, "_ensemble_diagonal")
        expectations = count_calls(monkeypatch, bipartite, "expectation")
        model = '{"kind": "random_hermitian", "params": {"dim": 16, "seed": 3}}'
        betas = "0,0.1,0.3,1,3,10,30,100"
        args = ["verify", "--model", model, "--observable", str(path), "--beta", betas]
        assert cli.main(args) == 0
        assert len(json.loads(capsys.readouterr().out)) == 8
        assert len(diagonals) == 1
        assert len(expectations) == 8  # the doubled side runs once per beta

    def test_thermal_module_builds_no_identity(self):
        source = pathlib.Path(thermal.__file__).read_text(encoding="utf-8")
        assert "np.eye" not in source


class TestIndexForm:
    def cases(self):
        for d in (2, 3, 8, 33):
            yield build_random_hermitian(d, seed=40 + d)
        yield build_two_level(1.0)
        yield build_ising(3, 1.0, 0.0)  # degenerate levels: the stable sort matters
        yield build_oscillator(0.5, 6)

    def test_matches_dense_reference(self):
        for h in self.cases():
            for beta in BETAS:
                state, c, a, order = construction_factors(h, beta)
                index = schmidt_from_factors(state, c, a, order)
                dense = dense_reference(state, c, a, order)
                assert index.coefficients.tobytes() == dense.coefficients.tobytes()
                assert index.rank == dense.rank
                np.testing.assert_array_equal(index.basis_b, order[: index.rank])
                # coordinate vectors carry no phase, so the system basis is not rephased
                assert index.basis_a.tobytes() == a.tobytes()

    def test_verdicts_match_dense_reference_on_wrong_factors(self):
        h = build_random_hermitian(8, seed=12)
        state, c, a, order = construction_factors(h, 1.0)
        swapped = order.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        perturbed = a.copy()
        perturbed[:, 0] += 1e-6
        scaled = c.copy()
        scaled[2] *= 1.0 + 1e-6
        verdicts = []
        for coeffs, basis_a, indices in (
            (c, a, order),
            (c, a, swapped),
            (c, perturbed, order),
            (scaled, a, order),
        ):
            index_ok = passes(lambda: schmidt_from_factors(state, coeffs, basis_a, indices))
            assert index_ok == passes(lambda: dense_reference(state, coeffs, basis_a, indices))
            verdicts.append(index_ok)
        assert verdicts == [True, False, False, False]

    def test_rejects_swapped_order(self):
        state, c, a, order = construction_factors(build_random_hermitian(8, seed=13), 1.0)
        order = order.copy()
        order[[2, 5]] = order[[5, 2]]
        with pytest.raises(ValidationError, match="reconstruction residual"):
            schmidt_from_factors(state, c, a, order)

    def test_rejects_perturbed_eigenvector(self):
        state, c, a, order = construction_factors(build_random_hermitian(8, seed=14), 1.0)
        a = a.copy()
        a[:, 3] *= np.exp(1e-6j)  # still unit norm, one phase off
        with pytest.raises(ValidationError, match="reconstruction residual"):
            schmidt_from_factors(state, c, a, order)

    def test_rejects_scaled_coefficient(self):
        state, c, a, order = construction_factors(build_random_hermitian(8, seed=15), 1.0)
        scaled = c.copy()
        scaled[1] *= 1.0 + 1e-6
        with pytest.raises(ValidationError):
            schmidt_from_factors(state, scaled, a, order)

    def test_rejects_moved_weight(self):
        # squares still sum to 1 and stay descending: only the reconstruction can tell
        state, c, a, order = construction_factors(build_random_hermitian(8, seed=16), 1.0)
        moved = c.copy()
        delta = 1e-7
        moved[0] = math.sqrt(c[0] ** 2 + delta)
        moved[-1] = math.sqrt(c[-1] ** 2 - delta)
        with pytest.raises(ValidationError, match="reconstruction residual"):
            schmidt_from_factors(state, moved, a, order)

    @pytest.mark.parametrize(
        "indices,message",
        [
            (np.array([0, 1, 2, 4]), r"lie in \[0, 4\)"),
            (np.array([0, 1, 2, -1]), r"lie in \[0, 4\)"),
            (np.array([0, 1, 1, 2]), "distinct"),
            (np.array([0, 1, 2]), "must be 4 integers"),
            (np.array([0.0, 1.0, 2.0, 3.0]), "must be 4 integers"),
        ],
    )
    def test_rejects_bad_indices(self, indices, message):
        state, c, a, _ = construction_factors(build_random_hermitian(4, seed=17), 1.0)
        with pytest.raises(ValidationError, match=message):
            schmidt_from_factors(state, c, a, indices)

