"""The batched equivalence check and the Schmidt spectrum it reads off.

``verify_betas`` does the beta-independent work once (validation, one
diagonalization, one ``F @ V``) and must give, field for field and bit for
bit, what one ``verify_equivalence`` call per beta gives.  Its Schmidt
coefficients are read from the thermal double's construction (the
square-root Boltzmann weights, sorted descending); ``TestBothSchmidtRoutes``
checks them against the spectrum ``schmidt_decompose`` measures by SVD.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles
from test_cli import count_calls

from thermofield import bipartite, cli, thermal
from thermofield.bipartite import BipartitePureState
from thermofield.errors import CapacityError, ValidationError
from thermofield.linalg import (
    MAX_OPERATOR_DIM,
    Operator,
    dagger,
    hermitian_eig,
    require_hermitian,
)
from thermofield.models import (
    build_ising,
    build_observable,
    build_oscillator,
    build_random_hermitian,
    build_two_level,
    random_complex_matrix,
)
from thermofield.serialize import dump_matrix
from thermofield.thermal import thermofield_double, verify_betas, verify_equivalence

BETAS = (0.0, 0.1, 1.0, 10.0, 100.0)


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


class TestAdmittedObservableIsAccepted:
    """An observable that ``require_hermitian`` admits gets finite reports.

    Each side is the real part of ``<x|F|x>`` for a unit ``x``, whose
    imaginary part is at most ``||F - F^dagger||_2 / 2``: half the bound
    that admitted ``F``, so the imaginary-residue check cannot reject it.
    """

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(min_value=2, max_value=16),
        seed_h=st.integers(min_value=0, max_value=2**63 - 1),
        seed_f=st.integers(min_value=0, max_value=2**63 - 1),
        seed_k=st.integers(min_value=0, max_value=2**63 - 1),
        exponent=st.floats(min_value=-3.0, max_value=300.0),
        margin=st.floats(min_value=0.0, max_value=0.99),
        rank_one=st.booleans(),
        betas=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=4
        ),
    )
    # cold, near the admission bound, rank one: the imaginary part is 0.495 of the bound
    @example(dim=5, seed_h=1, seed_f=2, seed_k=3, exponent=6.0, margin=0.99, rank_one=True,
             betas=[1e4])
    def test_property_admitted_observable(
        self, dim, seed_h, seed_f, seed_k, exponent, margin, rank_one, betas
    ):
        h = build_random_hermitian(dim, seed=seed_h)
        scale = 10.0**exponent  # norms are taken of F / scale, which cannot overflow
        hermitian = build_random_hermitian(dim, seed=seed_f).matrix
        if rank_one:  # i |g><g| on the ground state: the imaginary part reaches the bound
            ground = hermitian_eig(h).eigenvectors[:, :1]
            anti = 1j * ground @ dagger(ground)
        else:
            g = random_complex_matrix(dim, dim, seed_k)
            anti = (g - dagger(g)) / 2.0
        # ||F - F^dagger||_F = margin * 1e-9 * max(1, ||H||_F) <= the admission bound,
        # since the Hermitian and anti-Hermitian parts are Frobenius-orthogonal
        target = margin * 1e-9 * max(1.0 / scale, float(np.linalg.norm(hermitian)))
        unscaled = hermitian + anti * (target / (2.0 * float(np.linalg.norm(anti))))
        f = Operator(scale * unscaled)
        require_hermitian(f)
        bound = 1e-10 * max(1.0, scale * float(np.linalg.norm(unscaled, 2)))
        for report in verify_betas(h, betas, f):
            assert math.isfinite(report.trace_average)
            assert math.isfinite(report.doubled_expectation)
            assert report.residual <= bound

    def test_scaled_random_observables(self):
        # 36 of these 50 were rejected when the imaginary residue was held to 1e-10
        h = build_random_hermitian(16, seed=3)
        for seed in range(4, 54):
            f = Operator(1e6 * build_random_hermitian(16, seed=seed).matrix)
            bound = 1e-10 * max(1.0, float(np.linalg.norm(f.matrix, 2)))
            for report in verify_betas(h, [0.0, 1.0, 10.0], f):
                assert report.residual <= bound, seed


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
        want = verify_equivalence(h, beta, f).trace_average
        assert abs(bipartite.expectation(rotated, f) - want) <= bound
        measured = bipartite.schmidt_decompose(rotated).coefficients
        constructed = verify_equivalence(h, beta, f).schmidt_coefficients
        np.testing.assert_allclose(measured, constructed, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "h",
        [build_two_level(1.0), build_oscillator(0.5, 6), build_ising(3, 1.0, 0.0)],
        ids=["two_level", "oscillator", "ising_degenerate"],  # h = 0: degenerate levels
    )
    def test_fixed_models(self, h):
        for beta in BETAS:
            constructed = verify_equivalence(h, beta, h).schmidt_coefficients
            measured = bipartite.schmidt_decompose(thermofield_double(h, beta)).coefficients
            np.testing.assert_allclose(constructed, measured, rtol=0.0, atol=1e-12)


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
        # the one capacity rule: a Hamiltonian past the operator cap is
        # refused when it is built, so every thermal double fits
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        message = "^operator dimension 4097 exceeds the maximum 4096$"
        with pytest.raises(CapacityError, match=message):
            Operator(np.broadcast_to(0.0, (4097, 4097)))
        assert eigh == []

    def test_cli_capacity_before_diagonalizing(self, monkeypatch, capsys):
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        model = '{"kind": "random_hermitian", "params": {"dim": 4097, "seed": 1}}'
        args = ["verify", "--model", model, "--observable", "energy", "--beta", "0,1"]
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: model 'random_hermitian' parameter 'dim' must be in [2, 4096], got 4097\n"
        )
        assert eigh == []

    def test_capacity_is_the_documented_ceiling(self):
        assert bipartite.MAX_STATE_AMPLITUDES == 4096 * 4096
        assert bipartite.MAX_STATE_AMPLITUDES == MAX_OPERATOR_DIM**2

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
