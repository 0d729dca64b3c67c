import json
import math
import subprocess
import sys

import numpy as np
import pytest

import oracles
from thermofield import cli
from thermofield.bipartite import DensityMatrix, purify, reduced_density
from thermofield.linalg import Operator, dagger
from thermofield.models import random_complex_matrix
from thermofield.serialize import dump_matrix, load_matrix, render_number

TWO_LEVEL = '{"kind": "two_level", "params": {"gap": 1.0}}'
RANDOM_5 = '{"kind": "random_hermitian", "params": {"dim": 5, "seed": 1}}'
HUGE_ISING = '{"kind": "ising", "params": {"n": 2, "j": 1e308, "h": 1e308}}'


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "thermofield", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that logs one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("error:")]


class TestSpectrum:
    def test_two_level(self):
        proc = run_cli("spectrum", "--model", TWO_LEVEL)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"eigenvalues": [0, 1]}

    def test_single_site_field(self):
        proc = run_cli("spectrum", "--model", '{"kind": "ising", "params": {"n": 1, "j": 0.0, "h": 1.0}}')
        assert proc.returncode == 0
        np.testing.assert_allclose(json.loads(proc.stdout)["eigenvalues"], [-1.0, 1.0], atol=1e-12)

    def test_three_site_chain_oracle(self):
        proc = run_cli("spectrum", "--model", '{"kind": "ising", "params": {"n": 3, "j": 1.0, "h": 0.5}}')
        assert proc.returncode == 0
        want = np.linalg.eigvalsh(oracles.ising_matrix_by_bits(3, 1.0, 0.5))
        np.testing.assert_allclose(json.loads(proc.stdout)["eigenvalues"], want, atol=1e-12)

    def test_model_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(TWO_LEVEL)
        proc = run_cli("spectrum", "--model", str(path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"eigenvalues": [0, 1]}

    def test_non_finite_spectrum_rejected(self):
        proc = run_cli("spectrum", "--model", HUGE_ISING)
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = error_lines(proc.stderr)
        assert "not finite" in line

    def test_csv_format(self):
        proc = run_cli("spectrum", "--model", TWO_LEVEL, "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "beta,quantity,value"
        assert lines[1] == ",eigenvalue_0,0"
        assert lines[2] == ",eigenvalue_1,1"


class TestVerify:
    def test_infinite_temperature_energy(self):
        proc = run_cli("verify", "--model", TWO_LEVEL, "--observable", "energy", "--beta", "0")
        assert proc.returncode == 0
        (report,) = json.loads(proc.stdout)
        assert report["trace_average"] == pytest.approx(0.5, abs=1e-12)
        assert report["residual"] <= 1e-12

    def test_identity_observable(self):
        proc = run_cli("verify", "--model", RANDOM_5, "--observable", "identity", "--beta", "1.5")
        assert proc.returncode == 0
        (report,) = json.loads(proc.stdout)
        assert report["residual"] <= 1e-12

    def test_boltzmann_point(self):
        proc = run_cli(
            "verify", "--model", TWO_LEVEL, "--observable", "energy",
            "--beta", repr(math.log(2.0)),
        )
        (report,) = json.loads(proc.stdout)
        assert report["trace_average"] == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_sweep_order(self):
        proc = run_cli(
            "verify", "--model", RANDOM_5, "--observable", "energy", "--beta", "2,0.5,1"
        )
        reports = json.loads(proc.stdout)
        assert [r["beta"] for r in reports] == [2.0, 0.5, 1.0]

    def test_observable_from_file(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(dump_matrix(np.diag([1.0 + 0.0j, -1.0])))
        proc = run_cli("verify", "--model", TWO_LEVEL, "--observable", str(path), "--beta", "0")
        assert proc.returncode == 0
        (report,) = json.loads(proc.stdout)
        assert report["trace_average"] == pytest.approx(0.0, abs=1e-12)

    def test_tightened_tolerance_exit_one(self):
        proc = run_cli(
            "verify", "--model", RANDOM_5, "--observable", "energy",
            "--beta", "1", "--tol", "1e-30",
        )
        assert proc.returncode == 1
        assert "exceeds tolerance" in proc.stderr
        # the report itself is still emitted
        (report,) = json.loads(proc.stdout)
        assert report["residual"] > 1e-30

    def test_one_eigh_and_no_svd_per_command(self, monkeypatch, capsys):
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        svd = count_calls(monkeypatch, np.linalg, "svd")
        args = ["verify", "--model", RANDOM_5, "--observable", "energy", "--beta", "0,0.5,1,2,4"]
        assert cli.main(args) == 0
        assert len(json.loads(capsys.readouterr().out)) == 5
        assert len(eigh) == 1
        assert len(svd) == 0  # the Schmidt form comes from the construction

    def test_non_hermitian_observable_near_float_limit(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(dump_matrix(np.array([[1e308, 1e308], [0.0, 0.0]])))
        proc = run_cli("verify", "--model", TWO_LEVEL, "--observable", str(path), "--beta", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = error_lines(proc.stderr)
        assert "observable is not Hermitian" in line
        assert proc.stderr == line + "\n"

    def test_observable_residual_past_float_range(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(dump_matrix(np.array([[0.0, 1e308], [-1e308, 0.0]])))
        proc = run_cli("verify", "--model", TWO_LEVEL, "--observable", str(path), "--beta", "1")
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: observable is not Hermitian: residual exceeds the float range\n"
        )

    def test_each_operator_checked_once(self, monkeypatch, capsys):
        from thermofield import linalg

        checks = count_calls(monkeypatch, linalg, "scaled_hermiticity")
        args = ["verify", "--model", RANDOM_5, "--observable", "occupation", "--beta", "0,0.5,1,2,4"]
        assert cli.main(args) == 0
        assert len(json.loads(capsys.readouterr().out)) == 5
        assert len(checks) == 2  # the Hamiltonian and the observable

    def test_span_past_float_range_at_infinite_temperature(self):
        model = '{"kind": "ising", "params": {"n": 2, "j": 5e307, "h": 5e307}}'
        proc = run_cli("verify", "--model", model, "--beta", "0", "--observable", "identity")
        assert proc.returncode == 0
        assert proc.stderr == ""
        (entry,) = json.loads(proc.stdout)
        for key in ("trace_average", "doubled_expectation", "residual", "entropy"):
            assert math.isfinite(entry[key])
        np.testing.assert_allclose(entry["schmidt_coefficients"], [0.5] * 4, atol=1e-12)
        assert entry["entropy"] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_negative_beta_rejected(self):
        proc = run_cli("verify", "--model", TWO_LEVEL, "--observable", "energy", "--beta", "-1")
        assert proc.returncode == 2
        assert "beta" in proc.stderr

    def test_csv_rows(self):
        proc = run_cli(
            "verify", "--model", TWO_LEVEL, "--observable", "energy",
            "--beta", "0,1", "--format", "csv",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "beta,quantity,value"
        quantities = [line.split(",")[1] for line in lines[1:]]
        assert quantities == [
            "trace_average", "doubled_expectation", "residual", "entropy",
            "schmidt_coefficient_0", "schmidt_coefficient_1",
        ] * 2


class TestTfd:
    def test_infinite_temperature(self):
        proc = run_cli("tfd", "--model", TWO_LEVEL, "--beta", "0")
        (entry,) = json.loads(proc.stdout)
        np.testing.assert_allclose(entry["schmidt_coefficients"], [2**-0.5] * 2, atol=1e-12)
        assert entry["entropy"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_cold_limit(self):
        proc = run_cli("tfd", "--model", TWO_LEVEL, "--beta", "50")
        (entry,) = json.loads(proc.stdout)
        assert entry["schmidt_coefficients"][0] == pytest.approx(1.0, abs=1e-10)
        assert entry["entropy"] == pytest.approx(0.0, abs=1e-9)

    def test_boltzmann_point(self):
        proc = run_cli("tfd", "--model", TWO_LEVEL, "--beta", repr(math.log(2.0)))
        (entry,) = json.loads(proc.stdout)
        np.testing.assert_allclose(
            entry["schmidt_coefficients"],
            [math.sqrt(2 / 3), math.sqrt(1 / 3)],
            atol=1e-12,
        )

    def test_emit_state_round_trip(self, tmp_path):
        state_path = tmp_path / "state.json"
        proc = run_cli(
            "tfd", "--model", RANDOM_5, "--beta", "1.25",
            "--emit-state", str(state_path),
        )
        assert proc.returncode == 0
        (entry,) = json.loads(proc.stdout)
        second = run_cli("schmidt", str(state_path))
        assert second.returncode == 0
        loaded = json.loads(second.stdout)
        assert loaded["coefficients"] == entry["schmidt_coefficients"]
        assert loaded["entropy"] == entry["entropy"]

    def test_one_svd_per_schmidt_report(self, monkeypatch, capsys, tmp_path):
        state_path = tmp_path / "state.json"
        svd = count_calls(monkeypatch, np.linalg, "svd")
        args = ["tfd", "--model", RANDOM_5, "--beta", "1.25", "--emit-state", str(state_path)]
        assert cli.main(args) == 0
        assert len(svd) == 1
        assert cli.main(["schmidt", str(state_path)]) == 0
        assert len(svd) == 2

    def test_no_negative_zero_entropy(self):
        model = '{"kind": "two_level", "params": {"gap": 1e308}}'
        proc = run_cli("tfd", "--model", model, "--beta", "1e308")
        assert proc.returncode == 0
        assert proc.stdout == '[{"beta": 1e+308, "schmidt_coefficients": [1, 0], "entropy": 0}]\n'

    def test_emit_state_needs_single_beta(self, tmp_path):
        proc = run_cli(
            "tfd", "--model", TWO_LEVEL, "--beta", "0,1",
            "--emit-state", str(tmp_path / "state.json"),
        )
        assert proc.returncode == 2
        assert "exactly one beta" in proc.stderr


class TestPurify:
    def test_maximally_mixed_qubit(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(np.eye(2, dtype=complex) / 2.0))
        proc = run_cli("purify", str(path))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["round_trip_residual"] <= 1e-12
        amp = np.array(out["state"]["re"]) + 1j * np.array(out["state"]["im"])
        sv = np.linalg.svd(amp.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(sv, [2**-0.5] * 2, atol=1e-12)

    def test_pure_projector(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(np.diag([1.0 + 0.0j, 0.0])))
        proc = run_cli("purify", str(path))
        out = json.loads(proc.stdout)
        amp = np.array(out["state"]["re"]) + 1j * np.array(out["state"]["im"])
        sv = np.linalg.svd(amp.reshape(2, 2), compute_uv=False)
        np.testing.assert_allclose(sv, [1.0, 0.0], atol=1e-12)

    def test_seeded_density_round_trip(self, tmp_path):
        g = random_complex_matrix(3, 3, seed=21)
        raw = g @ dagger(g)
        rho = raw / np.trace(raw).real
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(rho))
        proc = run_cli("purify", str(path), "--emit-state", str(tmp_path / "pure.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["round_trip_residual"] <= 1e-10
        assert (tmp_path / "pure.json").exists()

    def test_round_trip_without_second_admission(self, monkeypatch, capsys, tmp_path):
        g = random_complex_matrix(9, 9, seed=23)
        raw = g @ dagger(g)
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(raw / np.trace(raw).real))
        rho = DensityMatrix(Operator(load_matrix(path.read_text())))
        state = purify(rho)
        # the residual as a second admitted DensityMatrix gives it
        want = float(np.linalg.norm(reduced_density(state).matrix - rho.matrix))
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert cli.main(["purify", str(path), "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == f",round_trip_residual,{render_number(want)}"
        assert len(eigvalsh) == 1  # the admission of the file only

    def test_invalid_density_named_invariant(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(np.diag([1.5 + 0.0j, -0.5])))
        proc = run_cli("purify", str(path))
        assert proc.returncode == 2
        assert "eigenvalue" in proc.stderr

    @pytest.mark.parametrize(
        "entries,detail",
        [
            ([[1e308, 1e308], [0.0, 0.0]], "residual 1.414e+308"),
            ([[0.0, 1e308], [-1e308, 0.0]], "residual exceeds the float range"),
        ],
    )
    def test_non_hermitian_near_float_limit(self, tmp_path, entries, detail):
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(np.array(entries)))
        proc = run_cli("purify", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        # one line, no numpy overflow warning
        assert proc.stderr == f"error: density matrix is not Hermitian: {detail}\n"

    def test_integer_too_large_for_float(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"rows": 1, "cols": 1, "re": [1' + "0" * 400 + '], "im": [0]}')
        proc = run_cli("purify", str(path))
        assert proc.returncode == 2
        assert error_lines(proc.stderr) == ['error: "re" holds an integer too large for a float']
        assert "Traceback" not in proc.stderr


class TestSchmidt:
    def test_bad_state_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"dim_a": 1}')
        proc = run_cli("schmidt", str(path))
        assert proc.returncode == 2

    def test_missing_file(self):
        proc = run_cli("schmidt", "/no/such/file.json")
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr


class TestPlumbing:
    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify", "--model", TWO_LEVEL, "--observable", "energy",
            "--beta", "1", "--out", str(out),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        json.loads(out.read_text())

    def test_byte_determinism(self):
        args = ("verify", "--model", RANDOM_5, "--observable", "energy", "--beta", "0.5,2")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_invalid_model_json(self):
        proc = run_cli("spectrum", "--model", "{bad json")
        assert proc.returncode == 2
        assert "model" in proc.stderr

    def test_unknown_model_kind(self):
        proc = run_cli("spectrum", "--model", '{"kind": "bogus", "params": {}}')
        assert proc.returncode == 2

    def test_seed_override(self):
        base = '{"kind": "random_hermitian", "params": {"dim": 4, "seed": 1}}'
        overridden = run_cli("spectrum", "--model", base, "--seed", "9")
        direct = run_cli("spectrum", "--model", '{"kind": "random_hermitian", "params": {"dim": 4, "seed": 9}}')
        assert overridden.stdout == direct.stdout
        assert overridden.stdout != run_cli("spectrum", "--model", base).stdout

    def test_seed_override_rejected_for_fixed_models(self):
        proc = run_cli("spectrum", "--model", TWO_LEVEL, "--seed", "3")
        assert proc.returncode == 2
        assert "random_hermitian" in proc.stderr

    def test_usage_error_exit_two(self):
        proc = run_cli("verify", "--model", TWO_LEVEL)  # missing --beta
        assert proc.returncode == 2
