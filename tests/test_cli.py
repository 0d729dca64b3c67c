import argparse
import contextlib
import fcntl
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thermofield import cli
from thermofield.bipartite import DensityMatrix, purify, reduced_density
from thermofield.linalg import dagger
from thermofield.models import random_bipartite_state, random_complex_matrix
from thermofield.serialize import dump_matrix, dump_state, load_matrix, render_number

TWO_LEVEL = '{"kind": "two_level", "params": {"gap": 1.0}}'
RANDOM_5 = '{"kind": "random_hermitian", "params": {"dim": 5, "seed": 1}}'
HUGE_OSCILLATOR = '{"kind": "oscillator", "params": {"omega": 1e300, "cutoff": 3}}'
HUGE_ISING = '{"kind": "ising", "params": {"n": 2, "j": 1e308, "h": 1e308}}'
# each command with the arguments it requires
COMMAND_ARGV = {
    "spectrum": ["spectrum", "--model", TWO_LEVEL],
    "verify": ["verify", "--model", TWO_LEVEL, "--beta", "1"],
    "tfd": ["tfd", "--model", TWO_LEVEL, "--beta", "1"],
    "purify": ["purify", "rho.json"],
    "schmidt": ["schmidt", "state.json"],
}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "thermofield", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that logs each call's keyword arguments."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
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

    def test_tolerance_scales_with_observable_norm(self, tmp_path):
        # ||F||_F = 2e308 overflows; the bound is compared divided by the entry scale
        path = tmp_path / "f.json"
        path.write_text(dump_matrix(np.array([[1e308, 1e308], [1e308, -1e308]])))
        args = ["verify", "--model", TWO_LEVEL, "--observable", str(path), "--beta", "1"]
        proc = run_cli(*args)
        (report,) = json.loads(proc.stdout)
        assert report["residual"] > 1e-10
        assert (proc.returncode, proc.stderr) == (0, "")
        for tol, bound in (("1e-30", "2.000e+278"), ("0", "0.000e+00")):
            proc = run_cli(*args, "--tol", tol)
            assert proc.returncode == 1
            assert proc.stderr.endswith(f"exceeds tolerance {bound}\n")

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

    def test_observable_past_float_range(self, tmp_path):
        # every entry 1.7e308 is Hermitian, but its eigenbasis elements overflow
        path = tmp_path / "f.json"
        path.write_text(dump_matrix(np.full((2, 2), 1.7e308)))
        model = '{"kind": "random_hermitian", "params": {"dim": 2, "seed": 3}}'
        proc = run_cli("verify", "--model", model, "--observable", str(path), "--beta", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: thermal average exceeds the float range\n"  # no warnings

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
        # a thermal double is in Schmidt form, certified without an SVD; a
        # generic state takes one
        state_path = tmp_path / "state.json"
        generic_path = tmp_path / "generic.json"
        generic_path.write_text(dump_state(random_bipartite_state(5, 3, 4)))
        svd = count_calls(monkeypatch, np.linalg, "svd")
        args = ["tfd", "--model", RANDOM_5, "--beta", "1.25", "--emit-state", str(state_path)]
        assert cli.main(args) == 0
        assert cli.main(["schmidt", str(state_path)]) == 0
        assert len(svd) == 0
        assert cli.main(["schmidt", str(generic_path)]) == 0
        assert len(svd) == 1

    def test_singular_values_without_vectors(self, monkeypatch, capsys, tmp_path):
        state_path = tmp_path / "state.json"
        generic_path = tmp_path / "generic.json"
        generic_path.write_text(dump_state(random_bipartite_state(5, 3, 4)))
        svd = count_calls(monkeypatch, np.linalg, "svd")
        assert cli.main(["tfd", "--model", RANDOM_5, "--beta", "0,1.25", "--format", "csv"]) == 0
        args = ["tfd", "--model", RANDOM_5, "--beta", "1.25", "--emit-state", str(state_path)]
        assert cli.main(args) == 0
        assert cli.main(["schmidt", str(state_path)]) == 0
        assert svd == []
        assert cli.main(["schmidt", str(generic_path)]) == 0
        assert [call.get("compute_uv") for call in svd] == [False]

    @pytest.mark.parametrize("beta", ["0", "1", "1e4"])
    def test_schmidt_repeats_tfd_bytes(self, beta, capsys, tmp_path):
        model = '{"kind": "random_hermitian", "params": {"dim": 64, "seed": 5}}'
        state_path = str(tmp_path / "state.json")
        emit = ["--emit-state", state_path, "--format", "csv"]
        assert cli.main(["tfd", "--model", model, "--beta", beta, *emit]) == 0
        tfd = capsys.readouterr().out.splitlines()[1:]
        assert cli.main(["schmidt", state_path, "--format", "csv"]) == 0
        schmidt = capsys.readouterr().out.splitlines()[1:]
        # the rows without their beta column; schmidt adds the rank
        assert len(tfd) == 65
        assert [row.split(",", 1)[1] for row in tfd] == [
            row.split(",", 1)[1] for row in schmidt if not row.startswith(",rank,")
        ]

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
        rho = DensityMatrix(load_matrix(path.read_text()))
        state = purify(rho)
        # the residual as a second admitted DensityMatrix gives it
        want = float(np.linalg.norm(reduced_density(state).matrix - rho.matrix))
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert cli.main(["purify", str(path), "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == f",round_trip_residual,{render_number(want)}"
        # admission factorizes the file once, and purify reuses that eigh
        assert (len(eigh), len(eigvalsh)) == (1, 0)

    def test_csv_emit_state_matches_json(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(np.diag([0.5, 0.3, 0.2])))
        dumps = count_calls(monkeypatch, cli.serialize, "dump_state")
        assert cli.main(["purify", str(path), "--format", "csv"]) == 0
        assert dumps == []  # the CSV record has no state row
        written = {}
        for output_format in ("json", "csv"):
            out = tmp_path / f"{output_format}.json"
            args = ["purify", str(path), "--format", output_format, "--emit-state", str(out)]
            assert cli.main(args) == 0
            written[output_format] = out.read_bytes()
        assert written["csv"] == written["json"]
        assert len(dumps) == 2

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(min_value=2, max_value=16),
        negatives=st.lists(st.floats(-1.3e-9, -0.7e-9), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**62),
        real=st.booleans(),
    )
    def test_property_admitted_and_purified_exits_zero(
        self, d, negatives, seed, real, tmp_path_factory
    ):
        # unit-trace spectra with 1-3 eigenvalues just below zero, in a random
        # basis: admission rejects some (below -1e-9), purify rejects some
        # (clipping lifts the norm past 1e-9); every other file exits 0,
        # since clipping moves rho by at most the mass it clips
        negatives = negatives[: d - 1]
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.05, 1.0, d - len(negatives))
        spectrum = np.concatenate([negatives, weights * ((1.0 - sum(negatives)) / weights.sum())])
        g = random_complex_matrix(d, d, seed)
        q = np.linalg.qr(g.real if real else g)[0]
        m = (q * spectrum[np.newaxis, :]) @ dagger(q)
        path = tmp_path_factory.getbasetemp() / "clipped.json"
        path.write_text(dump_matrix((m + dagger(m)) / 2.0))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["purify", str(path), "--format", "csv"])
        err = err.getvalue()
        if code == 2:
            rejections = ("error: density matrix is not positive", "error: state is not normalized")
            assert err.startswith(rejections), err
            return
        assert (code, err) == (0, "")

    def test_invalid_density_named_invariant(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(dump_matrix(np.diag([1.5 + 0.0j, -0.5])))
        proc = run_cli("purify", str(path))
        assert proc.returncode == 2
        assert "eigenvalue" in proc.stderr

    @pytest.mark.parametrize(
        "entries,detail",
        [
            pytest.param(
                [[1e308, 1e308], [0.0, 0.0]],
                "residual 1.414e+308 exceeds 1.414e+299",
                id="entries0-residual 1.414e+308",
            ),
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

    def test_out_into_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        args = ["verify", "--model", TWO_LEVEL, "--observable", "energy", "--beta", "1"]
        assert cli.main([*args, "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"error: cannot write {out}: ")
        assert len(stderr.splitlines()) == 1

    def test_empty_beta_list(self, capsys):
        assert cli.main(["tfd", "--model", TWO_LEVEL, "--beta", ","]) == 2
        assert capsys.readouterr() == ("", "error: beta list must not be empty\n")

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

    @pytest.mark.parametrize(
        "command,option",
        [
            *[(name, "--seed") for name in COMMAND_ARGV],
            *[(name, "--tol") for name in ("spectrum", "tfd", "schmidt")],
        ],
    )
    def test_unread_option_is_usage_error(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            cli.main([*COMMAND_ARGV[command], option, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err

    def test_each_command_declares_only_the_options_it_reads(self):
        (commands,) = [
            action.choices
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
            for name, p in commands.items()
        }
        assert options == {
            "spectrum": {"--model", "--format", "--out"},
            "verify": {"--model", "--beta", "--format", "--out", "--tol", "--observable"},
            "tfd": {"--model", "--beta", "--format", "--out", "--emit-state"},
            "purify": {"--format", "--out", "--tol", "--emit-state"},
            "schmidt": {"--format", "--out"},
        }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_full_device(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "thermofield", "spectrum", "--model", TWO_LEVEL],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: cannot write stdout")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv, stdout_full, code",
        [
            (["spectrum", "--model", '{"kind": "x"}'], False, 2),
            (["spectrum", "--model", TWO_LEVEL], True, 2),
            (["verify", "--model", HUGE_OSCILLATOR, "--observable", "energy", "--beta", "0",
              "--tol", "1e-30"], False, 1),
        ],
        ids=["bad_input", "stdout_full_too", "residual_over_tol"],
    )
    def test_unwritable_stderr_keeps_exit_code(self, argv, stdout_full, code):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "thermofield", *argv],
                stdout=full if stdout_full else subprocess.DEVNULL,
                stderr=full,
            )
        assert proc.returncode == code

    def test_stdout_pipe_closed_after_first_bytes(self):
        read_end, write_end = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # one page, far below the 135 kB document
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        model = '{"kind": "oscillator", "params": {"omega": 0.1, "cutoff": 4096}}'
        proc = subprocess.Popen(
            [sys.executable, "-m", "thermofield", "spectrum", "--model", model, "--format", "csv"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
        os.close(write_end)
        assert os.read(read_end, 20) == b"beta,quantity,value\n"
        os.close(read_end)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2
        (line,) = stderr.splitlines()
        assert line.startswith("error: cannot write stdout")

    def test_usage_error_exit_two(self):
        proc = run_cli("verify", "--model", TWO_LEVEL)  # missing --beta
        assert proc.returncode == 2
