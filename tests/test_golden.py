"""Golden-bytes gate for the command-line tool.

Every case runs ``cli.main`` in-process on fixed inputs and compares stdout,
stderr and the exit code with files under ``tests/golden/``:

* ``models/<kind>.json``: one model file per model kind;
* ``inputs/``: observable files, a Gibbs density file (also in the
  layout of Python's ``json.dump``: repr floats, ``0.0`` zeros), a non-square
  matrix, a diagonal matrix whose trace is past the float range, a 2 x 2
  density file with one off-diagonal entry of 2e-9 (not Hermitian), a state
  whose norm is off by 5e-10 (within admission), one admitted at the norm
  bound (deviation 0.99999997e-9), a diagonal density matrix with an
  eigenvalue of -0.8e-9 (admitted, and clipped by ``purify``), a generic
  5 x 3 state (not in Schmidt form, so ``schmidt`` takes the SVD) and the
  state files that ``tfd --emit-state`` writes;
* ``stdout/<case>``: the expected stdout bytes of each case that prints;
* ``written/``: the files that ``--emit-state`` and ``--out`` write;
* ``expected.json``: the exit code and stderr text of every case.

Output of the diagonal models (``two_level``, ``oscillator``) and every
error message must match byte for byte.  Output that depends on a dense
factorization (Ising, ``random_hermitian``) must match exactly outside the
numbers, and each number within 1e-12 relative, with the absolute floor
1e-12 times the largest magnitude in the document: OpenBLAS picks its
kernels by CPU, so last digits and rounding noise around zero can differ
between machines.  No output may hold a negative zero.

``python tests/test_golden.py`` writes the golden files that are missing.
It never rewrites an existing one, so a change in output fails the gate
instead of updating it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
STDOUT = GOLDEN / "stdout"
EXPECTED = GOLDEN / "expected.json"

KINDS = ("two_level", "oscillator", "ising", "random_hermitian")
EXACT_KINDS = ("two_level", "oscillator")
OBSERVABLES = {
    "two_level": "energy",
    "oscillator": "occupation",
    "ising": "magnetization",
    "random_hermitian": "inputs/observable16.json",
}
TWO_LEVEL = '{"kind": "two_level", "params": {"gap": 1.25}}'
# deep-cold configs: the SVD of their thermal doubles can return -0.0
# coefficients, and for the random one a leading coefficient a rounding
# step above 1, whose entropy sum is just below 0
COLD = {
    "ising_cold": '{"kind": "ising", "params": {"n": 2, "j": 1.0, "h": 1.0}}',
    "random_cold": '{"kind": "random_hermitian", "params": {"dim": 6, "seed": 3}}',
}

# Inputs that are not valid JSON text, written fresh into the working
# directory of every run: a byte that is not UTF-8, an integer past
# Python's 4300-digit conversion limit, nesting past the recursion limit,
# and a leading UTF-8 byte-order mark.
BAD_FILES = {
    "not_utf8.json": b'{"rows": 2\xff}',
    "huge_int.json": b'{"rows": 1' + b"0" * 4300 + b"}",
    "deep.json": b"[" * 100_000,
    "bom.json": b"\xef\xbb\xbf" + TWO_LEVEL.encode(),
}
BAD_INLINE = {
    # a 0xff byte in argv reaches the program as the lone surrogate U+DCFF
    "not_utf8": '{"kind": "two_level\udcff", "params": {"gap": 1.0}}',
    "huge_int": '{"kind": "two_level", "params": {"gap": 1' + "0" * 4300 + "}}",
    "deep": '{"kind": ' + "[" * 100_000,
    "bom": "\ufeff" + TWO_LEVEL,
}


def model_json(kind: str, **params) -> str:
    return json.dumps({"kind": kind, "params": params})


def spectrum(model: str) -> list[str]:
    return ["spectrum", "--model", model]


def _cases() -> dict[str, tuple[list[str], bool]]:
    """Case name -> (argv, whether numbers must match byte for byte)."""
    cases = {}
    for kind in KINDS:
        model = ["--model", f"models/{kind}.json"]
        exact = kind in EXACT_KINDS
        for fmt in ("json", "csv"):
            tail = ["--format", fmt]
            cases[f"spectrum_{kind}.{fmt}"] = (["spectrum", *model, *tail], exact)
            observable = ["--observable", OBSERVABLES[kind]]
            cases[f"verify_{kind}.{fmt}"] = (
                ["verify", *model, *observable, "--beta", "0,0.5,2,40", *tail],
                exact,
            )
            cases[f"tfd_{kind}.{fmt}"] = (["tfd", *model, "--beta", "0,1,10", *tail], exact)
    for fmt in ("json", "csv"):
        cases[f"schmidt_state.{fmt}"] = (["schmidt", "inputs/state.json", "--format", fmt], True)
        cases[f"purify_gibbs.{fmt}"] = (["purify", "inputs/gibbs.json", "--format", fmt], True)
        # the same matrix as Python's json.dump writes it: repr floats, 0.0 zeros
        cases[f"purify_gibbs_repr.{fmt}"] = (
            ["purify", "inputs/gibbs_repr.json", "--format", fmt], True
        )
        # the round trip misses rho by the clipped mass, within --tol plus it
        cases[f"purify_clipped.{fmt}"] = (
            ["purify", "inputs/clipped.json", "--format", fmt], True
        )
    for name, model in COLD.items():
        emit = ["--emit-state", f"{name}_state.json"]
        cases[f"tfd_{name}.json"] = (["tfd", "--model", model, "--beta", "1e4", *emit], False)
        cases[f"tfd_{name}.csv"] = (
            ["tfd", "--model", model, "--beta", "1e4", "--format", "csv"], False
        )
        for fmt in ("json", "csv"):
            cases[f"schmidt_{name}.{fmt}"] = (
                ["schmidt", f"inputs/{name}_state.json", "--format", fmt], False
            )
    for fmt in ("json", "csv"):
        cases[f"schmidt_off_norm.{fmt}"] = (
            ["schmidt", "inputs/state_off_norm.json", "--format", fmt], True
        )
        # admitted, though its Schmidt squares miss 1 by a rounding step past 1e-9
        cases[f"schmidt_state_near_bound.{fmt}"] = (
            ["schmidt", "inputs/state_near_bound.json", "--format", fmt], True
        )
        # a generic 5 x 3 state: not in biorthogonal form, so its
        # coefficients come from the SVD
        cases[f"schmidt_random.{fmt}"] = (
            ["schmidt", "inputs/random_state.json", "--format", fmt], False
        )
    cases.update(
        {
            "tfd_emit_state.json": (
                ["tfd", "--model", "models/oscillator.json", "--beta", "0.8", "--emit-state",
                 "state.json"],
                True,
            ),
            "purify_emit_state.json": (
                ["purify", "inputs/gibbs.json", "--emit-state", "purified.json"],
                True,
            ),
            "verify_out.csv": (
                ["verify", "--model", TWO_LEVEL, "--beta", "1", "--format", "csv", "--out",
                 "report.csv"],
                True,
            ),
            "spectrum_inline.json": (["spectrum", "--model", TWO_LEVEL], True),
            # eigenvalues 1.5 ... 16.5, on both sides of the renderer's
            # fast-path edge at 8
            "spectrum_wide_oscillator.json": (
                ["spectrum", "--model", model_json("oscillator", omega=3.0, cutoff=6)],
                True,
            ),
            # the random model at a seed other than its model file's, set inline
            "spectrum_seed_override.json": (
                ["spectrum", "--model", model_json("random_hermitian", dim=16, seed=7)],
                False,
            ),
        }
    )
    huge = ["verify", "--model", model_json("oscillator", omega=1e300, cutoff=3),
            "--observable", "energy", "--beta", "0"]
    cases["verify_huge_observable.json"] = (huge, True)  # --tol scales with ||F||_F
    cases["verify_huge_observable_tight_tol.json"] = ([*huge, "--tol", "1e-30"], True)
    # observables that the Hermiticity check admits with an imaginary residue
    # above 1e-10: (1 + 3e-10 i) I, and a random one scaled by 1e6
    cases["verify_imaginary_identity.json"] = (
        ["verify", "--model", "models/two_level.json", "--observable",
         "inputs/imaginary_identity.json", "--beta", "0,0.5,2,40"],
        True,
    )
    cases["verify_scaled_observable.json"] = (
        ["verify", "--model", model_json("random_hermitian", dim=16, seed=3), "--observable",
         "inputs/observable16_1e6.json", "--beta", "0,1,10"],
        False,
    )
    potts = model_json("potts")
    errors = {
        "unknown_kind": ["spectrum", "--model", potts],
        "missing_param": spectrum(model_json("oscillator", omega=1.0)),
        "extra_param": spectrum(model_json("two_level", gap=1.0, bias=0.5)),
        "missing_keys": spectrum('{"kind": "two_level"}'),
        "param_out_of_range": spectrum(model_json("ising", n=11, j=1.0, h=1.0)),
        "param_below_range": spectrum(model_json("oscillator", omega=1.0, cutoff=1)),
        "param_not_integer": spectrum(model_json("random_hermitian", dim=4.0, seed=1)),
        "param_bool": spectrum(model_json("random_hermitian", dim=4, seed=True)),
        "param_not_positive": spectrum(model_json("two_level", gap=-1.0)),
        "param_not_number": spectrum(model_json("two_level", gap="1")),
        "param_int_too_large": spectrum(model_json("two_level", gap=10**400)),
        "param_not_finite": spectrum(model_json("ising", n=2, j=math.inf, h=0)),
        "levels_overflow": spectrum(model_json("oscillator", omega=1e308, cutoff=4)),
        "invalid_model_json": spectrum('{"kind": '),
        "negative_beta": ["verify", "--model", TWO_LEVEL, "--beta", "-1"],
        "nan_beta": ["verify", "--model", TWO_LEVEL, "--beta", "0,nan"],
        "bad_beta_list": ["tfd", "--model", TWO_LEVEL, "--beta", "1,x"],
        "bad_model_and_beta": ["verify", "--model", potts, "--beta", "-1"],
        "missing_model_file": spectrum("missing.json"),
        "missing_state_file": ["schmidt", "missing.json"],
        "missing_density_file": ["purify", "missing.json"],
        "nonsquare_observable": [
            "verify", "--model", TWO_LEVEL, "--beta", "1", "--observable", "inputs/nonsquare.json",
        ],
        "observable_dim_mismatch": [
            "verify", "--model", TWO_LEVEL, "--beta", "1", "--observable", "inputs/observable16.json",
        ],
        "emit_state_many_betas": [
            "tfd", "--model", TWO_LEVEL, "--beta", "0,1", "--emit-state", "x.json",
        ],
        "nan_tolerance": ["verify", "--model", TWO_LEVEL, "--beta", "1", "--tol", "nan"],
        "negative_tolerance": ["purify", "inputs/gibbs.json", "--tol", "-1"],
        # when two inputs are bad, the first check in this order reports:
        # model, beta list, --tol, beta range, then the command's own checks
        "bad_beta_and_tolerance": ["verify", "--model", TWO_LEVEL, "--beta=-1", "--tol", "nan"],
        "bad_beta_and_emit_state": [
            "tfd", "--model", TWO_LEVEL, "--beta=-1,2", "--emit-state", "x.json",
        ],
        "usage_error": [*spectrum(TWO_LEVEL), "--format", "xml"],
        "nonsquare_density": ["purify", "inputs/nonsquare.json"],
        "trace_overflow_density": ["purify", "inputs/trace_overflow.json"],
        "nonhermitian_density": ["purify", "inputs/nonhermitian.json"],
        "norm_overflow_state": ["schmidt", "inputs/norm_overflow.json"],
    }
    for bad in BAD_INLINE:
        errors[f"{bad}_model_file"] = spectrum(f"{bad}.json")
        errors[f"{bad}_inline_model"] = spectrum(BAD_INLINE[bad])
        errors[f"{bad}_matrix_file"] = ["purify", f"{bad}.json"]
        errors[f"{bad}_state_file"] = ["schmidt", f"{bad}.json"]
    cases.update({name: (argv, True) for name, argv in errors.items()})
    return cases


CASES = _cases()

# Files a case writes, each compared with a golden file.
WRITTEN = {
    "tfd_emit_state.json": ("state.json", GOLDEN / "inputs" / "state.json"),
    "purify_emit_state.json": ("purified.json", GOLDEN / "written" / "purified.json"),
    "verify_out.csv": ("report.csv", GOLDEN / "written" / "report.csv"),
    **{
        f"tfd_{name}.json": (f"{name}_state.json", GOLDEN / "inputs" / f"{name}_state.json")
        for name in COLD
    },
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured, as the executable exits."""
    from thermofield import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def prepare(workdir: Path) -> None:
    """Copy the golden inputs into ``workdir`` and write the bad files."""
    for sub in ("models", "inputs"):
        shutil.copytree(GOLDEN / sub, workdir / sub, dirs_exist_ok=True)
    for name, data in BAD_FILES.items():
        (workdir / name).write_bytes(data)


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
NEGATIVE_ZERO = re.compile(r"(?<![\d.eE])-0(?![\d.])")


def assert_same_up_to_rounding(got: str, want: str) -> None:
    """Equal outside the numbers; each number within 1e-12 relative, sign kept.

    A golden 0 must not come back negative, and a nonzero golden number must
    keep its sign unless it is at most 1e-14 times the largest magnitude:
    below that a sign is rounding noise (the magnetization averages of the
    Ising verify cases cancel to about 1e-16, either sign).
    """
    assert NUMBER.split(got) == NUMBER.split(want)
    got_numbers = [float(x) for x in NUMBER.findall(got)]
    want_numbers = [float(x) for x in NUMBER.findall(want)]
    scale = max(map(abs, want_numbers), default=1.0)
    for position, (g, w) in enumerate(zip(got_numbers, want_numbers)):
        assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12 * scale), (position, g, w)
        if w == 0.0:
            assert g >= 0.0, (position, g, w)
        elif abs(w) > 1e-14 * scale:
            assert (g > 0.0) == (w > 0.0), (position, g, w)


def test_comparator_keeps_signs():
    """A sign error near zero fails; a sign below 1e-14 of the largest number is noise."""
    assert_same_up_to_rounding('{"a": 3e-17, "b": 1}', '{"a": -5e-17, "b": 1}')
    for got, want in (
        ('{"entropy": -4.4e-16, "b": 1}', '{"entropy": 0, "b": 1}'),
        ('{"c": -1e-13, "b": 1}', '{"c": 1e-13, "b": 1}'),
    ):
        with pytest.raises(AssertionError):
            assert_same_up_to_rounding(got, want)


def read_bytes(path: Path) -> str:
    """A file's bytes as text, with no newline translation; "" if it is absent."""
    return path.read_bytes().decode("utf-8") if path.exists() else ""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, workdir):
    argv, exact = CASES[name]
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    code, stdout, stderr = run_cli(argv)
    assert (code, stderr) == (expected["exit"], expected["stderr"])
    outputs = [(read_bytes(STDOUT / name), stdout)]
    if name in WRITTEN:
        path, golden = WRITTEN[name]
        outputs.append((read_bytes(golden), read_bytes(workdir / path)))
    for want_text, got_text in outputs:
        assert not NEGATIVE_ZERO.search(got_text)
        if exact:
            assert got_text == want_text
        else:
            assert_same_up_to_rounding(got_text, want_text)


def test_error_cases_print_one_line():
    """Every bad input but a usage error ends in exit 2 and one stderr line."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    for name, outcome in expected.items():
        if outcome["exit"] == 2 and name != "usage_error":
            assert outcome["stderr"].startswith("error: "), name
            assert outcome["stderr"].count("\n") == 1, name


def test_every_model_kind_has_golden_spectrum():
    """A new model kind needs its model file and golden spectrum to pass the gate."""
    from thermofield import models

    for kind in models.MODEL_KINDS:
        assert (GOLDEN / "models" / f"{kind}.json").is_file(), kind
        for fmt in ("json", "csv"):
            assert f"spectrum_{kind}.{fmt}" in CASES, kind
            assert (STDOUT / f"spectrum_{kind}.{fmt}").is_file(), kind


def test_module_entry_point_matches_golden():
    """``python -m thermofield`` writes the same bytes as the in-process runs."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "thermofield", "verify", "--model", "models/oscillator.json",
         "--observable", "occupation", "--beta", "0,0.5,2,40", "--format", "csv"],
        cwd=GOLDEN,
        env=env,
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (STDOUT / "verify_oscillator.csv").read_bytes()


def write_missing_golden() -> None:
    """Write every golden file that does not exist yet; never rewrite one."""
    import tempfile

    import numpy as np

    from thermofield import models, serialize, thermal
    from thermofield.bipartite import BipartitePureState

    inputs = GOLDEN / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    STDOUT.mkdir(exist_ok=True)
    (GOLDEN / "written").mkdir(exist_ok=True)
    model_params = {
        "two_level": {"gap": 1.25},
        "oscillator": {"omega": 0.75, "cutoff": 6},
        "ising": {"n": 5, "j": 0.9, "h": 1.1},
        "random_hermitian": {"dim": 16, "seed": 2024},
    }
    files = {GOLDEN / "models" / f"{kind}.json": json.dumps({"kind": kind, "params": params})
             for kind, params in model_params.items()}
    g = models.random_complex_matrix(16, 16, 77)
    files[inputs / "observable16.json"] = serialize.dump_matrix((g + g.conj().T) / 2.0)
    files[inputs / "nonsquare.json"] = serialize.dump_matrix(np.ones((2, 3)))
    files[inputs / "trace_overflow.json"] = serialize.dump_matrix(np.diag([1.7e308, 1.7e308]))
    files[inputs / "nonhermitian.json"] = serialize.dump_matrix(np.array([[0.5, 2e-9], [0.0, 0.5]]))
    files[inputs / "norm_overflow.json"] = serialize.render_object(
        [("dim_a", 1), ("dim_b", 2), ("re", [1e200, 0.0]), ("im", [0.0, 0.0])]
    )
    files[inputs / "imaginary_identity.json"] = serialize.dump_matrix((1 + 3e-10j) * np.eye(2))
    scaled = 1e6 * models.build_random_hermitian(16, 4).matrix
    files[inputs / "observable16_1e6.json"] = serialize.dump_matrix(scaled)
    oscillator = models.build_oscillator(0.75, 6)
    gibbs = thermal.gibbs_density(oscillator, 0.8).matrix
    files[inputs / "gibbs.json"] = serialize.dump_matrix(gibbs)
    files[inputs / "gibbs_repr.json"] = json.dumps(
        {"rows": 6, "cols": 6, "re": gibbs.reshape(-1).tolist(), "im": [0.0] * 36}
    )
    files[inputs / "clipped.json"] = serialize.dump_matrix(np.diag([0.6 + 0.8e-9, 0.4, -0.8e-9]))
    off_norm = np.diag([math.sqrt(0.7 + 5e-10), math.sqrt(0.3)])
    files[inputs / "state_off_norm.json"] = serialize.dump_state(BipartitePureState(off_norm))
    near_bound = np.diag(
        [0.5616013865654373, 0.5801106380621368, 0.5489479561099015, 0.2161750926857217]
    )
    files[inputs / "state_near_bound.json"] = serialize.dump_state(BipartitePureState(near_bound))
    files[inputs / "random_state.json"] = serialize.dump_state(models.random_bipartite_state(5, 3, 11))
    for path, text in files.items():
        path.parent.mkdir(exist_ok=True)
        if not path.exists():
            path.write_text(text + "\n", encoding="utf-8")

    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    # cases that write an input of later cases run first
    emitters = [n for n, (_, golden) in WRITTEN.items() if golden.parent.name == "inputs"]
    order = emitters + [n for n in CASES if n not in emitters]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        prepare(workdir)
        os.chdir(workdir)
        try:
            for name in order:
                try:
                    code, stdout, stderr = run_cli(CASES[name][0])
                except Exception as exc:  # a crash is not a golden outcome
                    print(f"skipped {name}: {type(exc).__name__}", file=sys.stderr)
                    continue
                if name in WRITTEN and not WRITTEN[name][1].exists():
                    shutil.copyfile(workdir / WRITTEN[name][0], WRITTEN[name][1])
                    prepare(workdir)  # the emitted state is an input of later cases
                if name not in expected:
                    expected[name] = {"exit": code, "stderr": stderr}
                    if stdout:
                        (STDOUT / name).write_text(stdout, encoding="utf-8")
        finally:
            os.chdir(cwd)
    text = json.dumps(dict(sorted(expected.items())), indent=1)
    EXPECTED.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_missing_golden()
