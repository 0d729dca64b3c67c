"""Command-line front door.

One executable with five subcommands (``spectrum``, ``verify``, ``tfd``,
``purify``, ``schmidt``).  Data goes to stdout or ``--out``; diagnostics go
to stderr.  Exit codes: 0 success, 1 a residual exceeded the tolerance,
2 bad input, config, or I/O, a failed write to stdout included.  Output for
a fixed config is byte-identical across runs.
Each command returns its records, and :func:`_render` writes them in the
chosen format.  A ``verify`` record, one per beta, has the keys
``beta, observable_name, trace_average, doubled_expectation, residual,
entropy, schmidt_coefficients`` in exactly that order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import bipartite, models, serialize, thermal
from .errors import ValidationError
from .linalg import RESIDUAL_TOL, Operator, bound_exceeded, dagger, hermitian_eig

__all__ = ["main"]

CSV_HEADER = "beta,quantity,value"


def _read_file(path: str) -> bytes:
    """The bytes of a file, line ends translated as a text-mode read does."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _write(path: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces in order, as they come, and a newline to the file at
    ``path``, or to stdout when it is None, so a document is never held
    whole."""
    try:
        if path is None:
            sys.stdout.writelines(pieces)  # looked up here, so a redirect is honoured
            sys.stdout.write("\n")
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(pieces)
                f.write("\n")
    except OSError as exc:
        if path is None:
            _silence(sys.stdout)
        raise ValidationError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def _silence(stream) -> None:
    """Point a failed stream's file descriptor at the null device, so the
    flush at exit cannot fail again and change the exit code."""
    with contextlib.suppress(OSError, ValueError):  # an in-memory stream has no fd
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _diagnose(line: str) -> None:
    """Print a line to stderr; when stderr is unwritable the line is lost, not the exit code."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _silence(sys.stderr)


def _load_model(arg: str) -> models.ModelSpec:
    """Accept inline JSON (leading '{') or a path to a model file."""
    # a byte-order mark is kept, so the JSON parser rejects it as in a file
    text = arg if arg.lstrip().lstrip("\ufeff").startswith("{") else _read_file(arg)
    return models.parse_model_spec(serialize.parse_json(text, "model JSON"))


def _resolve_observable(arg: str, hamiltonian: Operator) -> Operator:
    """A documented observable name, or a path to a matrix file."""
    if arg in models.OBSERVABLE_NAMES:
        return models.build_observable(arg, hamiltonian)
    matrix = serialize.load_matrix(_read_file(arg))
    if matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"observable file must hold a square matrix, got {matrix.shape}")
    return Operator(matrix)


def _parse_betas(arg: str) -> list[float]:
    try:
        betas = [float(part) for part in arg.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"invalid beta list {arg!r}") from exc
    if not betas:
        raise ValidationError("beta list must not be empty")
    return betas


def _check_nonnegative(what: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ValidationError(f"{what} must be finite and nonnegative, got {value}")


def _over_tolerance(
    what: str, residual: float, tolerance: float, op: Operator | None = None
) -> str | None:
    """The stderr line for a residual over ``bound_exceeded``'s bound, else None."""
    bound = bound_exceeded(residual, tolerance, op)
    return None if bound is None else f"{what} residual {residual:.3e} exceeds tolerance {bound:.3e}"


def _render(records: list, output_format: str, array: bool) -> Iterator[str]:
    """The records as JSON (one object, or an array of them), in pieces
    rendered as they are asked for, or as CSV rows, in one piece.

    A record is a list of fields ``(JSON key, CSV quantity, value)``.  In
    CSV each field with a quantity is one ``beta,quantity,value`` row (an
    array one row ``<quantity>_<k>`` per entry), and the record's ``beta``
    field fills the beta column.  The document has no final newline.
    """
    if output_format == "json":
        for index, r in enumerate(records):
            if array:
                yield ", " if index else "["
            yield from serialize.object_pieces((key, value) for key, _, value in r)
        if array:
            yield "]"
        return
    lines = [CSV_HEADER]
    for fields in records:
        beta = next((serialize.render_number(v) for key, _, v in fields if key == "beta"), "")
        for _, quantity, value in fields:
            if quantity is None:
                continue
            if isinstance(value, np.ndarray):
                lines += [
                    f"{beta},{quantity}_{k},{serialize.render_number(x)}" for k, x in enumerate(value)
                ]
            else:
                lines.append(f"{beta},{quantity},{serialize.render_number(value)}")
    yield "\n".join(lines)


# Every command takes the parsed arguments, with ``model`` loaded and ``beta``
# a checked list of floats, and returns its records and the stderr line of a
# residual over --tol (or None).


def cmd_spectrum(args: argparse.Namespace) -> tuple[list, str | None]:
    """The eigenvalues of the configured model, ascending."""
    eigenvalues = hermitian_eig(models.build_model(args.model)).eigenvalues
    return [[("eigenvalues", "eigenvalue", eigenvalues)]], None


def cmd_verify(args: argparse.Namespace) -> tuple[list, str | None]:
    """The equivalence check once per beta, in input order."""
    hamiltonian = models.build_model(args.model)
    observable = _resolve_observable(args.observable, hamiltonian)
    reports = thermal.verify_betas(hamiltonian, args.beta, observable, args.observable)
    worst = max(r.residual for r in reports)
    failure = _over_tolerance("equivalence", worst, args.tolerance, observable)
    records = [
        [
            ("beta", None, r.beta),
            ("observable_name", None, json.dumps(r.observable_name)),
            ("trace_average", "trace_average", r.trace_average),
            ("doubled_expectation", "doubled_expectation", r.doubled_expectation),
            ("residual", "residual", r.residual),
            ("entropy", "entropy", r.entropy),
            ("schmidt_coefficients", "schmidt_coefficient", r.schmidt_coefficients),
        ]
        for r in reports
    ]
    return records, failure


def cmd_tfd(args: argparse.Namespace) -> tuple[list, str | None]:
    """The doubled-state Schmidt spectrum per beta; optionally save the state."""
    hamiltonian = models.build_model(args.model)
    if args.emit_state is not None and len(args.beta) != 1:
        raise ValidationError("--emit-state requires exactly one beta value")
    records = []
    for beta in args.beta:
        state = thermal.thermofield_double(hamiltonian, beta)
        coefficients = bipartite.schmidt_coefficients(state)
        records.append(
            [
                ("beta", None, beta),
                ("schmidt_coefficients", "schmidt_coefficient", coefficients),
                ("entropy", "entropy", bipartite.schmidt_entropy(coefficients)),
            ]
        )
        if args.emit_state is not None:
            _write(args.emit_state, serialize.state_pieces(state))
    return records, None


def cmd_purify(args: argparse.Namespace) -> tuple[list, str | None]:
    """Purify a density-matrix file and report the round-trip residual.

    ``purify`` clips the negative eigenvalues that admission lets through,
    which moves rho by its negative part, of Frobenius norm at most their
    summed magnitude.  So the residual is held to ``--tol`` plus that mass,
    read from the eigendecomposition admission cached.
    """
    rho = bipartite.DensityMatrix(serialize.load_matrix(_read_file(args.density)))
    state = bipartite.purify(rho)
    a = state.amplitudes
    residual = float(np.linalg.norm(a @ dagger(a) - rho.matrix))
    eigenvalues = hermitian_eig(rho).eigenvalues
    clipped = -float(np.sum(eigenvalues[eigenvalues < 0.0]))
    if args.emit_state is None:  # rendered as it is written, if at all (CSV has no state row)
        state_json = serialize.state_pieces(state)
    else:  # rendered once, for the file and the record
        state_json = serialize.dump_state(state)
        _write(args.emit_state, [state_json])
    record = [
        ("round_trip_residual", "round_trip_residual", residual),
        ("state", None, state_json),
    ]
    return [record], _over_tolerance("round-trip", residual, args.tolerance + clipped)


def cmd_schmidt(args: argparse.Namespace) -> tuple[list, str | None]:
    """Schmidt spectrum, rank, and entropy of a state file."""
    coefficients = bipartite.schmidt_coefficients(serialize.load_state(_read_file(args.state)))
    record = [
        ("coefficients", "schmidt_coefficient", coefficients),
        ("rank", "rank", bipartite.schmidt_rank(coefficients)),
        ("entropy", "entropy", bipartite.schmidt_entropy(coefficients)),
    ]
    return [record], None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermofield",
        description="Schmidt decomposition, Gibbs ensembles, and thermal double states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help, *, model=False, betas=False, tol=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if model:
            p.add_argument("--model", required=True, help="model file path or inline JSON")
        if betas:
            p.add_argument("--beta", required=True, help="comma-separated inverse temperatures")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        p.add_argument("--out", default=None, dest="output_path", help="output path (default stdout)")
        if tol:
            p.add_argument(
                "--tol",
                type=float,
                default=RESIDUAL_TOL,
                dest="tolerance",
                help="residual tolerance; verify's is relative to max(1, ||F||_F) of the observable",
            )
        return p

    add_command("spectrum", cmd_spectrum, "eigenvalues of a model Hamiltonian", model=True)
    p = add_command(
        "verify", cmd_verify, "ensemble average vs doubled-space expectation",
        model=True, betas=True, tol=True,
    )
    p.add_argument("--observable", default="identity", help="observable name or matrix file")
    p = add_command(
        "tfd", cmd_tfd, "doubled-state Schmidt spectrum and entropy", model=True, betas=True
    )
    p.add_argument("--emit-state", default=None, dest="emit_state", help="write the state file")
    p = add_command("purify", cmd_purify, "purify a density-matrix file", tol=True)
    p.add_argument("density", help="density-matrix file (shared matrix format)")
    p.add_argument("--emit-state", default=None, dest="emit_state", help="write the state file")
    p = add_command("schmidt", cmd_schmidt, "Schmidt spectrum of a state file")
    p.add_argument("state", help="state file path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "model"):
            args.model = _load_model(args.model)
        if hasattr(args, "beta"):
            args.beta = _parse_betas(args.beta)
        if hasattr(args, "tolerance"):
            _check_nonnegative("tolerance", args.tolerance)
        for beta in getattr(args, "beta", ()):
            _check_nonnegative("beta values", beta)
        records, failure = args.run(args)
        # a command over a beta list writes one record per beta, as a JSON array
        _write(args.output_path, _render(records, args.output_format, hasattr(args, "beta")))
    except ValidationError as exc:
        _diagnose(f"error: {exc}")
        return 2
    if failure is None:
        return 0
    _diagnose(failure)
    return 1


if __name__ == "__main__":
    sys.exit(main())
