"""The three workloads: their inputs, their operations and their output checks.

Each workload is a class with four parts, run in this order:

* ``make_inputs(seed, workdir)`` runs in the launching process.  It derives
  every input from the seed with the benchmark's own generators and writes
  the input files; it never calls the package.  Its time is not set-up time.
* ``setup(plan)`` runs first in a fresh worker: it imports ``thermofield``
  and builds or loads the inputs through the package's own builders and
  loaders.  This is what ``setup_s`` measures.
* ``round(index)`` lists the operations of one round.  A run attempts whole
  rounds only, so the share of failed operations is the same in every run.
* ``keep(outcome, round_index)`` reduces an outcome to what the checks
  need, so that memory does not grow with the number of operations run.
* ``check(rounds)`` runs after all timing.  It compares the outputs
  with computations made apart from the package (scipy ``expm``, eigenvalues
  of matrices built here from bit arithmetic) or with properties the method
  must have, and returns one line per failed check.

Operations reach the package only through public module attributes
(``cli.main``, ``models.build_random_hermitian``, ``thermal.verify_equivalence``)
looked up at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-10

SWEEP_DIM = 256
SWEEP_BETAS = (0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)

SMALL_DIMS = tuple(range(2, 65))
SMALL_BETAS = (0.0, 0.1, 1.0, 10.0, 100.0)

ISING_SITES = 9

# A d = 8 density matrix that DensityMatrix admits (smallest eigenvalue
# -5e-10, inside its -1e-9 bound) but purify rejects: clipping the three
# negative eigenvalues lifts the norm by 1.5e-9, above NORM_TOL = 1e-9.
EDGE_EIGENVALUES = (0.3, 0.25, 0.2, 0.15, 0.1 + 1.5e-9, -5e-10, -5e-10, -5e-10)
EDGE_FAILURE = ("state is not normalized", "1.500e-09")


def derived_seed(seed: int, stream: int) -> int:
    """A 63-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0] >> 1)


def write_matrix(path: str, m: np.ndarray) -> None:
    """Write the shared matrix format; ``repr`` floats round-trip exactly."""
    m = np.asarray(m, dtype=np.complex128)
    doc = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def read_complex(path_or_doc, rows_key: str, cols_key: str) -> np.ndarray:
    doc = path_or_doc
    if isinstance(doc, str):
        with open(doc, encoding="utf-8") as f:
            doc = json.load(f)
    flat = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return flat.reshape(doc[rows_key], doc[cols_key])


def gibbs_expm(h: np.ndarray, beta: float) -> np.ndarray:
    """e^{-beta h} / Tr, from scipy's expm of the spectrum-shifted exponent."""
    import scipy.linalg

    shift = float(np.linalg.eigvalsh(h)[0])
    raw = scipy.linalg.expm(-beta * (h - shift * np.eye(h.shape[0])))
    return raw / np.trace(raw).real


def ising_by_bits(n: int, j: float, h_field: float) -> np.ndarray:
    """Open transverse-field chain from bit arithmetic; site 0 is the top bit."""
    index = np.arange(1 << n)
    z = 1 - 2 * ((index[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)
    m = np.diag(-j * np.sum(z[:, :-1] * z[:, 1:], axis=1)).astype(np.complex128)
    for site in range(n):
        m[index, index ^ (1 << (n - 1 - site))] -= h_field
    return m


def shannon(p: np.ndarray) -> float:
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log(p)))


def close(a: float, b: float, scale: float = 1.0, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(scale))


# -- running the command-line tool in-process ----------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str

    def digest(self) -> tuple:
        return (self.code, hashlib.sha256(self.stdout.encode()).hexdigest(), self.stderr)


def run_cli(argv: list[str]) -> CliResult:
    """``thermofield.cli.main(argv)`` with stdout and stderr captured."""
    from thermofield import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error exits 1 from the real CLI
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


class CliWorkload:
    """Shared bookkeeping for workloads made of CLI commands on fixed inputs.

    Every round repeats the same commands on the same inputs, so the first
    (untimed) round is checked in full and every later output is checked
    for being byte-identical to it.
    """

    def succeeded(self, result: CliResult) -> bool:
        return result.code == 0

    def keep(self, result: CliResult, round_index: int):
        return result if round_index == 0 else result.digest()

    def check(self, rounds: list[list]) -> list[str]:
        first, *later = rounds
        failures = self.check_first(first)
        expected = [r.digest() for r in first]
        for n, outputs in enumerate(later, start=1):
            for position, digest in enumerate(outputs):
                if digest != expected[position]:
                    failures.append(
                        f"round {n} op {position}: output differs from the first round"
                    )
                    break
        return failures


# -- verify_sweep ---------------------------------------------------------------


class VerifySweep(CliWorkload):
    """One `verify` command: d = 256 random Hermitian H, file observable, 8 betas."""

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(derived_seed(seed, 1))
        g = rng.normal(size=(SWEEP_DIM, SWEEP_DIM)) + 1j * rng.normal(size=(SWEEP_DIM, SWEEP_DIM))
        observable = os.path.join(workdir, "observable.json")
        write_matrix(observable, (g + g.conj().T) / 2.0)
        model = {"kind": "random_hermitian", "params": {"dim": SWEEP_DIM, "seed": derived_seed(seed, 0)}}
        return {"model": json.dumps(model), "observable": observable}

    def setup(self, plan: dict) -> None:
        from thermofield import models, serialize

        self.plan = plan
        models.build_model(models.parse_model_spec(json.loads(plan["model"])))
        with open(plan["observable"], encoding="utf-8") as f:
            serialize.load_matrix(f.read())
        self.argv = [
            "verify",
            "--model", plan["model"],
            "--observable", plan["observable"],
            "--beta", ",".join(repr(b) for b in SWEEP_BETAS),
            "--format", "json",
        ]

    def round(self, index: int) -> list:
        return [("verify", lambda: run_cli(self.argv))]

    def check_first(self, first: list) -> list[str]:
        from thermofield import models

        (result,) = first
        if result.code != 0:
            return [f"verify exited {result.code}: {result.stderr.strip()}"]
        reports = json.loads(result.stdout)
        params = json.loads(self.plan["model"])["params"]
        h = models.build_random_hermitian(params["dim"], params["seed"]).matrix
        f = read_complex(self.plan["observable"], "rows", "cols")
        scale = float(np.linalg.norm(f, 2))
        d = SWEEP_DIM
        failures = []
        if [r["beta"] for r in reports] != list(SWEEP_BETAS):
            failures.append("reports do not follow the beta list")
        for r in reports:
            b = r["beta"]
            if not r["residual"] <= RESIDUAL_TOL:
                failures.append(f"beta {b}: residual {r['residual']:.3e}")
            oracle = float(np.trace(gibbs_expm(h, b) @ f).real)
            if not close(r["trace_average"], oracle, scale):
                failures.append(f"beta {b}: trace_average {r['trace_average']} vs expm {oracle}")
            p = np.asarray(r["schmidt_coefficients"]) ** 2
            if not close(float(np.sum(p)), 1.0, tol=1e-10):
                failures.append(f"beta {b}: squared Schmidt coefficients sum to {np.sum(p)}")
            if not close(shannon(p), r["entropy"], tol=1e-10):
                failures.append(f"beta {b}: Shannon entropy {shannon(p)} vs {r['entropy']}")
            if b == 0.0:
                if not close(r["trace_average"], float(np.trace(f).real) / d, scale, 1e-10):
                    failures.append("beta 0: trace_average is not Tr F / d")
                if not close(r["entropy"], math.log(d), tol=1e-10):
                    failures.append(f"beta 0: entropy {r['entropy']} is not ln d")
        entropies = [r["entropy"] for r in reports]
        if any(later > earlier + 1e-12 for earlier, later in zip(entropies, entropies[1:])):
            failures.append(f"entropy increases with beta: {entropies}")
        return failures


# -- verify_small ---------------------------------------------------------------


@dataclass
class SmallCase:
    dim: int
    beta: float
    seed_h: int
    seed_f: int


class VerifySmall:
    """Library calls: build H and F, then one verify_equivalence, d = 2..64."""

    CASES_PER_ROUND = len(SMALL_DIMS) * len(SMALL_BETAS)

    def make_inputs(self, seed: int, workdir: str) -> dict:
        return {"seed_base": derived_seed(seed, 2)}

    def setup(self, plan: dict) -> None:
        import thermofield  # noqa: F401  (the inputs are built inside each case)

        self.seed_base = plan["seed_base"]

    def case(self, number: int) -> SmallCase:
        beta = SMALL_BETAS[(number // len(SMALL_DIMS)) % len(SMALL_BETAS)]
        dim = SMALL_DIMS[number % len(SMALL_DIMS)]
        base = (self.seed_base + 2 * number) % 2**64
        return SmallCase(dim, beta, base, (base + 1) % 2**64)

    def round(self, index: int) -> list:
        first = index * self.CASES_PER_ROUND
        return [
            ("case", lambda c=self.case(first + k): (c, self.run_case(c)))
            for k in range(self.CASES_PER_ROUND)
        ]

    @staticmethod
    def run_case(c: SmallCase):
        from thermofield import models, thermal

        h = models.build_random_hermitian(c.dim, c.seed_h)
        f = models.build_random_hermitian(c.dim, c.seed_f)
        return thermal.verify_equivalence(h, c.beta, f, "F")

    def succeeded(self, outcome) -> bool:
        return True

    def keep(self, outcome, round_index: int):
        """Every case of the first two rounds; later, only a failing residual."""
        _, report = outcome
        if round_index < 2 or not report.residual <= RESIDUAL_TOL:
            return outcome
        return None

    def check(self, rounds: list[list]) -> list[str]:
        """Residual of every case; the expm oracle on the first two rounds."""
        from thermofield import models

        failures = []
        for n, outcomes in enumerate(rounds):
            for c, report in filter(None, outcomes):
                if not report.residual <= RESIDUAL_TOL:
                    failures.append(f"{c}: residual {report.residual:.3e}")
                if n >= 2:
                    continue
                h = models.build_random_hermitian(c.dim, c.seed_h).matrix
                f = models.build_random_hermitian(c.dim, c.seed_f).matrix
                oracle = float(np.trace(gibbs_expm(h, c.beta) @ f).real)
                if not close(report.trace_average, oracle, float(np.linalg.norm(f, 2))):
                    failures.append(f"{c}: trace_average {report.trace_average} vs expm {oracle}")
        return failures


# -- state_files ------------------------------------------------------------------


class StateFiles(CliWorkload):
    """tfd --emit-state, schmidt, purify (Gibbs file), purify (d = 8 edge case)."""

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(derived_seed(seed, 3))
        j, h_field = (float(x) for x in 0.5 + rng.random(2))
        beta = float(0.2 + 0.6 * rng.random())
        rho = gibbs_expm(ising_by_bits(ISING_SITES, j, h_field), beta)
        gibbs = os.path.join(workdir, "gibbs.json")
        write_matrix(gibbs, (rho + rho.conj().T) / 2.0)
        dim = len(EDGE_EIGENVALUES)
        hadamard = np.array([[(-1) ** bin(r & c).count("1") for c in range(dim)] for r in range(dim)])
        q = hadamard / math.sqrt(dim)
        edge_rho = q @ np.diag(EDGE_EIGENVALUES) @ q.T
        edge = os.path.join(workdir, "edge.json")
        write_matrix(edge, (edge_rho + edge_rho.T) / 2.0)
        model = {"kind": "ising", "params": {"n": ISING_SITES, "j": j, "h": h_field}}
        return {
            "model": json.dumps(model),
            "j": j,
            "h": h_field,
            "beta": beta,
            "gibbs": gibbs,
            "edge": edge,
            "state": os.path.join(workdir, "tfd_state.json"),
        }

    def setup(self, plan: dict) -> None:
        from thermofield import models, serialize

        self.plan = plan
        models.parse_model_spec(json.loads(plan["model"]))
        for path in (plan["gibbs"], plan["edge"]):
            with open(path, encoding="utf-8") as f:
                serialize.load_matrix(f.read())
        beta = repr(plan["beta"])
        self.commands = [
            ("tfd", ["tfd", "--model", plan["model"], "--beta", beta, "--emit-state", plan["state"]]),
            ("schmidt", ["schmidt", plan["state"]]),
            ("purify", ["purify", plan["gibbs"]]),
            ("purify_edge", ["purify", plan["edge"]]),
        ]

    def round(self, index: int) -> list:
        return [(kind, lambda argv=argv: run_cli(argv)) for kind, argv in self.commands]

    def check_first(self, first: list) -> list[str]:
        tfd, schmidt, purify, edge = first
        failures = []
        for name, result in (("tfd", tfd), ("schmidt", schmidt), ("purify", purify)):
            if result.code != 0:
                failures.append(f"{name} exited {result.code}: {result.stderr.strip()}")
        if edge.code == 0:
            failures += self.check_purify(edge, self.plan["edge"], "purify_edge")
        elif edge.code != 2 or not all(part in edge.stderr for part in EDGE_FAILURE):
            failures.append(f"purify_edge exited {edge.code}: {edge.stderr.strip()}")
        if failures:
            return failures

        p = self.plan
        h = ising_by_bits(ISING_SITES, p["j"], p["h"])
        energies = np.linalg.eigvalsh(h)
        weights = np.exp(-p["beta"] * (energies - energies[0]))
        weights = np.sort(weights / np.sum(weights))[::-1]
        (entry,) = json.loads(tfd.stdout)
        coefficients = np.asarray(entry["schmidt_coefficients"])
        if np.max(np.abs(coefficients**2 - weights)) > 1e-12:
            failures.append("tfd coefficients are not the square roots of the Boltzmann weights")
        if not close(entry["entropy"], shannon(weights), tol=1e-10):
            failures.append(f"tfd entropy {entry['entropy']} vs {shannon(weights)}")
        a = read_complex(p["state"], "dim_a", "dim_b")
        residual = float(np.linalg.norm(a @ a.conj().T - gibbs_expm(h, p["beta"])))
        if residual > 1e-10:
            failures.append(f"emitted state reduces to the Gibbs matrix only within {residual:.3e}")

        report = json.loads(schmidt.stdout)
        rank = int(np.sum(coefficients > 1e-12 * coefficients[0]))
        if report["coefficients"] != entry["schmidt_coefficients"] or report["rank"] != rank:
            failures.append("schmidt does not repeat the tfd coefficients and rank")
        if report["entropy"] != entry["entropy"]:
            failures.append("schmidt entropy differs from tfd entropy")
        return failures + self.check_purify(purify, p["gibbs"], "purify")

    @staticmethod
    def check_purify(result: CliResult, density_path: str, name: str) -> list[str]:
        doc = json.loads(result.stdout)
        if not doc["round_trip_residual"] <= RESIDUAL_TOL:
            return [f"{name}: round-trip residual {doc['round_trip_residual']:.3e}"]
        a = read_complex(doc["state"], "dim_a", "dim_b")
        rho = read_complex(density_path, "rows", "cols")
        residual = float(np.linalg.norm(a @ a.conj().T - rho))
        if residual > 1e-10:
            return [f"{name}: state reduces to the input only within {residual:.3e}"]
        return []


WORKLOADS = {
    "verify_sweep": VerifySweep,
    "verify_small": VerifySmall,
    "state_files": StateFiles,
}
