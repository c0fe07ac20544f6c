"""The benchmark's workloads: inputs drawn from a seed, one operation, its gate.

Each workload is a closed loop with one client in one process: the next
operation starts only after the previous one and its checks finish.  An
operation calls the library only through an ``api`` object (see
``tracing.py``), so the same code runs traced and untraced; the library
receives nothing but the generated inputs.  The gates use the tolerances
the acceptance tests pin (criterion numbers in the messages).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bogolib import CondensateState, build_grid, harmonic_potential
from bogolib.cli import OUTPUT_DIR_ENV
from bogolib.errors import BogolibError, ConvergenceError
from bogolib.grid import ComplexField
from bogolib.number_shift import StationaryProblem
from bogolib.tdgpe import TrapQuench

import benchenv
from tracing import RAW

# Inputs are drawn for this many operations and then reused in order.
DRAWS = 256


@dataclass
class Outcome:
    """Gate verdict of one operation, with the values the trace reports."""

    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """A chain the traced run executes once, outside the timed window."""

    chain: str
    run: Callable
    check: Callable


def error_outcome(exc: BogolibError) -> Outcome:
    return Outcome(False, f"{type(exc).__name__}: {exc}")


def _limit(label: str, value: float, bound: float, criterion: int) -> list[str]:
    if abs(value) < bound:
        return []
    return [f"{label} = {value:.3e} not below {bound:g} (criterion {criterion:02d})"]


def _radical_inverse(index: int, base: int) -> float:
    value, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        value += digit * scale
        scale /= base
    return value


def quasi_random(seed: int, bounds: list[tuple[float, float]]) -> list[tuple[float, ...]]:
    """``DRAWS`` points of a Halton sequence over ``bounds``, shifted by the seed.

    Every prefix covers each range evenly, so a run's median does not
    depend on which few inputs happened to come first.
    """
    shift = np.random.default_rng(seed).random(len(bounds))
    bases = (2, 3)
    return [
        tuple(
            lo + (hi - lo) * ((_radical_inverse(i, bases[d]) + shift[d]) % 1.0)
            for d, (lo, hi) in enumerate(bounds)
        )
        for i in range(1, DRAWS + 1)
    ]


# ---------------------------------------------------------------------------
# trap-ground: ground state, spectrum and number shift in a harmonic trap
# ---------------------------------------------------------------------------

TRAP_LENGTH = 16.0
TRAP_OMEGA = 1.0
TRAP_K = 64
TRAP_TOL = 1e-11  # the library default, never loosened
TRAP_U_TILDE = (2.0, 20.0)
TRAP_N_PARTICLES = (100.0, 400.0)


def check_trap(result) -> Outcome:
    state, stability, report = result
    problems = [] if stability.stable else ["unstable spectrum: " + "; ".join(stability.messages)]
    problems += _limit("|r0|", report.r0, 1e-8, 10)
    if not state.residual <= TRAP_TOL:
        problems.append(f"residual {state.residual:.3e} above tol {TRAP_TOL:g}")
    return Outcome(not problems, "; ".join(problems), {"imag_steps": len(state.h1_history) - 2})


def oscillator_state(grid, potential, n_particles: float) -> CondensateState:
    """Noninteracting ground state of the trap, sampled on the grid."""
    x = grid.points - grid.center
    psi = np.exp(-0.5 * TRAP_OMEGA * x**2)
    psi /= np.sqrt(np.sum(psi**2) * grid.dx)
    return CondensateState(
        xi=ComplexField(psi.astype(np.complex128), grid),
        n_particles=n_particles,
        u_tilde=0.0,
        potential=potential,
        mu=0.5 * TRAP_OMEGA,
        residual=float("nan"),
    )


class TrapGround:
    """Ladder rung n=1024 of a box harmonic trap; the n=2048 rung is a probe."""

    name = "trap-ground"
    chain = "n1024"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = quasi_random(seed, [TRAP_U_TILDE, TRAP_N_PARTICLES])
        self.rungs = {}
        for n_points in (1024, 2048):
            grid = build_grid(n_points, TRAP_LENGTH, "box")
            self.rungs[n_points] = (grid, harmonic_potential(grid, TRAP_OMEGA))
        warm_up(self)

    def run(self, index: int, api):
        return self._rung(1024, index, api)

    check = staticmethod(check_trap)

    @property
    def ladder_probe(self) -> Probe:
        """The n=2048 rung at the default tol; a failed solve counts as failed."""
        return Probe("n2048", functools.partial(self._rung, 2048), check_trap)

    def _rung(self, n_points: int, index: int, api):
        grid, potential = self.rungs[n_points]
        u_tilde, n_particles = self.inputs[index % DRAWS]
        try:
            state = api.solve_stationary(grid, potential, u_tilde, n_particles=n_particles)
        except ConvergenceError:
            # No converged state to build on.  The basis cost depends only on
            # the grid and K, so time it on the oscillator ground state.
            api.build_phonon_basis(oscillator_state(grid, potential, n_particles), TRAP_K)
            raise
        basis = api.build_phonon_basis(state, TRAP_K)
        qh = api.assemble(state, basis)
        spectrum = api.diagonalize(qh, basis)
        stability = api.check_stability(spectrum)
        api.h3_expectation(qh, np.zeros(TRAP_K))
        problem = StationaryProblem(grid, potential, u_tilde / n_particles)
        report = api.build_report(problem, state, basis, spectrum)
        api.matrix_elements(state, report)
        return state, stability, report


# ---------------------------------------------------------------------------
# quench-dynamics: trap quench with co-evolved modes and the h2/hr check
# ---------------------------------------------------------------------------

QUENCH_POINTS = 256
QUENCH_LENGTH = 16.0
QUENCH_K = 32
QUENCH_DT = 2e-4
QUENCH_T_FINAL = 1.0  # 5000 steps
QUENCH_STRIDE = 500
# Criterion 09's overlap bound (1e-8) holds on this box, measured at most
# 7e-9.  At u_tilde >= 3.5 with omega_to >= 1.25 the modes' overlap with
# the condensate reaches 1.0e-8 to 2.2e-8: past that bound, though within
# the 1e-6 at which propagate_modes itself raises.
QUENCH_U_TILDE = (1.0, 3.0)
QUENCH_OMEGA_TO = (1.1, 1.3)


def quench_chain(api, grid, potential, u_tilde, omega_to, evolution="gpe"):
    state = api.solve_stationary(grid, potential, u_tilde)
    traj = api.propagate(
        state,
        t_final=QUENCH_T_FINAL,
        dt=QUENCH_DT,
        potential_of_t=TrapQuench(grid, 1.0, omega_to),
        stride=QUENCH_STRIDE,
        evolution=evolution,
    )
    basis = api.build_phonon_basis(state, QUENCH_K)
    traj = api.propagate_modes(traj, basis)
    diagnostics = api.hr_diagnostic(traj)
    api.h3_of_t(traj)
    return traj, diagnostics


def check_quench(result) -> Outcome:
    traj, diagnostics = result
    dx = traj.grid.dx
    eye = np.eye(QUENCH_K)
    gram = overlap = 0.0
    for basis, xi in zip(traj.modes_t, traj.xi_t):
        phi = basis.mode_matrix
        gram = max(gram, float(np.max(np.abs(phi.conj() @ phi.T * dx - eye))))
        overlap = max(overlap, float(np.max(np.abs(phi.conj() @ xi.values * dx))))
    values = {
        "max_mismatch": max(d.mismatch for d in diagnostics),
        "norm_drift": float(np.max(np.abs(traj.norm_t - 1.0))),
        "gram_deviation": gram,
        "overlap": overlap,
    }
    problems = (
        _limit("max mismatch", values["max_mismatch"], 1e-7, 8)
        + _limit("norm drift", values["norm_drift"], 1e-10, 9)
        + _limit("Gram deviation", gram, 1e-8, 9)
        + _limit("overlap", overlap, 1e-8, 9)
    )
    return Outcome(not problems, "; ".join(problems), values)


class QuenchDynamics:
    """Propagate a trapped condensate through a frequency quench."""

    name = "quench-dynamics"
    chain = "dyn"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = quasi_random(seed, [QUENCH_U_TILDE, QUENCH_OMEGA_TO])
        self.grid = build_grid(QUENCH_POINTS, QUENCH_LENGTH, "box")
        self.potential = harmonic_potential(self.grid, 1.0)
        warm_up(self)

    def run(self, index: int, api):
        u_tilde, omega_to = self.inputs[index % DRAWS]
        return quench_chain(api, self.grid, self.potential, u_tilde, omega_to)

    check = staticmethod(check_quench)


# ---------------------------------------------------------------------------
# desk-scenarios: every sample config through the command line, in process
# ---------------------------------------------------------------------------

DESK_CONFIGS = (
    "dynamics_quench",
    "fock_oracle",
    "homogeneous_check",
    "number_shift_trap",
    "spectrum_uniform",
    "stationary_harmonic",
)
# The benchmark's own config: the Fock oracle at the schema maximum
# n_max_excited = 60, with u_tilde = u * N = 1 as in fock_oracle.ini.
FOCK_N60 = "fock_oracle_n60"
FOCK_N60_TEXT = """\
[scenario]
name = fock-oracle

[physics]
u = {u!r}
n_particles = 60
volume = 1.0
k_mode = 1.0

[numerics]
n_max_excited = 60
""".format(u=1.0 / 60.0)
FOCK_DIMENSIONS = {"fock_oracle": 861, FOCK_N60: 1891}


def _desk_physics(stem: str, r: dict) -> list[str]:
    """Each summary's values against its acceptance criterion."""
    if stem == "stationary_harmonic":
        out = _limit("|mu - 1/2|", r["mu"] - 0.5, 1e-8, 4)
        return out + ([] if r["residual"] <= TRAP_TOL else [f"residual {r['residual']:.3e}"])
    if stem == "spectrum_uniform":
        out = _limit("max rel dev vs analytic", r["max_rel_dev_vs_analytic"], 1e-8, 1)
        return out + ([] if r["stable"] else ["unstable spectrum"])
    if stem == "dynamics_quench":
        return (
            _limit("max mismatch", r["max_mismatch"], 1e-7, 8)
            + _limit("norm drift", r["max_norm_drift"], 1e-10, 9)
            + _limit("Gram deviation", r["max_gram_deviation"], 1e-8, 9)
            + _limit("overlap", r["max_condensate_overlap"], 1e-8, 9)
        )
    if stem == "number_shift_trap":
        return _limit("|r0|", r["r0"], 1e-8, 10)
    if stem == "homogeneous_check":
        return _limit("canonical pair deviation", r["max_product_deviation"], 1e-15, 11)
    # Fock oracle at N=40 and N=60.
    out = []
    if r["number_conservation_offblock"] != 0.0:
        out.append("number not conserved (criterion 06)")
    if r["dimension"] != FOCK_DIMENSIONS[stem]:
        out.append(f"dimension {r['dimension']} != {FOCK_DIMENSIONS[stem]}")
    return out


class DeskScenarios:
    """``bogolib run`` on every sample config plus the N=60 Fock oracle.

    Every operation writes into fresh output directories, removed after
    its check: rewriting existing files would make each ``open`` wait for
    the filesystem to flush the previous contents.
    """

    name = "desk-scenarios"
    chain = "desk"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.configs = {stem: benchenv.CONFIGS / f"{stem}.ini" for stem in DESK_CONFIGS}
        missing = [str(p) for p in self.configs.values() if not p.is_file()]
        if missing:
            raise benchenv.MissingSourceError(f"missing configs: {missing}")
        workdir.mkdir(parents=True, exist_ok=True)
        own = workdir / f"{FOCK_N60}.ini"
        own.write_text(FOCK_N60_TEXT)
        self.configs[FOCK_N60] = own
        self.workdir = workdir
        self.runs = 0
        # Criterion 12: every later summary.json must match the warm-up's bytes.
        base, _ = self.run(0, RAW)
        self.reference = {stem: _summary(base / stem) for stem in self.configs}
        shutil.rmtree(base)

    def run(self, index: int, api):
        self.runs += 1
        base = self.workdir / f"run{self.runs}"
        order = list(self.configs)
        self.rng.shuffle(order)
        exits = {}
        previous = os.environ.get(OUTPUT_DIR_ENV)
        try:
            for stem in order:
                os.environ[OUTPUT_DIR_ENV] = str(base / stem)
                stderr = io.StringIO()
                with (
                    api.tag(stem),
                    contextlib.redirect_stdout(io.StringIO()),
                    contextlib.redirect_stderr(stderr),
                ):
                    code = api.cli_main(["run", str(self.configs[stem])])
                exits[stem] = (code, stderr.getvalue().strip())
        finally:
            if previous is None:
                os.environ.pop(OUTPUT_DIR_ENV, None)
            else:
                os.environ[OUTPUT_DIR_ENV] = previous
        return base, exits

    def check(self, result) -> Outcome:
        base, exits = result
        problems = []
        results = {}
        written = 0
        for stem, (code, stderr) in exits.items():
            if code != 0:
                problems.append(f"{stem}: exit code {code} {stderr}")
                continue
            data = _summary(base / stem)
            if data != self.reference[stem]:
                problems.append(f"{stem}: summary.json differs from the warm-up's (criterion 12)")
            results[stem] = json.loads(data)["results"]
            problems += [f"{stem}: {p}" for p in _desk_physics(stem, results[stem])]
            written += sum(f.stat().st_size for f in (base / stem).iterdir())
        shutil.rmtree(base)
        counts = {"bytes_written": written}
        if "fock_oracle" in results and FOCK_N60 in results:
            counts["fock_dimension.N60"] = results[FOCK_N60]["dimension"]
            if not results[FOCK_N60]["gap_error"] < results["fock_oracle"]["gap_error"]:
                problems.append("Fock gap error does not shrink from N=40 to N=60 (criterion 06)")
        return Outcome(not problems, "; ".join(problems), counts)


def _summary(directory: Path) -> bytes | None:
    path = directory / "summary.json"
    return path.read_bytes() if path.is_file() else None


WORKLOADS = {cls.name: cls for cls in (TrapGround, QuenchDynamics, DeskScenarios)}


def warm_up(workload) -> None:
    """One untraced operation, so lazy imports and caches fill before timing."""
    with contextlib.suppress(BogolibError):
        workload.run(0, RAW)


def make(name: str, seed: int, workdir: Path):
    """Generate the inputs of workload ``name`` and warm it up."""
    return WORKLOADS[name](seed, workdir)
