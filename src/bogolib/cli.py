"""Scenario-driven command line: parse a config, run, serialize results.

Config files are INI-style with sections ``[scenario]``, ``[grid]``,
``[physics]``, ``[numerics]`` and ``[output]``; unknown sections or keys,
and ``[physics]`` or ``[numerics]`` keys the scenario does not read, are
rejected so typos cannot silently change the physics.  Scalar results
land in ``summary.json`` (deterministic: resolved config included, no
wall-clock data), arrays in CSV files; timing, version info and what the
solvers did (the stationary ``SolveTrace``) go to the separate
``run_meta.json``.

Exit codes: 0 success, 2 configuration error, 3 solver/integrator
failure, 4 instability detected (a spectrum run still writes its outputs;
``modes.csv`` then holds the eigenvalues of sigma D), 5 resource limit.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bdg import _check_mode_count, assemble, build_phonon_basis, diagonalize
from .errors import BogolibError, ConfigurationError, InstabilityError
from .gpe import (
    default_tol,
    energy_functional_h1,
    harmonic_potential,
    solve_stationary,
    zero_potential,
)
from .grid import ComplexField, build_grid, norm
from .homogeneous import (
    _check_fock_oracle,
    bogoliubov_dispersion,
    compare_asymptotics,
    exact_fock_spectrum,
    hydro_coefficients,
    number_conservation_offblock,
    sound_mode_energy,
)
from .number_shift import StationaryProblem, build_report
from .tdgpe import (
    TrapQuench,
    _check_snapshot_bytes,
    _step_count,
    center_of_mass,
    hr_diagnostic,
    mu_from_rate,
    propagate,
)

SCENARIOS = (
    "stationary",
    "spectrum",
    "dynamics",
    "number-shift",
    "homogeneous-check",
    "fock-oracle",
)

GRID_SCENARIOS = {"stationary", "spectrum", "dynamics", "number-shift"}
BASIS_SCENARIOS = {"spectrum", "dynamics", "number-shift"}

_GRID_PHYSICS = ("u_tilde", "u", "n_particles", "potential")
_UNIFORM_PHYSICS = ("u", "n_particles", "volume")
# The [physics] and [numerics] keys each scenario reads; a config that
# writes any other is refused.
READ_KEYS = {
    "stationary": {"physics": _GRID_PHYSICS, "numerics": ("tol",)},
    "spectrum": {"physics": _GRID_PHYSICS, "numerics": ("tol", "k_modes")},
    "dynamics": {
        "physics": _GRID_PHYSICS,
        "numerics": ("tol", "k_modes", "dt", "t_final", "evolution"),
    },
    "number-shift": {
        "physics": ("u", "n_particles", "potential"),
        "numerics": ("tol", "k_modes"),
    },
    "homogeneous-check": {"physics": _UNIFORM_PHYSICS, "numerics": ()},
    "fock-oracle": {"physics": (*_UNIFORM_PHYSICS, "k_mode"), "numerics": ("n_max_excited",)},
}

OUTPUT_DIR_ENV = "BOGOLIB_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def _parse_bounded(kind, lo=None, hi=None, lo_open=False):
    def parse(raw):
        value = kind(raw)
        # Only a float can be non-finite (np.isfinite refuses an int past 2**64).
        if kind is float and not np.isfinite(value):
            raise ValueError("must be finite")
        if lo is not None and (value <= lo if lo_open else value < lo):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"must be <= {hi}")
        return value

    return parse


def _parse_choice(choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return raw

    return parse


def _parse_nonzero_float(raw):
    value = float(raw)
    if value == 0 or not np.isfinite(value):
        raise ValueError("must be nonzero and finite")
    return value


def _parse_formats(raw):
    entries = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = entries - {"json", "csv"}
    if unknown:
        raise ValueError(f"unknown formats {sorted(unknown)}; allowed: json, csv")
    if "json" not in entries:
        raise ValueError("the json summary format is mandatory")
    return ",".join(sorted(entries))


REQUIRED = object()

# section -> key -> (parser, default); REQUIRED marks mandatory keys and
# None marks optional keys with no default.  Every [grid] key is required
# by the grid scenarios, and load_config checks that for them alone.
SCHEMA = {
    "scenario": {"name": (_parse_choice(SCENARIOS), REQUIRED)},
    "grid": {
        "n_points": (_parse_bounded(int, 8, 8192), None),
        "length": (_parse_bounded(float, 0, lo_open=True), None),
        "boundary": (_parse_choice(("periodic", "box")), None),
    },
    "physics": {
        "u_tilde": (_parse_bounded(float, 0), None),
        "u": (_parse_bounded(float, 0), None),
        "n_particles": (_parse_bounded(float, 0, lo_open=True), None),
        "potential": (str, "none"),
        "k_mode": (_parse_nonzero_float, None),
        "volume": (_parse_bounded(float, 0, lo_open=True), None),
    },
    "numerics": {
        # Resolved below from the grid (gpe.default_tol) when not given.
        "tol": (_parse_bounded(float, 0, lo_open=True), None),
        "dt": (_parse_bounded(float, 0, lo_open=True), 1e-3),
        "t_final": (_parse_bounded(float, 0, lo_open=True), 10.0),
        "k_modes": (_parse_bounded(int, 1), None),
        "n_max_excited": (_parse_bounded(int, 1), None),
        "evolution": (_parse_choice(("gpe", "linear")), "gpe"),
    },
    "output": {
        "directory": (str, "out"),
        "stride": (_parse_bounded(int, 1), 10),
        "formats": (_parse_formats, "csv,json"),
    },
}


_FREQUENCY = _parse_bounded(float, 0, lo_open=True)

# Potential name -> parameter -> parser, in the order the spec lists them.
POTENTIALS = {
    "harmonic": {"omega": _FREQUENCY},
    "quench": {"from": _FREQUENCY, "to": _FREQUENCY, "t_switch": _parse_bounded(float, 0)},
}


def _parse_potential_spec(spec: str) -> tuple:
    """'none' | 'harmonic(omega)' | 'quench(from,to,t_switch)' -> (name, *parameters)."""
    spec = spec.strip()
    if spec == "none":
        return ("none",)
    name, _, inner = spec.partition("(")
    if name not in POTENTIALS or not inner.endswith(")"):
        raise ConfigurationError("expected none, harmonic(omega) or quench(from,to,t_switch)")
    params = POTENTIALS[name]
    parts = inner[:-1].split(",")
    if len(parts) != len(params):
        raise ConfigurationError(f"{name} needs ({', '.join(params)})")
    values = []
    for (param, parse), raw in zip(params.items(), parts):
        try:
            values.append(parse(raw))
        except ValueError as exc:
            raise ConfigurationError(f"{param} = {raw!r}: {exc}") from None
    return (name, *values)


def _potentials(spec: str, grid):
    """(stationary potential, potential_of_t or None) of a potential spec on the grid.

    A quench's stationary potential is its initial trap.  Every error,
    also a finite frequency that overflows the potential on the grid,
    names the spec as written.
    """
    try:
        name, *values = _parse_potential_spec(spec)
        if name == "none":
            return zero_potential(grid), None
        potential_of_t = TrapQuench(grid, *values) if name == "quench" else None
        return harmonic_potential(grid, values[0]), potential_of_t
    except ConfigurationError as exc:
        raise ConfigurationError(f"potential {spec!r}: {exc}") from None


def load_config(path: str) -> dict:
    """Parse and validate a config file into a fully resolved dict."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{section}]; allowed: "
                    f"{', '.join(SCHEMA[section])}"
                )

    config: dict = {}
    for section, keys in SCHEMA.items():
        config[section] = {}
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    config[section][key] = parse(raw)
                except ValueError as exc:
                    raise ConfigurationError(f"[{section}] {key} = {raw!r}: {exc}") from None
            elif default is REQUIRED:
                raise ConfigurationError(f"missing required key [{section}] {key}")
            elif default is not None:
                config[section][key] = default

    scenario = config["scenario"]["name"]
    phys, num = config["physics"], config["numerics"]
    # What the file holds, not the resolved dict: potential, dt and others
    # have defaults, and tol is resolved from the grid below.
    for section, read in READ_KEYS[scenario].items():
        unread = [
            key for key in SCHEMA[section] if parser.has_option(section, key) and key not in read
        ]
        if unread:
            raise ConfigurationError(
                f"[{section}] {', '.join(unread)} not read by scenario {scenario}; it reads "
                f"{', '.join(read) or 'none'}"
            )
    if scenario in GRID_SCENARIOS:
        for key in SCHEMA["grid"]:
            if key not in config["grid"]:
                raise ConfigurationError(f"missing required key [grid] {key}")
        grid = build_grid(**config["grid"])
        num.setdefault("tol", default_tol(grid))
        has_ut = "u_tilde" in phys
        has_un = "u" in phys and "n_particles" in phys
        if scenario == "number-shift" and not has_un:
            raise ConfigurationError("number-shift needs physical u and n_particles")
        # u without n_particles is unread, also next to u_tilde.
        if has_ut == has_un or ("u" in phys and not has_un):
            raise ConfigurationError(
                "specify exactly one of u_tilde or the pair (u, n_particles)"
            )
        # The run's own checks, made here so that a bad config fails before any solve.
        if _potentials(phys["potential"], grid)[1] is not None and scenario != "dynamics":
            raise ConfigurationError("quench potentials are only for dynamics runs")
        if scenario in BASIS_SCENARIOS:
            k_modes = _default_k_modes(config, grid)
            _check_mode_count(grid, k_modes)
        if scenario == "dynamics":
            n_steps = _step_count(num["t_final"], num["dt"])
            _check_snapshot_bytes(grid.n_points, k_modes, n_steps, config["output"]["stride"])
        return config

    if config["grid"]:
        raise ConfigurationError(f"[grid] section is not used by scenario {scenario}")
    for key in ("u", "n_particles", "volume"):
        if key not in phys:
            raise ConfigurationError(f"scenario {scenario} needs [physics] {key}")
    if abs(phys["n_particles"] - round(phys["n_particles"])) > 0:
        raise ConfigurationError(f"{scenario} n_particles must be an integer")
    if scenario == "fock-oracle":
        for section, key in (("physics", "k_mode"), ("numerics", "n_max_excited")):
            if key not in config[section]:
                raise ConfigurationError(f"fock-oracle needs [{section}] {key}")
        _check_fock_oracle(
            phys["n_particles"], phys["k_mode"], phys["u"], phys["volume"], num["n_max_excited"]
        )
    return config


def resolved_u_tilde(config: dict) -> tuple[float, float]:
    """(u_tilde, n_particles) from either parametrization."""
    phys = config["physics"]
    if "u_tilde" in phys:
        return phys["u_tilde"], phys.get("n_particles", 1.0)
    return phys["u"] * phys["n_particles"], phys["n_particles"]


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


class OutputWriter:
    """Writes tabular files into the run directory, honoring `formats`."""

    def __init__(self, directory: Path, formats: str):
        self.directory = directory
        self.formats = set(formats.split(","))
        self.files: list[str] = []
        self.solver: dict = {}  # what the solvers did, for run_meta.json

    def csv(self, name: str, header: list[str], rows) -> None:
        if "csv" not in self.formats:
            return
        path = self.directory / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
        self.files.append(name)


def _json_default(obj):
    """What ``json`` cannot write: numpy values as Python ones, anything else as its repr."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return repr(obj)


def write_summary(directory: Path, config: dict, results: dict, files: list[str]) -> Path:
    summary = {"config": config, "results": results, "files": sorted(files)}
    path = directory / "summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True, default=_json_default) + "\n")
    return path


def write_meta(directory: Path, elapsed: float, solver: dict) -> None:
    meta = {
        "elapsed_seconds": elapsed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "bogolib_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "output_directory": str(directory.resolve()),
        "solver": solver,
    }
    text = json.dumps(meta, indent=2, default=_json_default)
    (directory / "run_meta.json").write_text(text + "\n")


def _parities(waves: np.ndarray, boundary: str) -> list[str]:
    """"odd" or "even" for each row of a (K, n_points) array, mirrored about the center."""
    mirrored = waves[:, ::-1] if boundary == "box" else np.roll(waves[:, ::-1], 1, axis=1)
    even = np.linalg.norm(waves - mirrored, axis=1)
    odd = np.linalg.norm(waves + mirrored, axis=1)
    return np.where(odd < even, "odd", "even").tolist()


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def _build_state(config: dict, out: OutputWriter):
    """(grid, stationary state, potential_of_t or None) of a grid scenario."""
    grid = build_grid(**config["grid"])
    potential, potential_of_t = _potentials(config["physics"]["potential"], grid)
    u_tilde, n_particles = resolved_u_tilde(config)
    state = solve_stationary(
        grid,
        potential,
        u_tilde,
        n_particles=n_particles,
        tol=config["numerics"]["tol"],
    )
    out.solver["stationary"] = dataclasses.asdict(state.trace)
    return grid, state, potential_of_t


def _default_k_modes(config: dict, grid) -> int:
    k = config["numerics"].get("k_modes")
    return k if k is not None else max(2, grid.n_points // 4)


def run_stationary(config: dict, out: OutputWriter) -> dict:
    grid, state, _ = _build_state(config, out)
    h1 = energy_functional_h1(state)
    results = {
        "mu": state.mu,
        "h1": h1,
        "residual": state.residual,
        "norm": norm(state.xi),
        "mu_minus_h1": state.mu - h1,
    }
    out.csv(
        "fields.csv",
        ["x", "potential", "xi_re", "xi_im", "density"],
        zip(
            grid.points.tolist(),
            state.potential.values.tolist(),
            state.xi.values.tolist(),
            state.xi.values.imag.tolist(),
            (np.abs(state.xi.values) ** 2).tolist(),
        ),
    )
    return results


def run_spectrum(config: dict, out: OutputWriter) -> dict:
    grid, state, _ = _build_state(config, out)
    K = _default_k_modes(config, grid)
    basis = build_phonon_basis(state, K)
    qh = assemble(state, basis)
    results = {"mu": state.mu, "e3": qh.e3, "stable": False, "n_modes": K}
    try:
        spectrum = diagonalize(qh, basis)
    except InstabilityError as exc:
        out.csv(
            "modes.csv",
            ["index", "re", "im"],
            [[i, float(e.real), float(e.imag)] for i, e in enumerate(exc.eigenvalues)],
        )
        exc.results = results
        raise

    parities = _parities(spectrum.p_waves, grid.boundary)
    results.update(
        stable=True, omega_g=spectrum.omega_g, lowest_energy=float(spectrum.energies[0])
    )
    odd = [float(e) for e, p in zip(spectrum.energies, parities) if p == "odd"]
    if odd:
        results["lowest_odd_parity_energy"] = odd[0]

    header = ["mode", "energy", "parity"]
    rows = [[m, float(e), parities[m]] for m, e in enumerate(spectrum.energies)]
    uniform = _parse_potential_spec(config["physics"]["potential"])[0] == "none"
    if uniform and grid.boundary == "periodic":
        # Uniform gas: energies come in +-k pairs ordered by |k|, so mode m
        # has |k| = (m//2 + 1) 2 pi / L.
        u_tilde, _ = resolved_u_tilde(config)
        base = 2.0 * np.pi / grid.length
        ks = [(m // 2 + 1) * base for m in range(K)]
        analytic = np.array([bogoliubov_dispersion(k, u_tilde, grid.length) for k in ks])
        header = ["mode", "k", "energy", "parity", "energy_analytic"]
        rows = [
            [m, k, float(e), parities[m], float(ref)]
            for m, (k, e, ref) in enumerate(zip(ks, spectrum.energies, analytic))
        ]
        results["max_rel_dev_vs_analytic"] = float(
            np.max(np.abs(spectrum.energies - analytic) / analytic)
        )
    out.csv("modes.csv", header, rows)
    return results


def run_dynamics(config: dict, out: OutputWriter) -> dict:
    grid, state, potential_of_t = _build_state(config, out)
    num = config["numerics"]
    basis = build_phonon_basis(state, _default_k_modes(config, grid))
    traj = propagate(
        state,
        t_final=num["t_final"],
        dt=num["dt"],
        potential_of_t=potential_of_t,
        stride=config["output"]["stride"],
        evolution=num["evolution"],
        basis=basis,
    )
    diagnostics = hr_diagnostic(traj)

    rows = []
    mu_rate_dev = 0.0
    for i, t in enumerate(traj.times):
        mu_rate = mu_from_rate(traj.xi_t[i], ComplexField(traj.xi_dot_t[i], grid))
        mu_rate_dev = max(mu_rate_dev, abs(mu_rate - traj.mu_t[i]))
        rows.append(
            [
                float(t),
                float(traj.norm_t[i]),
                float(traj.h1_t[i]),
                float(traj.mu_t[i]),
                mu_rate,
                center_of_mass(traj.xi_t[i]),
                diagnostics[i].mismatch,
                float(traj.gram_t[i]),
                float(traj.overlap_t[i]),
            ]
        )
    out.csv(
        "timeseries.csv",
        ["t", "norm", "h1", "mu", "mu_rate_form", "center", "mismatch", "gram_dev", "overlap"],
        rows,
    )
    first, last = traj.xi_t[0].values, traj.xi_t[-1].values
    out.csv(
        "fields.csv",
        ["x", "xi0_re", "xi0_im", "xi_final_re", "xi_final_im", "density_final"],
        zip(
            grid.points.tolist(),
            first.real.tolist(),
            first.imag.tolist(),
            last.real.tolist(),
            last.imag.tolist(),
            (np.abs(last) ** 2).tolist(),
        ),
    )
    return {
        "max_norm_drift": traj.max_norm_drift,
        "max_h1_drift": float(np.max(np.abs(traj.h1_t - traj.h1_t[0]))),
        "max_mismatch": float(max(d.mismatch for d in diagnostics)),
        "max_gram_deviation": traj.max_gram_deviation,
        "max_condensate_overlap": traj.max_overlap,
        "max_mu_form_deviation": float(mu_rate_dev),
        "evolution": num["evolution"],
    }


def run_number_shift(config: dict, out: OutputWriter) -> dict:
    grid, state, _ = _build_state(config, out)
    phys = config["physics"]
    num = config["numerics"]
    problem = StationaryProblem(
        grid=grid,
        potential=state.potential,
        u=phys["u"],
        tol=num["tol"],
    )
    K = _default_k_modes(config, grid)
    basis = build_phonon_basis(state, K)
    spectrum = diagonalize(assemble(state, basis), basis)
    report = build_report(problem, state, basis, spectrum)

    # Row by row through grid.norm, so the summary keeps its last digits.
    rel_corrections = [
        norm(ComplexField(d, grid)) / max(norm(ComplexField(p, grid)), 1e-300)
        for d, p in zip(report.f_waves - spectrum.p_waves, spectrum.p_waves)
    ]
    out.csv(
        "r_coefficients.csv",
        ["k", "re", "im", "abs"],
        [[k, float(rk.real), float(rk.imag), float(abs(rk))] for k, rk in enumerate(report.r)],
    )
    out.csv(
        "dxi_dn.csv",
        ["x", "re", "im"],
        zip(
            grid.points.tolist(),
            report.dxi_dN.values.tolist(),
            report.dxi_dN.values.imag.tolist(),
        ),
    )
    return {
        "r0_raw": report.r0_raw,
        "r0": report.r0,
        "r_norm_sq": float(np.sum(np.abs(report.r) ** 2)),
        "truncation_residual": report.truncation_residual,
        "condensate_amplitude": report.condensate_amplitude,
        "dmu_dn": report.dmu_dN,
        "max_f_correction_rel": float(max(rel_corrections)),
    }


def run_homogeneous_check(config: dict, out: OutputWriter) -> dict:
    phys = config["physics"]
    u, n_particles, volume = phys["u"], int(phys["n_particles"]), phys["volume"]
    u_tilde = u * n_particles
    base = 2.0 * np.pi / volume
    rows = []
    max_product_dev = 0.0
    max_energy_dev = 0.0
    for j in range(1, 33):
        k = j * base
        hc = hydro_coefficients(k, u, n_particles, volume)
        eps = bogoliubov_dispersion(k, u_tilde, volume)
        mode_e = sound_mode_energy(hc)
        max_product_dev = max(max_product_dev, abs(hc.phi_coeff * hc.rho_coeff - 0.5))
        max_energy_dev = max(max_energy_dev, abs(mode_e - k * hc.v_sound))
        rows.append([k, eps, k * hc.v_sound, mode_e, hc.phi_coeff, hc.rho_coeff])
    hc1 = hydro_coefficients(base, u, n_particles, volume)
    eps1 = bogoliubov_dispersion(base, u_tilde, volume)
    out.csv(
        "dispersion.csv",
        ["k", "epsilon", "k_v_sound", "mode_energy", "phi_coeff", "rho_coeff"],
        rows,
    )
    return {
        "v_sound": hc1.v_sound,
        "max_product_deviation": max_product_dev,
        "max_mode_energy_deviation": max_energy_dev,
        "small_k_energy_rel_error": abs(sound_mode_energy(hc1) - eps1) / eps1,
    }


def run_fock_oracle(config: dict, out: OutputWriter) -> dict:
    phys, num = config["physics"], config["numerics"]
    n_particles = int(round(phys["n_particles"]))
    args = (n_particles, phys["k_mode"], phys["u"], phys["volume"], num["n_max_excited"])
    offblock = number_conservation_offblock(*args)
    spec = exact_fock_spectrum(*args)
    row = compare_asymptotics(spec, phys["u"] * n_particles).rows[0]
    out.csv(
        "sectors.csv",
        ["momentum_sector", "lowest_energy"],
        sorted(spec.sector_minima.items()),
    )
    out.csv("gaps.csv", ["index", "excitation_energy"], list(enumerate(spec.gaps.tolist())))
    return {
        "dimension": spec.dimension,
        "ground_energy": spec.ground_energy,
        "ground_predicted": row.ground_predicted,
        "ground_error": row.ground_error,
        "first_gap": spec.first_gap,
        "gap_predicted": row.gap_predicted,
        "gap_error": row.gap_error,
        "number_conservation_offblock": offblock,
    }


RUNNERS = {
    "stationary": run_stationary,
    "spectrum": run_spectrum,
    "dynamics": run_dynamics,
    "number-shift": run_number_shift,
    "homogeneous-check": run_homogeneous_check,
    "fock-oracle": run_fock_oracle,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(config_path: str) -> int:
    started = time.time()
    config = load_config(config_path)
    directory = Path(os.environ.get(OUTPUT_DIR_ENV) or config["output"]["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    scenario = config["scenario"]["name"]
    out = OutputWriter(directory, config["output"]["formats"])
    try:
        results = RUNNERS[scenario](config, out)
    except InstabilityError as exc:
        # Spectrum is already on disk; finish the summary, then report the
        # instability through the exit code.
        if getattr(exc, "results", None) is not None:
            write_summary(directory, config, exc.results, out.files)
            write_meta(directory, time.time() - started, out.solver)
        raise
    write_summary(directory, config, results, out.files)
    write_meta(directory, time.time() - started, out.solver)
    print(f"{scenario}: wrote summary.json and {len(out.files)} data file(s) to {directory}")
    return 0


def validate(config_path: str) -> int:
    config = load_config(config_path)
    print(json.dumps(config, indent=2, sort_keys=True, default=_json_default))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bogolib",
        description="Condensate ground states, quasiparticle spectra, and "
        "time-dependent diagnostics for the 1D Bose gas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the scenario in a config file")
    p_run.add_argument("config", help="path to INI config")
    p_val = sub.add_parser("validate", help="check a config file without running")
    p_val.add_argument("config", help="path to INI config")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run(args.config)
        return validate(args.config)
    except BogolibError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
