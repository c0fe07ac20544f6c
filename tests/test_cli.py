import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from bogolib.bdg import QuadraticHamiltonian
from bogolib.cli import OUTPUT_DIR_ENV, main
from bogolib.errors import (
    ConfigurationError,
    ConvergenceError,
    InstabilityError,
    ResourceError,
)
from bogolib.gpe import default_tol
from bogolib.grid import build_grid

UNIFORM_SPECTRUM = """
[scenario]
name = spectrum

[grid]
n_points = 64
length = 6.283185307179586
boundary = periodic

[physics]
u_tilde = 2.0
potential = none

[numerics]
k_modes = 16

[output]
directory = {outdir}
"""

STATIONARY_LINEAR = """
[scenario]
name = stationary

[grid]
n_points = 256
length = 20.0
boundary = box

[physics]
u_tilde = 0.0
potential = harmonic(1.0)

[output]
directory = {outdir}
"""

FOCK = """
[scenario]
name = fock-oracle

[physics]
u = 0.05
n_particles = 20
volume = 1.0
k_mode = 1.0

[numerics]
n_max_excited = 20

[output]
directory = {outdir}
"""


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


def write_config(tmp_path, text, name="config.ini", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


def edit_config(tmp_path, config, *edits):
    """Path of a copy of the shipped config with each (old, new) replacement made."""
    text = (SHIPPED_CONFIGS[0].parent / config).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / config
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_file_echoes_normalized_config(self, tmp_path, capsys):
        path = write_config(tmp_path, UNIFORM_SPECTRUM, outdir=tmp_path / "out")
        assert main(["validate", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["scenario"]["name"] == "spectrum"
        assert echoed["numerics"]["tol"] == 1e-11  # default resolved

    def test_default_tol_follows_the_grid(self, tmp_path, capsys):
        # The default tracks the round-off floor: max(1e-11, 2 eps lambda_max).
        fine = UNIFORM_SPECTRUM.replace("n_points = 64", "n_points = 8192")
        assert main(["validate", write_config(tmp_path, fine, outdir=tmp_path / "out")]) == 0
        tol = json.loads(capsys.readouterr().out)["numerics"]["tol"]
        assert tol == default_tol(build_grid(8192, 6.283185307179586, "periodic")) > 1e-11
        explicit = fine.replace("k_modes = 16", "k_modes = 16\ntol = 1e-11")
        assert main(["validate", write_config(tmp_path, explicit, outdir=tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["numerics"]["tol"] == 1e-11
        # Scenarios without a grid solve nothing and carry no tol.
        assert main(["validate", write_config(tmp_path, FOCK, outdir=tmp_path / "out")]) == 0
        assert "tol" not in json.loads(capsys.readouterr().out)["numerics"]

    def test_defaults_filled_only_for_keys_the_scenario_reads(self, tmp_path, capsys):
        def echoed(path):
            assert main(["validate", str(path)]) == 0
            return json.loads(capsys.readouterr().out)

        stationary = echoed(SHIPPED_CONFIGS[0].parent / "stationary_harmonic.ini")
        assert set(stationary["numerics"]) == {"tol"}
        assert set(stationary["output"]) == {"directory", "formats"}
        fock = echoed(SHIPPED_CONFIGS[0].parent / "fock_oracle.ini")
        assert "potential" not in fock["physics"]
        dynamics = echoed(edit_config(
            tmp_path, "dynamics_quench.ini",
            ("dt = 2e-4\nt_final = 1.0\n", ""), ("stride = 500\n", ""),
        ))
        assert {k: dynamics["numerics"][k] for k in ("dt", "t_final", "evolution")} == {
            "dt": 1e-3, "t_final": 10.0, "evolution": "gpe"
        }
        assert dynamics["output"]["stride"] == 10

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        bad = UNIFORM_SPECTRUM.replace("length = 6.283185307179586\n", "")
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        assert main(["validate", path]) == 2
        assert "length" in capsys.readouterr().err

    def test_out_of_range_value_names_field(self, tmp_path, capsys):
        bad = UNIFORM_SPECTRUM.replace("k_modes = 16", "k_modes = 16\ndt = -1.0")
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        assert main(["validate", path]) == 2
        assert "dt" in capsys.readouterr().err

    def test_unknown_scenario_lists_choices(self, tmp_path, capsys):
        bad = UNIFORM_SPECTRUM.replace("name = spectrum", "name = telepathy")
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "stationary" in err and "fock-oracle" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = UNIFORM_SPECTRUM.replace("u_tilde = 2.0", "u_tilde = 2.0\ncoupling = 3")
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        assert main(["validate", path]) == 2
        assert "coupling" in capsys.readouterr().err

    def test_removed_delta_n_key_rejected(self, tmp_path, capsys):
        # The number-shift derivative is exact; its old finite-difference
        # step is no longer a config key.
        bad = UNIFORM_SPECTRUM.replace("k_modes = 16", "k_modes = 16\ndelta_n = 0.5")
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        assert main(["validate", path]) == 2
        assert "delta_n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            "harmonic(nan)",
            "harmonic(inf)",
            "quench(1.0,1.2,nan)",
            "quench(nan,1.2,0.0)",
            "quench(1.0,inf,0.0)",
            "quench(1.0,1.2,inf)",
            "harmonic(1e200)",
            "quench(1.0,1e200,0.0)",
        ],
    )
    def test_non_finite_potential_names_spec(self, tmp_path, capsys, spec):
        # A dynamics run takes both harmonic and quench potentials.
        dynamics = STATIONARY_LINEAR.replace("name = stationary", "name = dynamics")
        assert main(["validate", write_config(tmp_path, dynamics, outdir=tmp_path / "out")]) == 0
        capsys.readouterr()
        bad = dynamics.replace("harmonic(1.0)", spec)
        assert main(["validate", write_config(tmp_path, bad, outdir=tmp_path / "out")]) == 2
        assert spec in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, old, new, match",
        [
            ("spectrum_uniform.ini", "k_modes = 16", "k_modes = 63", "K must be"),
            ("dynamics_quench.ini", "t_final = 1.0", "t_final = 1.0001", "t_final"),
            ("dynamics_quench.ini", "dt = 2e-4", "dt = 0.3", "t_final"),
            ("homogeneous_check.ini", "n_particles = 1000", "n_particles = 1000.5", "integer"),
            ("fock_oracle.ini", "n_max_excited = 40", "n_max_excited = 41", "n_max_excited"),
        ],
    )
    def test_rejects_what_run_rejects(self, tmp_path, capsys, config, old, new, match):
        # Each config is one that run refuses; validate refuses it too, before any solve.
        assert main(["validate", edit_config(tmp_path, config, (old, new))]) == 2
        assert match in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(
            tmp_path, UNIFORM_SPECTRUM + "\n[plotting]\nstyle = dark\n", outdir=tmp_path
        )
        assert main(["validate", path]) == 2

    def test_u_parametrization_exclusive(self, tmp_path):
        bad = UNIFORM_SPECTRUM.replace(
            "u_tilde = 2.0", "u_tilde = 2.0\nu = 0.1\nn_particles = 20"
        )
        path = write_config(tmp_path, bad, outdir=tmp_path / "out")
        assert main(["validate", path]) == 2

    def test_missing_file(self):
        assert main(["validate", "/nonexistent/config.ini"]) == 2


MALFORMED_POTENTIALS = [
    "quench(1.0,1.2,nan)",
    "harmonic()",
    "harmonic(x)",
    "harmonic(1,2)",
    "harmonic(0)",
    "harmonic(-1)",
    "harmonic(1",
    "quench(1,1.2)",
    "quench(0,1.2,0)",
    "quench(1,1.2,-1)",
    "ramp(1)",
    # omega^2 underflows, so the trap would be a uniform gas.
    "harmonic(1e-300)",
    "quench(1.0,1e-300,0.0)",
]

# (config, line, replacement, what the message names)
REJECTED_VALUES = [
    ("dynamics_quench.ini", "n_points = 128", "n_points = 4", "[grid] n_points"),
    ("dynamics_quench.ini", "n_points = 128", "n_points = 8.5", "[grid] n_points"),
    ("dynamics_quench.ini", "n_points = 128", "n_points = 1e3", "[grid] n_points"),
    ("dynamics_quench.ini", "length = 16.0", "length = 0", "[grid] length"),
    ("dynamics_quench.ini", "dt = 2e-4", "dt = nan", "[numerics] dt"),
    # An integer past 2**64 reaches the mode-count check, not a crash.
    ("dynamics_quench.ini", "k_modes = 24", "k_modes = 100000000000000000000000000000", "K must be"),
    ("fock_oracle.ini", "n_max_excited = 40", "n_max_excited = 41", "n_max_excited"),
    # [physics] keys the scenario never reads.
    ("stationary_harmonic.ini", "u_tilde = 0.0", "u_tilde = 2.0\nu = 0.5", "exactly one of u_tilde"),
    ("homogeneous_check.ini", "volume = 100.0", "volume = 100.0\nu_tilde = 7.0", "[physics] u_tilde not read"),
    (
        "homogeneous_check.ini", "volume = 100.0", "volume = 100.0\npotential = harmonic(2.0)",
        "[physics] potential not read",
    ),
    (
        "stationary_harmonic.ini", "potential = harmonic(1.0)",
        "potential = harmonic(1.0)\nk_mode = 1.0\nvolume = 1.0",
        "[physics] k_mode, volume not read by scenario stationary",
    ),
    ("number_shift_trap.ini", "u = 0.1", "u = 0.1\nu_tilde = 10.0", "[physics] u_tilde not read"),
    # [numerics] keys the scenario never reads; tol counts only when the file writes it.
    (
        "spectrum_uniform.ini", "k_modes = 16", "k_modes = 16\ndt = 0.5\nn_max_excited = 3",
        "[numerics] dt, n_max_excited not read by scenario spectrum",
    ),
    (
        "fock_oracle.ini", "n_max_excited = 40", "n_max_excited = 40\nk_modes = 5\ntol = 1e-3",
        "[numerics] tol, k_modes not read by scenario fock-oracle",
    ),
    (
        "homogeneous_check.ini", "[output]", "[numerics]\ntol = 1e-3\n\n[output]",
        "[numerics] tol not read by scenario homogeneous-check; it reads none",
    ),
    (
        "stationary_harmonic.ini", "[output]", "[numerics]\nk_modes = 8\n\n[output]",
        "[numerics] k_modes not read by scenario stationary",
    ),
    (
        "number_shift_trap.ini", "k_modes = 32", "k_modes = 32\nevolution = linear",
        "[numerics] evolution not read by scenario number-shift",
    ),
    # Only dynamics writes snapshots, so only dynamics reads [output] stride.
    (
        "stationary_harmonic.ini", "directory = out/stationary_harmonic",
        "directory = out/stationary_harmonic\nstride = 7",
        "[output] stride not read by scenario stationary; it reads directory, formats",
    ),
    (
        "homogeneous_check.ini", "directory = out/homogeneous", "directory = out/homogeneous\nstride = 3",
        "[output] stride not read by scenario homogeneous-check",
    ),
]


class TestRejectedByValidateAndRun:
    """Each config exits 2 (5 for a size limit) from validate and from run, and run makes
    no output directory."""

    def check(self, tmp_path, monkeypatch, capsys, path, match, code=2):
        outdir = tmp_path / "out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        for command in ("validate", "run"):
            assert main([command, path]) == code, command
            assert match in capsys.readouterr().err, command
        assert not outdir.exists()

    @pytest.mark.parametrize("spec", MALFORMED_POTENTIALS)
    def test_malformed_potential_names_spec(self, tmp_path, monkeypatch, capsys, spec):
        edit = ("potential = quench(1.0,1.2,0.0)", f"potential = {spec}")
        path = edit_config(tmp_path, "dynamics_quench.ini", edit)
        self.check(tmp_path, monkeypatch, capsys, path, spec)

    @pytest.mark.parametrize("config, old, new, match", REJECTED_VALUES)
    def test_rejected_value_names_key(self, tmp_path, monkeypatch, capsys, config, old, new, match):
        self.check(tmp_path, monkeypatch, capsys, edit_config(tmp_path, config, (old, new)), match)

    def test_oversized_fock_union_exits_5(self, tmp_path, monkeypatch, capsys):
        # The spectrum's basis at cap 500 fits; the N and N-1 union of the
        # number-conservation check (2 * 501 * 502 / 2 states) does not.
        old = "n_particles = 40\nvolume = 1.0\nk_mode = 1.0\n\n[numerics]\nn_max_excited = 40"
        new = old.replace("= 40", "= 1000", 1).replace("= 40", "= 500")
        path = edit_config(tmp_path, "fock_oracle.ini", (old, new))
        self.check(tmp_path, monkeypatch, capsys, path, "Fock basis has 251502 states", code=5)

    @pytest.mark.parametrize("n_points, gigabytes", [(1024, "4.3"), (2048, "17.0")])
    def test_default_dynamics_snapshots_exit_5(
        self, tmp_path, monkeypatch, capsys, n_points, gigabytes
    ):
        # Only the grid given: dt = 1e-3, t_final = 10, stride = 10 and K = n/4
        # keep 1001 snapshots of the modes.
        path = edit_config(
            tmp_path, "dynamics_quench.ini",
            ("n_points = 128", f"n_points = {n_points}"),
            ("[numerics]\ndt = 2e-4\nt_final = 1.0\nk_modes = 24\n\n", ""),
            ("stride = 500\n", ""),
        )
        self.check(tmp_path, monkeypatch, capsys, path, f"store {gigabytes} GB", code=5)


class TestRun:
    def test_stationary_linear_trap(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, STATIONARY_LINEAR, outdir=outdir)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["results"]["mu"] == pytest.approx(0.5, abs=1e-8)
        assert (outdir / "fields.csv").exists()
        assert (outdir / "run_meta.json").exists()

    def test_spectrum_uniform_matches_analytic(self, tmp_path):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, UNIFORM_SPECTRUM, outdir=outdir)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["results"]["max_rel_dev_vs_analytic"] < 1e-8
        lines = (outdir / "modes.csv").read_text().splitlines()
        assert lines[0] == "mode,k,energy,parity,energy_analytic"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)  # smallest wavenumber, L = 2 pi

    def test_spectrum_uniform_odd_mode_count(self, tmp_path):
        # An odd K keeps one member of the last +-k pair; mode K-1 still has |k| = (K+1)/2.
        outdir = tmp_path / "out"
        cfg = UNIFORM_SPECTRUM.replace("k_modes = 16", "k_modes = 15")
        assert main(["run", write_config(tmp_path, cfg, outdir=outdir)]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["results"]["max_rel_dev_vs_analytic"] < 1e-8
        last = (outdir / "modes.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "14" and float(last[1]) == pytest.approx(8.0)

    def test_deterministic_summaries(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        path_a = write_config(tmp_path, FOCK, name="a.ini", outdir=out_a)
        path_b = write_config(tmp_path, FOCK.replace("{outdir}", str(out_b)), name="b.ini", outdir=out_b)
        assert main(["run", path_a]) == 0
        assert main(["run", path_b]) == 0
        a = (out_a / "summary.json").read_bytes()
        b = (out_b / "summary.json").read_bytes()
        # Identical physics: only the output directory differs in the config.
        assert json.loads(a)["results"] == json.loads(b)["results"]
        path_a2 = write_config(tmp_path, FOCK, name="a2.ini", outdir=out_a)
        assert main(["run", path_a2]) == 0
        assert (out_a / "summary.json").read_bytes() == a

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(override))
        path = write_config(tmp_path, FOCK, outdir=tmp_path / "ignored")
        assert main(["run", path]) == 0
        assert (override / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()
        meta = json.loads((override / "run_meta.json").read_text())
        assert meta["output_directory"] == str(override.resolve())

    def test_run_meta_records_output_directory_and_scipy(self, tmp_path):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, FOCK, outdir=outdir)
        assert main(["run", path]) == 0
        meta = json.loads((outdir / "run_meta.json").read_text())
        assert meta["output_directory"] == str(outdir.resolve())
        assert meta["scipy"] == scipy.__version__
        summary = json.loads((outdir / "summary.json").read_text())
        assert "output_directory" not in json.dumps(summary)

    def test_run_meta_records_solver_trace_summary_does_not(self, tmp_path, monkeypatch):
        config = next(p for p in SHIPPED_CONFIGS if p.stem == "stationary_harmonic")
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert main(["run", str(config)]) == 0
        trace = json.loads((tmp_path / "run_meta.json").read_text())["solver"]["stationary"]
        # u_tilde = 0: the exp(-V) start is the exact Gaussian ground state.
        assert trace["sign_changes"] == 0
        assert trace["descent_steps"] == 0 and trace["cg_iterations"] == []
        assert trace["stop_reason"] == "tol reached in descent"
        assert trace["residuals"][0] <= default_tol(build_grid(256, 20.0, "box"))
        summary = (tmp_path / "summary.json").read_text()
        assert '"trace"' not in summary and "descent_steps" not in summary

    def test_run_meta_records_spectrum_stop_reason(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["run", write_config(tmp_path, UNIFORM_SPECTRUM, outdir=outdir)]) == 0
        solver = json.loads((outdir / "run_meta.json").read_text())["solver"]
        assert solver["stationary"]["stop_reason"] == "tol reached in descent"

    def test_fock_oracle_beyond_sixty_particles(self, tmp_path):
        cfg = FOCK.replace("n_particles = 20", "n_particles = 100").replace(
            "n_max_excited = 20", "n_max_excited = 100"
        ).replace("u = 0.05", "u = 0.01")
        outdir = tmp_path / "out"
        path = write_config(tmp_path, cfg, outdir=outdir)
        assert main(["run", path]) == 0
        results = json.loads((outdir / "summary.json").read_text())["results"]
        assert results["dimension"] == 5151
        assert results["number_conservation_offblock"] == 0.0

    def test_json_only_format_skips_csv(self, tmp_path):
        cfg = FOCK.replace("directory = {outdir}", "directory = {outdir}\nformats = json")
        outdir = tmp_path / "out"
        path = write_config(tmp_path, cfg, outdir=outdir)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["files"] == []
        assert not (outdir / "sectors.csv").exists()

    def test_summary_contains_resolved_config(self, tmp_path):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, FOCK, outdir=outdir)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["physics"]["n_particles"] == 20
        assert summary["config"]["numerics"]["n_max_excited"] == 20
        assert "timestamp" not in json.dumps(summary)

    def test_number_shift_scenario(self, tmp_path):
        cfg = """
[scenario]
name = number-shift

[grid]
n_points = 128
length = 16.0
boundary = box

[physics]
u = 0.1
n_particles = 100
potential = harmonic(1.0)

[numerics]
k_modes = 32

[output]
directory = {outdir}
"""
        outdir = tmp_path / "out"
        path = write_config(tmp_path, cfg, outdir=outdir)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert abs(summary["results"]["r0"]) < 1e-8
        assert summary["results"]["r_norm_sq"] > 1e-3
        assert summary["results"]["dmu_dn"] > 0.0
        assert "delta_n" not in summary["results"]
        # What the dxi/dN solve did goes to run_meta.json alone.
        solver = json.loads((outdir / "run_meta.json").read_text())["solver"]
        assert 0 < solver["number_shift"]["cg_iterations"] <= 20
        assert "cg_iterations" not in json.dumps(summary)

    def test_homogeneous_check_scenario(self, tmp_path):
        cfg = """
[scenario]
name = homogeneous-check

[physics]
u = 0.002
n_particles = 1000
volume = 100.0

[output]
directory = {outdir}
"""
        outdir = tmp_path / "out"
        path = write_config(tmp_path, cfg, outdir=outdir)
        assert main(["run", path]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["results"]["max_product_deviation"] < 1e-15


class TestExitCodes:
    def test_error_taxonomy(self):
        assert ConfigurationError("x").exit_code == 2
        assert ConvergenceError("x").exit_code == 3
        assert InstabilityError("x").exit_code == 4
        assert ResourceError("x").exit_code == 5

    def test_fock_state_limit_exit_code(self, tmp_path, monkeypatch):
        import bogolib.homogeneous as homogeneous

        monkeypatch.setattr(homogeneous, "MAX_FOCK_STATES", 100)
        path = write_config(tmp_path, FOCK, outdir=tmp_path / "out")
        assert main(["run", path]) == 5

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = STATIONARY_LINEAR.replace(
            "u_tilde = 0.0", "u_tilde = 10.0"
        ).replace("[output]", "[numerics]\ntol = 1e-16\n\n[output]")
        path = write_config(tmp_path, cfg, outdir=tmp_path / "out")
        assert main(["run", path]) == 3

    def test_instability_exit_code_still_writes_spectrum(self, tmp_path, monkeypatch):
        import bogolib.cli as cli_mod

        real_assemble = cli_mod.assemble

        def shifted(state, basis):
            # M - 3I: below the lowest excitation energy, so D is indefinite.
            qh = real_assemble(state, basis)
            m = qh.m_matrix - 3.0 * np.eye(qh.n_modes)
            return QuadraticHamiltonian(e3=qh.e3, m_matrix=m, g_matrix=qh.g_matrix)

        monkeypatch.setattr(cli_mod, "assemble", shifted)
        outdir = tmp_path / "out"
        path = write_config(tmp_path, UNIFORM_SPECTRUM, outdir=outdir)
        assert main(["run", path]) == 4
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["results"]["stable"] is False
        rows = (outdir / "modes.csv").read_text().splitlines()
        assert rows[0] == "index,re,im"
        assert len(rows) == 1 + 2 * summary["results"]["n_modes"] == 33
        assert (outdir / "run_meta.json").exists()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "bogolib.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # argparse --help exits 0 and prints the subcommands
    assert proc.returncode == 0
    assert "run" in proc.stdout and "validate" in proc.stdout


class TestShippedConfigs:
    def test_all_six_found(self):
        assert len(SHIPPED_CONFIGS) == 6

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_runs(self, config, tmp_path, monkeypatch):
        outdir = tmp_path / config.stem
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        assert main(["run", str(config)]) == 0
        assert (outdir / "summary.json").exists()

    def test_number_shift_writes_real_coefficients(self, tmp_path, monkeypatch):
        # r and dxi/dN are real; no imaginary entry may read -0.0.
        config = next(p for p in SHIPPED_CONFIGS if p.stem == "number_shift_trap")
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert main(["run", str(config)]) == 0
        for name in ("r_coefficients.csv", "dxi_dn.csv"):
            with open(tmp_path / name, newline="") as handle:
                assert {row["im"] for row in csv.DictReader(handle)} == {"0.0"}, name
