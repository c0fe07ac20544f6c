"""Scenario checks of the command line, one test per scenario.

Each test runs one config through ``bogolib run`` and holds what it wrote
to the scenario's bounds.  Most call ``cli.main`` in process;
``TestConsoleScript`` checks the installed entry point, so it calls the
``bogolib`` executable in fresh processes.  Tests marked ``slow`` (large
grids, fresh processes, timing) are deselected by default; run them with
``python -m pytest -q -m slow``.
"""

import csv
import json
import os
import shutil
import subprocess
import time

import pytest

from bogolib.cli import OUTPUT_DIR_ENV, main
from test_cli import SHIPPED_CONFIGS, edit_config, write_config

QUENCH_BOUNDS = {
    "max_mismatch": 1e-7,
    "max_norm_drift": 1e-10,
    "max_gram_deviation": 1e-8,
    "max_condensate_overlap": 1e-8,
}

DYNAMICS_1024 = """
[scenario]
name = dynamics

[grid]
n_points = 1024
length = 16.0
boundary = box

[physics]
u_tilde = 2.0
potential = quench(1.0,1.2,0.0)

[numerics]
dt = 1e-4
t_final = 0.1
k_modes = 256

[output]
directory = {outdir}
stride = 100
"""

STATIONARY_8192 = """
[scenario]
name = stationary

[grid]
n_points = 8192
length = 16.0
boundary = {boundary}

[physics]
u_tilde = 2.0
potential = harmonic(1.0)

[output]
directory = {outdir}
"""

SPECTRUM = """
[scenario]
name = spectrum

[grid]
n_points = {n_points}
length = 16.0
boundary = box

[physics]
u_tilde = 2.0
potential = harmonic(1.0)

[output]
directory = {outdir}
"""

NUMBER_SHIFT_2048 = """
[scenario]
name = number-shift

[grid]
n_points = 2048
length = 16.0
boundary = box

[physics]
u = 0.1
n_particles = 100
potential = harmonic(1.0)

[output]
directory = {outdir}
"""

STATIONARY_STRONG = """
[scenario]
name = stationary

[grid]
n_points = 128
length = 8.0
boundary = box

[physics]
u_tilde = 2000.0
potential = harmonic(3.0)

[output]
directory = {outdir}
"""

FOCK_200 = """
[scenario]
name = fock-oracle

[physics]
u = 0.005
n_particles = 200
volume = 1.0
k_mode = 1.0

[numerics]
n_max_excited = 200

[output]
directory = {outdir}
"""


def run_config(tmp_path, monkeypatch, text=None, path=None, **fmt):
    """Write the config (or take the one at path), run it in process with exit 0,
    and return its output directory."""
    outdir = tmp_path / "out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
    if path is None:
        path = write_config(tmp_path, text, outdir=outdir, **fmt)
    assert main(["run", path]) == 0
    return outdir


def read_json(outdir, name="summary.json"):
    return json.loads((outdir / name).read_text())


def out_of_bounds(results, bounds):
    return {key: results[key] for key, bound in bounds.items() if not results[key] < bound}


@pytest.mark.parametrize(
    "edit",
    [
        # The shipped config (n = 128) runs the dense sine transform; n > 256
        # takes the FFT.  Slow: 0.7 s would take tier-1 near its time budget.
        pytest.param(("n_points = 128", "n_points = 320"), id="fft_box_320", marks=pytest.mark.slow),
        # The shipped config runs on a box; this runs the unitary FFT pair of the split step.
        pytest.param(("boundary = box", "boundary = periodic"), id="periodic"),
    ],
)
def test_quench_dynamics(tmp_path, monkeypatch, edit):
    path = edit_config(tmp_path, "dynamics_quench.ini", edit)
    results = read_json(run_config(tmp_path, monkeypatch, path=path))["results"]
    assert out_of_bounds(results, QUENCH_BOUNDS) == {}


@pytest.mark.slow
def test_quench_dynamics_256_modes_at_1024(tmp_path, monkeypatch):
    # The mode transport is flushed in compact-WY blocks (two GEMMs and one
    # solve per 32 steps), all in numpy's BLAS thread pool.
    results = read_json(run_config(tmp_path, monkeypatch, DYNAMICS_1024))["results"]
    assert out_of_bounds(results, QUENCH_BOUNDS) == {}


@pytest.mark.slow
@pytest.mark.parametrize("boundary", ["box", "periodic"])
def test_stationary_at_largest_grid(tmp_path, monkeypatch, boundary):
    # The Newton-CG runs on the grid's spectral coefficients (real DST-I on a
    # box, complex FFT when periodic), so each boundary's CG is held to the
    # iteration bound of TestNewtonPolish at the largest grid.
    outdir = run_config(tmp_path, monkeypatch, STATIONARY_8192, boundary=boundary)
    solver = read_json(outdir, "run_meta.json")["solver"]["stationary"]
    assert [k for k in solver["cg_iterations"] if not k <= 60] == []


@pytest.mark.slow
@pytest.mark.parametrize("n_points, n_modes", [(2048, 512), (4096, 1024)])
def test_spectrum_kohn_mode(tmp_path, monkeypatch, n_points, n_modes):
    # The default K; at n = 4096 the real K x K form (two Cholesky factors and
    # one SVD) runs at large K.  The Kohn (centre-of-mass) mode of a harmonic
    # trap sits at omega = 1.
    results = read_json(run_config(tmp_path, monkeypatch, SPECTRUM, n_points=n_points))["results"]
    assert results["stable"]
    assert results["n_modes"] == n_modes
    assert abs(results["lowest_odd_parity_energy"] - 1.0) <= 1e-8


@pytest.mark.slow
def test_number_shift_at_2048(tmp_path, monkeypatch):
    # xi lies in the span of the K lowest T + V modes to round-off here, so the
    # phonon basis comes from the K + 1 lowest modes; the run exits non-zero if
    # phase_fix_and_r finds dxi/dN outside the basis (TruncationError).
    outdir = run_config(tmp_path, monkeypatch, NUMBER_SHIFT_2048)
    results = read_json(outdir)["results"]
    assert abs(results["r0"]) <= 1e-8  # criterion 10
    assert results["truncation_residual"] <= 1e-6
    # At K = 512 the Galerkin start from the spectrum leaves CG almost nothing.
    solver = read_json(outdir, "run_meta.json")["solver"]["number_shift"]
    assert solver["cg_iterations"] <= 2
    # r and dxi/dN are real: every imaginary entry reads 0.0, never -0.0.
    for name in ("r_coefficients.csv", "dxi_dn.csv"):
        with open(outdir / name, newline="") as handle:
            assert {row["im"] for row in csv.DictReader(handle)} == {"0.0"}, name


def test_stationary_strong_coupling(tmp_path, monkeypatch):
    # u_tilde = 2000 in a stiff trap with n = 128: the start and the descent
    # must reach the nodeless ground state, or the run exits non-zero.
    run_config(tmp_path, monkeypatch, STATIONARY_STRONG)


def test_fock_oracle_200_particles(tmp_path, monkeypatch):
    run_config(tmp_path, monkeypatch, FOCK_200)


@pytest.fixture(scope="module")
def bogolib():
    executable = shutil.which("bogolib")
    if executable is None:
        pytest.fail(
            "the bogolib executable is not on PATH; install the package with "
            "`pip install -e . --no-build-isolation`"
        )
    return executable


@pytest.mark.slow
class TestConsoleScript:
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_validates_shipped_config(self, bogolib, config):
        proc = subprocess.run([bogolib, "validate", str(config)], stdout=subprocess.DEVNULL)
        assert proc.returncode == 0

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_two_runs_byte_identical(self, bogolib, config, tmp_path):
        # Criterion 12: every output but run_meta.json is the same in a fresh process.
        outdirs = [tmp_path / f"run{i}" for i in (1, 2)]
        for outdir in outdirs:
            env = dict(os.environ, **{OUTPUT_DIR_ENV: str(outdir)})
            subprocess.run([bogolib, "run", str(config)], env=env, check=True)
        first, second = outdirs
        for out in first.iterdir():
            if out.name != "run_meta.json":
                assert out.read_bytes() == (second / out.name).read_bytes(), out.name

    def test_default_thread_count(self, bogolib, tmp_path):
        # Best of 3 runs with the default thread count against best of 3 with
        # one thread; a hot path that switches between numpy's and scipy's
        # BLAS thread pools runs about 2x slower at the default count.
        config = next(p for p in SHIPPED_CONFIGS if p.stem == "dynamics_quench")

        def best_of_3(threads):
            env = dict(os.environ, **{OUTPUT_DIR_ENV: str(tmp_path / "bogolib-threads")})
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            times = []
            for _ in range(3):
                start = time.perf_counter()
                subprocess.run([bogolib, "run", str(config)], env=env, check=True,
                               stdout=subprocess.DEVNULL)
                times.append(time.perf_counter() - start)
            return min(times)

        default, single = best_of_3(None), best_of_3("1")
        assert default <= 1.5 * single, f"default threads {default:.2f} s, 1 thread {single:.2f} s"
