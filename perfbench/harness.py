"""Measurement loop, metrics and output of the benchmark (entry point: ``run.py``).

Imported only after ``benchenv.configure()`` has pinned the BLAS threads
and put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import benchenv
import tracing
import workloads
from bogolib.errors import BogolibError

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
NAMES = tuple(workloads.WORKLOADS)

END_TO_END = (
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class OpRecord:
    op: int
    chain: str
    traced: bool
    seconds: float
    cpu_seconds: float
    check_seconds: float
    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)


def attempt(workload, index: int, api, op_id: int) -> OpRecord:
    """One operation and its gate; a BogolibError counts as a failure."""
    started, cpu_started = time.perf_counter(), time.process_time()
    result = error = None
    with api.op(op_id, workload.chain):
        try:
            result = workload.run(index, api)
        except BogolibError as exc:
            error = exc
    finished, cpu_finished = time.perf_counter(), time.process_time()
    outcome = workloads.error_outcome(error) if error else workload.check(result)
    checked = time.perf_counter()
    return OpRecord(
        op=op_id,
        chain=workload.chain,
        traced=isinstance(api, tracing.Tracer),
        seconds=finished - started,
        cpu_seconds=cpu_finished - cpu_started,
        check_seconds=checked - finished,
        ok=outcome.ok,
        detail=outcome.detail,
        counts=outcome.counts,
    )


def run_window(workload, seconds: float, apis: list) -> tuple[list[OpRecord], float]:
    """Closed loop: start operations until ``seconds`` have passed."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(records) < len(apis) or time.perf_counter() < deadline:
        api = apis[len(records) % len(apis)]
        records.append(attempt(workload, len(records), api, len(records)))
    return records, time.perf_counter() - start


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from process start to a warmed-up workload, in fresh processes."""
    samples = []
    for k in range(SETUP_REPEATS):
        workdir = benchenv.OUT / f"setup-{os.getpid()}-{k}"
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up of {name} failed in a fresh process (exit {code})")
        samples.append(ready - started)
    return samples


def _ok_seconds(records: list[OpRecord]) -> list[float]:
    ok = [r.seconds for r in records if r.ok]
    return ok or [r.seconds for r in records]


def end_to_end(records: list[OpRecord], wall: float, setup: list[float]) -> dict:
    return {
        "op_s_p50": statistics.median(_ok_seconds(records)),
        "ops_per_s": sum(r.ok for r in records) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------


class TraceView:
    """Spans and operation records of one traced run."""

    def __init__(self, tracer, records: list[OpRecord], window_chain: str):
        self.spans = tracer.spans
        self.own = tracer.self_times()
        self.records = records
        self.window_chain = window_chain

    @staticmethod
    def _median(values: list, what: str) -> float:
        """Median of durations; counts take the lower middle and stay whole."""
        if not values:
            raise RuntimeError(f"the traced run recorded no {what}")
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)

    def span(self, layer: str, name: str, tag: str) -> float:
        values = [
            s["end"] - s["start"]
            for s in self.spans
            if s["layer"] == layer and s["name"] == name and s["tag"] == tag
        ]
        return self._median(values, f"{layer}.{name} span tagged {tag}")

    def count(self, chain: str, key: str) -> float:
        values = [r.counts[key] for r in self.records if r.chain == chain and key in r.counts]
        return self._median(values, f"{key} count on {chain}")

    def failures(self, chain: str) -> int:
        return sum(not r.ok for r in self.records if r.chain == chain)

    def children_named(self, parent_name: str, tag: str, child_name: str) -> float:
        parents = [
            i for i, s in enumerate(self.spans) if s["name"] == parent_name and s["tag"] == tag
        ]
        counts = [
            sum(1 for s in self.spans if s["parent"] == i and s["name"] == child_name)
            for i in parents
        ]
        return self._median(counts, f"{parent_name} span tagged {tag}")

    def self_per_op(self, layer: str, chain: str) -> float:
        ops = {r.op for r in self.records if r.chain == chain and r.traced}
        totals = [
            sum(
                own
                for s, own in zip(self.spans, self.own)
                if s["op"] == op and s["layer"] == layer
            )
            for op in sorted(ops)
        ]
        return self._median(totals, f"traced {chain} operation")

    def layer_self_table(self) -> dict:
        """Median per-operation self seconds of every layer, by chain."""
        table = {}
        layers = sorted({s["layer"] for s in self.spans})
        for chain in sorted({r.chain for r in self.records if r.traced}):
            table[chain] = {layer: self.self_per_op(layer, chain) for layer in layers}
        return table

    def overhead(self) -> float:
        window = [r for r in self.records if r.chain == self.window_chain]
        traced = [r.seconds for r in window if r.traced]
        plain = [r.seconds for r in window if not r.traced]
        return self._median(traced, "traced operation") - self._median(plain, "untraced operation")


def _span(layer, name, tag):
    return lambda view: view.span(layer, name, tag)


# name, unit, value.  Tags: n1024/n2048 are the trap-ground ladder rungs,
# dyn the quench-dynamics chain, stems the desk-scenarios configs.
PER_LAYER = (
    ("gpe.solve_s.n1024", "s", _span("gpe", "solve_stationary", "n1024")),
    ("gpe.solve_s.n2048", "s", _span("gpe", "solve_stationary", "n2048")),
    ("gpe.solve_s.dyn", "s", _span("gpe", "solve_stationary", "dyn")),
    ("gpe.imag_steps.n1024", "count", lambda v: v.count("n1024", "imag_steps")),
    ("gpe.failed.n2048", "count", lambda v: v.failures("n2048")),
    ("number_shift.build_report_s.n1024", "s", _span("number_shift", "build_report", "n1024")),
    (
        "number_shift.solve_calls",
        "count",
        lambda v: v.children_named("build_report", "n1024", "solve_stationary"),
    ),
    (
        "number_shift.matrix_elements_s.n1024",
        "s",
        _span("number_shift", "matrix_elements", "n1024"),
    ),
    ("bdg.build_phonon_basis_s.n1024", "s", _span("bdg", "build_phonon_basis", "n1024")),
    ("bdg.build_phonon_basis_s.n2048", "s", _span("bdg", "build_phonon_basis", "n2048")),
    ("bdg.build_phonon_basis_s.dyn", "s", _span("bdg", "build_phonon_basis", "dyn")),
    ("bdg.assemble_s.n1024", "s", _span("bdg", "assemble", "n1024")),
    ("bdg.diagonalize_s.n1024", "s", _span("bdg", "diagonalize", "n1024")),
    ("bdg.h3_expectation_s.n1024", "s", _span("bdg", "h3_expectation", "n1024")),
    ("tdgpe.propagate_s", "s", _span("tdgpe", "propagate", "dyn")),
    ("tdgpe.propagate_modes_s", "s", _span("tdgpe", "propagate_modes", "dyn")),
    ("tdgpe.hr_diagnostic_s", "s", _span("tdgpe", "hr_diagnostic", "dyn")),
    ("tdgpe.h3_of_t_s", "s", _span("tdgpe", "h3_of_t", "dyn")),
    (
        "homogeneous.exact_fock_spectrum_s.N40",
        "s",
        _span("homogeneous", "exact_fock_spectrum", "fock_oracle"),
    ),
    (
        "homogeneous.exact_fock_spectrum_s.N60",
        "s",
        _span("homogeneous", "exact_fock_spectrum", "fock_oracle_n60"),
    ),
    (
        "homogeneous.offblock_s.N40",
        "s",
        _span("homogeneous", "number_conservation_offblock", "fock_oracle"),
    ),
    (
        "homogeneous.offblock_s.N60",
        "s",
        _span("homogeneous", "number_conservation_offblock", "fock_oracle_n60"),
    ),
    ("homogeneous.fock_dimension.N60", "count", lambda v: v.count("desk", "fock_dimension.N60")),
    *(
        (f"cli.run_s.{stem}", "s", _span("cli", "main", stem))
        for stem in sorted((*workloads.DESK_CONFIGS, workloads.FOCK_N60))
    ),
    ("cli.self_s", "s", lambda v: v.self_per_op("cli", "desk")),
    ("cli.bytes_written", "B", lambda v: v.count("desk", "bytes_written")),
    ("trace.overhead_s", "s", lambda v: v.overhead()),
)


def run_probes(tracer, window, seed: int, workdir: Path, first_op: int) -> list[OpRecord]:
    """One traced operation of every chain the window did not run."""
    records = []
    for name in NAMES:
        if name == window.name:
            workload = window
        else:
            workload = workloads.make(name, seed, workdir / name)
            records.append(attempt(workload, 0, tracer, first_op + len(records)))
        if name == "trap-ground":
            records.append(attempt(workload.ladder_probe, 0, tracer, first_op + len(records)))
    return records


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    env = benchenv.environment(args.seed)
    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    workdir = benchenv.OUT / f"work-{os.getpid()}"
    record: dict = {"workload": args.workload, "trace": args.trace, "environment": env}
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        workload = workloads.make(args.workload, args.seed, workdir / args.workload)
        if args.trace:
            tracer = tracing.Tracer()
            records, wall = run_window(workload, args.seconds, [tracer, tracing.RAW])
            window = list(records)
            records += run_probes(tracer, workload, args.seed, workdir, len(records))
            view = TraceView(tracer, records, workload.chain)
            values = {name: fn(view) for name, _, fn in PER_LAYER}
            units = {name: unit for name, unit, _ in PER_LAYER}
            record["layer_self_s"] = view.layer_self_table()
            record["spans"] = tracer.spans
        else:
            records, wall = run_window(workload, args.seconds, [tracing.RAW])
            window = records
            values = end_to_end(records, wall, setup)
            units = dict(END_TO_END)
            record["setup_samples_s"] = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in records:
        status = "ok" if r.ok else f"FAILED {r.detail}"
        print(
            f"  op {r.op} {r.chain}{' traced' if r.traced else ''} {r.seconds:.4f} s"
            f" (cpu {r.cpu_seconds:.4f} s) {status}"
        )
    failed = sum(not r.ok for r in window)
    print(f"failed_frac {failed}/{len(window)} operations of {workload.chain}")
    for r in records:
        if r.chain == "n2048":
            print(f"ladder rung n2048: {'ok' if r.ok else 'FAILED ' + r.detail}")
    if args.trace:
        for chain, layers in record["layer_self_s"].items():
            shares = ", ".join(f"{layer} {sec:.4f}" for layer, sec in layers.items())
            print(f"self seconds per {chain} operation: {shares}")
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(f"operations timed: {len(window)}")
    print("environment " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(window),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(result, ops=[asdict(r) for r in records])
    path = benchenv.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=repr) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0
