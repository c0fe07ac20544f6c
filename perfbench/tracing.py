"""How an operation reaches the library: straight (``RAW``) or through spans.

A ``Tracer`` records one span per call at each layer boundary: layer
(the bogolib module), function name, tag (the ladder rung, chain or
config stem), start, end, parent span and operation id.  Spans stay in
memory until the run ends.  Besides the calls the benchmark makes, a
traced operation temporarily replaces the bogolib functions that
``bogolib.cli`` and ``bogolib.number_shift`` import with recording
shims, so the calls those modules make into other layers get spans too.
The library source is never changed.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager, nullcontext

import bogolib.cli
import bogolib.number_shift
from bogolib.bdg import (
    assemble,
    build_phonon_basis,
    check_stability,
    diagonalize,
    h3_expectation,
)
from bogolib.gpe import solve_stationary
from bogolib.number_shift import build_report, matrix_elements
from bogolib.tdgpe import h3_of_t, hr_diagnostic, propagate, propagate_modes

API_FUNCTIONS = {
    "solve_stationary": solve_stationary,
    "build_phonon_basis": build_phonon_basis,
    "assemble": assemble,
    "diagonalize": diagonalize,
    "check_stability": check_stability,
    "h3_expectation": h3_expectation,
    "build_report": build_report,
    "matrix_elements": matrix_elements,
    "propagate": propagate,
    "propagate_modes": propagate_modes,
    "hr_diagnostic": hr_diagnostic,
    "h3_of_t": h3_of_t,
    "cli_main": bogolib.cli.main,
}

SHIMMED_MODULES = (bogolib.cli, bogolib.number_shift)


class Api:
    """Library calls with nothing recorded."""

    def __init__(self):
        for attr, fn in API_FUNCTIONS.items():
            setattr(self, attr, fn)

    def op(self, op_id: int, chain: str):
        return nullcontext()

    def tag(self, tag: str):
        return nullcontext()


RAW = Api()


class Tracer(Api):
    """Library calls recorded as spans."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._tag = None
        self._op = None
        for attr, fn in API_FUNCTIONS.items():
            setattr(self, attr, self.wrap(fn))

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = {
                "layer": layer,
                "name": fn.__name__,
                "tag": self._tag,
                "op": self._op,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter() - self.origin,
                "end": None,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.origin
                self._open.pop()

        return shim

    @contextmanager
    def op(self, op_id: int, chain: str):
        patched = []
        for module in SHIMMED_MODULES:
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("bogolib.")
                    and obj.__module__ != module.__name__
                ):
                    patched.append((module, name, obj))
                    setattr(module, name, self.wrap(obj))
        self._op, self._tag = op_id, chain
        try:
            yield
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)
            self._op = self._tag = None

    @contextmanager
    def tag(self, tag: str):
        previous, self._tag = self._tag, tag
        try:
            yield
        finally:
            self._tag = previous

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own
