"""Spans and counts around the public functions of the dtwone modules.

The tracer replaces module attributes with wrappers, so the program itself is
not edited.  A function is usually bound in more than one module (``from .cycles
import cycle_hypergraph`` binds it in ``dtwone.dtw1`` too); every binding of
the same function object in a loaded ``dtwone`` module gets the wrapper, and
``uninstall`` puts each original back.

Spans are kept in memory as ``[name, start, end, parent, instance]`` lists.
A span's self time is its duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.  Hot inner calls
are counted without a span, and their time stays in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# The modules on the recognize / verify-cert path, which name the layers.
LAYERS = ("cli", "formats", "dtw1", "digraph", "cycles", "games", "decomp")

# layer -> public functions recorded as spans
SPANNED = {
    "formats": ("parse_digraph", "read_document", "digraph_hash",
                "format_certificate", "parse_certificate"),
    "dtw1": ("recognize_dtw1", "s_decomposition", "width1_dtd_from_sdec",
             "extract_minor_witness", "shore_contraction_script",
             "verify_certificate", "verify_witness"),
    "digraph": ("tight_separations",),
    "cycles": ("cycle_hypergraph", "find_closed_chain"),
    "games": ("haven_from_closed_chain", "verify_haven"),
    "decomp": ("validate_dtd",),
}

# layer -> hot functions that are only counted
COUNTED = {
    "digraph": ("strong_components",),
}

# span name -> (counter suffix, size read off the function's result)
RESULT_COUNTS = {
    "digraph.tight_separations": ("returned", len),
    "dtw1.s_decomposition": ("separations", lambda r: len(r.edges)),
    "dtw1.extract_minor_witness": ("script_steps", lambda r: len(r.script)),
    "cycles.cycle_hypergraph": ("cycles", lambda r: len(r.cycles)),
    "cycles.find_closed_chain": ("chain_length", lambda r: 0 if r is None else len(r.cycles)),
    "games.haven_from_closed_chain": ("entries", lambda r: len(r.assignment)),
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans, call counts and exceptions while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> count
        self.instance = None
        self._open: list = []
        self._last_error = None
        self._installed: list = []  # (module, attribute, original)

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.counts[name + ".calls"] += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.instance])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        except BaseException as exc:
            self.charge(exc)
            raise
        finally:
            self.end(idx)

    def charge(self, exc: BaseException) -> None:
        """Count an exception once, against the innermost span open when it left."""
        if exc is self._last_error:
            return
        self._last_error = exc
        layer = layer_of(self.spans[self._open[-1]][0]) if self._open else "bench"
        self.errors[(layer, type(exc).__name__)] += 1

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        extract = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.charge(exc)
                raise
            finally:
                self.end(idx)
            if extract is not None:
                self.counts[f"{name}.{extract[0]}"] += extract[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded dtwone modules."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "dtwone" or key.startswith("dtwone."))]
        plan = [(layer, fname, self._spanned) for layer, names in SPANNED.items()
                for fname in names]
        plan += [(layer, fname, self._counted) for layer, names in COUNTED.items()
                 for fname in names]
        for layer, fname, make in plan:
            original = getattr(sys.modules[f"dtwone.{layer}"], fname)
            wrapper = make(f"{layer}.{fname}", original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @property
    def bindings(self) -> list:
        """The (module name, attribute) pairs the installed wrappers replaced."""
        return [(m.__name__, attr) for (m, attr, _) in self._installed]
