"""Span tracing of ``lsc`` from outside the package.

``Tracer.install`` wraps the package's public functions and methods at
every binding a caller uses: module attributes that hold the function
(``from .linalg import intersection`` makes ``layered.intersection`` a
binding of its own) and methods on their class.  Each wrapped call
records a span (name, parent, start, end) in compact in-memory arrays;
``Tracer.restore`` undoes every patch.  A span's self time is its
duration minus the time its child spans cover; it is accumulated per
name while the run goes, and the spans themselves are written out at
the end by ``write_spans``.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from functools import wraps


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Replace ``original`` in every ``lsc`` module that binds it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "lsc" and not name.startswith("lsc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {}
        self.root_s = 0.0
        # one entry per span, in start order
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self.patches = Patches()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        sid = self.name_id(name)
        clock = time.perf_counter
        stack, child_s = self._stack, self._child_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_s.pop()
                duration = end - start
                starts[idx] = start
                ends[idx] = end
                calls[sid] += 1
                total_s[sid] += duration
                self_s[sid] += duration - inner
                if child_s:
                    child_s[-1] += duration
                else:
                    tracer.root_s += duration

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so that each call bumps ``counters[name]``; no span."""
        counters = self.counters
        counters.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from lsc import channel, field, gabidulin, harness, layered, lifted, linalg

        p = self.patches

        def span_function(module, attr: str, name: str) -> None:
            original = getattr(module, attr)
            p.rebind(original, self.span(name, original))

        def span_method(cls, attr: str, name: str) -> None:
            p.set(cls, attr, self.span(name, getattr(cls, attr)))

        # field
        element = field.ExtFieldElement
        span_method(element, "__mul__", "field.mul")
        span_method(element, "frobenius", "field.frobenius")
        span_method(element, "inverse", "field.inverse")
        p.set(element, "__post_init__", self.counted("field.element.inits", element.__post_init__))

        # linalg: rref is split on its q argument
        rref = linalg.rref
        rref_gf2 = self.span("linalg.rref.gf2", rref)
        rref_odd = self.span("linalg.rref.odd", rref)

        @wraps(rref)
        def rref_by_q(rows, ncols, q):
            return (rref_gf2 if q == 2 else rref_odd)(rows, ncols, q)

        p.rebind(rref, rref_by_q)
        span_function(linalg, "row_space", "linalg.row_space")
        span_function(linalg, "intersection", "linalg.intersection")
        span_function(linalg, "subspace_sum", "linalg.subspace_sum")
        span_function(linalg, "subspace_distance", "linalg.subspace_distance")
        span_method(linalg.MatrixFq, "__post_init__", "linalg.validate")
        span_method(linalg.Subspace, "__post_init__", "linalg.validate")

        # gabidulin: decode_bounded also counts its successes
        code_cls = gabidulin.GabidulinCode
        decode = self.span("gabidulin.decode_bounded", code_cls.decode_bounded)
        failure = gabidulin.DecodeFailure
        counters = self.counters
        counters["gabidulin.decode_bounded.ok"] = 0

        @wraps(code_cls.decode_bounded)
        def decode_counting(*args, **kwargs):
            outcome = decode(*args, **kwargs)
            if not isinstance(outcome, failure):
                counters["gabidulin.decode_bounded.ok"] += 1
            return outcome

        p.set(code_cls, "decode_bounded", decode_counting)
        span_method(code_cls, "encode", "gabidulin.encode")
        span_method(code_cls, "brute_force_decode", "gabidulin.brute_force_decode")

        # lifted
        span_function(lifted, "subspace_decode", "lifted.subspace_decode")
        span_function(lifted, "reduce_received", "lifted.reduce_received")

        # layered: decode_alg2 is split on its iterative argument
        layered_cls = layered.LayeredCode
        span_method(layered_cls, "extract_component", "layered.extract_component")
        span_method(layered_cls, "decode_alg1", "layered.decode.alg1")
        alg2 = layered_cls.decode_alg2
        alg2_plain = self.span("layered.decode.alg2", alg2)
        alg2_iterative = self.span("layered.decode.alg2-iterative", alg2)

        @wraps(alg2)
        def alg2_by_mode(code, received, iterative=False, *args, **kwargs):
            chosen = alg2_iterative if iterative else alg2_plain
            return chosen(code, received, iterative, *args, **kwargs)

        p.set(layered_cls, "decode_alg2", alg2_by_mode)
        span_method(layered_cls, "encode", "layered.encode")
        span_method(layered_cls, "recompose", "layered.recompose")

        # channel
        span_function(channel, "apply_exact", "channel.apply_exact")
        span_function(channel, "apply_matrix", "channel.apply_matrix")

        # harness and the property suites
        span_function(harness, "run_trial", "harness.run_trial")
        span_function(harness, "render_csv", "harness.render_csv")
        span_function(harness, "summarize", "harness.summarize")
        suites = harness.SUITES
        p.rebind(suites, tuple(self.span(f"properties.{suite_name(s)}", s) for s in suites))

    def restore(self) -> None:
        self.patches.restore()

    # --- results ---

    def stat(self, name: str):
        """(calls, total seconds, self seconds) of one span name."""
        sid = self._ids.get(name)
        if sid is None:
            return 0, 0.0, 0.0
        return self.calls[sid], self.total_s[sid], self.self_s[sid]

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        sid, aid = self._ids.get(name), self._ids.get(ancestor)
        if sid is None or aid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        found = 0
        for idx in range(len(names)):
            if names[idx] != sid:
                continue
            up = parents[idx]
            while up != -1 and names[up] != aid:
                up = parents[up]
            found += up != -1
        return found

    def write_spans(self, path) -> None:
        """Gzipped TSV, one line per span in start order after a header.

        Columns: name, parent span index (-1 for a root), start and end in
        nanoseconds from the first span's start.
        """
        if not len(self.span_start):
            return
        origin = self.span_start[0]
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tparent\tstart_ns\tend_ns\n")
            for sid, parent, start, end in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                handle.write(
                    f"{names[sid]}\t{parent}\t{round((start - origin) * 1e9)}"
                    f"\t{round((end - origin) * 1e9)}\n"
                )


def suite_name(suite) -> str:
    name = suite.__name__
    return name[: -len("_suite")] if name.endswith("_suite") else name
