"""Per-layer tracing of qnetcode from outside its source.

``Tracer.install()`` replaces the public functions and methods listed in
``LAYERS`` with timing wrappers: at the defining module or class, and at
every name another qnetcode module bound to the same object with
``from ... import``. ``uninstall()`` puts every original back.

Each wrapped call records one span (layer, start, end, parent span,
invocation id) in flat arrays kept in memory; ``save()`` writes them out.
A span's self time is its duration minus the durations of its direct
child spans, so time in unwrapped helpers (``pauli``, ``measure_z``, ...)
lands in the nearest wrapped caller.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, dotted module, class name or None, attribute)
LAYERS = (
    ("stabsim.measure", "qnetcode.stabsim", "StabilizerState", "measure_pauli"),
    ("stabsim.gate", "qnetcode.stabsim", "StabilizerState", "h"),
    ("stabsim.gate", "qnetcode.stabsim", "StabilizerState", "cnot"),
    ("stabsim.gate", "qnetcode.stabsim", "StabilizerState", "apply_pauli"),
    ("stabsim.bell_measure", "qnetcode.stabsim", "StabilizerState", "bell_measure"),
    ("stabsim.expectation", "qnetcode.stabsim", "StabilizerState", "expectation"),
    ("ftec.round", "qnetcode.ftec", None, "knill_ec_round"),
    ("ftec.prepare", "qnetcode.ftec", None, "prepare_logical_zero"),
    ("ftec.prepare", "qnetcode.ftec", None, "prepare_logical_epr"),
    ("ftec.extract", "qnetcode.ftec", None, "extract"),
    ("ftec.correct", "qnetcode.ftec", None, "apply_output_corrections"),
    ("gf2.solve", "qnetcode.gf2", None, "solve"),
    ("gf2.row_reduce", "qnetcode.gf2", None, "row_reduce"),
    ("gf2.matvec", "qnetcode.gf2", None, "matvec"),
    ("codes.syndrome", "qnetcode.codes", None, "syndrome"),
    ("codes.build", "qnetcode.codes", None, "rep3"),
    ("codes.build", "qnetcode.codes", None, "shor9"),
    ("codes.build", "qnetcode.codes", None, "rotated_surface"),
    ("codes.build", "qnetcode.codes", None, "hypergraph_product"),
    ("noise.sample", "qnetcode.noise", None, "sample_error"),
    ("decoders.init", "qnetcode.decoders", "BpDecoder", "__init__"),
    ("decoders.init", "qnetcode.decoders", "MatchingDecoder", "__init__"),
    ("decoders.init", "qnetcode.decoders", "LookupDecoder", "__init__"),
    ("decoders.bp", "qnetcode.decoders", "BpDecoder", "decode"),
    ("decoders.mwpm", "qnetcode.decoders", "MatchingDecoder", "decode"),
    ("decoders.lookup", "qnetcode.decoders", "LookupDecoder", "decode"),
    ("decoders.logical_failure", "qnetcode.decoders", None, "logical_failure"),
    ("protocols.swap_chain", "qnetcode.protocols", None, "swap_chain"),
    ("netchain.run_chain", "qnetcode.netchain", None, "run_chain"),
    ("netchain.compose_swap", "qnetcode.netchain", None, "compose_swap"),
    ("rng.stream", "qnetcode.rng", None, "stream"),
    ("cli", "qnetcode.cli", None, "main"),
)
NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class Tracer:
    """Span recorder. Spans live in flat arrays; index -1 means no parent."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("q")
        self.invocation = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.bp_converged = 0
        self.bp_iterations = 0
        self.invocation_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn, on_result=None):
        t = self

        def traced(*args, **kwargs):
            idx = len(t.start)
            if len(t._stack) == 1:  # a top-level call starts a new invocation
                t.invocation_id += 1
            t.layer.append(layer_id)
            t.parent.append(t._stack[-1])
            t.invocation.append(t.invocation_id)
            t.raised.append(0)
            t.end.append(0.0)
            t._stack.append(idx)
            t.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t.raised[idx] = 1
                raise
            finally:
                t.end[idx] = perf_counter()
                t._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_bp(self, result):
        self.bp_converged += bool(result.converged)
        self.bp_iterations += result.iterations or 0

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("qnetcode") and m]
        for layer, module_name, cls_name, attr in LAYERS:
            owner = sys.modules[module_name]
            on_result = self._count_bp if layer == "decoders.bp" else None
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(NAMES.index(layer), vars(cls)[attr], on_result))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(NAMES.index(layer), original, on_result)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name: str, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "invocation": np.frombuffer(self.invocation, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def metrics(self, phase_wall_s: float, traced_cli_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics from the spans of one traced phase.

        ``phase_wall_s`` is the traced phase's whole wall time,
        ``traced_cli_s`` the part of it inside CLI calls, and
        ``overhead_frac`` the traced over the untraced time of the same calls,
        minus 1.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(NAMES)
        calls = np.bincount(a["layer"], minlength=k)
        self_s = np.bincount(a["layer"], weights=self_time, minlength=k)
        total_s = np.bincount(a["layer"], weights=dur, minlength=k)
        raised = np.bincount(a["layer"], weights=a["raised"], minlength=k)
        i = NAMES.index

        def per_call(layer: str, scale: float) -> float:
            n = calls[i(layer)]
            return float(total_s[i(layer)] / n * scale) if n else 0.0

        m: dict[str, float] = {}
        for layer in ("stabsim.measure", "stabsim.gate", "stabsim.bell_measure", "stabsim.expectation",
                      "ftec.round", "gf2.solve", "gf2.row_reduce", "gf2.matvec", "codes.syndrome",
                      "noise.sample", "decoders.bp", "decoders.mwpm", "decoders.lookup",
                      "protocols.swap_chain", "netchain.run_chain", "rng.stream"):
            m[f"{layer}.calls"] = int(calls[i(layer)])
            m[f"{layer}.self_s"] = float(self_s[i(layer)])
        m["stabsim.measure.us_per_call"] = per_call("stabsim.measure", 1e6)
        stabsim = [i(n) for n in NAMES if n.startswith("stabsim.")]
        m["stabsim.self_share"] = float(self_s[stabsim].sum() / traced_cli_s)
        for layer in ("ftec.prepare", "ftec.extract", "ftec.correct", "decoders.logical_failure", "cli"):
            m[f"{layer}.self_s"] = float(self_s[i(layer)])
        m["codes.build_s"] = float(total_s[i("codes.build")])
        m["decoders.init_s"] = float(total_s[i("decoders.init")])
        for layer in ("decoders.bp", "decoders.mwpm", "decoders.lookup"):
            m[f"{layer}.ms_per_shot"] = per_call(layer, 1e3)
        bp_calls = calls[i("decoders.bp")]
        m["decoders.bp.converged_frac"] = float(self.bp_converged / bp_calls) if bp_calls else 0.0
        m["decoders.bp.iters_mean"] = float(self.bp_iterations / bp_calls) if bp_calls else 0.0
        lookup_calls = calls[i("decoders.lookup")]
        m["decoders.lookup.undecodable_frac"] = (
            float(raised[i("decoders.lookup")] / lookup_calls) if lookup_calls else 0.0
        )
        m["netchain.compose_swap.calls"] = int(calls[i("netchain.compose_swap")])
        m["trace.untraced_s"] = float(phase_wall_s - self_time.sum())
        m["trace.overhead_frac"] = float(overhead_frac)
        return m
