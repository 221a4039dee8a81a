"""Per-layer tracing of ``qal`` from outside the package.

:class:`Tracer` replaces the public functions and methods of every
imported ``qal`` module with timing wrappers, including the bindings that
other modules made by ``from .x import name`` (so ``theta.iv_cos`` and
``division.udivmod`` are traced too), and restores them on
:meth:`Tracer.uninstall`.  ``src/qal`` itself is not edited.

Each wrapped call is a span: name, parent span, start and duration, kept
in memory in flat arrays and written out by :meth:`Tracer.write_spans`.
A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from fractions import Fraction

# Arithmetic on these classes counts as one operation of their layer.
_OP_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__")
_OP_CLASSES = {"RI", "CI", "RatFunc", "MultiPoly"}
_BRIDGE = {"iv_exp", "iv_log", "iv_log_shift_e", "iv_sin", "iv_cos", "iv_pow"}


def _qal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("qal.") and m is not None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []      # callable index -> "layer.qualname"
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self._active: list[int] = []
        self.endpoint_bits_max = 0
        self.escalations = 0
        self.tail_tight_wins = 0
        self._stack: list[list] = []    # [span id, time covered by children]
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self, default_bits: int):
        self._default_bits = default_bits
        wrapped: dict[int, tuple] = {}    # id(original) -> (original, wrapper)
        modules = _qal_modules()
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(obj, f"{layer}.{name}", layer)
                    wrapped[id(obj)] = (obj, w)
                    self._patch(mod, name, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # the names other modules imported from the defining module
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _wrap_class(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (cls.__name__ in _OP_CLASSES
                                             and name in _OP_DUNDERS):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(attr.__func__, label, layer)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, label, layer))

    def _patch(self, owner, name: str, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- the wrapper --------------------------------------------------------------

    def _hook_for(self, label: str, layer: str):
        if layer == "intervals":
            return self._endpoint_hook
        if label == "sequences.CarlemanSequence.interval_value":
            return self._escalation_hook
        if label == "theta.ThetaApproximation.tail_bound":
            return self._tail_hook
        return None

    def _wrap(self, fn, label: str, layer: str):
        idx = len(self.names)
        self.names.append(label)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._active.append(0)
        hook = self._hook_for(label, layer)
        perf = time.perf_counter
        stack = self._stack
        calls, self_s, incl_s, active = self.calls, self.self_s, self.incl_s, self._active
        ids, parents, names = self.span_id, self.span_parent, self.span_name
        starts, durs = self.span_start, self.span_dur

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            active[idx] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                active[idx] -= 1
                if not active[idx]:
                    incl_s[idx] += dur
                self_s[idx] += dur - frame[1]
                calls[idx] += 1
                ids.append(sid)
                parents.append(parent)
                names.append(idx)
                starts.append(start)
                durs.append(dur)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__qualname__ = getattr(fn, "__qualname__", label)
        traced.__doc__ = fn.__doc__
        return traced

    def _endpoint_hook(self, args, kwargs, result):
        parts = (result.re, result.im) if hasattr(result, "re") else (result,)
        for r in parts:
            lo, hi = getattr(r, "lo", None), getattr(r, "hi", None)
            if lo is None:
                return
            bits = max(lo.numerator.bit_length() + lo.denominator.bit_length(),
                       hi.numerator.bit_length() + hi.denominator.bit_length())
            if bits > self.endpoint_bits_max:
                self.endpoint_bits_max = bits

    def _escalation_hook(self, args, kwargs, result):
        bits = kwargs.get("bits", args[2] if len(args) > 2 else None)
        if bits is not None and bits > self._default_bits:
            self.escalations += 1

    def _tail_hook(self, args, kwargs, result):
        """The geometric bound won when the result is below the a-priori one."""
        approx, j = args[0], args[1]
        if result < 2 * approx.mbars[j].hi * Fraction(2) ** (j - approx.K):
            self.tail_tight_wins += 1

    # -- readout -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters so far, keyed for :func:`layer_metrics`."""
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "incl_s": list(self.incl_s),
                "endpoint_bits_max": self.endpoint_bits_max,
                "escalations": self.escalations,
                "tail_tight_wins": self.tail_tight_wins}

    def layer_metrics(self, before: dict, after: dict) -> dict:
        """The per-layer metrics of the work done between two snapshots."""
        calls = [a - b for a, b in zip(after["calls"], before["calls"])]
        self_s = [a - b for a, b in zip(after["self_s"], before["self_s"])]
        incl_s = [a - b for a, b in zip(after["incl_s"], before["incl_s"])]
        names, layers = self.names, self.layers

        def count(pred):
            return sum(c for c, n in zip(calls, names) if pred(n))

        def incl(label):
            return sum(t for t, n in zip(incl_s, names) if n == label)

        def layer_self(layer):
            return sum(t for t, l in zip(self_s, layers) if l == layer)

        def is_op(n, classes):
            parts = n.split(".")
            return len(parts) == 3 and parts[1] in classes and parts[2] in _OP_DUNDERS

        return {
            "intervals.ri_ops": count(lambda n: is_op(n, {"RI", "CI"})),
            "intervals.self_s": layer_self("intervals"),
            "intervals.bridge_calls": count(lambda n: n.split(".")[-1] in _BRIDGE
                                            and n.startswith("intervals.")),
            "intervals.bridge_s": sum(incl(f"intervals.{b}") for b in _BRIDGE),
            "intervals.endpoint_bits_max": after["endpoint_bits_max"],
            "rationals.calls": count(lambda n: n.startswith("rationals.")),
            "rationals.self_s": layer_self("rationals"),
            "sequences.interval_value_calls": count(
                lambda n: n == "sequences.CarlemanSequence.interval_value"),
            "sequences.escalations": after["escalations"] - before["escalations"],
            "sequences.self_s": layer_self("sequences"),
            "theta.build_calls": count(lambda n: n == "theta.build_theta"),
            "theta.tail_tight_wins": after["tail_tight_wins"] - before["tail_tight_wins"],
            "theta.self_s": layer_self("theta"),
            "hilbert.representer_calls": count(lambda n: n == "hilbert.representer"),
            "hilbert.inner_calls": count(lambda n: n == "hilbert.HilbertModel.inner"),
            "hilbert.ldl_calls": count(lambda n: n == "hilbert.ldl_decompose"),
            "hilbert.self_s": layer_self("hilbert"),
            "polynomials.ratfunc_ops": count(lambda n: is_op(n, {"RatFunc"})),
            "polynomials.udivmod_calls": count(lambda n: n == "polynomials.udivmod"),
            "polynomials.ugcd_calls": count(lambda n: n == "polynomials.ugcd"),
            "polynomials.multipoly_mul_calls": count(
                lambda n: n in ("polynomials.MultiPoly.__mul__",
                                "polynomials.MultiPoly.__rmul__")),
            "polynomials.self_s": layer_self("polynomials"),
            "division.hyperbolic_calls": count(lambda n: n == "division.hyperbolic_check_2d"),
            "division.euclid_s": incl("division.euclid_divide"),
            "division.self_s": layer_self("division"),
            "report.classify_s": incl("sequences.classify"),
            "report.nodiv_s": incl("division.nodiv_witness"),
            "report.lacunary_s": incl("hilbert.lacunary_select"),
        }

    def write_spans(self, path: str):
        """One tab-separated line per span: id, parent, name, start_s, dur_s."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tdur_s\n")
            names = self.names
            for sid, parent, n, start, dur in zip(self.span_id, self.span_parent,
                                                   self.span_name, self.span_start,
                                                   self.span_dur):
                out.write(f"{sid}\t{parent}\t{names[n]}\t{start:.9f}\t{dur:.9f}\n")
