"""Per-layer tracing installed from outside frsim.

:class:`Tracer` wraps the public functions of each frsim module, counts
calls and sums self time (span duration minus the spans it caused).  frsim
binds functions by name across modules (``from .measurement import
branch_all``), so installing replaces every binding of a wrapped function
that module namespaces hold, also inside module-level dicts, lists and
tuples, and methods are replaced on their class.  A binding that is still
reachable after installing makes :meth:`Tracer.install` raise.

Spans are aggregated as they close rather than kept one by one: the
sampling paths close hundreds of thousands of spans per second.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import types
from time import perf_counter

# (span name, module, attribute).  An attribute "Class.method" is wrapped
# on the class.  The six basis constructors share one span.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("tensor.apply_unitary", "frsim.tensor", "apply_unitary"),
    ("tensor.reorder", "frsim.tensor", "reorder"),
    ("tensor.product_state", "frsim.tensor", "product_state"),
    ("tensor.equal_up_to_global_phase", "frsim.tensor", "equal_up_to_global_phase"),
    ("measurement.branch_all", "frsim.measurement", "branch_all"),
    ("measurement.sample", "frsim.measurement", "sample"),
    ("measurement.premeasure", "frsim.measurement", "premeasure"),
    ("measurement.record_copy", "frsim.measurement", "record_copy"),
    ("measurement.condition_on", "frsim.measurement", "condition_on"),
    ("measurement.outcome_probability", "frsim.measurement", "outcome_probability"),
    ("measurement.validate_basis", "frsim.measurement", "validate_basis"),
    ("measurement.pick_index", "frsim.measurement", "pick_index"),
    ("systems.basis_build", "frsim.systems", "coin_basis"),
    ("systems.basis_build", "frsim.systems", "spin_basis"),
    ("systems.basis_build", "frsim.systems", "coin_lab_basis"),
    ("systems.basis_build", "frsim.systems", "spin_lab_basis"),
    ("systems.basis_build", "frsim.systems", "record_basis"),
    ("systems.basis_build", "frsim.systems", "level_basis"),
    ("protocol.round_rng", "frsim.protocol", "round_rng"),
    ("protocol.compiled_round", "frsim.protocol", "compiled_round"),
    ("protocol.RoundSampler.__init__", "frsim.protocol", "RoundSampler.__init__"),
    ("protocol.RoundSampler.draw", "frsim.protocol", "RoundSampler.draw"),
    ("protocol.run_round", "frsim.protocol", "run_round"),
    ("protocol.run_until_halt", "frsim.protocol", "run_until_halt"),
    ("protocol.state_after_preparation", "frsim.protocol", "state_after_preparation"),
    ("analysis.enumerate_exact", "frsim.analysis", "enumerate_exact"),
    ("analysis.monte_carlo", "frsim.analysis", "monte_carlo"),
    ("analysis.detect_records", "frsim.analysis", "detect_records"),
    ("analysis.binomial_upper_bound", "frsim.analysis", "binomial_upper_bound"),
    ("analysis.z_scores", "frsim.analysis", "z_scores"),
    ("perspectives.agent_model_at", "frsim.perspectives", "agent_model_at"),
    ("perspectives.standard_predictions", "frsim.perspectives", "standard_predictions"),
    ("reference.load_reference_states", "frsim.reference", "load_reference_states"),
    ("cli.main", "frsim.cli", "main"),
    ("cli.ReportDocument.to_json", "frsim.cli", "ReportDocument.to_json"),
)

SPANS: tuple[str, ...] = tuple(dict.fromkeys(span for span, _, _ in TARGETS))

# Module-level containers are searched this deep for bindings.
_SEARCH_DEPTH = 3


def _basis_key(basis) -> str:
    """Content digest of a measurement basis, equal for equal rebuilt bases."""
    digest = hashlib.sha1(repr((basis.target_names, basis.labels(), basis.residual)).encode())
    for outcome in basis.outcomes:
        digest.update(outcome.vectors.tobytes())
    return digest.hexdigest()


class Tracer:
    """Call counts and self times per span, plus the counters behind the ratios."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.basis_keys: set[str] = set()
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, object, object]] = []
        self._cache_start = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, span: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        validate = span == "measurement.validate_basis"
        keys = self.basis_keys

        def traced(*args, **kwargs):
            if validate:
                keys.add(_basis_key(args[0] if args else kwargs["basis"]))
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[span] += 1
                self_s[span] += elapsed - frame[0]

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    @staticmethod
    def _frsim_modules() -> list[types.ModuleType]:
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "frsim" or name.startswith("frsim."))
        ]

    def _swap(self, container, key, value, replacement: dict[int, object], depth: int) -> None:
        """Replace wrapped originals reachable from ``container[key]``."""
        if id(value) in replacement:
            self._undo.append((container, key, value))
            container[key] = replacement[id(value)]
        elif depth <= 0:
            return
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                self._swap(value, k, v, replacement, depth - 1)
        elif isinstance(value, list):
            for i, v in enumerate(list(value)):
                self._swap(value, i, v, replacement, depth - 1)
        elif isinstance(value, tuple):
            items = list(value)
            for i, v in enumerate(value):
                self._swap(items, i, v, replacement, depth - 1)
            rebuilt = tuple(items)
            if any(a is not b for a, b in zip(rebuilt, value)):
                self._undo.append((container, key, value))
                container[key] = rebuilt

    def install(self) -> None:
        """Wrap every target and rebind it wherever frsim modules refer to it."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        replacement: dict[int, object] = {}
        originals: dict[int, str] = {}
        wrapped: dict[tuple[str, str], object] = {}
        for span, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(span, original)
                self._undo.append((_ClassDict(cls), method, original))
                setattr(cls, method, wrapper)
                wrapped[(module_name, attribute)] = (cls, method, wrapper)
            else:
                original = getattr(module, attribute)
                replacement[id(original)] = self._wrap(span, original)
            originals[id(original)] = f"{module_name}.{attribute}"
        for module in self._frsim_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if not isinstance(value, types.ModuleType):
                    self._swap(namespace, name, value, replacement, _SEARCH_DEPTH)
        self._check_bindings(originals, wrapped)
        compiled_round = sys.modules["frsim.protocol"].compiled_round.__wrapped__
        self._cache_start = compiled_round.cache_info()

    def _check_bindings(self, originals: dict[int, str], wrapped: dict) -> None:
        stale = []

        def visit(value, where: str, depth: int) -> None:
            if id(value) in originals:
                stale.append(f"{originals[id(value)]} still bound at {where}")
            elif depth > 0 and isinstance(value, dict):
                for k, v in value.items():
                    visit(v, f"{where}[{k!r}]", depth - 1)
            elif depth > 0 and isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    visit(v, f"{where}[{i}]", depth - 1)

        for module in self._frsim_modules():
            for name, value in vars(module).items():
                visit(value, f"{module.__name__}.{name}", _SEARCH_DEPTH)
                functions = [value]
                if isinstance(value, type) and value.__module__ == module.__name__:
                    functions = list(vars(value).values())
                for fn in functions:
                    for default in (getattr(fn, "__defaults__", None) or ()):
                        visit(default, f"default of {module.__name__}.{name}", 0)
                    for default in (getattr(fn, "__kwdefaults__", None) or {}).values():
                        visit(default, f"default of {module.__name__}.{name}", 0)
        for (module_name, attribute), (cls, method, wrapper) in wrapped.items():
            if cls.__dict__.get(method) is not wrapper:
                stale.append(f"{module_name}.{attribute} is not wrapped on its class")
        if stale:
            self.uninstall()
            raise RuntimeError("tracing would miss call sites: " + "; ".join(stale))

    def uninstall(self) -> None:
        """Put every original binding back; the program is then untouched."""
        protocol = sys.modules.get("frsim.protocol")
        if self._cache_start is not None and protocol is not None:
            compiled_round = protocol.compiled_round
            info = getattr(compiled_round, "__wrapped__", compiled_round).cache_info()
            self.cache_hits += info.hits - self._cache_start.hits
            self.cache_misses += info.misses - self._cache_start.misses
            self._cache_start = None
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "basis_keys": sorted(self.basis_keys),
            "cache": [self.cache_hits, self.cache_misses],
        }

    def merge(self, snapshot: dict) -> None:
        """Add the counters of another tracer, e.g. one that ran in a CLI process."""
        for span in SPANS:
            self.calls[span] += snapshot["calls"][span]
            self.self_s[span] += snapshot["self_s"][span]
        self.basis_keys.update(snapshot["basis_keys"])
        self.cache_hits += snapshot["cache"][0]
        self.cache_misses += snapshot["cache"][1]


class _ClassDict:
    """Item assignment onto a class, so class attributes share the undo log."""

    def __init__(self, cls: type) -> None:
        self.cls = cls

    def __setitem__(self, name: str, value) -> None:
        setattr(self.cls, name, value)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Calls and self seconds per span, the three ratios and their bases."""
    out: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        out[f"{span}.calls"] = (tracer.calls[span], "count")
        out[f"{span}.self_s"] = (tracer.self_s[span], "s")
    validations = tracer.calls["measurement.validate_basis"]
    bases = len(tracer.basis_keys)
    out["measurement.distinct_bases"] = (bases, "count")
    out["measurement.validations_per_basis"] = (validations / bases if bases else 0.0, "ratio")
    rounds = tracer.calls["protocol.RoundSampler.draw"] + tracer.calls["protocol.run_round"]
    out["protocol.sampled_rounds"] = (rounds, "count")
    out["protocol.round_rng.per_round"] = (
        tracer.calls["protocol.round_rng"] / rounds if rounds else 0.0, "ratio")
    lookups = tracer.cache_hits + tracer.cache_misses
    out["protocol.compiled_round.hit_ratio"] = (
        tracer.cache_hits / lookups if lookups else 0.0, "ratio")
    return out
