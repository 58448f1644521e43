"""Per-layer tracing of spohn from outside the package.

Tracer.install() replaces spohn's public functions and methods with timing
wrappers; remove() puts the originals back. Each wrapper opens a span, so a
function's self time is its span time minus the time of the spans nested in
it. Module-level functions are replaced under every name any spohn module
binds them to (spohn.propagation.rank_delta is spohn.ranks.rank_delta), so
callers reach the wrapper however they imported the function.

Nothing in src/ changes; with the wrappers removed spohn runs untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import process_time

# (span name, owner, attribute): owner is a spohn module or "module:Class".
TARGETS = (
    ("cli.main", "spohn.cli", "main"),
    ("documents.parse_network", "spohn.documents", "parse_network"),
    ("documents.parse_evidence", "spohn.documents", "parse_evidence"),
    ("documents.serialize_network", "spohn.documents", "serialize_network"),
    ("network.construct", "spohn.network:SpohnianNetwork", "__post_init__"),
    ("network.validate", "spohn.network:SpohnianNetwork", "validate"),
    ("network.marginal", "spohn.network:SpohnianNetwork", "marginal"),
    ("network.joint", "spohn.network:SpohnianNetwork", "joint"),
    ("network.from_joint", "spohn.network:SpohnianNetwork", "from_joint"),
    ("diagram.construct", "spohn.diagram:InfluenceDiagram", "__post_init__"),
    ("diagram.family_variables", "spohn.diagram:InfluenceDiagram", "family_variables"),
    ("diagram.incident_edges", "spohn.diagram:InfluenceDiagram", "incident_edges"),
    ("diagram.unique_connector", "spohn.diagram:InfluenceDiagram", "unique_connector"),
    ("diagram.validate", "spohn.diagram:InfluenceDiagram", "validate"),
    ("ocf.construct", "spohn.ocf:OCF", "__post_init__"),
    ("ocf.marginalize", "spohn.ocf:OCF", "marginalize"),
    ("ocf.revise", "spohn.ocf:OCF", "revise"),
    ("ocf.belief_strength", "spohn.ocf:OCF", "belief_strength"),
    ("ocf.projection", "spohn.ocf:StateSpace", "projection"),
    ("ocf.constrain", "spohn.ocf:Proposition", "constrain"),
    ("ranks.s_normalize", "spohn.ranks", "s_normalize"),
    ("ranks.rank_delta", "spohn.ranks", "rank_delta"),
    ("propagation.single", "spohn.propagation", "propagate_single"),
    ("propagation.certain", "spohn.propagation", "propagate_certain_multi"),
    ("propagation.uncertain", "spohn.propagation", "propagate_uncertain_multi"),
    ("propagation.augment_with_dummy", "spohn.propagation", "augment_with_dummy"),
    ("oracle.oracle_revise", "spohn.oracle", "oracle_revise"),
    ("oracle.compare", "spohn.oracle", "compare"),
)

ENGINE_ENTRIES = ("propagation.single", "propagation.certain", "propagation.uncertain")


def _spohn_modules() -> list:
    return [m for k, m in sys.modules.items() if k == "spohn" or k.startswith("spohn.")]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects span self times and counters while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> tuple[dict, dict, dict]:
        """Return and clear what was collected since the last take."""
        out = (dict(self.calls), dict(self.self_s), dict(self.counts))
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        return out

    def _span(self, name: str, fn, before=None, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            stack.append(0.0)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = process_time() - t0
                nested = stack.pop()
                stack[-1] += span
                calls[name] += 1
                self_s[name] += span - nested
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def _hooks(self, name: str, fn):
        """Counter hooks for the spans that count more than calls and time."""
        counts = self.counts
        if name in ("documents.parse_network", "documents.parse_evidence"):
            def before(args, kwargs):
                counts["bytes_in"] += len(args[0].encode())
                return args, kwargs, None
            return before, None
        if name == "documents.serialize_network":
            def after(args, result, state):
                counts["bytes_out"] += len(result.encode())
            return None, after
        if name == "ocf.projection":
            def before(args, kwargs):
                return args, kwargs, len(args[0]._proj_cache)

            def after(args, result, size):
                if len(args[0]._proj_cache) == size:
                    counts["projection_hits"] += 1
            return before, after
        if name in ENGINE_ENTRIES:
            # The outermost engine call gets a trace list; nested calls
            # receive it from their caller, so each message counts once.
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                if bound.arguments.get("trace") is not None:
                    return args, kwargs, None
                messages: list = []
                bound.arguments["trace"] = messages
                return bound.args, bound.kwargs, messages

            def after(args, result, messages):
                if messages is not None:
                    counts["messages"] += len(messages)
            return before, after
        return None, None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = _spohn_modules()
        for name, owner, attr in TARGETS:
            obj = _resolve(owner)
            raw = vars(obj)[attr]
            if inspect.ismodule(obj):
                wrapped = self._span(name, raw, *self._hooks(name, raw))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._saved.append((mod, key, raw))
                            setattr(mod, key, wrapped)
            else:
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    wrapped = classmethod(self._span(name, fn, *self._hooks(name, fn)))
                else:
                    wrapped = self._span(name, raw, *self._hooks(name, raw))
                self._saved.append((obj, attr, raw))
                setattr(obj, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

