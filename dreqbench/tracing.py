"""In-process spans around the public functions of every `dreq` module.

`dreq` modules import functions by name (`from .retrieval import
build_index`), so a call resolves through the caller's namespace. The
tracer therefore installs its wrapper at every import site: each `dreq`
module attribute that holds a traced function, not only the defining one.
Each wrapper wraps the original function, so one call makes one span.

Spans (name, call site, start, end, parent, stage) stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

# Leaf helpers called per token, document or vector: their cost would be
# mostly the wrapper's own, so they count toward their caller's self time.
UNTRACED = frozenset(
    {
        "tokenize", "split_sentences", "segment_passages", "passage_key", "query_entity_key",
        "synthetic_embed", "linear", "softmax", "sigmoid", "cosine", "score_entity",
        "entity_weights", "entity_centric_embedding", "text_centric_embedding",
        "hybrid_embedding", "interaction_vectors", "score_document", "ndcg_at_k",
        "precision_at_k", "average_precision", "recall_at_k", "bce_loss", "bce_dlogits",
        "dreq_logits", "dreq_loss",
        # the CLI entry points: a stage is the root the benchmark times itself
        "main", "build_parser",
    }
)

Probe = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<defining module>.<function>", e.g. "retrieval.rm3_expand"
    site: str  # module whose namespace the call went through
    stage: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _short(module: str) -> str:
    return module.split(".", 1)[1] if "." in module else module


def _traceable(name: str, obj: object) -> bool:
    if not inspect.isfunction(obj) or name.startswith("_") or name in UNTRACED:
        return False
    if name.startswith("cmd_") or not getattr(obj, "__module__", "").startswith("dreq."):
        return False
    # context managers and generators return before their work is done
    return not inspect.isgeneratorfunction(inspect.unwrap(obj))


class Tracer:
    """Records spans for calls into `dreq` while installed."""

    def __init__(self, probes: dict[str, Probe] | None = None):
        self.probes = probes or {}
        self.spans: list[Span] = []
        self.stage = ""
        self.probe_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.modules: dict[str, object] = {}

    # --- installation ---------------------------------------------------
    def install(self, package: str = "dreq") -> None:
        root = importlib.import_module(package)
        self.modules = {package: root}
        for info in pkgutil.iter_modules(root.__path__, package + "."):
            if not info.name.rpartition(".")[2].startswith("_"):
                self.modules[info.name] = importlib.import_module(info.name)
        wrappers: dict[object, Callable] = {}
        for mod_name, module in sorted(self.modules.items()):
            for attr, obj in sorted(vars(module).items()):
                if not _traceable(attr, obj):
                    continue
                original = getattr(obj, "__bench_original__", obj)
                site = _short(mod_name)
                key = (original, site)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, site)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def find(self, name: str) -> object | None:
        """The function `<module>.<function>` as the program defines it, or None."""
        module_name, _, func = name.rpartition(".")
        module = self.modules.get(f"dreq.{module_name}")
        obj = getattr(module, func, None) if module is not None else None
        return getattr(obj, "__bench_original__", obj)

    def _wrap(self, fn: Callable, site: str) -> Callable:
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        probe = self.probes.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, site, self.stage, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                try:
                    span.attrs = probe(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError) as e:
                    self.probe_errors.setdefault(name, f"{type(e).__name__}: {e}")
            return result

        traced.__bench_original__ = fn
        return traced

    # --- analysis -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def root_time(self, stage: str) -> float:
        return sum(s.duration for s in self.spans if s.stage == stage and s.parent is None)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")
