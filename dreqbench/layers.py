"""Per-layer metrics computed from the traced run's spans.

Layers are `dreq` modules. Times named `_s` or `_ms` are summed self time
(a span's duration minus the time its child spans cover) unless the metric
says "incl", in which case they are summed whole durations. Probes read
counts off a traced call's arguments or result, so they measure the work
where it happens.

Each metric names the functions it needs and the workloads on which they
must run. A function the program no longer defines is reported as a
missing target and its metrics read 0; a function that exists but left no
span where it must run fails the run, because its wrapper missed a call site.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from tracing import Span, Tracer

ALL = frozenset({"s_pipeline", "m_first_stage", "s_ablate"})
S = frozenset({"s_pipeline", "s_ablate"})
ABLATE = frozenset({"s_ablate"})


def _batch_bytes(args, kwargs, result) -> dict:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return {"bytes": sum(getattr(v, "nbytes", 0) for v in vars(batch).values())}


def _file_bytes(args, kwargs, result) -> dict:
    paths = [a for a in list(args) + list(kwargs.values()) if isinstance(a, str)]
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.isfile(p))}


PROBES: dict[str, Callable] = {
    "retrieval.build_index": lambda a, k, r: {
        "vocab_terms": len(r.postings),
        "postings": sum(len(p) for p in r.postings.values()),
    },
    "retrieval.retrieve": lambda a, k, r: {"docs": len(r)},
    "pipeline.pooled_entities_map": lambda a, k, r: {"pooled": [len(v) for v in r.values()]},
    "pipeline.pooling_docs": lambda a, k, r: {"no_entities": sum(1 for d in r if not d.mentions)},
    "entity_ranking.train_entity_head": lambda a, k, r: {"examples": len(a[0])},
    "entity_ranking.rank_entities": lambda a, k, r: {"entities": len(r.entries)},
    "training.train_dreq": lambda a, k, r: {
        "fold_epochs": [n for _, n in sorted(Counter(row[0] for row in r.log_rows).items())]
    },
    "training.dreq_loss_and_grads": _batch_bytes,
    "model.rerank": lambda a, k, r: {"docs": len(r)},
    "embeddings.save_store": _file_bytes,
}


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(len(values) * p / 100) - 1)]


class Trace:
    """Queries over one run's spans."""

    def __init__(
        self,
        tracer: Tracer,
        stage_seconds: dict[str, float],
        artifact_bytes: int,
        overhead_s: float,
        quality: dict[str, float],
    ):
        self.tracer = tracer
        self.spans = tracer.spans
        self.own = tracer.self_times()
        self.stage_seconds = stage_seconds
        self.artifact_bytes = artifact_bytes
        self.overhead_s = overhead_s
        self.quality = quality

    def calls(self, name: str, under: str | None = None) -> list[Span]:
        found = [s for s in self.spans if s.name == name]
        return [s for s in found if self._has_ancestor(s, under)] if under else found

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def self_s(self, *names: str, under: str | None = None) -> float:
        return sum(self.own[s.id] for n in names for s in self.calls(n, under))

    def incl_s(self, name: str) -> float:
        return sum(s.duration for s in self.calls(name))

    def self_ms(self, name: str) -> list[float]:
        return [1e3 * self.own[s.id] for s in self.calls(name)]

    def attr(self, name: str, key: str, under: str | None = None) -> list:
        return [s.attrs[key] for s in self.calls(name, under) if key in s.attrs]

    def epoch_ms(self) -> list[float]:
        """Per fold: the span from its first to its last optimiser step,
        divided by the epochs the fold ran."""
        out = []
        steps = {"training.dreq_loss_and_grads", "training.adam_step"}
        for train in self.calls("training.train_dreq"):
            segments: list[list[Span]] = []
            current: list[Span] | None = None
            for child in (s for s in self.spans if s.parent == train.id):
                if child.name not in steps:
                    current = None
                    continue
                if current is None:
                    current = []
                    segments.append(current)
                current.append(child)
            for seg, epochs in zip(segments, train.attrs.get("fold_epochs", [])):
                out.append(1e3 * (seg[-1].end - seg[0].start) / epochs)
        return out

    def unattributed(self) -> dict[str, float]:
        """Per stage: share of its time spent outside any span."""
        return {
            stage: (seconds - self.tracer.root_time(stage)) / seconds
            for stage, seconds in self.stage_seconds.items()
            if seconds > 0
        }


def _sum(values) -> float:
    return float(sum(values))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    needs: tuple[str, ...]  # functions, "<module>.<function>"
    runs_on: frozenset
    value: Callable[[Trace], float]
    probed: str = ""  # the function whose probe the value reads


_TD = "training.train_dreq"

METRICS = [
    # retrieval: first stage and index
    LayerMetric("retrieval.build_index_s", ("retrieval.build_index",), ALL,
                lambda t: t.self_s("retrieval.build_index")),
    LayerMetric("retrieval.retrieve_ms_p50", ("retrieval.retrieve",), ALL,
                lambda t: percentile([1e3 * s.duration for s in t.calls("retrieval.retrieve")], 50)),
    LayerMetric("retrieval.retrieve_ms_p75", ("retrieval.retrieve",), ALL,
                lambda t: percentile([1e3 * s.duration for s in t.calls("retrieval.retrieve")], 75)),
    LayerMetric("retrieval.rm3_expand_ms_p50", ("retrieval.rm3_expand",), ALL,
                lambda t: percentile(t.self_ms("retrieval.rm3_expand"), 50)),
    LayerMetric("retrieval.bm25_pass_ms_p50", ("retrieval.retrieve",), ALL,
                lambda t: percentile(t.self_ms("retrieval.retrieve"), 50)),
    LayerMetric("retrieval.vocab_terms", ("retrieval.build_index",), ALL,
                lambda t: _sum(t.attr("retrieval.build_index", "vocab_terms")),
                probed="retrieval.build_index"),
    LayerMetric("retrieval.postings", ("retrieval.build_index",), ALL,
                lambda t: _sum(t.attr("retrieval.build_index", "postings")),
                probed="retrieval.build_index"),
    LayerMetric("retrieval.docs_ranked_per_query", ("retrieval.retrieve",), ALL,
                lambda t: _median(t.attr("retrieval.retrieve", "docs")),
                probed="retrieval.retrieve"),
    # cli: artifact and input I/O
    LayerMetric("cli.load_corpus_s", ("corpus.load_corpus",), ALL,
                lambda t: t.self_s("corpus.load_corpus", "corpus.load_entity_catalog")),
    LayerMetric("cli.load_corpus_calls", ("corpus.load_corpus",), ALL,
                lambda t: float(len(t.calls("corpus.load_corpus")))),
    LayerMetric("cli.save_index_s", ("cli.save_index",), ALL,
                lambda t: t.self_s("cli.save_index")),
    LayerMetric("cli.load_index_s", ("cli.load_index",), ALL,
                lambda t: t.self_s("cli.load_index")),
    LayerMetric("cli.load_run_s", ("retrieval.load_run",), ALL,
                lambda t: t.self_s("retrieval.load_run")),
    LayerMetric("cli.write_run_s", ("retrieval.write_run",), ALL,
                lambda t: t.self_s("retrieval.write_run")),
    LayerMetric("cli.artifact_bytes", (), ALL, lambda t: float(t.artifact_bytes)),
    # embeddings: store I/O (saving happens in set-up)
    LayerMetric("embeddings.load_store_s", ("embeddings.load_store",), S,
                lambda t: t.self_s("embeddings.load_store")),
    LayerMetric("embeddings.load_store_calls", ("embeddings.load_store",), S,
                lambda t: float(len(t.calls("embeddings.load_store")))),
    LayerMetric("embeddings.save_store_s", ("embeddings.save_store",), S,
                lambda t: t.self_s("embeddings.save_store")),
    LayerMetric("embeddings.store_bytes", ("embeddings.save_store",), S,
                lambda t: _sum(t.attr("embeddings.save_store", "bytes")),
                probed="embeddings.save_store"),
    # corpus: entity pooling and label transfer (incl)
    LayerMetric("corpus.pool_s", ("pipeline.pooled_entities_map",), S,
                lambda t: t.incl_s("pipeline.pooled_entities_map")),
    LayerMetric("corpus.labels_s", ("pipeline.entity_labels_map",), S,
                lambda t: t.incl_s("pipeline.entity_labels_map")),
    LayerMetric("corpus.pooled_per_query_min", ("pipeline.pooled_entities_map",), S,
                lambda t: float(min(sum(t.attr("pipeline.pooled_entities_map", "pooled"), []),
                                    default=0)),
                probed="pipeline.pooled_entities_map"),
    LayerMetric("corpus.pooled_per_query_median", ("pipeline.pooled_entities_map",), S,
                lambda t: _median(sum(t.attr("pipeline.pooled_entities_map", "pooled"), [])),
                probed="pipeline.pooled_entities_map"),
    LayerMetric("corpus.pooled_per_query_max", ("pipeline.pooled_entities_map",), S,
                lambda t: float(max(sum(t.attr("pipeline.pooled_entities_map", "pooled"), []),
                                    default=0)),
                probed="pipeline.pooled_entities_map"),
    LayerMetric("corpus.docs_without_entities", ("pipeline.pooling_docs",), S,
                lambda t: _sum(t.attr("pipeline.pooling_docs", "no_entities",
                                      under="pipeline.pooled_entities_map")),
                probed="pipeline.pooling_docs"),
    # entity_ranking: the learned head (incl)
    LayerMetric("entity_ranking.train_head_s", ("entity_ranking.train_entity_head",), S,
                lambda t: t.incl_s("entity_ranking.train_entity_head")),
    LayerMetric("entity_ranking.head_examples", ("entity_ranking.train_entity_head",), S,
                lambda t: _sum(t.attr("entity_ranking.train_entity_head", "examples")),
                probed="entity_ranking.train_entity_head"),
    LayerMetric("entity_ranking.rank_s", ("pipeline.entity_rankings_map",), S,
                lambda t: t.incl_s("pipeline.entity_rankings_map")),
    LayerMetric("entity_ranking.entities_ranked", ("entity_ranking.rank_entities",), S,
                lambda t: _sum(t.attr("entity_ranking.rank_entities", "entities")),
                probed="entity_ranking.rank_entities"),
    # training: the DREQ trainer; optimiser counts only under train_dreq
    LayerMetric("training.train_dreq_s", (_TD,), S, lambda t: t.incl_s(_TD)),
    LayerMetric("training.train_dreq_self_s", (_TD,), S, lambda t: t.self_s(_TD)),
    LayerMetric("training.loss_and_grads_s", ("training.dreq_loss_and_grads",), S,
                lambda t: t.self_s("training.dreq_loss_and_grads", under=_TD)),
    LayerMetric("training.adam_step_s", ("training.adam_step",), S,
                lambda t: t.self_s("training.adam_step", under=_TD)),
    LayerMetric("training.batches", ("training.dreq_loss_and_grads",), S,
                lambda t: float(len(t.calls("training.dreq_loss_and_grads", under=_TD)))),
    LayerMetric("training.epochs_run", (_TD,), S,
                lambda t: _sum(sum(t.attr(_TD, "fold_epochs"), [])),
                probed="training.train_dreq"),
    LayerMetric("training.epoch_ms_p50", (_TD, "training.dreq_loss_and_grads"), S,
                lambda t: percentile(t.epoch_ms(), 50),
                probed="training.train_dreq"),
    LayerMetric("training.batch_bytes_max", ("training.dreq_loss_and_grads",), S,
                lambda t: float(max(t.attr("training.dreq_loss_and_grads", "bytes"), default=0)),
                probed="training.dreq_loss_and_grads"),
    # model: the scorer's serving path (incl)
    LayerMetric("model.rerank_us_per_doc", ("model.rerank",), S,
                lambda t: 1e6 * t.incl_s("model.rerank")
                / max(1, sum(t.attr("model.rerank", "docs"))),
                probed="model.rerank"),
    LayerMetric("model.rerank_calls", ("model.rerank",), S,
                lambda t: float(len(t.calls("model.rerank")))),
    LayerMetric("model.docs_scored", ("model.rerank",), S,
                lambda t: _sum(t.attr("model.rerank", "docs")),
                probed="model.rerank"),
    # pipeline: orchestration (incl) and the ablation's quality
    LayerMetric("pipeline.ablation_sweep_s", ("pipeline.ablation_sweep",), ABLATE,
                lambda t: t.incl_s("pipeline.ablation_sweep")),
    LayerMetric("pipeline.candidate_rankings_s", ("pipeline.candidate_rankings",), ALL,
                lambda t: t.incl_s("pipeline.candidate_rankings")),
    *(
        LayerMetric(f"pipeline.ndcg20_{v}", (), ABLATE,
                    lambda t, v=v: t.quality.get(f"ndcg20_{v}", 0.0))
        for v in ("uniform", "reciprocal_rank", "no_entity")
    ),
    # evaluation
    LayerMetric("evaluation.evaluate_s", ("evaluation.evaluate_run",), ALL,
                lambda t: t.incl_s("evaluation.evaluate_run")),
    # synthetic: set-up
    LayerMetric("synthetic.generate_world_s", ("synthetic.generate_planted_world",), ALL,
                lambda t: t.incl_s("synthetic.generate_planted_world")),
    LayerMetric("synthetic.write_files_s", ("synthetic.write_world_files",), ALL,
                lambda t: t.self_s("synthetic.write_world_files")),
    # the trace itself
    LayerMetric("trace.overhead_s", (), ALL, lambda t: t.overhead_s),
    LayerMetric("trace.unattributed_share", (), ALL,
                lambda t: max(t.unattributed().values(), default=0.0)),
]


def layer_metrics(trace: Trace, workload: str) -> tuple[dict[str, float], list[str], list[str]]:
    """Metric values, the missing targets reported, and completeness errors."""
    values: dict[str, float] = {}
    missing: set[str] = set()
    errors: list[str] = []
    for m in METRICS:
        gone = [n for n in m.needs if trace.tracer.find(n) is None]
        if m.probed in trace.tracer.probe_errors:
            gone.append(f"{m.probed} (probe: {trace.tracer.probe_errors[m.probed]})")
        if gone:
            missing.update(gone)
            values[m.name] = 0.0
            continue
        if workload in m.runs_on:
            silent = [n for n in m.needs if not trace.calls(n)]
            if silent:
                errors.append(f"{m.name}: no span for {', '.join(silent)}")
        values[m.name] = float(m.value(trace))
    return values, sorted(missing), errors
