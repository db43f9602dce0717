"""Orchestration helpers of the CLI stages: candidate retrieval over a query
set, per-query entity pooling and label transfer, the entity-ranking stage,
and cross-validated ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .corpus import CorpusStore, Qrels, Query, pool_entities, transfer_labels
from .retrieval import Bm25Params, InvertedIndex, Ranking, Rm3Params, retrieve

if TYPE_CHECKING:  # pragma: no cover
    from .embeddings import DimsConfig, EmbeddingStore
    from .entity_ranking import EntityHead, EntityRanking
    from .evaluation import MetricsReport
    from .training import FoldPlan, TrainConfig, TrainData, TrainingExample

__all__ = [
    "VARIANTS",
    "candidate_rankings",
    "pooling_docs",
    "pooled_entities_map",
    "entity_labels_map",
    "build_entity_encoding_examples",
    "entity_rankings_map",
    "AblationResult",
    "ablation_sweep",
]

# variant name -> weighting mode value; by value, so that
# `candidate_rankings` (the retrieve stage) loads no model code
VARIANTS: dict[str, str] = {
    "dreq": "probability",
    "uniform": "uniform",
    "reciprocal_rank": "reciprocal_rank",
    "no_entity": "none",
}


def candidate_rankings(
    index: InvertedIndex,
    queries: list[Query],
    k: int = 1000,
    mode: str = "bm25_rm3",
    bm25: Bm25Params = Bm25Params(),
    rm3: Rm3Params = Rm3Params(),
) -> dict[str, Ranking]:
    """First-stage ranking per query, in query order."""
    return {
        q.query_id: retrieve(index, q.text, k=k, mode=mode, bm25=bm25, rm3=rm3, query_id=q.query_id)
        for q in queries
    }


def pooling_docs(
    corpus: CorpusStore, candidates: Ranking, qrels: Qrels | None = None
) -> list:
    """Candidate documents plus, when qrels are given, any judged-relevant
    documents present in the corpus, so training positives always have
    ranked entities. Order: candidates by rank, then extra positives."""
    docs = [corpus.doc(d) for d in candidates.doc_ids]
    if qrels is not None:
        seen = set(candidates.doc_ids)
        for doc_id in qrels.relevant_docs(candidates.query_id):
            if doc_id not in seen and doc_id in corpus.documents:
                docs.append(corpus.doc(doc_id))
    return docs


def pooled_entities_map(
    corpus: CorpusStore, candidates: dict[str, Ranking], qrels: Qrels | None = None
) -> dict[str, list[str]]:
    return {
        qid: pool_entities(pooling_docs(corpus, ranking, qrels))
        for qid, ranking in candidates.items()
    }


def entity_labels_map(
    corpus: CorpusStore, candidates: dict[str, Ranking], qrels: Qrels
) -> dict[str, dict[str, int]]:
    return {
        qid: transfer_labels(qrels, qid, pooling_docs(corpus, ranking, qrels))
        for qid, ranking in candidates.items()
    }


def build_entity_encoding_examples(
    labels_map: dict[str, dict[str, int]],
    encoding_store: EmbeddingStore,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced examples across all queries, queries sorted: their encodings
    X (n, k), gathered in one `take`, and float64 labels y (n,)."""
    from .embeddings import query_entity_key
    from .training import build_entity_examples

    examples = [
        ex for qid in sorted(labels_map) for ex in build_entity_examples(labels_map[qid], qid, seed)
    ]
    X = encoding_store.take(query_entity_key(ex.query_id, ex.item_id) for ex in examples)
    return X, np.array([ex.label for ex in examples], dtype=np.float64)


def entity_rankings_map(
    head: EntityHead, pooled: dict[str, list[str]], encoding_store: EmbeddingStore
) -> dict[str, EntityRanking]:
    from .entity_ranking import rank_entities

    return {
        qid: rank_entities(head, qid, entities, encoding_store)
        for qid, entities in pooled.items()
    }


@dataclass
class AblationResult:
    candidate_report: MetricsReport
    variant_reports: dict[str, MetricsReport]
    variant_runs: dict[str, dict[str, Ranking]]
    empty_text_docs: int  # of the trainer's feature table: scored with text vector 0


def ablation_sweep(
    variants: list[str],
    dims: DimsConfig,
    examples: list[TrainingExample],
    folds: FoldPlan,
    data: TrainData,
    cfg: TrainConfig,
    qrels: Qrels,
    init_seed: int = 0,
    **cutoffs: int,
) -> AblationResult:
    """Train, in one `train_dreq` call, and evaluate each weighting variant
    (a `VARIANTS` name) with the same folds, examples, entity rankings, and
    feature table; evaluate the candidates alongside. `cutoffs` (prec_k,
    ndcg_k, recall_k) go to `evaluate_run`."""
    from .evaluation import evaluate_run
    from .model import DreqModel
    from .training import train_dreq

    candidate_report = evaluate_run(dict(data.candidates), qrels, tag="candidates", **cutoffs)
    templates = [DreqModel.init(dims, mode=VARIANTS[name], seed=init_seed) for name in variants]
    result = train_dreq(templates, examples, folds, data, cfg)
    runs = dict(zip(variants, result.reranked))
    reports = {name: evaluate_run(run, qrels, tag=name, **cutoffs) for name, run in runs.items()}
    return AblationResult(candidate_report, reports, runs, result.empty_text_docs)
