"""End-to-end orchestration helpers shared by the CLI and experiments:
candidate retrieval over a query set, per-query entity pooling and label
transfer, the entity-ranking stage, and cross-validated ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .corpus import CorpusStore, Qrels, Query, pool_entities, transfer_labels
from .retrieval import Bm25Params, InvertedIndex, Ranking, Rm3Params, retrieve

if TYPE_CHECKING:  # pragma: no cover
    from .embeddings import DimsConfig, EmbeddingStore
    from .entity_ranking import EntityHead, EntityRanking
    from .evaluation import MetricsReport
    from .synthetic import PlantedConfig
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
    "run_planted_ablation",
]

# variant name -> (weighting mode value, use_entities); by value, so that
# `candidate_rankings` (the retrieve stage) loads no model code
VARIANTS: dict[str, tuple[str, bool]] = {
    "dreq": ("probability", True),
    "uniform": ("uniform", True),
    "reciprocal_rank": ("reciprocal_rank", True),
    "no_entity": ("probability", False),
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
    empty_text_docs: int  # of the shared feature table: scored with text vector 0


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
    """Train and evaluate each weighting variant with the same folds,
    examples, entity rankings, and feature table; evaluate the candidates
    alongside. One `train_dreq` call trains every (variant, fold) run on one
    leading run axis, with Ve built once per variant and one Adam step count.
    `cutoffs` (prec_k, ndcg_k, recall_k) go to `evaluate_run`."""
    from .evaluation import evaluate_run
    from .model import DreqModel
    from .training import train_dreq, train_feature_table

    candidate_report = evaluate_run(dict(data.candidates), qrels, tag="candidates", **cutoffs)
    table = train_feature_table(data, examples)
    templates = [
        DreqModel.init(dims, mode=mode, seed=init_seed, use_entities=use_entities)
        for mode, use_entities in (VARIANTS[name] for name in variants)
    ]
    result = train_dreq(templates, examples, folds, data, cfg, table)
    runs = dict(zip(variants, result.reranked))
    reports = {name: evaluate_run(run, qrels, tag=name, **cutoffs) for name, run in runs.items()}
    return AblationResult(candidate_report, reports, runs, table.empty_text_docs)


def run_planted_ablation(
    planted: PlantedConfig,
    train_cfg: TrainConfig,
    seeds: list[int],
    variants: list[str] = ("dreq", "uniform", "no_entity"),
    retrieve_k: int = 100,
    n_folds: int = 5,
) -> dict[str, float]:
    """Seed-averaged held-out nDCG@20 per variant on planted worlds.

    Returns {"candidates": ..., variant: ...} means over the seeds.
    """
    from .entity_ranking import train_entity_head
    from .retrieval import build_index
    from .synthetic import generate_planted_world
    from .training import TrainData, build_doc_examples, make_folds

    totals = {name: 0.0 for name in list(variants) + ["candidates"]}
    for seed in seeds:
        world = generate_planted_world(replace(planted, seed=seed))
        index = build_index(world.corpus)
        cands = candidate_rankings(index, world.queries, k=retrieve_k, mode="bm25_rm3")
        pooled = pooled_entities_map(world.corpus, cands, world.qrels)
        labels = entity_labels_map(world.corpus, cands, world.qrels)
        X, y = build_entity_encoding_examples(labels, world.encoding_store, seed)
        head_cfg = replace(train_cfg, seed=seed)
        head = train_entity_head(X, y, head_cfg)
        rankings = entity_rankings_map(head, pooled, world.encoding_store)

        examples = build_doc_examples(world.qrels, cands, seed)
        folds = make_folds([q.query_id for q in world.queries], k=n_folds, seed=seed)
        data = TrainData(
            corpus=world.corpus,
            query_store=world.query_store,
            entity_store=world.entity_store,
            passage_store=world.passage_store,
            entity_rankings=rankings,
            candidates=cands,
            seg=world.seg,
        )
        outcome = ablation_sweep(
            list(variants), world.dims, examples, folds, data, head_cfg, world.qrels,
            init_seed=seed,
        )
        totals["candidates"] += outcome.candidate_report.means["ndcg@20"]
        for name in variants:
            totals[name] += outcome.variant_reports[name].means["ndcg@20"]
    return {name: total / len(seeds) for name, total in totals.items()}
