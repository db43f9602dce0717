"""Orchestration helpers of the CLI stages: candidate retrieval over a query
set, per-query entity pooling and label transfer, the entity-ranking stage,
and cross-validated ablation sweeps.

`pool-entities` pools from `Document`s and writes `corpus_links.npz`
(`CorpusLinks`): all that the later stages read of the corpus, from the
passage and entity keys of `synth-embed` on. Label transfer, the feature
table and MaxSimCos work on those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Container, Iterable

import numpy as np

from . import _npz
from .config import WeightingMode
from .corpus import CorpusStore, Document, Qrels, Query, pool_entities, split_sentences
from .retrieval import (
    Bm25Params, InvertedIndex, Ranking, Rm3Params, feedback_rows, retrieve, tokenize,
)

if TYPE_CHECKING:  # pragma: no cover
    from .embeddings import DimsConfig, EmbeddingStore
    from .entity_ranking import EntityHead, EntityRanking
    from .evaluation import MetricsReport
    from .training import FoldPlan, TrainConfig, TrainData, TrainingExample

__all__ = [
    "VARIANTS",
    "candidate_rankings",
    "CorpusLinks",
    "corpus_links",
    "save_corpus_links",
    "load_corpus_links",
    "pooling_docs",
    "pooled_entities_map",
    "entity_labels_map",
    "build_entity_encoding_examples",
    "entity_rankings_map",
    "AblationResult",
    "ablation_sweep",
]

VARIANTS: dict[str, WeightingMode] = {
    "dreq": WeightingMode.PROBABILITY,
    "uniform": WeightingMode.UNIFORM,
    "reciprocal_rank": WeightingMode.RECIPROCAL_RANK,
    "no_entity": WeightingMode.NONE,
}


def candidate_rankings(
    index: InvertedIndex,
    queries: list[Query],
    k: int = 1000,
    mode: str = "bm25_rm3",
    bm25: Bm25Params = Bm25Params(),
    rm3: Rm3Params = Rm3Params(),
) -> dict[str, Ranking]:
    """First-stage ranking per query, in query order. With RM3, one scan of
    the postings finds the rows of every query's feedback documents."""
    terms = [tokenize(q.text, index.tokenizer) for q in queries]
    rows = feedback_rows(index, terms, rm3, bm25) if mode == "bm25_rm3" else None
    return {
        q.query_id: retrieve(index, query, k=k, mode=mode, bm25=bm25, rm3=rm3,
                             query_id=q.query_id, rows=rows)
        for q, query in zip(queries, terms)
    }


@dataclass
class CorpusLinks:
    """The corpus as the stages after `pool-entities` read it: document i,
    in corpus order, has id doc_ids[i], sentences[i] sentences, and links
    the entities entity_ids[j] for j in entity_index[indptr[i]:indptr[i+1]],
    in first-mention order. `entity_ids` holds every linked id in
    first-mention order over the corpus."""

    doc_ids: list[str]
    sentences: np.ndarray  # (docs,) int64
    indptr: np.ndarray  # (docs + 1,) int64
    entity_index: np.ndarray  # (links,) int64
    entity_ids: list[str]

    def __post_init__(self) -> None:
        self.row = {d: i for i, d in enumerate(self.doc_ids)}

    def rows(self, doc_ids: Iterable[str]) -> np.ndarray:
        try:
            return np.array([self.row[d] for d in doc_ids], dtype=np.intp)
        except KeyError as e:
            raise KeyError(f"doc_id {e.args[0]!r} not in the corpus links; "
                           "rerun `dreq pool-entities`") from None

    def linked(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The `entity_index` entries of the docs at `rows`, doc after doc,
        and each doc's count of them."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        at = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)
        return self.entity_index[at], counts

    def entities(self, doc_ids: Iterable[str]) -> list[list[str]]:
        """Per doc of `doc_ids`, the entity ids it links, in first-mention order."""
        linked, counts = self.linked(self.rows(doc_ids))
        ids = [self.entity_ids[j] for j in linked.tolist()]
        ends = np.cumsum(counts).tolist()
        return [ids[a:b] for a, b in zip([0] + ends, ends)]


def corpus_links(documents: Iterable[Document]) -> CorpusLinks:
    """The links of `documents`, in their order; a text's sentences are
    counted with `split_sentences`."""
    docs = list(documents)
    entity_ids = pool_entities(docs)
    column = {e: j for j, e in enumerate(entity_ids)}
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([len(doc.entity_ids) for doc in docs], out=indptr[1:])
    return CorpusLinks(
        doc_ids=[doc.doc_id for doc in docs],
        sentences=np.array([len(split_sentences(doc.text)) for doc in docs], dtype=np.int64),
        indptr=indptr,
        entity_index=np.array([column[e] for doc in docs for e in doc.entity_ids], np.int64),
        entity_ids=entity_ids,
    )


_LINK_ARRAYS = ("doc_ids", "doc_id_offsets", "sentences", "indptr", "entity_index",
                "entity_ids", "entity_id_offsets")


def save_corpus_links(links: CorpusLinks, path: str) -> None:
    doc_ids, doc_id_offsets = _npz.pack_strings(links.doc_ids)
    entity_ids, entity_id_offsets = _npz.pack_strings(links.entity_ids)
    _npz.write(path, {
        "doc_ids": doc_ids, "doc_id_offsets": doc_id_offsets, "sentences": links.sentences,
        "indptr": links.indptr, "entity_index": links.entity_index,
        "entity_ids": entity_ids, "entity_id_offsets": entity_id_offsets,
    })


def load_corpus_links(path: str) -> CorpusLinks:
    """The links `save_corpus_links` wrote; members, lengths, offsets and
    entity indices are checked, and a bad file is a ValueError naming
    `pool-entities`."""
    a = _npz.read(path, _LINK_ARRAYS, "corpus links", "pool-entities")
    blobs = ("doc_ids", "entity_ids")
    valid = (
        all(v.ndim == 1 and v.dtype == (np.uint8 if name in blobs else np.int64)
            for name, v in a.items())
        and _npz.bounds(a["doc_id_offsets"], len(a["doc_ids"]))
        and _npz.bounds(a["entity_id_offsets"], len(a["entity_ids"]))
        and len(a["sentences"]) + 1 == len(a["doc_id_offsets"]) == len(a["indptr"])
        and (a["sentences"] >= 0).all()
        and _npz.bounds(a["indptr"], len(a["entity_index"]))
        and (a["entity_index"] < len(a["entity_id_offsets"]) - 1).all()
        and (a["entity_index"] >= 0).all()
    )
    links = None
    if valid:
        try:
            links = CorpusLinks(
                doc_ids=_npz.unpack_strings(a["doc_ids"], a["doc_id_offsets"]),
                sentences=a["sentences"],
                indptr=a["indptr"],
                entity_index=a["entity_index"],
                entity_ids=_npz.unpack_strings(a["entity_ids"], a["entity_id_offsets"]),
            )
        except UnicodeDecodeError:
            pass
    if links is None or len(links.row) != len(links.doc_ids):
        raise ValueError(f"{path}: corrupt corpus links; rerun `dreq pool-entities`")
    return links


def _pool_doc_ids(candidates: Ranking, qrels: Qrels | None, in_corpus: Container[str]) -> list:
    """The documents a query's entities are pooled from: its candidates by
    rank, then, when qrels are given, its judged-relevant documents in the
    corpus (`in_corpus`) that are not candidates, in judgment order, so
    training positives always have ranked entities."""
    doc_ids = list(candidates.doc_ids)
    if qrels is not None:
        seen = set(doc_ids)
        doc_ids += [d for d in qrels.relevant_docs(candidates.query_id)
                    if d not in seen and d in in_corpus]
    return doc_ids


def pooling_docs(
    corpus: CorpusStore, candidates: Ranking, qrels: Qrels | None = None
) -> list:
    """The `Document`s of `_pool_doc_ids`."""
    return [corpus.doc(d) for d in _pool_doc_ids(candidates, qrels, corpus.documents)]


def pooled_entities_map(
    corpus: CorpusStore, candidates: dict[str, Ranking], qrels: Qrels | None = None
) -> dict[str, list[str]]:
    return {
        qid: pool_entities(pooling_docs(corpus, ranking, qrels))
        for qid, ranking in candidates.items()
    }


def entity_labels_map(
    links: CorpusLinks, candidates: dict[str, Ranking], qrels: Qrels
) -> dict[str, dict[str, int]]:
    """Per query, its pooled entities in first-seen order, each labelled 1 if
    some pooled document that links it is judged relevant (grade >= 1), else
    0: document relevance carried down to entities."""
    labels = {}
    for qid, ranking in candidates.items():
        doc_ids = _pool_doc_ids(ranking, qrels, links.row)
        grades = qrels.grades.get(qid, {})
        linked, counts = links.linked(links.rows(doc_ids))
        relevant = np.repeat(np.array([grades.get(d, 0) >= 1 for d in doc_ids], bool), counts)
        pooled, first = np.unique(linked, return_index=True)
        pooled = pooled[np.argsort(first)]
        labels[qid] = dict(zip(
            [links.entity_ids[j] for j in pooled.tolist()],
            np.isin(pooled, linked[relevant]).astype(int).tolist(),
        ))
    return labels


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
