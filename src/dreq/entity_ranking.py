"""Per-query ranking of pooled candidate entities.

Three rankers share one output type: a trainable linear head over
query-conditioned entity encodings, BM25 over catalog descriptions, and
an embedding-similarity score interpolated with BM25. Raw scores are
softmax-normalized over the full pooled set, so the resulting values act
as relevance probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _npz
from .embeddings import EmbeddingStore, cosine, query_entity_key, softmax
from .retrieval import Bm25Params, InvertedIndex, Ranking, _score_all, tokenize
from .training import AdamState, TrainConfig, adam_step, bce_dlogits, bce_loss

__all__ = [
    "EntityHead",
    "EntityRankingEntry",
    "EntityRanking",
    "score_entity",
    "rank_entities",
    "train_entity_head",
    "bm25_entity_rank",
    "geeer_entity_rank",
    "save_entity_head",
    "load_entity_head",
    "entity_ranking_to_run",
    "save_entity_rankings",
    "load_entity_rankings",
]


@dataclass
class EntityHead:
    """Linear scorer over a k-dim query-conditioned encoding: w1 . enc + b1."""

    w1: np.ndarray
    b1: float

    def __post_init__(self) -> None:
        if self.w1.ndim != 1:
            raise ValueError(f"w1 must be a vector, got shape {self.w1.shape}")
        if not (np.all(np.isfinite(self.w1)) and np.isfinite(self.b1)):
            raise ValueError("non-finite head parameters")

    @classmethod
    def init(cls, k: int, seed: int = 0) -> "EntityHead":
        rng = np.random.default_rng(seed)
        a = np.sqrt(6.0 / (k + 1))
        return cls(w1=rng.uniform(-a, a, size=(k,)), b1=0.0)


@dataclass(frozen=True)
class EntityRankingEntry:
    entity_id: str
    raw_score: float
    prob: float
    rank: int


@dataclass
class EntityRanking:
    """Pooled entities sorted raw-score desc / entity_id asc, with softmax
    probabilities over the full pooled set."""

    query_id: str
    entries: list[EntityRankingEntry]

    @classmethod
    def from_raw_scores(
        cls, query_id: str, scored: Sequence[tuple[str, float]]
    ) -> "EntityRanking":
        if not scored:
            raise ValueError(f"no entities to rank for query {query_id!r}")
        if len({e for e, _ in scored}) != len(scored):
            raise ValueError(f"duplicate entity ids in ranking for query {query_id!r}")
        probs = softmax([s for _, s in scored])
        triples = sorted(
            ((eid, float(raw), float(p)) for (eid, raw), p in zip(scored, probs)),
            key=lambda t: (-t[1], t[0]),
        )
        entries = [
            EntityRankingEntry(eid, raw, p, i + 1) for i, (eid, raw, p) in enumerate(triples)
        ]
        return cls(query_id, entries)

    def __len__(self) -> int:
        return len(self.entries)


def score_entity(head: EntityHead, enc: np.ndarray) -> float:
    """Raw relevance score of one encoded entity."""
    if enc.shape != head.w1.shape:
        raise ValueError(f"encoding shape {enc.shape} != head shape {head.w1.shape}")
    return float(head.w1 @ enc + head.b1)


def rank_entities(
    head: EntityHead,
    query_id: str,
    pooled: Sequence[str],
    encoding_store: EmbeddingStore,
) -> EntityRanking:
    """Score every pooled entity with the head and softmax-normalize."""
    scored = []
    for entity_id in pooled:
        key = query_entity_key(query_id, entity_id)
        if key not in encoding_store:
            raise KeyError(
                f"no query-conditioned encoding for (query {query_id!r}, entity {entity_id!r})"
            )
        scored.append((entity_id, score_entity(head, encoding_store.get(key))))
    return EntityRanking.from_raw_scores(query_id, scored)


def train_entity_head(
    examples: Sequence[tuple[np.ndarray, int]],
    cfg: TrainConfig,
    log_rows: list | None = None,
) -> EntityHead:
    """Adam-optimized BCE fit of the linear head; deterministic given seed."""
    if not examples:
        raise ValueError("cannot train an entity head on zero examples")
    X = np.stack([np.asarray(enc, dtype=np.float64) for enc, _ in examples])
    y = np.array([label for _, label in examples], dtype=np.float64)
    k = X.shape[1]

    head = EntityHead.init(k, seed=cfg.seed)
    params = {"w1": head.w1, "b1": np.array([head.b1])}
    state = AdamState()
    rng = np.random.default_rng(cfg.seed)

    best = float("inf")
    stall = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(examples))
        total = 0.0
        for start in range(0, len(examples), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            z = Xb @ params["w1"] + params["b1"][0]
            loss = bce_loss(z, yb)
            dz = bce_dlogits(z, yb) / len(idx)
            grads = {"w1": Xb.T @ dz, "b1": np.array([np.sum(dz)])}
            adam_step(params, grads, state, cfg)
            total += loss * len(idx)
        epoch_loss = total / len(examples)
        if log_rows is not None:
            log_rows.append((0, epoch, epoch_loss))
        if best - epoch_loss < cfg.early_stop_delta:
            stall += 1
        else:
            stall = 0
        best = min(best, epoch_loss)
        if stall >= cfg.early_stop_patience:
            break
    head.b1 = float(params["b1"][0])
    return head


def bm25_entity_rank(
    query: str | list[str],
    pooled: Sequence[str],
    description_index: InvertedIndex,
    bm25: Bm25Params = Bm25Params(),
    query_id: str = "",
) -> EntityRanking:
    """Sparse alternative: BM25 of the query against catalog descriptions,
    one scoring pass over the description index per query (each query term
    occurrence adds once, as in `bm25_score`).

    Entities without an indexed description score 0.
    """
    terms = tokenize(query, description_index.tokenizer) if isinstance(query, str) else query
    scores = _score_all(description_index, ((t, 1.0) for t in terms), bm25)
    position = description_index.doc_position
    scored = [
        (eid, float(scores[position[eid]]) if eid in position else 0.0) for eid in pooled
    ]
    return EntityRanking.from_raw_scores(query_id, scored)


def _minmax(values: Sequence[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def geeer_entity_rank(
    query_mentions: Sequence[tuple[str, float]],
    pooled: Sequence[str],
    entity_store: EmbeddingStore,
    bm25_scores: Mapping[str, float],
    lam: float = 0.5,
    query_id: str = "",
) -> EntityRanking:
    """Embedding alternative: each pooled entity scores the confidence-
    weighted sum of cosines to the query's linked entities, min-max
    normalized per query and interpolated with min-max BM25 at `lam`.
    Constant score lists normalize to 0.5.
    """
    usable = [(eid, conf) for eid, conf in query_mentions if eid in entity_store]
    if not usable:
        raise ValueError(
            f"query {query_id!r} has no linked entities with embeddings; "
            "embedding-based entity ranking is inapplicable"
        )
    query_vecs = [(entity_store.get(eid), conf) for eid, conf in usable]
    emb_scores = []
    sparse_scores = []
    for entity_id in pooled:
        vec = entity_store.get(entity_id)
        emb_scores.append(sum(conf * cosine(vec, qv) for qv, conf in query_vecs))
        sparse_scores.append(float(bm25_scores.get(entity_id, 0.0)))
    mm_emb = _minmax(emb_scores)
    mm_sparse = _minmax(sparse_scores)
    scored = [
        (eid, lam * s + (1.0 - lam) * e)
        for eid, s, e in zip(pooled, mm_sparse, mm_emb)
    ]
    return EntityRanking.from_raw_scores(query_id, scored)


# --- serialization --------------------------------------------------------------


def entity_ranking_to_run(ranking: EntityRanking) -> Ranking:
    """TREC-run view with entity_id in the docid column and prob as score."""
    entries = ranking.entries
    return Ranking(
        ranking.query_id, [e.entity_id for e in entries], np.array([e.prob for e in entries])
    )


_RANKING_ARRAYS = (
    "query_ids", "query_id_offsets", "entity_ids", "entity_id_offsets", "raw_score", "prob", "rank"
)


def save_entity_rankings(rankings: Mapping[str, EntityRanking], path: str) -> None:
    """Full-precision rankings for downstream stages (the TREC export rounds
    scores to 6 decimals): one row per entry, queries sorted, entries in
    rank order."""
    rows = [(qid, e) for qid in sorted(rankings) for e in rankings[qid].entries]
    query_ids, query_id_offsets = _npz.pack_strings([qid for qid, _ in rows])
    entity_ids, entity_id_offsets = _npz.pack_strings([e.entity_id for _, e in rows])
    _npz.write(path, {
        "query_ids": query_ids,
        "query_id_offsets": query_id_offsets,
        "entity_ids": entity_ids,
        "entity_id_offsets": entity_id_offsets,
        "raw_score": np.array([e.raw_score for _, e in rows]),
        "prob": np.array([e.prob for _, e in rows]),
        "rank": np.array([e.rank for _, e in rows]),
    })


def load_entity_rankings(path: str) -> dict[str, EntityRanking]:
    arrays = _npz.read(path, _RANKING_ARRAYS, "entity ranking", "rank-entities")
    per_query: dict[str, list[EntityRankingEntry]] = {}
    for qid, *entry in zip(
        _npz.unpack_strings(arrays["query_ids"], arrays["query_id_offsets"]),
        _npz.unpack_strings(arrays["entity_ids"], arrays["entity_id_offsets"]),
        arrays["raw_score"].tolist(),
        arrays["prob"].tolist(),
        arrays["rank"].tolist(),
    ):
        per_query.setdefault(qid, []).append(EntityRankingEntry(*entry))
    return {qid: EntityRanking(qid, entries) for qid, entries in per_query.items()}


def save_entity_head(head: EntityHead, path: str) -> None:
    _npz.write(path, {"w1": head.w1, "b1": np.array(head.b1)})


def load_entity_head(path: str) -> EntityHead:
    arrays = _npz.read(path, ("w1", "b1"), "entity head", "train-entity-ranker")
    return EntityHead(w1=arrays["w1"], b1=float(arrays["b1"]))
