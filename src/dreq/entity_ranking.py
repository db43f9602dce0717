"""Per-query ranking of pooled candidate entities.

Three rankers share one output type: a trainable linear head over
query-conditioned entity encodings, BM25 over catalog descriptions, and
an embedding-similarity score interpolated with BM25. Raw scores are
softmax-normalized over the full pooled set, so the resulting values act
as relevance probabilities.

An `EntityRanking` is columns, as a document `Ranking` is: the entity ids
in rank order (rank = position + 1) beside float64 raw scores and
probabilities. The softmax is taken in pooled order; the rank order is the
shared `Ranking.order` lexsort (raw desc, entity_id asc). The head scores a
query's encodings with one gather and one `np.vecdot` (the bits of a
per-entity `w1 @ enc + b1`) and trains on `(X, y)` arrays with the
document trainer's epoch walk and early stop, `training._FoldRun`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _npz
from .embeddings import EmbeddingStore, cosine, query_entity_key, softmax
from .retrieval import Bm25Params, InvertedIndex, Ranking, _score_all, tokenize
from .training import (AdamState, TrainConfig, _FoldRun, _require_finite_fit, adam_step,
                       bce_dlogits, bce_loss)

__all__ = [
    "EntityHead",
    "EntityRanking",
    "rank_entities",
    "train_entity_head",
    "bm25_entity_rank",
    "geeer_entity_rank",
    "save_entity_head",
    "load_entity_head",
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


@dataclass(eq=False)
class EntityRanking:
    """One query's pooled entities in rank order: `entity_ids[i]` has rank
    i + 1, raw score `raw_scores[i]` and probability `probs[i]` (float64)."""

    query_id: str
    entity_ids: list[str]
    raw_scores: np.ndarray
    probs: np.ndarray

    @classmethod
    def from_raw_scores(
        cls, query_id: str, entity_ids: Sequence[str], raw_scores
    ) -> "EntityRanking":
        """Softmax over the pooled set in its given order, then sort raw-score
        desc / entity_id asc; ids must be distinct."""
        entity_ids = list(entity_ids)
        if not entity_ids:
            raise ValueError(f"no entities to rank for query {query_id!r}")
        raw = np.asarray(raw_scores, dtype=np.float64)
        probs = softmax(raw)
        order = Ranking.order(query_id, entity_ids, raw)
        return cls(query_id, [entity_ids[i] for i in order.tolist()], raw[order], probs[order])

    def __len__(self) -> int:
        return len(self.entity_ids)


def _query_ranking(rankings: Mapping[str, EntityRanking], query_id: str) -> EntityRanking:
    """`query_id`'s ranking; a query absent from `rankings` ranks no entities."""
    if query_id in rankings:
        return rankings[query_id]
    return EntityRanking(query_id, [], np.empty(0), np.empty(0))


def rank_entities(
    head: EntityHead,
    query_id: str,
    pooled: Sequence[str],
    encoding_store: EmbeddingStore,
) -> EntityRanking:
    """Score every pooled entity with the head and softmax-normalize."""
    if encoding_store.dim != len(head.w1):
        raise ValueError(f"encoding dim {encoding_store.dim} != head dim {len(head.w1)}")
    encodings = encoding_store.take(query_entity_key(query_id, e) for e in pooled)
    return EntityRanking.from_raw_scores(query_id, pooled, np.vecdot(encodings, head.w1) + head.b1)


def train_entity_head(
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    log_rows: list | None = None,
) -> EntityHead:
    """Adam-optimized BCE fit of the linear head on encodings X (n, k) and
    {0, 1} labels y (n,); deterministic given seed. Zero examples are an
    error."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if not len(y):
        raise ValueError("no entity training examples (are any candidates judged relevant?)")
    head = EntityHead.init(X.shape[1], seed=cfg.seed)
    params = {"w1": head.w1, "b1": np.array([head.b1])}
    state = AdamState()
    run = _FoldRun(np.arange(len(y)), np.random.default_rng(cfg.seed))
    going = True  # a TrainConfig runs at least one epoch
    with np.errstate(over="ignore", invalid="ignore"):  # `_require_finite_fit` reports
        while going:
            idx = run.next_batch(cfg.batch_size)
            Xb, yb = X[idx], y[idx]
            z = Xb @ params["w1"] + params["b1"][0]
            dz = bce_dlogits(z, yb) / len(idx)
            adam_step(params, {"w1": Xb.T @ dz, "b1": np.array([np.sum(dz)])}, state, cfg)
            run.total_loss += bce_loss(z, yb) * len(idx)
            going = run.advance(cfg)
    _require_finite_fit("entity head", cfg, *params.values())
    if log_rows is not None:
        log_rows.extend((0, epoch, loss) for epoch, loss in enumerate(run.epoch_losses))
    head.b1 = float(params["b1"][0])
    return head


def bm25_entity_rank(
    query: str | list[str],
    pooled: Sequence[str],
    description_index: InvertedIndex | None,
    bm25: Bm25Params = Bm25Params(),
    query_id: str = "",
) -> EntityRanking:
    """Sparse alternative: BM25 of the query against catalog descriptions,
    one scoring pass over the description index per query (each query term
    occurrence adds once, as `retrieve` scores a query without RM3).

    Entities without an indexed description score 0, and so does every
    entity when `description_index` is None (a catalog without descriptions).
    """
    raw = np.zeros(len(pooled))
    if description_index is not None:
        terms = tokenize(query, description_index.tokenizer) if isinstance(query, str) else query
        scores = _score_all(description_index, ((t, 1.0) for t in terms), bm25)
        position = description_index.doc_position
        raw = [scores[position[eid]] if eid in position else 0.0 for eid in pooled]
    return EntityRanking.from_raw_scores(query_id, pooled, raw)


def _minmax(values: Sequence[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def _unit_lambda(lam: float) -> float:
    """`lam`, if it is a GEEER interpolation weight: in [0, 1], NaN not."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"geeer lambda must be in [0, 1], got {lam}")
    return lam


def geeer_entity_rank(
    query_mentions: Sequence[tuple[str, float]],
    pooled: Sequence[str],
    entity_store: EmbeddingStore,
    bm25_scores: Mapping[str, float],
    lam: float = 0.5,
    query_id: str = "",
) -> EntityRanking | None:
    """Embedding alternative: each pooled entity scores the confidence-
    weighted sum of cosines to the query's linked entities, min-max
    normalized per query and interpolated with min-max BM25 at `lam`.
    Constant score lists normalize to 0.5. None when no linked entity has
    an embedding (nothing to compare with); a `lam` outside [0, 1] is an
    error, checked first.
    """
    _unit_lambda(lam)
    query_vecs = [(entity_store.get(eid), conf) for eid, conf in query_mentions
                  if eid in entity_store]
    if not query_vecs:
        return None
    emb_scores = []
    sparse_scores = []
    for entity_id in pooled:
        vec = entity_store.get(entity_id)
        emb_scores.append(sum(conf * cosine(vec, qv) for qv, conf in query_vecs))
        sparse_scores.append(float(bm25_scores.get(entity_id, 0.0)))
    raw = [lam * s + (1.0 - lam) * e for s, e in zip(_minmax(sparse_scores), _minmax(emb_scores))]
    return EntityRanking.from_raw_scores(query_id, pooled, raw)


# --- serialization --------------------------------------------------------------

_RANKING_ARRAYS = (
    "query_ids", "query_id_offsets", "entity_ids", "entity_id_offsets", "raw_score", "prob", "rank"
)


def save_entity_rankings(rankings: Mapping[str, EntityRanking], path: str) -> None:
    """Full-precision rankings for downstream stages (the TREC export rounds
    scores to 6 decimals): one row per entity, queries sorted, entities in
    rank order with their rank."""
    qids = sorted(rankings)
    ordered = [rankings[qid] for qid in qids]
    row_qids = [qid for qid in qids for _ in rankings[qid].entity_ids]
    query_ids, query_id_offsets = _npz.pack_strings(row_qids)
    entity_ids, entity_id_offsets = _npz.pack_strings([e for r in ordered for e in r.entity_ids])
    empty = np.empty(0)  # the float64 column of zero queries
    _npz.write(path, {
        "query_ids": query_ids,
        "query_id_offsets": query_id_offsets,
        "entity_ids": entity_ids,
        "entity_id_offsets": entity_id_offsets,
        "raw_score": np.concatenate([empty] + [r.raw_scores for r in ordered]),
        "prob": np.concatenate([empty] + [r.probs for r in ordered]),
        "rank": np.array([rank for r in ordered for rank in range(1, len(r) + 1)]),
    })


def load_entity_rankings(path: str) -> dict[str, EntityRanking]:
    """Rankings written by `save_entity_rankings`: a query's rows must be
    consecutive and ranked 1..n, and every score and probability finite."""
    arrays = _npz.read(path, _RANKING_ARRAYS, "entity ranking", "rank-entities")
    for column in ("raw_score", "prob"):
        if not np.isfinite(arrays[column]).all():
            raise ValueError(f"{path}: non-finite {column}; rerun `dreq rank-entities`")
    qids = _npz.unpack_strings(arrays["query_ids"], arrays["query_id_offsets"])
    eids = _npz.unpack_strings(arrays["entity_ids"], arrays["entity_id_offsets"])
    bounds = [i for i in range(len(qids)) if i == 0 or qids[i] != qids[i - 1]] + [len(qids)]
    rankings: dict[str, EntityRanking] = {}
    for a, b in zip(bounds, bounds[1:]):
        qid = qids[a]
        if qid in rankings or not np.array_equal(arrays["rank"][a:b], np.arange(1, b - a + 1)):
            raise ValueError(
                f"{path}: the ranks of query {qid!r} are not 1..n in one block; "
                "rerun `dreq rank-entities`"
            )
        rankings[qid] = EntityRanking(qid, eids[a:b], arrays["raw_score"][a:b], arrays["prob"][a:b])
    return rankings


def save_entity_head(head: EntityHead, path: str) -> None:
    _npz.write(path, {"w1": head.w1, "b1": np.array(head.b1)})


def load_entity_head(path: str) -> EntityHead:
    arrays = _npz.read(path, ("w1", "b1"), "entity head", "train-entity-ranker")
    return EntityHead(w1=arrays["w1"], b1=float(arrays["b1"]))
