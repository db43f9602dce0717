"""Pointwise training: balanced example construction, query-level folds,
Adam optimization, and analytic gradients through the scorer's forward pass.

Training and serving share one forward (`model._forward`) and one feature
table (`train_feature_table`, built once per `train_dreq` call or ablation
sweep). `train_dreq` computes the scorer inputs X = [Vt, Ve] of every
example once per call into one `DreqBatch`, and each minibatch is a row
gather from that. A row's entity-centric vector Ve is the left-to-right sum
of its weighted entity rows, the same arithmetic `model.rerank` uses, and
row by row, so precomputing it changes no bit; no (rows, |entities|) weight
matrix is formed. With entity fine-tuning the table moves every step, so
`dreq_loss_and_grads` sums each minibatch's Ve again.

A fold trains W2, b2, w3 and b3 as views into one float64 vector
(`_scorer_views`), and its gradient comes in the same layout, so each Adam
step updates one key. Adam is elementwise, so this trains the same bits as
one key per parameter.

The entity ranking is frozen while the document scorer trains, so the
per-document entity weights are constants and the gradient of the loss
w.r.t. an entity embedding is the weight-scaled gradient w.r.t. the
entity-centric document vector, scattered onto the entity table.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Qrels, SegmenterConfig
from .embeddings import DimsConfig, EmbeddingStore, sigmoid
from .model import (
    DreqModel,
    FeatureTable,
    _features,
    _forward,
    build_feature_table,
    rerank,
)
from .retrieval import Ranking

logger = logging.getLogger(__name__)

__all__ = [
    "TrainingExample",
    "TrainConfig",
    "Fold",
    "FoldPlan",
    "make_folds",
    "build_doc_examples",
    "build_entity_examples",
    "bce_loss",
    "AdamState",
    "adam_step",
    "TrainData",
    "DreqBatch",
    "train_feature_table",
    "TrainResult",
    "train_dreq",
]

_PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainingExample:
    query_id: str
    item_id: str  # doc_id for document examples, entity_id for entity examples
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 20
    epochs: int = 20
    seed: int = 13
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    finetune_entity_embeddings: bool = False
    early_stop_delta: float = 1e-5
    early_stop_patience: int = 3

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class Fold:
    train: tuple[str, ...]
    test: tuple[str, ...]


@dataclass
class FoldPlan:
    folds: list[Fold]

    def save(self, path: str) -> None:
        payload = {"folds": [{"train": list(f.train), "test": list(f.test)} for f in self.folds]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FoldPlan":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls([Fold(tuple(f["train"]), tuple(f["test"])) for f in payload["folds"]])


def make_folds(query_ids: Sequence[str], k: int = 5, seed: int = 13) -> FoldPlan:
    """Seeded shuffle then round-robin split into k query-level folds.

    Test sets partition the query set; a query never appears in its own
    fold's training data.
    """
    ids = sorted(set(query_ids))
    if len(ids) != len(list(query_ids)):
        raise ValueError("duplicate query_ids in fold input")
    if len(ids) < k:
        raise ValueError(f"need at least {k} queries for {k} folds, got {len(ids)}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    folds = []
    for i in range(k):
        test = tuple(ids[i::k])
        test_set = set(test)
        train = tuple(q for q in ids if q not in test_set)
        folds.append(Fold(train=train, test=test))
    return FoldPlan(folds)


def build_doc_examples(
    qrels: Qrels, candidates: Mapping[str, Ranking], seed: int = 13
) -> list[TrainingExample]:
    """Balanced pointwise document examples per query.

    Positives are the judged-relevant documents (grade >= 1); the negative
    pool is every candidate judged 0 or unjudged, sampled without
    replacement down to the positive count (all of them if the pool is
    smaller). Queries with no positives are skipped with a warning.
    """
    rng = random.Random(seed)
    examples: list[TrainingExample] = []
    for query_id in sorted(candidates):
        positives = sorted(qrels.relevant_docs(query_id))
        if not positives:
            logger.warning("query %s has no judged-relevant documents; skipped", query_id)
            continue
        pool = [d for d in candidates[query_id].doc_ids() if qrels.grade(query_id, d) == 0]
        rng.shuffle(pool)
        negatives = pool[: len(positives)]
        examples.extend(TrainingExample(query_id, d, 1) for d in positives)
        examples.extend(TrainingExample(query_id, d, 0) for d in negatives)
    return examples


def build_entity_examples(
    entity_labels: Mapping[str, int], query_id: str, seed: int = 13
) -> list[TrainingExample]:
    """Balance transferred entity labels: all positives, equally many
    sampled negatives."""
    rng = random.Random(seed)
    positives = [e for e, lab in entity_labels.items() if lab == 1]
    pool = [e for e, lab in entity_labels.items() if lab == 0]
    rng.shuffle(pool)
    negatives = pool[: len(positives)]
    return [TrainingExample(query_id, e, 1) for e in positives] + [
        TrainingExample(query_id, e, 0) for e in negatives
    ]


_LOSS_CAP = -math.log(_PROB_CLAMP)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bce_loss(logits, labels) -> float:
    """Mean binary cross-entropy of sigmoid(logit) against {0,1} labels.

    Computed in the log domain (softplus form) so saturated logits lose no
    precision; the probability clamp at 1e-12 appears as a per-term cap of
    -ln(1e-12) on the loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {labels.shape}")
    if logits.size == 0:
        raise ValueError("empty batch")
    terms = np.minimum(_softplus((1.0 - 2.0 * labels) * logits), _LOSS_CAP)
    return float(np.mean(terms))


def bce_dlogits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example gradient of the summed capped BCE w.r.t. the logits
    (zero where the cap flattens the loss)."""
    live = (1.0 - 2.0 * labels) * logits < _LOSS_CAP
    return (sigmoid(logits) - labels) * live


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam update with bias correction; mutates params in place."""
    if set(params) != set(grads):
        raise ValueError(f"params/grads keys differ: {sorted(params)} vs {sorted(grads)}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {key!r}")
        if key not in state.m:
            state.m[key], state.v[key] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[key], state.v[key]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    return params, state


# --- batched scoring path used by the trainer ---------------------------------


@dataclass
class DreqBatch:
    """Stacked example rows: query embeddings, scorer inputs X = [Vt, Ve]
    (text- and entity-centric vectors), the entity links and weights that Ve
    sums, as `FeatureTable.entity_weights` lays them out (None once Ve is
    final: in training without fine-tuning), and labels."""

    Q: np.ndarray  # (B, p)
    X: np.ndarray  # (B, n + m)
    links: np.ndarray | None  # (B, L)
    weights: np.ndarray | None  # (B, L)
    y: np.ndarray  # (B,)


def _scorer_views(flat: np.ndarray, dims: DimsConfig) -> dict[str, np.ndarray]:
    """W2, b2, w3 and b3 as views into one vector that holds them in that
    order: the layout of the trainer's parameters and of their gradient."""
    p, width = dims.p, dims.m + dims.n
    W2, b2, w3, b3 = np.split(flat, np.cumsum([p * width, p, 5 * p]))
    return {"W2": W2.reshape(p, width), "b2": b2, "w3": w3, "b3": b3}


def _with_entities(model: DreqModel, batch: DreqBatch, entity_table: np.ndarray) -> np.ndarray:
    """The batch's X with Ve summed again from `entity_table`."""
    return _features(batch.X[:, : model.dims.n], batch.links, batch.weights, entity_table)


def dreq_logits(model: DreqModel, batch: DreqBatch, entity_table: np.ndarray) -> np.ndarray:
    """Logits of the batch's rows, Ve summed from `entity_table`, through
    `model._forward`, the pass `model.rerank` scores with."""
    return _forward(model, batch.Q, _with_entities(model, batch, entity_table))[1]


def dreq_loss(model: DreqModel, batch: DreqBatch, entity_table: np.ndarray) -> float:
    return bce_loss(dreq_logits(model, batch, entity_table), batch.y)


def dreq_loss_and_grads(
    model: DreqModel,
    batch: DreqBatch,
    entity_table: np.ndarray,
    finetune_entities: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean BCE over the batch and its analytic gradients.

    Returns the gradient of W2, b2, w3 and b3 as one vector laid out as
    `_scorer_views` reads it ("scorer") and, when `finetune_entities`, of the
    full entity table ("entities"; rows not hit by the batch get zero
    gradient). Without fine-tuning, batch.X is taken as is: its Ve was summed
    from `entity_table`; with it, Ve is summed again from `entity_table`.
    The loss and dz are `bce_loss` and `bce_dlogits` sharing one (1 - 2y) z.
    The gradient assumes probabilities away from the clamp bounds.
    """
    p_dim = model.dims.p
    n_dim = model.dims.n
    y = batch.y
    B = y.shape[0]

    X = _with_entities(model, batch, entity_table) if finetune_entities else batch.X
    F, z = _forward(model, batch.Q, X)
    signed = (1.0 - 2.0 * y) * z
    loss = float(np.mean(np.minimum(_softplus(signed), _LOSS_CAP)))

    dz = (sigmoid(z) - y) * (signed < _LOSS_CAP) / B  # (B,)
    dw3 = F.T @ dz
    db3 = np.sum(dz)
    a2 = model.w3[p_dim : 2 * p_dim]
    a3 = model.w3[2 * p_dim : 3 * p_dim]
    a4 = model.w3[3 * p_dim : 4 * p_dim]
    a5 = model.w3[4 * p_dim : 5 * p_dim]
    dD = dz[:, None] * ((a2 + a3 - a4)[None, :] + a5[None, :] * batch.Q)  # (B, p)
    dW2 = dD.T @ X
    db2 = dD.sum(axis=0)
    grads = {"scorer": np.concatenate((dW2.ravel(), db2, dw3, (db3,)))}
    if finetune_entities:
        dVe = dD @ model.W2[:, n_dim:]  # (B, m)
        dE = np.zeros_like(entity_table)
        np.add.at(dE, batch.links, batch.weights[:, :, None] * dVe[:, None, :])
        grads["entities"] = dE
    return loss, grads


def _take(batch: DreqBatch, idx: np.ndarray) -> DreqBatch:
    """The rows `idx` of `batch`, in that order."""
    return DreqBatch(**{k: None if v is None else v[idx] for k, v in vars(batch).items()})


# --- end-to-end trainer --------------------------------------------------------


@dataclass
class TrainData:
    """Everything the trainer reads: immutable corpus, stores, precomputed
    per-query entity rankings and candidate rankings."""

    corpus: CorpusStore
    query_store: EmbeddingStore
    entity_store: EmbeddingStore
    passage_store: EmbeddingStore
    entity_rankings: Mapping[str, object]  # query_id -> EntityRanking
    candidates: Mapping[str, Ranking]
    seg: SegmenterConfig = SegmenterConfig()


@dataclass
class FoldOutcome:
    fold_index: int
    model: DreqModel
    entity_store: EmbeddingStore
    test_rankings: dict[str, Ranking]
    epoch_losses: list[float]


@dataclass
class TrainResult:
    fold_outcomes: list[FoldOutcome]
    reranked: dict[str, Ranking]
    log_rows: list[tuple[int, int, float]]  # (fold, epoch, loss)


def train_feature_table(data: TrainData, examples: Sequence[TrainingExample]) -> FeatureTable:
    """Feature table over every candidate and example document."""
    doc_ids = [d for qid in sorted(data.candidates) for d in data.candidates[qid].doc_ids()]
    docs = (data.corpus.doc(d) for d in doc_ids + [ex.item_id for ex in examples])
    return build_feature_table(docs, data.entity_store, data.passage_store, data.seg)


def _example_batch(
    model: DreqModel, examples: Sequence[TrainingExample], data: TrainData, table: FeatureTable
) -> DreqBatch:
    """All examples as one batch, in example order; entity weights are
    formed per query, over that query's example documents."""
    rows = table.rows(ex.item_id for ex in examples)
    width = int((table.indptr[rows + 1] - table.indptr[rows]).max(initial=0))
    links = np.zeros((len(rows), width if model.use_entities else 0), dtype=np.intp)
    weights = np.zeros(links.shape)
    by_query: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_query.setdefault(ex.query_id, []).append(i)
    for qid, idx in by_query.items() if model.use_entities else ():
        ranking = data.entity_rankings[qid]
        part_links, part_weights = table.entity_weights(ranking, model.mode, rows[idx])
        links[idx, : part_links.shape[1]] = part_links
        weights[idx, : part_weights.shape[1]] = part_weights
    return DreqBatch(
        Q=np.array([data.query_store.get(ex.query_id) for ex in examples]).reshape(
            len(rows), data.query_store.dim
        ),
        X=_features(table.text[rows], links, weights, table.entities),
        links=links,
        weights=weights,
        y=np.array([ex.label for ex in examples], dtype=np.float64),
    )


def train_dreq(
    template: DreqModel,
    examples: Sequence[TrainingExample],
    folds: FoldPlan,
    data: TrainData,
    cfg: TrainConfig,
    table: FeatureTable | None = None,
) -> TrainResult:
    """Per-fold training of the document scorer with out-of-fold reranking.

    Each fold copies the template parameters, trains on its training
    queries' examples, then reranks the candidate lists of its test
    queries. When entity fine-tuning is on, the fold owns a mutable copy
    of the entity table and the gradient of one embedding is the sum of
    its weight-scaled fusion gradients. `table` defaults to
    `train_feature_table(data, examples)`.
    """
    if table is None:
        table = train_feature_table(data, examples)
    all_rows = _example_batch(template, examples, data, table)
    query_ids = [ex.query_id for ex in examples]
    # fail fast if any test query lacks what reranking will need
    for fold in folds.folds:
        for qid in fold.test:
            data.query_store.get(qid)

    finetune = cfg.finetune_entity_embeddings and template.use_entities
    if not finetune:  # Ve is final: a minibatch gathers Q, X and y only
        all_rows = replace(all_rows, links=None, weights=None)
    outcomes: list[FoldOutcome] = []
    log_rows: list[tuple[int, int, float]] = []
    merged: dict[str, Ranking] = {}

    for fold_index, fold in enumerate(folds.folds):
        scorer = np.concatenate((template.W2.ravel(), template.b2, template.w3, (template.b3,)))
        views = _scorer_views(scorer, template.dims)
        model = replace(template, W2=views["W2"], b2=views["b2"], w3=views["w3"])
        entities = table.entities.copy()
        train_qids = set(fold.train)
        fold_rows = np.array([i for i, q in enumerate(query_ids) if q in train_qids], np.intp)
        if not fold_rows.size:
            raise ValueError(f"fold {fold_index} has no training examples")

        params = {"scorer": scorer}
        if finetune:
            params["entities"] = entities
        state = AdamState()
        rng = np.random.default_rng([cfg.seed, fold_index])

        best = float("inf")
        stall = 0
        epoch_losses: list[float] = []
        for epoch in range(cfg.epochs):
            perm = fold_rows[rng.permutation(len(fold_rows))]
            total_loss = 0.0
            for start in range(0, len(perm), cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                batch = _take(all_rows, idx)
                loss, grads = dreq_loss_and_grads(model, batch, entities, finetune)
                adam_step(params, grads, state, cfg)
                model.b3 = float(scorer[-1])
                total_loss += loss * len(idx)
            epoch_loss = total_loss / len(fold_rows)
            epoch_losses.append(epoch_loss)
            log_rows.append((fold_index, epoch, epoch_loss))
            if best - epoch_loss < cfg.early_stop_delta:
                stall += 1
            else:
                stall = 0
            best = min(best, epoch_loss)
            if stall >= cfg.early_stop_patience:
                break

        fold_table = table
        tuned = data.entity_store
        if finetune:
            fold_table = replace(table, entities=entities)
            tuned = EmbeddingStore(space=data.entity_store.space, dim=data.entity_store.dim)
            for i, eid in enumerate(table.entity_ids):
                tuned.add(eid, entities[i].copy())

        test_rankings: dict[str, Ranking] = {}
        for qid in fold.test:
            if qid not in data.candidates:
                continue
            test_rankings[qid] = rerank(
                model,
                data.query_store.get(qid),
                data.candidates[qid],
                fold_table,
                data.entity_rankings[qid],
            )
        merged.update(test_rankings)
        outcomes.append(
            FoldOutcome(
                fold_index=fold_index,
                model=model,
                entity_store=tuned,
                test_rankings=test_rankings,
                epoch_losses=epoch_losses,
            )
        )

    return TrainResult(fold_outcomes=outcomes, reranked=merged, log_rows=log_rows)


def write_training_log(log_rows, path: str) -> None:
    """TSV training log: fold, epoch, loss."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("fold\tepoch\tloss\n")
        for fold, epoch, loss in log_rows:
            f.write(f"{fold}\t{epoch}\t{loss:.10f}\n")
