"""Pointwise training: balanced example construction, query-level folds,
Adam optimization, and analytic gradients through the scorer's forward pass.

Training and serving share one forward (`model._forward`) and one feature
table (`train_feature_table`, built once per `train_dreq` call or ablation
sweep). `train_dreq` computes the scorer inputs X = [Vt, Ve] of every
example once per call into one `DreqBatch`, and each minibatch is a row
gather from that. A row's entity-centric vector Ve is the left-to-right sum
of its weighted entity rows, the same arithmetic `model.rerank` uses, and
row by row, so precomputing it changes no bit; no (rows, |entities|) weight
matrix is formed. With entity fine-tuning the tables move every step, so
`dreq_loss_and_grads` sums each minibatch's Ve again from its fold's table.

The folds train in lockstep. Their parameters are the rows of one (folds, P)
float64 matrix, W2, b2, w3 and b3 being views into it (`_scorer_views`);
with fine-tuning each fold also owns a slice of one (folds, entities, m)
table. At each step every fold still training takes its next minibatch,
as it would alone: its own generator draws one permutation per epoch, and
it keeps its own epoch loss and early stopping. The folds whose minibatches
have the same row count are stacked on a leading fold axis and take one
`dreq_loss_and_grads` call and one `adam_step` on their rows, so a step
costs a few numpy calls for all folds instead of for each. Per fold, every
stacked product, row sum and mean is the 2-D operation on that fold's
slice, and Adam is elementwise, with one step count shared by the live
folds: training gives the bits of one fold after another. Log rows come out
in fold order.

The entity ranking is frozen while the document scorer trains, so the
per-document entity weights are constants and the gradient of the loss
w.r.t. an entity embedding is the weight-scaled gradient w.r.t. the
entity-centric document vector, scattered onto the fold's entity table.
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
    _stacked_links,
    build_feature_table,
    rerank,
)
from .retrieval import Ranking

logger = logging.getLogger(__name__)

__all__ = [
    "TrainingExample",
    "TrainConfig",
    "PLANTED_TRAIN",
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


#: training settings that converge on the desk-scale planted worlds
#: (the paper-default learning rate is sized for BERT fine-tuning)
PLANTED_TRAIN = TrainConfig(learning_rate=0.03, batch_size=20, epochs=30)


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
        pool = [d for d in candidates[query_id].doc_ids if qrels.grade(query_id, d) == 0]
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
    """Per-key first and second moments, shaped like the params, and the step
    count that sets the bias correction."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
    rows: slice | np.ndarray = slice(None),
) -> tuple[dict[str, np.ndarray], AdamState]:
    """Standard Adam update with bias correction; mutates params in place.

    Only `rows` of each param's leading axis (and of its moments) step, and
    `grads` holds just those rows: the lockstep trainer steps a group of
    folds at a time. Each call advances `state.step`.
    """
    if set(params) != set(grads):
        raise ValueError(f"params/grads keys differ: {sorted(params)} vs {sorted(grads)}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for key, p in params.items():
        g = grads[key]
        if key not in state.m:
            state.m[key], state.v[key] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[key][rows], state.v[key][rows]  # copies when rows is an index array
        if g.shape != m.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {m.shape} for {key!r}")
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        if isinstance(rows, np.ndarray):
            state.m[key][rows], state.v[key][rows] = m, v
        p[rows] -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    return params, state


# --- batched scoring path used by the trainer ---------------------------------


@dataclass
class DreqBatch:
    """Stacked example rows: query embeddings, scorer inputs X = [Vt, Ve]
    (text- and entity-centric vectors), the entity links and weights that Ve
    sums, as `FeatureTable.entity_weights` lays them out (None once Ve is
    final: in training without fine-tuning), and labels. In the trainer's
    minibatches every field has a leading fold axis: one row block per fold."""

    Q: np.ndarray  # (..., B, p)
    X: np.ndarray  # (..., B, n + m)
    links: np.ndarray | None  # (..., B, L)
    weights: np.ndarray | None  # (..., B, L)
    y: np.ndarray  # (..., B)


def _scorer_views(flat: np.ndarray, dims: DimsConfig) -> dict[str, np.ndarray]:
    """W2, b2, w3 and b3 as views into the last axis of `flat`, which holds
    them in that order: the layout of the trainer's (folds, P) parameters and
    of their gradient. Leading axes carry over; b3 loses its last axis."""
    p, width = dims.p, dims.m + dims.n
    W2, b2, w3, b3 = np.split(flat, np.cumsum([p * width, p, 5 * p]), axis=-1)
    return {"W2": W2.reshape(flat.shape[:-1] + (p, width)), "b2": b2, "w3": w3, "b3": b3[..., 0]}


def _with_entities(model: DreqModel, batch: DreqBatch, entity_table: np.ndarray) -> np.ndarray:
    """The batch's X with Ve summed again from `entity_table`."""
    return _features(batch.X[..., : model.dims.n], batch.links, batch.weights, entity_table)


def dreq_loss_and_grads(
    model: DreqModel,
    batch: DreqBatch,
    entity_table: np.ndarray,
    finetune_entities: bool = False,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Mean BCE over the batch and its analytic gradients.

    `model`, `batch` and `entity_table` share their leading axes: with a
    fold axis, fold f's parameters score fold f's rows, and the loss and
    each gradient get that axis too. Returns the gradient of W2, b2, w3 and
    b3 as (..., P) laid out as `_scorer_views` reads it ("scorer") and, when
    `finetune_entities`, of the full entity table ("entities"; rows not hit
    by the batch get zero gradient). Without fine-tuning, batch.X is taken
    as is: its Ve was summed from `entity_table`; with it, Ve is summed
    again from `entity_table`. The loss and dz are `bce_loss` and
    `bce_dlogits` sharing one (1 - 2y) z. The gradient assumes
    probabilities away from the clamp bounds.
    """
    p_dim = model.dims.p
    n_dim = model.dims.n
    y = batch.y

    X = _with_entities(model, batch, entity_table) if finetune_entities else batch.X
    F, z = _forward(model, batch.Q, X)
    signed = (1.0 - 2.0 * y) * z
    loss = np.mean(np.minimum(_softplus(signed), _LOSS_CAP), axis=-1)

    dz = (sigmoid(z) - y) * (signed < _LOSS_CAP) / y.shape[-1]  # (..., B)
    dw3 = (np.swapaxes(F, -1, -2) @ dz[..., None])[..., 0]
    db3 = dz.sum(axis=-1)
    a2, a3, a4, a5 = (model.w3[..., None, i * p_dim : (i + 1) * p_dim] for i in range(1, 5))
    dD = dz[..., None] * ((a2 + a3 - a4) + a5 * batch.Q)  # (..., B, p)
    dW2 = np.swapaxes(dD, -1, -2) @ X
    db2 = dD.sum(axis=-2)
    dW2 = dW2.reshape(y.shape[:-1] + (-1,))
    grads = {"scorer": np.concatenate((dW2, db2, dw3, db3[..., None]), axis=-1)}
    if finetune_entities:
        dVe = dD @ model.W2[..., n_dim:]  # (..., B, m)
        dE = np.zeros_like(entity_table)
        np.add.at(
            dE.reshape(-1, dE.shape[-1]),
            _stacked_links(batch.links, dE.shape[-2]),
            batch.weights[..., None] * dVe[..., None, :],
        )
        grads["entities"] = dE
    return loss, grads


def _take(batch: DreqBatch, idx: np.ndarray) -> DreqBatch:
    """The rows `idx` of `batch`, in that order; a (folds, B) `idx` gives
    one minibatch per fold on a leading fold axis."""
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
    doc_ids = [d for qid in sorted(data.candidates) for d in data.candidates[qid].doc_ids]
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
        Q=data.query_store.take(ex.query_id for ex in examples),
        X=_features(table.text[rows], links, weights, table.entities),
        links=links,
        weights=weights,
        y=np.array([ex.label for ex in examples], dtype=np.float64),
    )


@dataclass
class _FoldRun:
    """One fold's walk through its own epochs: a permutation of its training
    rows per epoch from its own generator, cut into minibatches in order.
    The entity head trains on one such walk over all its examples."""

    rows: np.ndarray
    rng: np.random.Generator
    perm: np.ndarray | None = None  # this epoch's order, drawn at its first minibatch
    start: int = 0
    total_loss: float = 0.0
    best: float = float("inf")
    stall: int = 0
    epoch_losses: list[float] = field(default_factory=list)

    def next_batch(self, batch_size: int) -> np.ndarray:
        if self.start == 0:
            self.perm = self.rows[self.rng.permutation(len(self.rows))]
        return self.perm[self.start : self.start + batch_size]

    def advance(self, cfg: TrainConfig) -> bool:
        """Move past the minibatch just trained; False once the fold stops."""
        self.start += cfg.batch_size
        if self.start < len(self.rows):
            return True
        epoch_loss = self.total_loss / len(self.rows)
        self.epoch_losses.append(epoch_loss)
        self.stall = self.stall + 1 if self.best - epoch_loss < cfg.early_stop_delta else 0
        self.best = min(self.best, epoch_loss)
        self.start, self.total_loss = 0, 0.0
        return len(self.epoch_losses) < cfg.epochs and self.stall < cfg.early_stop_patience


def _fold_index(group: list[int]) -> slice | np.ndarray:
    """Rows of the fold axis for `group` (ascending): a slice, so arrays
    indexed with it are views, when the folds are consecutive."""
    if group[-1] - group[0] == len(group) - 1:
        return slice(group[0], group[-1] + 1)
    return np.array(group, dtype=np.intp)


def train_dreq(
    template: DreqModel,
    examples: Sequence[TrainingExample],
    folds: FoldPlan,
    data: TrainData,
    cfg: TrainConfig,
    table: FeatureTable | None = None,
) -> TrainResult:
    """Per-fold training of the document scorer with out-of-fold reranking.

    Every fold starts from the template parameters, trains on its training
    queries' examples, then reranks the candidate lists of its test
    queries. The folds train in lockstep: at each step every fold still
    training takes its next minibatch, and the folds whose minibatches have
    the same row count take one stacked forward, backward and Adam step
    (see the module docstring). When entity fine-tuning is on, each fold
    owns a copy of the entity table and the gradient of one embedding is
    the sum of its weight-scaled fusion gradients. `table` defaults to
    `train_feature_table(data, examples)`.
    """
    if table is None:
        table = train_feature_table(data, examples)
    all_rows = _example_batch(template, examples, data, table)
    query_ids = [ex.query_id for ex in examples]
    # fail fast if any test query lacks what reranking will need
    data.query_store.take(qid for fold in folds.folds for qid in fold.test)

    finetune = cfg.finetune_entity_embeddings and template.use_entities
    if not finetune:  # Ve is final: a minibatch gathers Q, X and y only
        all_rows = replace(all_rows, links=None, weights=None)
    runs: list[_FoldRun] = []
    for fold_index, fold in enumerate(folds.folds):
        train_qids = set(fold.train)
        fold_rows = np.array([i for i, q in enumerate(query_ids) if q in train_qids], np.intp)
        if not fold_rows.size:
            raise ValueError(f"fold {fold_index} has no training examples")
        runs.append(_FoldRun(fold_rows, np.random.default_rng([cfg.seed, fold_index])))

    flat = np.concatenate((template.W2.ravel(), template.b2, template.w3, (template.b3,)))
    params = {"scorer": np.tile(flat, (len(runs), 1))}
    views = _scorer_views(params["scorer"], template.dims)
    entities = table.entities  # read only when fine-tuning
    if finetune:
        entities = params["entities"] = np.tile(table.entities, (len(runs), 1, 1))
    state = AdamState()
    models: dict[tuple[int, ...], DreqModel] = {}  # per fold group, over views of params

    live = list(range(len(runs))) if cfg.epochs > 0 else []
    while live:
        groups: dict[int, list[int]] = {}
        batches = {f: runs[f].next_batch(cfg.batch_size) for f in live}
        for f in live:
            groups.setdefault(len(batches[f]), []).append(f)
        step = state.step
        for size, group in groups.items():
            at = _fold_index(group)
            model = models.get(tuple(group))
            if model is None:
                model = replace(template, **{k: views[k][at] for k in ("W2", "b2", "w3", "b3")})
                if isinstance(at, slice):  # an index array would copy the parameters
                    models[tuple(group)] = model
            batch = _take(all_rows, np.stack([batches[f] for f in group]))
            tables = entities[at] if finetune else entities
            loss, grads = dreq_loss_and_grads(model, batch, tables, finetune)
            state.step = step  # every size group takes this step's bias correction
            adam_step(params, grads, state, cfg, at)
            for f, value in zip(group, loss.tolist()):
                runs[f].total_loss += value * size
        live = [f for f in live if runs[f].advance(cfg)]

    outcomes: list[FoldOutcome] = []
    merged: dict[str, Ranking] = {}
    for fold_index, (fold, run) in enumerate(zip(folds.folds, runs)):
        model = replace(
            template,
            **{k: views[k][fold_index].copy() for k in ("W2", "b2", "w3")},
            b3=float(views["b3"][fold_index]),
        )
        fold_table = table
        if finetune:  # the tuned table is this fold's feature-table entities and its saved store
            space, ids = table.entity_store.space, table.entity_store.ids
            fold_table = replace(table, entity_store=EmbeddingStore(space, ids, entities[fold_index]))

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
                entity_store=fold_table.entity_store,
                test_rankings=test_rankings,
                epoch_losses=run.epoch_losses,
            )
        )

    log_rows = [(o.fold_index, e, loss) for o in outcomes for e, loss in enumerate(o.epoch_losses)]
    return TrainResult(fold_outcomes=outcomes, reranked=merged, log_rows=log_rows)


def write_training_log(log_rows, path: str) -> None:
    """TSV training log: fold, epoch, loss."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("fold\tepoch\tloss\n")
        for fold, epoch, loss in log_rows:
            f.write(f"{fold}\t{epoch}\t{loss:.10f}\n")
