"""Pointwise training: balanced example construction, query-level folds,
Adam optimization, and analytic gradients through the scorer's forward pass.

Training and serving share one forward (`model._forward`), one feature
table (`train_feature_table`) and one out-of-fold scorer (`rerank_folds`,
which scores each fold's test queries with that fold's model and table):
`train_dreq` and `dreq rerank` both call the last two. A row's
entity-centric vector Ve is the left-to-right sum of its weighted entity
rows, the same arithmetic `model.rerank` uses, and row by row, so
precomputing it once per template (`_example_batch`) changes no bit; no
(rows, |entities|) weight matrix is formed. With entity fine-tuning the
tables move every step, so `dreq_loss_and_grads` sums each minibatch's Ve
again from its run's table.

A run is one (template, fold) pair of `train_dreq`. Their parameters are
the rows of one (runs, P) float64 matrix, W2, b2, w3 and b3 being views
into it (`_scorer_views`); with fine-tuning each run also owns a slice of
one (runs, entities, m) table (a template in mode none links nothing, so
its slice gets zero gradient and keeps its bits). Each run takes its
minibatches as it would alone: its fold's generator draws one permutation
per epoch, so the runs of one fold walk the same rows, and each run keeps
its own epoch loss and early stopping. Per run, every stacked product, row
sum and mean is the 2-D operation on that run's slice, and Adam is
elementwise, with one step count shared by the live runs: a run's k-th
minibatch is the k-th step, as it is alone, so training in lockstep gives
the bits of one run after another.

The entity ranking is frozen while the document scorer trains, so the
per-document entity weights are constants and the gradient of the loss
w.r.t. an entity embedding is the weight-scaled gradient w.r.t. the
entity-centric document vector, scattered onto the run's entity table.
"""
from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .config import DimsConfig, TrainConfig
from .corpus import Qrels, SegmenterConfig
from .embeddings import EmbeddingStore, sigmoid
from .model import (
    DreqModel,
    FeatureTable,
    WeightingMode,
    _entity_vectors,
    _features,
    _forward,
    _stacked_links,
    build_feature_table,
    rerank,
)
from .retrieval import Ranking

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import CorpusLinks

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
    "rerank_folds",
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
    if k < 2:  # one fold would train on no query
        raise ValueError(f"need at least 2 folds, got k={k}")
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


def _require_finite_fit(what: str, cfg: TrainConfig, *params: np.ndarray) -> None:
    """Stop a fit whose parameters left the finite numbers: once one is
    inf or NaN, every later step keeps it so."""
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError(
            f"the {what} fit diverged to non-finite parameters at "
            f"train.learning_rate = {cfg.learning_rate}; lower it"
        )


# --- batched scoring path used by the trainer ---------------------------------


@dataclass
class DreqBatch:
    """Stacked example rows: query embeddings, scorer inputs X = [Vt, Ve]
    (text- and entity-centric vectors), the entity links and weights that Ve
    sums, as `FeatureTable.entity_weights` lays them out (None once Ve is
    final: in training without fine-tuning), and labels. The trainer's
    example batch gives X, links and weights a leading template axis and
    shares Q and y; in its minibatches every field has a leading run axis:
    one row block per run."""

    Q: np.ndarray  # (..., B, p)
    X: np.ndarray  # (..., B, n + m)
    links: np.ndarray | None  # (..., B, L)
    weights: np.ndarray | None  # (..., B, L)
    y: np.ndarray  # (..., B)


def _scorer_views(flat: np.ndarray, dims: DimsConfig) -> dict[str, np.ndarray]:
    """W2, b2, w3 and b3 as views into the last axis of `flat`, which holds
    them in that order: the layout of the trainer's (runs, P) parameters and
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
    run axis, run r's parameters score run r's rows, and the loss and
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


def _take(batch: DreqBatch, templates: np.ndarray, idx: np.ndarray) -> DreqBatch:
    """One minibatch per run on a leading run axis from the example batch:
    run r gets the rows idx[r], in that order, of Q and y and of template
    templates[r]'s X, links and weights."""
    at = templates[:, None]
    return DreqBatch(
        Q=batch.Q[idx],
        X=batch.X[at, idx],
        links=None if batch.links is None else batch.links[at, idx],
        weights=None if batch.weights is None else batch.weights[at, idx],
        y=batch.y[idx],
    )


# --- end-to-end trainer --------------------------------------------------------


@dataclass
class TrainData:
    """Everything the trainer reads: the corpus links (document ids,
    sentence counts and linked entities; no text or mentions), stores,
    precomputed per-query entity rankings and candidate rankings."""

    links: CorpusLinks
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
    epoch_losses: list[float]


@dataclass
class TrainResult:
    """Per template, in the order trained: its folds' outcomes and its merged
    out-of-fold rankings; the log rows of every run, template by template;
    and the feature table's documents without text (`empty_text_docs`)."""

    fold_outcomes: list[list[FoldOutcome]]
    reranked: list[dict[str, Ranking]]
    log_rows: list[tuple[int, int, float]]  # (fold, epoch, loss)
    empty_text_docs: int


def train_feature_table(data: TrainData, examples: Sequence[TrainingExample]) -> FeatureTable:
    """Feature table over every candidate and example document."""
    doc_ids = [d for qid in sorted(data.candidates) for d in data.candidates[qid].doc_ids]
    doc_ids += [ex.item_id for ex in examples]
    return build_feature_table(data.links, doc_ids, data.entity_store, data.passage_store, data.seg)


def _example_batch(
    templates: Sequence[DreqModel],
    examples: Sequence[TrainingExample],
    data: TrainData,
    table: FeatureTable,
    finetune: bool,
) -> DreqBatch:
    """All examples as one batch, in example order, with X per template on a
    leading axis, and links and weights too when `finetune`. Entity weights
    are formed per query, over that query's example documents, in the
    template's mode; a template in mode none links nothing, so its weights
    and its Ve are 0."""
    from .entity_ranking import _query_ranking  # entity_ranking imports this module

    rows = table.rows(ex.item_id for ex in examples)
    width = int((table.indptr[rows + 1] - table.indptr[rows]).max(initial=0))
    links = np.zeros((len(templates), len(rows), width), dtype=np.intp)
    weights = np.zeros(links.shape)
    by_query: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_query.setdefault(ex.query_id, []).append(i)
    n = table.text.shape[1]
    X = np.zeros((len(templates), len(rows), n + table.entities.shape[1]))
    X[..., :n] = table.text[rows]
    for t, template in enumerate(templates):
        if template.mode == WeightingMode.NONE:
            continue
        for qid, idx in by_query.items():
            ranking = _query_ranking(data.entity_rankings, qid)
            part_links, part_weights = table.entity_weights(ranking, template.mode, rows[idx])
            links[t, idx, : part_links.shape[1]] = part_links
            weights[t, idx, : part_weights.shape[1]] = part_weights
        X[t, :, n:] = _entity_vectors(links[t], weights[t], table.entities)
    return DreqBatch(
        Q=data.query_store.take(ex.query_id for ex in examples),
        X=X,
        links=links if finetune else None,
        weights=weights if finetune else None,
        y=np.array([ex.label for ex in examples], dtype=np.float64),
    )


@dataclass
class _FoldRun:
    """One run's walk through its own epochs: a permutation of its fold's
    training rows per epoch from its own generator, cut into minibatches in
    order. The entity head trains on one such walk over all its examples."""

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
        """Move past the minibatch just trained; False once the run stops."""
        self.start += cfg.batch_size
        if self.start < len(self.rows):
            return True
        epoch_loss = self.total_loss / len(self.rows)
        self.epoch_losses.append(epoch_loss)
        self.stall = self.stall + 1 if self.best - epoch_loss < cfg.early_stop_delta else 0
        self.best = min(self.best, epoch_loss)
        self.start, self.total_loss = 0, 0.0
        return len(self.epoch_losses) < cfg.epochs and self.stall < cfg.early_stop_patience


def _run_index(group: list[int]) -> slice | np.ndarray:
    """Rows of the run axis for `group` (ascending): a slice, so arrays
    indexed with it are views, when the runs are consecutive."""
    if group[-1] - group[0] == len(group) - 1:
        return slice(group[0], group[-1] + 1)
    return np.array(group, dtype=np.intp)


def train_dreq(
    templates: Sequence[DreqModel],
    examples: Sequence[TrainingExample],
    folds: FoldPlan,
    data: TrainData,
    cfg: TrainConfig,
) -> TrainResult:
    """Per-fold training of the document scorer of each template, with
    out-of-fold reranking.

    Each (template, fold) run starts from its template's parameters, trains
    on its fold's training queries' examples, then reranks the candidate
    lists of the fold's test queries in its template's weighting mode. All
    runs train in lockstep on one leading run axis, with Ve built once per
    template and one Adam step count: at each step every run still training
    takes its next minibatch, and the runs whose minibatches have the same
    row count take one stacked forward, backward and Adam step (see the
    module docstring). When entity fine-tuning is on and some template's
    mode is not none, each run owns a copy of the entity table and the
    gradient of one embedding is the sum of its weight-scaled fusion
    gradients. The templates share their dims; all runs share one
    `train_feature_table(data, examples)`. The fit is checked once, when the
    loop ends: a non-finite parameter is an error naming the learning rate.
    """
    if len({t.dims for t in templates}) != 1:
        raise ValueError("train_dreq needs one or more templates with the same dims")
    table = train_feature_table(data, examples)
    finetune = cfg.finetune_entity_embeddings and any(
        t.mode != WeightingMode.NONE for t in templates
    )
    all_rows = _example_batch(templates, examples, data, table, finetune)
    query_ids = [ex.query_id for ex in examples]
    # fail fast if any test query lacks what reranking will need
    data.query_store.take(qid for fold in folds.folds for qid in fold.test)

    fold_rows: list[np.ndarray] = []
    for fold_index, fold in enumerate(folds.folds):
        train_qids = set(fold.train)
        rows = np.array([i for i, q in enumerate(query_ids) if q in train_qids], np.intp)
        if not rows.size:
            raise ValueError(f"fold {fold_index} has no training examples")
        fold_rows.append(rows)
    # run r is fold r // len(templates) of template r % len(templates), so the
    # runs of one fold, which take minibatches of one size, are consecutive
    runs = [
        _FoldRun(rows, np.random.default_rng([cfg.seed, fold_index]))
        for fold_index, rows in enumerate(fold_rows)
        for _ in templates
    ]
    run_template = np.tile(np.arange(len(templates)), len(fold_rows))

    flat = np.stack([np.concatenate((t.W2.ravel(), t.b2, t.w3, (t.b3,))) for t in templates])
    params = {"scorer": np.tile(flat, (len(fold_rows), 1))}
    views = _scorer_views(params["scorer"], templates[0].dims)
    entities = table.entities  # read only when fine-tuning
    if finetune:
        entities = params["entities"] = np.tile(table.entities, (len(runs), 1, 1))
    state = AdamState()

    live = list(range(len(runs)))  # a TrainConfig runs at least one epoch
    # a diverging fit is reported once, below, not by numpy at every step
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            groups: dict[int, list[int]] = {}
            batches = {r: runs[r].next_batch(cfg.batch_size) for r in live}
            for r in live:
                groups.setdefault(len(batches[r]), []).append(r)
            step = state.step
            for size, group in groups.items():
                at = _run_index(group)
                # its mode goes unread: each run's batch holds its entity weights
                model = replace(templates[0], **{k: views[k][at] for k in ("W2", "b2", "w3", "b3")})
                batch = _take(all_rows, run_template[at], np.array([batches[r] for r in group]))
                tables = entities[at] if finetune else entities
                loss, grads = dreq_loss_and_grads(model, batch, tables, finetune)
                state.step = step  # every size group takes this step's bias correction
                adam_step(params, grads, state, cfg, at)
                for r, value in zip(group, loss.tolist()):
                    runs[r].total_loss += value * size
            live = [r for r in live if runs[r].advance(cfg)]
    _require_finite_fit("document scorer", cfg, *params.values())

    outcomes: list[list[FoldOutcome]] = [[] for _ in templates]
    scorers: list[dict[int, tuple[DreqModel, FeatureTable]]] = [{} for _ in templates]
    for r, run in enumerate(runs):
        fold_index, t = divmod(r, len(templates))
        model = replace(
            templates[t],
            **{k: views[k][r].copy() for k in ("W2", "b2", "w3")},
            b3=float(views["b3"][r]),
        )
        fold_table = table
        if finetune:  # the tuned table is this run's feature-table entities and its saved store
            space, ids = table.entity_store.space, table.entity_store.ids
            fold_table = replace(table, entity_store=EmbeddingStore(space, ids, entities[r]))
        scorers[t][fold_index] = (model, fold_table)
        outcomes[t].append(FoldOutcome(fold_index, model, fold_table.entity_store, run.epoch_losses))
    reranked = [rerank_folds(per_fold, folds, data) for per_fold in scorers]

    log_rows = [
        (o.fold_index, e, loss)
        for per_template in outcomes
        for o in per_template
        for e, loss in enumerate(o.epoch_losses)
    ]
    return TrainResult(outcomes, reranked, log_rows, table.empty_text_docs)


def rerank_folds(
    scorers: Mapping[int, tuple[DreqModel, FeatureTable]], folds: FoldPlan, data: TrainData
) -> dict[str, Ranking]:
    """Out-of-fold rankings: each test query of fold i that has candidates,
    reranked by `scorers[i]`, that fold's (model, feature table), in the
    model's weighting mode. Fold after fold, in test order."""
    from .entity_ranking import _query_ranking

    reranked = {}
    for i, fold in enumerate(folds.folds):
        for qid in (q for q in fold.test if q in data.candidates):
            model, table = scorers[i]
            reranked[qid] = rerank(model, data.query_store.get(qid), data.candidates[qid], table,
                                   _query_ranking(data.entity_rankings, qid))
    return reranked


def write_training_log(log_rows, path: str) -> None:
    """TSV training log: fold, epoch, loss."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("fold\tepoch\tloss\n")
        for fold, epoch, loss in log_rows:
            f.write(f"{fold}\t{epoch}\t{loss:.10f}\n")
