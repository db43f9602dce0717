"""Hybrid entity+text document scorer: one batched forward pass.

Per query, a document's logit w3 . [q, d, q+d, q-d, q*d] + b3, with
d = W2 [v_t; v_e] + b2, is linear in its text vector v_t (mean of passage
embeddings, 0 for a document without sentences) and entity vector v_e
(weighted sum of linked entity embeddings), so training and serving score
arrays of rows X = [v_t; v_e] (`_features`) through one forward pass
(`_forward`). `build_feature_table`, run once per CLI stage or `train_dreq`
call, holds the text vectors, a CSR map doc -> entity rows and the entity
store itself, whose matrix is the entity table (a fine-tuned run swaps in
its own store). The table reads the corpus links (`pipeline.CorpusLinks`),
not texts: a document's passage count follows from its sentence count, and
all passage rows come from one `take`. Per-document sums, over passages for
v_t and over links for entity weights and v_e, add left to right from zero,
as `v = v + x` does (`_row_sums`, or position by position over all documents
for v_t; numpy's reductions reassociate), so they are bit-identical to a
per-document loop; fusion and projection are matrix products, equal to
per-document ones up to rounding. `rerank` scores
`BLOCK_ROWS` candidates at a time to bound its temporaries at any depth.

The trainer runs its (template, fold) runs in lockstep through the same
functions: a `DreqModel` whose parameters, and the rows and entity tables it
scores, carry a leading run axis. `_forward`, `_features` and
`_entity_vectors` broadcast over it, and for each run compute exactly what
the 2-D call on that run's slice computes, so serving (2-D) and training
share one forward. Parameters are checked where they enter the program:
`load_checkpoint` rejects a non-finite one, and the trainer checks its fit
once, when it ends.

The `maxsimcos` baseline scores each distinct linked entity against the
query entities once, with `cosine`: its `np.dot` gives the bits of a
per-pair loop, which a matrix product does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import _npz
from .corpus import SegmenterConfig
from .embeddings import DimsConfig, EmbeddingStore, cosine, passage_key
from .retrieval import Ranking

if TYPE_CHECKING:  # pragma: no cover
    from .entity_ranking import EntityRanking
    from .pipeline import CorpusLinks

__all__ = [
    "BLOCK_ROWS",
    "WeightingMode",
    "DreqModel",
    "FeatureTable",
    "build_feature_table",
    "rerank",
    "maxsimcos_rerank",
    "save_checkpoint",
    "load_checkpoint",
]

#: candidate rows scored per forward call in `rerank`
BLOCK_ROWS = 128


class WeightingMode(str, Enum):
    PROBABILITY = "probability"
    UNIFORM = "uniform"
    RECIPROCAL_RANK = "reciprocal_rank"
    NONE = "none"  # no entities: v_e = 0


@dataclass
class DreqModel:
    """Trainable reranker parameters.

    W2: (p, m+n) fusion matrix, b2: (p,) fusion bias,
    w3: (5p,) scoring projection, b3: scalar scoring bias. The trainer's
    model gives each a leading run axis, b3 then being a (runs,) array.
    Construction checks the mode and shapes; `init` makes finite values, and
    other values are checked where they enter (the module docstring).
    """

    W2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    mode: WeightingMode = WeightingMode.PROBABILITY
    dims: DimsConfig = field(default_factory=DimsConfig)

    def __post_init__(self) -> None:
        self.mode = WeightingMode(self.mode)
        d = self.dims
        lead = np.shape(self.b3)  # (runs,) for runs trained in lockstep
        for name, shape in (("W2", (d.p, d.m + d.n)), ("b2", (d.p,)), ("w3", (5 * d.p,))):
            if getattr(self, name).shape != lead + shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {lead + shape}")

    @classmethod
    def init(
        cls,
        dims: DimsConfig,
        mode: WeightingMode = WeightingMode.PROBABILITY,
        seed: int = 0,
    ) -> "DreqModel":
        """Seeded uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out))."""
        rng = np.random.default_rng(seed)
        fan_in = dims.m + dims.n
        a2 = np.sqrt(6.0 / (fan_in + dims.p))
        W2 = rng.uniform(-a2, a2, size=(dims.p, fan_in))
        a3 = np.sqrt(6.0 / (5 * dims.p + 1))
        w3 = rng.uniform(-a3, a3, size=(5 * dims.p,))
        return cls(
            W2=W2,
            b2=np.zeros(dims.p),
            w3=w3,
            b3=0.0,
            mode=mode,
            dims=dims,
        )


def _row_sums(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Sum over `axis`, added slice by slice from zero: per row the
    left-to-right order of `v = v + x_j` (numpy's reductions reassociate)."""
    x = np.moveaxis(x, axis, 0)
    out = np.zeros(x.shape[1:])
    for part in x:
        out += part
    return out


@dataclass
class FeatureTable:
    """Query-independent document features shared by training and serving:
    doc i has text vector text[i] and links the rows
    entity_index[indptr[i]:indptr[i+1]] of the entity store's matrix
    `entities`. `empty_text_docs` docs have no sentences; their text vector
    is 0."""

    doc_ids: list[str]
    text: np.ndarray  # (docs, n)
    indptr: np.ndarray  # (docs + 1,)
    entity_index: np.ndarray  # (links,)
    entity_store: EmbeddingStore
    empty_text_docs: int

    def __post_init__(self) -> None:
        self.doc_row = {d: i for i, d in enumerate(self.doc_ids)}

    @property
    def entities(self) -> np.ndarray:
        """(entities, m) entity table, the store's own matrix."""
        return self.entity_store.vectors

    def rows(self, doc_ids: Iterable[str]) -> np.ndarray:
        try:
            return np.array([self.doc_row[d] for d in doc_ids], dtype=np.intp)
        except KeyError as e:
            raise KeyError(f"doc_id {e.args[0]!r} not in the feature table") from None

    def entity_weights(
        self, ranking: "EntityRanking", mode: WeightingMode, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(links, weights) of the docs at `rows`, both (rows, most links of a
        doc): row i is doc i's entity rows in mention order, padded with 0s.
        probability: prob_e / the doc's sum of probs (a softmax of raw scores
        where all of them underflow); uniform: 1; reciprocal_rank: 1 / rank;
        none: no links (zero width), and `ranking` is not read."""
        if mode == WeightingMode.NONE:
            return np.zeros((len(rows), 0), np.intp), np.zeros((len(rows), 0))
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        cols = np.arange(int(counts.max(initial=0)))
        linked = cols < counts[:, None]
        at = np.minimum(starts[:, None] + cols, len(self.entity_index) - 1)
        links = np.where(linked, self.entity_index[at], 0)
        store = self.entity_store
        store_rows = np.array([store.row.get(e, -1) for e in ranking.entity_ids], dtype=np.intp)
        known = store_rows >= 0
        prob, raw, rank = columns = np.full((3, len(store)), np.nan)
        ranked = np.stack((ranking.probs, ranking.raw_scores, np.arange(1.0, len(known) + 1)))
        columns[:, store_rows[known]] = ranked[:, known]
        absent = np.argwhere(linked & np.isnan(prob[links]))
        if absent.size:
            i, j = absent[0]
            raise KeyError(f"entity {store.ids[links[i, j]]!r} of doc {self.doc_ids[rows[i]]!r} "
                           f"missing from the entity ranking for query {ranking.query_id!r}")
        if mode == WeightingMode.UNIFORM:
            return links, linked.astype(np.float64)
        if mode == WeightingMode.RECIPROCAL_RANK:
            return links, linked / np.where(linked, rank[links], 1.0)
        p = np.where(linked, prob[links], 0.0)
        totals = _row_sums(p)
        weights = p / np.where(totals > 0, totals, 1.0)[:, None]
        for i in np.flatnonzero((totals == 0) & (counts > 0)):
            scores = raw[links[i, : counts[i]]]
            shifted = np.exp(scores - scores.max())
            weights[i, : counts[i]] = shifted / shifted.sum()
        return links, weights


def build_feature_table(
    links: CorpusLinks,
    doc_ids: Iterable[str],
    entity_store: EmbeddingStore,
    passage_store: EmbeddingStore,
    seg: SegmenterConfig = SegmenterConfig(),
) -> FeatureTable:
    """Feature table over the documents `doc_ids` (repeats skipped) of
    `links` and all of `entity_store`. A doc's passage count follows from
    its stored sentence count; its text vector is the mean of its passages'
    rows, gathered in one `take` and added position by position from zero,
    as `_row_sums` adds; a doc without sentences gets text vector 0, so
    only its entities score it."""
    doc_ids = list(dict.fromkeys(doc_ids))
    rows = links.rows(doc_ids)
    counts = np.array(
        [seg.passage_count(n) for n in links.sentences[rows].tolist()], dtype=np.intp
    )
    passages = passage_store.take(
        passage_key(d, i) for d, n in zip(doc_ids, counts.tolist()) for i in range(n)
    )
    starts = np.cumsum(counts) - counts
    text = np.zeros((len(doc_ids), passage_store.dim))
    for i in range(int(counts.max(initial=0))):
        has = np.flatnonzero(counts > i)
        text[has] += passages[starts[has] + i]
    has = counts > 0
    text[has] /= counts[has, None]

    linked, per_doc = links.linked(rows)
    store_row = np.array([entity_store.row.get(e, -1) for e in links.entity_ids], dtype=np.intp)
    index = store_row[linked]
    indptr = np.zeros(len(doc_ids) + 1, dtype=np.intp)
    np.cumsum(per_doc, out=indptr[1:])
    unembedded = np.flatnonzero(index < 0)
    if unembedded.size:
        at = unembedded[0]
        doc = doc_ids[np.searchsorted(indptr, at, side="right") - 1]
        raise KeyError(f"entity {links.entity_ids[linked[at]]!r} of doc {doc!r} has no embedding")
    return FeatureTable(
        doc_ids=doc_ids,
        text=text,
        indptr=indptr,
        entity_index=index,
        entity_store=entity_store,
        empty_text_docs=int(np.count_nonzero(counts == 0)),
    )


def _stacked_links(links: np.ndarray, n_entities: int) -> np.ndarray:
    """`links` (..., rows, L) of per-run tables (..., n_entities, m) as rows
    of those tables stacked into one (-1, m) table."""
    runs = int(np.prod(links.shape[:-2]))
    return links + (np.arange(runs) * n_entities).reshape(links.shape[:-2] + (1, 1))


def _entity_vectors(links: np.ndarray, weights: np.ndarray, entities: np.ndarray) -> np.ndarray:
    """(..., rows, m) entity-centric vectors: per row, the sum of w * E[link].
    Leading axes (runs) of `links` and `weights` match those of `entities`:
    each run reads its own table."""
    table = entities.reshape(-1, entities.shape[-1])
    return _row_sums(weights[..., None] * table[_stacked_links(links, entities.shape[-2])], -2)


def _features(
    text: np.ndarray, links: np.ndarray, weights: np.ndarray, entities: np.ndarray
) -> np.ndarray:
    """(..., rows, n + m) scorer inputs X = [Vt, Ve] of rows with text vectors `text`."""
    return np.concatenate((text, _entity_vectors(links, weights, entities)), axis=-1)


def _forward(model: DreqModel, Q: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scorer on a block of rows with inputs X = [Vt, Ve]: D = X W2^T + b2,
    F = [Q, D, Q+D, Q-D, Q*D]; returns F and the logits F w3 + b3. A leading
    run axis on the parameters, Q and X scores each run's block with its own
    parameters; per run, the products and sums are those of the 2-D case."""
    D = X @ np.swapaxes(model.W2, -1, -2) + model.b2[..., None, :]
    F = np.concatenate((Q, D, Q + D, Q - D, Q * D), axis=-1)
    return F, (F @ model.w3[..., None])[..., 0] + np.asarray(model.b3)[..., None]


def rerank(
    model: DreqModel,
    q_vec: np.ndarray,
    candidates: Ranking,
    table: FeatureTable,
    ranking: "EntityRanking",
) -> Ranking:
    """Reorder candidates by model logit (desc, doc_id asc on ties); every
    candidate must be in `table`. In mode none, v_e = 0 and the entity
    ranking is not read."""
    if not len(candidates):
        raise ValueError(f"empty candidate list for query {candidates.query_id!r}")
    rows = table.rows(candidates.doc_ids)
    links, weights = table.entity_weights(ranking, model.mode, rows)
    logits = np.empty(len(rows))
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        X = _features(table.text[rows[block]], links[block], weights[block], table.entities)
        Q = np.broadcast_to(q_vec, (X.shape[0], q_vec.shape[0]))
        logits[block] = _forward(model, Q, X)[1]
    return Ranking.from_scores(candidates.query_id, candidates.doc_ids, logits)


def maxsimcos_rerank(
    query_entity_ids: list[str],
    candidates: Ranking,
    links: CorpusLinks,
    entity_store: EmbeddingStore,
) -> Ranking | None:
    """Unsupervised baseline: a document scores the maximum cosine between
    any query entity embedding and any of its own entity embeddings.
    Documents without usable entities score -inf and sort last. Each distinct
    linked entity is scored against the query entities once. None when no
    query entity has an embedding: there is nothing to compare with.
    """
    query_vecs = [entity_store.get(e) for e in query_entity_ids if e in entity_store]
    if not query_vecs:
        return None
    best: dict[str, float] = {}
    scores = []
    for entity_ids in links.entities(candidates.doc_ids):
        linked = [e for e in entity_ids if e in entity_store]
        for eid in linked:
            if eid not in best:
                vec = entity_store.get(eid)
                best[eid] = max(cosine(qvec, vec) for qvec in query_vecs)
        scores.append(max((best[e] for e in linked), default=float("-inf")))
    return Ranking.from_scores(candidates.query_id, candidates.doc_ids, scores)


# --- checkpoint serialization -------------------------------------------------

# mode none is saved as mode probability with `use_entities` false, and any
# checkpoint with `use_entities` false loads in mode none
_CHECKPOINT_ARRAYS = ("dims", "mode", "use_entities", "W2", "b2", "w3", "b3")


def save_checkpoint(model: DreqModel, path: str) -> None:
    d = model.dims
    use_entities = model.mode != WeightingMode.NONE
    mode = model.mode if use_entities else WeightingMode.PROBABILITY
    _npz.write(path, {
        "dims": np.array([d.k, d.m, d.n, d.p]),
        "mode": np.frombuffer(mode.value.encode("utf-8"), dtype=np.uint8),
        "use_entities": np.array(use_entities),
        "W2": model.W2,
        "b2": model.b2,
        "w3": model.w3,
        "b3": np.array(model.b3),
    })


def load_checkpoint(path: str) -> DreqModel:
    """The model `save_checkpoint` wrote; every parameter must be finite."""
    arrays = _npz.read(path, _CHECKPOINT_ARRAYS, "checkpoint", "train-dreq")
    if not all(np.isfinite(arrays[name]).all() for name in ("W2", "b2", "w3", "b3")):
        raise ValueError(f"{path}: non-finite model parameters; rerun `dreq train-dreq`")
    k, m, n, p = arrays["dims"].tolist()
    mode = arrays["mode"].tobytes().decode("utf-8")
    return DreqModel(
        W2=arrays["W2"],
        b2=arrays["b2"],
        w3=arrays["w3"],
        b3=float(arrays["b3"]),
        mode=WeightingMode(mode) if arrays["use_entities"] else WeightingMode.NONE,
        dims=DimsConfig(k=k, m=m, n=n, p=p),
    )
