import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreq import _npz
from dreq.corpus import Document, EntityMention, SegmenterConfig
from dreq.embeddings import DimsConfig, EmbeddingStore, cosine, passage_key, sigmoid
from dreq.entity_ranking import EntityRanking
from dreq.model import (
    BLOCK_ROWS,
    DreqModel,
    WeightingMode,
    _entity_vectors,
    _forward,
    load_checkpoint,
    maxsimcos_rerank,
    rerank,
    save_checkpoint,
)
from dreq.pipeline import corpus_links
from dreq.retrieval import Ranking
from dreq.training import DreqBatch, _with_entities
from helpers import feature_table, segment_passages, store_from_rows


def dreq_logits(model, batch, entity_table):
    """Reference: the batch's logits, Ve summed again from `entity_table`,
    through `model._forward`, the pass `rerank` scores with."""
    return _forward(model, batch.Q, _with_entities(model, batch, entity_table))[1]


def doc_with(doc_id: str, entity_ids: list[str], text: str = "one sentence.") -> Document:
    mentions = [EntityMention(e, "one", 0, 3, 1.0) for e in entity_ids]
    return Document(doc_id, text, mentions)


def ranking_of(*scored) -> EntityRanking:
    return EntityRanking.from_raw_scores("q", [e for e, _ in scored], [s for _, s in scored])


def store_with(dim: int, **vectors) -> EmbeddingStore:
    rows = [(key, np.asarray(vec, dtype=np.float64)) for key, vec in vectors.items()]
    return store_from_rows("test", dim, rows)


# --- the per-document scorer, kept as the reference for the batched path ------


def reference_weights(doc, ranking, mode):
    """Per-document entity weights as a loop over the doc's entities."""
    entity_ids = doc.entity_ids
    if mode == WeightingMode.NONE:
        return []
    if mode == WeightingMode.UNIFORM:
        return [(e, 1.0) for e in entity_ids]
    if mode == WeightingMode.RECIPROCAL_RANK:
        return [(e, 1.0 / (ranking.entity_ids.index(e) + 1)) for e in entity_ids]
    prob = dict(zip(ranking.entity_ids, ranking.probs.tolist()))
    probs = [prob[e] for e in entity_ids]
    total = sum(probs)
    return [(e, p / total) for e, p in zip(entity_ids, probs)]


def reference_logit(model, q, doc, ranking, entity_store, passage_store, seg=SegmenterConfig()):
    """Sequential sums, concatenated features, w3 @ f + b3."""
    passages = segment_passages(doc, seg)
    v_t = np.zeros(passage_store.dim)
    for p in passages:
        v_t = v_t + passage_store.get(passage_key(p.doc_id, p.index))
    v_t = v_t / len(passages)
    v_e = np.zeros(model.dims.m)
    for e, w in reference_weights(doc, ranking, model.mode):
        v_e = v_e + w * entity_store.get(e)
    d = model.W2 @ np.concatenate([v_t, v_e]) + model.b2
    f = np.concatenate([q, d, q + d, q - d, q * d])
    return float(model.w3 @ f + model.b3)


# --- views of one document through the batched path ---------------------------


def text_store_for(docs, dim: int = 2) -> EmbeddingStore:
    passages = [p for doc in docs for p in segment_passages(doc, SegmenterConfig())]
    rows = [(passage_key(p.doc_id, p.index), np.ones(dim)) for p in passages]
    return store_from_rows("passage", dim, rows)


def weights_of(doc, ranking, mode, entity_store=None):
    """A document's (entity_id, weight) pairs as the feature table forms them."""
    if entity_store is None:
        entity_store = store_with(1, **{e: [1.0] for e in doc.entity_ids})
    table = feature_table([doc], entity_store, text_store_for([doc]))
    links, weights = table.entity_weights(ranking, mode, table.rows([doc.doc_id]))
    width = 0 if mode == WeightingMode.NONE else len(doc.entity_ids)
    assert links.shape == weights.shape == (1, width)
    return [(table.entity_store.ids[i], float(w)) for i, w in zip(links[0], weights[0])]


def entity_vector(weights, store: EmbeddingStore) -> np.ndarray:
    """One document's entity-centric vector through the batched segment sum."""
    links = np.array([[store.row[e] for e, _ in weights]], dtype=np.intp)
    w = np.array([[w for _, w in weights]], dtype=np.float64)
    return _entity_vectors(links, w, store.vectors)[0]


def fused(model, v_t, v_e) -> np.ndarray:
    """The fused document vector d = W2 [v_t; v_e] + b2 of one row."""
    p = model.dims.p
    F, _ = _forward(model, np.zeros((1, p)), np.concatenate([v_t, v_e])[None, :])
    return F[0, p : 2 * p]


def interactions(q, d_q):
    """The additive, subtractive and Hadamard blocks the forward builds."""
    p = q.shape[0]
    model = tiny_model(p=p)
    model.b2 = d_q  # W2 = 0, so the fused vector is b2
    F, _ = _forward(model, q[None, :], np.zeros((1, 4)))
    return F[0, 2 * p : 3 * p], F[0, 3 * p : 4 * p], F[0, 4 * p :]


def score_of(model, q, doc, ranking, es, ps) -> float:
    table = feature_table([doc], es, ps)
    return rerank(model, q, Ranking.from_scores("q", [doc.doc_id], [0.0]), table, ranking).scores[0]


class TestEntityWeights:
    def test_probability_single_entity_self_normalizes(self):
        ranking = ranking_of(("a", 5.0), ("b", 1.0), ("c", 0.0))
        weights = weights_of(doc_with("d", ["a"]), ranking, WeightingMode.PROBABILITY)
        assert weights == [("a", 1.0)]

    def test_uniform_is_all_ones(self):
        ranking = ranking_of(("a", 1.0), ("b", 2.0), ("c", 3.0))
        weights = weights_of(doc_with("d", ["a", "b", "c"]), ranking, WeightingMode.UNIFORM)
        assert weights == [("a", 1.0), ("b", 1.0), ("c", 1.0)]

    def test_reciprocal_rank(self):
        ranking = ranking_of(("top", 9.0), ("mid2", 3.0), ("mid1", 4.0), ("low", 1.0))
        weights = weights_of(
            doc_with("d", ["top", "low"]), ranking, WeightingMode.RECIPROCAL_RANK
        )
        assert weights == [("top", 1.0), ("low", 0.25)]

    def test_duplicate_mentions_collapse(self):
        ranking = ranking_of(("a", 1.0), ("b", 0.0))
        weights = weights_of(doc_with("d", ["a", "a", "b"]), ranking, WeightingMode.UNIFORM)
        assert [e for e, _ in weights] == ["a", "b"]

    def test_probability_weights_sum_to_one(self):
        ranking = ranking_of(("a", 0.3), ("b", -1.2), ("c", 2.0), ("d", 0.0))
        weights = weights_of(
            doc_with("d", ["a", "c", "d"]), ranking, WeightingMode.PROBABILITY
        )
        assert sum(w for _, w in weights) == pytest.approx(1.0, abs=1e-9)

    def test_missing_entity_rejected(self):
        ranking = ranking_of(("a", 1.0))
        with pytest.raises(KeyError, match="ghost"):
            weights_of(doc_with("d", ["ghost"]), ranking, WeightingMode.PROBABILITY)

    def test_zero_entity_doc_empty(self):
        ranking = ranking_of(("a", 1.0))
        assert weights_of(doc_with("d", []), ranking, WeightingMode.PROBABILITY) == []

    def test_underflowing_probabilities_use_raw_scores(self):
        # exp(-800) underflows: both of the doc's probabilities are exactly 0
        ranking = ranking_of(("top", 0.0), ("a", -800.0), ("b", -801.0))
        prob = dict(zip(ranking.entity_ids, ranking.probs.tolist()))
        assert prob["a"] == prob["b"] == 0.0
        weights = weights_of(doc_with("d", ["a", "b"]), ranking, WeightingMode.PROBABILITY)
        values = np.array([w for _, w in weights])
        assert np.all(np.isfinite(values))
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert values[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(4)
        ids = [f"e{i}" for i in range(12)]
        ranking = ranking_of(*((e, float(rng.normal(0, 3))) for e in ids))
        for mode in WeightingMode:
            for n in (1, 5, 12):
                doc = doc_with("d", list(rng.choice(ids, size=n, replace=False)))
                assert weights_of(doc, ranking, mode) == reference_weights(doc, ranking, mode)


class TestEntityCentricEmbedding:
    def test_single_entity_verbatim(self):
        store = store_with(3, a=[0.1, -0.2, 0.7])
        out = entity_vector([("a", 1.0)], store)
        assert np.array_equal(out, store.get("a"))

    def test_midpoint(self):
        store = store_with(2, a=[1.0, 0.0], b=[0.0, 1.0])
        out = entity_vector([("a", 0.5), ("b", 0.5)], store)
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_three_entity_hand_sum(self):
        store = store_with(2, a=[1.0, 2.0], b=[-1.0, 0.5], c=[3.0, -2.0])
        out = entity_vector([("a", 0.2), ("b", 0.3), ("c", 0.5)], store)
        expected = [0.2 * 1 + 0.3 * -1 + 0.5 * 3, 0.2 * 2 + 0.3 * 0.5 + 0.5 * -2]
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_entities_zero_vector(self):
        assert np.array_equal(entity_vector([], store_with(4)), np.zeros(4))

    def test_missing_embedding_names_entity(self):
        doc = doc_with("d", ["nope"])
        with pytest.raises(KeyError, match="nope"):
            weights_of(doc, ranking_of(("nope", 1.0)), WeightingMode.UNIFORM, store_with(2))

    def test_uniform_equals_unweighted_sum_exactly(self):
        rng = np.random.default_rng(5)
        store = store_with(4, **{f"e{i}": rng.standard_normal(4) for i in range(5)})
        weights = [(f"e{i}", 1.0) for i in range(5)]
        out = entity_vector(weights, store)
        expected = np.zeros(4)
        for i in range(5):
            expected = expected + store.get(f"e{i}")
        assert np.array_equal(out, expected)

    def test_homogeneity_power_of_two_exact(self):
        rng = np.random.default_rng(6)
        store = store_with(3, **{f"e{i}": rng.standard_normal(3) for i in range(4)})
        weights = [(f"e{i}", float(rng.uniform(0.1, 1))) for i in range(4)]
        base = entity_vector(weights, store)
        for c in (2.0, 0.5, 8.0):
            scaled = entity_vector([(e, c * w) for e, w in weights], store)
            assert np.array_equal(scaled, c * base)

    @given(st.floats(0.1, 10.0))
    def test_homogeneity_general(self, c):
        store = store_with(2, a=[0.3, -0.7], b=[1.1, 0.2])
        weights = [("a", 0.4), ("b", 0.6)]
        base = entity_vector(weights, store)
        scaled = entity_vector([(e, c * w) for e, w in weights], store)
        assert np.allclose(scaled, c * base, rtol=1e-12, atol=0)

    def test_rows_sum_left_to_right_bit_exact(self):
        rng = np.random.default_rng(8)
        entities = rng.standard_normal((9, 3)) * 10.0 ** rng.uniform(-6, 6, size=(9, 1))
        counts = [0, 1, 9, 3, 0, 7]
        links = np.zeros((len(counts), 9), dtype=np.intp)
        weights = np.zeros((len(counts), 9))
        for row, c in enumerate(counts):
            links[row, :c] = rng.permutation(9)[:c]
            weights[row, :c] = rng.uniform(0.01, 3.0, size=c)
        out = _entity_vectors(links, weights, entities)
        for row, c in enumerate(counts):
            v = np.zeros(3)
            for j in range(c):
                v = v + weights[row, j] * entities[links[row, j]]
            assert np.array_equal(out[row], v)


class TestTextCentricEmbedding:
    """A document's text vector in the feature table: the mean of its passages."""

    def text_vector(self, doc, store):
        seg = SegmenterConfig(window=1, stride=1)
        return feature_table([doc], store_with(1), store, seg).text[0]

    def test_single_passage_verbatim(self):
        doc = doc_with("d", [], text="only sentence.")
        store = store_with(2, **{"d::0": [0.4, 0.6]})
        assert np.array_equal(self.text_vector(doc, store), [0.4, 0.6])

    def test_opposite_vectors_average_to_zero(self):
        doc = doc_with("d", [], text="one. two.")
        store = store_with(2, **{"d::0": [1.0, -2.0], "d::1": [-1.0, 2.0]})
        assert np.allclose(self.text_vector(doc, store), [0.0, 0.0], atol=1e-15)

    def test_component_mean(self):
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((3, 2))
        doc = doc_with("d", [], text="one. two. three.")
        store = store_with(2, **{f"d::{i}": vecs[i] for i in range(3)})
        assert np.allclose(self.text_vector(doc, store), vecs.mean(axis=0), atol=1e-12)

    def test_no_passages_give_zero(self):
        doc = doc_with("d", [], text="")
        assert np.array_equal(self.text_vector(doc, store_with(2)), [0.0, 0.0])


def tiny_model(p=2, m=2, n=2, mode=WeightingMode.PROBABILITY, **kw) -> DreqModel:
    dims = DimsConfig(k=2, m=m, n=n, p=p)
    return DreqModel(
        W2=np.zeros((p, m + n)),
        b2=np.zeros(p),
        w3=np.zeros(5 * p),
        b3=0.0,
        mode=mode,
        dims=dims,
        **kw,
    )


class TestHybridAndInteractions:
    def test_zero_fusion_gives_bias(self):
        model = tiny_model()
        model.b2 = np.array([0.7, -0.3])
        out = fused(model, np.ones(2), np.ones(2))
        assert np.array_equal(out, model.b2)

    def test_projection_selects_text_block(self):
        model = tiny_model()
        model.W2 = np.hstack([np.eye(2), np.zeros((2, 2))])
        v_t = np.array([0.25, -0.5])
        out = fused(model, v_t, np.array([9.0, 9.0]))
        assert np.array_equal(out, v_t)

    def test_random_dims_hand_product(self):
        rng = np.random.default_rng(2)
        dims = DimsConfig(k=2, m=3, n=2, p=2)
        model = DreqModel(
            W2=rng.standard_normal((2, 5)),
            b2=rng.standard_normal(2),
            w3=np.zeros(10),
            b3=0.0,
            dims=dims,
        )
        v_t, v_e = rng.standard_normal(2), rng.standard_normal(3)
        x = np.concatenate([v_t, v_e])
        expected = [sum(model.W2[r, c] * x[c] for c in range(5)) + model.b2[r] for r in range(2)]
        assert np.allclose(fused(model, v_t, v_e), expected, atol=1e-12)

    def test_interactions(self):
        q = np.array([1.0, 2.0])
        dq = np.array([3.0, -1.0])
        add, sub, mul = interactions(q, dq)
        assert np.array_equal(add, [4.0, 1.0])
        assert np.array_equal(sub, [-2.0, 3.0])
        assert np.array_equal(mul, [3.0, -2.0])

    def test_interactions_identities(self):
        q = np.array([0.5, -0.5])
        add, sub, mul = interactions(q, q)
        assert np.array_equal(sub, np.zeros(2))
        add, sub, mul = interactions(q, np.zeros(2))
        assert np.array_equal(add, q) and np.array_equal(sub, q)
        assert np.array_equal(mul, np.zeros(2))

    def test_dim_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            _forward(model, np.ones((1, 3)), np.ones((1, 4)))


class TestScoreDocument:
    def build_world(self):
        # dims k=m=n=p=2; raw scores ln3 and 0 give probs 0.75 / 0.25
        doc = doc_with("d1", ["e1", "e2"], text="x1 x2.")
        ranking = ranking_of(("e1", math.log(3.0)), ("e2", 0.0))
        entity_store = store_with(2, e1=[2.0, 0.0], e2=[0.0, 4.0])
        passage_store = store_with(2, **{"d1::0": [0.5, -0.5]})
        model = tiny_model()
        model.W2 = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        model.b2 = np.array([0.1, -0.1])
        model.w3 = np.array([0.05, -0.05, 0.1, 0.2, -0.1, 0.3, 0.2, -0.2, 0.15, 0.25])
        model.b3 = 0.05
        q = np.array([1.0, 2.0])
        return model, q, doc, ranking, entity_store, passage_store

    def test_constant_model(self):
        model, q, doc, ranking, es, ps = self.build_world()
        model.W2 = np.zeros_like(model.W2)
        model.b2 = np.zeros_like(model.b2)
        model.w3 = np.zeros_like(model.w3)
        model.b3 = 1.25
        logit = score_of(model, q, doc, ranking, es, ps)
        assert logit == 1.25
        assert sigmoid(logit) == pytest.approx(1 / (1 + math.exp(-1.25)), abs=1e-12)

    def test_purity(self):
        model, q, doc, ranking, es, ps = self.build_world()
        a = score_of(model, q, doc, ranking, es, ps)
        b = score_of(model, q, doc, ranking, es, ps)
        assert a == b

    def test_full_hand_trace(self):
        model, q, doc, ranking, es, ps = self.build_world()
        logit = score_of(model, q, doc, ranking, es, ps)
        # weights 0.75/0.25 -> V_e = (1.5, 1.0); V_t = (0.5, -0.5)
        # d = W2 [V_t; V_e] + b2 = (2.1, 0.4)
        # features = [1,2, 2.1,0.4, 3.1,2.4, -1.1,1.6, 2.1,0.8]
        expected = (
            0.05 * 1 - 0.05 * 2
            + 0.1 * 2.1 + 0.2 * 0.4
            - 0.1 * 3.1 + 0.3 * 2.4
            + 0.2 * -1.1 - 0.2 * 1.6
            + 0.15 * 2.1 + 0.25 * 0.8
            + 0.05
        )
        assert logit == pytest.approx(expected, abs=1e-12)
        assert logit == pytest.approx(0.675, abs=1e-12)
        assert logit == pytest.approx(reference_logit(model, q, doc, ranking, es, ps), abs=1e-12)
        weights = weights_of(doc, ranking, WeightingMode.PROBABILITY, es)
        assert weights[0][1] == pytest.approx(0.75, abs=1e-12)

    def test_no_entity_ablation_ignores_entity_store(self):
        model, q, doc, ranking, es, ps = self.build_world()
        model.mode = WeightingMode.NONE
        base = score_of(model, q, doc, ranking, es, ps)
        perturbed = store_with(2, e1=[999.0, -999.0], e2=[123.0, 321.0])
        again = score_of(model, q, doc, ranking, perturbed, ps)
        assert base == again

    def test_shift_invariance_of_raw_scores(self):
        model, q, doc, ranking, es, ps = self.build_world()
        base = score_of(model, q, doc, ranking, es, ps)
        for c in (-3.0, 0.7, 42.0):
            shifted = ranking_of(("e1", math.log(3.0) + c), ("e2", 0.0 + c))
            logit = score_of(model, q, doc, shifted, es, ps)
            assert logit == pytest.approx(base, abs=1e-9)


class TestRerank:
    def build(self, n_docs=6, seed=0):
        rng = np.random.default_rng(seed)
        docs = {}
        entity_rows, passage_rows, scored = [], [], []
        for i in range(n_docs):
            doc_id = f"d{i}"
            eid = f"e{i}"
            docs[doc_id] = doc_with(doc_id, [eid], text="sent one.")
            entity_rows.append((eid, rng.standard_normal(2)))
            passage_rows.append((f"{doc_id}::0", rng.standard_normal(2)))
            scored.append((doc_id, float(n_docs - i)))
        entity_store = store_from_rows("e", 2, entity_rows)
        passage_store = store_from_rows("p", 2, passage_rows)
        ranking = EntityRanking.from_raw_scores(
            "q", [f"e{i}" for i in range(n_docs)], rng.standard_normal(n_docs)
        )
        candidates = Ranking.from_scores("q", *zip(*scored))
        model = DreqModel.init(DimsConfig(2, 2, 2, 2), seed=3)
        q = rng.standard_normal(2)
        return model, q, candidates, docs, ranking, entity_store, passage_store

    def table(self, docs, es, ps):
        return feature_table(docs.values(), es, ps)

    def test_output_is_permutation(self):
        model, q, cands, docs, ranking, es, ps = self.build()
        out = rerank(model, q, cands, self.table(docs, es, ps), ranking)
        assert sorted(out.doc_ids) == sorted(cands.doc_ids)
        assert len(out) == len(cands)

    def test_single_candidate_unchanged(self):
        model, q, cands, docs, ranking, es, ps = self.build(n_docs=1)
        out = rerank(model, q, cands, self.table(docs, es, ps), ranking)
        assert out.doc_ids == cands.doc_ids

    def test_order_matches_exhaustive_scoring(self):
        model, q, cands, docs, ranking, es, ps = self.build(n_docs=10)
        out = rerank(model, q, cands, self.table(docs, es, ps), ranking)
        logits = {
            d: reference_logit(model, q, docs[d], ranking, es, ps) for d in cands.doc_ids
        }
        expected = [d for d, _ in sorted(logits.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert out.doc_ids == expected

    def test_candidate_outside_table_named(self):
        model, q, cands, docs, ranking, es, ps = self.build(n_docs=3)
        table = feature_table([docs["d0"]], es, ps)
        with pytest.raises(KeyError, match="d1"):
            rerank(model, q, cands, table, ranking)

    def test_underflowing_probabilities_rank_every_candidate(self):
        model, q, cands, docs, ranking, es, ps = self.build(n_docs=4)
        # e1..e3 sit ~800 raw-score units below e0: their probabilities are 0
        ranking = EntityRanking.from_raw_scores(
            "q", ["e0", "e1", "e2", "e3"], [0.0, -800.0, -805.0, -900.0]
        )
        out = rerank(model, q, cands, self.table(docs, es, ps), ranking)
        assert sorted(out.doc_ids) == sorted(cands.doc_ids)
        assert np.isfinite(out.scores).all()


def random_world(seed: int, n_docs: int, dims: DimsConfig, n_entities: int = 7):
    """Docs with 0..6 linked entities (some with none), one query's ranking."""
    rng = np.random.default_rng(seed)
    entity_store = store_from_rows(
        "entity", dims.m, [(f"e{i}", rng.standard_normal(dims.m)) for i in range(n_entities)]
    )
    passage_rows, docs = [], []
    for i in range(n_docs):
        text = " ".join(f"s{j}." for j in range(int(rng.integers(1, 14))))
        linked = list(rng.choice(n_entities, size=int(rng.integers(0, 7)), replace=True))
        doc = doc_with(f"d{i:04d}", [f"e{j}" for j in linked], text=text)
        for p in segment_passages(doc, SegmenterConfig()):
            passage_rows.append((passage_key(p.doc_id, p.index), rng.standard_normal(dims.n)))
        docs.append(doc)
    passage_store = store_from_rows("passage", dims.n, passage_rows)
    ranking = EntityRanking.from_raw_scores(
        "q", [f"e{i}" for i in range(n_entities)], rng.normal(0.0, 4.0, n_entities)
    )
    model = DreqModel(
        W2=rng.standard_normal((dims.p, dims.m + dims.n)),
        b2=rng.standard_normal(dims.p),
        w3=rng.standard_normal(5 * dims.p),
        b3=float(rng.standard_normal()),
        dims=dims,
    )
    return model, rng.standard_normal(dims.p), docs, ranking, entity_store, passage_store


class TestBatchedMatchesReference:
    """rerank and dreq_logits against the per-document reference scorer."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_docs=st.sampled_from([1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
        mode=st.sampled_from(list(WeightingMode)),
    )
    def test_rerank(self, seed, n_docs, mode):
        dims = DimsConfig(2, 3, 4, 3)
        model, q, docs, ranking, es, ps = random_world(seed, n_docs, dims)
        model.mode = mode
        cands = Ranking.from_scores("q", [d.doc_id for d in docs], [float(-i) for i in range(len(docs))])
        out = rerank(model, q, cands, feature_table(docs, es, ps), ranking)
        expected = {d.doc_id: reference_logit(model, q, d, ranking, es, ps) for d in docs}
        got = dict(zip(out.doc_ids, out.scores.tolist()))
        assert got.keys() == expected.keys()
        for doc_id, logit in expected.items():
            assert abs(got[doc_id] - logit) <= 1e-12
        assert out.doc_ids == [d for d, _ in sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_docs=st.integers(1, 40),
        mode=st.sampled_from(list(WeightingMode)),
    )
    def test_dreq_logits(self, seed, n_docs, mode):
        dims = DimsConfig(2, 3, 4, 3)
        model, q, docs, ranking, es, ps = random_world(seed, n_docs, dims)
        model.mode = mode
        table = feature_table(docs, es, ps)
        rows = table.rows(d.doc_id for d in docs)
        links, weights = table.entity_weights(ranking, mode, rows)
        batch = DreqBatch(
            Q=np.tile(q, (len(rows), 1)),
            X=np.hstack([table.text[rows], _entity_vectors(links, weights, table.entities)]),
            links=links,
            weights=weights,
            y=np.zeros(len(rows)),
        )
        logits = dreq_logits(model, batch, table.entities)
        for doc, logit in zip(docs, logits):
            assert abs(logit - reference_logit(model, q, doc, ranking, es, ps)) <= 1e-12


class TestFeatureTableStore:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_text_equals_per_passage_loop(self, seed):
        rng = np.random.default_rng(seed)
        window = int(rng.integers(1, 4))
        seg = SegmenterConfig(window, int(rng.integers(1, window + 1)))  # up to 20 passages a doc
        docs = []
        for i in range(30):  # some documents without sentences
            text = " ".join(f"s{j}." for j in range(int(rng.integers(0, 21))))
            docs.append(doc_with(f"d{i}", [], text))
        passages = [p for doc in docs for p in segment_passages(doc, seg)]
        scales = 10.0 ** rng.integers(-8, 8, size=len(passages))  # mixed magnitudes round
        vectors = rng.standard_normal((len(passages), 5)) * scales[:, None]
        ps = EmbeddingStore("passage", [passage_key(p.doc_id, p.index) for p in passages], vectors)
        table = feature_table(docs, store_with(1), ps, seg)
        for doc, row in zip(docs, table.text):
            passages = segment_passages(doc, seg)
            total = np.zeros(5)
            for p in passages:
                total = total + ps.get(passage_key(p.doc_id, p.index))
            assert row.tobytes() == (total / max(len(passages), 1)).tobytes()
        assert table.empty_text_docs == sum(1 for doc in docs if not doc.text)

    def test_entity_matrix_is_the_stores(self):
        _, _, docs, _, es, ps = random_world(5, 10, DimsConfig(2, 3, 4, 3))
        table = feature_table(docs, es, ps)
        assert table.entity_store is es
        assert np.shares_memory(table.entities, es.vectors)


def reference_maxsimcos(query_entity_ids, candidates, docs, entity_store) -> Ranking:
    """maxsimcos as a loop over documents x linked entities x query entities."""
    query_vecs = [entity_store.get(e) for e in query_entity_ids if e in entity_store]
    scores = []
    for doc_id in candidates.doc_ids:
        best = float("-inf")
        for eid in docs[doc_id].entity_ids:
            if eid not in entity_store:
                continue
            dvec = entity_store.get(eid)
            for qvec in query_vecs:
                c = cosine(qvec, dvec)
                if c > best:
                    best = c
        scores.append(best)
    return Ranking.from_scores(candidates.query_id, candidates.doc_ids, scores)


class TestMaxSimCosMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_bit_identical(self, seed, n_query):
        rng = np.random.default_rng(seed)
        names = [f"e{i}" for i in range(6)]
        vectors = {name: rng.standard_normal(3) for name in names}
        # parallel to "q0": both tie docs score exactly 1.0
        vectors.update(q0=np.array([1.0, 0.0, 0.0]), par1=np.array([3.0, 0.0, 0.0]),
                       par2=np.array([0.5, 0.0, 0.0]))
        store = store_with(3, **vectors)
        pick = names + ["unembedded", "missing"]
        docs = {
            "tie_b": doc_with("tie_b", ["par1"]),
            "tie_a": doc_with("tie_a", ["e0", "par2"]),
            "none": doc_with("none", []),
            "only_unembedded": doc_with("only_unembedded", ["missing"]),
        }
        for i in range(12):  # repeats and unembedded links among them
            linked = [pick[j] for j in rng.integers(0, len(pick), size=int(rng.integers(0, 7)))]
            docs[f"d{i}"] = doc_with(f"d{i}", linked)
        cands = Ranking.from_scores("q", list(docs), [float(-i) for i in range(len(docs))])
        query = ["q0", "unembedded"] + [names[j] for j in rng.integers(0, 6, size=n_query - 1)]
        got = maxsimcos_rerank(query, cands, corpus_links(docs.values()), store)
        want = reference_maxsimcos(query, cands, docs, store)
        assert got.doc_ids == want.doc_ids
        assert [s.hex() for s in got.scores.tolist()] == [s.hex() for s in want.scores.tolist()]
        at = {d: (i, s) for i, (d, s) in enumerate(zip(got.doc_ids, got.scores.tolist()))}
        assert at["tie_a"][1] == at["tie_b"][1] == 1.0 and at["tie_a"][0] < at["tie_b"][0]
        assert got.doc_ids[-2:] == ["none", "only_unembedded"]


class TestMaxSimCos:
    def test_doc_containing_query_entity_scores_one(self):
        entity_store = store_with(2, qe=[1.0, 0.0], other=[0.0, 1.0])
        docs = {"d1": doc_with("d1", ["qe"]), "d2": doc_with("d2", ["other"])}
        cands = Ranking.from_scores("q", ["d1", "d2"], [1.0, 0.9])
        out = maxsimcos_rerank(["qe"], cands, corpus_links(docs.values()), entity_store)
        assert out.doc_ids[0] == "d1"
        assert out.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        entity_store = store_with(2, qe=[1.0, 0.0], de=[0.0, 1.0])
        docs = {"d1": doc_with("d1", ["de"])}
        cands = Ranking.from_scores("q", ["d1"], [1.0])
        out = maxsimcos_rerank(["qe"], cands, corpus_links(docs.values()), entity_store)
        assert out.scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_max_over_pair_grid(self):
        rng = np.random.default_rng(17)
        vecs = {name: rng.standard_normal(3) for name in ("qa", "qb", "da", "db")}
        entity_store = store_with(3, **vecs)
        docs = {"d1": doc_with("d1", ["da", "db"])}
        cands = Ranking.from_scores("q", ["d1"], [1.0])
        out = maxsimcos_rerank(["qa", "qb"], cands, corpus_links(docs.values()), entity_store)
        expected = max(
            cosine(vecs[q], vecs[d]) for q in ("qa", "qb") for d in ("da", "db")
        )
        assert out.scores[0] == pytest.approx(expected, abs=1e-12)

    def test_doc_without_entities_sorts_last(self):
        entity_store = store_with(2, qe=[1.0, 0.0], de=[0.5, 0.5])
        docs = {"d1": doc_with("d1", []), "d2": doc_with("d2", ["de"])}
        cands = Ranking.from_scores("q", ["d1", "d2"], [5.0, 1.0])
        out = maxsimcos_rerank(["qe"], cands, corpus_links(docs.values()), entity_store)
        assert out.doc_ids == ["d2", "d1"]
        assert out.scores[1] == float("-inf")

    def test_query_without_entities_gives_none(self):
        entity_store = store_with(2, de=[0.5, 0.5])
        docs = {"d1": doc_with("d1", ["de"])}
        cands = Ranking.from_scores("q", ["d1"], [1.0])
        assert maxsimcos_rerank([], cands, corpus_links(docs.values()), entity_store) is None


class TestCheckpoint:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(list(WeightingMode)))
    def test_round_trip_bit_exact(self, seed, mode):
        dims = DimsConfig(3, 4, 2, 3)
        model = DreqModel.init(dims, mode=mode, seed=seed)
        model.b3 = float(np.random.default_rng(seed).standard_normal())
        import tempfile, os

        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "m.ckpt")
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            with np.load(path) as npz:
                stored = dict(npz)
        assert np.array_equal(loaded.W2, model.W2)
        assert np.array_equal(loaded.b2, model.b2)
        assert np.array_equal(loaded.w3, model.w3)
        assert loaded.b3 == model.b3
        assert loaded.mode == model.mode
        assert loaded.dims == model.dims
        # the file keeps its format: mode none is stored as probability with
        # `use_entities` false
        none = mode == WeightingMode.NONE
        assert stored["mode"].tobytes().decode() == ("probability" if none else mode.value)
        assert bool(stored["use_entities"]) is not none

    @pytest.mark.parametrize("mode", [m for m in WeightingMode if m != WeightingMode.NONE])
    def test_a_checkpoint_without_entities_loads_in_mode_none(self, tmp_path, mode):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(DreqModel.init(DimsConfig(3, 4, 2, 3), mode=mode, seed=1), path)
        with np.load(path) as npz:
            arrays = dict(npz)
        arrays["use_entities"] = np.array(False)
        _npz.write(path, arrays)
        assert load_checkpoint(path).mode == WeightingMode.NONE

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DreqModel(
                W2=np.zeros((2, 3)),
                b2=np.zeros(2),
                w3=np.zeros(10),
                b3=0.0,
                dims=DimsConfig(2, 2, 2, 2),
            )
