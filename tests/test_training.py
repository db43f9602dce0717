import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreq.corpus import CorpusStore, Qrels
from dreq.embeddings import DimsConfig, EmbeddingStore
from dreq.entity_ranking import EntityRanking
from dreq.corpus import Document, EntityMention
from dreq.model import BLOCK_ROWS, DreqModel, WeightingMode, _entity_vectors, _forward
from dreq.pipeline import VARIANTS
from dreq.retrieval import Ranking
from dreq.training import (
    AdamState,
    DreqBatch,
    TrainConfig,
    TrainData,
    adam_step,
    bce_dlogits,
    bce_loss,
    build_doc_examples,
    build_entity_examples,
    dreq_loss_and_grads,
    make_folds,
    train_dreq,
    train_feature_table,
    _example_batch,
    _scorer_views,
    _with_entities,
    _take,
)
from helpers import store_from_rows


def dreq_logits(model, batch, entity_table):
    """Reference: the batch's logits, Ve summed again from `entity_table`,
    through `model._forward`, the pass `rerank` scores with."""
    return _forward(model, batch.Q, _with_entities(model, batch, entity_table))[1]


class TestMakeFolds:
    def test_ten_queries_two_per_fold(self):
        plan = make_folds([f"q{i}" for i in range(10)], k=5, seed=1)
        assert sorted(len(f.test) for f in plan.folds) == [2, 2, 2, 2, 2]

    def test_eleven_queries_remainder(self):
        plan = make_folds([f"q{i}" for i in range(11)], k=5, seed=1)
        assert sorted(len(f.test) for f in plan.folds) == [2, 2, 2, 2, 3]

    def test_partition_and_disjoint_train(self):
        qids = [f"q{i}" for i in range(17)]
        plan = make_folds(qids, k=5, seed=3)
        seen = []
        for fold in plan.folds:
            seen.extend(fold.test)
            assert not set(fold.test) & set(fold.train)
            assert sorted(set(fold.test) | set(fold.train)) == sorted(qids)
        assert sorted(seen) == sorted(qids)

    def test_too_few_queries(self):
        with pytest.raises(ValueError):
            make_folds(["q1", "q2"], k=5, seed=1)

    @pytest.mark.parametrize("k", [0, 1, -3])
    def test_fewer_than_two_folds(self, k):
        with pytest.raises(ValueError, match=f"got k={k}$"):
            make_folds([f"q{i}" for i in range(6)], k=k, seed=1)

    def test_round_trip(self, tmp_path):
        plan = make_folds([f"q{i}" for i in range(7)], k=5, seed=2)
        path = str(tmp_path / "folds.json")
        plan.save(path)
        from dreq.training import FoldPlan

        loaded = FoldPlan.load(path)
        assert loaded.folds == plan.folds

    @given(st.integers(5, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, n, seed):
        qids = [f"q{i:03d}" for i in range(n)]
        plan = make_folds(qids, k=5, seed=seed)
        tests = [q for fold in plan.folds for q in fold.test]
        assert sorted(tests) == sorted(qids)


def candidates_for(qid, doc_ids):
    return Ranking.from_scores(qid, doc_ids, [float(len(doc_ids) - i) for i in range(len(doc_ids))])


class TestBuildDocExamples:
    def qrels_with(self, qid, relevant, judged_zero=()):
        qrels = Qrels()
        for d in relevant:
            qrels.add(qid, d, 1)
        for d in judged_zero:
            qrels.add(qid, d, 0)
        return qrels

    def test_balanced_sampling(self):
        qrels = self.qrels_with("q1", ["r1", "r2", "r3"])
        cands = {"q1": candidates_for("q1", [f"n{i}" for i in range(100)] + ["r1", "r2", "r3"])}
        examples = build_doc_examples(qrels, cands, seed=5)
        pos = [e for e in examples if e.label == 1]
        neg = [e for e in examples if e.label == 0]
        assert len(pos) == 3 and len(neg) == 3

    def test_pool_exhaustion(self):
        qrels = self.qrels_with("q1", ["r1", "r2", "r3", "r4", "r5"])
        cands = {"q1": candidates_for("q1", ["n1", "n2", "r1", "r2", "r3", "r4", "r5"])}
        examples = build_doc_examples(qrels, cands, seed=5)
        assert sum(1 for e in examples if e.label == 0) == 2

    def test_deterministic(self):
        qrels = self.qrels_with("q1", ["r1"])
        cands = {"q1": candidates_for("q1", [f"n{i}" for i in range(50)] + ["r1"])}
        a = build_doc_examples(qrels, cands, seed=9)
        b = build_doc_examples(qrels, cands, seed=9)
        assert a == b

    def test_zero_positive_query_skipped(self, caplog):
        qrels = self.qrels_with("q1", ["r1"])
        cands = {
            "q1": candidates_for("q1", ["r1", "n1"]),
            "q2": candidates_for("q2", ["n1", "n2"]),
        }
        with caplog.at_level("WARNING"):
            examples = build_doc_examples(qrels, cands, seed=1)
        assert all(e.query_id == "q1" for e in examples)
        assert "q2" in caplog.text

    def test_judged_relevant_candidates_not_negatives(self):
        qrels = self.qrels_with("q1", ["r1", "r2"], judged_zero=["j0"])
        cands = {"q1": candidates_for("q1", ["r1", "r2", "j0", "n1", "n2", "n3"])}
        examples = build_doc_examples(qrels, cands, seed=2)
        negs = {e.item_id for e in examples if e.label == 0}
        assert negs <= {"j0", "n1", "n2", "n3"}
        assert len(negs) == 2


def test_build_entity_examples_balanced():
    labels = {"a": 1, "b": 0, "c": 0, "d": 1, "e": 0, "f": 0}
    examples = build_entity_examples(labels, "q1", seed=4)
    assert sum(1 for e in examples if e.label == 1) == 2
    assert sum(1 for e in examples if e.label == 0) == 2
    assert build_entity_examples(labels, "q1", seed=4) == examples


class TestBceLoss:
    def test_perfect_prediction(self):
        assert bce_loss([500.0], [1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_half_probability(self):
        assert bce_loss([0.0], [1.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_batch(self):
        # p = (0.8, 0.3) with y = (1, 0) -> (-ln .8 - ln .7) / 2
        logits = [math.log(0.8 / 0.2), math.log(0.3 / 0.7)]
        expected = (-math.log(0.8) - math.log(0.7)) / 2
        assert bce_loss(logits, [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        assert bce_loss(logits, [1.0, 0.0]) == pytest.approx(0.2899092, abs=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss([], [])

    @given(
        st.lists(st.floats(-30, 30), min_size=1, max_size=8),
        st.integers(0, 2**16),
    )
    def test_non_negative(self, logits, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=len(logits)).astype(float)
        assert bce_loss(logits, labels) >= 0.0


class TestAdam:
    def cfg(self, lr=0.1):
        return TrainConfig(learning_rate=lr, batch_size=1, epochs=1, seed=0)

    def test_zero_gradient_no_motion(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState()
        adam_step(params, grads, state, self.cfg())
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert np.array_equal(state.m["w"], np.zeros(2))
        assert np.array_equal(state.v["w"], np.zeros(2))

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = AdamState()
        adam_step(params, {"w": np.array([1.0])}, state, self.cfg(lr=0.1))
        # bias-corrected m_hat / (sqrt(v_hat) + eps) == 1 / (1 + 1e-8)
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(0)
            params = {"w": np.zeros(3)}
            state = AdamState()
            for _ in range(25):
                g = rng.standard_normal(3)
                adam_step(params, {"w": g}, state, self.cfg())
            return params["w"].copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(), self.cfg())

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -1e-5])
    def test_a_learning_rate_that_is_no_positive_finite_number_is_rejected(self, lr):
        with pytest.raises(ValueError, match=rf"^train\.learning_rate must be a positive "
                                             rf"finite number, got {lr}$"):
            self.cfg(lr)


def random_batch(rng, dims: DimsConfig, table: np.ndarray, batch: int) -> DreqBatch:
    n_entities = len(table)
    links = np.zeros((batch, n_entities), dtype=np.intp)
    weights = np.zeros((batch, n_entities))
    for i in range(batch):
        picked = rng.choice(n_entities, size=rng.integers(1, n_entities + 1), replace=False)
        links[i, : len(picked)] = picked
        weights[i, : len(picked)] = rng.uniform(0.05, 1.0, size=len(picked))
    return DreqBatch(
        Q=rng.standard_normal((batch, dims.p)),
        X=np.hstack([rng.standard_normal((batch, dims.n)), _entity_vectors(links, weights, table)]),
        links=links,
        weights=weights,
        y=rng.integers(0, 2, size=batch).astype(float),
    )


def dense_weights(batch: DreqBatch, n_entities: int) -> np.ndarray:
    """The (B, |entities|) weight matrix the per-row sums replace."""
    W = np.zeros((len(batch.y), n_entities))
    rows = np.repeat(np.arange(len(batch.y)), batch.links.shape[1])
    np.add.at(W, (rows, batch.links.ravel()), batch.weights.ravel())
    return W


def random_model(rng, dims: DimsConfig) -> DreqModel:
    return DreqModel(
        W2=rng.standard_normal((dims.p, dims.m + dims.n)),
        b2=rng.standard_normal(dims.p),
        w3=rng.standard_normal(5 * dims.p),
        b3=float(rng.standard_normal()),
        dims=dims,
    )


def fd_gradient(loss_f, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_f()
        flat[i] = orig - h
        down = loss_f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(1e-12, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


def grads_entities(model, batch, table):
    return dreq_loss_and_grads(model, batch, table, finetune_entities=True)[1]["entities"]


class TestDreqGradients:
    def test_analytic_matches_finite_differences(self):
        dims = DimsConfig(3, 3, 3, 3)
        rng = np.random.default_rng(123)
        for _ in range(10):
            model = random_model(rng, dims)
            table = rng.standard_normal((4, dims.m))
            batch = random_batch(rng, dims, table, batch=5)
            for finetune in (True, False):
                loss_value, grads = dreq_loss_and_grads(model, batch, table, finetune)
                assert loss_value == bce_loss(dreq_logits(model, batch, table), batch.y)
                scorer = _scorer_views(grads["scorer"], dims)

                def loss():
                    return bce_loss(dreq_logits(model, batch, table), batch.y)

                assert rel_err(scorer["W2"], fd_gradient(loss, model.W2)) < 1e-4
                assert rel_err(scorer["b2"], fd_gradient(loss, model.b2)) < 1e-4
                assert rel_err(scorer["w3"], fd_gradient(loss, model.w3)) < 1e-4
                b3 = np.array([model.b3])

                def loss_b3():
                    model.b3 = float(b3[0])
                    return bce_loss(dreq_logits(model, batch, table), batch.y)

                assert rel_err(scorer["b3"], fd_gradient(loss_b3, b3)) < 1e-4
            assert rel_err(grads_entities(model, batch, table), fd_gradient(loss, table)) < 1e-4

    def test_no_entity_batch_gradient_to_entities_is_zero(self):
        dims = DimsConfig(3, 3, 3, 3)
        rng = np.random.default_rng(7)
        model = random_model(rng, dims)
        table = rng.standard_normal((4, dims.m))
        batch = random_batch(rng, dims, table, batch=4)
        # use_entities=False gives every row an empty link list
        batch.links = batch.links[:, :0]
        batch.weights = batch.weights[:, :0]
        assert np.array_equal(grads_entities(model, batch, table), np.zeros_like(table))


class TestEntitySumBatch:
    """Per-row entity sums against the dense (B, |entities|) weight matrix."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    def test_matches_dense_weight_matrix(self, seed, rows):
        rng = np.random.default_rng(seed)
        dims = DimsConfig(3, 5, 3, 3)
        table = rng.standard_normal((9, dims.m))
        batch = random_batch(rng, dims, table, batch=rows)
        Ve = batch.X[:, dims.n :]
        assert np.allclose(Ve, dense_weights(batch, 9) @ table, rtol=0, atol=1e-12)

    def test_training_batches_gather_each_examples_row(self):
        dims, data, qrels = make_train_world()
        link_more_entities(data)
        examples = build_doc_examples(qrels, data.candidates, seed=3)
        table = train_feature_table(data, examples)
        template = DreqModel.init(dims, WeightingMode.PROBABILITY, seed=3)
        all_rows = _example_batch([template], examples, data, table, finetune=True)
        for idx in np.array_split(np.random.default_rng(0).permutation(len(examples)), 4):
            stacked = _take(all_rows, np.zeros(1, np.intp), idx[None])
            batch = DreqBatch(**{k: v[0] for k, v in vars(stacked).items()})  # the one run
            Ve = batch.X[:, dims.n :]
            assert np.array_equal(Ve, _entity_vectors(batch.links, batch.weights, table.entities))
            dense = dense_weights(batch, len(table.entities)) @ table.entities
            assert np.allclose(Ve, dense, rtol=0, atol=1e-12)
            for row, i in enumerate(idx):
                ex = examples[i]
                doc = data.corpus.doc(ex.item_id)
                ranking = data.entity_rankings[ex.query_id]
                prob = dict(zip(ranking.entity_ids, ranking.probs.tolist()))
                probs = [prob[e] for e in doc.entity_ids]
                linked = len(probs)
                got = batch.links[row, :linked]
                assert tuple(table.entity_store.ids[j] for j in got) == doc.entity_ids
                assert batch.weights[row, :linked].tolist() == [p / sum(probs) for p in probs]
                assert not batch.weights[row, linked:].any()
                assert np.array_equal(batch.Q[row], data.query_store.get(ex.query_id))
                assert np.array_equal(batch.X[row, : dims.n], table.text[table.doc_row[ex.item_id]])
                assert batch.y[row] == ex.label


def make_train_world(n_queries=6, docs_per_query=6, seed=0):
    """Minimal but complete training world: per-query candidates whose
    relevance is linearly recoverable from the query/entity alignment."""
    rng = np.random.default_rng(seed)
    dims = DimsConfig(4, 4, 4, 4)
    corpus = CorpusStore()
    qrels = Qrels()
    query_rows, entity_rows, passage_rows = [], [], []
    rankings = {}
    candidates = {}
    from dreq.corpus import Document, EntityMention

    for qi in range(n_queries):
        qid = f"q{qi}"
        u = rng.standard_normal(dims.p)
        u /= np.linalg.norm(u)
        query_rows.append((qid, u))
        doc_ids, scores = [], []
        entity_ids, raw = [], []
        for di in range(docs_per_query):
            doc_id = f"{qid}_d{di}"
            eid = f"{qid}_e{di}"
            relevant = di < docs_per_query // 2
            vec = u if relevant else rng.standard_normal(dims.m) * 0.2
            entity_rows.append((eid, vec))
            text = "some sentence."
            corpus.documents[doc_id] = Document(doc_id, text, [EntityMention(eid, "s", 0, 1, 1.0)])
            passage_rows.append((f"{doc_id}::0", rng.standard_normal(dims.n) * 0.1))
            qrels.add(qid, doc_id, 1 if relevant else 0)
            doc_ids.append(doc_id)
            scores.append(float(docs_per_query - di))
            entity_ids.append(eid)
            raw.append(1.0 if relevant else -1.0)
        candidates[qid] = Ranking.from_scores(qid, doc_ids, scores)
        rankings[qid] = EntityRanking.from_raw_scores(qid, entity_ids, raw)
    data = TrainData(
        corpus=corpus,
        query_store=store_from_rows("query", dims.p, query_rows),
        entity_store=store_from_rows("entity", dims.m, entity_rows),
        passage_store=store_from_rows("passage", dims.n, passage_rows),
        entity_rankings=rankings,
        candidates=candidates,
        seg=__import__("dreq.corpus", fromlist=["SegmenterConfig"]).SegmenterConfig(),
    )
    return dims, data, qrels


class TestTrainDreq:
    def run_once(self, finetune=False, seed=11):
        dims, data, qrels = make_train_world()
        examples = build_doc_examples(qrels, data.candidates, seed=seed)
        plan = make_folds(sorted(data.candidates), k=5, seed=seed)
        cfg = TrainConfig(
            learning_rate=0.02,
            batch_size=4,
            epochs=8,
            seed=seed,
            finetune_entity_embeddings=finetune,
        )
        template = DreqModel.init(dims, WeightingMode.PROBABILITY, seed=seed)
        result = train_dreq([template], examples, plan, data, cfg)
        (outcomes,), (reranked,) = result.fold_outcomes, result.reranked
        return outcomes, reranked

    def test_out_of_fold_covers_all_queries_once(self):
        _, reranked = self.run_once()
        assert sorted(reranked) == [f"q{i}" for i in range(6)]

    def test_training_reduces_loss(self):
        outcomes, _ = self.run_once()
        for outcome in outcomes:
            assert outcome.epoch_losses[-1] < outcome.epoch_losses[0]

    def test_bit_identical_across_runs(self):
        (outcomes_a, a), (outcomes_b, b) = self.run_once(), self.run_once()
        for oa, ob in zip(outcomes_a, outcomes_b):
            assert np.array_equal(oa.model.W2, ob.model.W2)
            assert np.array_equal(oa.model.w3, ob.model.w3)
            assert oa.model.b3 == ob.model.b3
        for qid in a:
            assert a[qid].doc_ids == b[qid].doc_ids
            assert a[qid].scores.tolist() == b[qid].scores.tolist()

    def test_finetune_changes_entity_store_copy_only(self):
        dims, data, qrels = make_train_world()
        before = data.entity_store.vectors.copy()
        outcomes, _ = self.run_once(finetune=True)
        # original store untouched
        assert np.array_equal(data.entity_store.vectors, before)
        moved = 0
        for outcome in outcomes:
            assert outcome.entity_store.ids == data.entity_store.ids
            moved += int((outcome.entity_store.vectors != before).any(axis=1).sum())
        assert moved > 0

    def test_missing_query_embedding_fails_before_training(self):
        dims, data, qrels = make_train_world()
        examples = build_doc_examples(qrels, data.candidates, seed=1)
        plan = make_folds(sorted(data.candidates), k=5, seed=1)
        kept = [qid for qid in data.query_store.ids if qid != "q3"]
        data.query_store = EmbeddingStore("query", kept, data.query_store.take(kept))
        template = DreqModel.init(dims, WeightingMode.PROBABILITY, seed=1)
        cfg = TrainConfig(learning_rate=0.01, batch_size=4, epochs=2, seed=1)
        with pytest.raises(KeyError, match="q3"):
            train_dreq([template], examples, plan, data, cfg)


# --- the trainer against a plain reference ------------------------------------


def reference_adam_step(params, grads, state, cfg):
    """Per-key Adam with fresh moments looked up on every step."""
    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    for key, p in params.items():
        g = grads[key]
        m = state.m.setdefault(key, np.zeros_like(p))
        v = state.v.setdefault(key, np.zeros_like(p))
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def reference_forward(model, Q, Vt, links, weights, entities):
    """X, F and logits, v_e summed from the entity table on every call."""
    X = np.hstack([Vt, _entity_vectors(links, weights, entities)])
    D = X @ model.W2.T + model.b2
    F = np.hstack([Q, D, Q + D, Q - D, Q * D])
    return X, F, F @ model.w3 + model.b3


def reference_loss_and_grads(model, rows, entities, finetune):
    Q, Vt, links, weights, y = rows
    X, F, z = reference_forward(model, Q, Vt, links, weights, entities)
    dz = bce_dlogits(z, y) / len(y)
    p = model.dims.p
    a2, a3, a4, a5 = (model.w3[i * p : (i + 1) * p] for i in range(1, 5))
    dD = dz[:, None] * ((a2 + a3 - a4)[None, :] + a5[None, :] * Q)
    grads = {"W2": dD.T @ X, "b2": dD.sum(axis=0), "w3": F.T @ dz, "b3": np.array([np.sum(dz)])}
    if finetune:
        dVe = dD @ model.W2[:, model.dims.n :]
        grads["entities"] = np.zeros_like(entities)
        np.add.at(grads["entities"], links, weights[:, :, None] * dVe[:, None, :])
    return bce_loss(z, y), grads


def reference_rerank(model, q_vec, candidates, table, ranking):
    rows = table.rows(candidates.doc_ids)
    if model.use_entities:
        links, weights = table.entity_weights(ranking, model.mode, rows)
    else:
        links, weights = np.zeros((len(rows), 0), np.intp), np.zeros((len(rows), 0))
    logits = np.empty(len(rows))
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        Q = np.broadcast_to(q_vec, (len(rows[block]), q_vec.shape[0]))
        logits[block] = reference_forward(
            model, Q, table.text[rows[block]], links[block], weights[block], table.entities
        )[2]
    return Ranking.from_scores(candidates.query_id, candidates.doc_ids, logits)


def reference_train(template, examples, folds, data, cfg):
    """Per fold: (W2, b2, w3, b3, tuned entity table), plus log rows and the
    out-of-fold rankings, with four Adam keys, v_e summed per minibatch and
    `bce_loss` / `bce_dlogits`."""
    table = train_feature_table(data, examples)
    rows = table.rows(ex.item_id for ex in examples)
    width = int((table.indptr[rows + 1] - table.indptr[rows]).max(initial=0))
    links = np.zeros((len(rows), width if template.use_entities else 0), dtype=np.intp)
    weights = np.zeros(links.shape)
    for qid in sorted({ex.query_id for ex in examples}) if template.use_entities else ():
        idx = [i for i, ex in enumerate(examples) if ex.query_id == qid]
        ranking = data.entity_rankings[qid]
        part_links, part_weights = table.entity_weights(ranking, template.mode, rows[idx])
        links[idx, : part_links.shape[1]] = part_links
        weights[idx, : part_weights.shape[1]] = part_weights
    columns = (
        np.array([data.query_store.get(ex.query_id) for ex in examples]),
        table.text[rows],
        links,
        weights,
        np.array([ex.label for ex in examples], dtype=np.float64),
    )
    finetune = cfg.finetune_entity_embeddings and template.use_entities
    folds_out, log_rows, reranked = [], [], {}
    for fold_index, fold in enumerate(folds.folds):
        model = replace(
            template, W2=template.W2.copy(), b2=template.b2.copy(), w3=template.w3.copy()
        )
        entities = table.entities.copy()
        train_qids = set(fold.train)
        fold_rows = np.array([i for i, ex in enumerate(examples) if ex.query_id in train_qids])
        params = {"W2": model.W2, "b2": model.b2, "w3": model.w3, "b3": np.array([model.b3])}
        if finetune:
            params["entities"] = entities
        state = AdamState()
        rng = np.random.default_rng([cfg.seed, fold_index])
        best, stall = float("inf"), 0
        for epoch in range(cfg.epochs):
            perm = fold_rows[rng.permutation(len(fold_rows))]
            total_loss = 0.0
            for start in range(0, len(perm), cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                loss, grads = reference_loss_and_grads(
                    model, [c[idx] for c in columns], entities, finetune
                )
                reference_adam_step(params, grads, state, cfg)
                model.b3 = float(params["b3"][0])
                total_loss += loss * len(idx)
            epoch_loss = total_loss / len(fold_rows)
            log_rows.append((fold_index, epoch, epoch_loss))
            stall = stall + 1 if best - epoch_loss < cfg.early_stop_delta else 0
            best = min(best, epoch_loss)
            if stall >= cfg.early_stop_patience:
                break
        tuned = EmbeddingStore("entity", table.entity_store.ids, entities)
        fold_table = replace(table, entity_store=tuned)
        for qid in fold.test:
            reranked[qid] = reference_rerank(
                model, data.query_store.get(qid), data.candidates[qid], fold_table,
                data.entity_rankings[qid],
            )
        folds_out.append((model.W2, model.b2, model.w3, model.b3, entities))
    return folds_out, log_rows, reranked


def link_more_entities(data):
    """Link each document to 1-4 of its query's entities, own entity first."""
    for doc_id, doc in list(data.corpus.documents.items()):
        qid, di = doc_id.split("_d")
        others = data.entity_rankings[qid].entity_ids
        others = [e for e in others if e != doc.entity_ids[0]][: int(di) % 4]
        extra = [EntityMention(e, "s", 0, 1, 1.0) for e in others]
        data.corpus.documents[doc_id] = Document(doc_id, doc.text, doc.mentions + extra)


def assert_matches_reference(templates, examples, folds, data, cfg):
    """`train_dreq` on `templates` gives each template, bit for bit, what
    `reference_train` gives that template alone; returns its result."""
    result = train_dreq(templates, examples, folds, data, cfg)
    assert len(result.fold_outcomes) == len(result.reranked) == len(templates)
    all_log_rows = []
    for template, outcomes, reranked in zip(templates, result.fold_outcomes, result.reranked):
        expected_folds, expected_log, expected_runs = reference_train(
            template, examples, folds, data, cfg
        )
        log_rows = [
            (o.fold_index, e, loss) for o in outcomes for e, loss in enumerate(o.epoch_losses)
        ]
        assert log_rows == expected_log
        all_log_rows += log_rows
        assert len(outcomes) == len(expected_folds)
        for outcome, (W2, b2, w3, b3, entities) in zip(outcomes, expected_folds):
            assert np.array_equal(outcome.model.W2, W2)
            assert np.array_equal(outcome.model.b2, b2)
            assert np.array_equal(outcome.model.w3, w3)
            assert outcome.model.b3 == b3
            assert np.array_equal(outcome.entity_store.take(data.entity_store.ids), entities)
        assert reranked.keys() == expected_runs.keys()
        for qid, ranking in expected_runs.items():
            got = reranked[qid]
            assert got.doc_ids == ranking.doc_ids
            assert got.scores.tolist() == ranking.scores.tolist()
        if cfg.finetune_entity_embeddings and template.use_entities:  # the tuned tables moved
            original = data.entity_store.vectors
            assert any(not np.array_equal(fold[4], original) for fold in expected_folds)
    assert result.log_rows == all_log_rows
    return result


def reference_world():
    dims, data, qrels = make_train_world(n_queries=7, docs_per_query=8, seed=4)
    link_more_entities(data)
    examples = build_doc_examples(qrels, data.candidates, seed=4)
    folds = make_folds(sorted(data.candidates), k=5, seed=4)
    return dims, data, examples, folds


def lockstep_config(examples, folds, finetune, batch, epochs, patience, delta):
    """Settings under which folds' minibatch counts, last-minibatch sizes and
    stopping epochs can differ: "one" row, a "ragged" size that divides no
    fold's row count, or the "whole" of the largest fold in one minibatch."""
    sizes = [sum(ex.query_id in set(f.train) for ex in examples) for f in folds.folds]
    assert len(set(sizes)) > 1
    batch_size = {
        "one": 1,
        "ragged": next(b for b in range(2, max(sizes)) if all(n % b for n in sizes)),
        "whole": max(sizes) + 1,
    }[batch]
    return TrainConfig(
        learning_rate=0.05,
        batch_size=batch_size,
        epochs=epochs,
        seed=4,
        finetune_entity_embeddings=finetune,
        early_stop_delta=delta,
        early_stop_patience=patience,
    )


LOCKSTEP_DRAWS = dict(
    finetune=st.booleans(),
    batch=st.sampled_from(["one", "ragged", "whole"]),
    epochs=st.integers(1, 6),
    patience=st.integers(1, 3),
    delta=st.sampled_from([1e-5, 0.02, 0.1]),
)


class TestTrainerMatchesReference:
    """`train_dreq` against `reference_train`, bit for bit."""

    @pytest.mark.parametrize("finetune", [False, True])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_bit_identical(self, variant, finetune):
        dims, data, examples, folds = reference_world()
        mode, use_entities = VARIANTS[variant]
        template = DreqModel.init(dims, mode, seed=4, use_entities=use_entities)
        cfg = TrainConfig(
            learning_rate=0.05, batch_size=3, epochs=6, seed=4, finetune_entity_embeddings=finetune
        )
        assert_matches_reference([template], examples, folds, data, cfg)

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(sorted(VARIANTS)), **LOCKSTEP_DRAWS)
    def test_ragged_lockstep(self, variant, finetune, batch, epochs, patience, delta):
        """Folds whose minibatch counts, last-minibatch sizes and stopping
        epochs differ, so that fold groups split and shrink mid-training."""
        dims, data, examples, folds = reference_world()
        cfg = lockstep_config(examples, folds, finetune, batch, epochs, patience, delta)
        mode, use_entities = VARIANTS[variant]
        template = DreqModel.init(dims, mode, seed=4, use_entities=use_entities)
        assert_matches_reference([template], examples, folds, data, cfg)

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(sorted(VARIANTS)), count=st.integers(1, 4), **LOCKSTEP_DRAWS)
    def test_stacked_templates_match_each_alone(
        self, order, count, finetune, batch, epochs, patience, delta
    ):
        """1-4 of the variants, in any order, in one call: the runs of a
        template with entities and of one without share the run axis, the
        fine-tuned tables and the step count, and stop at their own epochs."""
        dims, data, examples, folds = reference_world()
        cfg = lockstep_config(examples, folds, finetune, batch, epochs, patience, delta)
        templates = [
            DreqModel.init(dims, mode, seed=4, use_entities=use_entities)
            for mode, use_entities in (VARIANTS[name] for name in order[:count])
        ]
        assert_matches_reference(templates, examples, folds, data, cfg)

    @pytest.mark.parametrize("batch_size, delta", [(1, 0.02), (7, 1e-5), (49, 1e-5)])
    def test_folds_stop_at_different_epochs(self, batch_size, delta):
        """Each batch size the ragged test draws stops folds apart somewhere
        in its space (7 divides neither 40 nor 48 rows, 49 exceeds both)."""
        dims, data, examples, folds = reference_world()
        template = DreqModel.init(dims, WeightingMode.PROBABILITY, seed=4)
        cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, epochs=6, seed=4,
                          early_stop_delta=delta, early_stop_patience=1)
        result = assert_matches_reference([template], examples, folds, data, cfg)
        assert len({len(o.epoch_losses) for o in result.fold_outcomes[0]}) > 1

    def test_templates_stop_at_different_epochs(self):
        """The stacked draws reach runs of one fold that stop apart across
        templates: here every variant stops its folds at its own epochs."""
        dims, data, examples, folds = reference_world()
        cfg = lockstep_config(examples, folds, False, "one", 6, 1, 1e-5)
        templates = [
            DreqModel.init(dims, mode, seed=4, use_entities=use_entities)
            for mode, use_entities in VARIANTS.values()
        ]
        result = assert_matches_reference(templates, examples, folds, data, cfg)
        stops = {tuple(len(o.epoch_losses) for o in outs) for outs in result.fold_outcomes}
        assert len(stops) == len(templates)


class TestFlatAdam:
    """One key over a flat vector steps each element as per-key steps do."""

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
        steps=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
        lr=st.sampled_from([1e-5, 0.03, 0.5]),
    )
    def test_flat_key_equals_per_key_views(self, sizes, steps, seed, lr):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(learning_rate=lr, batch_size=1, epochs=1, seed=0)
        flat = rng.standard_normal(sum(sizes))
        views = np.split(flat.copy(), np.cumsum(sizes)[:-1])
        per_key = {f"k{i}": v for i, v in enumerate(views)}
        flat_state, key_state = AdamState(), AdamState()
        for _ in range(steps):
            g = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-6, 3)
            adam_step({"flat": flat}, {"flat": g}, flat_state, cfg)
            parts = np.split(g, np.cumsum(sizes)[:-1])
            reference_adam_step(per_key, dict(zip(per_key, parts)), key_state, cfg)
        assert np.array_equal(flat, np.concatenate(views))
        assert np.array_equal(flat_state.m["flat"], np.concatenate(list(key_state.m.values())))
        assert np.array_equal(flat_state.v["flat"], np.concatenate(list(key_state.v.values())))
