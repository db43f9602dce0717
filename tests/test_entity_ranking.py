import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreq import _npz
from dreq.embeddings import EmbeddingStore, cosine, query_entity_key, softmax
from dreq.entity_ranking import (
    _RANKING_ARRAYS,
    EntityHead,
    EntityRanking,
    bm25_entity_rank,
    geeer_entity_rank,
    load_entity_head,
    load_entity_rankings,
    rank_entities,
    save_entity_head,
    save_entity_rankings,
    train_entity_head,
)
from dreq.retrieval import Bm25Params, _score_all, build_index
from dreq.training import AdamState, TrainConfig, adam_step, bce_dlogits, bce_loss
from helpers import store_from_rows


def bm25_score(index, query_terms, doc_id, params=Bm25Params()) -> float:
    """Reference: one document's BM25 through the scorer retrieval uses; every
    query term occurrence adds once, terms absent from the doc add 0."""
    i = index.doc_position.get(doc_id)
    if i is None:
        raise KeyError(f"doc_id {doc_id!r} not in index")
    return float(_score_all(index, ((t, 1.0) for t in query_terms), params)[i])


def ranked(*scored) -> EntityRanking:
    """The ranking of (entity_id, raw score) pairs, given in pooled order."""
    return EntityRanking.from_raw_scores("q", [e for e, _ in scored], [s for _, s in scored])


def column(ranking: EntityRanking, name: str) -> dict[str, float]:
    """entity_id -> its value in the ranking's `name` column."""
    return dict(zip(ranking.entity_ids, getattr(ranking, name).tolist()))


def head_score(head: EntityHead, enc) -> float:
    """The head's raw score of one encoding, through `rank_entities`."""
    enc = np.asarray(enc, dtype=np.float64)
    store = store_from_rows("query_entity", len(enc), [(query_entity_key("q", "e"), enc)])
    return float(rank_entities(head, "q", ["e"], store).raw_scores[0])


class TestScoreEntity:
    def test_zero_weights_give_bias(self):
        head = EntityHead(w1=np.zeros(4), b1=0.7)
        assert head_score(head, np.random.default_rng(0).standard_normal(4)) == 0.7

    def test_basis_weight_selects_component(self):
        head = EntityHead(w1=np.array([1.0, 0.0, 0.0]), b1=0.0)
        assert head_score(head, np.array([2.0, 5.0, -1.0])) == 2.0

    def test_hand_dot_product(self):
        head = EntityHead(w1=np.array([0.5, -1.0, 2.0, 0.25]), b1=0.1)
        enc = np.array([2.0, 3.0, -0.5, 4.0])
        expected = 0.5 * 2 - 1 * 3 + 2 * -0.5 + 0.25 * 4 + 0.1
        assert head_score(head, enc) == pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="encoding dim 4 != head dim 3"):
            head_score(EntityHead(w1=np.zeros(3), b1=0.0), np.zeros(4))


def encoding_store_for(query_id, raw_by_entity, k=3):
    """Encodings engineered so a fixed probe head reproduces given scores."""
    rows = []
    for eid, raw in raw_by_entity.items():
        vec = np.zeros(k)
        vec[0] = raw
        rows.append((query_entity_key(query_id, eid), vec))
    return store_from_rows("query_entity", k, rows)


PROBE = EntityHead(w1=np.array([1.0, 0.0, 0.0]), b1=0.0)


class TestRankEntities:
    def test_singleton_pool(self):
        store = encoding_store_for("q", {"only": 2.5})
        ranking = rank_entities(PROBE, "q", ["only"], store)
        assert ranking.entity_ids == ["only"]
        assert ranking.probs.tolist() == [1.0]

    def test_equal_scores_tie_by_id(self):
        store = encoding_store_for("q", {"b": 1.0, "a": 1.0})
        ranking = rank_entities(PROBE, "q", ["b", "a"], store)
        assert ranking.entity_ids == ["a", "b"]
        assert ranking.probs[0] == pytest.approx(0.5, abs=1e-12)

    def test_three_scores_softmax_and_ranks(self):
        store = encoding_store_for("q", {"e1": 1.0, "e2": 2.0, "e3": 3.0})
        ranking = rank_entities(PROBE, "q", ["e1", "e2", "e3"], store)
        probs = softmax([1.0, 2.0, 3.0])
        prob = column(ranking, "probs")
        assert prob["e1"] == pytest.approx(probs[0], abs=1e-12)
        assert prob["e3"] == pytest.approx(probs[2], abs=1e-12)
        assert ranking.entity_ids.index("e3") + 1 == 1
        assert ranking.entity_ids.index("e1") + 1 == 3

    def test_missing_encoding_names_pair(self):
        store = encoding_store_for("q", {"a": 1.0})
        with pytest.raises(KeyError, match="ghost"):
            rank_entities(PROBE, "q", ["a", "ghost"], store)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        raws = {f"e{i}": float(rng.standard_normal() * 5) for i in range(40)}
        store = encoding_store_for("q", raws)
        ranking = rank_entities(PROBE, "q", list(raws), store)
        assert sum(ranking.probs.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_subset_preserves_relative_order(self):
        rng = np.random.default_rng(6)
        raws = {f"e{i}": float(rng.standard_normal()) for i in range(12)}
        full = ranked(*raws.items())
        survivors = [f"e{i}" for i in range(0, 12, 3)]
        sub = ranked(*((e, raws[e]) for e in survivors))
        assert sub.entity_ids == [e for e in full.entity_ids if e in set(survivors)]

    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_raw_scores_equal_a_per_entity_dot_product(self, k, seed):
        """One gather and one `vecdot` give the bits of the reference, a
        per-entity `w1 @ enc + b1`."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 1001))
        pooled = [f"e{i}" for i in rng.permutation(n)]
        vectors = rng.standard_normal((n, k)) * rng.uniform(0.1, 50)
        store = EmbeddingStore("query_entity", [query_entity_key("q", e) for e in pooled], vectors)
        head = EntityHead(w1=rng.standard_normal(k), b1=float(rng.standard_normal()))
        got = column(rank_entities(head, "q", pooled, store), "raw_scores")
        for e in pooled:
            expected = float(head.w1 @ store.get(query_entity_key("q", e)) + head.b1)
            assert math.copysign(1.0, got[e]) == math.copysign(1.0, expected)
            assert got[e] == expected, e


def reference_train_entity_head(examples, cfg, log_rows=None):
    """Reference trainer: the head's fit with its own epoch, permutation and
    early-stop loop, over (encoding, label) pairs."""
    X = np.stack([np.asarray(enc, dtype=np.float64) for enc, _ in examples])
    y = np.array([label for _, label in examples], dtype=np.float64)
    head = EntityHead.init(X.shape[1], seed=cfg.seed)
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


def arrays_of(examples):
    return np.stack([enc for enc, _ in examples]), np.array([l for _, l in examples], dtype=float)


class TestTrainEntityHead:
    def make_separable(self, n=60, k=8, seed=4):
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(k)
        direction /= np.linalg.norm(direction)
        examples = []
        for i in range(n):
            label = i % 2
            noise = rng.standard_normal(k) * 0.15
            enc = (2.0 if label else -2.0) * direction + noise
            examples.append((enc, label))
        return examples

    def cfg(self, seed=4):
        return TrainConfig(learning_rate=0.05, batch_size=10, epochs=60, seed=seed)

    def test_separable_reaches_low_bce(self):
        X, y = arrays_of(self.make_separable())
        head = train_entity_head(X, y, self.cfg())
        assert bce_loss(X @ head.w1 + head.b1, y) < 0.1

    def test_deterministic(self):
        X, y = arrays_of(self.make_separable())
        a = train_entity_head(X, y, self.cfg())
        b = train_entity_head(X, y, self.cfg())
        assert np.array_equal(a.w1, b.w1)
        assert a.b1 == b.b1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, size=6).astype(float)
        w1 = rng.standard_normal(4)
        b1 = rng.standard_normal()
        dz = bce_dlogits(X @ w1 + b1, y) / 6
        analytic_w = X.T @ dz
        analytic_b = float(np.sum(dz))
        h = 1e-6
        fd_w = np.zeros(4)
        for i in range(4):
            w1[i] += h
            up = bce_loss(X @ w1 + b1, y)
            w1[i] -= 2 * h
            down = bce_loss(X @ w1 + b1, y)
            w1[i] += h
            fd_w[i] = (up - down) / (2 * h)
        fd_b = (bce_loss(X @ w1 + b1 + h, y) - bce_loss(X @ w1 + b1 - h, y)) / (2 * h)
        assert np.max(np.abs(analytic_w - fd_w)) / max(np.max(np.abs(fd_w)), 1e-12) < 1e-4
        assert abs(analytic_b - fd_b) / max(abs(fd_b), 1e-12) < 1e-4

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            train_entity_head(np.zeros((0, 4)), np.zeros(0), self.cfg())

    @pytest.mark.parametrize("epochs", [0, 1, 5])
    @pytest.mark.parametrize("batch_size", [1, 7, 100])
    @pytest.mark.parametrize("stop", [(1e-5, 3), (1.0, 2), (-1.0, 1)],
                             ids=["late", "stall", "never"])
    def test_matches_the_reference_loop(self, epochs, batch_size, stop):
        """The `_FoldRun` walk gives the reference loop's head and log bit
        for bit: epochs 0, 1 and 5, a batch of one row, a ragged last batch,
        a batch wider than the data, and an early stop after stalled epochs."""
        examples = self.make_separable(n=23, k=5, seed=epochs + batch_size)
        cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, epochs=epochs, seed=11,
                          early_stop_delta=stop[0], early_stop_patience=stop[1])
        got_log, expected_log = [], []
        got = train_entity_head(*arrays_of(examples), cfg, log_rows=got_log)
        expected = reference_train_entity_head(examples, cfg, log_rows=expected_log)
        assert got.w1.tobytes() == expected.w1.tobytes()
        assert math.copysign(1.0, got.b1) == math.copysign(1.0, expected.b1)
        assert got.b1 == expected.b1
        assert got_log == expected_log
        assert len(got_log) == (min(epochs, 3) if stop[0] == 1.0 else epochs)


class TestBm25EntityRank:
    def catalog_index(self):
        descriptions = {
            "bear": "large bear roams alaska wilderness",
            "axe": "hand axe tool defense",
            "road": "scenic highway in alaska known for wildlife",
        }
        return build_index(descriptions), descriptions

    def test_no_matching_terms_raw_zero(self):
        index, _ = self.catalog_index()
        ranking = bm25_entity_rank("quantum computing", ["bear", "axe"], index)
        assert ranking.raw_scores.tolist() == [0.0, 0.0]

    def test_matching_entity_ranks_first(self):
        index, _ = self.catalog_index()
        ranking = bm25_entity_rank("bear attacks", ["bear", "axe"], index)
        assert ranking.entity_ids[0] == "bear"

    def test_missing_description_scores_zero(self):
        index, _ = self.catalog_index()
        ranking = bm25_entity_rank("bear", ["bear", "undescribed"], index)
        prob = column(ranking, "probs")
        assert prob["undescribed"] < prob["bear"]
        assert column(ranking, "raw_scores")["undescribed"] == 0.0

    def test_order_matches_brute_force(self):
        index, descriptions = self.catalog_index()
        query = ["alaska", "wildlife"]
        ranking = bm25_entity_rank(query, list(descriptions), index)
        brute = {
            eid: bm25_score(index, query, eid, Bm25Params()) for eid in descriptions
        }
        expected = sorted(brute, key=lambda e: (-brute[e], e))
        assert ranking.entity_ids == expected

    def test_raw_scores_equal_bm25_score_per_occurrence(self):
        index, descriptions = self.catalog_index()
        query = ["alaska", "bear", "alaska", "unknown"]
        ranking = bm25_entity_rank(query, ["undescribed", *descriptions], index)
        raw = column(ranking, "raw_scores")
        expected = {eid: bm25_score(index, query, eid) for eid in descriptions}
        assert raw == {"undescribed": 0.0, **expected}
        assert expected["bear"] > bm25_score(index, ["alaska", "bear"], "bear")


class TestGeeerEntityRank:
    def store(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0 / math.sqrt(2)] * 2])
        return EmbeddingStore("entity", ["qe", "match", "ortho", "mix"], vectors)

    def test_identical_entity_emb_score_one(self):
        store = self.store()
        ranking = geeer_entity_rank(
            [("qe", 1.0)], ["match", "ortho"], store, {}, lam=0.0, query_id="q"
        )
        # raw = minmax of S_emb: match -> 1, ortho -> 0
        raw = column(ranking, "raw_scores")
        assert raw["match"] == pytest.approx(1.0, abs=1e-12)
        assert raw["ortho"] == pytest.approx(0.0, abs=1e-12)

    def test_weighted_sum_of_cosines(self):
        store = self.store()
        # two query entities, C = 0.5 each, cosines to "mix": 1/sqrt(2) each
        ranking = geeer_entity_rank(
            [("qe", 0.5), ("match", 0.5)],
            ["mix", "ortho", "match"],
            store,
            {},
            lam=0.0,
            query_id="q",
        )
        emb = {
            "mix": 0.5 * cosine(store.get("mix"), store.get("qe")) * 2,
            "ortho": 0.0,
            "match": 1.0,
        }
        # after minmax over pooled: match -> 1, ortho -> 0, mix in between
        raw = column(ranking, "raw_scores")
        assert raw["match"] == pytest.approx(1.0, abs=1e-12)
        assert raw["ortho"] == pytest.approx(0.0, abs=1e-12)
        assert raw["mix"] == pytest.approx(emb["mix"] / emb["match"], abs=1e-9)

    def test_interpolation_with_bm25(self):
        store = self.store()
        bm25_scores = {"match": 2.0, "ortho": 4.0, "mix": 0.0}
        ranking = geeer_entity_rank(
            [("qe", 1.0)], ["match", "ortho", "mix"], store, bm25_scores, lam=0.5, query_id="q"
        )
        raw = column(ranking, "raw_scores")
        # minmax bm25: match .5, ortho 1, mix 0; minmax emb: match 1, ortho 0, mix ~.707
        assert raw["match"] == pytest.approx(0.5 * 0.5 + 0.5 * 1.0, abs=1e-9)
        assert raw["ortho"] == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, abs=1e-9)

    def test_constant_lists_map_to_half(self):
        store = self.store()
        ranking = geeer_entity_rank(
            [("qe", 1.0)], ["match"], store, {"match": 3.0}, lam=0.5, query_id="q"
        )
        assert ranking.raw_scores[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_linked_entities_rejected(self):
        store = self.store()
        with pytest.raises(ValueError, match="inapplicable"):
            geeer_entity_rank([("absent", 0.9)], ["match"], store, {}, query_id="q")


class TestSerialization:
    def test_head_round_trip(self, tmp_path):
        head = EntityHead(w1=np.random.default_rng(1).standard_normal(5), b1=-0.75)
        path = str(tmp_path / "head.npz")
        save_entity_head(head, path)
        loaded = load_entity_head(path)
        assert np.array_equal(loaded.w1, head.w1)
        assert loaded.b1 == head.b1

    def test_rankings_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rankings = {
            qid: EntityRanking.from_raw_scores(
                qid, [f"e{i}" for i in range(n)], rng.standard_normal(n)
            )
            for qid, n in (("q2", 7), ("q1", 1), ("q tail\x00", 3))
        }
        path = str(tmp_path / "er.npz")
        save_entity_rankings(rankings, path)
        loaded = load_entity_rankings(path)
        assert list(loaded) == sorted(rankings)
        for qid, ranking in rankings.items():
            assert loaded[qid].query_id == qid
            assert loaded[qid].entity_ids == ranking.entity_ids
            for name in ("raw_scores", "probs"):  # floats bit for bit
                assert getattr(loaded[qid], name).tobytes() == getattr(ranking, name).tobytes()
        again = str(tmp_path / "again.npz")
        save_entity_rankings(loaded, again)
        assert open(path, "rb").read() == open(again, "rb").read()
        arrays = _npz.read(path, _RANKING_ARRAYS, "entity ranking", "rank-entities")
        assert arrays["rank"].tolist() == [1, 2, 3, 1, 1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize(
        "queries,rank",
        [
            ("q1 q1 q1", [1, 2, 4]),
            ("q1 q1 q1", [0, 1, 2]),
            ("q1 q1 q1", [1, 3, 2]),
            ("q1 q2 q1", [1, 1, 2]),
        ],
        ids=["gap", "from-zero", "swapped", "split-query"],
    )
    def test_loader_rejects_ranks_that_do_not_run_1_to_n(self, tmp_path, queries, rank):
        query_ids, query_id_offsets = _npz.pack_strings(queries.split())
        entity_ids, entity_id_offsets = _npz.pack_strings(["e0", "e1", "e2"])
        path = str(tmp_path / "bad.npz")
        _npz.write(path, {
            "query_ids": query_ids, "query_id_offsets": query_id_offsets,
            "entity_ids": entity_ids, "entity_id_offsets": entity_id_offsets,
            "raw_score": np.zeros(3), "prob": np.full(3, 1 / 3), "rank": np.array(rank),
        })
        with pytest.raises(ValueError, match="query 'q1' are not 1..n in one block"):
            load_entity_rankings(path)

    def test_run_view_orders_by_prob(self):
        """The probability column, which `rank-entities` writes as its run's
        scores, is non-increasing in rank order."""
        ranking = ranked(("a", 0.1), ("b", 2.0), ("c", -1.0))
        assert ranking.entity_ids == ["b", "a", "c"]
        scores = ranking.probs.tolist()
        assert scores == sorted(scores, reverse=True)


@given(
    # grid-spaced raw scores so a shift cannot absorb sub-epsilon differences
    st.lists(st.integers(-2000, 2000).map(lambda v: v / 100.0), min_size=1, max_size=30),
    st.floats(-5, 5),
)
@settings(max_examples=50, deadline=None)
def test_shift_invariance_of_probs_and_ranks(raws, shift):
    ids = [f"e{i}" for i in range(len(raws))]
    base = EntityRanking.from_raw_scores("q", ids, raws)
    shifted = EntityRanking.from_raw_scores("q", ids, [r + shift for r in raws])
    assert shifted.entity_ids == base.entity_ids
    assert shifted.probs == pytest.approx(base.probs, abs=1e-9)


def reference_entries(scored):
    """Reference (entity_id, raw, prob, rank) rows: softmax in pooled order,
    then Python's `sorted` on (-raw, entity_id)."""
    probs = softmax([s for _, s in scored])
    triples = sorted(
        ((eid, float(raw), float(p)) for (eid, raw), p in zip(scored, probs)),
        key=lambda t: (-t[1], t[0]),
    )
    return [(eid, raw, p, i + 1) for i, (eid, raw, p) in enumerate(triples)]


def bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@given(
    st.lists(
        st.tuples(
            st.text(st.sampled_from("abAB_é日本\x00ß"), min_size=1, max_size=3),
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 800.0, -800.0, -1600.0]),
                st.integers(-4, 4).map(lambda v: v * 0.5),
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            ),
        ),
        min_size=1,
        max_size=25,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=300, deadline=None)
def test_from_raw_scores_matches_sorted_softmax(scored):
    """Columns equal the record-per-entity build bit for bit: tied scores,
    -0.0 against 0.0, probabilities that underflow, non-ASCII ids."""
    ranking = EntityRanking.from_raw_scores("q", [e for e, _ in scored], [s for _, s in scored])
    expected = reference_entries(scored)
    assert ranking.entity_ids == [e for e, _, _, _ in expected]
    assert ranking.raw_scores.tobytes() == bits([raw for _, raw, _, _ in expected])
    assert ranking.probs.tobytes() == bits([p for _, _, p, _ in expected])
    assert ranking.raw_scores.dtype == ranking.probs.dtype == np.float64
