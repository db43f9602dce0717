import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreq.embeddings import EmbeddingStore, cosine, query_entity_key, softmax
from dreq.entity_ranking import (
    EntityHead,
    EntityRanking,
    bm25_entity_rank,
    entity_ranking_to_run,
    geeer_entity_rank,
    load_entity_head,
    load_entity_rankings,
    rank_entities,
    save_entity_head,
    save_entity_rankings,
    score_entity,
    train_entity_head,
)
from dreq.retrieval import Bm25Params, bm25_score, build_index
from dreq.training import TrainConfig


class TestScoreEntity:
    def test_zero_weights_give_bias(self):
        head = EntityHead(w1=np.zeros(4), b1=0.7)
        assert score_entity(head, np.random.default_rng(0).standard_normal(4)) == 0.7

    def test_basis_weight_selects_component(self):
        head = EntityHead(w1=np.array([1.0, 0.0, 0.0]), b1=0.0)
        assert score_entity(head, np.array([2.0, 5.0, -1.0])) == 2.0

    def test_hand_dot_product(self):
        head = EntityHead(w1=np.array([0.5, -1.0, 2.0, 0.25]), b1=0.1)
        enc = np.array([2.0, 3.0, -0.5, 4.0])
        expected = 0.5 * 2 - 1 * 3 + 2 * -0.5 + 0.25 * 4 + 0.1
        assert score_entity(head, enc) == pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            score_entity(EntityHead(w1=np.zeros(3), b1=0.0), np.zeros(4))


def encoding_store_for(query_id, raw_by_entity, k=3):
    """Encodings engineered so a fixed probe head reproduces given scores."""
    rows = []
    for eid, raw in raw_by_entity.items():
        vec = np.zeros(k)
        vec[0] = raw
        rows.append((query_entity_key(query_id, eid), vec))
    return EmbeddingStore.from_rows("query_entity", k, rows)


PROBE = EntityHead(w1=np.array([1.0, 0.0, 0.0]), b1=0.0)


class TestRankEntities:
    def test_singleton_pool(self):
        store = encoding_store_for("q", {"only": 2.5})
        ranking = rank_entities(PROBE, "q", ["only"], store)
        assert ranking.entries[0].prob == 1.0
        assert ranking.entries[0].rank == 1

    def test_equal_scores_tie_by_id(self):
        store = encoding_store_for("q", {"b": 1.0, "a": 1.0})
        ranking = rank_entities(PROBE, "q", ["b", "a"], store)
        assert [e.entity_id for e in ranking.entries] == ["a", "b"]
        assert ranking.entries[0].prob == pytest.approx(0.5, abs=1e-12)

    def test_three_scores_softmax_and_ranks(self):
        store = encoding_store_for("q", {"e1": 1.0, "e2": 2.0, "e3": 3.0})
        ranking = rank_entities(PROBE, "q", ["e1", "e2", "e3"], store)
        probs = softmax([1.0, 2.0, 3.0])
        entry = {e.entity_id: e for e in ranking.entries}
        assert entry["e1"].prob == pytest.approx(probs[0], abs=1e-12)
        assert entry["e3"].prob == pytest.approx(probs[2], abs=1e-12)
        assert entry["e3"].rank == 1
        assert entry["e1"].rank == 3

    def test_missing_encoding_names_pair(self):
        store = encoding_store_for("q", {"a": 1.0})
        with pytest.raises(KeyError, match="ghost"):
            rank_entities(PROBE, "q", ["a", "ghost"], store)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        raws = {f"e{i}": float(rng.standard_normal() * 5) for i in range(40)}
        store = encoding_store_for("q", raws)
        ranking = rank_entities(PROBE, "q", list(raws), store)
        assert sum(e.prob for e in ranking.entries) == pytest.approx(1.0, abs=1e-9)

    def test_subset_preserves_relative_order(self):
        rng = np.random.default_rng(6)
        raws = {f"e{i}": float(rng.standard_normal()) for i in range(12)}
        full = EntityRanking.from_raw_scores("q", list(raws.items()))
        survivors = [f"e{i}" for i in range(0, 12, 3)]
        sub = EntityRanking.from_raw_scores("q", [(e, raws[e]) for e in survivors])
        full_order = [e.entity_id for e in full.entries if e.entity_id in set(survivors)]
        assert [e.entity_id for e in sub.entries] == full_order


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
        from dreq.training import bce_loss

        examples = self.make_separable()
        head = train_entity_head(examples, self.cfg())
        X = np.stack([e for e, _ in examples])
        y = np.array([l for _, l in examples], dtype=float)
        assert bce_loss(X @ head.w1 + head.b1, y) < 0.1

    def test_deterministic(self):
        examples = self.make_separable()
        a = train_entity_head(examples, self.cfg())
        b = train_entity_head(examples, self.cfg())
        assert np.array_equal(a.w1, b.w1)
        assert a.b1 == b.b1

    def test_gradient_matches_finite_differences(self):
        from dreq.training import bce_dlogits, bce_loss

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
            train_entity_head([], self.cfg())


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
        assert all(e.raw_score == 0.0 for e in ranking.entries)

    def test_matching_entity_ranks_first(self):
        index, _ = self.catalog_index()
        ranking = bm25_entity_rank("bear attacks", ["bear", "axe"], index)
        assert ranking.entries[0].entity_id == "bear"

    def test_missing_description_scores_zero(self):
        index, _ = self.catalog_index()
        ranking = bm25_entity_rank("bear", ["bear", "undescribed"], index)
        prob = {e.entity_id: e.prob for e in ranking.entries}
        assert prob["undescribed"] < prob["bear"]
        raw = {e.entity_id: e.raw_score for e in ranking.entries}
        assert raw["undescribed"] == 0.0

    def test_order_matches_brute_force(self):
        index, descriptions = self.catalog_index()
        query = ["alaska", "wildlife"]
        ranking = bm25_entity_rank(query, list(descriptions), index)
        brute = {
            eid: bm25_score(index, query, eid, Bm25Params()) for eid in descriptions
        }
        expected = sorted(brute, key=lambda e: (-brute[e], e))
        assert [e.entity_id for e in ranking.entries] == expected

    def test_raw_scores_equal_bm25_score_per_occurrence(self):
        index, descriptions = self.catalog_index()
        query = ["alaska", "bear", "alaska", "unknown"]
        ranking = bm25_entity_rank(query, ["undescribed", *descriptions], index)
        raw = {e.entity_id: e.raw_score for e in ranking.entries}
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
        raw = {e.entity_id: e.raw_score for e in ranking.entries}
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
        raw = {e.entity_id: e.raw_score for e in ranking.entries}
        assert raw["match"] == pytest.approx(1.0, abs=1e-12)
        assert raw["ortho"] == pytest.approx(0.0, abs=1e-12)
        assert raw["mix"] == pytest.approx(emb["mix"] / emb["match"], abs=1e-9)

    def test_interpolation_with_bm25(self):
        store = self.store()
        bm25_scores = {"match": 2.0, "ortho": 4.0, "mix": 0.0}
        ranking = geeer_entity_rank(
            [("qe", 1.0)], ["match", "ortho", "mix"], store, bm25_scores, lam=0.5, query_id="q"
        )
        raw = {e.entity_id: e.raw_score for e in ranking.entries}
        # minmax bm25: match .5, ortho 1, mix 0; minmax emb: match 1, ortho 0, mix ~.707
        assert raw["match"] == pytest.approx(0.5 * 0.5 + 0.5 * 1.0, abs=1e-9)
        assert raw["ortho"] == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, abs=1e-9)

    def test_constant_lists_map_to_half(self):
        store = self.store()
        ranking = geeer_entity_rank(
            [("qe", 1.0)], ["match"], store, {"match": 3.0}, lam=0.5, query_id="q"
        )
        assert ranking.entries[0].raw_score == pytest.approx(0.5, abs=1e-12)

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
                qid, [(f"e{i}", float(rng.standard_normal())) for i in range(n)]
            )
            for qid, n in (("q2", 7), ("q1", 1), ("q tail\x00", 3))
        }
        path = str(tmp_path / "er.npz")
        save_entity_rankings(rankings, path)
        loaded = load_entity_rankings(path)
        assert list(loaded) == sorted(rankings)
        for qid, ranking in rankings.items():
            assert loaded[qid].query_id == qid
            assert loaded[qid].entries == ranking.entries  # floats bit for bit
        again = str(tmp_path / "again.npz")
        save_entity_rankings(loaded, again)
        assert open(path, "rb").read() == open(again, "rb").read()

    def test_run_view_orders_by_prob(self):
        ranking = EntityRanking.from_raw_scores("q", [("a", 0.1), ("b", 2.0), ("c", -1.0)])
        run = entity_ranking_to_run(ranking)
        assert run.doc_ids == ["b", "a", "c"]
        scores = run.scores.tolist()
        assert scores == sorted(scores, reverse=True)


@given(
    # grid-spaced raw scores so a shift cannot absorb sub-epsilon differences
    st.lists(st.integers(-2000, 2000).map(lambda v: v / 100.0), min_size=1, max_size=30),
    st.floats(-5, 5),
)
@settings(max_examples=50, deadline=None)
def test_shift_invariance_of_probs_and_ranks(raws, shift):
    ids = [f"e{i}" for i in range(len(raws))]
    base = EntityRanking.from_raw_scores("q", list(zip(ids, raws)))
    shifted = EntityRanking.from_raw_scores("q", [(e, r + shift) for e, r in zip(ids, raws)])
    for a, b in zip(shifted.entries, base.entries):
        assert a.entity_id == b.entity_id
        assert a.prob == pytest.approx(b.prob, abs=1e-9)
        assert a.rank == b.rank
