import math
import random
import re
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dreq import _porter
from dreq.corpus import Query
from dreq.pipeline import candidate_rankings
from dreq.retrieval import (
    Bm25Params,
    Ranking,
    Rm3Params,
    TokenizerConfig,
    _score_all,
    build_index,
    load_run,
    retrieve,
    rm3_expand,
    tokenize,
    write_run,
)


def bm25_score(index, query_terms, doc_id, params=Bm25Params()) -> float:
    """Reference: one document's BM25 through the scorer retrieval uses; every
    query term occurrence adds once, terms absent from the doc add 0."""
    i = index.doc_position.get(doc_id)
    if i is None:
        raise KeyError(f"doc_id {doc_id!r} not in index")
    return float(_score_all(index, ((t, 1.0) for t in query_terms), params)[i])


def triples(ranking: Ranking) -> list[tuple[str, float, int]]:
    """(doc_id, score, rank) per position of `ranking`."""
    return [
        (d, s, rank)
        for rank, (d, s) in enumerate(zip(ranking.doc_ids, ranking.scores.tolist()), start=1)
    ]


class TestTokenizer:
    def test_lowercase_split(self):
        assert tokenize("Black Bear-Attacks, 2004!") == ["black", "bear", "attacks", "2004"]

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_stemming_flag(self):
        cfg = TokenizerConfig(stem=True)
        assert tokenize("running caresses ponies", cfg) == ["run", "caress", "poni"]

    @pytest.mark.parametrize(
        "word,stemmed",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("hopping", "hop"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("rational", "ration"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("hopefulness", "hope"),
            ("formalize", "formal"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("adjustable", "adjust"),
            ("adoption", "adopt"),
            ("activate", "activ"),
            ("effective", "effect"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_porter_vectors(self, word, stemmed):
        assert _porter.stem(word) == stemmed


def tf_table(index):
    """(term, doc_id) -> tf, read off the CSR arrays."""
    table = {}
    for t, term in enumerate(index.terms):
        for p in range(index.indptr[t], index.indptr[t + 1]):
            table[term, index.doc_ids[index.docs[p]]] = int(index.tfs[p])
    return table


class TestIndex:
    def test_single_doc_statistics(self):
        index = build_index({"d1": "a b a"})
        assert tf_table(index) == {("a", "d1"): 2, ("b", "d1"): 1}
        assert index.avg_doc_length == 3.0
        assert index.doc_count == 1

    def test_df_across_docs(self):
        index = build_index({"d1": "t x", "d2": "t y"})
        assert {term: len(docs) for term, docs in index.postings.items()} == {"t": 2, "x": 1, "y": 1}

    def test_rebuild_identical(self):
        texts = {"d1": "alpha beta", "d2": "beta gamma gamma"}
        a, b = build_index(texts), build_index(texts)
        assert a.terms == b.terms
        assert a.doc_ids == b.doc_ids
        for name in ("indptr", "docs", "tfs", "doc_lengths"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.avg_doc_length == b.avg_doc_length

    def test_empty_corpus_rejected(self):
        for empty in ({}, iter(())):
            with pytest.raises(ValueError, match="empty"):
                build_index(empty)

    def test_csr_layout(self):
        texts = {"d1": "b a b", "d2": "", "d3": "c b"}
        index = build_index(texts)
        assert index.terms == ["b", "a", "c"]  # first-occurrence order
        assert index.indptr.tolist() == [0, 2, 3, 4]
        assert index.docs.tolist() == [0, 2, 0, 2]
        assert index.tfs.tolist() == [2, 1, 1, 1]
        assert index.doc_lengths.tolist() == [3, 0, 2]
        assert (index.indptr.dtype, index.docs.dtype, index.tfs.dtype, index.doc_lengths.dtype) == (
            np.int64, np.int32, np.int32, np.int64
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, seed):
        import random

        rng = random.Random(seed)
        vocab = ["a", "b", "c", "d", "e"]
        texts = {
            f"d{i}": " ".join(rng.choices(vocab, k=rng.randint(0, 8)))
            for i in rng.sample(range(20), rng.randint(1, 8))
        }
        index = build_index(texts)
        bags = [Counter(tokenize(t)) for t in texts.values()]
        order = np.array(rng.sample(range(len(bags)), len(bags)), dtype=np.int64)
        rows = index.doc_terms(order)
        fwd_indptr, fwd_terms, fwd_tfs = stable_forward(index)
        for i in order.tolist():
            terms, tfs = (part.tolist() for part in rows.row(i))
            assert dict(zip((index.terms[t] for t in terms), tfs)) == bags[i]
            fwd = slice(fwd_indptr[i], fwd_indptr[i + 1])
            assert (terms, tfs) == (fwd_terms[fwd].tolist(), fwd_tfs[fwd].tolist())
            assert index.doc_lengths[i] == sum(bags[i].values())
        for t, term in enumerate(index.terms):
            lo, hi = index.indptr[t], index.indptr[t + 1]
            docs = index.docs[lo:hi].tolist()
            assert docs == sorted(docs) == [i for i, bag in enumerate(bags) if term in bag]
            assert index.tfs[lo:hi].tolist() == [bags[i][term] for i in docs]
            assert index.postings[term].tolist() == docs
        assert len(index.postings) == len(index.terms) == len(set().union(*bags))
        assert sorted(index.doc_ids, key=lambda d: index.doc_rank[index.doc_position[d]]) == sorted(
            texts
        )
        assert index.avg_doc_length == sum(index.doc_lengths.tolist()) / index.doc_count

    def test_postings_view_is_read_only(self):
        index = build_index({"d1": "a b", "d2": "b"})
        assert isinstance(index.postings, Mapping)
        assert not hasattr(index.postings, "__setitem__")
        assert dict((t, p.tolist()) for t, p in index.postings.items()) == {"a": [0], "b": [0, 1]}
        with pytest.raises(KeyError):
            index.postings["absent"]


class TestBm25:
    def test_hand_example(self):
        # N=2, df=1, tf=2, dl=avgdl=4, k1=0.9, b=0.4 -> ln2 * 3.8/2.9
        index = build_index({"d1": "t t x y", "d2": "p q r s"})
        score = bm25_score(index, ["t"], "d1", Bm25Params(k1=0.9, b=0.4))
        assert score == pytest.approx(0.9082, abs=1e-4)
        assert score == pytest.approx(math.log(2) * 3.8 / 2.9, abs=1e-12)

    @pytest.mark.parametrize("k1", [math.nan, math.inf, -0.5])
    def test_k1_must_be_a_finite_non_negative_number(self, k1):
        with pytest.raises(ValueError, match=f"k1 must be a finite number >= 0, got {k1}"):
            Bm25Params(k1=k1)

    def test_absent_term_scores_zero(self):
        index = build_index({"d1": "a b", "d2": "a c"})
        assert bm25_score(index, ["zzz"], "d1") == 0.0

    def test_term_in_every_doc_single_doc_corpus(self):
        index = build_index({"d1": "solo"})
        score = bm25_score(index, ["solo"], "d1")
        assert score > 0.0
        assert math.log(1 + 0.5 / 1.5) == pytest.approx(
            score / (1 * 1.9 / (1 + 0.9)), abs=1e-12
        )

    def test_unknown_doc_rejected(self):
        index = build_index({"d1": "a"})
        with pytest.raises(KeyError):
            bm25_score(index, ["a"], "nope")

    def test_monotone_in_tf(self):
        # same doc length, increasing tf of the query term
        index = build_index({"d1": "t x x x", "d2": "t t x x", "d3": "t t t x"})
        scores = [bm25_score(index, ["t"], d) for d in ("d1", "d2", "d3")]
        assert scores[0] < scores[1] < scores[2]


class TestRm3:
    def test_alpha_one_returns_original(self):
        index = build_index({"d1": "x y", "d2": "x z"})
        model = rm3_expand(index, ["x"], Rm3Params(original_weight=1.0))
        assert model == {"x": 1.0}

    def test_single_feedback_doc_hand_interpolation(self):
        # one matching doc with uniform terms {x, y}; alpha = 0.5, query {x}
        index = build_index({"d1": "x y"})
        model = rm3_expand(index, ["x"], Rm3Params(fb_docs=10, fb_terms=10, original_weight=0.5))
        assert model["x"] == pytest.approx(0.75, abs=1e-12)
        assert model["y"] == pytest.approx(0.25, abs=1e-12)

    def test_no_retrievable_docs_returns_original(self):
        index = build_index({"d1": "a b", "d2": "c d"})
        model = rm3_expand(index, ["zzz", "qqq"], Rm3Params())
        assert model == {"zzz": 0.5, "qqq": 0.5}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_is_distribution(self, seed):
        import random

        rng = random.Random(seed)
        vocab = ["a", "b", "c", "d", "e", "f"]
        texts = {
            f"d{i}": " ".join(rng.choices(vocab, k=rng.randint(2, 10))) for i in range(6)
        }
        index = build_index(texts)
        query = rng.sample(vocab, rng.randint(1, 3))
        model = rm3_expand(index, query, Rm3Params(fb_docs=3, fb_terms=4, original_weight=0.3))
        assert abs(sum(model.values()) - 1.0) < 1e-9
        assert all(w >= 0 for w in model.values())


def _oracle_order(index, weighted_terms, params):
    """Independent exhaustive scorer: per-document sum over weighted terms,
    each term adding (weight * idf) * tfc, the documented arithmetic, so
    scores that tie in exact arithmetic round as the program's do."""
    tfs = tf_table(index)
    dfs = Counter(term for term, _ in tfs)
    scores = {}
    for i, doc_id in enumerate(index.doc_ids):
        dl = int(index.doc_lengths[i])
        s = 0.0
        for term, weight in weighted_terms.items():
            tf = tfs.get((term, doc_id), 0)
            if tf == 0:
                continue
            df = dfs[term]
            idf = math.log(1 + (index.doc_count - df + 0.5) / (df + 0.5))
            tfc = tf * (params.k1 + 1) / (
                tf + params.k1 * (1 - params.b + params.b * dl / index.avg_doc_length)
            )
            s += weight * idf * tfc
        scores[doc_id] = s
    return [d for d, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


class TestRetrieve:
    def test_k_exceeding_corpus_returns_whole_corpus(self):
        index = build_index({"d1": "a", "d2": "b", "d3": "a b"})
        ranking = retrieve(index, "a", k=100, mode="bm25")
        assert len(ranking) == 3

    def test_tie_broken_by_doc_id(self):
        index = build_index({"db": "t", "da": "t"})
        ranking = retrieve(index, "t", k=2, mode="bm25")
        assert ranking.doc_ids == ["da", "db"]

    def test_k_validation(self):
        index = build_index({"d1": "a"})
        with pytest.raises(ValueError):
            retrieve(index, "a", k=0)

    def test_prefix_property(self):
        texts = {f"d{i}": f"common term{i % 3}" for i in range(8)}
        index = build_index(texts)
        full = retrieve(index, "common term1", k=8, mode="bm25")
        for k in range(1, 8):
            assert retrieve(index, "common term1", k=k, mode="bm25").doc_ids == (
                full.doc_ids[:k]
            )

    @given(st.integers(0, 2**32 - 1))
    @example(seed=276950)  # d00 and d02 tie in exact arithmetic and round apart
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_oracle(self, seed):
        import random

        rng = random.Random(seed)
        vocab = ["red", "green", "blue", "cyan", "teal", "pink"]
        n_docs = rng.randint(1, 10)
        texts = {
            f"d{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
            for i in range(n_docs)
        }
        index = build_index(texts)
        terms = rng.choices(vocab, k=rng.randint(1, 3))
        params = Bm25Params()

        weighted = {}
        for t in terms:
            weighted[t] = weighted.get(t, 0.0) + 1.0
        got = retrieve(index, list(terms), k=n_docs, mode="bm25", bm25=params)
        assert got.doc_ids == _oracle_order(index, weighted, params)

        rm3 = Rm3Params(fb_docs=3, fb_terms=5)
        expanded = rm3_expand(index, list(terms), rm3, params)
        got_rm3 = retrieve(index, list(terms), k=n_docs, mode="bm25_rm3", rm3=rm3, bm25=params)
        assert got_rm3.doc_ids == _oracle_order(index, expanded, params)


# --- a plain per-document reference, built from the texts alone -----------------


def reference_scores(texts, weighted_terms, params):
    """BM25 per document from `tokenize` + `Counter`; (term, weight) pairs add
    in order, each as (weight * idf) * tfc."""
    bags = {d: Counter(tokenize(t)) for d, t in texts.items()}
    n = len(bags)
    avgdl = sum(sum(bag.values()) for bag in bags.values()) / n
    scores = {}
    for doc_id, bag in bags.items():
        dl = sum(bag.values())
        s = 0.0
        for term, weight in weighted_terms:
            tf = bag[term]
            if tf == 0:
                continue
            df = sum(1 for other in bags.values() if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tfc = tf * (params.k1 + 1.0) / (tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl))
            s += weight * idf * tfc
        scores[doc_id] = s
    return scores


def reference_ranking(texts, weighted_terms, k, params):
    scores = reference_scores(texts, weighted_terms, params)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [(d, s, r) for r, (d, s) in enumerate(ordered, start=1)]


def reference_rm3(texts, terms, rm3, params):
    distinct = list(dict.fromkeys(terms))
    original = {t: 1.0 / len(distinct) for t in distinct}
    if rm3.original_weight == 1.0:
        return original
    scores = reference_scores(texts, original.items(), params)
    feedback = sorted(
        ((d, s) for d, s in scores.items() if s > 0.0), key=lambda kv: (-kv[1], kv[0])
    )[: rm3.fb_docs]
    if not feedback:
        return original
    max_s = max(s for _, s in feedback)
    exps = [math.exp(s - max_s) for _, s in feedback]
    z = sum(exps)
    term_weights = {}
    for (doc_id, _), e in zip(feedback, exps):
        bag = Counter(tokenize(texts[doc_id]))
        dl = sum(bag.values())
        for term, tf in bag.items():
            term_weights[term] = term_weights.get(term, 0.0) + (e / z) * tf / dl
    top = sorted(term_weights.items(), key=lambda kv: (-kv[1], kv[0]))[: rm3.fb_terms]
    total = sum(w for _, w in top)
    alpha = rm3.original_weight
    combined = {t: alpha * w for t, w in original.items()}
    for t, w in top:
        combined[t] = combined.get(t, 0.0) + (1.0 - alpha) * (w / total)
    return {t: w for t, w in combined.items() if w > 0.0}


VOCAB = ["red", "green", "blue", "cyan", "teal"]


@st.composite
def retrieval_worlds(draw):
    """Texts (some empty, some copied under other ids so that scores tie),
    a query with duplicates and unknown terms, and a k placed below, at or
    above the number of matching documents."""
    ids = draw(st.lists(st.text("abzé", min_size=1, max_size=3), min_size=1, max_size=9, unique=True))
    texts = {}
    for doc_id in ids:
        if texts and draw(st.booleans()):
            texts[doc_id] = texts[draw(st.sampled_from(sorted(texts)))]
        else:
            texts[doc_id] = " ".join(draw(st.lists(st.sampled_from(VOCAB), max_size=8)))
    terms = draw(st.lists(st.sampled_from(VOCAB + ["zzz"]), max_size=4))
    rm3 = Rm3Params(
        fb_docs=draw(st.integers(1, len(texts) + 2)),
        fb_terms=draw(st.integers(1, 6)),
        original_weight=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
    )
    return texts, terms, rm3, draw(st.integers(-2, 2)), draw(st.sampled_from(["bm25", "bm25_rm3"]))


class TestArrayPathMatchesReference:
    @given(retrieval_worlds())
    @settings(max_examples=300, deadline=None)
    def test_retrieve_and_rm3(self, world):
        texts, terms, rm3, k_offset, mode = world
        params = Bm25Params()
        index = build_index(texts)
        if mode == "bm25":
            model = {}
            for t in terms:
                model[t] = model.get(t, 0.0) + 1.0
        else:
            model = reference_rm3(texts, terms, rm3, params)
            got_model = rm3_expand(index, list(terms), rm3, params)
            assert list(got_model.items()) == list(model.items())
        matched = sum(1 for s in reference_scores(texts, model.items(), params).values() if s > 0)
        k = max(1, matched + k_offset)
        got = retrieve(index, list(terms), k=k, mode=mode, bm25=params, rm3=rm3)
        assert triples(got) == reference_ranking(
            texts, model.items(), k, params
        )

    @given(retrieval_worlds(), st.lists(st.lists(st.sampled_from(VOCAB + ["zzz"]), max_size=4),
                                        max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_one_scan_serves_a_batch_of_queries(self, world, more):
        """`candidate_rankings` scans the postings once for the feedback rows
        of all its queries, and ranks each bit for bit as `retrieve` ranks it
        alone, with its own scan."""
        texts, terms, rm3, _, _ = world
        index = build_index(texts)
        queries = [Query(f"q{i}", " ".join(t)) for i, t in enumerate([terms, *more])]
        scans, scan = [], index.doc_terms
        index.doc_terms = lambda docs: scans.append(len(docs)) or scan(docs)
        got = candidate_rankings(index, queries, k=len(texts), rm3=rm3)
        assert len(scans) == 1
        index.doc_terms = scan
        for q in queries:
            alone = retrieve(index, q.text, k=len(texts), mode="bm25_rm3", rm3=rm3,
                             query_id=q.query_id)
            assert triples(got[q.query_id]) == triples(alone)

    @given(retrieval_worlds())
    @settings(max_examples=100, deadline=None)
    def test_bm25_score_counts_each_occurrence(self, world):
        texts, terms, _, _, _ = world
        index = build_index(texts)
        expected = reference_scores(texts, [(t, 1.0) for t in terms], Bm25Params())
        assert {d: bm25_score(index, terms, d) for d in texts} == expected

    def test_ties_straddling_kth_score_break_by_doc_id(self):
        texts = {"d5": "t t", "d4": "t x", "d2": "t x", "d3": "t x", "d1": "x x", "d0": "y"}
        index = build_index(texts)
        got = retrieve(index, "t", k=3, mode="bm25")
        assert got.doc_ids == ["d5", "d2", "d3"]
        assert got.scores[1] == got.scores[2]
        assert triples(got) == reference_ranking(
            texts, [("t", 1.0)], 3, Bm25Params()
        )

    def test_query_without_terms_pads_in_doc_id_order(self):
        index = build_index({"b": "x", "a": "y", "c": "x y"})
        for mode in ("bm25", "bm25_rm3"):
            got = retrieve(index, "?!", k=2, mode=mode)
            assert triples(got) == [("a", 0.0, 1), ("b", 0.0, 2)]
        assert rm3_expand(index, []) == {}


class TestRankingAndRunIO:
    def test_from_scores_sorts_and_ranks(self):
        r = Ranking.from_scores("q", ["d2", "d1", "d3"], [0.5, 0.9, 0.5])
        assert triples(r) == [("d1", 0.9, 1), ("d2", 0.5, 2), ("d3", 0.5, 3)]
        assert r.scores.dtype == np.float64

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError):
            Ranking.from_scores("q", ["d1", "d1"], [1.0, 0.5])

    def test_run_round_trip(self, tmp_path):
        rankings = [
            Ranking.from_scores("q1", ["d1", "d2"], [2.25, 1.5]),
            Ranking.from_scores("q2", ["d3"], [0.125]),
        ]
        path = str(tmp_path / "out.run")
        write_run(rankings, path, tag="test")
        line = open(path).readline().rstrip("\n")
        assert line == "q1 Q0 d1 1 2.250000 test"
        loaded = load_run(path)
        assert loaded["q1"].doc_ids == ["d1", "d2"]
        assert loaded["q2"].scores[0] == pytest.approx(0.125)

    def test_load_rejects_non_contiguous_ranks(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 3 0.5 t\n")
        with pytest.raises(ValueError, match="contiguous"):
            load_run(str(path))

    def test_load_sorts_ranks_given_out_of_order(self, tmp_path):
        path = tmp_path / "shuffled.run"
        path.write_text("q1 Q0 d2 2 0.5 t\nq2 Q0 d9 1 3.0 t\nq1 Q0 d1 1 1.0 t\n")
        loaded = load_run(str(path))
        assert list(loaded) == ["q1", "q2"]
        assert triples(loaded["q1"]) == [("d1", 1.0, 1), ("d2", 0.5, 2)]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5\n", r":2: expected 6 columns, got 5"),
            ("q1 Q0 d1 one 1.0 t\n", r":1: bad rank/score"),
            ("q1 Q0 d1 1 1.0 t\n\nq1 Q0 d2 2 high t\n", r":3: bad rank/score"),
            ("q1 Q0 d1 1 1.0 t\nq2 Q0 d1 1 1.0 t\nq1 Q0 d1 2 0.5 t\n",
             r":3: doc 'd1' repeated for query 'q1'"),
        ],
        ids=["columns", "rank", "score", "repeated-doc"],
    )
    def test_load_errors_name_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.run"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path)) + message):
            load_run(str(path))


# whitespace splits the columns of a run file, so ids hold none
RUN_IDS = st.text(
    st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6
).filter(lambda s: not any(c.isspace() for c in s))
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0**-30]),  # ties, signed zeros
    st.floats(allow_nan=False, allow_infinity=True),
)


class TestRankingOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(RUN_IDS, SCORES), unique_by=lambda t: t[0], max_size=40))
    def test_from_scores_matches_python_sort(self, pairs):
        ranking = Ranking.from_scores("q", [d for d, _ in pairs], [s for _, s in pairs])
        expected = sorted(pairs, key=lambda t: (-t[1], t[0]))
        assert ranking.doc_ids == [d for d, _ in expected]
        assert [s.hex() for s in ranking.scores.tolist()] == [float(s).hex() for _, s in expected]
        assert len(ranking) == len(pairs)

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            RUN_IDS,
            st.lists(st.tuples(RUN_IDS, st.floats(-1e6, 1e6)), unique_by=lambda t: t[0],
                     min_size=1, max_size=12),
            max_size=4,
        )
    )
    def test_write_then_load_round_trips(self, tmp_path_factory, per_query):
        rankings = [
            Ranking.from_scores(qid, [d for d, _ in pairs], [s for _, s in pairs])
            for qid, pairs in per_query.items()
        ]
        path = str(tmp_path_factory.mktemp("run") / "x.run")
        write_run(rankings, path, tag="t")
        loaded = load_run(path)
        assert list(loaded) == list(per_query)
        for ranking in rankings:
            got = loaded[ranking.query_id]
            assert got.query_id == ranking.query_id
            assert got.doc_ids == ranking.doc_ids
            assert got.scores.tolist() == [float(f"{s:.6f}") for s in ranking.scores.tolist()]


def reference_tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Tokens lowercased one at a time."""
    tokens = re.findall(r"[^\W_]+", text)
    if cfg.lowercase:
        tokens = [t.lower() for t in tokens]
    if cfg.stem:
        tokens = [_porter.stem(t) for t in tokens]
    return tokens


@settings(max_examples=500, deadline=None)
@given(
    st.text(
        st.one_of(
            st.sampled_from(list("İßΣσςΑΒaZ _-.'̇ͅʰǅﬃ1")),  # case-special letters
            st.characters(),
        ),
        max_size=30,
    ),
    st.booleans(),
    st.booleans(),
)
def test_tokenize_lowercases_like_a_per_token_loop(text, lowercase, stem):
    cfg = TokenizerConfig(lowercase=lowercase, stem=stem)
    assert tokenize(text, cfg) == reference_tokenize(text, cfg)


def regex_tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """The tokenizer with one path for all text: the regex, then one
    `lower()` over the joined tokens."""
    tokens = re.findall(r"[^\W_]+", text)
    if cfg.lowercase and tokens:
        tokens = " ".join(tokens).lower().split(" ")
    if cfg.stem:
        tokens = [_porter.stem(t) for t in tokens]
    return tokens


# letters, digits, `_`, punctuation, tabs and control characters
ASCII_CHARS = list("aZz09_ -.,'\t\n\r\x00\x1f\x7f")
# letters whose case mapping is special: İ (lowers to two code points), ſ
# (long s, uppercases to S) and Σ/σ/ς (final sigma)
SPECIAL_CHARS = list("İſΣσςé")


@settings(max_examples=500, deadline=None)
@given(
    st.text(st.sampled_from(ASCII_CHARS), max_size=40)
    | st.text(st.sampled_from(ASCII_CHARS + SPECIAL_CHARS), max_size=40)
    | st.text(st.characters(max_codepoint=127), max_size=40)
    | st.text(max_size=40),
    st.booleans(),
    st.booleans(),
)
@example("", True, False)
@example("Black_Bear\tATTACKS, 2004!\x00x", True, False)
@example("Black_Bear\tATTACKS, 2004!\x00x", False, True)
@example("İſΣ ΣΣ σς_x", True, False)
def test_tokenize_matches_the_regex_path(text, lowercase, stem):
    cfg = TokenizerConfig(lowercase=lowercase, stem=stem)
    assert tokenize(text, cfg) == regex_tokenize(text, cfg)


def unique_build_index(texts, tokenizer=TokenizerConfig()):
    """The index built by one `np.unique` over fresh int64 (term, doc) key
    arrays: the formulation the in-place key sort replaced."""
    term_id, token_ids, doc_lengths = {}, [], []
    for text in texts.values():
        tokens = tokenize(text, tokenizer)
        token_ids.extend(term_id.setdefault(t, len(term_id)) for t in tokens)
        doc_lengths.append(len(tokens))
    n = len(texts)
    token_docs = np.repeat(np.arange(n, dtype=np.int64), np.array(doc_lengths))
    keys, tfs = np.unique(np.array(token_ids, dtype=np.int64) * n + token_docs, return_counts=True)
    indptr = np.zeros(len(term_id) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(term_id)), out=indptr[1:])
    return {
        "terms": list(term_id),
        "indptr": indptr,
        "docs": (keys % n).astype(np.int32),
        "tfs": tfs.astype(np.int32),
        "doc_ids": list(texts),
        "doc_lengths": np.array(doc_lengths, dtype=np.int64),
    }


INDEX_TEXTS = st.text(st.sampled_from(list("ab cé Σσ.ßİ")), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text("dxy", min_size=1, max_size=3), INDEX_TEXTS, min_size=1, max_size=8))
@example({"d": ""})
@example({"d": "", "e": "?!"})
@example({"d": "a a a a"})
@example({"d": "é b", "e": "", "f": "b b é"})
def test_build_index_matches_np_unique_formulation(texts):
    got = build_index(texts)
    expected = unique_build_index(texts)
    assert got.terms == expected["terms"]
    assert got.doc_ids == expected["doc_ids"]
    for name in ("indptr", "docs", "tfs", "doc_lengths"):
        array, reference = getattr(got, name), expected[name]
        assert array.dtype == reference.dtype, name
        assert array.tobytes() == reference.tobytes(), name


def stable_forward(index):
    """The doc -> term CSR from a stable argsort of the posting documents."""
    term_of = np.repeat(np.arange(len(index.terms), dtype=np.int32), np.diff(index.indptr))
    order = np.argsort(index.docs, kind="stable")
    indptr = np.zeros(index.doc_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(index.docs, minlength=index.doc_count), out=indptr[1:])
    return indptr, term_of[order], index.tfs[order]


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.text("dxy", min_size=1, max_size=3), INDEX_TEXTS, min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
@example({"d": ""}, random.Random(0))
@example({"d": "", "e": "?!"}, random.Random(0))
@example({"d": "a a a a"}, random.Random(0))
@example({"d": "a", "e": "", "f": "a a"}, random.Random(0))
@example({"d": "é b", "e": "", "f": "b b é"}, random.Random(0))
def test_forward_matches_a_stable_argsort(texts, rng):
    """`doc_terms` of any documents, in any order and with repeats, holds
    each one's row of the doc -> term CSR that a stable argsort of the
    postings builds, rows in document order; a document not asked for has
    no row."""
    index = build_index(texts)
    indptr, terms, tfs = stable_forward(index)
    docs = rng.choices(range(index.doc_count), k=rng.randint(0, 2 * index.doc_count))
    got = index.doc_terms(np.array(docs, dtype=np.int64))
    wanted = sorted(set(docs))
    rows = [slice(indptr[i], indptr[i + 1]) for i in wanted]
    expected = (
        np.concatenate(([0], np.cumsum([r.stop - r.start for r in rows]))).astype(np.int64),
        np.concatenate([terms[r] for r in rows] or [terms[:0]]),
        np.concatenate([tfs[r] for r in rows] or [tfs[:0]]),
    )
    assert got.docs.tolist() == wanted
    for got_part, expected_part in zip((got.indptr, got.terms, got.tfs), expected, strict=True):
        assert got_part.dtype == expected_part.dtype
        assert got_part.tobytes() == expected_part.tobytes()
    for i in range(index.doc_count):
        if i in wanted:
            for got_part, expected_part in zip(got.row(i), (terms, tfs)):
                assert got_part.tobytes() == expected_part[indptr[i] : indptr[i + 1]].tobytes()
        else:
            with pytest.raises(KeyError):
                got.row(i)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text("dxy", min_size=1, max_size=3), INDEX_TEXTS, min_size=1, max_size=8))
@example({"d": ""})
@example({"d": "é b", "e": "", "f": "b b é"})
def test_build_index_of_a_one_shot_stream_equals_the_mapping(texts):
    """Pairs read once, from a generator, index bit for bit as the mapping."""
    got = build_index((doc_id, text) for doc_id, text in texts.items())
    expected = build_index(texts)
    assert (got.terms, got.doc_ids, got.tokenizer) == (
        expected.terms, expected.doc_ids, expected.tokenizer
    )
    for name in ("indptr", "docs", "tfs", "doc_lengths"):
        array, reference = getattr(got, name), getattr(expected, name)
        assert array.dtype == reference.dtype, name
        assert array.tobytes() == reference.tobytes(), name


def reference_load_run(path):
    """A run file parsed line by line into per-query (doc, rank, score)
    columns sorted by rank, with no shared doc id objects."""
    per_query = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.split():
                qid, _, doc_id, rank, score, _ = line.split()
                per_query.setdefault(qid, []).append((int(rank), doc_id, float(score)))
    return {
        qid: ([d for _, d, _ in sorted(rows)], np.array([s for _, _, s in sorted(rows)]))
        for qid, rows in per_query.items()
    }


def test_load_run_shares_a_doc_id_repeated_across_queries(tmp_path):
    path = tmp_path / "x.run"
    path.write_text(
        "q2 Q0 d7 2 0.5 t\nq2 Q0 d1 1 1.5 t\nq1 Q0 d1 1 -0.0 t\n\nq1 Q0 d2 2 -1 t\n"
        "q3 Q0 d7 1 2.25 t\n"
    )
    loaded = load_run(str(path))
    expected = reference_load_run(str(path))
    assert list(loaded) == list(expected) == ["q2", "q1", "q3"]
    for qid, (doc_ids, scores) in expected.items():
        assert loaded[qid].query_id == qid
        assert loaded[qid].doc_ids == doc_ids
        assert loaded[qid].scores.dtype == scores.dtype
        assert loaded[qid].scores.tobytes() == scores.tobytes()
    assert loaded["q2"].doc_ids[0] is loaded["q1"].doc_ids[0]  # d1
    assert loaded["q2"].doc_ids[1] is loaded["q3"].doc_ids[0]  # d7
