import math
import random

import pytest

from dreq.corpus import Qrels
from dreq.evaluation import (
    average_precision,
    build_difficulty_report,
    difficulty_bins,
    evaluate_run,
    ndcg_at_k,
    precision_at_k,
    queries_helped,
    recall_at_k,
    wig,
    wig_terciles,
    write_metrics_report,
)
from dreq.retrieval import Ranking


def make_qrels(qid, grades: dict[str, int]) -> Qrels:
    qrels = Qrels()
    for doc_id, g in grades.items():
        qrels.add(qid, doc_id, g)
    return qrels


def ranking_from(qid, doc_ids) -> Ranking:
    return Ranking.from_scores(qid, doc_ids, [float(len(doc_ids) - i) for i in range(len(doc_ids))])


class TestPrecision:
    def test_all_relevant(self):
        qrels = make_qrels("q", {f"d{i}": 1 for i in range(20)})
        r = ranking_from("q", [f"d{i}" for i in range(20)])
        assert precision_at_k(r, qrels, 20) == 1.0

    def test_none_relevant(self):
        qrels = make_qrels("q", {"x": 1})
        r = ranking_from("q", [f"d{i}" for i in range(20)])
        assert precision_at_k(r, qrels, 20) == 0.0

    def test_seven_of_twenty(self):
        qrels = make_qrels("q", {f"d{i}": 1 for i in range(7)})
        r = ranking_from("q", [f"d{i}" for i in range(25)])
        assert precision_at_k(r, qrels, 20) == pytest.approx(0.35)

    def test_short_ranking_padded(self):
        qrels = make_qrels("q", {"d0": 1})
        r = ranking_from("q", ["d0"])
        assert precision_at_k(r, qrels, 20) == pytest.approx(1 / 20)


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        qrels = make_qrels("q", {"a": 3, "b": 2, "c": 1})
        r = ranking_from("q", ["a", "b", "c"])
        assert ndcg_at_k(r, qrels, 20) == pytest.approx(1.0, abs=1e-12)

    def test_no_relevant_docs_zero(self):
        qrels = make_qrels("q", {"a": 0})
        r = ranking_from("q", ["a", "b"])
        assert ndcg_at_k(r, qrels, 20) == 0.0

    def test_worked_example(self):
        # grades at ranks 1..3 = (0, 2, 1): DCG = 3/log2(3) + 1/2,
        # IDCG = 3 + 1/log2(3)
        qrels = make_qrels("q", {"r1": 0, "r2": 2, "r3": 1})
        r = ranking_from("q", ["r1", "r2", "r3"])
        dcg = 3 / math.log2(3) + 0.5
        idcg = 3 + 1 / math.log2(3)
        assert ndcg_at_k(r, qrels, 20) == pytest.approx(dcg / idcg, abs=1e-12)
        assert ndcg_at_k(r, qrels, 20) == pytest.approx(0.6590018048024133, abs=1e-9)


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        qrels = make_qrels("q", {"a": 1})
        assert average_precision(ranking_from("q", ["a", "b"]), qrels) == 1.0

    def test_single_relevant_at_rank_two(self):
        qrels = make_qrels("q", {"a": 1})
        assert average_precision(ranking_from("q", ["b", "a"]), qrels) == pytest.approx(0.5)

    def test_two_relevant_enumeration(self):
        qrels = make_qrels("q", {"a": 1, "c": 1})
        ap = average_precision(ranking_from("q", ["a", "b", "c"]), qrels)
        assert ap == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)

    def test_no_relevant_zero(self):
        qrels = make_qrels("q", {})
        assert average_precision(ranking_from("q", ["a"]), qrels) == 0.0


class TestRecall:
    def test_all_retrieved(self):
        qrels = make_qrels("q", {"a": 1, "b": 2})
        assert recall_at_k(ranking_from("q", ["a", "b"]), qrels, 10) == 1.0

    def test_none_retrieved(self):
        qrels = make_qrels("q", {"a": 1})
        assert recall_at_k(ranking_from("q", ["x", "y"]), qrels, 10) == 0.0

    def test_three_of_four(self):
        qrels = make_qrels("q", {"a": 1, "b": 1, "c": 1, "d": 1})
        assert recall_at_k(ranking_from("q", ["a", "b", "c", "x"]), qrels, 10) == 0.75


# --- independent naive oracles -------------------------------------------------


def oracle_p_at_k(grade_by_rank, k):
    return sum(1 for g in grade_by_rank[:k] if g >= 1) / k


def oracle_ndcg(grade_by_rank, all_grades, k):
    gains = [(2**g - 1) / math.log2(i + 2) for i, g in enumerate(grade_by_rank[:k])]
    ideal = sorted((g for g in all_grades if g > 0), reverse=True)[:k]
    if not ideal:
        return 0.0
    ideal_gains = [(2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal)]
    return sum(gains) / sum(ideal_gains)


def oracle_ap(grade_by_rank, total_relevant):
    if total_relevant == 0:
        return 0.0
    hits, acc = 0, 0.0
    for i, g in enumerate(grade_by_rank, start=1):
        if g >= 1:
            hits += 1
            acc += hits / i
    return acc / total_relevant


def oracle_recall(grade_by_rank, total_relevant, k):
    if total_relevant == 0:
        return 0.0
    return sum(1 for g in grade_by_rank[:k] if g >= 1) / total_relevant


def test_oracle_equivalence_on_randomized_instances():
    rng = random.Random(1234)
    for case in range(100):
        n_docs = rng.randint(1, 25)
        doc_ids = [f"d{i:02d}" for i in range(n_docs)]
        grades = {d: rng.choice([0, 0, 0, 1, 1, 2, 3]) for d in doc_ids}
        judged = {d: g for d, g in grades.items() if rng.random() < 0.8}
        qrels = make_qrels("q", judged)
        retrieved = rng.sample(doc_ids, rng.randint(1, n_docs))
        r = ranking_from("q", retrieved)
        k = rng.randint(1, 30)

        grade_by_rank = [qrels.grade("q", d) for d in retrieved]
        all_grades = list(judged.values())
        total_relevant = sum(1 for g in all_grades if g >= 1)

        assert precision_at_k(r, qrels, k) == oracle_p_at_k(grade_by_rank, k)
        assert ndcg_at_k(r, qrels, k) == oracle_ndcg(grade_by_rank, all_grades, k)
        assert average_precision(r, qrels) == oracle_ap(grade_by_rank, total_relevant)
        assert recall_at_k(r, qrels, k) == oracle_recall(grade_by_rank, total_relevant, k)


class TestEvaluateRun:
    def test_means_are_arithmetic(self):
        qrels = Qrels()
        qrels.add("q1", "a", 1)
        qrels.add("q2", "b", 1)
        runs = {"q1": ranking_from("q1", ["a"]), "q2": ranking_from("q2", ["x", "b"])}
        report = evaluate_run(runs, qrels, tag="t")
        per_q = report.per_query["map"]
        assert report.means["map"] == pytest.approx(sum(per_q.values()) / 2)

    def test_unknown_query_ids_listed(self):
        qrels = make_qrels("q1", {"a": 1})
        runs = {"q1": ranking_from("q1", ["a"]), "zz": ranking_from("zz", ["a"])}
        with pytest.raises(ValueError, match="zz"):
            evaluate_run(runs, qrels)

    def test_report_file_format(self, tmp_path):
        qrels = make_qrels("q1", {"a": 1})
        report = evaluate_run({"q1": ranking_from("q1", ["a"])}, qrels, tag="t")
        path = str(tmp_path / "report.tsv")
        write_metrics_report(report, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "metric\tquery_id\tvalue"
        assert any(line.startswith("map\tALL\t") for line in lines)


class TestWig:
    def ranking(self, scores):
        return Ranking.from_scores("q", [f"d{i}" for i in range(len(scores))], scores)

    def test_flat_scores_zero(self):
        r = self.ranking([2.0] * 10)
        assert wig("one two", r, k=5) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_bump_linearity(self):
        # top-k at mean + c and the rest engineered to keep the mean at 3.0
        scores = [4.0, 4.0, 2.0, 2.0]  # mean 3.0, top-2 at +1
        r = self.ranking(scores)
        assert wig("a b c d", r, k=2) == pytest.approx(1.0 / math.sqrt(4), abs=1e-12)

    def test_hand_sum(self):
        scores = [5.0, 3.0, 1.0, 1.0]  # mean 2.5
        r = self.ranking(scores)
        expected = (1 / math.sqrt(4)) * ((5 - 2.5) + (3 - 2.5)) / 2
        assert wig("w x y z", r, k=2) == pytest.approx(expected, abs=1e-12)

    def test_k_beyond_depth_rejected(self):
        with pytest.raises(ValueError):
            wig("a", self.ranking([1.0, 2.0]), k=5)

    def test_empty_query_scores_zero(self):
        assert wig("...", self.ranking([1.0]), k=1) == 0.0

    @pytest.mark.parametrize("k", [0, 5])
    def test_empty_query_scores_zero_before_the_k_checks(self, k):
        assert wig([], self.ranking([1.0]), k=k) == 0.0


class TestDifficulty:
    def metrics(self, n, seed=0):
        rng = random.Random(seed)
        base = {f"q{i:03d}": rng.random() for i in range(n)}
        system = {q: min(1.0, v + rng.random() * 0.3) for q, v in base.items()}
        return base, system

    def test_250_queries_bin_sizes(self):
        base, system = self.metrics(250)
        bins = difficulty_bins(base, system)
        sizes = [len(b.query_ids) for b in bins]
        assert sum(sizes) == 250
        assert sizes == [13] * 10 + [12] * 10

    def test_20_queries_singleton_bins(self):
        base, system = self.metrics(20)
        assert [len(b.query_ids) for b in difficulty_bins(base, system)] == [1] * 20

    def test_constant_metric_falls_back_to_qid_order(self):
        base = {f"q{i}": 0.5 for i in range(4)}
        system = dict(base)
        bins = difficulty_bins(base, system, n_bins=2)
        assert list(bins[0].query_ids) == sorted(base)[:2]

    def test_bins_sorted_by_baseline(self):
        base, system = self.metrics(40)
        bins = difficulty_bins(base, system)
        flat = [q for b in bins for q in b.query_ids]
        assert flat == sorted(base, key=lambda q: (base[q], q))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            difficulty_bins({}, {})


class TestHelpedAndTerciles:
    def test_identical(self):
        vals = {"a": 0.5, "b": 0.2}
        assert queries_helped(vals, dict(vals)) == (0, 0, 2)

    def test_single_epsilon_improvement(self):
        base = {"a": 0.5, "b": 0.2, "c": 0.9}
        system = dict(base)
        system["a"] += 1e-9
        assert queries_helped(base, system) == (1, 0, 2)

    def test_mixed_hand_count(self):
        base = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        system = {"a": 0.3, "b": 0.1, "c": 0.3, "d": 0.9}
        assert queries_helped(base, system) == (2, 1, 1)

    def test_terciles_nine(self):
        scores = {f"q{i}": float(-i) for i in range(9)}
        t = wig_terciles(scores)
        assert [t[f"q{i}"] for i in range(9)] == ["easy"] * 3 + ["medium"] * 3 + ["hard"] * 3

    def test_terciles_ten_remainder_to_earlier(self):
        scores = {f"q{i}": float(-i) for i in range(10)}
        t = wig_terciles(scores)
        counts = {lab: sum(1 for v in t.values() if v == lab) for lab in ("easy", "medium", "hard")}
        assert counts == {"easy": 4, "medium": 3, "hard": 3}

    def test_terciles_known_assignment(self):
        scores = {"a": 3.0, "b": 0.5, "c": 2.0, "d": -1.0}
        t = wig_terciles(scores)
        assert t == {"a": "easy", "c": "easy", "b": "medium", "d": "hard"}

    def test_too_few_get_no_tercile(self):
        assert wig_terciles({"a": 1.0, "b": 2.0}) == {}

    def test_report_assembly(self):
        base = {f"q{i}": i / 10 for i in range(10)}
        system = {q: v + 0.05 for q, v in base.items()}
        wigs = {q: float(i) for i, q in enumerate(base)}
        report = build_difficulty_report(base, system, wigs, n_bins=5)
        assert report.helped == 10 and report.hurt == 0
        assert len(report.bins) == 5
        assert set(report.terciles.values()) <= {"easy", "medium", "hard"}


def test_metric_relabeling_invariance():
    # metrics depend only on the grade sequence by rank
    qrels_a = make_qrels("q", {"a": 2, "b": 0, "c": 1})
    qrels_b = make_qrels("q", {"x": 2, "y": 0, "z": 1})
    ra = ranking_from("q", ["a", "b", "c"])
    rb = ranking_from("q", ["x", "y", "z"])
    assert ndcg_at_k(ra, qrels_a, 10) == ndcg_at_k(rb, qrels_b, 10)
    assert average_precision(ra, qrels_a) == average_precision(rb, qrels_b)
    assert precision_at_k(ra, qrels_a, 3) == precision_at_k(rb, qrels_b, 3)
