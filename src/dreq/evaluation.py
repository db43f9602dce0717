"""IR metrics and query-difficulty analysis.

nDCG uses exponential gains (2^grade - 1) with a log2(rank + 1) discount,
matching the trec_eval ndcg_cut convention; queries without relevant
documents score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .corpus import Qrels
from .retrieval import Ranking, TokenizerConfig, tokenize

__all__ = [
    "precision_at_k",
    "ndcg_at_k",
    "average_precision",
    "recall_at_k",
    "MetricsReport",
    "evaluate_run",
    "write_metrics_report",
    "wig",
    "wig_terciles",
    "queries_helped",
    "DifficultyBin",
    "DifficultyReport",
    "difficulty_bins",
    "build_difficulty_report",
    "write_difficulty_report",
]


def precision_at_k(ranking: Ranking, qrels: Qrels, k: int = 20) -> float:
    """|relevant in top-k| / k; short rankings count missing slots as misses."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.grades.get(ranking.query_id, {})
    return sum(1 for d in ranking.doc_ids[:k] if grades.get(d, 0) >= 1) / k


def ndcg_at_k(ranking: Ranking, qrels: Qrels, k: int = 20) -> float:
    """Exponential-gain nDCG; 0 when the query has no relevant documents."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.grades.get(ranking.query_id, {})
    ideal_grades = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    if not ideal_grades:
        return 0.0
    dcg = 0.0
    for i, d in enumerate(ranking.doc_ids[:k]):
        g = grades.get(d, 0)
        if g > 0:
            dcg += (2.0**g - 1.0) / math.log2(i + 2)
    idcg = sum((2.0**g - 1.0) / math.log2(i + 2) for i, g in enumerate(ideal_grades))
    return dcg / idcg


def average_precision(ranking: Ranking, qrels: Qrels) -> float:
    """Mean of precision at each relevant hit over the total relevant count;
    0 when nothing is relevant."""
    r_total = len(qrels.relevant_docs(ranking.query_id))
    if r_total == 0:
        return 0.0
    grades = qrels.grades.get(ranking.query_id, {})
    hits = 0
    acc = 0.0
    for i, d in enumerate(ranking.doc_ids, start=1):
        if grades.get(d, 0) >= 1:
            hits += 1
            acc += hits / i
    return acc / r_total


def recall_at_k(ranking: Ranking, qrels: Qrels, k: int = 1000) -> float:
    """|relevant in top-k| / |relevant|; 0 when the query has no relevant docs."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    relevant = set(qrels.relevant_docs(ranking.query_id))
    if not relevant:
        return 0.0
    return sum(1 for d in ranking.doc_ids[:k] if d in relevant) / len(relevant)


@dataclass
class MetricsReport:
    tag: str
    per_query: dict[str, dict[str, float]]  # metric -> query_id -> value
    means: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.means:
            self.means = {
                metric: sum(values.values()) / len(values)
                for metric, values in self.per_query.items()
            }


def evaluate_run(
    rankings: Mapping[str, Ranking],
    qrels: Qrels,
    tag: str = "system",
    prec_k: int = 20,
    ndcg_k: int = 20,
    recall_k: int = 1000,
) -> MetricsReport:
    """MAP, nDCG@k, P@k, Recall@k per query plus arithmetic means.

    An empty run and a run query absent from the qrels are errors.
    """
    if not rankings:
        raise ValueError(f"run {tag!r} has no rankings")
    unknown = sorted(q for q in rankings if q not in qrels.grades)
    if unknown:
        raise ValueError(f"run references query ids absent from qrels: {unknown}")
    metrics: dict[str, dict[str, float]] = {
        "map": {},
        f"ndcg@{ndcg_k}": {},
        f"p@{prec_k}": {},
        f"recall@{recall_k}": {},
    }
    for qid in sorted(rankings):
        r = rankings[qid]
        metrics["map"][qid] = average_precision(r, qrels)
        metrics[f"ndcg@{ndcg_k}"][qid] = ndcg_at_k(r, qrels, ndcg_k)
        metrics[f"p@{prec_k}"][qid] = precision_at_k(r, qrels, prec_k)
        metrics[f"recall@{recall_k}"][qid] = recall_at_k(r, qrels, recall_k)
    return MetricsReport(tag=tag, per_query=metrics)


def write_metrics_report(report: MetricsReport, path: str) -> None:
    """TSV rows `metric <TAB> query_id|ALL <TAB> value`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("metric\tquery_id\tvalue\n")
        for metric in report.per_query:
            for qid in sorted(report.per_query[metric]):
                f.write(f"{metric}\t{qid}\t{report.per_query[metric][qid]:.6f}\n")
            f.write(f"{metric}\tALL\t{report.means[metric]:.6f}\n")


# --- query performance prediction and difficulty analysis -----------------------


def wig(
    query: str | list[str],
    candidates: Ranking,
    k: int = 20,
    tokenizer: TokenizerConfig = TokenizerConfig(),
) -> float:
    """Weighted information gain over the candidate list.

    (1/sqrt(|q|)) * (1/k) * sum over the top-k of (score - mean score of
    the full candidate list). The corpus-wide term of the original
    formulation is approximated by the candidate-list mean. A query without
    terms scores 0.0 (it retrieved only zero-score padding), whatever `k`.
    """
    terms = tokenize(query, tokenizer) if isinstance(query, str) else list(query)
    if not terms:
        return 0.0
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds candidate depth {len(candidates)}")
    scores = candidates.scores.tolist()
    mean_all = sum(scores) / len(scores)
    top = scores[:k]
    return (1.0 / math.sqrt(len(terms))) * (sum(s - mean_all for s in top) / k)


def _even_split(items: list[str], groups: int) -> list[list[str]]:
    """`items` cut in order into `groups` runs whose lengths differ by at
    most one, the longer ones first (empty runs when there are fewer items)."""
    base, rem = divmod(len(items), groups)
    starts = [i * base + min(i, rem) for i in range(groups + 1)]
    return [items[a:b] for a, b in zip(starts, starts[1:])]


def wig_terciles(wig_scores: Mapping[str, float]) -> dict[str, str]:
    """Split queries into easy / medium / hard by descending WIG; remainders
    go to the earlier groups. Fewer than 3 queries get no tercile: {}."""
    if len(wig_scores) < 3:
        return {}
    ordered = sorted(wig_scores, key=lambda q: (-wig_scores[q], q))
    groups = _even_split(ordered, 3)
    return {qid: label for label, group in zip(("easy", "medium", "hard"), groups) for qid in group}


def queries_helped(
    baseline: Mapping[str, float], system: Mapping[str, float]
) -> tuple[int, int, int]:
    """(helped, hurt, unchanged) counts under strict per-query comparison."""
    if set(baseline) != set(system):
        raise ValueError("baseline and system query sets differ")
    helped = hurt = unchanged = 0
    for qid, base in baseline.items():
        if system[qid] > base:
            helped += 1
        elif system[qid] < base:
            hurt += 1
        else:
            unchanged += 1
    return helped, hurt, unchanged


@dataclass(frozen=True)
class DifficultyBin:
    index: int
    query_ids: tuple[str, ...]
    baseline_mean: float
    system_mean: float


@dataclass
class DifficultyReport:
    bins: list[DifficultyBin]
    helped: int
    hurt: int
    unchanged: int
    terciles: dict[str, str] = field(default_factory=dict)


def difficulty_bins(
    baseline: Mapping[str, float],
    system: Mapping[str, float],
    n_bins: int = 20,
) -> list[DifficultyBin]:
    """Sort queries by baseline metric (asc, qid asc on ties) and cut into
    `n_bins` bins, spreading any remainder over the first bins."""
    if set(baseline) != set(system):
        raise ValueError("baseline and system query sets differ")
    if not baseline:
        raise ValueError("empty query set")
    ordered = sorted(baseline, key=lambda q: (baseline[q], q))
    return [
        DifficultyBin(
            index=i,
            query_ids=tuple(qids),
            baseline_mean=sum(baseline[q] for q in qids) / len(qids),
            system_mean=sum(system[q] for q in qids) / len(qids),
        )
        for i, qids in enumerate(_even_split(ordered, n_bins))
        if qids
    ]


def build_difficulty_report(
    baseline: Mapping[str, float],
    system: Mapping[str, float],
    wig_scores: Mapping[str, float] | None = None,
    n_bins: int = 20,
) -> DifficultyReport:
    helped, hurt, unchanged = queries_helped(baseline, system)
    return DifficultyReport(
        bins=difficulty_bins(baseline, system, n_bins),
        helped=helped,
        hurt=hurt,
        unchanged=unchanged,
        terciles=wig_terciles(wig_scores) if wig_scores is not None else {},
    )


def write_difficulty_report(report: DifficultyReport, path: str) -> None:
    """Plot-ready TSV: one row per bin, then helped/hurt/unchanged, then
    optional per-query tercile assignments."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("bin\tn_queries\tbaseline_mean\tsystem_mean\n")
        for b in report.bins:
            f.write(f"{b.index}\t{len(b.query_ids)}\t{b.baseline_mean:.6f}\t{b.system_mean:.6f}\n")
        f.write(f"#helped\t{report.helped}\n")
        f.write(f"#hurt\t{report.hurt}\n")
        f.write(f"#unchanged\t{report.unchanged}\n")
        for qid in sorted(report.terciles):
            f.write(f"#tercile\t{qid}\t{report.terciles[qid]}\n")
