"""Output checks on TREC run files, independent of the `dreq` package.

The benchmark parses every run file and judgment file itself and computes
nDCG@20 with its own small implementation, so a change to the program's
evaluation code cannot vouch for its own output.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

NDCG_K = 20


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_bytes(directory: str) -> int:
    """Bytes of every regular file under `directory`, whatever its name."""
    total = 0
    for base, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            if os.path.isfile(path) and not os.path.islink(path):
                total += os.path.getsize(path)
    return total


def read_query_ids(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as f:
        return [line.split("\t", 1)[0] for line in f if line.strip()]


def read_qrels(path: str) -> dict[str, dict[str, int]]:
    grades: dict[str, dict[str, int]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if parts:
                grades.setdefault(parts[0], {})[parts[2]] = int(parts[3])
    return grades


def ndcg(doc_ids: list[str], grades: dict[str, int], k: int = NDCG_K) -> float:
    """Exponential-gain nDCG@k; 0 when the query has no relevant document."""
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    if not ideal:
        return 0.0
    dcg = sum(
        (2.0 ** grades.get(d, 0) - 1.0) / math.log2(i + 2) for i, d in enumerate(doc_ids[:k])
    )
    return dcg / sum((2.0**g - 1.0) / math.log2(i + 2) for i, g in enumerate(ideal))


@dataclass
class RunCheck:
    """Result of checking one run file against the queries it must answer."""

    path: str
    query_ids: list[str]
    sha256: str = ""
    failed: dict[str, str] = field(default_factory=dict)  # query id -> first problem
    ndcg: dict[str, float] = field(default_factory=dict)  # query id -> nDCG@20
    # adjacent entries with equal printed scores out of doc_id order (see _ranking_problem)
    tie_inversions: int = 0

    @property
    def attempted(self) -> int:
        return len(self.query_ids)

    @property
    def mean_ndcg(self) -> float:
        return sum(self.ndcg.values()) / len(self.ndcg) if self.ndcg else 0.0

    def fail_all(self, reason: str) -> None:
        for qid in self.query_ids:
            self.failed.setdefault(qid, reason)


def _ranking_problem(rows: list[tuple[str, int, float, str]], expected_len: int) -> tuple[str, int]:
    """The first problem with one query's rows ("" if none), and the number of
    printed ties out of doc_id order.

    Run files carry scores to 6 decimals, so two scores that differ by less
    than 5e-7 print equal while the program ordered them by full precision.
    A printed tie out of doc_id order therefore does not show a wrong order;
    it is counted, and reported, but does not fail the query.
    """
    if len(rows) != expected_len:
        return f"{len(rows)} entries, expected {expected_len}", 0
    seen: set[str] = set()
    inversions = 0
    for i, (doc_id, rank, score, text) in enumerate(rows):
        if rank != i + 1:
            return f"rank {rank} at position {i + 1}", inversions
        if doc_id in seen:
            return f"duplicate doc {doc_id}", inversions
        seen.add(doc_id)
        if i:
            prev_doc, _, prev_score, prev_text = rows[i - 1]
            if score > prev_score:
                return f"score rises at rank {rank}", inversions
            if text == prev_text and doc_id < prev_doc:
                inversions += 1
    return "", inversions


def check_run(
    path: str, query_ids: list[str], expected_len: int, qrels: dict[str, dict[str, int]]
) -> RunCheck:
    """Every query present with exactly `expected_len` entries, contiguous
    ranks, non-increasing scores and ties in doc_id order; nDCG@20 per query."""
    check = RunCheck(path, list(query_ids))
    if not os.path.isfile(path):
        check.failed = {qid: "run file missing" for qid in query_ids}
        return check
    check.sha256 = sha256_file(path)
    per_query: dict[str, list[tuple[str, int, float, str]]] = {}
    malformed: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                malformed.setdefault(parts[0], f"line {line_no}: {len(parts)} columns")
                continue
            qid, _q0, doc_id, rank, score, _tag = parts
            try:
                row = (doc_id, int(rank), float(score), score)
            except ValueError:
                malformed.setdefault(qid, f"line {line_no}: bad rank or score")
                continue
            per_query.setdefault(qid, []).append(row)
    for qid in query_ids:
        rows = per_query.get(qid)
        problem = malformed.get(qid) or ("" if rows else "query missing")
        if not problem:
            problem, inversions = _ranking_problem(rows, expected_len)
            check.tie_inversions += inversions
        if problem:
            check.failed[qid] = problem
        else:
            check.ndcg[qid] = ndcg([r[0] for r in rows], qrels.get(qid, {}))
    extra = sorted(set(per_query) - set(query_ids))
    if extra:
        check.fail_all(f"queries not asked: {' '.join(extra[:3])}")
    return check


def read_eval_report(path: str, metric: str = f"ndcg@{NDCG_K}") -> dict[str, float]:
    """Per-query values (and "ALL") of one metric from an `evaluate` report."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as f:
        f.readline()
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3 and parts[0] == metric:
                values[parts[1]] = float(parts[2])
    return values


def read_ablation_table(path: str, metric: str = f"ndcg@{NDCG_K}") -> dict[str, float]:
    """System -> mean metric from the `ablate` table."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        col = header.index(metric)
        rows = (line.rstrip("\n").split("\t") for line in f if line.strip())
        return {row[0]: float(row[col]) for row in rows}


def cross_check_eval(check: RunCheck, report_path: str) -> None:
    """Fail each query whose nDCG@20 differs from the program's `evaluate`
    report (6 decimals), and every query if the report is missing."""
    if not os.path.isfile(report_path):
        check.fail_all("evaluate report missing")
        return
    reported = read_eval_report(report_path)
    for qid, value in check.ndcg.items():
        if abs(reported.get(qid, math.inf) - value) > 1.5e-6:
            check.failed.setdefault(qid, f"nDCG@20 {value:.6f} != evaluate {reported.get(qid)}")


def cross_check_mean(check: RunCheck, reported: float | None, source: str) -> None:
    """Fail every query when the program's mean nDCG@20 (4 decimals) differs."""
    if reported is None or abs(reported - check.mean_ndcg) > 1.01e-4:
        check.fail_all(f"mean nDCG@20 {check.mean_ndcg:.4f} != {source} {reported}")
