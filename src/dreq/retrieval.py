"""Inverted index, BM25 scoring, RM3 expansion, candidate retrieval and
run files.

BM25 uses the Lucene-style formulation
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
    tfc    = tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl))
    score  = sum over the weighted query terms of (weight * idf(t)) * tfc
with defaults k1 = 0.9, b = 0.4. RM3 interpolates a relevance model built
from the top feedback documents with the original query model.

The index is a set of numpy arrays in CSR layout. `terms` lists the
vocabulary in first-occurrence order; term t's postings are
`docs[indptr[t]:indptr[t + 1]]` (int32 internal doc indices, ascending)
with their term frequencies in `tfs` (int32); `doc_lengths` (int64) and
`doc_ids` are per internal index. Everything else is derived on first use
and never stored: the term -> id dict and each document's rank in doc_id
order. No doc -> term copy of the postings exists: RM3 reads its feedback
documents' rows (`InvertedIndex.doc_terms`, a `DocTerms`) from one gather
of a membership mask over `docs`. `feedback_rows` does that scan once for
the feedback documents of a whole batch of queries, which
`pipeline.candidate_rankings` passes to each query's `retrieve`.

`build_index` reads `(doc_id, text)` pairs one at a time, from a mapping
or a one-shot iterable, and keeps none of the texts. It gives each token
its term id, drops the term dict, widens the ids once into one int64 array
and turns that array in place into (term, doc) keys `term * N + doc`, sorts
it in place, and counts runs of equal keys: a run is one posting, its
length the tf. Beside the keys, the only temporaries as long as the token
stream are the int32 document ids added into them and a bool mask of run
starts; the run lengths go straight into int32, and each key is split in
place into doc and term.

Scoring adds one term at a time into a float64 array over all documents.
BM25 impacts are deliberately not precomputed into the index: `Bm25Params`
is a runtime setting, not a property of the artifact, and a stored
`idf * tfc` would score `weight * (idf * tfc)`, which is not bit-equal to
the per-document formula's `(weight * idf) * tfc`. Each term's `tfc` is computed on its
postings slice with the scalar expression's operation order, so array
scores equal the per-document formula bit for bit.

A `Ranking` is one query's documents as two parallel columns: `doc_ids`
(a list of str) and `scores` (a float64 array). A document's rank is its
position plus one; no per-document record exists. Run files are read into
and written from these columns, one query at a time; `load_run` keeps one
`str` per distinct doc id of the file, however many queries rank it.

Ties are always broken score-descending, doc_id-ascending (Python string
order), so run files are stable across executions; `-0.0` and `0.0` tie.
`Ranking.from_scores` is one `np.lexsort` over (doc_id rank, -score). The
top k comes from a partition at the k-th best score; every document tied
with it is kept and the survivors are sorted by (score desc, doc_id asc),
so the k-th place goes to the right doc_id. Documents that match no query
term score 0 and pad the ranking in doc_id order.
"""
from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _porter

__all__ = [
    "TokenizerConfig",
    "tokenize",
    "Bm25Params",
    "Rm3Params",
    "Ranking",
    "InvertedIndex",
    "DocTerms",
    "PostingsView",
    "build_index",
    "feedback_rows",
    "rm3_expand",
    "retrieve",
    "write_run",
    "load_run",
]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# per `lowercase` value: each ASCII code to itself for [A-Za-z0-9] (lowered
# when lowercasing) and to a space for every other ASCII character
_ASCII_TABLES = {
    lowercase: {
        c: (chr(c).lower() if lowercase else chr(c)) if chr(c).isalnum() else " "
        for c in range(128)
    }
    for lowercase in (False, True)
}


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    stem: bool = False


def tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    r"""Split on non-alphanumeric characters, lowercase, optionally stem.

    Tokens are the runs of `[^\W_]` (letters and digits, not `_`). ASCII
    text (`text.isascii()`) is tokenized by one `str.translate` that keeps
    `[A-Za-z0-9]`, lowered when lowercasing, and turns every other character
    into a space, then `split()`: on ASCII, `[^\W_]` is exactly
    `[A-Za-z0-9]` and `str.lower` lowers only `A-Z`, so the tokens are those
    of the regex path that all other text takes.
    """
    if text.isascii():
        tokens = text.translate(_ASCII_TABLES[cfg.lowercase]).split()
    else:
        tokens = _TOKEN_RE.findall(text)
        if cfg.lowercase and tokens:
            # one call for all tokens: they hold no whitespace, lower() makes none,
            # and a space bounds the final-sigma context as a token's end does
            tokens = " ".join(tokens).lower().split(" ")
    if cfg.stem:
        tokens = [_porter.stem(t) for t in tokens]
    return tokens


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class Rm3Params:
    fb_docs: int = 10
    fb_terms: int = 10
    original_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.fb_docs < 1 or self.fb_terms < 1:
            raise ValueError("fb_docs and fb_terms must be >= 1")
        if not 0.0 <= self.original_weight <= 1.0:
            raise ValueError(f"original_weight must be in [0, 1], got {self.original_weight}")


def _id_ranks(ids: list[str]) -> np.ndarray:
    """Each id's position in sorted (Python string) order."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    return rank


@dataclass(eq=False)
class Ranking:
    """One query's documents in rank order: `doc_ids[i]` has rank i + 1 and
    score `scores[i]` (float64); scores are non-increasing."""

    query_id: str
    doc_ids: list[str]
    scores: np.ndarray

    @classmethod
    def from_scores(cls, query_id: str, doc_ids: Iterable[str], scores) -> "Ranking":
        """Sort documents score-desc / doc_id-asc; ids must be distinct."""
        doc_ids = list(doc_ids)
        scores = np.asarray(scores, dtype=np.float64)
        order = cls.order(query_id, doc_ids, scores)
        return cls(query_id, [doc_ids[i] for i in order.tolist()], scores[order])

    @staticmethod
    def order(query_id: str, ids: list[str], scores: np.ndarray) -> np.ndarray:
        """Positions of `ids` in rank order: score desc, id asc (the sort of
        document and entity rankings alike); ids must be distinct."""
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate ids in ranking for query {query_id!r}")
        return np.lexsort((_id_ranks(ids), -scores))

    def __len__(self) -> int:
        return len(self.doc_ids)


class PostingsView(Mapping):
    """Read-only term -> posting doc indices view of an index's CSR arrays."""

    def __init__(self, index: "InvertedIndex"):
        self._index = index

    def __getitem__(self, term: str) -> np.ndarray:
        t = self._index.term_id[term]
        return self._index.docs[self._index.indptr[t] : self._index.indptr[t + 1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)


@dataclass(frozen=True, eq=False)
class DocTerms:
    """The (term id, tf) rows of some documents: `docs[r]` (distinct internal
    indices, ascending) has the term ids `terms[indptr[r]:indptr[r + 1]]`,
    ascending, with their tfs alongside."""

    docs: np.ndarray
    indptr: np.ndarray  # int64, (len(docs) + 1,)
    terms: np.ndarray  # int32
    tfs: np.ndarray  # int32

    def row(self, doc: int) -> tuple[np.ndarray, np.ndarray]:
        """Document `doc`'s term ids and tfs; a KeyError if it has no row."""
        r = int(np.searchsorted(self.docs, doc))
        if r == len(self.docs) or self.docs[r] != doc:
            raise KeyError(f"document {doc} has no row")
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.terms[lo:hi], self.tfs[lo:hi]


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings: term t's documents are `docs[indptr[t]:indptr[t + 1]]`
    (ascending internal doc indices) with term frequencies `tfs` alongside.
    Lookups derived from these arrays are built on first use."""

    terms: list[str]
    indptr: np.ndarray  # int64, (len(terms) + 1,)
    docs: np.ndarray  # int32, (postings,)
    tfs: np.ndarray  # int32, (postings,)
    doc_ids: list[str]
    doc_lengths: np.ndarray  # int64, (doc_count,)
    tokenizer: TokenizerConfig

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def avg_doc_length(self) -> float:
        return int(self.doc_lengths.sum()) / self.doc_count

    @cached_property
    def term_id(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    @cached_property
    def doc_position(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.doc_ids)}

    @cached_property
    def doc_rank(self) -> np.ndarray:
        """Each document's position in doc_id order (the tie-break key)."""
        return _id_ranks(self.doc_ids)

    def doc_terms(self, docs: np.ndarray) -> DocTerms:
        """The rows of the documents `docs`. One gather of a membership mask
        over `docs` finds their postings in term order, and a stable sort by
        document keeps that order within each row."""
        docs = np.unique(docs)
        member = np.zeros(self.doc_count, dtype=bool)
        member[docs] = True
        hit = np.empty(len(self.docs), dtype=bool)
        step = 1 << 16  # in slices: `take` widens its int32 indices to intp
        for lo in range(0, len(self.docs), step):
            np.take(member, self.docs[lo : lo + step], out=hit[lo : lo + step])
        at = np.flatnonzero(hit)
        at = at[np.argsort(self.docs[at], kind="stable")]
        terms = (np.searchsorted(self.indptr, at, side="right") - 1).astype(np.int32)
        rows = _indptr(np.searchsorted(docs, self.docs[at]), len(docs))
        return DocTerms(docs, rows, terms, self.tfs[at])

    @property
    def postings(self) -> PostingsView:
        return PostingsView(self)


def _indptr(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers for entries whose row ids are `ids` (rows 0..n-1)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    return indptr


def build_index(
    corpus: Mapping[str, str] | Iterable[tuple[str, str]],
    tokenizer: TokenizerConfig = TokenizerConfig(),
) -> InvertedIndex:
    """Index an id -> text mapping (e.g. entity descriptions) or the
    `(doc_id, text)` pairs of a corpus, read once."""
    if isinstance(corpus, Mapping):
        corpus = corpus.items()

    # an id per token (a new term takes the next id: first-occurrence order)
    term_id: defaultdict[str, int] = defaultdict()
    term_id.default_factory = term_id.__len__
    token_ids, doc_lengths, doc_ids = array("i"), array("q"), []
    for doc_id, text in corpus:
        tokens = tokenize(text, tokenizer)
        token_ids.extend(map(term_id.__getitem__, tokens))
        doc_lengths.append(len(tokens))
        doc_ids.append(doc_id)
    if not doc_ids:
        raise ValueError("cannot build an index over an empty corpus")
    terms = list(term_id)
    term_id.clear()  # its default factory refers to it: `del` would leave a cycle
    n = len(doc_ids)
    doc_lengths = np.array(doc_lengths, dtype=np.int64)
    # keys `term * n + doc`, built and sorted in place: a run of equal keys
    # is one posting, its length the tf
    keys = np.frombuffer(token_ids, dtype=np.int32).astype(np.int64)
    del token_ids
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int32), doc_lengths)
    keys.sort()
    run_start = np.empty(len(keys), dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    n_tokens = len(keys)
    keys = keys[run_start]
    starts = np.flatnonzero(run_start)
    del run_start
    tfs = np.empty(len(starts), dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=tfs[:-1], casting="unsafe")
    tfs[-1:] = n_tokens - starts[-1:]
    del starts
    docs = np.empty(len(keys), dtype=np.int32)
    np.remainder(keys, n, out=docs, casting="unsafe")
    keys //= n  # now the term ids
    return InvertedIndex(
        terms=terms,
        indptr=_indptr(keys, len(terms)),
        docs=docs,
        tfs=tfs,
        doc_ids=doc_ids,
        doc_lengths=doc_lengths,
        tokenizer=tokenizer,
    )


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def _score_all(
    index: InvertedIndex, weighted_terms: Iterable[tuple[str, float]], params: Bm25Params
) -> np.ndarray:
    """Term-at-a-time weighted BM25 over every document. Each (term, weight)
    pair adds `(weight * idf) * tfc` to its postings' scores, pairs in order."""
    scores = np.zeros(index.doc_count)
    for term, weight in weighted_terms:
        t = index.term_id.get(term)
        if t is None:
            continue
        lo, hi = int(index.indptr[t]), int(index.indptr[t + 1])
        docs, tf = index.docs[lo:hi], index.tfs[lo:hi]
        dl = index.doc_lengths[docs]
        norm = params.k1 * (1.0 - params.b + params.b * dl / index.avg_doc_length)
        tfc = tf * (params.k1 + 1.0) / (tf + norm)
        scores[docs] += (weight * _idf(index.doc_count, hi - lo)) * tfc
    return scores


def _top_k(index: InvertedIndex, scores: np.ndarray, docs: np.ndarray, k: int) -> np.ndarray:
    """The k best of `docs` (internal indices), score-desc then doc_id-asc.
    Only documents scoring at least the k-th best score are sorted."""
    s = scores[docs]
    if k < len(docs):
        kth = np.partition(s, len(s) - k)[len(s) - k]
        docs, s = docs[s >= kth], s[s >= kth]
    return docs[np.lexsort((index.doc_rank[docs], -s))[:k]]


def _original_query_model(query_terms: list[str]) -> dict[str, float]:
    """Uniform weights over the distinct terms; empty for an empty query."""
    distinct = dict.fromkeys(query_terms)
    return {t: 1.0 / len(distinct) for t in distinct}


def _feedback(
    index: InvertedIndex, original: dict[str, float], params: Rm3Params, bm25: Bm25Params
) -> tuple[np.ndarray, np.ndarray]:
    """RM3's feedback documents for the query model `original`, best first,
    and the BM25 scores of the pass that picked them."""
    scores = _score_all(index, original.items(), bm25)
    return _top_k(index, scores, np.flatnonzero(scores > 0.0), params.fb_docs), scores


def feedback_rows(
    index: InvertedIndex,
    queries: Iterable[list[str]],
    params: Rm3Params = Rm3Params(),
    bm25: Bm25Params = Bm25Params(),
) -> DocTerms:
    """The rows of every document that RM3 feeds back for one of the
    tokenized `queries`, from one scan of the postings."""
    feedback = [_feedback(index, _original_query_model(terms), params, bm25)[0]
                for terms in queries]
    return index.doc_terms(np.concatenate([np.empty(0, dtype=np.intp), *feedback]))


def rm3_expand(
    index: InvertedIndex,
    query_terms: list[str],
    params: Rm3Params = Rm3Params(),
    bm25: Bm25Params = Bm25Params(),
    rows: DocTerms | None = None,
) -> dict[str, float]:
    """RM3 pseudo-relevance feedback: a relevance model over the top
    `fb_docs` documents (document weights = softmax of their BM25 scores),
    truncated to `fb_terms` terms, interpolated with the uniform original
    query model at `original_weight`. Output weights sum to 1; a query
    without terms gives an empty model. The feedback documents' terms come
    from `rows` (`feedback_rows` of a batch of queries), else from a scan of
    the postings for this query alone.
    """
    original = _original_query_model(query_terms)
    if params.original_weight == 1.0:
        return original
    feedback, scores = _feedback(index, original, params, bm25)
    if not len(feedback):
        return original

    # softmax-normalized doc weights over the feedback set
    fb_scores = scores[feedback].tolist()
    max_s = max(fb_scores)
    exp_s = [math.exp(s - max_s) for s in fb_scores]
    z = sum(exp_s)

    # each feedback document's own terms, document after document
    if rows is None:
        rows = index.doc_terms(feedback)
    term_weights: dict[int, float] = {}
    for i, e in zip(feedback.tolist(), exp_s):
        doc_weight = e / z
        dl = int(index.doc_lengths[i])
        terms, tfs = rows.row(i)
        for t, tf in zip(terms.tolist(), tfs.tolist()):
            term_weights[t] = term_weights.get(t, 0.0) + doc_weight * tf / dl

    top = sorted(
        ((index.terms[t], w) for t, w in term_weights.items()), key=lambda item: (-item[1], item[0])
    )[: params.fb_terms]
    total = sum(w for _, w in top)
    feedback_model = {t: w / total for t, w in top}

    alpha = params.original_weight
    combined: dict[str, float] = {}
    for t, w in original.items():
        combined[t] = alpha * w
    for t, w in feedback_model.items():
        combined[t] = combined.get(t, 0.0) + (1.0 - alpha) * w
    return {t: w for t, w in combined.items() if w > 0.0}


def retrieve(
    index: InvertedIndex,
    query: str | list[str],
    k: int = 1000,
    mode: str = "bm25",
    bm25: Bm25Params = Bm25Params(),
    rm3: Rm3Params = Rm3Params(),
    query_id: str = "",
    rows: DocTerms | None = None,
) -> Ranking:
    """Top-k retrieval; `mode` is "bm25" or "bm25_rm3" (second-pass scoring
    with the expanded weighted query; `rows` as for `rm3_expand`). Every
    indexed document is scored, so a k beyond the matched set is padded with
    zero-score documents in doc_id order (all of the top k, for a query
    without terms).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if mode not in ("bm25", "bm25_rm3"):
        raise ValueError(f"unknown retrieval mode {mode!r}")
    terms = tokenize(query, index.tokenizer) if isinstance(query, str) else list(query)

    if mode == "bm25":
        # duplicate query terms accumulate per occurrence, like a bag of words
        weighted: dict[str, float] = {}
        for t in terms:
            weighted[t] = weighted.get(t, 0.0) + 1.0
    else:
        weighted = rm3_expand(index, terms, rm3, bm25, rows)

    scores = _score_all(index, weighted.items(), bm25)
    top = _top_k(index, scores, np.arange(index.doc_count), k)
    return Ranking(query_id, [index.doc_ids[i] for i in top.tolist()], scores[top])


def write_run(rankings: Iterable[Ranking], path: str, tag: str = "dreq") -> None:
    """Write TREC run lines `qid Q0 docid rank score tag` (score to 6 dp)."""
    with open(path, "w", encoding="utf-8") as f:
        for r in rankings:
            q = r.query_id
            f.write("".join(
                f"{q} Q0 {d} {rank} {s:.6f} {tag}\n"
                for rank, (d, s) in enumerate(zip(r.doc_ids, r.scores.tolist()), start=1)
            ))


def load_run(path: str) -> dict[str, Ranking]:
    """Load a TREC run file into per-query rankings (queries in file order).
    A query's ranks must run 1..n, and no document may appear twice in it.
    A doc id repeated across queries is one `str` object."""
    per_query: dict[str, tuple[list[str], list[int], list[float], set[str]]] = {}
    doc_memo: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{line_no}: expected 6 columns, got {len(parts)}")
            qid, _, doc_id, rank, score, _tag = parts
            columns = per_query.get(qid)
            if columns is None:
                columns = per_query[qid] = ([], [], [], set())
            docs, ranks, scores, seen = columns
            if doc_id in seen:
                raise ValueError(f"{path}:{line_no}: doc {doc_id!r} repeated for query {qid!r}")
            doc_id = doc_memo.setdefault(doc_id, doc_id)
            seen.add(doc_id)
            try:
                ranks.append(int(rank))
                scores.append(float(score))
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: bad rank/score") from e
            docs.append(doc_id)
    rankings: dict[str, Ranking] = {}
    for qid, (docs, ranks, scores, _) in per_query.items():
        ranks = np.array(ranks)
        order = np.argsort(ranks, kind="stable")
        if not np.array_equal(ranks[order], np.arange(1, len(ranks) + 1)):
            raise ValueError(f"{path}: ranks for query {qid!r} not contiguous from 1")
        rankings[qid] = Ranking(qid, [docs[i] for i in order.tolist()], np.array(scores)[order])
    return rankings
