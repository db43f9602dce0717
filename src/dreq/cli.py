"""Command-line pipeline: retrieve, harness entities, rerank, evaluate.

Stages communicate through files in a work directory, so every step is
re-runnable and inspectable. Settings resolve as CLI flag > DREQ_*
environment variable > config file > default; a config-file key or a DREQ_*
variable that names no setting is an error. One table, `_KEYS`, gives each
key's default and parser; `_BUNDLES` maps each setting bundle's fields
(`TokenizerConfig`, ..., `TrainConfig`) to keys. `Settings` parses every key
and builds every bundle before a stage opens a file, so any stage stops on a
bad value, even of a key it does not read, with one `error: config key
'<key>' ...` line. A `cmd_*` function runs one stage and opens every file
through its `Settings`, which records it: `input` a file named by a config
key (corpus, entity_catalog, queries, qrels, query_links) under that key;
`artifact` a work-dir or flag-named file, once it is found to exist (else an
`error:` line names the stage that writes it); `save` each output, written
atomically (temp file + rename). A work-dir file is keyed by its path
relative to the work dir, any other by its path. `main` then writes the
stage's manifest from that record: `stage`, `flags` (the stage's own
arguments), `config_digest` (sha256 of the config file), `seed`, `inputs`
and `outputs` (key -> the path opened) and `seconds`. It is
`manifests/<stage>.json`, but `evaluate-<tag>.json` and `rerank-<output file
stem>.json` for the two stages whose output is named per run.

Numbers one stage hands to the next are arrays in one deterministic `.npz`
format (`dreq._npz`): `index.npz`, `corpus_links.npz`, `stores/<name>.npz`
(and the fine-tuned `stores/entity_tuned_fold{i}.npz`), `entity_head.npz`,
`entity_ranking.npz` and `dreq_fold{i}.ckpt`. An unreadable one is an `error:` line naming the
stage to rerun. What people read stays text: run files, the eval, ablate,
wig and difficulty TSVs, training logs, `folds.json`,
`pooled_entities.tsv` and the manifests.

Each stage runs in its own process, so start-up is paid nine times on the
user's path. This module loads only the first-stage modules (`corpus`,
`retrieval`) and `config` (the model stages' bundles) up front; a stage
imports the rest of what it runs inside its `cmd_*` function, so
`build-index`, `retrieve` and `evaluate` load no model or training code.
Only `build-index` (with `mentions=False`: every line and mention is
checked, only the texts are kept, and each document is dropped once it is
tokenized), `pool-entities` and `synth-embed` parse `corpus.jsonl`.
`pool-entities` also writes `corpus_links.npz` (`pipeline.CorpusLinks`: doc
ids, sentence counts and linked entities), which `train-entity-ranker`,
`train-dreq`, `ablate` and `rerank` read in its place. Only `synth-embed`
(whose entity store covers the catalog) and `rank-entities --mode
bm25|geeer` (which index its descriptions) read the entity catalog. A run in
weighting mode none reads no entity ranking, and no entity store unless it
fine-tunes entity embeddings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from . import _npz
from .config import DimsConfig, TrainConfig, WeightingMode, _unit_lambda
from .corpus import (
    Qrels,
    SegmenterConfig,
    load_corpus,
    load_entity_catalog,
    load_qrels,
    load_queries,
    split_sentences,
)
from .retrieval import (
    Bm25Params,
    InvertedIndex,
    Ranking,
    Rm3Params,
    TokenizerConfig,
    build_index,
    load_run,
    write_run,
)

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from .embeddings import EmbeddingStore
    from .entity_ranking import EntityRanking
    from .model import DreqModel, FeatureTable
    from .pipeline import CorpusLinks

ENV_PREFIX = "DREQ_"


class CliError(Exception):
    pass


def _number(kind, least: int | None = None):
    """A parser of `kind` (int or float) numbers, each >= `least` if given."""
    what = "an integer" if kind is int else "a number"
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"is not {what}: {text!r}") from None
        if least is not None and value < least:
            bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
            raise ValueError(f"must be {bound}, got {value}")
        return value
    return parse


def _bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"is not a boolean: {text!r}")
    return text.lower() in ("1", "true", "yes", "on")


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


_INT, _FLOAT, _COUNT = _number(int), _number(float), _number(int, least=1)
# config key -> (default, parser); a parser's ValueError is "<predicate>"
_KEYS = {
    "workdir": ("work", str),
    **{f"dims.{d}": ("32", _INT) for d in "kmnp"},
    "tokenizer.stem": ("false", _bool),
    "bm25.k1": ("0.9", _FLOAT),
    "bm25.b": ("0.4", _FLOAT),
    "rm3.fb_docs": ("10", _INT),
    "rm3.fb_terms": ("10", _INT),
    "rm3.alpha": ("0.5", _FLOAT),
    "segmenter.window": ("10", _INT),
    "segmenter.stride": ("5", _INT),
    "retrieve.k": ("1000", _COUNT),
    "retrieve.mode": ("bm25_rm3", _one_of("bm25", "bm25_rm3")),
    "entity.mode": ("learned", _one_of("learned", "bm25", "geeer")),
    "geeer.lambda": ("0.5", _FLOAT),
    "weighting.mode": ("probability", _one_of(*(m.value for m in WeightingMode))),
    "finetune_entity_embeddings": ("false", _bool),
    "train.learning_rate": ("1e-5", _FLOAT),
    "train.batch_size": ("20", _INT),
    "train.epochs": ("20", _INT),
    "folds.k": ("5", _number(int, least=2)),
    "eval.prec_k": ("20", _COUNT),
    "eval.ndcg_k": ("20", _COUNT),
    "eval.recall_k": ("1000", _COUNT),
    "wig.k": ("20", _COUNT),
    "run.tag": ("dreq", str),
    # every stage's manifest records the seed, and numpy takes no negative one
    "seed": ("13", _number(int, least=0)),
}
_INPUT_KEYS = ("corpus", "entity_catalog", "queries", "qrels", "query_links")  # no default

# `Settings` attribute -> (a bundle class or check, {its field: config key})
_BUNDLES = {
    "tokenizer": (TokenizerConfig, {"stem": "tokenizer.stem"}),
    "bm25": (Bm25Params, {"k1": "bm25.k1", "b": "bm25.b"}),
    "rm3": (Rm3Params, {"fb_docs": "rm3.fb_docs", "fb_terms": "rm3.fb_terms",
                        "original_weight": "rm3.alpha"}),
    "segmenter": (SegmenterConfig, {"window": "segmenter.window", "stride": "segmenter.stride"}),
    "dims": (DimsConfig, {d: f"dims.{d}" for d in "kmnp"}),
    "train": (TrainConfig, {"learning_rate": "train.learning_rate", "seed": "seed",
                            "batch_size": "train.batch_size", "epochs": "train.epochs",
                            "finetune_entity_embeddings": "finetune_entity_embeddings"}),
    "geeer_lambda": (_unit_lambda, {"lam": "geeer.lambda"}),
    "cutoffs": (dict, {"prec_k": "eval.prec_k", "ndcg_k": "eval.ndcg_k",
                       "recall_k": "eval.recall_k"}),  # of `evaluate_run`
}


def _keyed(error: ValueError, fields: dict[str, str]) -> CliError:
    """A bundle's `error`, "<subject> must ...", naming the key of the first
    subject word that is a field in `fields` (or a key), else its only key."""
    subject, _, predicate = str(error).partition(" must ")
    named = [fields.get(w, w) for w in subject.split() if w in fields or w in _KEYS]
    return CliError(f"config key {(named or list(fields.values()))[0]!r} must {predicate}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file; blank lines and `#` comments ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise CliError(f"{path}:{line_no}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class Settings:
    """The resolved configuration: `get(key)` gives a key's parsed value and
    each `_BUNDLES` name its bundle, every one checked when constructed; and
    the record of the files a stage reads (`inputs`) and writes (`outputs`),
    keyed as `main` writes them to the manifest (the module docstring)."""

    def __init__(self, args: argparse.Namespace):
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.manifest_name = getattr(args, "command", None)
        self.values = {key: default for key, (default, _) in _KEYS.items()}
        self.config_path = getattr(args, "config", None)
        self.config_bytes = b""
        if self.config_path:
            with open(self.config_path, "rb") as f:
                self.config_bytes = f.read()
            self.values.update(load_config_file(self.config_path))
        env = {ENV_PREFIX + key.upper().replace(".", "_"): key for key in (*_KEYS, *_INPUT_KEYS)}
        unknown = [f"config key {key!r}" for key in self.values if key not in env.values()]
        unknown += [f"environment variable {name}" for name in os.environ
                    if name.startswith(ENV_PREFIX) and name not in env]
        if unknown:
            raise CliError(f"{unknown[0]} names no setting")
        for name, key in env.items():
            if name in os.environ:
                self.values[key] = os.environ[name]
        for flag in ("seed", "workdir"):
            v = getattr(args, flag, None)
            if v is not None:
                self.values[flag] = str(v)
        self.args = args
        for key, (_, parse) in _KEYS.items():
            try:
                self.values[key] = parse(self.values[key])
            except ValueError as e:
                raise CliError(f"config key {key!r} {e}") from None
        for name, (bundle, fields) in _BUNDLES.items():
            try:
                setattr(self, name, bundle(**{f: self.values[key] for f, key in fields.items()}))
            except ValueError as e:
                raise _keyed(e, fields) from None
        self.seed, self.workdir = self.values["seed"], self.values["workdir"]

    def get(self, key: str):
        if key in self.values:
            return self.values[key]
        raise CliError(f"missing required config key {key!r} (config file or {ENV_PREFIX}* env)")

    def workpath(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _key(self, path: str) -> str:
        rel = os.path.relpath(path, self.workdir)
        return path if rel == os.pardir or rel.startswith(os.pardir + os.sep) else rel

    def input(self, key: str, optional: bool = False) -> str | None:
        """The file named by config key `key` (None if `optional` and unset),
        recorded under that key."""
        if optional and key not in self.values:
            return None
        self.inputs[key] = self.get(key)
        return self.inputs[key]

    def artifact(self, path: str, produced_by: str) -> str:
        """`path`, recorded; an error naming the stage that writes it if missing."""
        if not os.path.exists(path):
            raise CliError(f"missing artifact {path!r}; run `dreq {produced_by}` first")
        self.inputs[self._key(path)] = path
        return path

    def save(self, path: str, write, *args, **kw) -> str:
        """`write(*args, tmp, **kw)`, then rename `tmp` onto `path` only if the
        write succeeded; records and returns `path`."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        try:
            write(*args, tmp, **kw)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.outputs[self._key(path)] = path
        return path

    def config_digest(self) -> str:
        return hashlib.sha256(self.config_bytes).hexdigest()


def _write_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_manifest(settings: Settings, t0: float) -> None:
    args = vars(settings.args)
    flags = {k: v for k, v in args.items() if k not in ("command", "config", "seed", "workdir")}
    manifest = {
        "stage": args["command"],
        "flags": flags,
        "config_digest": settings.config_digest(),
        "seed": settings.seed,
        "inputs": settings.inputs,
        "outputs": settings.outputs,
        "seconds": round(time.time() - t0, 3),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    path = settings.workpath(os.path.join("manifests", f"{settings.manifest_name}.json"))
    settings.save(path, _write_text, text)


# --- artifact I/O ----------------------------------------------------------------


_INDEX_ARRAYS = ("indptr", "docs", "tfs", "doc_lengths")


def save_index(index: InvertedIndex, path: str) -> None:
    terms, term_offsets = _npz.pack_strings(index.terms)
    doc_ids, doc_id_offsets = _npz.pack_strings(index.doc_ids)
    _npz.write(path, {
        "tokenizer": np.array([index.tokenizer.lowercase, index.tokenizer.stem]),
        "terms": terms,
        "term_offsets": term_offsets,
        "doc_ids": doc_ids,
        "doc_id_offsets": doc_id_offsets,
        **{name: getattr(index, name) for name in _INDEX_ARRAYS},
    })


def load_index(path: str) -> InvertedIndex:
    names = ("tokenizer", "terms", "term_offsets", "doc_ids", "doc_id_offsets", *_INDEX_ARRAYS)
    arrays = _npz.read(path, names, "index", "build-index")
    lowercase, stem = arrays["tokenizer"].tolist()
    return InvertedIndex(
        terms=_npz.unpack_strings(arrays["terms"], arrays["term_offsets"]),
        doc_ids=_npz.unpack_strings(arrays["doc_ids"], arrays["doc_id_offsets"]),
        tokenizer=TokenizerConfig(lowercase=lowercase, stem=stem),
        **{name: arrays[name] for name in _INDEX_ARRAYS},
    )


def write_pooled(pooled: dict[str, list[str]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(pooled):
            for eid in pooled[qid]:
                f.write(f"{qid}\t{eid}\n")


def load_pooled(path: str) -> dict[str, list[str]]:
    pooled: dict[str, list[str]] = {}
    for _, (qid, eid) in _tsv_rows(path, "qid<TAB>entity"):
        pooled.setdefault(qid, []).append(eid)
    return pooled


def load_query_links(path: str) -> dict[str, list[tuple[str, float]]]:
    """query_id -> [(entity_id, confidence)]; a confidence must be a finite number."""
    links: dict[str, list[tuple[str, float]]] = {}
    for where, (qid, eid, confidence) in _tsv_rows(path, "qid<TAB>entity<TAB>confidence"):
        links.setdefault(qid, []).append((eid, _finite(confidence, f"{where}: confidence")))
    return links


def load_wig(path: str) -> dict[str, float]:
    """query_id -> WIG score, from the `qpp` table; a score must be a finite number."""
    rows = _tsv_rows(path, "query_id<TAB>wig<TAB>tercile", header=True)
    return {qid: _finite(score, f"{where}: wig") for where, (qid, score, _) in rows}


def _tsv_rows(path: str, layout: str, header: bool = False):
    """("path:line", fields) of each non-blank line (after the header line);
    a line with another field count than `layout` is an error naming it."""
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or (header and line_no == 1):
                continue
            parts = line.split("\t")
            if len(parts) != layout.count("<TAB>") + 1:
                raise CliError(f"{path}:{line_no}: expected {layout!r}")
            yield f"{path}:{line_no}", parts


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:  # reported below, as a non-finite one is
        value = float("nan")
    if not np.isfinite(value):
        raise CliError(f"{what} {text!r} is not a finite number")
    return value


# --- shared loading --------------------------------------------------------------


def _load_stores(settings: Settings, *names: str) -> list[EmbeddingStore]:
    """The stores `names` (of `STORE_NAMES`), in that order: only those the stage reads."""
    from .embeddings import load_store, store_path

    return [
        load_store(settings.artifact(store_path(settings.workdir, name), "synth-embed"))
        for name in names
    ]


def _candidates(settings: Settings):
    return load_run(settings.artifact(settings.workpath("candidates.run"), "retrieve"))


def _pooled(settings: Settings) -> dict[str, list[str]]:
    return load_pooled(settings.artifact(settings.workpath("pooled_entities.tsv"), "pool-entities"))


def _links(settings: Settings):
    from .pipeline import load_corpus_links

    path = settings.artifact(settings.workpath("corpus_links.npz"), "pool-entities")
    return load_corpus_links(path)


def _entity_inputs(
    settings: Settings, modes: Iterable[str], finetune: bool
) -> tuple[CorpusLinks, EmbeddingStore, dict[str, EntityRanking]]:
    """The corpus links, the entity store and the entity rankings that a
    scorer in the weighting `modes` reads. Only a mode that weights entities
    reads the rankings; it or `finetune` (which saves each fold's copy of the
    store, in any mode) reads the store. Mode none alone reads neither: the
    links without their entities and an empty store of width `dims.m` stand in."""
    from .entity_ranking import load_entity_rankings

    links = _links(settings)
    weighted = any(mode != "none" for mode in modes)
    if not (weighted or finetune):
        from dataclasses import replace

        from .embeddings import EmbeddingStore

        unlinked = replace(links, indptr=np.zeros_like(links.indptr),
                           entity_index=links.entity_index[:0], entity_ids=[])
        return unlinked, EmbeddingStore("entity", [], np.zeros((0, settings.dims.m))), {}
    (store,) = _load_stores(settings, "entity")
    if not weighted:
        return links, store, {}
    path = settings.artifact(settings.workpath("entity_ranking.npz"), "rank-entities")
    return links, store, load_entity_rankings(path)


# --- subcommands -----------------------------------------------------------------


def cmd_build_index(settings: Settings) -> None:
    # the index reads only the texts: every mention is checked, none is built
    documents = deque(load_corpus(settings.input("corpus"), mentions=False).documents.values())

    def texts():  # each document goes once it is tokenized, before the array phase
        while documents:
            doc = documents.popleft()
            yield doc.doc_id, doc.text

    index = build_index(texts(), settings.tokenizer)
    index_path = settings.save(settings.workpath("index.npz"), save_index, index)
    print(f"indexed {index.doc_count} documents -> {index_path}")


def cmd_retrieve(settings: Settings) -> None:
    from .pipeline import candidate_rankings

    index = load_index(settings.artifact(settings.workpath("index.npz"), "build-index"))
    queries = load_queries(settings.input("queries"))
    k, mode = settings.get("retrieve.k"), settings.get("retrieve.mode")
    cands = candidate_rankings(index, queries, k=k, mode=mode, bm25=settings.bm25,
                               rm3=settings.rm3)
    runs = (cands[q.query_id] for q in queries)
    out = settings.save(settings.workpath("candidates.run"), write_run, runs, tag=f"{mode}")
    print(f"retrieved top-{k} ({mode}) for {len(queries)} queries -> {out}")


def cmd_pool_entities(settings: Settings) -> None:
    from .pipeline import corpus_links, pooled_entities_map, save_corpus_links

    corpus = load_corpus(settings.input("corpus"))
    cands = _candidates(settings)
    qrels = settings.input("qrels", optional=True)
    pooled = pooled_entities_map(corpus, cands, None if qrels is None else load_qrels(qrels))
    out = settings.save(settings.workpath("pooled_entities.tsv"), write_pooled, pooled)
    links = corpus_links(corpus.documents.values())
    settings.save(settings.workpath("corpus_links.npz"), save_corpus_links, links)
    total = sum(len(v) for v in pooled.values())
    print(f"pooled {total} (query, entity) pairs over {len(pooled)} queries -> {out}")


def cmd_synth_embed(settings: Settings) -> None:
    from .embeddings import (STORE_NAMES, EmbeddingStore, passage_key, query_entity_key,
                             save_store, store_path, synthetic_embed_rows)

    corpus = load_corpus(settings.input("corpus"), settings.input("entity_catalog", optional=True))
    queries = load_queries(settings.input("queries"))
    pooled = _pooled(settings)
    dims, seed, seg = settings.dims, settings.seed, settings.segmenter

    def embedded(space: str, dim: int, keys) -> EmbeddingStore:
        keys = list(keys)
        return EmbeddingStore(space, keys, synthetic_embed_rows(space, keys, dim, seed))

    query_store = embedded("query", dims.p, (q.query_id for q in queries))
    entity_store = embedded("entity", dims.m, corpus.entities)
    passage_store = embedded("passage", dims.n, (
        passage_key(doc.doc_id, i)
        for doc in corpus.documents.values()
        for i in range(seg.passage_count(len(split_sentences(doc.text))))
    ))
    encoding_store = embedded("query_entity", dims.k, (
        query_entity_key(qid, eid) for qid in sorted(pooled) for eid in pooled[qid]
    ))

    stores = (query_store, entity_store, passage_store, encoding_store)
    for name, store in zip(STORE_NAMES, stores):
        settings.save(store_path(settings.workdir, name), save_store, store)
    print(
        f"materialized stores: query={len(query_store)} entity={len(entity_store)} "
        f"passage={len(passage_store)} query_entity={len(encoding_store)}"
    )


def cmd_train_entity_ranker(settings: Settings) -> None:
    from .entity_ranking import save_entity_head, train_entity_head
    from .pipeline import build_entity_encoding_examples, entity_labels_map
    from .training import write_training_log

    cands = _candidates(settings)
    qrels = load_qrels(settings.input("qrels"))
    (encodings,) = _load_stores(settings, "query_entity")
    labels = entity_labels_map(_links(settings), cands, qrels)
    if not any(labels.values()):
        raise CliError("no candidate or judged-relevant document links an entity, "
                       "so the entity head has nothing to train on")
    X, y = build_entity_encoding_examples(labels, encodings, settings.seed)
    log_rows: list = []
    head = train_entity_head(X, y, settings.train, log_rows=log_rows)
    head_path = settings.save(settings.workpath("entity_head.npz"), save_entity_head, head)
    settings.save(settings.workpath("entity_train_log.tsv"), write_training_log, log_rows)
    print(f"trained entity head on {len(y)} examples -> {head_path}")


def cmd_rank_entities(settings: Settings) -> None:
    from .entity_ranking import (bm25_entity_rank, geeer_entity_rank, load_entity_head,
                                 save_entity_rankings)
    from .pipeline import entity_rankings_map

    mode = getattr(settings.args, "mode", None) or settings.get("entity.mode")
    pooled = _pooled(settings)
    bm25_only = 0

    if mode == "learned":
        (encodings,) = _load_stores(settings, "query_entity")
        path = settings.artifact(settings.workpath("entity_head.npz"), "train-entity-ranker")
        rankings = entity_rankings_map(load_entity_head(path), pooled, encodings)
    else:  # bm25 or geeer
        queries = {q.query_id: q for q in load_queries(settings.input("queries"))}
        # the catalog alone, in its own order: BM25 reads only df, dl, avgdl
        # and tf, so the order of the indexed descriptions changes no score
        catalog = settings.input("entity_catalog", optional=True)
        records = load_entity_catalog(catalog).values() if catalog is not None else ()
        descriptions = {rec.entity_id: rec.description for rec in records if rec.description}
        if mode == "bm25" and not descriptions:
            raise CliError("bm25 entity ranking needs entity descriptions (entity_catalog)")
        desc_index = build_index(descriptions, settings.tokenizer) if descriptions else None
        bm25 = settings.bm25
        rankings = {qid: bm25_entity_rank(queries[qid].text, pooled[qid], desc_index, bm25, qid)
                    for qid in sorted(pooled)}
        if mode == "geeer":
            (entity_store,) = _load_stores(settings, "entity")
            links = load_query_links(settings.input("query_links"))
            lam = settings.geeer_lambda
            for qid, sparse in rankings.items():
                bm25_scores = dict(zip(sparse.entity_ids, sparse.raw_scores.tolist()))
                ranked = geeer_entity_rank(links.get(qid, []), pooled[qid], entity_store,
                                           bm25_scores, lam, query_id=qid)
                if ranked is None:  # no query entity to compare with: BM25 alone
                    bm25_only += 1
                else:
                    rankings[qid] = ranked

    path = settings.save(settings.workpath("entity_ranking.npz"), save_entity_rankings, rankings)
    # probabilities as run scores
    runs = [Ranking(qid, r.entity_ids, r.probs) for qid, r in sorted(rankings.items())]
    settings.save(settings.workpath("entity_ranking.run"), write_run, runs, tag=f"entities-{mode}")
    print(f"ranked entities ({mode}) for {len(rankings)} queries, "
          f"{bm25_only} by BM25 alone -> {path}")


def _training_inputs(settings: Settings, modes: Iterable[str]):
    """What `train-dreq` and `ablate` read: (qrels, document examples, folds,
    TrainData, TrainConfig, the number of judged-relevant documents of the
    candidate queries that are not in the corpus). The TrainData holds the
    entity inputs that `_entity_inputs` reads for the weighting `modes`."""
    from .training import TrainData, build_doc_examples, make_folds

    cands = _candidates(settings)
    qrels = load_qrels(settings.input("qrels"))
    cfg = settings.train
    query_store, passage_store = _load_stores(settings, "query", "passage")
    links, entity_store, rankings = _entity_inputs(settings, modes,
                                                   cfg.finetune_entity_embeddings)
    seed = settings.seed
    # a judged-relevant document outside the corpus has nothing to score, so
    # it is no positive, as `pooling_docs` pools no entity from it
    in_corpus = Qrels({
        qid: {d: grade for d, grade in per_query.items() if d in links.row}
        for qid, per_query in qrels.grades.items()
    })
    unknown = sum(d not in links.row for qid in cands for d in qrels.relevant_docs(qid))
    examples = build_doc_examples(in_corpus, cands, seed)
    if not examples:
        raise CliError("no document training examples (check qrels coverage)")
    try:
        folds = make_folds(sorted(cands), k=settings.get("folds.k"), seed=seed)
    except ValueError as e:  # more folds than the candidates' queries
        raise CliError(f"config key 'folds.k': {e} of config key 'queries'") from None
    data = TrainData(links, query_store, entity_store, passage_store, rankings, cands,
                     settings.segmenter)
    return qrels, examples, folds, data, cfg, unknown


def cmd_train_dreq(settings: Settings) -> None:
    from .embeddings import save_store, store_path
    from .model import DreqModel, save_checkpoint
    from .training import train_dreq, write_training_log

    mode = settings.get("weighting.mode")
    _, examples, folds, data, cfg, unknown = _training_inputs(settings, [mode])
    template = DreqModel.init(settings.dims, mode=mode, seed=settings.seed)
    result = train_dreq([template], examples, folds, data, cfg)
    (outcomes,), (reranked,) = result.fold_outcomes, result.reranked

    settings.save(settings.workpath("folds.json"), folds.save)
    for outcome in outcomes:
        i = outcome.fold_index
        settings.save(settings.workpath(f"dreq_fold{i}.ckpt"), save_checkpoint, outcome.model)
        if cfg.finetune_entity_embeddings:
            tuned = store_path(settings.workdir, f"entity_tuned_fold{i}")
            settings.save(tuned, save_store, outcome.entity_store)
    runs = (reranked[qid] for qid in sorted(reranked))
    out = settings.save(settings.workpath("dreq.run"), write_run, runs, tag=settings.get("run.tag"))
    settings.save(settings.workpath("dreq_train_log.tsv"), write_training_log, result.log_rows)
    print(
        f"trained {len(outcomes)} folds on {len(examples)} examples "
        f"({result.empty_text_docs} documents without text), {unknown} judged-relevant "
        f"documents not in the corpus skipped; out-of-fold run -> {out}"
    )


def _rerank_models(settings: Settings, qids: list[str]) -> dict[str, tuple[int | None, DreqModel]]:
    """The fold and the model that score each query: `--checkpoint` for every
    query (no fold), else the checkpoint of the fold whose test set holds it
    (out of fold). `--weighting` sets each model's mode."""
    from .model import load_checkpoint

    ckpt = settings.args.checkpoint
    fold_of: dict[str, int | None] = dict.fromkeys(qids)  # --checkpoint: no fold
    if not ckpt:
        from .training import FoldPlan

        plan = FoldPlan.load(settings.artifact(settings.workpath("folds.json"), "train-dreq"))
        fold_of = {qid: i for i, fold in enumerate(plan.folds) for qid in fold.test}
        unplanned = [qid for qid in qids if qid not in fold_of]
        if unplanned:
            raise CliError(f"queries {unplanned[:5]} are in no test fold of folds.json; "
                           "rerun `dreq train-dreq` or pass --checkpoint")
    models = {}
    for i in dict.fromkeys(fold_of[qid] for qid in qids):
        path = ckpt or settings.workpath(f"dreq_fold{i}.ckpt")
        models[i] = load_checkpoint(settings.artifact(path, "train-dreq"))
        if settings.args.weighting:
            models[i].mode = WeightingMode(settings.args.weighting)
    return {qid: (fold_of[qid], models[fold_of[qid]]) for qid in qids}


def _rerank_scorers(
    settings: Settings, models: dict[str, tuple[int | None, DreqModel]], table: FeatureTable,
    tuned: bool,
) -> dict[str, tuple[DreqModel, FeatureTable]]:
    """The model and feature table that score each query: `table`, or with
    `tuned` (fine-tuned entity embeddings, out of fold) the table with its
    fold's tuned entity store."""
    from dataclasses import replace

    from .embeddings import load_store, store_path

    tables = {}
    for i in dict.fromkeys(i for i, _ in models.values()):
        tables[i] = table
        if tuned:
            path = store_path(settings.workdir, f"entity_tuned_fold{i}")
            store = load_store(settings.artifact(path, "train-dreq"))
            if store.ids != table.entity_store.ids:
                raise CliError(f"{path}: not the entity store's ids; rerun `dreq train-dreq`")
            tables[i] = replace(table, entity_store=store)
    return {qid: (model, tables[i]) for qid, (i, model) in models.items()}


def cmd_rerank(settings: Settings) -> None:
    from .entity_ranking import _query_ranking
    from .model import build_feature_table, maxsimcos_rerank, rerank

    mode = settings.args.mode
    cands = _candidates(settings)
    out = settings.args.output or settings.workpath(f"rerank_{mode}.run")
    settings.manifest_name = f"rerank-{os.path.splitext(os.path.basename(out))[0]}"
    queries = load_queries(settings.input("queries"))
    kept = empty_text = 0

    if mode == "maxsimcos":
        doc_links = _links(settings)
        (entity_store,) = _load_stores(settings, "entity")
        links = load_query_links(settings.input("query_links"))
        rankings = {}
        for q in queries:
            if q.query_id not in cands:
                continue
            qlinks = [eid for eid, _ in links.get(q.query_id, [])]
            ranked = maxsimcos_rerank(qlinks, cands[q.query_id], doc_links, entity_store)
            if ranked is None:  # no query entity to compare with
                ranked = cands[q.query_id]
                kept += 1
            rankings[q.query_id] = ranked
    else:  # dreq
        query_store, passage_store = _load_stores(settings, "query", "passage")
        qids = [q.query_id for q in queries if q.query_id in cands]
        models = _rerank_models(settings, qids)
        tuned = not settings.args.checkpoint and settings.get("finetune_entity_embeddings")
        doc_links, entity_store, entity_rankings = _entity_inputs(
            settings, [model.mode for _, model in models.values()], tuned
        )
        doc_ids = (d for qid in qids for d in cands[qid].doc_ids)
        table = build_feature_table(doc_links, doc_ids, entity_store, passage_store,
                                    settings.segmenter)
        empty_text = table.empty_text_docs
        scorers = _rerank_scorers(settings, models, table, tuned)
        rankings = {
            qid: rerank(model, query_store.get(qid), cands[qid], fold_table,
                        _query_ranking(entity_rankings, qid))
            for qid, (model, fold_table) in scorers.items()
        }

    settings.save(out, write_run, (rankings[qid] for qid in sorted(rankings)), tag=f"rerank-{mode}")
    print(
        f"reranked {len(rankings)} queries ({mode}), {kept} kept their candidate ranking, "
        f"{empty_text} documents without text -> {out}"
    )


def cmd_evaluate(settings: Settings) -> None:
    """A run query without judgments in the qrels is an `error:` line that
    lists it (trec_eval would skip it), as is an empty run."""
    from .evaluation import evaluate_run, write_metrics_report

    qrels = load_qrels(settings.input("qrels"))
    run_path = settings.args.run or settings.workpath("dreq.run")
    rankings = load_run(settings.artifact(run_path, "train-dreq (or retrieve/rerank)"))
    tag = settings.args.tag or os.path.splitext(os.path.basename(run_path))[0]
    settings.manifest_name = f"evaluate-{tag}"
    report = evaluate_run(rankings, qrels, tag=tag, **settings.cutoffs)
    out = settings.save(settings.workpath(f"eval_{tag}.tsv"), write_metrics_report, report)
    for metric, value in report.means.items():
        print(f"{tag}\t{metric}\t{value:.4f}")
    print(f"report -> {out}")


def cmd_qpp(settings: Settings) -> None:
    from .evaluation import wig, wig_terciles

    queries = load_queries(settings.input("queries"))
    cands = _candidates(settings)
    k, tok = settings.get("wig.k"), settings.tokenizer
    try:
        scores = {q.query_id: wig(q.text, cands[q.query_id], k=k, tokenizer=tok)
                  for q in queries if q.query_id in cands}
    except ValueError as e:  # k beyond a query's candidates
        raise CliError(f"config key 'wig.k': {e}; lower it, or rerun `dreq retrieve` at a "
                       "higher config key 'retrieve.k'") from None
    terciles = wig_terciles(scores)
    text = "query_id\twig\ttercile\n" + "".join(
        f"{qid}\t{scores[qid]:.6f}\t{terciles.get(qid, '-')}\n" for qid in sorted(scores)
    )
    out = settings.save(settings.workpath("wig.tsv"), _write_text, text)
    print(f"WIG@{k} for {len(scores)} queries -> {out}")


def cmd_difficulty(settings: Settings) -> None:
    from .evaluation import build_difficulty_report, evaluate_run, write_difficulty_report

    qrels = load_qrels(settings.input("qrels"))
    baseline = load_run(settings.artifact(settings.args.baseline_run, "retrieve"))
    system = load_run(settings.artifact(settings.args.system_run, "train-dreq or rerank"))
    ndcg_k = settings.get("eval.ndcg_k")
    base_report = evaluate_run(baseline, qrels, tag="baseline", ndcg_k=ndcg_k)
    sys_report = evaluate_run(system, qrels, tag="system", ndcg_k=ndcg_k)
    metric = f"ndcg@{ndcg_k}"
    base_metric = base_report.per_query[metric]
    sys_metric = {q: sys_report.per_query[metric].get(q, 0.0) for q in base_metric}

    wig_scores = None
    wig_path = settings.args.wig or settings.workpath("wig.tsv")
    if settings.args.wig or os.path.exists(wig_path):  # only the default may be absent
        wig_scores = load_wig(settings.artifact(wig_path, "qpp"))
        missing = sorted(set(base_metric) - set(wig_scores))
        if missing:
            raise CliError(f"queries {missing[:5]} of the baseline run are not in {wig_path}; "
                           "rerun `dreq qpp`")
        wig_scores = {q: s for q, s in wig_scores.items() if q in base_metric}
    report = build_difficulty_report(base_metric, sys_metric, wig_scores)
    out = settings.save(settings.workpath("difficulty.tsv"), write_difficulty_report, report)
    print(f"helped={report.helped} hurt={report.hurt} unchanged={report.unchanged} -> {out}")


def cmd_ablate(settings: Settings) -> None:
    from .pipeline import VARIANTS, ablation_sweep

    qrels, examples, folds, data, cfg, unknown = _training_inputs(settings, VARIANTS.values())
    variants = list(VARIANTS)
    outcome = ablation_sweep(
        variants, settings.dims, examples, folds, data, cfg, qrels,
        init_seed=settings.seed, **settings.cutoffs,
    )
    metrics = list(outcome.candidate_report.per_query)  # map, ndcg@k, p@k, recall@k
    rows = [("candidates", outcome.candidate_report.means)]
    rows += [(name, outcome.variant_reports[name].means) for name in variants]
    table = "\t".join(["system", *metrics]) + "\n" + "".join(
        name + "".join(f"\t{means[m]:.4f}" for m in metrics) + "\n" for name, means in rows
    )
    out = settings.save(settings.workpath("ablate.tsv"), _write_text, table)
    for name, run in outcome.variant_runs.items():
        runs = (run[qid] for qid in sorted(run))
        path = settings.workpath(f"ablate_{name}.run")
        settings.save(path, write_run, runs, tag=f"ablate-{name}")
    sys.stdout.write(table)
    print(f"ablation table ({outcome.empty_text_docs} documents without text), {unknown} "
          f"judged-relevant documents not in the corpus skipped -> {out}")


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dreq",
        description="entity-aware retrieve/rerank pipeline",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="global RNG seed")
    parser.add_argument("--workdir", help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = {name: sub.add_parser(name) for name in _COMMANDS}
    p["rank-entities"].add_argument("--mode", choices=["learned", "bm25", "geeer"])
    p["rerank"].add_argument("--mode", choices=["dreq", "maxsimcos"], default="dreq")
    p["rerank"].add_argument("--checkpoint")
    p["rerank"].add_argument("--weighting", choices=[m.value for m in WeightingMode])
    p["rerank"].add_argument("--output")
    p["evaluate"].add_argument("--run")
    p["evaluate"].add_argument("--tag")
    p["difficulty"].add_argument("--baseline-run", required=True)
    p["difficulty"].add_argument("--system-run", required=True)
    p["difficulty"].add_argument("--wig")
    return parser


# stage name -> its `cmd_*` function, in pipeline order (the order defined)
_COMMANDS = {
    name[4:].replace("_", "-"): fn for name, fn in globals().items() if name.startswith("cmd_")
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # the stage reuses the parser's freed memory
    try:
        settings = Settings(args)
        t0 = time.time()
        _COMMANDS[args.command](settings)
        write_manifest(settings, t0)
    except (CliError, OSError, ValueError, KeyError) as e:
        # (str() of a KeyError quotes its message)
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
