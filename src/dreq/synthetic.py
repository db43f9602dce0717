"""Synthetic desk-scale worlds with planted entity relevance.

Each query plants a few "relevant" entities; a document is relevant iff
it mentions one of them. Keyword-stuffed distractor documents outscore
the relevant ones under BM25, while the aligned embedding stores carry
the entity signal, so entity-aware reranking has real headroom over the
candidate ordering. Embeddings are deterministic functions of (seed, id).

Each store is embedded with one `synthetic_embed_rows` call, and the
alignment sums are elementwise over the whole matrix, with each row
normalized on its own, so every vector has the bits of the same arithmetic
done one key at a time. Passage keys come from `SegmenterConfig.passage_count`
of the number of sentences `_compose_doc` built for each document; no text is
split again. One `random.Random(seed)` draws all the text, so a seed gives
the same files, byte for byte, on every run. The stores draw nothing from it,
so each is built on its first read (`SyntheticWorld`): a world written with
`stores=False` embeds no vector.

`_compose_doc` makes most of the draws, so it writes out what the
`random.Random` methods compute, on the same stream: `choice(seq)` and
`randrange(n)` take `k = n.bit_length()` bits from `getrandbits` and draw
again while `r >= n` (`Random._randbelow`), and `uniform(a, b)` is
`a + (b - a) * random()`. In `tests/test_synthetic.py`,
`test_filler_draws_are_random_choice`, `test_insert_positions_are_random_randrange`
and `test_confidences_are_random_uniform` hold each draw to its method (values
and generator state), and `test_compose_doc_matches_the_reference` holds the
function to a copy written with the methods.

The world keeps its entity catalog beside the corpus, as `entities.jsonl`
holds it: `SyntheticWorld.entities` maps each id to its description, the
planted entities by query and then the noise entities.

`write_world_files` formats each corpus line itself (`_corpus_line`); a line
is byte-equal to `json.dumps` of the document's object with `sort_keys=True`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .corpus import (
    CorpusStore,
    Document,
    EntityMention,
    Qrels,
    Query,
    SegmenterConfig,
)
from .embeddings import (
    STORE_NAMES,
    DimsConfig,
    EmbeddingStore,
    passage_key,
    query_entity_key,
    save_store,
    store_path,
    synthetic_embed_rows,
    unit_rows,
)

__all__ = ["PlantedConfig", "SyntheticWorld", "generate_planted_world", "write_world_files"]

# EntityMention(*fields) without the Python-level __new__ of a NamedTuple
_mention = partial(tuple.__new__, EntityMention)


@dataclass(frozen=True)
class PlantedConfig:
    n_docs: int = 500
    n_queries: int = 30
    seed: int = 1
    dims: DimsConfig = field(default_factory=lambda: DimsConfig(16, 16, 16, 16))
    relevant_per_query: int = 8
    distractors_per_query: int = 8
    planted_per_query: int = 3
    noise_entities: int = 120
    filler_vocab: int = 150
    noise_entities_per_doc: tuple[int, int] = (6, 10)
    # embedding alignment strengths
    entity_noise: float = 0.35
    encoding_signal: float = 1.0
    encoding_noise: float = 0.35
    passage_signal: float = 0.7
    passage_noise: float = 0.7

    def __post_init__(self) -> None:
        if self.planted_per_query < 2:
            # each relevant document mentions one or two of its query's planted entities
            raise ValueError(f"planted_per_query must be >= 2, got {self.planted_per_query}")
        budget = self.n_queries * (self.relevant_per_query + self.distractors_per_query)
        if budget > self.n_docs:
            raise ValueError(
                f"n_docs={self.n_docs} too small for {budget} relevant+distractor docs"
            )


@dataclass
class SyntheticWorld:
    """A planted world. Its four embedding stores are built on first read
    from the fields below; they draw no random values, so when they are
    built changes no bit of them or of the world's files."""

    corpus: CorpusStore
    entities: dict[str, str]  # the catalog: entity id -> description
    queries: list[Query]
    qrels: Qrels
    seg: SegmenterConfig
    planted: dict[str, list[str]]  # query_id -> planted entity ids
    query_links: dict[str, list[tuple[str, float]]]  # query_id -> (entity, confidence)
    cfg: PlantedConfig
    doc_topic: dict[str, str]  # topical (relevant or distractor) doc -> query
    passage_counts: list[int]  # passages per document, in corpus order

    @property
    def dims(self) -> DimsConfig:
        return self.cfg.dims

    # --- aligned embedding stores ---------------------------------------
    # The query store holds one topic row per query. Planted entities lie near
    # their query's topic, and topical passages (relevant and distractor alike,
    # so text alone cannot tell them apart) share it. Planted (query, entity)
    # encodings point along one base direction, all others against it.

    @cached_property
    def query_store(self) -> EmbeddingStore:
        qids = [q.query_id for q in self.queries]
        topics = synthetic_embed_rows("topic", qids, self.dims.p, self.cfg.seed)
        return EmbeddingStore("query", qids, topics)

    def _to_space(self, space: str, dim: int) -> np.ndarray:
        """The topic rows under a fixed random projection when the target
        space has a different dim."""
        topics, p = self.query_store.vectors, self.dims.p
        if dim == p:
            return topics
        P = synthetic_embed_rows(f"proj_{space}", [f"row{i}" for i in range(dim)], p, self.cfg.seed)
        return unit_rows(np.array([P @ u for u in topics]).reshape(len(topics), dim))

    @cached_property
    def entity_store(self) -> EmbeddingStore:
        cfg, m = self.cfg, self.dims.m
        topic_of = self.query_store.row
        all_entities = list(self.entities)
        planted_of = {e: topic_of[qid] for qid, ents in self.planted.items() for e in ents}
        is_planted = np.array([eid in planted_of for eid in all_entities], dtype=bool)
        planted_ids = [eid for eid in all_entities if eid in planted_of]
        vectors = np.empty((len(all_entities), m))
        vectors[~is_planted] = synthetic_embed_rows(
            "ent", [eid for eid in all_entities if eid not in planted_of], m, cfg.seed
        )
        vectors[is_planted] = unit_rows(
            self._to_space("entity", m)[[planted_of[eid] for eid in planted_ids]]
            + cfg.entity_noise * synthetic_embed_rows("entnoise", planted_ids, m, cfg.seed)
        )
        return EmbeddingStore("entity", all_entities, vectors)

    @cached_property
    def passage_store(self) -> EmbeddingStore:
        cfg, n = self.cfg, self.dims.n
        topic_of = self.query_store.row
        keys: list[str] = []
        topic: list[int] = []  # row of the passage's query in the query store, -1 for none
        for doc_id, count in zip(self.corpus.documents, self.passage_counts):
            keys += [passage_key(doc_id, i) for i in range(count)]
            topic += [topic_of.get(self.doc_topic.get(doc_id), -1)] * count
        vectors = synthetic_embed_rows("passage", keys, n, cfg.seed)
        rows = np.array(topic, dtype=np.intp)
        topical = rows >= 0
        vectors[topical] = unit_rows(
            cfg.passage_signal * self._to_space("passage", n)[rows[topical]]
            + cfg.passage_noise * vectors[topical]
        )
        return EmbeddingStore("passage", keys, vectors)

    @cached_property
    def encoding_store(self) -> EmbeddingStore:
        cfg, k = self.cfg, self.dims.k
        qids = self.query_store.ids
        all_entities = list(self.entities)
        base_dir = synthetic_embed_rows("encdir", ["base"], k, cfg.seed)[0]
        keys = [query_entity_key(qid, eid) for qid in qids for eid in all_entities]
        signs = np.array(
            [1.0 if eid in self.planted[qid] else -1.0 for qid in qids for eid in all_entities]
        )
        return EmbeddingStore("query_entity", keys, unit_rows(
            (signs * cfg.encoding_signal)[:, None] * base_dir
            + cfg.encoding_noise * synthetic_embed_rows("enc", keys, k, cfg.seed)
        ))


def _compose_doc(
    doc_id: str,
    rng: random.Random,
    content_tokens: list[str],
    entity_ids: list[str],
    filler: list[str],
    n_filler: int = 32,
    sentence_len: int = 8,
) -> tuple[Document, int]:
    """Assemble text from filler plus content tokens plus one mention token
    per entity, recording character spans for the mentions. Returns the
    document and its number of sentences. Each draw is `rng.choice`,
    `rng.randrange` or `rng.uniform` written out (see the module docstring)."""
    getrandbits = rng.getrandbits
    n = len(filler)
    k = n.bit_length()
    tokens = []
    for _ in range(n_filler):  # rng.choice(filler)
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        tokens.append(filler[r])
    linked: list[str | None] = [None] * n_filler  # the entity a token mentions
    for tok, eid in [(tok, None) for tok in content_tokens] + [(eid, eid) for eid in entity_ids]:
        n = len(tokens) + 1  # rng.randrange(len(tokens) + 1)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        tokens.insert(r, tok)
        linked.insert(r, eid)

    n_sentences = -(-len(tokens) // sentence_len)
    text = ". ".join([
        " ".join(tokens[i : i + sentence_len]) for i in range(0, len(tokens), sentence_len)
    ]) + "."
    # token i starts after the i tokens before it (offsets[i] characters),
    # each followed by a space, and after one period per sentence finished before it
    offsets = list(accumulate(map(len, tokens), initial=0))
    random_ = rng.random
    mentions = []
    for i, eid in enumerate(linked):
        if eid is not None:
            start = offsets[i] + i + i // sentence_len
            confidence = round(0.6 + (1.0 - 0.6) * random_(), 3)  # rng.uniform(0.6, 1.0)
            mentions.append(_mention((eid, eid, start, start + len(eid), confidence)))
    return Document(doc_id=doc_id, text=text, mentions=mentions), n_sentences


def generate_planted_world(cfg: PlantedConfig) -> SyntheticWorld:
    rng = random.Random(cfg.seed)
    filler = [f"w{i:03d}" for i in range(cfg.filler_vocab)]
    noise_entities = [f"enoise{i:03d}" for i in range(cfg.noise_entities)]

    queries: list[Query] = []
    planted: dict[str, list[str]] = {}
    topic_words: dict[str, list[str]] = {}
    for qi in range(cfg.n_queries):
        qid = f"q{qi:02d}"
        words = [f"topic{qi:02d}{c}" for c in "abc"]
        topic_words[qid] = words
        queries.append(Query(qid, " ".join(words)))
        planted[qid] = [f"eq{qi:02d}p{j}" for j in range(cfg.planted_per_query)]

    corpus = CorpusStore()
    qrels = Qrels()
    doc_topic: dict[str, str] = {}  # topical (relevant or distractor) doc -> query
    doc_sentences: list[int] = []  # sentences per document, in corpus order
    doc_counter = 0

    def next_doc_id() -> str:
        nonlocal doc_counter
        doc_id = f"d{doc_counter:04d}"
        doc_counter += 1
        return doc_id

    lo, hi = cfg.noise_entities_per_doc
    for q in queries:
        qid = q.query_id
        for j in range(cfg.relevant_per_query):
            doc_id = next_doc_id()
            own = rng.sample(planted[qid], rng.choice([1, 2]))
            noise = rng.sample(noise_entities, rng.randint(lo, hi))
            # one topic-word occurrence: weak lexical match only
            doc, sentences = _compose_doc(
                doc_id, rng, [rng.choice(topic_words[qid])], own + noise, filler
            )
            corpus.documents[doc_id] = doc
            doc_sentences.append(sentences)
            doc_topic[doc_id] = qid
            qrels.add(qid, doc_id, 2 if j % 3 == 0 else 1)
        for _ in range(cfg.distractors_per_query):
            doc_id = next_doc_id()
            stuffing = [rng.choice(topic_words[qid]) for _ in range(rng.randint(4, 7))]
            noise = rng.sample(noise_entities, rng.randint(lo, hi))
            doc, sentences = _compose_doc(doc_id, rng, stuffing, noise, filler)
            corpus.documents[doc_id] = doc
            doc_sentences.append(sentences)
            doc_topic[doc_id] = qid
            qrels.add(qid, doc_id, 0)

    while doc_counter < cfg.n_docs:
        doc_id = next_doc_id()
        noise = rng.sample(noise_entities, rng.randint(lo, hi))
        doc, sentences = _compose_doc(doc_id, rng, [], noise, filler)
        corpus.documents[doc_id] = doc
        doc_sentences.append(sentences)

    entities = {eid: f"about {' '.join(topic_words[qid])}"
                for qid in sorted(planted) for eid in planted[qid]}
    for eid in noise_entities:
        entities[eid] = " ".join(rng.sample(filler, 6))

    seg = SegmenterConfig()
    passage_counts = [seg.passage_count(sentences) for sentences in doc_sentences]

    # imperfect query-side entity links: most planted entities plus one stray
    query_links: dict[str, list[tuple[str, float]]] = {}
    for q in queries:
        links = [(e, round(rng.uniform(0.85, 0.99), 3)) for e in planted[q.query_id][:2]]
        links.append((rng.choice(noise_entities), round(rng.uniform(0.3, 0.6), 3)))
        query_links[q.query_id] = links

    return SyntheticWorld(
        corpus=corpus,
        entities=entities,
        queries=queries,
        qrels=qrels,
        seg=seg,
        planted=planted,
        query_links=query_links,
        cfg=cfg,
        doc_topic=doc_topic,
        passage_counts=passage_counts,
    )


def _corpus_line(doc: Document, fragments: dict[tuple[str, str], str] | None = None) -> str:
    """The document's corpus line: the bytes of `json.dumps(..., sort_keys=True)`
    of its {"doc_id", "entities", "text"} object, plus a newline. Strings
    are escaped by the encoder json.dumps uses, and confidences and offsets
    (int or float, never bool) are written with `repr`, as json.dumps writes
    them. `fragments` keeps each (entity id, surface) pair's escaped text for
    the lines that follow."""
    if fragments is None:
        fragments = {}
    mentions = []
    for eid, surface, start, end, confidence in doc.mentions:
        fragment = fragments.get((eid, surface))
        if fragment is None:
            fragment = fragments[eid, surface] = (
                f'"entity_id": {_json_str(eid)}, "mention": {_json_str(surface)}, "start": '
            )
        mentions.append(f'{{"confidence": {confidence!r}, "end": {end!r}, {fragment}{start!r}}}')
    return (
        f'{{"doc_id": {_json_str(doc.doc_id)}, "entities": [{", ".join(mentions)}], '
        f'"text": {_json_str(doc.text)}}}\n'
    )


def write_world_files(world: SyntheticWorld, out_dir: str, stores: bool = True) -> dict[str, str]:
    """Write the world as pipeline input files; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "corpus": os.path.join(out_dir, "corpus.jsonl"),
        "entities": os.path.join(out_dir, "entities.jsonl"),
        "queries": os.path.join(out_dir, "queries.tsv"),
        "qrels": os.path.join(out_dir, "qrels.txt"),
        "query_links": os.path.join(out_dir, "query_links.tsv"),
    }
    with open(paths["corpus"], "w", encoding="utf-8") as f:
        fragments: dict[tuple[str, str], str] = {}
        f.writelines(_corpus_line(doc, fragments) for doc in world.corpus.documents.values())
    with open(paths["entities"], "w", encoding="utf-8") as f:
        for eid, description in world.entities.items():
            f.write(json.dumps({"entity_id": eid, "description": description}, sort_keys=True)
                    + "\n")
    with open(paths["queries"], "w", encoding="utf-8") as f:
        for q in world.queries:
            f.write(f"{q.query_id}\t{q.text}\n")
    with open(paths["qrels"], "w", encoding="utf-8") as f:
        for qid, per_query in world.qrels.grades.items():
            for doc_id, grade in per_query.items():
                f.write(f"{qid} 0 {doc_id} {grade}\n")
    with open(paths["query_links"], "w", encoding="utf-8") as f:
        for qid, links in world.query_links.items():
            for eid, conf in links:
                f.write(f"{qid}\t{eid}\t{conf}\n")
    if stores:
        for name, store in zip(
            STORE_NAMES,
            (world.query_store, world.entity_store, world.passage_store, world.encoding_store),
        ):
            path = store_path(out_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            save_store(store, path)
            paths[f"store_{name}"] = path
    return paths
