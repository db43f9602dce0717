import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dreq.corpus import (
    Document,
    EntityMention,
    SegmenterConfig,
    _read_document,
    load_corpus,
    split_sentences,
)
from dreq.embeddings import DimsConfig
from dreq.synthetic import (
    PlantedConfig,
    _compose_doc,
    _corpus_line,
    generate_planted_world,
    write_world_files,
)

ROOT = Path(__file__).resolve().parent.parent


def test_planted_descriptions_name_their_own_query_past_99_queries():
    cfg = PlantedConfig(
        n_docs=240,
        n_queries=120,
        relevant_per_query=1,
        distractors_per_query=1,
        planted_per_query=2,
        noise_entities=12,
        noise_entities_per_doc=(1, 2),
    )
    world = generate_planted_world(cfg)
    assert len(world.queries) == 120
    text_of = {q.query_id: q.text for q in world.queries}
    for qid, entities in world.planted.items():
        for eid in entities:
            assert world.corpus.entities[eid].description == f"about {text_of[qid]}"
    assert world.corpus.entities["eq105p1"].description == "about topic105a topic105b topic105c"


@pytest.mark.parametrize("planted", [1, 0, -1])
def test_fewer_than_two_planted_entities_per_query_is_rejected(planted):
    # a relevant document mentions one or two of its query's planted entities
    with pytest.raises(ValueError, match=f"planted_per_query must be >= 2, got {planted}"):
        PlantedConfig(planted_per_query=planted)


@pytest.mark.parametrize("cfg", [
    PlantedConfig(seed=1),
    PlantedConfig(seed=2),
    PlantedConfig(seed=3, n_docs=120, n_queries=6, filler_vocab=20),
    # the benchmark's M world: 20,000 documents over a 100k-word filler vocabulary
    PlantedConfig(seed=4, n_docs=20000, n_queries=40, filler_vocab=100000),
], ids=["default-1", "default-2", "small", "m"])
def test_passages_are_counted_from_the_split_sentences(cfg, monkeypatch):
    counted = []
    passage_count = SegmenterConfig.passage_count

    def spy(self, sentences):
        counted.append(sentences)
        return passage_count(self, sentences)

    monkeypatch.setattr(SegmenterConfig, "passage_count", spy)
    world = generate_planted_world(cfg)
    assert counted == [len(split_sentences(doc.text)) for doc in world.corpus.documents.values()]
    assert all("sentences" not in vars(doc) for doc in world.corpus.documents.values())


# --- golden files: the generator keeps its bytes --------------------------------


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_toy_script_rewrites_the_committed_toy_world(tmp_path):
    script = ROOT / "scripts" / "make_toy_corpus.py"
    subprocess.run([sys.executable, str(script), "--out", str(tmp_path)], check=True,
                   capture_output=True)
    toy = ROOT / "data" / "toy"
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(toy))
    for name in os.listdir(toy):
        assert (tmp_path / name).read_bytes() == (toy / name).read_bytes(), name


def test_default_world_files_keep_their_bytes(tmp_path):
    # sha256 of every file of the seed-1 default world, stores included,
    # pinned when every vector was embedded one key at a time
    paths = write_world_files(generate_planted_world(PlantedConfig(seed=1)), str(tmp_path))
    assert {name: sha256(path) for name, path in paths.items()} == {
        "corpus": "6ef68e66582827e37d479b2edd2c725728b61533ead15330acc5bb4ceb2b0e69",
        "entities": "50d73aea783e6df2a3757d8d1214b13c64a9bcc25b3588110b3010660076a7b0",
        "qrels": "753bbb5b2af15f3c454f682be340d2ca4e0cc694e2c621bbbe386335401bc01e",
        "queries": "a5f65c975ffc97517c1413b005d097f35dfaa037a3e5fbcc9d8b53c070ad92f3",
        "query_links": "8fb790108a898c3fecb05eed617abc5261c57e38402b6a686a7e268c64dffeaf",
        "store_query": "52a0e51218c7f6858d5862392e27240e024b60db6f0423e8e8272055532fb070",
        "store_entity": "e972a3da4502eefa6f6e320c49160123d29fa01fa8ec50ef70a16ce060658785",
        "store_passage": "21ca972cee692b597d4e3c8023f19d6e52dde9c5d30e42a9eb50b27c1d6b0fc3",
        "store_query_entity": "6e17a262cb026285be52c197534d5fa0cf9c67b592f4106ff7ef1b6cbde2f7b9",
    }



def test_stores_are_built_only_when_read(tmp_path):
    world = generate_planted_world(PlantedConfig(seed=1, n_docs=120, n_queries=6))
    names = ["query_store", "entity_store", "passage_store", "encoding_store"]
    write_world_files(world, str(tmp_path), stores=False)
    assert [name for name in names if name in vars(world)] == []
    assert world.passage_store is world.passage_store
    assert [name for name in names if name in vars(world)] == ["query_store", "passage_store"]


def test_projected_world_stores_keep_their_bytes(tmp_path):
    # entity, passage and encoding dims differ from the query dim, so the
    # topic rows reach the entity and passage spaces through a projection
    cfg = PlantedConfig(seed=2, n_docs=120, n_queries=6, dims=DimsConfig(5, 12, 24, 16))
    paths = write_world_files(generate_planted_world(cfg), str(tmp_path))
    assert {name: sha256(path) for name, path in paths.items() if name.startswith("store_")} == {
        "store_query": "19447525aa72370cbdeb3c0b2247ddc3c7ede982d161f9d5c8116e8384dd3f98",
        "store_entity": "57c34b154fa064f2cc60a1baaa03fcf342eed50ec6b0a2c594d00a8e80ae50b9",
        "store_passage": "6c9ed1a694633eb9851abad21c53c8bcb5ac3b7f7889e0f55cd4f0fd6b6d5068",
        "store_query_entity": "d176e3e009b8f1f911cd9e4bdc1fda1fc7a8df7f81e980e8c9b4c5e0bb30cfb9",
    }


def test_large_vocabulary_world_files_keep_their_bytes(tmp_path):
    # sha256 of every file of a small world over a 100k-word filler vocabulary,
    # whose filler draws take 17 bits and are redrawn about a quarter of the
    # time, pinned when each draw was a `random.Random.choice` call
    cfg = PlantedConfig(seed=3, n_docs=120, n_queries=6, filler_vocab=100000)
    paths = write_world_files(generate_planted_world(cfg), str(tmp_path))
    assert {name: sha256(path) for name, path in paths.items()} == {
        "corpus": "beab76e162ca1548266798f31ae51f2e06578c6ca56f2f943f44eac48e20bc7b",
        "entities": "48beaf4885f120e0219e6bb3150178154ef74f75fea6b3f858e59003069e1dfa",
        "queries": "0d1b9e8a0354bccc1101fc8fcdc04eb1785c40caedb6cda1b963a9b8159d17c5",
        "qrels": "46e7780831460fc42c5a1eff6d26765c8ebf12b8260beaa70380b3a10d21dc82",
        "query_links": "189f3282a3913926641febb2eb983c31140fa3d2b1fa8ce92c53ad76e2035d79",
        "store_query": "f4949066ab85320272f9e9e9197984fd06573f48460f9f257f184f346dd1fe28",
        "store_entity": "04c034884aedd0b111cd28efee05c16a2651ed6286f376bd386cb6801b90daed",
        "store_passage": "0490007e1a7ec8ba940c4660753757dfdf222ba71778290d3723ee1720938742",
        "store_query_entity": "62af98ce57fdf4905930618edd97696ab96bb0a210654d4751a3de057a6a6c66",
    }


# --- the inlined draws of _compose_doc against the random.Random methods -----------

# bounds of 1 and 2, the default 150-word vocabulary (8 bits), and the
# 16- and 17-bit bounds around the benchmark's 100k-word vocabulary, each
# drawn with two seeds on top of the generated examples
BOUNDS = [1, 2, 150, 2**16, 100_000, 2**17]


def at_every_bound(test):
    for n in BOUNDS:
        for seed in (0, 7):
            test = example(seed=seed, n=n)(test)
    return test


def text_tokens(doc: Document) -> list[str]:
    return doc.text.removesuffix(".").replace(". ", " ").split(" ")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 300))
@at_every_bound
def test_filler_draws_are_random_choice(seed, n):
    filler = [f"w{i}" for i in range(n)]
    rng, twin = random.Random(seed), random.Random(seed)
    doc, _ = _compose_doc("d", rng, [], [], filler, n_filler=5)
    assert text_tokens(doc) == [twin.choice(filler) for _ in range(5)]
    assert rng.getstate() == twin.getstate()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 300))
@at_every_bound
def test_insert_positions_are_random_randrange(seed, n):
    # n - 1 filler tokens from a one-word vocabulary, so the one inserted
    # token's position is the first draw with bound n
    rng, twin = random.Random(seed), random.Random(seed)
    doc, _ = _compose_doc("d", rng, ["x"], [], ["w"], n_filler=n - 1)
    for _ in range(n - 1):
        twin.choice(["w"])
    assert text_tokens(doc).index("x") == twin.randrange(n)
    assert rng.getstate() == twin.getstate()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), n_entities=st.integers(1, 4))
def test_confidences_are_random_uniform(seed, n_entities):
    entity_ids = [f"e{j}" for j in range(n_entities)]
    rng, twin = random.Random(seed), random.Random(seed)
    doc, _ = _compose_doc("d", rng, [], entity_ids, ["w"], n_filler=1)
    twin.choice(["w"])
    for j in range(n_entities):
        twin.randrange(j + 2)
    assert [m.confidence for m in doc.mentions] == [
        round(twin.uniform(0.6, 1.0), 3) for _ in range(n_entities)
    ]
    assert rng.getstate() == twin.getstate()


def reference_compose_doc(doc_id, rng, content_tokens, entity_ids, filler, n_filler=32,
                          sentence_len=8):
    """`_compose_doc` as it was written with `rng.choice`, `rng.randrange`
    and `rng.uniform`."""
    tokens = [rng.choice(filler) for _ in range(n_filler)]
    linked = [None] * n_filler
    for tok in content_tokens:
        at = rng.randrange(len(tokens) + 1)
        tokens.insert(at, tok)
        linked.insert(at, None)
    for eid in entity_ids:
        at = rng.randrange(len(tokens) + 1)
        tokens.insert(at, eid)
        linked.insert(at, eid)

    sentences = [
        " ".join(tokens[i : i + sentence_len]) for i in range(0, len(tokens), sentence_len)
    ]
    text = "".join([sentence + ". " for sentence in sentences]).rstrip()
    offsets = [0, *accumulate(len(tok) + 1 for tok in tokens)]
    mentions = []
    for i, eid in enumerate(linked):
        if eid is not None:
            start = offsets[i] + i // sentence_len
            mentions.append(
                EntityMention(eid, eid, start, start + len(eid), round(rng.uniform(0.6, 1.0), 3))
            )
    return Document(doc_id=doc_id, text=text, mentions=mentions), len(sentences)


WORDS = st.text(alphabet="abé€1", min_size=1, max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    filler=st.lists(WORDS, min_size=1, max_size=40),
    content=st.lists(WORDS, max_size=8),
    entity_ids=st.lists(WORDS, max_size=12),
    n_filler=st.integers(1, 40),
    sentence_len=st.integers(1, 10),
)
def test_compose_doc_matches_the_reference(seed, filler, content, entity_ids, n_filler,
                                           sentence_len):
    rng, twin = random.Random(seed), random.Random(seed)
    doc, sentences = _compose_doc("d", rng, content, entity_ids, filler, n_filler, sentence_len)
    want, want_sentences = reference_compose_doc(
        "d", twin, content, entity_ids, filler, n_filler, sentence_len
    )
    assert (doc.doc_id, doc.text, sentences) == (want.doc_id, want.text, want_sentences)
    assert doc.mentions == want.mentions
    assert all(type(m) is EntityMention for m in doc.mentions)
    for m, w in zip(doc.mentions, want.mentions):
        assert (m.start, m.end, repr(m.confidence)) == (w.start, w.end, repr(w.confidence))
    assert rng.getstate() == twin.getstate()


# --- the corpus-line writer against json.dumps ----------------------------------

TRICKY = st.text(alphabet=st.sampled_from('ab "\\/\x00\x1f\x7f\n\té€ \U0001f600'), max_size=10)


@st.composite
def loadable_documents(draw):
    """Documents whose lines `load_corpus` accepts: string fields, integer
    spans inside the text and int or float confidences in [0, 1]."""
    text = draw(st.text(min_size=1, max_size=30) | TRICKY.filter(bool))
    confidence = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([-0.0, 0.0, 1.0, 0.1, 1e-300, 5e-324]),
        st.integers(0, 1),
    )
    mentions = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, len(text)))
        mentions.append(EntityMention(draw(TRICKY), draw(TRICKY), start, end, draw(confidence)))
    return Document(draw(TRICKY), text, mentions)


def reference_line(doc: Document) -> str:
    return json.dumps(
        {
            "doc_id": doc.doc_id,
            "text": doc.text,
            "entities": [
                {"entity_id": m.entity_id, "mention": m.surface, "start": m.start,
                 "end": m.end, "confidence": m.confidence}
                for m in doc.mentions
            ],
        },
        sort_keys=True,
    ) + "\n"


@settings(max_examples=300, deadline=None)
@given(loadable_documents())
def test_corpus_line_is_json_dumps_with_sorted_keys(doc):
    line = _corpus_line(doc)
    assert line == reference_line(doc)
    assert line.isascii() and line.count("\n") == 1
    loaded = _read_document(json.loads(line), {}, {}, {}, {})
    assert (loaded.doc_id, loaded.text, loaded.mentions) == (doc.doc_id, doc.text, doc.mentions)


def test_written_corpus_loads_back(tmp_path):
    doc = Document("d\"1", "Ünïcode \\ \"quoted\"\x00.", [
        EntityMention("e/1", "Ünïcode", 0, 7, -0.0),
        EntityMention("e ", "quoted", 11, 17, 1),
    ])
    path = tmp_path / "corpus.jsonl"
    path.write_text(_corpus_line(doc), encoding="utf-8")
    (loaded,) = load_corpus(str(path)).documents.values()
    assert (loaded.doc_id, loaded.text) == (doc.doc_id, doc.text)
    assert [tuple(m) for m in loaded.mentions] == [tuple(m) for m in doc.mentions]
    assert str(loaded.mentions[0].confidence) == "-0.0"
