"""`corpus_links.npz`: what the stages after `pool-entities` read of the
corpus. The file round-trips exactly, a bad one is an `error:` line naming
`pool-entities`, and label transfer and the feature table computed from it
equal the `Document`-based references in `helpers`."""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreq import _npz
from dreq.cli import main
from dreq.corpus import (
    CorpusStore, Document, EntityMention, Qrels, SegmenterConfig, load_corpus, split_sentences,
)
from dreq.embeddings import passage_key
from dreq.pipeline import (
    _LINK_ARRAYS,
    corpus_links,
    entity_labels_map,
    load_corpus_links,
    pooling_docs,
    save_corpus_links,
)
from dreq.retrieval import Ranking, load_run
from helpers import feature_table, reference_feature_table, store_from_rows, transfer_labels
from test_cli import STAGES, TOY, run, write_config

IDS = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=6)


def doc(doc_id: str, entity_ids, sentences: int = 1) -> Document:
    mentions = [EntityMention(e, "w", 0, 1, 1.0) for e in entity_ids]
    return Document(doc_id, " ".join(["w."] * sentences), mentions)


# a document without entities, one with empty text, an entity repeated in
# one document, non-ASCII ids, and an id with a trailing NUL
SPECIAL = [
    doc("plain", []),
    Document("empty", "", [EntityMention("e\x00", "w", 0, 1, 1.0)]),
    doc("rép", ["e\x00", "é", "e\x00", "x"], sentences=3),
    doc("d\x00", ["x", "é"], sentences=0),
]

DOCS = st.lists(
    st.tuples(IDS, st.lists(IDS, max_size=5), st.integers(0, 12)), max_size=8
).map(lambda specs: list({
    d.doc_id: d for d in SPECIAL + [doc(i, entities, n) for i, entities, n in specs]
}.values()))


def links_fields(links):
    return (links.doc_ids, links.sentences.tolist(), links.indptr.tolist(),
            links.entity_index.tolist(), links.entity_ids)


@settings(max_examples=40, deadline=None)
@given(DOCS)
def test_round_trip_keeps_every_field_and_byte(tmp_path_factory, docs):
    links = corpus_links(docs)
    assert links.doc_ids == [d.doc_id for d in docs]
    assert links.entities(reversed(links.doc_ids)) == [list(d.entity_ids) for d in docs[::-1]]
    for d in docs:
        assert links.sentences[links.row[d.doc_id]] == len(split_sentences(d.text))
    assert links.entity_ids == list(dict.fromkeys(e for d in docs for e in d.entity_ids))
    tmp = tmp_path_factory.mktemp("links")
    save_corpus_links(links, str(tmp / "a.npz"))
    loaded = load_corpus_links(str(tmp / "a.npz"))
    assert links_fields(loaded) == links_fields(links)
    assert loaded.sentences.dtype == loaded.indptr.dtype == loaded.entity_index.dtype == np.int64
    save_corpus_links(loaded, str(tmp / "b.npz"))
    assert (tmp / "a.npz").read_bytes() == (tmp / "b.npz").read_bytes()


@settings(max_examples=40, deadline=None)
@given(DOCS, st.data())
def test_labels_and_feature_table_equal_the_document_references(docs, data):
    corpus = CorpusStore({d.doc_id: d for d in docs})
    links = corpus_links(docs)
    doc_ids = list(corpus.documents)
    # judged documents among the candidates, outside them, and outside the corpus
    qrels = Qrels()
    candidates = {}
    for qid in ("q1", "q2"):
        picked = data.draw(st.lists(st.sampled_from(doc_ids), unique=True, max_size=6))
        candidates[qid] = Ranking.from_scores(qid, picked, [0.0] * len(picked))
        judged = data.draw(st.lists(st.sampled_from(doc_ids + ["outside"]), unique=True))
        for d in judged:
            qrels.add(qid, d, data.draw(st.integers(0, 2)))
    got = entity_labels_map(links, candidates, qrels)
    for qid, ranking in candidates.items():
        want = transfer_labels(qrels, qid, pooling_docs(corpus, ranking, qrels))
        assert list(got[qid].items()) == list(want.items())

    rng = np.random.default_rng(len(doc_ids))
    entity_store = store_from_rows("entity", 3, ((e, rng.standard_normal(3))
                                                 for e in links.entity_ids))
    seg = SegmenterConfig(window=2, stride=1)
    passage_store = store_from_rows("passage", 4, (
        (passage_key(d.doc_id, i), rng.standard_normal(4))
        for d in docs for i in range(seg.passage_count(len(split_sentences(d.text))))
    ))
    order = data.draw(st.permutations(doc_ids))
    table = feature_table([corpus.doc(d) for d in order + order[:2]], entity_store,
                          passage_store, seg)
    want = reference_feature_table([corpus.doc(d) for d in order + order[:2]], entity_store,
                                   passage_store, seg)
    assert table.doc_ids == want.doc_ids == order
    assert table.text.tobytes() == want.text.tobytes()
    assert table.indptr.tolist() == want.indptr.tolist()
    assert table.entity_index.tolist() == want.entity_index.tolist()
    assert table.empty_text_docs == want.empty_text_docs


def test_an_unembedded_entity_is_named_as_the_reference_names_it():
    docs = [doc("d0", ["a"]), doc("d1", []), doc("d2", ["a", "b", "c"])]
    store = store_from_rows("entity", 2, [("a", np.ones(2)), ("c", np.ones(2))])
    passages = store_from_rows("passage", 2, [(passage_key(d, 0), np.ones(2))
                                              for d in ("d0", "d1", "d2")])
    with pytest.raises(KeyError) as want:
        reference_feature_table(docs, store, passages)
    with pytest.raises(KeyError) as got:
        feature_table(docs, store, passages)
    assert got.value.args == want.value.args == ("entity 'b' of doc 'd2' has no embedding",)


def _corrupt(arrays, name, value):
    return {**arrays, name: value}


CORRUPTIONS = {
    "indptr-decreasing": lambda a: _corrupt(a, "indptr", a["indptr"][[0, 3, 2, 3]]),
    "indptr-past-the-links": lambda a: _corrupt(a, "indptr", a["indptr"] + [0, 0, 0, 1]),
    "entity-out-of-range": lambda a: _corrupt(a, "entity_index", a["entity_index"] + 3),
    "negative-entity": lambda a: _corrupt(a, "entity_index", a["entity_index"] - 1),
    "sentences-short": lambda a: _corrupt(a, "sentences", a["sentences"][:2]),
    "negative-sentences": lambda a: _corrupt(a, "sentences", -a["sentences"] - 1),
    "float-sentences": lambda a: _corrupt(a, "sentences", a["sentences"] * 1.0),
    "offsets-past-the-blob": lambda a: _corrupt(a, "doc_id_offsets", a["doc_id_offsets"] + 1),
    "not-utf8": lambda a: _corrupt(a, "entity_ids", np.full_like(a["entity_ids"], 0xFF)),
    "repeated-doc-id": lambda a: _corrupt(a, "doc_ids", np.frombuffer(b"aaa", np.uint8)),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_a_corrupt_file_is_an_error_naming_pool_entities(tmp_path, corruption):
    path = str(tmp_path / "corpus_links.npz")
    save_corpus_links(corpus_links([doc("a", ["x", "y"]), doc("b", []), doc("c", ["z"])]), path)
    _npz.write(path, CORRUPTIONS[corruption](_npz.read(path, _LINK_ARRAYS, "", "")))
    with pytest.raises(ValueError) as e:
        load_corpus_links(path)
    assert str(e.value) == f"{path}: corrupt corpus links; rerun `dreq pool-entities`"


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The toy chain up to `train-dreq`, with `ablate`'s inputs."""
    tmp = tmp_path_factory.mktemp("links_chain")
    config = write_config(tmp, tmp / "work")
    for stage in STAGES[:7]:
        assert run(config, *stage) == 0, stage
    return config, tmp / "work"


READERS = [
    ("train-entity-ranker",),
    ("train-dreq",),
    ("ablate",),
    ("rerank", "--mode", "dreq"),
    ("rerank", "--mode", "maxsimcos"),
]


@pytest.mark.parametrize("damage", ["missing", "garbage", "corrupt", "stale"])
@pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[-1])
def test_a_missing_or_bad_links_file_stops_each_reader_with_one_line(
    chain, tmp_path, capsys, damage, argv
):
    config, workdir = chain
    work = tmp_path / "work"
    shutil.copytree(workdir, work)
    shutil.rmtree(work / "manifests")
    path = work / "corpus_links.npz"
    if damage == "missing":
        path.unlink()
        expected = f"error: missing artifact '{path}'; run `dreq pool-entities` first\n"
    elif damage == "garbage":
        path.write_bytes(b"{}\n")
        expected = "; rerun `dreq pool-entities`\n"
    elif damage == "corrupt":  # a readable zip whose CSR points past its links
        arrays = _npz.read(str(path), _LINK_ARRAYS, "", "")
        _npz.write(str(path), _corrupt(arrays, "indptr", arrays["indptr"] + 1))
        expected = f"error: {path}: corrupt corpus links; rerun `dreq pool-entities`\n"
    else:  # written before a candidate joined the corpus
        gone = load_run(str(work / "candidates.run"))["q00"].doc_ids[0]
        docs = load_corpus(os.path.join(TOY, "corpus.jsonl")).documents.values()
        save_corpus_links(corpus_links(d for d in docs if d.doc_id != gone), str(path))
        expected = f"error: doc_id '{gone}' not in the corpus links; rerun `dreq pool-entities`\n"
    before = sorted(os.listdir(work))
    capsys.readouterr()
    assert main(["--config", config, "--workdir", str(work), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.endswith(expected) and err.count("\n") == 1
    assert not err.startswith(("error: '", 'error: "'))  # a KeyError's message, not its repr
    assert sorted(os.listdir(work)) == before  # no manifest, no output, no .tmp file
