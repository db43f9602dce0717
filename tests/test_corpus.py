import json

import pytest
from hypothesis import given, settings, strategies as st

from dreq.corpus import (
    CorpusStore,
    Document,
    EntityMention,
    EntityRecord,
    Qrels,
    SegmenterConfig,
    load_corpus,
    load_entity_catalog,
    load_qrels,
    load_queries,
    pool_entities,
    split_sentences,
    transfer_labels,
)
from helpers import segment_passages


def make_doc(doc_id, entity_ids, n_sentences=3):
    text = " ".join(f"s{i} ends." for i in range(n_sentences))
    mentions = []
    for j, eid in enumerate(entity_ids):
        mentions.append(
            {"entity_id": eid, "mention": "s0", "start": 0, "end": 2, "confidence": 0.9}
        )
    doc = {"doc_id": doc_id, "text": text, "entities": mentions}
    return doc


def write_corpus(tmp_path, docs):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    return str(path)


class TestLoadCorpus:
    def test_two_docs(self, tmp_path):
        path = write_corpus(tmp_path, [make_doc("d1", ["a"]), make_doc("d2", ["b"])])
        store = load_corpus(path)
        assert len(store) == 2
        doc = store.doc("d1")
        assert doc.entity_ids == ("a",)
        assert "sentences" not in vars(doc)  # split on first use only
        assert doc.sentences == split_sentences(doc.text) == ["s0 ends.", "s1 ends.", "s2 ends."]

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = write_corpus(tmp_path, [make_doc("d1", []), make_doc("d1", [])])
        with pytest.raises(ValueError, match="duplicate doc_id"):
            load_corpus(path)

    def test_span_out_of_bounds_names_doc(self, tmp_path):
        doc = make_doc("dbad", [])
        doc["entities"] = [
            {"entity_id": "a", "mention": "x", "start": 5, "end": 10_000, "confidence": 0.5}
        ]
        path = write_corpus(tmp_path, [doc])
        with pytest.raises(ValueError, match="dbad"):
            load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(make_doc("d1", [])) + "\n{not json\n")
        with pytest.raises(ValueError, match=":2"):
            load_corpus(str(path))

    def test_catalog_merge(self, tmp_path):
        cpath = write_corpus(tmp_path, [make_doc("d1", ["a"])])
        kpath = tmp_path / "catalog.jsonl"
        kpath.write_text(json.dumps({"entity_id": "a", "description": "alpha thing"}) + "\n")
        store = load_corpus(cpath, catalog_path=str(kpath))
        assert store.entities["a"].description == "alpha thing"

    def test_catalog_duplicate_entity_rejected(self, tmp_path):
        kpath = tmp_path / "catalog.jsonl"
        rec = json.dumps({"entity_id": "a", "description": "x"})
        kpath.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(ValueError, match="duplicate entity_id"):
            load_entity_catalog(str(kpath))


class TestQueriesAndQrels:
    def test_load_queries(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tblack bear attacks\nq2\thybrid cars\n")
        queries = load_queries(str(path))
        assert [q.query_id for q in queries] == ["q1", "q2"]
        assert queries[0].text == "black bear attacks"

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(ValueError, match="duplicate query_id"):
            load_queries(str(path))

    def test_load_qrels(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n")
        qrels = load_qrels(str(path))
        assert qrels.grade("q1", "d1") == 2
        assert qrels.grade("q1", "unjudged") == 0
        assert qrels.relevant_docs("q2") == ["d1"]

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d1 1\n")
        with pytest.raises(ValueError, match="duplicate judgment"):
            load_qrels(str(path))

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(ValueError, match="negative grade"):
            load_qrels(str(path))


def doc_with_sentences(n):
    sentences = [f"sentence {i}." for i in range(n)]
    text = " ".join(sentences)
    return Document(doc_id="d", text=text, mentions=[])


class TestSegmentation:
    def test_twelve_sentences_window10_stride5(self):
        passages = segment_passages(doc_with_sentences(12), SegmenterConfig(10, 5))
        assert [p.sentence_range for p in passages] == [(0, 10), (5, 12)]

    def test_short_doc_single_window(self):
        passages = segment_passages(doc_with_sentences(3), SegmenterConfig(10, 5))
        assert [p.sentence_range for p in passages] == [(0, 3)]

    def test_exact_fit_stops_emission(self):
        passages = segment_passages(doc_with_sentences(10), SegmenterConfig(10, 5))
        assert [p.sentence_range for p in passages] == [(0, 10)]

    def test_empty_doc_empty_list(self):
        doc = Document(doc_id="d", text="", mentions=[])
        assert segment_passages(doc, SegmenterConfig()) == []
        assert SegmenterConfig().passage_count(0) == 0

    @given(
        n=st.integers(min_value=1, max_value=60),
        window=st.integers(min_value=1, max_value=12),
        stride_frac=st.integers(min_value=1, max_value=12),
    )
    def test_windows_cover_every_sentence(self, n, window, stride_frac):
        stride = min(stride_frac, window)
        passages = segment_passages(doc_with_sentences(n), SegmenterConfig(window, stride))
        assert len(passages) == SegmenterConfig(window, stride).passage_count(n)
        covered = set()
        for p in passages:
            covered.update(range(*p.sentence_range))
        assert covered == set(range(n))
        # ordered, contiguous indexing
        assert [p.index for p in passages] == list(range(len(passages)))
        starts = [p.sentence_range[0] for p in passages]
        assert starts == sorted(starts)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SegmenterConfig(0, 1)
        with pytest.raises(ValueError):
            SegmenterConfig(5, 6)


def doc_with_entities(doc_id, entity_ids):
    text = "one token."
    mentions = []
    from dreq.corpus import EntityMention

    for eid in entity_ids:
        mentions.append(EntityMention(eid, "one", 0, 3, 1.0))
    return Document(doc_id=doc_id, text=text, mentions=mentions)


class TestPooling:
    def test_union_first_seen_order(self):
        docs = [doc_with_entities("d1", ["a", "b"]), doc_with_entities("d2", ["b", "c"])]
        assert pool_entities(docs) == ["a", "b", "c"]

    def test_empty(self):
        assert pool_entities([]) == []

    def test_repeated_mentions_dedup(self):
        assert pool_entities([doc_with_entities("d1", ["a", "a", "a"])]) == ["a"]

    @given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=5), max_size=6))
    def test_idempotent_and_stable(self, entity_lists):
        docs = [doc_with_entities(f"d{i}", ents) for i, ents in enumerate(entity_lists)]
        first = pool_entities(docs)
        assert pool_entities(docs) == first
        assert len(set(first)) == len(first)


class TestTransferLabels:
    def qrels(self):
        q = Qrels()
        q.add("q1", "drel", 2)
        q.add("q1", "dneg", 0)
        return q

    def test_entity_in_relevant_doc(self):
        docs = [doc_with_entities("drel", ["a"])]
        assert transfer_labels(self.qrels(), "q1", docs) == {"a": 1}

    def test_entity_only_in_unjudged(self):
        docs = [doc_with_entities("dunk", ["b"])]
        assert transfer_labels(self.qrels(), "q1", docs) == {"b": 0}

    def test_positive_wins_over_negative(self):
        docs = [doc_with_entities("dneg", ["e"]), doc_with_entities("drel", ["e"])]
        assert transfer_labels(self.qrels(), "q1", docs) == {"e": 1}

    @given(st.lists(st.lists(st.sampled_from("abcd"), max_size=4), min_size=1, max_size=5))
    def test_keyset_equals_pooled(self, entity_lists):
        docs = [doc_with_entities(f"d{i}", ents) for i, ents in enumerate(entity_lists)]
        labels = transfer_labels(self.qrels(), "q1", docs)
        assert list(labels.keys()) == pool_entities(docs)


def reference_labels(qrels, query_id, docs):
    """Label transfer as a walk over every mention of every document."""
    labels = {}
    for doc in docs:
        relevant = qrels.grade(query_id, doc.doc_id) >= 1
        for m in doc.mentions:
            if relevant:
                labels[m.entity_id] = 1
            else:
                labels.setdefault(m.entity_id, 0)
    return labels


@given(
    st.lists(
        st.tuples(st.sampled_from([0, 1, 2, None]), st.lists(st.sampled_from("abcdef"), max_size=6)),
        max_size=8,
    )
)
def test_pooling_and_labels_match_a_per_mention_walk(docs_spec):
    """Repeated mentions, relevant, judged-0 and unjudged documents: the
    per-document pooling and label transfer give the keys, order and labels
    of a walk over every mention."""
    qrels = Qrels()
    docs = []
    for i, (grade, entity_ids) in enumerate(docs_spec):
        if grade is not None:
            qrels.add("q1", f"d{i}", grade)
        docs.append(doc_with_entities(f"d{i}", entity_ids))
    expected = reference_labels(qrels, "q1", docs)
    got = transfer_labels(qrels, "q1", docs)
    assert list(got.items()) == list(expected.items())
    assert pool_entities(docs) == list(expected)
    for doc in docs:
        assert doc.entity_ids == tuple(dict.fromkeys(m.entity_id for m in doc.mentions))


def reference_load_corpus(path, catalog_path=None):
    """The loader before value sharing: one `int`/`float`/`str` conversion,
    so one new object, per mention field."""
    store = CorpusStore()
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            raw = json.loads(line)
            doc_id, text = str(raw["doc_id"]), str(raw["text"])
            mentions = []
            for m in raw.get("entities", []):
                start, end = int(m["start"]), int(m["end"])
                confidence = float(m.get("confidence", 1.0))
                assert 0 <= start < end <= len(text) and 0.0 <= confidence <= 1.0
                mentions.append(EntityMention(
                    str(m["entity_id"]), str(m.get("mention", "")), start, end, confidence
                ))
            store.documents[doc_id] = Document(doc_id, text, mentions)
            for entity_id in store.documents[doc_id].entity_ids:
                store.entities.setdefault(entity_id, EntityRecord(entity_id))
    if catalog_path is not None:
        for record in load_entity_catalog(catalog_path).values():
            store.entities[record.entity_id] = record
    return store


def mention_bits(m):
    """A mention with its field types and its confidence's exact bits."""
    return (m.entity_id, m.surface, m.start, m.end, type(m.start), type(m.end),
            type(m.confidence), m.confidence.hex())


def store_bits(store):
    return (
        [(d.doc_id, d.text, d.entity_ids, [mention_bits(m) for m in d.mentions])
         for d in store.documents.values()],
        [(e.entity_id, e.description) for e in store.entities.values()],
    )


@st.composite
def corpus_lines(draw):
    """Valid corpus documents: mention fields drawn from few values, so they
    repeat within and across documents, with int and float confidences."""
    docs = []
    for i in range(draw(st.integers(1, 5))):
        text = draw(st.text(st.sampled_from(list("ab é.Σ")), max_size=400))
        mentions = []
        for _ in range(draw(st.integers(0, 6)) if text else 0):
            start = draw(st.integers(0, len(text) - 1))
            mention = {
                "entity_id": draw(st.sampled_from(["e1", "e2", "é3", "e4", ""])),
                "start": start,
                "end": draw(st.integers(start + 1, len(text))),
            }
            if draw(st.booleans()):
                mention["mention"] = draw(st.sampled_from(["", "a", "ab"]))
            if draw(st.booleans()):
                mention["confidence"] = draw(
                    st.sampled_from([0, 1, 0.0, -0.0, 1.0, 0.5, 0.25])
                    | st.floats(0.0, 1.0)
                )
            mentions.append(mention)
        doc = {"doc_id": f"d{i}", "text": text}
        if mentions or draw(st.booleans()):
            doc["entities"] = mentions
        docs.append(doc)
    return docs


class TestLoadCorpusSharing:
    @settings(max_examples=200, deadline=None)
    @given(corpus_lines(), st.booleans())
    def test_matches_the_loader_without_sharing(self, tmp_path_factory, docs, with_catalog):
        """Mentions, each document's entity ids and the entity table (ids,
        order, descriptions) equal those of a per-document walk over
        `Document.entity_ids` found on first use."""
        tmp = tmp_path_factory.mktemp("corpus")
        path = write_corpus(tmp, docs)
        catalog = None
        if with_catalog:  # one entity the corpus may mention, one it never does
            catalog = tmp / "catalog.jsonl"
            catalog.write_text("".join(
                json.dumps({"entity_id": e, "description": d}) + "\n"
                for e, d in (("e9", "nine"), ("e2", "two"))
            ))
            catalog = str(catalog)
        store = load_corpus(path, catalog)
        assert store_bits(store) == store_bits(reference_load_corpus(path, catalog))
        assert all("entity_ids" in vars(doc) for doc in store.documents.values())

    def test_equal_values_are_one_object_of_their_own_type(self, tmp_path):
        text = "x" * 400
        first = [
            {"entity_id": "e1", "mention": "ex one", "start": 1, "end": 300, "confidence": 1},
            {"entity_id": "e2", "mention": "xx", "start": 300, "end": 301, "confidence": 0.0},
        ]
        second = [
            {"entity_id": "e1", "mention": "ex one", "start": 300, "end": 400, "confidence": 1.0},
            {"entity_id": "e1", "mention": "x", "start": 0, "end": 1, "confidence": -0.0},
        ]
        path = write_corpus(tmp_path, [
            {"doc_id": "d1", "text": text, "entities": first},
            {"doc_id": "d2", "text": text, "entities": second},
        ])
        store = load_corpus(path)
        a, b = store.doc("d1").mentions
        c, d = store.doc("d2").mentions
        assert a.entity_id is c.entity_id is d.entity_id is store.entities["e1"].entity_id
        assert a.surface is c.surface
        assert a.end is b.start is c.start
        assert a.confidence is c.confidence  # the int 1 was read as the float 1.0
        assert {type(x) for m in (a, b, c, d) for x in (m.start, m.end)} == {int}
        assert {type(m.confidence) for m in (a, b, c, d)} == {float}
        assert (a.confidence.hex(), b.confidence.hex(), d.confidence.hex()) == (
            "0x1.0000000000000p+0", "0x0.0p+0", "-0x0.0p+0"
        )
