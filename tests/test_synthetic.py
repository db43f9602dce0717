from dreq.synthetic import PlantedConfig, generate_planted_world


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
