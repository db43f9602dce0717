import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dreq import _npz
from dreq.embeddings import (
    DimsConfig,
    EmbeddingStore,
    cosine,
    load_store,
    save_store,
    sigmoid,
    softmax,
    synthetic_embed,
    synthetic_embed_rows,
)
from dreq.model import DreqModel, _forward
from helpers import store_from_rows


def write_store_arrays(path, ids, vectors, space="x"):
    """A store file with the given members, as `save_store` lays them out."""
    blob, offsets = _npz.pack_strings(ids)
    space = np.frombuffer(space.encode(), dtype=np.uint8)
    _npz.write(str(path), {"space": space, "ids": blob, "id_offsets": offsets, "vectors": vectors})


class TestStoreRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((3, 4)) * np.array([[1.0], [1e-13], [1.0]])
        store = EmbeddingStore("test", ["a", "b", "tail\x00 naïve"], vectors)
        path = str(tmp_path / "s.npz")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.space == "test" and loaded.dim == 4
        assert loaded.ids == store.ids
        assert np.array_equal(loaded.vectors, store.vectors)
        for key in store.ids:
            assert np.array_equal(loaded.get(key), store.get(key))
        again = str(tmp_path / "again.npz")
        save_store(loaded, again)
        assert open(path, "rb").read() == open(again, "rb").read()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["a", "with space", "naïve", "東京", "tail\x00", "\x00", " "])
            | st.text(max_size=6),
            unique=True,
            max_size=6,
        ),
        st.integers(1, 5),
        st.data(),
    )
    def test_round_trip_hypothesis(self, tmp_path_factory, ids, dim, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
        vectors = data.draw(hnp.arrays(np.float64, (len(ids), dim), elements=finite))
        store = EmbeddingStore("space ü", ids, vectors)
        tmp = tmp_path_factory.mktemp("store")
        path, again = str(tmp / "s.npz"), str(tmp / "again.npz")
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.space == store.space and loaded.ids == ids
        assert loaded.vectors.shape == (len(ids), dim)
        assert loaded.vectors.tobytes() == vectors.tobytes()  # bit-exact, -0.0 included
        save_store(loaded, again)
        assert open(path, "rb").read() == open(again, "rb").read()

    def test_empty_store_valid(self, tmp_path):
        store = EmbeddingStore("empty", [], np.zeros((0, 3)))
        path = str(tmp_path / "s.npz")
        save_store(store, path)
        loaded = load_store(path)
        assert len(loaded) == 0 and loaded.dim == 3
        assert loaded.take([]).shape == (0, 3)

    def test_id_count_must_match_rows(self, tmp_path):
        path = tmp_path / "s.npz"
        for ids in (["a"], ["a", "b", "c"]):
            write_store_arrays(path, ids, np.zeros((2, 4)))
            with pytest.raises(ValueError, match=rf"{len(ids)} ids for a float64 \(2, 4\)"):
                load_store(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "s.npz"
        write_store_arrays(path, ["a", "b", "a"], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            load_store(str(path))

    def test_non_finite_row_names_id(self, tmp_path):
        path = tmp_path / "s.npz"
        write_store_arrays(path, ["a", "bad"], np.array([[1.0, 2.0], [3.0, np.inf]]))
        with pytest.raises(ValueError, match=rf"^{path}: .*non-finite .* 'bad'.*`dreq synth-embed`$"):
            load_store(str(path))

    def test_other_artifact_names_synth_embed(self, tmp_path):
        path = tmp_path / "s.npz"
        _npz.write(str(path), {"w1": np.zeros(2), "b1": np.array(0.0)})
        expected = "not a dreq embedding store of this version; rerun `dreq synth-embed`"
        with pytest.raises(ValueError, match=expected):
            load_store(str(path))

    def test_add_validates(self):
        """A store made from (id, vector) pairs rejects a row of another dim
        and a repeated id."""
        with pytest.raises(ValueError):
            store_from_rows("x", 2, [("a", np.zeros(3))])
        with pytest.raises(ValueError, match="duplicate id 'a' in store 'x'"):
            store_from_rows("x", 2, [("a", np.zeros(2)), ("a", np.zeros(2))])


class TestStoreConstructor:
    @pytest.mark.parametrize(
        "ids,vectors,message",
        [
            (["a"], np.zeros((1, 2), dtype=np.float32), r"1 ids for a float32 \(1, 2\)"),
            (["a", "b"], np.zeros(2), r"2 ids for a float64 \(2,\)"),
            (["a", "b"], np.zeros((3, 2)), r"2 ids for a float64 \(3, 2\)"),
            (["a"], np.zeros((1, 2, 1)), r"1 ids for a float64 \(1, 2, 1\)"),
            (["a", "b"], np.zeros((2, 0)), "dim must be >= 1, got 0"),
            (["a", "b", "c", "b", "a"], np.zeros((5, 2)), "duplicate id 'a' in store 'x'"),
            (["a", "nan", "c"], np.array([[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0]]),
             "non-finite components in vector for id 'nan'"),
            (["a", "ninf"], np.array([[1.0, 2.0], [1.0, -np.inf]]),
             "non-finite components in vector for id 'ninf'"),
        ],
        ids=["dtype", "one-d", "rows", "three-d", "dim-zero", "duplicate", "nan", "neg-inf"],
    )
    def test_rejects(self, ids, vectors, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingStore("x", ids, vectors)

    def test_take_gathers_rows_in_order(self):
        vectors = np.arange(8, dtype=np.float64).reshape(4, 2)
        store = EmbeddingStore("x", ["a", "b", "c", "d"], vectors)
        assert np.array_equal(store.take(["c", "a", "c"]), vectors[[2, 0, 2]])
        assert np.array_equal(store.get("d"), vectors[3])
        assert "b" in store and "z" not in store and len(store) == 4
        with pytest.raises(KeyError, match="id 'z' not found in store 'x'"):
            store.take(["a", "z"])
        with pytest.raises(KeyError, match="id 'z' not found in store 'x'"):
            store.get("z")


class TestSyntheticEmbed:
    def test_deterministic(self):
        a = synthetic_embed("ns", "id1", 16, 99)
        b = synthetic_embed("ns", "id1", 16, 99)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for i in range(20):
            v = synthetic_embed("ns", f"id{i}", 8, 7)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_no_collisions_over_1000_ids(self):
        seen = set()
        for i in range(1000):
            v = synthetic_embed("collide", f"id{i}", 32, 5)
            seen.add(v.tobytes())
        assert len(seen) == 1000

    def test_namespace_and_seed_matter(self):
        base = synthetic_embed("a", "x", 8, 1)
        assert not np.array_equal(base, synthetic_embed("b", "x", 8, 1))
        assert not np.array_equal(base, synthetic_embed("a", "x", 8, 2))

    def test_hash_chain_reference_vectors(self):
        # FNV-1a-64 and SplitMix64 against published test vectors, through
        # the array code every store is embedded with and the per-key loops
        from dreq.embeddings import _fnv1a64, _splitmix64

        fnv = {b"": 0xCBF29CE484222325, b"a": 0xAF63DC4C8601EC8C, b"foobar": 0x85944171F73967E8}
        assert _fnv1a64(list(fnv)).tolist() == list(fnv.values())
        assert [reference_fnv1a64(key) for key in fnv] == list(fnv.values())
        splitmix = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert _splitmix64(np.array([1234567], dtype=np.uint64), 3).tolist() == [splitmix]
        assert reference_splitmix64(1234567, 3) == splitmix

    def test_known_pinned_value(self):
        # frozen so cross-platform drift in the full chain is caught
        v = synthetic_embed("pin", "v", 4, 0)
        assert np.allclose(
            v,
            [0.4423607627975827, 0.4370266275816743, -0.5742657010601484, 0.5324881096396665],
            atol=1e-15,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        namespace=st.text(max_size=6),
        ids=st.lists(st.text(st.sampled_from("ab\x1f:é€\U0001f600\x00"), max_size=12)),
        dim=st.integers(1, 64),
        seed=st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**64, 2**64 + 1])),
    )
    def test_rows_equal_the_per_key_loop_bit_for_bit(self, namespace, ids, dim, seed):
        rows = synthetic_embed_rows(namespace, ids, dim, seed)
        assert rows.shape == (len(ids), dim) and rows.dtype == np.float64
        expected = [reference_embed(namespace, key, dim, seed) for key in ids]
        assert rows.tobytes() == np.array(expected).reshape(len(ids), dim).tobytes()
        if ids:
            one = synthetic_embed(namespace, ids[-1], dim, seed)
            assert one.tobytes() == expected[-1].tobytes()

    def test_rows_validate_dim(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            synthetic_embed_rows("ns", ["a"], 0, 1)


# --- the per-key embedder, one Python integer at a time -------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


def reference_fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x00000100000001B3) & _MASK64
    return h


def reference_splitmix64(seed: int, count: int) -> list[int]:
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_embed(namespace: str, id: str, dim: int, seed: int) -> np.ndarray:
    """The embedder as one key's loop: hash, draw, map to [-1, 1), normalize."""
    key = "\x1f".join([namespace, id, str(seed)]).encode("utf-8")
    words = reference_splitmix64(reference_fnv1a64(key), dim)
    comps = np.array([(w >> 11) / 2.0**53 * 2.0 - 1.0 for w in words], dtype=np.float64)
    return comps / float(np.linalg.norm(comps))


def linear(W: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + b computed by the scorer's fusion step, d = W2 [v_t; v_e] + b2."""
    p, c = W.shape
    model = DreqModel(
        W2=W, b2=b, w3=np.zeros(5 * p), b3=0.0, dims=DimsConfig(k=1, m=c - 1, n=1, p=p)
    )
    F, _ = _forward(model, np.zeros((1, p)), x[None, :])
    return F[0, p : 2 * p]


class TestLinear:
    """The affine kernel, which runs inside the batched scorer forward."""

    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(linear(np.eye(3), x, np.zeros(3)), x)

    def test_zero_matrix_gives_bias(self):
        b = np.array([0.5, -0.5])
        assert np.array_equal(linear(np.zeros((2, 3)), np.ones(3), b), b)

    def test_hand_computed_3x2(self):
        W = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        x = np.array([2.0, -1.0])
        b = np.array([0.1, 0.2, 0.3])
        expected = [1 * 2 + 2 * -1 + 0.1, 0.5 * 2 + -1 * -1 + 0.2, 3 * 2 + 0 * -1 + 0.3]
        assert np.allclose(linear(W, x, b), expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear(np.eye(2), np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            linear(np.eye(2), np.ones(2), np.zeros(3))

    @given(st.integers(0, 2**32 - 1))
    def test_additive_in_x(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((3, 4))
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        lhs = linear(W, x + y, np.zeros(3))
        rhs = linear(W, x, np.zeros(3)) + linear(W, y, np.zeros(3))
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_constant_input(self):
        assert np.allclose(softmax([3.7, 3.7, 3.7]), [1 / 3] * 3, atol=1e-15)

    def test_direct_evaluation(self):
        out = softmax([1.0, 2.0, 3.0])
        assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_distribution_and_order(self, xs):
        out = softmax(xs)
        assert abs(float(np.sum(out)) - 1.0) < 1e-9
        assert np.all(out > 0)
        # order-preserving: no strict inversion between inputs and outputs
        for i in range(len(xs)):
            for j in range(len(xs)):
                if xs[i] < xs[j]:
                    assert out[i] <= out[j]

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=10), st.floats(-30, 30))
    def test_shift_invariance(self, xs, c):
        assert np.allclose(softmax(xs), softmax([x + c for x in xs]), atol=1e-12)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-12
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.ones(2))


class TestSigmoid:
    def test_midpoint_and_symmetry(self):
        assert sigmoid(0.0) == 0.5
        x = np.linspace(-20, 20, 101)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_extremes_stable(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
            elements=st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 709.0, -745.0, 1e308, -1e308, 1e-300]),
        )
    )
    def test_matches_masked_two_branch_form(self, x):
        """One exp of -|x| gives the bits of exp(-x) / exp(x) taken per branch."""
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        got = sigmoid(x)
        if x.ndim == 0:
            assert isinstance(got, float)
        assert np.array_equal(got, expected, equal_nan=True)


def test_dims_config_validation():
    DimsConfig(1, 1, 1, 1)
    with pytest.raises(ValueError):
        DimsConfig(k=0)
