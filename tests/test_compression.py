import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkm import compression as comp
from dkm import core
from dkm.core import Codebook, DkmConfig, SubvectorMatrix
from dkm.errors import (
    BadMagicError,
    DataError,
    DkmError,
    FormatError,
    IndexRangeError,
    ParameterError,
    ShapeError,
    TruncatedStreamError,
    VersionMismatchError,
)

from helpers import pairwise_sq_dists


def random_layer(rng) -> comp.CompressedLayer:
    bits = int(rng.integers(1, 9))
    dim = int(rng.integers(1, 17))
    n = int(rng.integers(1, 1001))
    count = (n + (-n) % dim) // dim
    return comp.CompressedLayer(
        bits=bits,
        dim=dim,
        original_length=n,
        pad_count=(-n) % dim,
        codebook=rng.normal(size=(1 << bits, dim)).astype(np.float32),
        indices=rng.integers(0, 1 << bits, count),
    )


# ---------------------------------------------------------------------------
# reshape
# ---------------------------------------------------------------------------


def test_reshape_exact_fit():
    sub = comp.reshape_to_subvectors([1.0, 2.0, 3.0, 4.0], dim=2)
    np.testing.assert_array_equal(sub.values, [[1.0, 2.0], [3.0, 4.0]])
    assert sub.pad_count == 0 and sub.original_length == 4


def test_reshape_pads_with_zeros():
    sub = comp.reshape_to_subvectors([1.0, 2.0, 3.0], dim=2)
    np.testing.assert_array_equal(sub.values, [[1.0, 2.0], [3.0, 0.0]])
    assert sub.pad_count == 1


def test_reshape_roundtrip_property():
    rng = np.random.default_rng(201)
    for n in range(1, 101):
        flat = rng.normal(size=n)
        for dim in range(1, 9):
            sub = comp.reshape_to_subvectors(flat, dim)
            np.testing.assert_array_equal(sub.flatten(), flat)
            assert sub.pad_count < dim


def test_reshape_rejects_empty():
    with pytest.raises(DataError):
        comp.reshape_to_subvectors([], dim=2)


# ---------------------------------------------------------------------------
# snap
# ---------------------------------------------------------------------------


def test_snap_exact_centroids_zero_error():
    book = Codebook(np.array([[0.0], [5.0]]))
    w = SubvectorMatrix(np.array([[5.0], [0.0], [5.0]]), 3)
    attn = core.attention(core.distance_matrix(w, book), 0.5).value
    idx, rec = comp.snap(w, attn, book)
    np.testing.assert_array_equal(idx, [1, 0, 1])
    np.testing.assert_array_equal(rec.values, w.values)


def test_snap_picks_nearest_of_two():
    book = Codebook(np.array([[0.0], [10.0]]))
    w = SubvectorMatrix(np.array([[4.0]]), 1)
    attn = core.attention(core.distance_matrix(w, book), 1.0).value
    idx, rec = comp.snap(w, attn, book)
    assert idx[0] == 0
    assert rec.values[0, 0] == 0.0


def test_snap_matches_argmin_distance():
    rng = np.random.default_rng(202)
    w = SubvectorMatrix(rng.normal(size=(40, 2)), 80)
    book = Codebook(rng.normal(size=(8, 2)))
    attn = core.attention(core.distance_matrix(w, book), 0.3).value
    idx, _ = comp.snap(w, attn, book)
    np.testing.assert_array_equal(idx, np.argmin(pairwise_sq_dists(w.values, book.centroids), axis=1))


def test_snap_reconstruction_is_rowwise_optimal():
    rng = np.random.default_rng(203)
    w = SubvectorMatrix(rng.normal(size=(30, 3)), 90)
    book = Codebook(rng.normal(size=(4, 3)))
    attn = core.attention(core.distance_matrix(w, book), 0.5).value
    _, rec = comp.snap(w, attn, book)
    chosen = ((w.values - rec.values) ** 2).sum(axis=1)
    all_d2 = pairwise_sq_dists(w.values, book.centroids)
    np.testing.assert_allclose(chosen, all_d2.min(axis=1), atol=1e-12)


def test_snap_refuses_an_attention_that_was_not_kept():
    # the NaN broadcast of an attention-free clustering passes every shape
    # check; snapping it would send every row to centroid 0
    w = SubvectorMatrix(np.random.default_rng(204).normal(size=(64, 1)), 64)
    cfg = DkmConfig(bits=2, temperature=0.3)
    res = core.dkm_forward(w, config=cfg, seed=0, keep_attention=False)
    with pytest.raises(ParameterError, match="kept no attention"):
        comp.snap(w, res.attention, res.codebook)
    kept = core.dkm_forward(w, config=cfg, seed=0)
    indices, _ = comp.snap(w, kept.attention, kept.codebook)
    np.testing.assert_array_equal(indices, res.indices)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_compression_ratio_formula():
    assert comp.compression_ratio(4, 4) == 32.0
    assert comp.compression_ratio(32, 1) == 1.0
    assert comp.compression_ratio(8, 16) == 64.0
    assert comp.effective_bits_per_weight(8, 16) == 0.5


def test_entropy_uniform_is_exactly_b():
    for bits in (1, 2, 3, 4):
        indices = np.repeat(np.arange(1 << bits), 7)
        assert comp.empirical_entropy(indices, bits) == float(bits)


def test_entropy_constant_is_zero():
    assert comp.empirical_entropy(np.zeros(50, dtype=int), 3) == 0.0


def test_entropy_closed_form():
    indices = np.array([0, 0, 1, 2])  # histogram (1/2, 1/4, 1/4, 0)
    assert comp.empirical_entropy(indices, 2) == pytest.approx(1.5, abs=1e-15)


def test_entropy_bounded_by_b():
    rng = np.random.default_rng(204)
    for _ in range(50):
        bits = int(rng.integers(1, 6))
        n = int(rng.integers(1, 500))
        idx = rng.integers(0, 1 << bits, n)
        assert comp.empirical_entropy(idx, bits) <= bits + 1e-12


def test_entropy_rejects_empty():
    with pytest.raises(DataError):
        comp.empirical_entropy(np.array([], dtype=int), 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_known_bit_packing():
    layer = comp.CompressedLayer(
        bits=2,
        dim=1,
        original_length=4,
        pad_count=0,
        codebook=np.zeros((4, 1), dtype=np.float32),
        indices=np.array([3, 0, 2, 1]),
    )
    blob = comp.serialize(layer)
    packed = blob[comp.HEADER_SIZE + 16 :]
    assert packed == bytes([0x63])


def test_roundtrip_random_layers():
    rng = np.random.default_rng(205)
    for _ in range(100):
        layer = random_layer(rng)
        back = comp.deserialize(comp.serialize(layer))
        assert back.bits == layer.bits and back.dim == layer.dim
        assert back.original_length == layer.original_length
        assert back.pad_count == layer.pad_count
        np.testing.assert_array_equal(back.codebook, layer.codebook)
        np.testing.assert_array_equal(back.indices, layer.indices)


def test_serialized_size_matches_formula():
    rng = np.random.default_rng(206)
    for _ in range(100):
        layer = random_layer(rng)
        blob = comp.serialize(layer)
        count = (layer.original_length + layer.pad_count) // layer.dim
        expected = comp.HEADER_SIZE + (1 << layer.bits) * layer.dim * 4 + (count * layer.bits + 7) // 8
        assert len(blob) == expected == layer.serialized_size()


def test_deserialize_error_cases():
    rng = np.random.default_rng(207)
    blob = comp.serialize(random_layer(rng))

    with pytest.raises(BadMagicError):
        comp.deserialize(b"NOPE" + blob[4:])
    with pytest.raises(VersionMismatchError):
        comp.deserialize(blob[:4] + bytes([99]) + blob[5:])
    with pytest.raises(TruncatedStreamError):
        comp.deserialize(blob[: comp.HEADER_SIZE - 3])
    with pytest.raises(TruncatedStreamError):
        comp.deserialize(blob[:-1])
    with pytest.raises(FormatError):
        comp.deserialize(blob + b"\x00")


def test_deserialize_rejects_nonzero_padding_bits():
    # three 2-bit indices fill 6 bits of the last byte; set one of the other 2
    layer = comp.CompressedLayer(
        bits=2, dim=1, original_length=3, pad_count=0,
        codebook=np.zeros((4, 1), dtype=np.float32), indices=np.array([1, 2, 3]),
    )
    blob = comp.serialize(layer)
    with pytest.raises(FormatError, match="nonzero padding bits"):
        comp.deserialize(blob[:-1] + bytes([blob[-1] | 0x80]))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bits", 0, r"bits must be in \[1, 16\], got 0"),
        ("bits", 17, r"bits must be in \[1, 16\], got 17"),
        ("dim", 0, "dim out of range: 0"),
        ("original_length", 0, "original_length must be >= 1, got 0"),
        ("pad_count", 2, r"pad_count must be in \[0, dim\), got 2"),
        ("codebook", np.zeros((4, 1)), r"codebook shape \(4, 1\) != \(4, 2\)"),
        ("indices", np.zeros(2, dtype=int), r"expected 3 indices, got \(2,\)"),
    ],
)
def test_layer_rejects_each_bad_field(field, value, message):
    fields = dict(
        bits=2, dim=2, original_length=5, pad_count=1,
        codebook=np.zeros((4, 2), dtype=np.float32), indices=np.zeros(3, dtype=int),
    )
    comp.CompressedLayer(**fields)  # the layer the cases spoil one field of
    with pytest.raises(FormatError, match=message):
        comp.CompressedLayer(**{**fields, field: value})


def test_layer_rejects_out_of_range_indices():
    with pytest.raises(IndexRangeError):
        comp.CompressedLayer(
            bits=2,
            dim=1,
            original_length=3,
            pad_count=0,
            codebook=np.zeros((4, 1), dtype=np.float32),
            indices=np.array([0, 1, 4]),
        )


def test_decode_restores_snapped_weights():
    rng = np.random.default_rng(208)
    flat = rng.normal(size=37)
    sub = comp.reshape_to_subvectors(flat, dim=4)
    book = Codebook(rng.normal(size=(8, 4)))
    attn = core.attention(core.distance_matrix(sub, book), 0.4).value
    idx, rec = comp.snap(sub, attn, book)

    layer = comp.CompressedLayer(
        bits=3,
        dim=4,
        original_length=sub.original_length,
        pad_count=sub.pad_count,
        codebook=book.centroids.astype(np.float32),
        indices=idx,
    )
    back = comp.deserialize(comp.serialize(layer))
    np.testing.assert_array_equal(
        back.decode_flat(), rec.values.astype(np.float32).reshape(-1)[:37]
    )


# ---------------------------------------------------------------------------
# report and policy
# ---------------------------------------------------------------------------


def test_measured_ratio_below_formula_and_converging():
    rng = np.random.default_rng(209)
    ratios = []
    for n in (64, 1024, 65536):
        idx = rng.integers(0, 4, n)
        layer = comp.CompressedLayer(
            bits=2,
            dim=1,
            original_length=n,
            pad_count=0,
            codebook=rng.normal(size=(4, 1)).astype(np.float32),
            indices=idx,
        )
        report = comp.build_report(layer, rng.normal(size=n))
        assert report.measured_ratio < report.compression_ratio_formula
        ratios.append(report.measured_ratio)
    assert ratios[0] < ratios[1] < ratios[2] < comp.compression_ratio(2, 1)
    assert ratios[2] > 0.95 * comp.compression_ratio(2, 1)


def test_report_reconstruction_error_zero_for_exact_match():
    book = np.array([[1.0], [2.0]], dtype=np.float32)
    layer = comp.CompressedLayer(
        bits=1, dim=1, original_length=4, pad_count=0, codebook=book, indices=[0, 1, 0, 1]
    )
    report = comp.build_report(layer, np.array([1.0, 2.0, 1.0, 2.0], dtype=np.float32))
    assert report.reconstruction_error == 0.0
    assert report.empirical_entropy == 1.0


def test_policy_small_layer_gets_eight_bits():
    base = DkmConfig(bits=2, dim=1)
    policy = comp.LayerPolicy()
    got = policy.apply(base, layer_index=1, layer_count=3, param_count=5000)
    assert got.bits == 8
    got = policy.apply(base, layer_index=1, layer_count=3, param_count=20_000)
    assert got.bits == 2


@pytest.mark.parametrize(
    "kwargs",
    [{"small_layer_bits": 20}, {"small_layer_bits": 0}, {"small_layer_bits": 4.0},
     {"small_layer_threshold": "big"}, {"small_layer_threshold": -1}, {"skip_first": "yes"}, {"skip_last": 1}],
)
def test_policy_rejects_bad_values(kwargs):
    with pytest.raises(ParameterError):
        comp.LayerPolicy(**kwargs)


def test_policy_skips_first_and_last():
    base = DkmConfig(bits=2, dim=1)
    policy = comp.LayerPolicy(skip_first=True, skip_last=True)
    assert policy.apply(base, 0, 3, 10**6) is None
    assert policy.apply(base, 2, 3, 10**6) is None
    assert policy.apply(base, 1, 3, 10**6) == base
    assert policy.apply(None, 1, 3, 10**6) is None


# ---------------------------------------------------------------------------
# container properties
# ---------------------------------------------------------------------------


@st.composite
def layers(draw) -> comp.CompressedLayer:
    """Any valid layer: bits 1-16, dim 1-8, ragged lengths, arbitrary float32 bit patterns."""
    bits = draw(st.integers(1, 16))
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pad = (-n) % dim
    return comp.CompressedLayer(
        bits=bits,
        dim=dim,
        original_length=n,
        pad_count=pad,
        codebook=rng.integers(0, 2**32, (1 << bits, dim), dtype=np.uint32).view(np.float32),
        indices=rng.integers(0, 1 << bits, (n + pad) // dim),
    )


@settings(max_examples=60, deadline=None)
@given(layers())
def test_serialize_roundtrip_is_exact(layer):
    back = comp.deserialize(comp.serialize(layer))
    assert (back.bits, back.dim, back.original_length, back.pad_count) == (
        layer.bits,
        layer.dim,
        layer.original_length,
        layer.pad_count,
    )
    # compared as bit patterns, so NaN payloads and signed zeros count too
    np.testing.assert_array_equal(back.codebook.view(np.uint32), layer.codebook.view(np.uint32))
    np.testing.assert_array_equal(back.indices, layer.indices)


def _deserialize_or_dkm_error(blob: bytes) -> None:
    try:
        comp.deserialize(blob)
    except DkmError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_deserialize_arbitrary_bytes_raises_only_dkm_errors(blob):
    _deserialize_or_dkm_error(blob)


@settings(max_examples=200, deadline=None)
@given(
    layers(),
    # byte edits, half of them aimed at the header
    st.lists(
        st.tuples(st.one_of(st.integers(0, comp.HEADER_SIZE - 1), st.integers(0, 2**16)), st.integers(0, 255)),
        max_size=8,
    ),
    st.integers(-8, 8),
)
def test_deserialize_mutated_container_raises_only_dkm_errors(layer, edits, resize):
    blob = bytearray(comp.serialize(layer))
    for position, value in edits:
        blob[position % len(blob)] = value
    blob = blob[: len(blob) + resize] if resize < 0 else blob + bytes(resize)
    _deserialize_or_dkm_error(bytes(blob))
