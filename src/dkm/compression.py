"""Sub-vector reshaping, snapping, size accounting, and the .dkmz container.

The container is bit-exact by construction: a fixed 18-byte header, the
float32 codebook, then the index stream packed LSB-first at ``bits`` bits
per entry. Serialized size is therefore a closed form of (bits, dim, N).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .core import Codebook, DkmConfig, SubvectorMatrix, attention_kept
from .errors import (
    BadMagicError,
    DataError,
    FormatError,
    IndexRangeError,
    ParameterError,
    ShapeError,
    TruncatedStreamError,
    VersionMismatchError,
)
from .errors import check_fields, flag, integer

MAGIC = b"DKMZ"
VERSION = 1
# build_report decodes and compares this many weights at a time
REPORT_CHUNK = 1 << 16
_HEADER = struct.Struct("<4sBBHQH")  # magic, version, bits, dim, length, pad
HEADER_SIZE = _HEADER.size


def reshape_to_subvectors(flat_weights, dim: int) -> SubvectorMatrix:
    """View a flat weight vector as contiguous ``dim``-sized rows.

    float32 weights stay float32; any other input becomes float64. When dim
    does not divide the length, the last row is zero-padded and the pad
    size recorded so the original vector can be restored exactly.
    """
    flat = np.asarray(flat_weights)
    if flat.dtype != np.float32:
        flat = np.asarray(flat, dtype=np.float64)
    flat = flat.reshape(-1)
    if flat.size == 0:
        raise DataError("cannot reshape an empty weight vector")
    if dim < 1:
        raise ShapeError(f"dim must be >= 1, got {dim}")
    pad = (-flat.size) % dim
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=flat.dtype)])
    return SubvectorMatrix(flat.reshape(-1, dim), original_length=flat.size - pad, pad_count=pad)


def snap(w: SubvectorMatrix, attention: np.ndarray, codebook: Codebook) -> tuple[np.ndarray, SubvectorMatrix]:
    """Replace each sub-vector by its argmax-attention centroid.

    Softmax is monotone in negated distance, so the argmax row of the
    attention is also the nearest centroid; ties go to the lowest index.
    Raises ParameterError for the attention of a clustering that did not
    keep it, whose result's ``indices`` are the snap.
    """
    attention = np.asarray(attention)
    if not attention_kept(attention):
        raise ParameterError("the clustering kept no attention to snap; use its indices")
    if attention.shape[0] != w.count:
        raise ShapeError(f"attention rows {attention.shape[0]} != sub-vector count {w.count}")
    if attention.shape[1] != codebook.clusters:
        raise ShapeError(f"attention cols {attention.shape[1]} != clusters {codebook.clusters}")
    if codebook.dim != w.dim:
        raise ShapeError(f"codebook dim {codebook.dim} != sub-vector dim {w.dim}")
    indices = np.argmax(attention, axis=1)
    reconstructed = codebook.centroids[indices].astype(w.values.dtype)
    return indices, SubvectorMatrix(reconstructed, w.original_length, w.pad_count)


def compression_ratio(bits: int, dim: int) -> float:
    """Asymptotic size reduction over 32-bit floats: dim * 32 / bits."""
    if bits < 1 or dim < 1:
        raise ShapeError("bits and dim must be >= 1")
    return dim * 32.0 / bits


def effective_bits_per_weight(bits: int, dim: int) -> float:
    """Index bits amortized over the sub-vector dimension: bits / dim."""
    if bits < 1 or dim < 1:
        raise ShapeError("bits and dim must be >= 1")
    return bits / dim


def empirical_entropy(indices, bits: int) -> float:
    """Shannon entropy (bits) of the index histogram over all 2^bits bins."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise DataError("cannot compute entropy of an empty index stream")
    counts = np.bincount(indices, minlength=1 << bits)
    p = counts[counts > 0] / indices.size
    return float(-(p * np.log2(p)).sum())


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


@dataclass
class CompressedLayer:
    """One layer's compressed form: header fields, codebook, packed indices."""

    bits: int
    dim: int
    original_length: int
    pad_count: int
    codebook: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if not 1 <= self.bits <= 16:
            raise FormatError(f"bits must be in [1, 16], got {self.bits}")
        if self.dim < 1 or self.dim > 0xFFFF:
            raise FormatError(f"dim out of range: {self.dim}")
        if self.original_length < 1:
            raise FormatError(f"original_length must be >= 1, got {self.original_length}")
        if not 0 <= self.pad_count < self.dim:
            raise FormatError(f"pad_count must be in [0, dim), got {self.pad_count}")
        self.codebook = np.ascontiguousarray(self.codebook, dtype=np.float32)
        if self.codebook.shape != (1 << self.bits, self.dim):
            raise FormatError(
                f"codebook shape {self.codebook.shape} != ({1 << self.bits}, {self.dim})"
            )
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        expected = (self.original_length + self.pad_count) // self.dim
        if self.indices.shape != (expected,):
            raise FormatError(f"expected {expected} indices, got {self.indices.shape}")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= 1 << self.bits):
            raise IndexRangeError(f"indices must lie in [0, {1 << self.bits})")

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    def serialized_size(self) -> int:
        """Exact byte size: header + codebook floats + packed index stream."""
        return HEADER_SIZE + (1 << self.bits) * self.dim * 4 + (self.count * self.bits + 7) // 8

    def decode_flat(self) -> np.ndarray:
        """Reconstructed flat weights at float32, padding dropped."""
        return self.codebook[self.indices].reshape(-1)[: self.original_length]


def _pack_indices(indices: np.ndarray, bits: int) -> bytes:
    # each index as its little-endian bytes, unpacked LSB-first to its low bits
    raw = indices.astype(np.uint8 if bits <= 8 else "<u2").view(np.uint8).reshape(indices.size, -1)
    bit_rows = np.unpackbits(raw, axis=1, count=bits, bitorder="little")
    return np.packbits(bit_rows.reshape(-1), bitorder="little").tobytes()


def _unpack_indices(payload: bytes, count: int, bits: int) -> np.ndarray:
    # _pack_indices backwards: each index's low bits, zero-padded to its
    # little-endian bytes, packed, then widened once
    raw = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    used = count * bits
    if raw[used:].any():
        raise FormatError("nonzero padding bits in index stream")
    bit_rows = np.zeros((count, 8 if bits <= 8 else 16), dtype=np.uint8)
    stream = raw[:used].reshape(count, bits)
    for j in range(bits):  # by columns: one strided (count, bits) copy takes ~4x longer
        bit_rows[:, j] = stream[:, j]
    del raw, stream
    packed = np.packbits(bit_rows.reshape(-1), bitorder="little")
    del bit_rows
    return packed.view(np.uint8 if bits <= 8 else "<u2").astype(np.int64)


def serialize(layer: CompressedLayer) -> bytes:
    """Encode a layer; little-endian throughout, indices LSB-first."""
    header = _HEADER.pack(
        MAGIC, VERSION, layer.bits, layer.dim, layer.original_length, layer.pad_count
    )
    body = layer.codebook.astype("<f4").tobytes() + _pack_indices(layer.indices, layer.bits)
    blob = header + body
    assert len(blob) == layer.serialized_size()
    return blob


def deserialize(blob: bytes) -> CompressedLayer:
    """Decode and validate a layer; raises a distinct error per defect."""
    if len(blob) < HEADER_SIZE:
        raise TruncatedStreamError(f"stream of {len(blob)} bytes is shorter than the header")
    magic, version, bits, dim, length, pad = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    if not 1 <= bits <= 16 or dim < 1 or length < 1 or not 0 <= pad < dim:
        raise FormatError(f"malformed header: bits={bits} dim={dim} length={length} pad={pad}")
    if (length + pad) % dim != 0:
        raise FormatError("header length/pad inconsistent with dim")
    count = (length + pad) // dim

    codebook_bytes = (1 << bits) * dim * 4
    index_bytes = (count * bits + 7) // 8
    expected = HEADER_SIZE + codebook_bytes + index_bytes
    if len(blob) < expected:
        raise TruncatedStreamError(f"expected {expected} bytes, got {len(blob)}")
    if len(blob) > expected:
        raise FormatError(f"{len(blob) - expected} trailing bytes after payload")

    codebook = np.frombuffer(blob, dtype="<f4", count=(1 << bits) * dim, offset=HEADER_SIZE)
    indices = _unpack_indices(blob[HEADER_SIZE + codebook_bytes :], count, bits)
    return CompressedLayer(
        bits=bits,
        dim=dim,
        original_length=length,
        pad_count=pad,
        codebook=codebook.reshape(1 << bits, dim).copy(),
        indices=indices,
    )


# ---------------------------------------------------------------------------
# reporting and layer policy
# ---------------------------------------------------------------------------


@dataclass
class CompressionReport:
    """Size/entropy accounting for one compressed layer."""

    bits: int
    dim: int
    original_length: int
    effective_bits_per_weight: float
    compression_ratio_formula: float
    measured_ratio: float
    empirical_entropy: float
    reconstruction_error: float
    serialized_bytes: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def build_report(layer: CompressedLayer, original_flat: np.ndarray) -> CompressionReport:
    """Compare a compressed layer against the weights it encodes.

    measured_ratio divides the 32-bit baseline size by the actual container
    size, so it always sits below the codebook-free formula ratio. The
    reconstruction error is the float64 norm of ``original - decoded``: the
    square root of the sum, chunk by chunk of about REPORT_CHUNK weights, of
    the squared differences. Each chunk's decoded weights are gathered from
    a float64 codebook into the array that takes the difference, and the
    original is widened inside the subtraction, which is exact. So no array
    is of the layer's size.
    """
    original_flat = np.asarray(original_flat).reshape(-1)
    if original_flat.size != layer.original_length:
        raise ShapeError(
            f"original has {original_flat.size} weights, layer encodes {layer.original_length}"
        )
    size = layer.serialized_size()
    book, dim = layer.codebook.astype(np.float64), layer.dim
    step = dim * max(1, REPORT_CHUNK // dim)  # whole sub-vectors
    total = 0.0
    for lo in range(0, layer.original_length, step):
        hi = min(lo + step, layer.original_length)
        # the last sub-vector's padding lies past original_length
        diff = np.take(book, layer.indices[lo // dim : -(-hi // dim)], axis=0).reshape(-1)[: hi - lo]
        np.subtract(original_flat[lo:hi], diff, out=diff)
        total += float(diff @ diff)
        del diff  # freed before the next chunk is gathered
    err = math.sqrt(total)
    return CompressionReport(
        bits=layer.bits,
        dim=layer.dim,
        original_length=layer.original_length,
        effective_bits_per_weight=effective_bits_per_weight(layer.bits, layer.dim),
        compression_ratio_formula=compression_ratio(layer.bits, layer.dim),
        measured_ratio=4.0 * layer.original_length / size,
        empirical_entropy=empirical_entropy(layer.indices, layer.bits),
        reconstruction_error=err,
        serialized_bytes=size,
    )


@dataclass(frozen=True)
class LayerPolicy:
    """Per-layer scheme overrides applied on top of a base config.

    Layers with fewer than ``small_layer_threshold`` weights (10,000) are clustered
    at ``small_layer_bits`` (8); the first and last layers can be left uncompressed.
    """

    small_layer_threshold: int = 10_000
    small_layer_bits: int = 8
    skip_first: bool = False
    skip_last: bool = False

    def __post_init__(self):
        check_fields(
            small_layer_threshold=integer(self.small_layer_threshold, 0),
            small_layer_bits=integer(self.small_layer_bits, 1, 16),
            skip_first=flag(self.skip_first),
            skip_last=flag(self.skip_last),
        )

    def apply(
        self,
        base: DkmConfig | None,
        layer_index: int,
        layer_count: int,
        param_count: int,
    ) -> DkmConfig | None:
        if base is None:
            return None
        if self.skip_first and layer_index == 0:
            return None
        if self.skip_last and layer_index == layer_count - 1:
            return None
        if param_count < self.small_layer_threshold and base.bits != self.small_layer_bits:
            return replace(base, bits=self.small_layer_bits)
        return base
