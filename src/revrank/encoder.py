"""From-scratch trainable text encoder.

Pipeline: lowercase tokenizer → frequency vocabulary (UNK for everything
else) → mean-pooled token embeddings → linear projection to the latent
dimension.  Forward evaluation and exact analytic backward passes are both
provided; the backward pass is validated against central finite differences
in the test suite.

Summation order.  Floating-point addition is not associative, so each sum
in both passes has one fixed order, which a faster implementation must keep
to produce the same bits.  A sum over a sequence's tokens or over the
batch's sequences adds its terms one at a time, in that order, from +0.0,
never pairwise (``np.add.reduce(axis=0)`` is pairwise when the other axes
have size 1, so ``_batch_sum`` accumulates such rows instead).  A
matrix-vector product is the BLAS call one sequence would make, stacked
over the batch, as in ``(pooled[:, None, :] @ projection)[:, 0, :]``; a
plain matrix product of the batch sums in another order.

Pooling is ``embedding[ids].mean(axis=0)`` to the bit, which for a float64
table with d_e > 1 follows that rule.  ``pool_ids`` pools through ``_pool``,
which sorts the batch longest first.  A batch with at least as many
sequences as its longest has tokens adds position p's rows into the prefix
of sequences longer than p.  A smaller one, such as a training step's, is
taken in blocks of bounded size: one gather of each block's rows into a
(longest, sequences, d_e) array, with +0.0 past each sequence's end, and
one ``_batch_sum`` over the first axis.  (For d_e = 1 numpy sums the one
column pairwise, and a float16 table in float32, so such tables are pooled
one sequence at a time.)  Both
passes take its ``PooledBatch``, so a training step that hands the forward's
batch to the backward pools each tower's batch once.  The projection
gradient is the batch's outer products (``np.einsum``, which only
multiplies) added by ``_batch_sum``.  In the embedding gradient a token's
occurrences in one sequence are added first, then the sequences' sums for
one row, in batch order.  ``encode_backward_batch_ids`` sorts the batch's
distinct (token, sequence) pairs once.  Pass 1 adds each sequence's
gradient k times, for each k up to the largest count of a token in one
sequence, which gives every pair's sum; pass 2 adds each token's pairs with
``np.bincount``, whose bins take their weights in input order, a block of
whole tokens at a time.  So the embedding gradient is row-sparse: the
batch's distinct rows and their values, never a dense |V| x d_e table;
every other row's gradient is +0.0.  Apart from pass 1's sums, each float64
temporary of either pass holds about ``_BLOCK_ENTRIES`` entries at most.

A trained model is a ``DualEncoder``: one shared vocabulary plus two
independent parameter sets, one for contexts and one for reviews.
Checkpoints are .npz archives; loading reproduces encode outputs bit-exactly.

Loading maps the archive read-only instead of reading it.  Members are
read as ``np.savez`` stores them, uncompressed: for each member the loader
takes the offset from the zip directory and the local header, checks the
CRC-32 of the mapped bytes against the directory, and wraps the array data
with ``np.frombuffer``, so every array it reads is a read-only view of the
map and the embedding tables are never copied.  An archive with a
compressed member (``np.savez_compressed``) is rejected.  Any fault in the
archive's structure is a ``ValueError``.  The map
lives as long as an array on it, so a checkpoint file must be replaced
atomically (``atomic_write``), never rewritten in place while a model
loaded from it is in use.
"""

from __future__ import annotations

import io
import itertools
import math
import mmap
import os
import re
import struct
import zipfile
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

CHECKPOINT_VERSION = 1

UNK = "<unk>"
MAX_TOKENS = 128

_TOKEN = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, then every maximal run of ASCII letters and digits."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """A vocabulary is its tokens in id order: ``tokens[i]`` has id ``i``.

    The tokens are distinct and include UNK, which every token outside
    them maps to.  ``index`` maps each token to its id.
    """

    tokens: tuple[str, ...]
    min_frequency: int
    max_size: int
    index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = dict(zip(self.tokens, range(len(self.tokens))))
        if len(index) != len(self.tokens):
            raise ValueError("vocabulary tokens must be distinct")
        if UNK not in index:
            raise ValueError("vocabulary must contain the UNK token")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def unk_index(self) -> int:
        return self.index[UNK]

    def lookup(self, token: str) -> int:
        return self.index.get(token, self.unk_index)

    def encode_tokens(self, tokens: Sequence[str]) -> list[int]:
        get = self.index.get
        unk = self.index[UNK]
        return [get(t, unk) for t in tokens[:MAX_TOKENS]]

    def encode_text(self, text: str) -> list[int]:
        """Token ids of a string: tokenized, truncated, looked up."""
        return self.encode_tokens(tokenize(text))


def build_vocabulary(
    corpus: Iterable[Sequence[str]], min_frequency: int = 1, max_size: int = 50000
) -> Vocabulary:
    """Frequency vocabulary over tokenized texts.

    Tokens with count >= min_frequency are kept, ordered most frequent
    first with lexicographic tie-breaks, truncated to max_size, and UNK is
    appended as the final index.
    """
    if min_frequency < 1:
        raise ValueError(f"min_frequency must be >= 1, got {min_frequency}")
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    counts: Counter[str] = Counter()
    seen_any = False
    for tokens in corpus:
        seen_any = True
        counts.update(tokens)
    if not seen_any:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_frequency),
        key=lambda t: (-counts[t], t),
    )[:max_size]
    return Vocabulary((*kept, UNK), min_frequency=min_frequency, max_size=max_size)


@dataclass
class EncoderParams:
    """One encoder's trainable parameters.

    ``projection`` has shape (d_e, d): a pooled embedding row-vector m maps
    to ``m @ projection + bias``.
    """

    embedding: np.ndarray  # (|V|, d_e)
    projection: np.ndarray  # (d_e, d)
    bias: np.ndarray  # (d,)

    def __post_init__(self):
        if self.embedding.ndim != 2 or self.projection.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("parameter arrays have wrong rank")
        if self.embedding.shape[1] != self.projection.shape[0]:
            raise ValueError(
                f"embedding dim {self.embedding.shape[1]} does not match "
                f"projection input dim {self.projection.shape[0]}"
            )
        if self.projection.shape[1] != self.bias.shape[0]:
            raise ValueError(
                f"projection output dim {self.projection.shape[1]} does not match "
                f"bias dim {self.bias.shape[0]}"
            )
        for name, arr in self.blocks().items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_e(self) -> int:
        return self.embedding.shape[1]

    @property
    def d(self) -> int:
        return self.bias.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "projection": self.projection, "bias": self.bias}

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            embedding=self.embedding.copy(),
            projection=self.projection.copy(),
            bias=self.bias.copy(),
        )


@dataclass
class EncoderGradients:
    """One encoder's gradients, the embedding's row-sparse.

    ``values[k]`` is the gradient of embedding row ``rows[k]``, ``rows``
    sorted and distinct; each other of the ``vocab_size`` rows has gradient
    +0.0.
    """

    rows: np.ndarray  # (k,)
    values: np.ndarray  # (k, d_e)
    projection: np.ndarray  # (d_e, d)
    bias: np.ndarray  # (d,)
    vocab_size: int

    @property
    def embedding(self) -> np.ndarray:
        """The embedding gradient as a dense |V| x d_e table, built on each read."""
        dense = np.zeros((self.vocab_size, self.values.shape[1]), dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense

    def blocks(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "projection": self.projection, "bias": self.bias}


def init_params(d: int = 64, d_e: int = 64, vocab_size: int = 1, seed: int = 0) -> EncoderParams:
    """Uniform [-0.05, 0.05] weights, zero bias, deterministic under seed."""
    if d < 1 or d_e < 1 or vocab_size < 1:
        raise ValueError(f"dimensions must be positive, got d={d} d_e={d_e} |V|={vocab_size}")
    rng = np.random.default_rng(seed)
    return EncoderParams(
        embedding=rng.uniform(-0.05, 0.05, size=(vocab_size, d_e)),
        projection=rng.uniform(-0.05, 0.05, size=(d_e, d)),
        bias=np.zeros(d),
    )


@dataclass(frozen=True, eq=False)
class PooledBatch:
    """Id sequences as ``_flatten`` lays them out, with their mean embeddings."""

    lengths: np.ndarray  # (n,)
    flat: np.ndarray  # (lengths.sum(),)
    pooled: np.ndarray  # (n, d_e)

    def __len__(self) -> int:
        return len(self.lengths)


def pool_ids(params: EncoderParams, batches: Sequence[Sequence[int]]) -> PooledBatch:
    """A nonempty batch of nonempty id sequences, pooled with ``params``' table."""
    lengths, flat = _flatten(batches)
    if len(lengths) == 0:
        raise ValueError("cannot encode an empty batch")
    if not lengths.all():
        raise ValueError("cannot encode an empty token sequence")
    return PooledBatch(lengths, flat, _pool(params.embedding, lengths, flat))


def encode_batch_ids(
    params: EncoderParams, batches: Sequence[Sequence[int]] | PooledBatch
) -> np.ndarray:
    """Stack of latent vectors, one row per id sequence.

    Row i is ``embedding[batches[i]].mean(axis=0) @ projection + bias`` to
    the bit; the module docstring gives the order of the sums.  A
    ``PooledBatch`` from ``pool_ids(params, ...)`` is projected as it is.
    """
    if not isinstance(batches, PooledBatch):
        batches = pool_ids(params, batches)
    return (batches.pooled[:, None, :] @ params.projection)[:, 0, :] + params.bias


def _flatten(batches: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The length of each id sequence, and all their ids end to end."""
    lengths = np.fromiter(map(len, batches), dtype=np.intp, count=len(batches))
    flat = np.fromiter(
        itertools.chain.from_iterable(batches), dtype=np.intp, count=int(lengths.sum())
    )
    return lengths, flat


# Entries a block's float64 temporary in pooling or in the backward pass may
# hold: 256 KiB.  At d_e = 64 that is 512 rows, so a batch of 12 sequences
# of 40 tokens is one block; twice as much raised the bench's peak RSS.
_BLOCK_ENTRIES = 1 << 15


def _pool(embedding: np.ndarray, lengths: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Mean embedding of each nonempty sequence, as ``_flatten`` lays them out.

    A float64 table with d_e > 1 is pooled longest sequence first, in one of
    two ways, whichever takes fewer numpy calls.  A batch with at least as
    many sequences as its longest has tokens adds one token position at a
    time into the sequences still going (500 reviews pool in 0.7 ms this
    way against 0.9 ms in padded blocks, at d_e = 64).  A smaller batch,
    such as a training step's, is taken in blocks: the sequences longer than
    half the block's longest, at most ``_BLOCK_ENTRIES`` gathered entries
    (or one sequence).  A block's rows are gathered by indexing into one
    (longest, sequences, d_e) array, +0.0 past each sequence's end, and
    summed over the first axis by ``_batch_sum`` (12 training sequences
    pool in 45 us this way against 110 us position by position).  Adding
    +0.0 changes no sum but -0.0, and a sum from +0.0 is never -0.0, so
    either way each sequence's sum is its rows added in order from +0.0.  A
    table with one column, or not float64, is pooled one sequence at a
    time: numpy's mean sums those in another order (one column pairwise,
    float16 in float32).
    """
    if embedding.shape[1] == 1 or embedding.dtype != np.float64:
        ends = np.cumsum(lengths).tolist()
        return np.stack([
            embedding[flat[end - n:end]].mean(axis=0)
            for n, end in zip(lengths.tolist(), ends)
        ])
    order = np.argsort(-lengths, kind="stable")  # longest first
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    last = len(flat) - 1
    if len(lengths) >= lengths[0]:
        # ids[p, i] is token p of the i-th longest sequence; past a sequence's
        # end it is some other id of the batch, never read.
        ids = flat[np.minimum(starts + np.arange(lengths[0])[:, None], last)]
        # The sequences longer than p, alive[p] of them, lead that order.
        alive = len(lengths) - np.cumsum(np.bincount(lengths))
        sums = embedding[ids[0]]
        sums += 0.0
        for p in range(1, len(ids)):
            k = alive[p]
            sums[:k] += embedding[ids[p, :k]]
    else:
        sums = np.empty((len(lengths), embedding.shape[1]))
        i = 0
        while i < len(lengths):
            longest = int(lengths[i])
            j = min(int(np.searchsorted(-lengths, -(longest // 2))),
                    i + max(1, _BLOCK_ENTRIES // (longest * embedding.shape[1])))
            steps = np.arange(longest)[:, None]
            # Past a sequence's end this gathers some other row of the batch,
            # which is then set to +0.0.
            rows = embedding[flat[np.minimum(starts[i:j] + steps, last)]]
            rows[steps >= lengths[i:j]] = 0.0
            sums[i:j] = _batch_sum(rows)
            i = j
    pooled = np.empty_like(sums)
    pooled[order] = sums / lengths[:, None]
    return pooled


@dataclass
class DualEncoder:
    """Shared vocabulary plus independent context and review encoders."""

    vocab: Vocabulary
    context: EncoderParams
    review: EncoderParams

    def __post_init__(self):
        if self.context.vocab_size != len(self.vocab) or self.review.vocab_size != len(
            self.vocab
        ):
            raise ValueError(
                f"encoder tables sized {self.context.vocab_size}/"
                f"{self.review.vocab_size} do not match vocabulary of {len(self.vocab)}"
            )
        if self.context.d != self.review.d:
            raise ValueError(
                f"context latent dimension {self.context.d} does not match "
                f"review latent dimension {self.review.d}"
            )

    def copy(self) -> "DualEncoder":
        return DualEncoder(
            vocab=self.vocab, context=self.context.copy(), review=self.review.copy()
        )


def init_model(vocab: Vocabulary, d: int, d_e: int, seeds: tuple[int, int]) -> DualEncoder:
    """Fresh towers over ``vocab``: context from ``seeds[0]``, review from ``seeds[1]``."""
    context, review = (init_params(d, d_e, len(vocab), seed=seed) for seed in seeds)
    return DualEncoder(vocab=vocab, context=context, review=review)


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file whose contents replace ``path`` only if the block succeeds.

    Writes go to a temporary file in the same directory, which is moved
    over ``path`` with ``os.replace`` at the end; on any error it is
    removed, so ``path`` is never left half-written.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(model: DualEncoder, path: str | Path) -> None:
    """Persist a DualEncoder as an .npz archive, atomically.

    As with ``np.savez``, ``.npz`` is appended to a path without it.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    with atomic_write(path) as handle:
        np.savez(
            handle,
            format_version=np.array(CHECKPOINT_VERSION),
            vocab_tokens=np.array(model.vocab.tokens),
            vocab_min_frequency=np.array(model.vocab.min_frequency),
            vocab_max_size=np.array(model.vocab.max_size),
            context_embedding=model.context.embedding,
            context_projection=model.context.projection,
            context_bias=model.context.bias,
            review_embedding=model.review.embedding,
            review_projection=model.review.projection,
            review_bias=model.review.bias,
        )


# Each checkpoint entry, with its rank and the kinds of dtype it may have.
_CHECKPOINT_ENTRIES = {
    "format_version": (0, "iu"), "vocab_tokens": (1, "U"),
    "vocab_min_frequency": (0, "iu"), "vocab_max_size": (0, "iu"),
    "context_embedding": (2, "f"), "context_projection": (2, "f"), "context_bias": (1, "f"),
    "review_embedding": (2, "f"), "review_projection": (2, "f"), "review_bias": (1, "f"),
}
_KIND_NAMES = {"iu": "integer", "U": "string", "f": "real floating"}
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")  # zip local file header
_LOCAL_HEADER_SIGNATURE = b"PK\x03\x04"
_ENCRYPTED = 0x01  # zip general-purpose flag bit
_NPY_MAX_HEADER = 10000  # np.load's default limit on a .npy header
_NPY_PREFIX = 10 + _NPY_MAX_HEADER  # magic and version, length field, header


def _npy_array(data: memoryview) -> np.ndarray:
    """Read-only array over the bytes of a .npy file, without copying them.

    As with ``np.load(allow_pickle=False)``, object arrays and headers over
    numpy's default size limit are rejected.
    """
    stream = io.BytesIO(data[:_NPY_PREFIX])
    # np.save writes version 1.0 unless the header needs over 65535 bytes,
    # far beyond the size limit.
    version = np.lib.format.read_magic(stream)
    if version != (1, 0):
        raise ValueError(f"unsupported .npy format version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
        stream, max_header_size=_NPY_MAX_HEADER
    )
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded without pickle")
    if any(n < 0 for n in shape):
        raise ValueError(f"negative array dimension in shape {shape}")
    count = math.prod(shape)
    offset = stream.tell()
    if offset + count * dtype.itemsize > len(data):
        raise ValueError("array is larger than its member")
    array = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    if fortran_order:
        return array.reshape(shape[::-1]).T
    return array.reshape(shape)


def _member_bytes(mapped: mmap.mmap, info: zipfile.ZipInfo) -> memoryview:
    """The bytes of one stored zip member, a view of ``mapped``, their CRC-32 checked."""
    if info.flag_bits & _ENCRYPTED:
        raise ValueError("encrypted member")
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"unsupported compression method {info.compress_type}")
    start = info.header_offset
    if not 0 <= start <= len(mapped) - _LOCAL_HEADER.size:
        raise ValueError("member header lies outside the file")
    fields = _LOCAL_HEADER.unpack(mapped[start:start + _LOCAL_HEADER.size])
    if fields[0] != _LOCAL_HEADER_SIGNATURE:
        raise ValueError("bad member header signature")
    name_start = start + _LOCAL_HEADER.size
    name_end = name_start + fields[10]
    if mapped[name_start:name_end] != info.filename.encode():  # entry names are ASCII
        raise ValueError("member name differs between directory and header")
    data_start = name_end + fields[11]
    data_end = data_start + info.compress_size
    if data_end > len(mapped):
        raise ValueError("member data lies outside the file")
    data = memoryview(mapped)[data_start:data_end]
    if len(data) != info.file_size:
        raise ValueError("member size differs from the directory")
    if zlib.crc32(data) != info.CRC:
        raise ValueError("bad CRC-32")
    return data


def _checkpoint_arrays(path: Path) -> dict[str, np.ndarray]:
    """Every checkpoint entry of the .npz archive at ``path``, mapped read-only."""
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # an empty file cannot be mapped
            raise ValueError(f"{path}: not a checkpoint archive ({exc})") from exc
    # Reading the directory from the map, a seek outside it is a ValueError.
    try:
        archive = zipfile.ZipFile(mapped)
    except (zipfile.BadZipFile, NotImplementedError, ValueError) as exc:
        raise ValueError(f"{path}: not a checkpoint archive ({exc})") from exc
    arrays = {}
    with archive:
        for name, (ndim, kinds) in _CHECKPOINT_ENTRIES.items():
            try:
                info = archive.getinfo(f"{name}.npy")
            except KeyError:
                raise ValueError(f"{path}: checkpoint is missing entry '{name}'") from None
            try:
                array = _npy_array(_member_bytes(mapped, info))
                if array.ndim != ndim or array.dtype.kind not in kinds:
                    raise ValueError(f"expected a {ndim}-d {_KIND_NAMES[kinds]} array, "
                                     f"got a {array.ndim}-d {array.dtype} array")
            except ValueError as exc:
                raise ValueError(f"{path}: entry '{name}': {exc}") from exc
            arrays[name] = array
    return arrays


def load_checkpoint(path: str | Path) -> DualEncoder:
    """Load a checkpoint written by save_checkpoint.

    Every entry must have its rank and kind of dtype: integer scalars, a
    1-d string array of tokens, and real floating tables.
    The tables are read-only views of a map of the file, which stays mapped
    while any of them is alive; see the module docstring.
    """
    path = Path(path)
    data = _checkpoint_arrays(path)
    version = int(data["format_version"])
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint format version {version} not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    vocab = Vocabulary(
        tuple(data["vocab_tokens"].tolist()),
        min_frequency=int(data["vocab_min_frequency"]),
        max_size=int(data["vocab_max_size"]),
    )
    # The small blocks are copied into aligned memory: numpy's matmul does
    # not pass unaligned operands to BLAS, and its own loop sums in another
    # order.  Embedding rows are only gathered, which copies them exactly.
    context = EncoderParams(
        embedding=data["context_embedding"],
        projection=np.array(data["context_projection"]),
        bias=np.array(data["context_bias"]),
    )
    review = EncoderParams(
        embedding=data["review_embedding"],
        projection=np.array(data["review_projection"]),
        bias=np.array(data["review_bias"]),
    )
    return DualEncoder(vocab=vocab, context=context, review=review)


def _batch_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of ``rows`` over the first axis, adding them in order from +0.0.

    numpy's reduce adds whole C-ordered rows in order, but sums one-entry
    rows pairwise, so those are accumulated (slower for wide rows).
    """
    if rows[0].size == 1:
        return np.cumsum(rows, axis=0)[-1] + 0.0
    return np.add.reduce(np.ascontiguousarray(rows), axis=0) + 0.0


def encode_backward_batch_ids(
    params: EncoderParams,
    batches: Sequence[Sequence[int]] | PooledBatch,
    upstream_rows: np.ndarray,
) -> EncoderGradients:
    """Exact gradients of ``sum_i upstream_rows[i] . encode_batch_ids(params, batches)[i]``.

    A row appearing k times among a sequence's T tokens receives k/T of that
    sequence's pooled gradient; ``rows`` are the batch's distinct ids,
    wrapped into [0, |V|) as in indexing.  The summation order is the one in
    the module docstring: the projection and bias gradients add the batch's
    terms in batch order from +0.0 (``_batch_sum``), a token occurring k
    times in a sequence receives that sequence's gradient added k times from
    +0.0 (pass 1), and each row adds those in batch order from +0.0 (pass
    2).  A ``PooledBatch`` must come from ``pool_ids`` with these
    parameters, so that its pooled rows are the forward's.
    """
    upstream = np.asarray(upstream_rows, dtype=float)
    if upstream.shape != (len(batches), params.d):
        raise ValueError(
            f"upstream gradient shape {upstream.shape} != ({len(batches)}, {params.d})"
        )
    if not isinstance(batches, PooledBatch):
        batches = pool_ids(params, batches)
    lengths, flat = batches.lengths, batches.flat
    n_seqs, d_e = len(lengths), params.d_e
    grad_bias = _batch_sum(upstream)
    # Outer products, summed over the batch, for a block of input rows at a time.
    grad_projection = np.empty((d_e, params.d))
    step = max(1, _BLOCK_ENTRIES // upstream.size)
    for a in range(0, d_e, step):
        grad_projection[a:a + step] = _batch_sum(
            np.einsum("ia,ib->iab", batches.pooled[:, a:a + step], upstream))
    seq_grads = (params.projection @ upstream[:, :, None])[:, :, 0] / lengths[:, None]

    # One key per distinct (token, sequence) pair, sorted by token, then by
    # sequence; negative ids wrap as in indexing.
    seqs = np.repeat(np.arange(n_seqs), lengths)
    keys, counts = np.unique(flat % params.vocab_size * n_seqs + seqs, return_counts=True)
    key_tokens, key_seqs = np.divmod(keys, n_seqs)
    # Pass 1: row (k - 1) * n_seqs + s of multiples is sequence s's gradient
    # added k times from +0.0, what a token occurring k times in it receives.
    multiples = np.empty((counts.max(), n_seqs, d_e))
    np.add(seq_grads, 0.0, out=multiples[0])
    for k in range(1, len(multiples)):
        np.add(multiples[k - 1], seq_grads, out=multiples[k])
    multiples = multiples.reshape(-1, d_e)
    sources = (counts - 1) * n_seqs + key_seqs
    # Pass 2: bincount adds each bin's weights in input order from +0.0, and
    # a token's keys are contiguous and in batch order.  It runs over whole
    # tokens, about _BLOCK_ENTRIES // d_e keys at a time.
    new_token = np.empty(len(keys), dtype=bool)
    new_token[0] = True
    np.not_equal(key_tokens[1:], key_tokens[:-1], out=new_token[1:])
    firsts = np.flatnonzero(new_token)
    slots = np.cumsum(new_token) - 1
    block_tokens = [*dict.fromkeys(slots[::max(1, _BLOCK_ENTRIES // d_e)].tolist()), len(firsts)]
    block_keys = [*firsts[block_tokens[:-1]].tolist(), len(keys)]
    values = np.empty((len(firsts), d_e))
    columns = np.arange(d_e)
    for t0, t1, k0, k1 in zip(block_tokens, block_tokens[1:], block_keys, block_keys[1:]):
        values[t0:t1] = np.bincount(
            ((slots[k0:k1] - t0)[:, None] * d_e + columns).ravel(),
            weights=multiples.take(sources[k0:k1], axis=0).ravel(),
            minlength=(t1 - t0) * d_e,
        ).reshape(t1 - t0, d_e)
    return EncoderGradients(
        rows=key_tokens[firsts], values=values, projection=grad_projection, bias=grad_bias,
        vocab_size=params.vocab_size,
    )
