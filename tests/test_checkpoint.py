"""Checkpoint loading: round trips, rejected archives and damaged files.

``load_checkpoint`` maps the archive and reads each member in place.  It
must return exactly what ``np.savez`` saved, reject what
``np.load(allow_pickle=False)`` rejects and any compressed member, and turn
any damage to the file into a ``ValueError`` - never into a different model.
"""

import io
import re
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.encoder import (
    UNK,
    DualEncoder,
    EncoderParams,
    Vocabulary,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def archive_entries(tokens, context, review, min_frequency=1, max_size=50000):
    """The arrays of a checkpoint archive, in ``save_checkpoint``'s order."""
    return {
        "format_version": np.array(1),
        "vocab_tokens": np.array(tokens),
        "vocab_min_frequency": np.array(min_frequency),
        "vocab_max_size": np.array(max_size),
        "context_embedding": context.embedding,
        "context_projection": context.projection,
        "context_bias": context.bias,
        "review_embedding": review.embedding,
        "review_projection": review.projection,
        "review_bias": review.bias,
    }


def npy_bytes(array, header_length=None):
    """A .npy file; ``header_length`` pads a version 1.0 header to that size."""
    if header_length is None:
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, array)
        return buffer.getvalue()
    header = repr({"descr": np.lib.format.dtype_to_descr(array.dtype),
                   "fortran_order": False, "shape": array.shape})
    header = header.ljust(header_length - 1) + "\n"
    return (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header))
            + header.encode("latin1") + array.tobytes())


def write_members(path, members, compression=zipfile.ZIP_STORED):
    with zipfile.ZipFile(path, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(f"{name}.npy", data)


def tiny_model():
    vocab = Vocabulary(("a", "b", UNK), min_frequency=1, max_size=50000)
    return DualEncoder(vocab, init_params(2, 2, 3, seed=0), init_params(2, 2, 3, seed=1))


def same_model(a, b):
    """Equal vocabularies and bit-identical parameter arrays of equal dtype."""
    if a.vocab != b.vocab:
        return False
    for x, y in ((a.context, b.context), (a.review, b.review)):
        for name, block in x.blocks().items():
            other = y.blocks()[name]
            if (block.dtype, block.shape, block.tobytes()) != (
                other.dtype, other.shape, other.tobytes()
            ):
                return False
    return True


TOKENS = st.text(
    alphabet=st.characters(blacklist_characters="\x00"),  # numpy str arrays drop trailing NULs
    min_size=1, max_size=10,
).filter(lambda t: t != UNK)


@st.composite
def towers(draw, vocab_size, d):
    d_e = draw(st.integers(1, 8))
    dtype = draw(st.sampled_from(["<f8", "<f4", ">f8"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table(shape):
        values = rng.normal(size=shape).astype(dtype)
        return np.asfortranarray(values) if draw(st.booleans()) else values

    return EncoderParams(embedding=table((vocab_size, d_e)),
                         projection=table((d_e, d)), bias=table((d,)))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_loads_what_was_saved(self, data):
        vocab_size = data.draw(st.integers(1, 600))
        tokens = data.draw(st.lists(TOKENS, min_size=vocab_size - 1,
                                    max_size=vocab_size - 1, unique=True))
        tokens.insert(data.draw(st.integers(0, vocab_size - 1)), UNK)
        d = data.draw(st.integers(1, 8))
        context = data.draw(towers(vocab_size, d))
        review = data.draw(towers(vocab_size, d))
        min_frequency = data.draw(st.integers(1, 5))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.npz"
            np.savez(path, **archive_entries(tokens, context, review, min_frequency, 700))
            loaded = load_checkpoint(path)

        assert loaded.vocab.tokens == tuple(tokens)
        assert loaded.vocab.index == {t: i for i, t in enumerate(tokens)}
        assert (loaded.vocab.min_frequency, loaded.vocab.max_size) == (min_frequency, 700)
        expected = DualEncoder(loaded.vocab, context, review)
        assert same_model(loaded, expected)
        for tower in (loaded.context, loaded.review):
            assert not tower.embedding.flags.writeable
        for tower in (loaded.copy().context, loaded.copy().review):
            assert all(block.flags.writeable for block in tower.blocks().values())

    def test_resave_is_byte_identical(self, tmp_path):
        save_checkpoint(tiny_model(), tmp_path / "first.npz")
        save_checkpoint(load_checkpoint(tmp_path / "first.npz"), tmp_path / "second.npz")
        assert (tmp_path / "first.npz").read_bytes() == (tmp_path / "second.npz").read_bytes()


class TestRejectedArchives:
    def members(self, **replaced):
        model = tiny_model()
        arrays = archive_entries(model.vocab.tokens, model.context, model.review)
        members = {name: npy_bytes(array) for name, array in arrays.items()}
        members.update(replaced)
        return members

    @pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])
    def test_object_array_rejected(self, tmp_path, compression):
        tokens = np.array(["a", "b", UNK], dtype=object)
        path = tmp_path / "object.npz"
        write_members(path, self.members(vocab_tokens=npy_bytes(tokens)), compression)
        # A deflated member is rejected before its array header is read.
        message = {zipfile.ZIP_STORED: "object arrays",
                   zipfile.ZIP_DEFLATED: "unsupported compression method 8"}[compression]
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_deflated_member_rejected(self, tmp_path):
        """One deflated member among stored ones is named."""
        path = tmp_path / "deflated.npz"
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in self.members().items():
                kind = zipfile.ZIP_DEFLATED if name == "review_bias" else zipfile.ZIP_STORED
                archive.writestr(f"{name}.npy", data, compress_type=kind)
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: entry 'review_bias': "
                f"unsupported compression method 8$")):
            load_checkpoint(path)

    def test_savez_compressed_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, **archive_entries(model.vocab.tokens, model.context,
                                                    model.review))
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: entry 'format_version': "
                f"unsupported compression method 8$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("header_length, accepted", [(10000, True), (10048, False)])
    def test_header_size_limit(self, tmp_path, header_length, accepted):
        bias = npy_bytes(np.zeros(2), header_length=header_length)
        path = tmp_path / "header.npz"
        write_members(path, self.members(context_bias=bias))
        if accepted:
            assert np.array_equal(load_checkpoint(path).context.bias, np.zeros(2))
        else:
            with pytest.raises(ValueError, match="context_bias.*array header"):
                load_checkpoint(path)

    def test_array_larger_than_member(self, tmp_path):
        bias = npy_bytes(np.zeros(2))[:-8]
        path = tmp_path / "short.npz"
        write_members(path, self.members(context_bias=bias))
        with pytest.raises(ValueError, match="context_bias.*larger than its member"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, array", [
        ("format_version", np.array([1, 2])),
        ("format_version", np.array(1.0)),
        ("vocab_min_frequency", np.array([[1]])),
        ("vocab_max_size", np.array(True)),
        ("vocab_tokens", np.array([b"a", b"b", UNK.encode()])),
        ("vocab_tokens", np.array([["a", "b", UNK]])),
        ("context_embedding", tiny_model().context.embedding.astype(np.complex128)),
        ("review_projection", tiny_model().review.projection.ravel()),
        ("review_bias", np.zeros(2, dtype=np.int64)),
    ])
    def test_entry_of_wrong_rank_or_dtype(self, tmp_path, name, array):
        path = tmp_path / "kind.npz"
        write_members(path, self.members(**{name: npy_bytes(array)}))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: entry '{name}': expected"):
            load_checkpoint(path)

    def test_missing_entry(self, tmp_path):
        members = self.members()
        del members["review_bias"]
        path = tmp_path / "missing.npz"
        write_members(path, members)
        with pytest.raises(ValueError, match="missing entry 'review_bias'"):
            load_checkpoint(path)


class TestDamagedFiles:
    """Every single-bit flip and every truncation of a tiny checkpoint."""

    @pytest.fixture
    def saved(self, tmp_path):
        model = tiny_model()
        save_checkpoint(model, tmp_path / "model.npz")
        return model, (tmp_path / "model.npz").read_bytes()

    def test_bit_flips_load_the_same_model_or_raise(self, saved, tmp_path):
        model, raw = saved
        outcomes = {"same": 0, "rejected": 0}
        for offset in range(len(raw)):
            for mask in (0x01, 0x80):
                damaged = bytearray(raw)
                damaged[offset] ^= mask
                # A new file each time: a mapped file is never rewritten.
                path = tmp_path / f"flip-{offset}-{mask}.npz"
                path.write_bytes(damaged)
                try:
                    loaded = load_checkpoint(path)
                except ValueError:
                    outcomes["rejected"] += 1
                else:
                    assert same_model(loaded, model), (offset, mask)
                    outcomes["same"] += 1
                path.unlink()
        assert outcomes["rejected"] > outcomes["same"] > 0

    def test_truncations_raise(self, saved, tmp_path):
        _, raw = saved
        for length in range(len(raw)):
            path = tmp_path / f"cut-{length}.npz"
            path.write_bytes(raw[:length])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)
            path.unlink()
