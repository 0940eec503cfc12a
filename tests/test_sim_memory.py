"""Sparse memory model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import MASK64
from repro.sim import Memory, WORD_BYTES

aligned = st.integers(min_value=0, max_value=1 << 30).map(lambda i: i * WORD_BYTES)
words = st.integers(min_value=0, max_value=MASK64)


def test_unwritten_reads_zero():
    assert Memory().load(0x1000) == 0


def test_store_load_roundtrip():
    m = Memory()
    m.store(0x1000, 42)
    assert m.load(0x1000) == 42


def test_unaligned_access_rejected():
    m = Memory()
    with pytest.raises(ValueError, match="unaligned"):
        m.load(0x1001)
    with pytest.raises(ValueError, match="unaligned"):
        m.store(0x1004, 1)


def test_values_wrap_to_64_bits():
    m = Memory()
    m.store(0x8, (1 << 64) + 5)
    assert m.load(0x8) == 5


def test_bulk_write_read():
    m = Memory()
    m.write_words(0x100, range(10))
    assert m.read_words(0x100, 10) == tuple(range(10))
    assert m.load(0x100 + 9 * 8) == 9


def test_copy_is_independent():
    m = Memory()
    m.store(0x8, 1)
    c = m.copy()
    c.store(0x8, 2)
    assert m.load(0x8) == 1 and c.load(0x8) == 2


def test_equality_ignores_explicit_zeros():
    a, b = Memory(), Memory()
    a.store(0x8, 0)
    assert a == b
    a.store(0x10, 7)
    assert a != b
    b.store(0x10, 7)
    assert a == b


def test_nonzero_words_iteration():
    m = Memory()
    m.write_words(0x40, [1, 0, 3])
    entries = dict(m.nonzero_words())
    assert entries[0x40] == 1 and entries[0x50] == 3


def test_image_bytes_follow_equality():
    a, b = Memory(), Memory()
    a.store(0x8, 0)  # an explicit zero is no content
    a.store(0x18, MASK64)
    a.store(0x10, 7)
    b.store(0x10, 7)
    b.store(0x18, MASK64)  # other write order, same image
    assert a == b and a.image_bytes() == b.image_bytes()
    # Word indices 2 and 3, then their values, little-endian.
    expected = b"".join(v.to_bytes(8, "little") for v in (2, 3, 7, MASK64))
    assert a.image_bytes() == expected
    b.store(0x10, 8)
    assert a.image_bytes() != b.image_bytes()


@given(st.dictionaries(aligned, words, max_size=20))
def test_memory_behaves_like_dict(model):
    m = Memory()
    for addr, value in model.items():
        m.store(addr, value)
    for addr, value in model.items():
        assert m.load(addr) == value


def test_word_index_fast_path_matches_checked_api():
    m = Memory()
    m.store(0x100, 5)
    assert m.load_word_index(0x100 >> 3) == 5
    m.store_word_index(2, 7)
    assert m.load(0x10) == 7
    assert m.load_word_index(999) == 0  # untouched words read as zero


def test_image_round_trip_keeps_written_zeros_and_independence():
    m = Memory()
    m.write_words(0x40, [1, 0, MASK64])
    image = m.image()
    assert not image.indices.flags.writeable and not image.values.flags.writeable
    first, second = image.memory(), image.memory()
    assert first == m and len(first) == len(m) == 3  # the written zero stays
    assert image.image_bytes() == m.image_bytes()
    first.store(0x40, 9)
    assert second.load(0x40) == 1 and image.memory().load(0x40) == 1
