import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octformer import morton

from oracles import Key, child_keys, decode, encode, neighbor_key, parent_key


def test_encode_zero_is_zero():
    for d in (1, 4, 21):
        assert encode(0, 0, 0, d).code == 0


def test_encode_all_ones_depth1():
    assert encode(1, 1, 1, 1).code == 7


def test_encode_interleaving_order():
    # x=11b, y=01b, z=10b -> 101110b with x in the high slot
    assert encode(3, 1, 2, 2).code == 46


def test_decode_inverts_encode():
    assert decode(encode(5, 2, 7, 3)) == (5, 2, 7)
    assert decode(Key(0, 4)) == (0, 0, 0)
    assert decode(Key(46, 2)) == (3, 1, 2)


def test_encode_range_errors():
    with pytest.raises(ValueError):
        encode(4, 0, 0, 2)
    with pytest.raises(ValueError):
        encode(-1, 0, 0, 3)
    with pytest.raises(ValueError):
        encode(0, 0, 0, 0)
    with pytest.raises(ValueError):
        encode(0, 0, 0, 22)


def test_malformed_key_rejected():
    with pytest.raises(ValueError):
        Key(8, 1)  # 8 >= 8^1


def test_parent_key():
    assert parent_key(Key(46, 2)) == Key(5, 1)
    for d in (2, 5, 21):
        assert parent_key(Key(0, d)) == Key(0, d - 1)
    with pytest.raises(ValueError):
        parent_key(Key(3, 1))


def test_children_contiguous():
    kids = child_keys(Key(5, 1))
    assert [k.code for k in kids] == list(range(40, 48))
    assert all(parent_key(k) == Key(5, 1) for k in kids)


def test_neighbor_key():
    origin = encode(0, 0, 0, 3)
    assert neighbor_key(origin, -1, 0, 0) is None
    center = encode(2, 2, 2, 3)
    assert neighbor_key(center, 0, 0, 0) == center
    assert neighbor_key(encode(3, 1, 2, 2), 1, 0, 0) is None
    k = neighbor_key(center, 1, -1, 1)
    assert decode(k) == (3, 1, 3)


@given(st.data())
@settings(max_examples=200)
def test_bijectivity(data):
    depth = data.draw(st.integers(1, 21))
    lim = 2**depth
    x = data.draw(st.integers(0, lim - 1))
    y = data.draw(st.integers(0, lim - 1))
    z = data.draw(st.integers(0, lim - 1))
    key = encode(x, y, z, depth)
    assert key.code < 8**depth
    assert decode(key) == (x, y, z)


def test_bijectivity_bulk():
    rng = np.random.default_rng(0)
    for depth in (1, 6, 13, 21):
        lim = 1 << depth
        cells = rng.integers(0, lim, size=(2000, 3))
        codes = morton.encode_cells(cells, depth)
        assert np.array_equal(morton.decode_cells(codes, depth), cells)


def test_scalar_and_bulk_agree():
    rng = np.random.default_rng(1)
    depth = 5
    cells = rng.integers(0, 1 << depth, size=(64, 3))
    codes = morton.encode_cells(cells, depth)
    for cell, code in zip(cells, codes):
        assert encode(*[int(c) for c in cell], depth).code == int(code)


@given(st.integers(2, 21), st.data())
def test_parent_is_order_preserving(depth, data):
    lim = 8**depth
    a = data.draw(st.integers(0, lim - 1))
    b = data.draw(st.integers(0, lim - 1))
    if a > b:
        a, b = b, a
    pa = parent_key(Key(a, depth))
    pb = parent_key(Key(b, depth))
    assert pa.code <= pb.code


def test_sorted_keys_group_children():
    # all 8 children of every depth-2 parent form one contiguous run
    depth = 3
    rng = np.random.default_rng(2)
    cells = rng.integers(0, 1 << depth, size=(300, 3))
    codes = np.unique(morton.encode_cells(cells, depth))
    parents = codes >> np.uint64(3)
    # runs of equal parents must be contiguous in the sorted array
    changes = np.flatnonzero(np.diff(parents)) + 1
    segments = np.split(parents, changes)
    seen = set()
    for seg in segments:
        assert len(set(seg.tolist())) == 1
        assert seg[0] not in seen
        seen.add(int(seg[0]))
