"""The vectorized float text of ``osckit._floattext`` against ``float.__repr__``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osckit import _floattext
from osckit._floattext import JSON_TOKENS, REPR_TOKENS, float_text

SEP = ",\n    "


def repr_join(values, sep=SEP) -> str:
    return sep.join(map(float.__repr__, values))


def sweep() -> np.ndarray:
    """Powers of two and of ten with both neighbours, the first 20000
    subnormals, 10^5 random bit patterns, +-0, nan and +-inf."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([twos, tens])
    bits = np.random.default_rng(20).integers(0, 2**64, 100_000, dtype=np.uint64,
                                              endpoint=False)
    return np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        np.arange(1, 20_001, dtype=np.uint64).view(np.float64),
        bits.view(np.float64),
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
    ])


def test_sweep_matches_repr():
    values = sweep()
    assert values.size > 2 * _floattext.CHUNK  # several chunks, a partial last one
    assert float_text(values, (SEP,)) == repr_join(values.tolist())


def test_json_tokens_match_dumps():
    # json.dumps writes a list with ", " between items and NaN/Infinity tokens
    values = sweep()[::7]
    assert float_text(values, (", ",), JSON_TOKENS) == json.dumps(values.tolist())[1:-1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(), max_size=40))
def test_any_floats_match_repr(values):
    assert float_text(np.array(values, dtype=np.float64), (SEP,)) == repr_join(values)


def test_separators_cycle_by_flat_position():
    # a table in C order, one separator per column: the CSV layout
    table = np.array([[0.5, -0.0, 1e22], [math.nan, 2.0 ** -1074, -math.inf]])
    text = float_text(table, (",", ",", "\n"), REPR_TOKENS)
    assert text == "\n".join(",".join(map(repr, row)) for row in table.tolist())


def test_separators_cycle_across_chunks():
    # 3 separators do not divide the chunk size
    values = np.arange(3 * _floattext.CHUNK + 5, dtype=np.float64) / 7.0
    seps = (";", ":", "\n")
    want = "".join(repr(v) + seps[i % 3] for i, v in enumerate(values.tolist()))
    assert float_text(values, seps) == want[:-1]


def test_empty_and_unequal_separators():
    assert float_text(np.array([]), (SEP,)) == ""
    with pytest.raises(ValueError, match="separators"):
        float_text(np.array([1.0]), (",", ",\n"))


def test_products_stay_in_range():
    # _mul_high needs its second factor below 2^60: 4 c + 2 shifted by h,
    # for c < 2^53, or c = 2^52 where the gap below is the narrower one
    q = np.arange(-1074, 972)
    for irregular, c_max in ((0, 2**53 - 1), (1, 2**52)):
        k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
        h = q + _floattext._flog2pow10(-k) + 2
        assert h.min() >= 1
        assert (4 * c_max + 2) << int(h.max()) < 2**60
        assert 0 <= (k - _floattext._K_MIN).min()
        assert (k - _floattext._K_MIN).max() < _floattext._G[0].size
