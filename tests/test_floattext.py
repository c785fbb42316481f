import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypack.cli
import hypack.floattext
from hypack.cli import _json_float, main
from hypack.floattext import repr_texts


def _reprs(x):
    return list(map(float.__repr__, np.asarray(x, dtype=np.float64).tolist()))


def _short_decimals():
    rng = np.random.default_rng(7)
    return [round(u, d) for u, d in zip(rng.uniform(-1.0, 1.0, 400).tolist(), [1, 2, 3, 5, 8, 12, 15, 16] * 50)]


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4,
    1e-3, math.nextafter(1e-3, 0.0), 0.01, math.nextafter(0.01, 0.0), 0.1, math.nextafter(0.1, 0.0),
    math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), 1.0, -1.0, 2.0**-14, math.nextafter(2.0**-14, 1.0),
    0.5, 0.25, -0.5, 2.0**-13, 0.1 + 0.2, 1 / 3, 2 / 3, 0.7, 0.9999, 1e-16, 1e16, 123.456,
    # exactly halfway between two 16-digit decimals: repr rounds to the even
    # last digit, down (...312) and up (...938)
    0.5 + 2.0**-17, 0.5 + 3 * 2.0**-17, 0.0625 + 2.0**-16, 0.0625 + 3 * 2.0**-16,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize(
    "values", [EDGES, _short_decimals(), [], [0.3]], ids=["edges", "short-decimals", "empty", "one"]
)
def test_matches_repr_on_pinned_values(values):
    assert repr_texts(np.array(values, dtype=np.float64)) == _reprs(values)


def test_fallback_formats_what_the_kernel_leaves():
    x = np.array([math.nan, 0.25, math.inf, -math.inf, 0.3, -0.0])
    assert repr_texts(x, fallback=_json_float) == ["NaN", "0.25", "Infinity", "-Infinity", "0.3", "-0.0"]


def test_float32_and_views_cast_exactly():
    x32 = np.linspace(0.001, 0.999, 50, dtype=np.float32)
    assert repr_texts(x32) == _reprs(x32.tolist())
    x = np.cos(np.arange(60.0))[::3]
    assert repr_texts(x) == _reprs(x)
    with pytest.raises(TypeError):
        repr_texts(np.ones(3, dtype=np.longdouble) / 3)


def test_without_short_repr_every_value_takes_the_fallback(monkeypatch):
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    x = np.array([0.1, 0.25, 0.3, 2.5])
    assert repr_texts(x, fallback=lambda v: f"<{v}>") == ["<0.1>", "<0.25>", "<0.3>", "<2.5>"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_matches_repr_on_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert repr_texts(x) == _reprs(x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(math.log(1e-4), 0.0, exclude_max=True), st.booleans()), min_size=1, max_size=64))
def test_matches_repr_log_uniform_in_the_domain(draws):
    x = np.array([math.exp(e) * (-1.0 if neg else 1.0) for e, neg in draws])
    assert repr_texts(x) == _reprs(x)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_matches_repr_on_a_million_values(seed):
    # 20 drawn seeds x 50,000 values: raw 64-bit patterns and log-uniform
    # values of either sign in [1e-4, 1)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 25_000, dtype=np.uint64, endpoint=False).view(np.float64)
    logs = np.exp(rng.uniform(math.log(1e-4), 0.0, 25_000)) * rng.choice([-1.0, 1.0], 25_000)
    x = np.concatenate((bits, logs))
    assert repr_texts(x) == _reprs(x)


def test_pack_directions_take_the_kernel(tmp_path, monkeypatch):
    # the 40,000 direction values of a 20k-center pack: all but 5 are
    # formatted by the kernel (1.0, 0.0 and three below 1e-4 take the fallback)
    seen, fell = [], []

    def spy(values, fallback):
        seen.append(len(values))
        return repr_texts(values, fallback=lambda v: fell.append(v) or fallback(v))

    monkeypatch.setattr(hypack.floattext, "repr_texts", spy)
    out = tmp_path / "pack.json"
    assert main(["pack", "--C", "1", "--R", "11.5", "--cap", "20000", "--out", str(out)]) == 0
    assert sum(seen) == 40_000 and len(seen) == -(-40_000 // hypack.cli._PIECE_VALUES)
    assert len(fell) == 5 and all(not 1e-4 <= abs(v) < 1.0 for v in fell)
