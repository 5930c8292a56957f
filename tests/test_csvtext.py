"""The block formatter against Python's own text, value by value."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmart.csvtext import csv_rows, text_block


def _texts(values):
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in text_block(values)]


def _check_floats(values):
    values = np.asarray(values, dtype=np.float64)
    assert _texts(values) == [repr(v) for v in values.tolist()]


def _check_ints(values, dtype):
    values = np.asarray(values, dtype=dtype)
    assert _texts(values) == [str(v) for v in values.tolist()]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_floats_from_any_bit_pattern(bits):
    # NaN payloads, infinities, subnormals and both zeros all occur
    _check_floats(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 2), min_size=1, max_size=64),
       st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_integers(ids, signed):
    _check_ints(ids, np.uint64)
    _check_ints(signed, np.int64)


def test_fixed_sweep():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert powers.size == 2098
    sweep = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    edges = [9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 5e-324,
             2.225073858507201e-308, sys.float_info.max, 0.0, np.inf, np.nan]
    sweep = np.concatenate([sweep, edges])
    _check_floats(np.concatenate([sweep, -sweep]))
    _check_ints([0, 9, 10, 99, 10**19 - 1, 10**19, 2**64 - 2], np.uint64)


def test_empty_block():
    assert text_block(np.zeros(0)).shape == (0, 0)
    assert csv_rows((0,), text_block(np.zeros(0))).size == 0


def test_rows_join_fields():
    ids, values = text_block(np.arange(3)), text_block(np.array([0.5, -1e-7, 12.0]))
    assert csv_rows((3,), ids, values).tobytes() == b"0,0.5\n1,-1e-07\n2,12.0\n"
    # fields broadcast along leading axes: a (2, 3) grid of rows
    grid = csv_rows((2, 3), ids[:2, None], values)
    assert grid.tobytes() == b"0,0.5\n0,-1e-07\n0,12.0\n1,0.5\n1,-1e-07\n1,12.0\n"
