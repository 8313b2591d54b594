"""The vector fold against the scalar loop it replaced.

:func:`repro.simcpu.engine.vector_fold` advances every accumulation cell
of a multi-tick replay with one ``numpy.add.accumulate`` per chunk of
rows.  :func:`fold_add` is the per-cell Python loop the engine, perf,
procfs, RAPL and the oracle folds used before it: the executable
specification of "the additions *n_ticks* one-tick folds would make".
Results must agree bit for bit (``float.hex``), across chunk boundaries
and table widths.  So must
:func:`~repro.simcpu.engine.tick_fold`, whose addends move from tick to
tick (a ramp run), against the same additions made tick by tick.
"""

from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcpu.engine import (FOLD_CHUNK_ROWS, addend_table, tick_fold,
                                 vector_fold)
from tests.strategies import default_settings


def fold_add(value, addends, n_ticks):
    """*value* after *n_ticks* rounds of adding each of *addends* in order.

    The float additions *n_ticks* one-tick folds make — never a single
    ``n * addend`` — so a fold over a batch rounds exactly like a loop
    over its ticks.
    """
    if len(addends) == 1:
        addend = addends[0]
        for _ in repeat(None, n_ticks):
            value += addend
        return value
    if addends:
        for _ in repeat(None, n_ticks):
            for addend in addends:
                value += addend
    return value


def _hex(values):
    return [value.hex() for value in values]


#: Zero, magnitudes down to the subnormals, and up to 1e15.
values = st.one_of(st.just(0.0), st.floats(0.0, 1e-300),
                   st.floats(0.0, 1e15))


@st.composite
def fold_inputs(draw):
    """(start, per-cell addends, n_ticks): 1-128 cells of one width of
    1-3 addends, over 2-2 000 ticks (every chunk boundary)."""
    width = draw(st.integers(1, 3))
    n_cells = draw(st.integers(1, 128))
    cells = draw(st.lists(st.lists(values, min_size=width, max_size=width),
                          min_size=n_cells, max_size=n_cells))
    start = draw(st.lists(values, min_size=n_cells, max_size=n_cells))
    return start, cells, draw(st.integers(2, 2000))


class TestVectorFold:
    @given(inputs=fold_inputs())
    @default_settings
    def test_matches_the_scalar_loop_bit_for_bit(self, inputs):
        start, cells, n_ticks = inputs
        expected = [fold_add(value, addends, n_ticks)
                    for value, addends in zip(start, cells)]
        folded = vector_fold(start, addend_table(cells), n_ticks)
        assert all(type(value) is float for value in folded)
        assert _hex(folded) == _hex(expected)
        assert folded == expected

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_edges(self, width, extra):
        """Tick counts that fill a chunk exactly, or miss by one."""
        per_chunk = FOLD_CHUNK_ROWS // width
        cells = [[0.1, 1e-3, 7.0][:width], [3.3e9, 2.5, 1e-5][:width],
                 [1e-300, 0.0, 5e-324][:width]]
        start = [0.0, 12.5, 1e-310]
        for n_ticks in (per_chunk + extra, 2 * per_chunk + extra):
            expected = [fold_add(value, addends, n_ticks)
                        for value, addends in zip(start, cells)]
            assert _hex(vector_fold(start, addend_table(cells),
                                    n_ticks)) == _hex(expected)

    def test_nothing_to_add_returns_the_start(self):
        assert vector_fold([1.0, 2.0], addend_table([(), ()]), 50) == [1.0,
                                                                      2.0]
        assert vector_fold([], addend_table([]), 50) == []
        assert vector_fold([4.0], addend_table([(1.0,)]), 0) == [4.0]


@st.composite
def tick_fold_inputs(draw):
    """(start, per-cell addends, n_ticks): 1-24 cells of one width (1-3
    addends a tick), each addend a column of one value per tick or a
    float every tick adds, over 1-120 ticks."""
    width = draw(st.integers(1, 3))
    n_cells = draw(st.integers(1, 24))
    n_ticks = draw(st.integers(1, 120))
    column = st.lists(values, min_size=n_ticks, max_size=n_ticks).map(
        np.array)
    cells = draw(st.lists(st.lists(values | column, min_size=width,
                                   max_size=width),
                          min_size=n_cells, max_size=n_cells))
    start = draw(st.lists(values, min_size=n_cells, max_size=n_cells))
    return start, cells, n_ticks


class TestTickFold:
    @given(inputs=tick_fold_inputs())
    @settings(max_examples=25, deadline=None)
    def test_matches_tick_by_tick_addition(self, inputs):
        start, cells, n_ticks = inputs
        expected = []
        for value, addends in zip(start, cells):
            per_tick = [[addend] * n_ticks if isinstance(addend, float)
                        else addend.tolist() for addend in addends]
            for tick_addends in zip(*per_tick):
                for addend in tick_addends:
                    value += addend
            expected.append(value)
        folded = tick_fold(start, cells, n_ticks)
        assert all(type(value) is float for value in folded)
        assert _hex(folded) == _hex(expected)
