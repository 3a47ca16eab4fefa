"""The fault layer's counter-based RNG: determinism, range, separation."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.rng import mix, splitmix64, uniform01, uniform01_array

U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_64_bit_range(self):
        for state in (0, 1, 2**63, 2**64 - 1):
            value = splitmix64(state)
            assert 0 <= value < 2**64

    def test_mix_streams_separate(self):
        assert mix(1, 0, 0) != mix(1, 0, 1)
        assert mix(1, 0, 0) != mix(1, 1, 0)
        assert mix(1, 0, 0) != mix(2, 0, 0)


class TestUniform01:
    def test_half_open_unit_interval(self):
        for i in range(500):
            draw = uniform01(7, i)
            assert 0.0 <= draw < 1.0

    def test_deterministic_per_key(self):
        assert uniform01(3, 10, 2) == uniform01(3, 10, 2)

    def test_distinct_per_attempt(self):
        draws = {uniform01(3, 10, attempt) for attempt in range(16)}
        assert len(draws) == 16

    def test_roughly_uniform(self):
        # Mean of 2000 draws should land near 0.5 — a coarse sanity
        # check that the 53-bit mantissa extraction isn't biased.
        n = 2000
        mean = sum(uniform01(0, i) for i in range(n)) / n
        assert abs(mean - 0.5) < 0.03


class TestUniform01Array:
    """The array form the fault schedule draws with is the scalar form,
    element for element and bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(U64, st.integers(min_value=-(2**63), max_value=-1)),
        indices=st.lists(U64, min_size=1, max_size=20),
        attempt=U64,
    )
    @example(seed=0, indices=[0], attempt=0)
    @example(seed=2**64 - 1, indices=[2**64 - 1, 0], attempt=2**64 - 1)
    def test_equals_the_scalar_form(self, seed, indices, attempt):
        drawn = uniform01_array(
            seed, np.array(indices, dtype=np.uint64), attempt
        )
        assert drawn.dtype == np.float64
        assert drawn.tolist() == [
            uniform01(seed, index, attempt) for index in indices
        ]

    def test_int64_positions_and_one_stream(self):
        positions = np.arange(-3, 500)
        assert uniform01_array(9, positions).tolist() == [
            uniform01(9, int(p)) for p in positions
        ]
