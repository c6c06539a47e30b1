"""Blocked matrix multiply: correctness against the naive algorithm."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.matrix import MatrixParams
from repro.kernels.matmul import (
    blocked_matmul,
    choose_block_size,
    naive_matmul,
    output_blocks,
)


def random_matrix(rows, cols, seed):
    rng = random.Random(seed)
    return [[rng.uniform(-10, 10) for _ in range(cols)] for _ in range(rows)]


def assert_close(a, b):
    assert len(a) == len(b)
    for row_a, row_b in zip(a, b):
        assert row_a == pytest.approx(row_b, rel=1e-9, abs=1e-9)


class TestNaive:
    def test_identity(self):
        m = random_matrix(3, 3, 1)
        identity = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
        assert_close(naive_matmul(m, identity), m)

    def test_known_product(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        assert_close(naive_matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_rectangular(self):
        a = random_matrix(2, 5, 2)
        b = random_matrix(5, 3, 3)
        result = naive_matmul(a, b)
        assert len(result) == 2 and len(result[0]) == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            naive_matmul(random_matrix(2, 3, 1), random_matrix(2, 3, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            naive_matmul([], [[1.0]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            naive_matmul([[1.0, 2.0], [3.0]], [[1.0], [2.0]])


class TestBlocked:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_matches_naive_for_any_block(self, block):
        a = random_matrix(7, 9, 10)
        b = random_matrix(9, 5, 11)
        assert_close(blocked_matmul(a, b, block=block), naive_matmul(a, b))

    def test_block_larger_than_matrix(self):
        a = random_matrix(3, 3, 12)
        b = random_matrix(3, 3, 13)
        assert_close(blocked_matmul(a, b, block=100), naive_matmul(a, b))

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            blocked_matmul([[1.0]], [[1.0]], block=0)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 8),
        k=st.integers(1, 8),
        m=st.integers(1, 8),
        block=st.integers(1, 10),
        seed=st.integers(0, 1000),
    )
    def test_property_blocked_equals_naive(self, n, k, m, block, seed):
        a = random_matrix(n, k, seed)
        b = random_matrix(k, m, seed + 1)
        assert_close(blocked_matmul(a, b, block=block), naive_matmul(a, b))


class TestBlockSizing:
    def test_symmetry_cache_block(self):
        """64 KB cache, 8-byte elements, 3 live blocks -> edge 52."""
        assert choose_block_size(64 * 1024) == 52

    def test_minimum_one(self):
        assert choose_block_size(8) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_block_size(0)
        with pytest.raises(ValueError):
            choose_block_size(1024, element_bytes=0)

    def test_output_blocks_cover_matrix(self):
        blocks = output_blocks(10, 6, 4)
        assert (0, 0) in blocks and (8, 4) in blocks
        assert len(blocks) == 3 * 2

    def test_output_blocks_one_per_matrix_thread(self):
        """The MATRIX application default: 8x8 = 64 output blocks."""
        assert len(output_blocks(416, 416, 52)) == MatrixParams().n_blocks == 64
