"""The ordered process-pool fan-out and its serial equivalence."""

import pytest

from repro.engine.parallel import map_items, resolve_workers


def _square(item):
    """Module-level so it pickles into pool workers."""
    return item * item


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None) == 1

    def test_positive_passes_through(self):
        assert resolve_workers(3) == 3

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestMapItems:
    def test_serial(self):
        assert map_items(_square, [0, 1, 2, 3]) == [0, 1, 4, 9]

    def test_parallel_equals_serial(self):
        items = [5, 3, 8, 1, 9, 2]
        assert map_items(_square, items, workers=3) == map_items(_square, items)

    def test_zero_items(self):
        assert map_items(_square, [], workers=2) == []

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            map_items(_square, [1], workers=0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_commits_fire_in_item_order(self, workers):
        commits = []
        results = map_items(
            _square, [4, 2, 7], workers=workers,
            on_commit=lambda i, r: commits.append((i, r)),
        )
        assert results == [16, 4, 49]
        assert commits == [(0, 16), (1, 4), (2, 49)]
