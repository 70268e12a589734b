"""Tests for utilities: tables, stats, RNG policy, content digests and the
bounded memo."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.util.hashing import content_digest
from repro.util.memo import BoundedMemo
from repro.util.rng import rng_for
from repro.util.stats import (
    describe,
    mean_absolute_error,
    mode,
    normalize,
    percentile,
    sum_squared_error,
)
from repro.util.tables import ascii_bar_chart, ascii_histogram, ascii_table


class TestStats:
    def test_mae(self):
        assert mean_absolute_error([1, 2], [2, 4]) == pytest.approx(1.5)

    def test_mae_validates(self):
        with pytest.raises(ValueError):
            mean_absolute_error([1], [1, 2])
        with pytest.raises(ValueError):
            mean_absolute_error([], [])

    def test_sse(self):
        assert sum_squared_error([1, 2], [2, 4]) == pytest.approx(5.0)

    def test_mode_ties_break_small(self):
        assert mode([3, 3, 1, 1, 2]) == 1

    def test_mode_empty(self):
        with pytest.raises(ValueError):
            mode([])

    def test_percentile(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_normalize_constant(self):
        assert normalize([5, 5, 5]).tolist() == [0, 0, 0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_normalize_range_property(self, vals):
        out = normalize(vals)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_describe_keys(self):
        d = describe([1.0, 2.0, 2.0, 9.0])
        assert d["mode"] == 2.0
        assert set(d) == {"mean", "std", "mode", "p25", "p50", "p75"}


class TestTables:
    def test_ascii_table_alignment(self):
        out = ascii_table(["A", "BB"], [[1, 2.5], [30, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows equal width

    def test_row_arity_checked(self):
        with pytest.raises(ValueError, match="cells"):
            ascii_table(["A"], [[1, 2]])

    def test_bar_chart(self):
        out = ascii_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        assert "##########" in out
        assert "yy" in out

    def test_bar_chart_validates(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["x"], [1.0, 2.0])

    def test_histogram(self):
        out = ascii_histogram([1, 1, 2, 9], bins=[0, 5, 10])
        assert "3" in out and "1" in out


class TestRng:
    def test_deterministic_per_scope(self):
        assert rng_for("a", 1).random() == rng_for("a", 1).random()

    def test_different_scopes_differ(self):
        assert rng_for("a").random() != rng_for("b").random()

    def test_seed_override(self):
        assert (rng_for("a", seed=1).random()
                != rng_for("a", seed=2).random())


class TestContentDigest:
    def test_equal_content_equal_digest(self):
        assert content_digest((1, "a", 2.5)) == content_digest((1, "a", 2.5))

    def test_distinguishes_what_equality_conflates(self):
        assert 0.0 == -0.0 and 1 == 1.0
        assert content_digest(0.0) != content_digest(-0.0)
        assert content_digest(1) != content_digest(1.0)


def _run_threads(n, target):
    """Start ``n`` threads on ``target(i)`` with a short switch interval,
    so the interpreter interleaves them as often as it can."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


class TestBoundedMemo:
    def test_evicts_oldest_at_cap(self):
        memo = BoundedMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("a") is None and memo.get("b") == 2
        memo.clear()
        assert len(memo) == 0 and memo.get("b") is None

    def test_put_keeps_the_first_value(self):
        memo = BoundedMemo(4)
        first, second = object(), object()
        assert memo.put("k", first) is first
        assert memo.put("k", second) is first

    def test_rejects_empty_cap(self):
        with pytest.raises(ValueError):
            BoundedMemo(0)

    def test_racing_puts_agree_on_one_value(self):
        """Every thread putting its own value under a key gets back the
        same one: a check-then-act race would hand out several."""
        memo = BoundedMemo(1000)
        got = [dict() for _ in range(8)]
        errors = []

        def work(i):
            try:
                for k in range(300):
                    got[i][k] = memo.put(k, object())
            except Exception as e:  # pragma: no cover - the failure path
                errors.append(e)

        _run_threads(8, work)
        assert errors == []
        for k in range(300):
            assert {id(g[k]) for g in got} == {id(memo.get(k))}

    def test_stays_within_cap_under_contention(self):
        memo = BoundedMemo(16)
        errors = []

        def work(i):
            try:
                for k in range(2000):
                    memo.put((i + k) % 97, k)
                    memo.get(k % 97)
            except Exception as e:  # pragma: no cover - the failure path
                errors.append(e)

        _run_threads(8, work)
        assert errors == [] and len(memo) <= 16
