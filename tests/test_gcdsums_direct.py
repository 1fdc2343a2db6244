"""The direct gcd-sum engine's closed last axis, its max-norm cube pass, its blocks and its exact Python-int fallback."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgrowth import gcdsums
from nilgrowth.errors import BudgetError
from nilgrowth.gcdsums import LatticeBallSpec, cube_gcd_sums, gcd_sum, l1_gcd_sums
from test_gcdsums import brute_gcd_sum


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).map(tuple)))
@example((0,))
@example((4,))
@example((0, -3))
@example((2, -1, 3))
def test_l1_offset_sequence_matches_bruteforce(offset):
    # the last axis is closed into every norm u + c at once, so check every radius, not just the last
    dim = len(offset)
    assert l1_gcd_sums(dim, 6, offset) == [brute_gcd_sum(dim, n, "l1", offset) for n in range(7)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).map(tuple)))
@example((0,))
@example((-9,))
@example((0, 0))
@example((3, -5))
@example((2, -1, 3))
def test_cube_sequence_matches_bruteforce_and_sieve(offset):
    # one pass takes the max of the axis costs, so every exact max-norm is a row; check every radius
    dim = len(offset)
    radius = 6 if dim < 3 else 4
    sums = cube_gcd_sums(dim, radius, offset)
    assert sums == [brute_gcd_sum(dim, n, "cube", offset) for n in range(radius + 1)]
    assert sums == [gcd_sum(LatticeBallSpec(dim, n, "cube", offset), method="sieve") for n in range(radius + 1)]


def test_cube_sequence_refuses_histograms_past_the_budget():
    # (N + 1) x width cells: a far offset widens every row, though one box of that radius fits
    ball = LatticeBallSpec(1, 200, "cube", (10**6,))
    assert gcd_sum(ball) == gcd_sum(ball, method="sieve")
    with pytest.raises(BudgetError) as exc:
        cube_gcd_sums(1, 200, (10**6,))
    assert exc.value.needed == 201 * (10**6 + 201)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_small_blocks_match_bruteforce(monkeypatch, block):
    # tiny blocks split the fold's gcd tables, the rows of R and the closing's used-radius runs across blocks
    monkeypatch.setattr(gcdsums, "FOLD_BLOCK", block)
    for offset in [(4,), (3, -2), (1, 0, -2)]:
        dim = len(offset)
        assert l1_gcd_sums(dim, 5, offset) == [brute_gcd_sum(dim, n, "l1", offset) for n in range(6)]
        assert gcd_sum(LatticeBallSpec(dim, 3, "cube", offset)) == brute_gcd_sum(dim, 3, "cube", offset)
        assert cube_gcd_sums(dim, 3, offset) == [brute_gcd_sum(dim, n, "cube", offset) for n in range(4)]


def test_sparse_histograms_over_many_blocks_match_sieve():
    # a dim-2 histogram after one fold is one state per gcd; these radii take several blocks at the default size
    assert l1_gcd_sums(2, 200) == l1_gcd_sums(2, 200, method="sieve")
    for dim, n in [(2, 300), (3, 60)]:
        ball = LatticeBallSpec(dim, n, "cube", (5,) + (0,) * (dim - 1))
        assert gcd_sum(ball) == gcd_sum(ball, method="sieve")


def test_direct_python_int_fallback():
    # 3^39 points of gcd at most 3: points * (width - 1) passes 2^63, so the contraction runs in Python ints
    ball = LatticeBallSpec(39, 1, "cube", (2,) + (0,) * 38)
    assert 3**39 * 3 >= 2**63
    assert gcd_sum(ball, budget=10**30) == gcd_sum(ball, budget=10**30, method="sieve")
