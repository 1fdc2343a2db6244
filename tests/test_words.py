"""Ball enumeration, word lengths, growth fits."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgrowth.conjugacy import class_key, class_lengths
from nilgrowth.errors import BudgetError, SpecError
from nilgrowth.groups import central_element, inverse, make_group_spec, multiply, named_spec
from nilgrowth.words import (
    GeneratingSet,
    bass_guivarch_exponent,
    central_growth,
    check_budget,
    check_generates,
    cumulative_counts,
    enumerate_ball,
    growth_exponent_fit,
    standard_generating_set,
    word_length,
)


@pytest.fixture(scope="module")
def h1_ball12():
    spec = named_spec("H1")
    return spec, enumerate_ball(spec, standard_generating_set(spec), 12)


def test_ball_radius_one():
    spec = named_spec("H1")
    table = enumerate_ball(spec, standard_generating_set(spec), 1)
    assert sorted(table.entries.values()).count(0) == 1
    assert len(table.entries) == 5
    assert set(table.entries) == {(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}


def test_ball_contains_c_at_four(h1_ball12):
    spec, table = h1_ball12
    assert table.entries[central_element(spec, 1)] == 4


def test_ball_monotone(h1_ball12):
    _, table = h1_ball12
    sizes = table.ball_sizes()
    assert sizes[0] == 1
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_bfs_parent_property():
    spec = named_spec("HD2")
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, 4)
    from nilgrowth.groups import inverse

    steps = list(gens.gens) + [inverse(spec, g) for g in gens.gens]
    for g, l in table.entries.items():
        if l == 0:
            continue
        assert any(table.entries.get(multiply(spec, g, x)) == l - 1 for x in steps)


def test_word_length_basics(h1_ball12):
    spec, table = h1_ball12
    gens = standard_generating_set(spec)
    assert word_length(spec, spec.identity(), gens, 5) == 0
    # c^4 via the square spelling: length <= 8
    l8 = word_length(spec, central_element(spec, 4), gens, 8)
    assert l8 is not None and l8 <= 8
    assert l8 == table.entries[central_element(spec, 4)]
    # cutoff exceeded -> None
    assert word_length(spec, (9, 9, 0), gens, 3) is None


def test_length_lower_bound_by_abelian_norm(h1_ball12):
    spec, table = h1_ball12
    for g, l in table.entries.items():
        if l <= 8:
            assert l >= abs(g[0]) + abs(g[1])


def test_central_growth(h1_ball12):
    spec, table = h1_ball12
    gens = standard_generating_set(spec)
    beta = central_growth(spec, gens, 12)
    assert beta[0] == 1
    assert beta[4] >= 3
    assert all(a <= b for a, b in zip(beta, beta[1:]))
    # parity: nonzero c^k needs even length, so beta only grows at even radii
    assert beta[5] == beta[4] and beta[7] == beta[6]


def test_cumulative_counts_inputs():
    for lengths in (np.array([0, 2, 2, 5]), np.array([0, 2, 2, 5], dtype=np.int8), [0, 2, 2, 5], iter((5, 2, 0, 2))):
        counts = cumulative_counts(lengths, 3)
        assert counts == [1, 1, 3, 3] and all(type(c) is int for c in counts)
    assert cumulative_counts({"a": 1}.values(), 2) == [0, 1, 1]
    assert cumulative_counts([], 2) == [0, 0, 0]
    assert cumulative_counts(np.empty(0, dtype=np.int64), -1) == cumulative_counts([3], -1) == []


def test_bass_guivarch():
    assert bass_guivarch_exponent(named_spec("H1")) == 4
    assert bass_guivarch_exponent(make_group_spec(1, 2, (1,))) == 7
    assert bass_guivarch_exponent(named_spec("HD2")) == 6
    assert bass_guivarch_exponent(make_group_spec(3, 0)) == 3


def test_growth_exponent_fit_exact_polynomial():
    values = [0] + [n**4 for n in range(1, 40)]
    assert abs(growth_exponent_fit(values, (10, 30)) - 4.0) < 1e-6


def test_growth_exponent_fit_log_factor():
    values = [0] + [n * n * math.ceil(math.log(n)) for n in range(1, 101)]
    slope = growth_exponent_fit(values, (10, 100))
    assert 2 < slope < 2.5


def test_growth_exponent_fit_errors():
    with pytest.raises(SpecError):
        growth_exponent_fit([1, 2, 3, 4], (1, 2))
    with pytest.raises(SpecError):
        growth_exponent_fit([1, 0, 2, 3, 4], (1, 3))


def test_generating_set_validation():
    with pytest.raises(SpecError):
        GeneratingSet(())
    spec = named_spec("H1")
    with pytest.raises(SpecError):
        enumerate_ball(spec, GeneratingSet(((1, 0),)), 2)


def test_budget_error():
    spec = named_spec("H1")
    with pytest.raises(BudgetError) as info:
        enumerate_ball(spec, standard_generating_set(spec), 6, budget=20)
    assert info.value.budget == 20
    assert info.value.needed > 20


def _reference_ball(spec, gens, n):
    """Dense dict-of-tuples BFS, sphere by sphere, sorted within each sphere: the engine's reference."""
    steps = {h for g in gens.gens for h in (g, inverse(spec, g))} - {spec.identity()}
    entries = {spec.identity(): 0}
    frontier = [spec.identity()]
    for level in range(1, n + 1):
        frontier = sorted({multiply(spec, g, x) for g in frontier for x in steps} - entries.keys())
        entries.update(dict.fromkeys(frontier, level))
    return entries


def _reference_class_lengths(spec, entries):
    lengths = {}
    for g, l in entries.items():
        lengths.setdefault(class_key(spec, g), l)
    return lengths


@st.composite
def _specs_and_gens(draw):
    r = draw(st.integers(0, 2))
    s = draw(st.integers(0 if r else 1, 1))
    delta = (draw(st.integers(1, 3)),) if r == 2 else ()
    spec = make_group_spec(s, r, delta)
    entry = st.integers(-2, 2)
    gens = draw(st.lists(st.tuples(*[entry] * spec.ncoords), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens += list(standard_generating_set(spec).gens)
    return spec, GeneratingSet(tuple(gens)), draw(st.integers(0, 4 if len(gens) <= 3 else 3))


@settings(max_examples=60, deadline=None)
@given(_specs_and_gens())
@example((named_spec("H1"), GeneratingSet(((2, 1, 3), (0, 1, 0))), 5))
@example((named_spec("H1"), GeneratingSet(standard_generating_set(named_spec("H1")).gens + ((0, 0, 1),)), 4))
@example((named_spec("HD2"), standard_generating_set(named_spec("HD2")), 4))
# Class modulus 2 * 2 = 4 above the k radix 2 * 1 + 1 of the radius-1 ball.
@example((named_spec("HD2"), GeneratingSet(((0, 0, 2, 0, -1),)), 1))
def test_engine_matches_dense_reference(case):
    spec, gens, n = case
    table = enumerate_ball(spec, gens, n)
    ref = _reference_ball(spec, gens, n)
    assert list(table.entries.items()) == list(ref.items())
    assert table.sphere_sizes == [list(ref.values()).count(l) for l in range(n + 1)]
    assert class_lengths(spec, table) == _reference_class_lengths(spec, ref)
    central = [sum(1 for g, l in ref.items() if l <= m and not any(g[:-1])) for m in range(n + 1)]
    assert central_growth(spec, gens, n) == central
    for g, l in list(ref.items())[:: max(1, len(ref) // 5)]:
        assert word_length(spec, g, gens, n) == l
    # the row lookup: every ball element at its place in entries; the next sphere is not in the ball,
    # nor is a row past the coordinate bounds that packs to a ball key (one digit carried into the next)
    assert table.index(np.array(list(ref))).tolist() == list(range(len(ref)))
    assert table.lengths.tolist() == list(ref.values())
    outside = list(_reference_ball(spec, gens, n + 1).keys() - ref.keys())
    radices = table.codec.radices
    for p in range(1, spec.ncoords):
        outside += [g[: p - 1] + (g[p - 1] - 1, g[p] + radices[p]) + g[p + 1 :] for g in ref]
    assert (table.index(np.array(outside).reshape(-1, spec.ncoords)) == -1).all()


@settings(max_examples=40, deadline=None)
@given(_specs_and_gens(), st.data())
def test_prefix_matches_fresh_ball(case, data):
    spec, gens, big = case
    r = data.draw(st.integers(0, big))
    ball = enumerate_ball(spec, gens, big)
    prefix, fresh = ball.prefix(r), enumerate_ball(spec, gens, r)
    assert prefix.radius == r and prefix.codec is ball.codec
    assert prefix.sphere_sizes == fresh.sphere_sizes
    assert prefix.coords.tolist() == fresh.coords.tolist()  # same elements in the same order
    assert prefix.lengths.tolist() == fresh.lengths.tolist()
    assert prefix.index(fresh.coords).tolist() == list(range(len(fresh.keys)))
    if r < big:
        assert (prefix.index(ball.codec.coords(ball.spheres[r + 1])) == -1).all()
    with pytest.raises(SpecError):
        ball.prefix(big + 1)


def test_negative_budget_is_refused(monkeypatch):
    spec = named_spec("H1")
    with pytest.raises(SpecError, match="nonnegative"):
        enumerate_ball(spec, standard_generating_set(spec), 3, budget=-1)
    monkeypatch.setenv("NILGROWTH_BUDGET", "-5")
    with pytest.raises(SpecError, match="nonnegative"):
        check_budget(0, None, "anything")
    # a zero budget is a budget: the first sphere passes it
    with pytest.raises(BudgetError) as info:
        enumerate_ball(spec, standard_generating_set(spec), 3, budget=0)
    assert (info.value.needed, info.value.budget) == (5, 0)


def test_key_overflow_is_a_spec_error():
    spec = named_spec("H1")
    huge = GeneratingSet(((10**12, 0, 0), (0, 10**12, 0)))
    with pytest.raises(SpecError, match="64-bit"):
        enumerate_ball(spec, huge, 3)
    with pytest.raises(SpecError, match="64-bit"):
        word_length(spec, (1, 0, 0), huge, 3)


def test_word_length_budget():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    with pytest.raises(BudgetError) as info:
        word_length(spec, (6, 0, 0), gens, 6, budget=20)
    assert (info.value.needed, info.value.budget) == (53, 20)
    # A target found on a sphere is returned without that sphere's budget check.
    assert word_length(spec, (1, 1, 0), gens, 6, budget=5) == 2
    assert word_length(spec, (7, 0, 0), gens, 6, budget=5) is None


def test_generating_set_robustness(h1_ball12):
    # T = S + {c}: beta_T(n) <= beta_S(4n) and beta_S(n) <= beta_T(n).
    spec, table_s = h1_ball12
    gens_t = GeneratingSet(standard_generating_set(spec).gens + (central_element(spec, 1),))
    table_t = enumerate_ball(spec, gens_t, 3)
    sizes_s = table_s.ball_sizes()
    sizes_t = table_t.ball_sizes()
    for n in range(4):
        assert sizes_s[n] <= sizes_t[n]
        assert sizes_t[n] <= sizes_s[4 * n]


def test_relative_growth_parity_translate(h1_ball12):
    # multiplying by a^{+/-1} swaps i-parity and moves length by at most 1
    spec, table = h1_ball12
    even = [0] * (table.radius + 1)
    odd = [0] * (table.radius + 1)
    for g, l in table.entries.items():
        (even if g[0] % 2 == 0 else odd)[l] += 1
    ceven = [sum(even[: m + 1]) for m in range(len(even))]
    codd = [sum(odd[: m + 1]) for m in range(len(odd))]
    for n in range(table.radius):
        assert ceven[n] <= codd[n + 1]
        assert codd[n] <= ceven[n + 1]


def test_check_generates():
    spec = named_spec("H1")
    assert check_generates(spec, standard_generating_set(spec), 1)
    # {a, ab} generates: b = a^-1 (ab) reachable at radius 2
    gens = GeneratingSet(((1, 0, 0), (1, 1, 0)))
    assert check_generates(spec, gens, 2)
    # {a} alone does not generate within any radius
    assert not check_generates(spec, GeneratingSet(((1, 0, 0),)), 6)


def test_custom_generators_shift_lengths():
    # with T = S + {c}, c has length 1 instead of 4
    spec = named_spec("H1")
    gens_t = GeneratingSet(standard_generating_set(spec).gens + (central_element(spec, 1),))
    table = enumerate_ball(spec, gens_t, 2)
    assert table.entries[central_element(spec, 1)] == 1
    assert table.entries[central_element(spec, 2)] == 2
