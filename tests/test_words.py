"""Ball enumeration, word lengths, growth fits."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgrowth.conjugacy import ConjClassKey, class_key, class_lengths, class_modulus
from nilgrowth.errors import BudgetError, SpecError
from nilgrowth.groups import central_element, inverse, make_group_spec, multiply, named_spec
from nilgrowth.words import (
    KEY_LIMIT,
    GeneratingSet,
    KeyCodec,
    _step_set,
    central_growth,
    check_budget,
    cumulative_counts,
    enumerate_ball,
    growth_exponent_fit,
    run_keys,
    standard_generating_set,
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


def _twisted_key(spec, g, kappa):
    m = class_modulus(spec, g[:-1], kappa)
    return ConjClassKey(g[:-1], g[-1] % m if m else g[-1])


def _reference_twisted_lengths(spec, entries, kappa):
    """Least length per key (abel, k mod class_modulus(abel, kappa)), element by element."""
    lengths = {}
    for g, l in entries.items():
        lengths.setdefault(_twisted_key(spec, g, kappa), l)
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


TOP_OF_KEY_RANGE = GeneratingSet(((12013, 0, 0), (0, 12013, 0), (0, 0, 3629657)))
KAPPAS = st.lists(st.integers(-12, 12), min_size=5, max_size=5)  # cut to the spec's dim


@settings(max_examples=60, deadline=None)
@given(_specs_and_gens(), KAPPAS)
@example((named_spec("H1"), GeneratingSet(((2, 1, 3), (0, 1, 0))), 5), [3, -2, 0, 0, 0])
@example((named_spec("H1"), GeneratingSet(standard_generating_set(named_spec("H1")).gens + ((0, 0, 1),)), 4), [0] * 5)
@example((named_spec("HD2"), standard_generating_set(named_spec("HD2")), 4), [1, 0, -4, 6, 0])
# Class modulus 2 * 2 = 4 above the k radix 2 * 1 + 1 of the radius-1 ball.
@example((named_spec("HD2"), GeneratingSet(((0, 0, 2, 0, -1),)), 1), [0, 0, 0, 0, 0])
# An identity generator alone: every sphere past the identity is empty.
@example((make_group_spec(1, 0), GeneratingSet(((0, 0),)), 1), [2, 0, 0, 0, 0])
# Runs that touch across a body boundary must not merge: on Z^2 the radius-2 sphere holds (-1, 2) and (0, -2),
# consecutive keys of bodies -1 and 0 (k radix 5).
@example((make_group_spec(1, 0), GeneratingSet(((1, -1), (0, 1))), 2), [0] * 5)
# Deep balls: many runs per sphere, and residue runs that wrap at the modulus.
@example((named_spec("H1"), standard_generating_set(named_spec("H1")), 10), [-10, -1, 0, 0, 0])
@example((named_spec("H2"), standard_generating_set(named_spec("H2")), 5), [5, 0, -3, 7, 0])
@example((named_spec("HD2"), standard_generating_set(named_spec("HD2")), 5), [0] * 5)
@example((named_spec("ZxH1"), standard_generating_set(named_spec("ZxH1")), 6), [6, 4, -9, 0, 0])
# The top of the key range: the radix product is just below 2^62 (see test_key_overflow_is_a_spec_error), so the
# run ends and the gap ends lo - 1 and hi + 1 of the sphere step run just below 2^62.
@example((named_spec("H1"), TOP_OF_KEY_RANGE, 3), [0] * 5)
def test_engine_matches_dense_reference(case, kappa):
    spec, gens, n = case
    table = enumerate_ball(spec, gens, n)
    ref = _reference_ball(spec, gens, n)
    assert list(table.entries.items()) == sorted(ref.items())  # key order is lexicographic row order
    assert table.sphere_sizes == [list(ref.values()).count(l) for l in range(n + 1)]
    # The runs: each sphere's sorted keys exactly, as maximal runs sorted and disjoint, each inside one body.
    codec = table.codec
    for level, (lo, hi) in enumerate(table.runs):
        sphere = np.array([g for g, l in ref.items() if l == level]).reshape(-1, spec.ncoords)
        sphere = codec.pack_rows(sphere)
        assert run_keys(lo, hi).tolist() == table.keys[table.lengths == level].tolist() == sorted(sphere.tolist())
        assert (lo <= hi).all() and (hi[:-1] < lo[1:]).all()
        assert (codec.split(lo)[0] == codec.split(hi)[0]).all()
        touching = hi[:-1] + 1 == lo[1:]
        assert (codec.split(lo[1:][touching])[0] != codec.split(hi[:-1][touching])[0]).all()
    assert class_lengths(spec, table) == _reference_class_lengths(spec, ref)
    kappa = tuple(kappa[: spec.dim])
    assert class_lengths(spec, table, kappa) == _reference_twisted_lengths(spec, ref, kappa)
    central = [sum(1 for g, l in ref.items() if l <= m and not any(g[:-1])) for m in range(n + 1)]
    assert central_growth(spec, gens, n) == central
    # the row lookup: every ball element at its place in entries; the next sphere is not in the ball,
    # nor is a row past the coordinate bounds that packs to a ball key (one digit carried into the next)
    assert table.index(np.array(sorted(ref))).tolist() == list(range(len(ref)))
    assert table.lengths.tolist() == [l for _, l in sorted(ref.items())]
    outside = list(_reference_ball(spec, gens, n + 1).keys() - ref.keys())
    radices = table.codec.radices
    for p in range(1, spec.ncoords):
        outside += [g[: p - 1] + (g[p - 1] - 1, g[p] + radices[p]) + g[p + 1 :] for g in ref]
    assert (table.index(np.array(outside).reshape(-1, spec.ncoords)) == -1).all()


@settings(max_examples=40, deadline=None)
@given(_specs_and_gens(), st.data())
def test_ball_and_prefix_tables_are_in_key_order(case, data):
    # keys, lengths, coords and entries share one order, increasing key, and index returns positions in it
    spec, gens, big = case
    ball = enumerate_ball(spec, gens, big)
    for table in (ball, ball.prefix(data.draw(st.integers(0, big)))):
        assert (np.diff(table.keys) > 0).all()
        assert table.index(table.coords).tolist() == list(range(len(table.keys)))
        assert table.entries == _reference_ball(spec, gens, table.radius)


@settings(max_examples=60, deadline=None)
@given(_specs_and_gens())
def test_expand_rows_of_a_sorted_sphere_are_sorted(case):
    # The sphere step moves each run whole, from its start alone: right multiplication by a fixed step shifts every
    # key of a body by the same amount, so it keeps key order and a run's end keeps its distance from its start.
    spec, gens, n = case
    table = enumerate_ball(spec, gens, n)
    codec, steps = table.codec, _step_set(spec, gens)
    for lo, hi in table.runs[:-1]:  # products of the last sphere may leave the bounds
        keys = run_keys(lo, hi)
        rows = codec.expand(keys, np.empty((len(steps), len(keys)), dtype=np.int64))
        assert (np.diff(rows, axis=1) > 0).all()
        elements = list(map(tuple, codec.coords(keys).tolist()))
        for row, x in zip(rows, steps):
            assert codec.coords(row).tolist() == [list(multiply(spec, g, x)) for g in elements]
        moved = [codec.expand(ends, np.empty((len(steps), len(lo)), dtype=np.int64)) for ends in (lo, hi)]
        assert (moved[1] - moved[0] == hi - lo).all()


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
        assert (prefix.index(ball.codec.coords(run_keys(*ball.runs[r + 1]))) == -1).all()
    # rows inside the ball's wider codec bounds but past the prefix's own |x_p| bound on one coordinate
    wide, own = np.array(ball.codec.offsets), np.abs(fresh.coords).max(axis=0)
    beyond = []
    for p in np.flatnonzero(own < wide):
        for sign in (1, -1):
            rows = fresh.coords.copy()
            rows[:, p] = sign * (own[p] + 1)
            beyond.append(rows)
    if beyond:
        beyond = np.concatenate(beyond)
        assert (np.abs(beyond) <= wide).all()
        assert (prefix.index(beyond) == -1).all()
    with pytest.raises(SpecError):
        ball.prefix(big + 1)


def test_sizes_central_counts_and_lengths_build_no_keys(monkeypatch, tmp_path):
    # They read the sphere runs alone: no per-element key array is built, through the API or the CLI.
    import nilgrowth.words as words
    from nilgrowth.cli import EXIT_OK, main

    spec = named_spec("HD2")
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, 6)
    sizes = np.bincount(table.lengths).tolist()
    central = [sum(1 for g, l in table.entries.items() if l <= m and not any(g[:-1])) for m in range(7)]

    def refuse(*args):
        raise AssertionError("per-element keys were built")

    monkeypatch.setattr(words, "run_keys", refuse)
    fresh = enumerate_ball(spec, gens, 6)
    assert fresh.sphere_sizes == sizes and fresh.ball_sizes()[-1] == len(table.keys)
    assert central_growth(spec, gens, 6) == central
    assert fresh.prefix(3).ball_sizes() == table.ball_sizes()[:4]
    for argv in (["ball"], ["growth", "--mode", "central"], ["growth", "--mode", "word"]):
        assert main(argv + ["--spec", "HD2", "--radius", "6", "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    with pytest.raises(AssertionError, match="per-element"):
        fresh.keys


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
    # a weight of 2^70: the radius-1 ball's keys fit, but its steps shift k by 2^70 per b_2 digit
    heavy = make_group_spec(0, 2, (2**70,))
    assert enumerate_ball(heavy, standard_generating_set(heavy), 0).ball_sizes() == [1]
    with pytest.raises(SpecError, match="steps of the radius-1 ball do not fit 64-bit keys"):
        enumerate_ball(heavy, standard_generating_set(heavy), 1)
    # just below the limit: the radius-3 ball of TOP_OF_KEY_RANGE is accepted and its keys reach the top of the range
    table = enumerate_ball(spec, TOP_OF_KEY_RANGE, 3)
    assert KEY_LIMIT - 2**28 < table.codec.strides[0] * table.codec.radices[0] < KEY_LIMIT
    assert table.keys.max() > KEY_LIMIT - KEY_LIMIT // 2**16


def test_radius_zero_plans_no_step():
    # a step past int64 is never taken at radius 0, so the identity's ball builds; radius 1 is refused as before
    spec = named_spec("H1")
    huge = GeneratingSet(((2**70, 0, 0),))
    assert enumerate_ball(spec, huge, 0).ball_sizes() == [1]
    with pytest.raises(SpecError, match="64-bit"):
        enumerate_ball(spec, huge, 1)


@st.composite
def _codecs_and_rows(draw):
    """Digit offsets and radices with a radix product below KEY_LIMIT, and int64 rows inside their ranges."""
    radices, room = [], KEY_LIMIT - 1
    for _ in range(draw(st.integers(1, 6))):
        radices.append(draw(st.one_of(st.integers(1, min(room, 9)), st.integers(1, room))))
        room //= radices[-1]
    offsets = [draw(st.integers(0, radix - 1)) for radix in radices]
    row = st.tuples(*(st.integers(-offset, radix - 1 - offset) for offset, radix in zip(offsets, radices)))
    return offsets, radices, draw(st.lists(row, min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(_codecs_and_rows())
def test_key_codec_round_trips_in_row_order(case):
    offsets, radices, rows = case
    codec = KeyCodec(offsets, radices, "test rows")
    array = np.array(rows, dtype=np.int64)
    keys = codec.pack(array)
    assert codec.coords(keys).tolist() == array.tolist()
    assert codec.pack(np.zeros(len(rows[0]), dtype=np.int64)) == codec.identity
    # keys sort as their rows sort lexicographically
    assert [rows[i] for i in np.argsort(keys, kind="stable")] == sorted(rows)
    # the body/last-digit split inverts pack: the digit is the last coordinate's, and two keys share a body
    # exactly when their rows agree on every other coordinate, under any codec with the same body digits
    body, digit = codec.split(keys)
    assert (codec.join(body, digit) == keys).all()
    assert (digit == array[:, -1] + offsets[-1]).all()
    same = body[:, None] == body[None, :]
    assert (same == (array[:, None, :-1] == array[None, :, :-1]).all(axis=-1)).all()
    if codec.strides[0] * radices[0] * 2 < KEY_LIMIT:
        wider = codec.with_last_digit(2 * radices[-1], "test rows")
        assert (wider.split(wider.pack(array))[0] == body).all()
    # the least first radix that takes the product to 2^62 raises the one SpecError, and the largest below fits
    rest = codec.strides[0]
    with pytest.raises(SpecError, match=r"^test rows do not fit 64-bit keys \(radix product \d+ >= 2\^62\)$"):
        KeyCodec(offsets, [-(-KEY_LIMIT // rest)] + radices[1:], "test rows")
    KeyCodec(offsets, [(KEY_LIMIT - 1) // rest] + radices[1:], "test rows")


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


def test_custom_generators_shift_lengths():
    # with T = S + {c}, c has length 1 instead of 4
    spec = named_spec("H1")
    gens_t = GeneratingSet(standard_generating_set(spec).gens + (central_element(spec, 1),))
    table = enumerate_ball(spec, gens_t, 2)
    assert table.entries[central_element(spec, 1)] == 1
    assert table.entries[central_element(spec, 2)] == 2


@pytest.fixture
def sphere_searches(monkeypatch):
    """A list that gets one entry per BFS: words._spheres wrapped to count its runs, on a cleared ball cache."""
    import nilgrowth.words as words

    searches, spheres = [], words._spheres

    def counting(codec, n, cap):
        searches.append((n, cap))
        return spheres(codec, n, cap)

    monkeypatch.setattr(words, "_spheres", counting)
    enumerate_ball.cache_clear()
    yield searches
    enumerate_ball.cache_clear()


def test_repeated_ball_request_equals_a_fresh_search(sphere_searches):
    from nilgrowth.conjugacy import conjugacy_growth_exact

    spec = named_spec("HD2")
    gens = standard_generating_set(spec)
    first = enumerate_ball(spec, gens, 5)
    counts = conjugacy_growth_exact(spec, gens, 5)
    again = enumerate_ball(spec, gens, 5)
    assert len(sphere_searches) == 1 and again is not first
    enumerate_ball.cache_clear()
    fresh = enumerate_ball(spec, gens, 5)
    assert len(sphere_searches) == 2
    for table in (again, fresh):
        assert (table.codec.offsets, table.codec.radices) == (first.codec.offsets, first.codec.radices)
        assert np.array_equal(table.codec.deltas, first.codec.deltas)
        assert len(table.runs) == len(first.runs) == 6
        for (lo, hi), (lo1, hi1) in zip(table.runs, first.runs):
            assert np.array_equal(lo, lo1) and np.array_equal(hi, hi1)
    assert conjugacy_growth_exact(spec, gens, 5) == counts == class_lengths(spec, fresh).counts(5)


def test_held_ball_arrays_are_read_only(sphere_searches):
    spec = named_spec("H1")
    table = enumerate_ball(spec, standard_generating_set(spec), 4)
    lo, hi = table.runs[2]
    for array in (lo, hi, table.codec.deltas, *(corr for *_, corr in table.codec.cross)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1
    # the per-element arrays are the caller's own
    table.keys[0] += 0
    assert enumerate_ball(spec, standard_generating_set(spec), 4).runs[2][0] is lo


def test_lower_budget_misses_the_ball_cache(sphere_searches):
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    with pytest.raises(BudgetError) as cold:
        enumerate_ball(spec, gens, 6, budget=20)
    enumerate_ball.cache_clear()
    assert enumerate_ball(spec, gens, 6).ball_sizes()[-1] > 20
    with pytest.raises(BudgetError) as warm:
        enumerate_ball(spec, gens, 6, budget=20)
    assert (warm.value.needed, warm.value.budget) == (cold.value.needed, cold.value.budget) == (53, 20)
    assert len(sphere_searches) == 3


def test_budget_environment_change_misses_the_ball_cache(sphere_searches, monkeypatch):
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    monkeypatch.setenv("NILGROWTH_BUDGET", "1000")
    enumerate_ball(spec, gens, 3)
    enumerate_ball(spec, gens, 3)
    monkeypatch.setenv("NILGROWTH_BUDGET", "2000")
    enumerate_ball(spec, gens, 3)
    assert sphere_searches == [(3, 1000), (3, 2000)]
