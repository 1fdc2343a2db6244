"""Tests for automorphisms, twisted conjugacy, extensions, and integer linear algebra."""
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilgrowth
from nilgrowth.autos import (
    Automorphism,
    _conjugator_maps,
    _twisted_partition,
    apply_automorphism,
    apply_automorphism_array,
    automorphism_from_json_dict,
    automorphism_order,
    automorphism_power,
    check_in_M,
    compose_automorphisms,
    extension_conjugacy_growth,
    identity_automorphism,
    inverse_automorphism,
    make_automorphism,
    swap_automorphism,
    twisted_growth_bruteforce,
    twisted_growth_structural,
    verify_automorphism,
)
from nilgrowth.conjugacy import (
    class_lengths,
    class_modulus,
    conjugacy_growth_exact,
    conjugacy_growth_oracle,
    merge_conjugates,
    new_labels,
    part_lengths,
)
from nilgrowth.errors import BudgetError, SpecError, StructuralError
from nilgrowth.gcdsums import LatticeBallSpec, gcd_sum
from nilgrowth.groups import abelianize, affine_maps, inverse_array, make_group_spec, named_spec, standard_generators
from nilgrowth.intlinalg import (
    hermite_normal_form,
    hnf_reduce,
    identity_matrix,
    mat_inverse,
    mat_mul,
)
from nilgrowth.verify import check_twisted_cosets
from nilgrowth.words import GeneratingSet, _step_set, cumulative_counts, enumerate_ball, standard_generating_set

from test_groups import _magnitudes
from test_words import _specs_and_gens

H1 = named_spec("H1")
HD2 = named_spec("HD2")
GENS1 = standard_generating_set(H1)


def test_check_in_m():
    assert check_in_M(H1, ((1, 0), (0, 1))) == 1
    assert check_in_M(H1, ((0, 1), (1, 0))) == -1
    assert check_in_M(H1, ((-1, 0), (0, -1))) == 1
    assert check_in_M(H1, ((1, 1), (0, 1))) == 1
    assert check_in_M(H1, ((2, 0), (0, 1))) is None
    with pytest.raises(SpecError):
        check_in_M(H1, ((1, 0, 0), (0, 1, 0)))


def test_check_in_m_weighted():
    # swapping within each pair negates every weighted block
    sw = swap_automorphism(HD2)
    assert sw.eps == -1
    # scaling one pair breaks the form
    assert check_in_M(HD2, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))) is None


def test_make_automorphism_validation():
    with pytest.raises(SpecError):
        make_automorphism(H1, ((2, 0), (0, 1)))
    with pytest.raises(SpecError):
        make_automorphism(H1, ((1, 0), (0, 1)), (1,))
    with pytest.raises(SpecError):
        swap_automorphism(named_spec("ZxH1"))


def test_apply_examples():
    a, b = standard_generators(H1)
    f = make_automorphism(H1, ((1, 0), (0, 1)), (1, 0))
    assert apply_automorphism(H1, f, a) == (1, 0, 1)
    assert apply_automorphism(H1, f, b) == (0, 1, 0)
    assert apply_automorphism(H1, f, (0, 0, 1)) == (0, 0, 1)
    neg = make_automorphism(H1, ((-1, 0), (0, -1)))
    assert apply_automorphism(H1, neg, a) == (-1, 0, 0)
    assert apply_automorphism(H1, neg, (1, 2, 3)) == (-1, -2, 3)  # image already ordered
    rot = make_automorphism(H1, ((0, 1), (-1, 0)))
    # f(ab) = b a^-1 = a^-1 b c: reordering creates a central correction
    assert apply_automorphism(H1, rot, (1, 1, 0)) == (-1, 1, 1)
    ident = identity_automorphism(H1)
    assert apply_automorphism(H1, ident, (4, -3, 7)) == (4, -3, 7)


def test_verify_battery():
    cases = [
        (H1, identity_automorphism(H1)),
        (H1, swap_automorphism(H1)),
        (H1, make_automorphism(H1, ((-1, 0), (0, -1)), (2, -1))),
        (H1, make_automorphism(H1, ((1, 1), (0, 1)), (3, -2))),
        (HD2, swap_automorphism(HD2)),
        (HD2, identity_automorphism(HD2)),
        (named_spec("H2"), swap_automorphism(named_spec("H2"))),
        # images past int64: the fuzz runs on exact Python ints
        (H1, make_automorphism(H1, ((1, 2**40), (0, 1)), (2**70, -1))),
    ]
    for spec, f in cases:
        assert verify_automorphism(spec, f, trials=200).ok


def test_verify_rejects_broken():
    # hand-built object with a wrong sign is caught
    bad = Automorphism(m=((1, 0), (0, 1)), kappa=(0, 0), eps=-1, images=((1, 0, 0), (0, 1, 0)))
    with pytest.raises(StructuralError, match="relators_ok=False"):
        verify_automorphism(H1, bad, trials=10)
    # b -> b^-1 with c -> c is no homomorphism: the fuzz fails
    flip = Automorphism(m=((1, 0), (0, -1)), kappa=(0, 0), eps=1, images=((1, 0, 0), (0, -1, 0)))
    with pytest.raises(StructuralError, match="homomorphism_ok=False"):
        verify_automorphism(H1, flip, trials=10)
    # H2 with M = I but a2 -> a2 b1: [f(a1), f(a2)] = [a1, a2 b1] = c, where the relator needs 1
    images = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 0))
    bent = Automorphism(m=identity_matrix(4), kappa=(0,) * 4, eps=1, images=images)
    with pytest.raises(StructuralError, match="relators_ok=False"):
        verify_automorphism(named_spec("H2"), bent, trials=10)


def _matrix(spec, kind):
    """identity, -I, swap (a_t <-> b_t) or shear (a_t -> a_t b_t) on every pair, identity on the z slots."""
    m = [[int(p == q) * (-1 if kind == "-I" else 1) for q in range(spec.dim)] for p in range(spec.dim)]
    for t in range(spec.r):
        a = spec.s + 2 * t
        if kind == "swap":
            m[a][a], m[a][a + 1], m[a + 1][a], m[a + 1][a + 1] = 0, 1, 1, 0
        elif kind == "shear":
            m[a][a + 1] = 1
    return m


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["H1", "H2", "H3", "ZxH1", "HD2"]),
    st.sampled_from(["identity", "-I", "swap", "shear"]),
    st.booleans(),
    st.data(),
)
def test_apply_array_matches_tuple_law(name, kind, big, data):
    spec = named_spec(name)
    # int64 rows at either scale: big shifts pass int64, and the images are exact Python ints exactly where an entry
    # reaches 2^62 (no entry of these draws lies within 12 of 2^62, so the bounds are tight here)
    scale = 2**70 if big else 1
    kappa = data.draw(st.lists(st.integers(-5, 5).map(lambda x: x * scale), min_size=spec.dim, max_size=spec.dim))
    f = make_automorphism(spec, _matrix(spec, kind), kappa)
    rows = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * spec.ncoords), min_size=1, max_size=8))
    got = apply_automorphism_array(spec, f, np.array(rows, dtype=np.int64))
    assert (got.dtype == object) == any(abs(x) >= 2**62 for row in got.tolist() for x in row)
    assert got.tolist() == [list(apply_automorphism(spec, f, g)) for g in rows]


def test_apply_array_adds_eps_k_without_wrapping():
    # the image of a^(2^31 - 1) has k = 2^62 - 2^31 and fits int64; adding the row's k = 2^62 + 2^31 reaches 2^63
    f = make_automorphism(H1, ((1, 0), (0, 1)), (2**31, 0))
    row = (2**31 - 1, 0, 2**62 + 2**31)
    got = apply_automorphism_array(H1, f, np.array([row], dtype=np.int64))
    assert got.tolist() == [list(apply_automorphism(H1, f, row))] == [[2**31 - 1, 0, 2**63]]


@settings(max_examples=150, deadline=None)
@given(
    _magnitudes(20).map(lambda d: make_group_spec(0, 2, (max(abs(d), 1),))),
    st.sampled_from(["identity", "-I", "swap", "shear"]),
    st.data(),
)
def test_apply_array_is_exact_across_the_int64_switch(spec, kind, data):
    # kappa and row entries of every size up to 2^32 under a weight up to 2^20: images on both sides of 2^62, from
    # the same rows given as int64 and as object arrays
    kappa = data.draw(st.lists(_magnitudes(32), min_size=spec.dim, max_size=spec.dim))
    f = make_automorphism(spec, _matrix(spec, kind), kappa)
    rows = data.draw(st.lists(st.tuples(*[_magnitudes(32)] * spec.ncoords), min_size=1, max_size=4))
    want = [list(apply_automorphism(spec, f, g)) for g in rows]
    for dtype in (np.int64, object):
        got = apply_automorphism_array(spec, f, np.array(rows, dtype=dtype))
        assert got.tolist() == want
        assert got.dtype == object or all(abs(x) < 2**62 for x in got.ravel().tolist())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["H1", "H2", "H3", "ZxH1", "HD2"]),
    st.sampled_from(["identity", "-I", "swap", "shear"]),
    st.sampled_from([1, 2**70]),
    st.data(),
)
def test_inverse_by_composition(name, kind, scale, data):
    spec = named_spec(name)
    kappa = data.draw(st.lists(st.integers(-5, 5).map(lambda x: x * scale), min_size=spec.dim, max_size=spec.dim))
    f = make_automorphism(spec, _matrix(spec, kind), kappa)
    finv = inverse_automorphism(spec, f)
    for x in standard_generators(spec):
        assert apply_automorphism(spec, finv, apply_automorphism(spec, f, x)) == x
        assert apply_automorphism(spec, f, apply_automorphism(spec, finv, x)) == x
    comp = compose_automorphisms(spec, f, finv)
    assert comp.m == identity_matrix(spec.dim) and comp.kappa == (0,) * spec.dim


def test_inverse_outside_the_matrix_group_is_structural():
    # a hand-built H2 object whose matrix b1 <-> a2 is unimodular but pairs a1 with a2 and b1 with b2
    m = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    bad = Automorphism(m=m, kappa=(0,) * 4, eps=1, images=tuple(row + (0,) for row in m))
    with pytest.raises(StructuralError, match="inverse matrix left the matrix group"):
        inverse_automorphism(named_spec("H2"), bad)


def test_inverse_round_trip():
    rng = random.Random(5)
    f = make_automorphism(H1, ((1, 1), (0, 1)), (3, -2))
    finv = inverse_automorphism(H1, f)
    for _ in range(200):
        g = tuple(rng.randint(-8, 8) for _ in range(3))
        assert apply_automorphism(H1, finv, apply_automorphism(H1, f, g)) == g
        assert apply_automorphism(H1, f, apply_automorphism(H1, finv, g)) == g


def test_orders():
    assert automorphism_order(H1, identity_automorphism(H1)) == 1
    assert automorphism_order(H1, swap_automorphism(H1)) == 2
    assert automorphism_order(H1, make_automorphism(H1, ((-1, 0), (0, -1)))) == 2
    assert automorphism_order(H1, make_automorphism(H1, ((1, 1), (0, 1)))) is None
    # rotation by the symplectic form: a -> b -> a^-1 has order 4
    rot = make_automorphism(H1, ((0, 1), (-1, 0)))
    assert automorphism_order(H1, rot) == 4


def test_compose_and_power():
    f = make_automorphism(H1, ((1, 1), (0, 1)), (3, -2))
    finv = inverse_automorphism(H1, f)
    comp = compose_automorphisms(H1, f, finv)
    assert comp.m == identity_matrix(2) and comp.kappa == (0, 0)
    sq = automorphism_power(H1, f, 2)
    g = (2, -3, 4)
    assert apply_automorphism(H1, sq, g) == apply_automorphism(H1, f, apply_automorphism(H1, f, g))


def test_gamma_linear_for_identity_matrix():
    f = make_automorphism(H1, identity_matrix(2), (4, -7))
    rng = random.Random(9)
    for _ in range(100):
        v = (rng.randint(-10, 10), rng.randint(-10, 10))
        assert apply_automorphism(H1, f, v + (0,))[-1] == 4 * v[0] - 7 * v[1]


def test_twisted_identity_matches_conjugacy():
    res = twisted_growth_bruteforce(H1, GENS1, identity_automorphism(H1), 6)
    assert res.counts == conjugacy_growth_exact(H1, GENS1, 6)
    assert res.stable


def test_structural_matches_bruteforce():
    f = make_automorphism(H1, identity_matrix(2), (1, 0))
    res = twisted_growth_bruteforce(H1, GENS1, f, 6)
    assert res.stable
    assert twisted_growth_structural(H1, f, 6, gens=GENS1) == res.counts
    # kappa = 0 reduces to the ordinary class count
    f0 = identity_automorphism(H1)
    assert twisted_growth_structural(H1, f0, 6, gens=GENS1) == conjugacy_growth_exact(H1, GENS1, 6)


def test_structural_rejects_nonidentity_matrix():
    with pytest.raises(SpecError):
        twisted_growth_structural(H1, swap_automorphism(H1), 4, gens=GENS1)
    with pytest.raises(TypeError):
        twisted_growth_structural(H1, identity_automorphism(H1), 4)  # gens is required


def test_twisted_modulus():
    fk = make_automorphism(H1, identity_matrix(2), (1, 0))
    assert class_modulus(H1, (0, 0), fk.kappa) == 1
    assert class_modulus(H1, (2, 4), fk.kappa) == 1  # (4+1, -2)
    f0 = identity_automorphism(H1)
    assert class_modulus(H1, (2, 4), f0.kappa) == 2
    assert class_modulus(H1, (0, 0), f0.kappa) == 0


def test_twisted_modulus_offset_sum_equals_shifted_gcd_sum():
    # summing the twisted modulus over a cube is a shifted gcd sum: the form
    # is a signed permutation of the cube, so only the offset moves
    fk = make_automorphism(H1, identity_matrix(2), (3, -5))
    n = 15
    total = sum(
        class_modulus(H1, (i, j), fk.kappa) for i in range(-n, n + 1) for j in range(-n, n + 1)
    )
    # Omega(i,j) = (j,-i); as (i,j) runs over the cube so does (j,-i)
    shifted = gcd_sum(LatticeBallSpec(dim=2, radius=n, norm="cube", offset=(3, -5)))
    assert total == shifted


def test_wide_conjugator_ball_matches_structural():
    # The Bezout vectors of Omega v + kappa outrun the default conjugator radius here.
    zxh1 = named_spec("ZxH1")
    gens = standard_generating_set(zxh1)
    f = make_automorphism(zxh1, identity_matrix(3), (3, -1, 2))
    res = twisted_growth_bruteforce(zxh1, gens, f, 3, conjugator_radius=15)
    assert res.counts == twisted_growth_structural(zxh1, f, 3, gens=gens) == [1, 7, 26, 70]
    assert res.stable


def test_default_conjugator_radius_miscounts_kappa_6_8():
    # Under (I, (6, 8)) the body v = (-1, 1) has g(v) = gcd(7, 9) = 1 and holds k = 0 and 1, so its two keys are one
    # class; the shortest conjugator that shifts k by +-1 is (4, -3), of length 7.  Radius n + 2 = 4 misses it, and
    # so does the recheck at 6; radius 8 reaches it and agrees with the structural count.
    f = make_automorphism(H1, identity_matrix(2), (6, 8))
    short = twisted_growth_bruteforce(H1, GENS1, f, 2)
    assert short.conjugator_radius == 4
    assert (short.first_pass_counts, short.counts, short.stable) == ([1, 5, 16], [1, 5, 15], False)
    wide = twisted_growth_bruteforce(H1, GENS1, f, 2, conjugator_radius=8)
    assert (wide.first_pass_counts, wide.counts, wide.stable) == ([1, 5, 14], [1, 5, 14], True)
    assert twisted_growth_structural(H1, f, 2, gens=GENS1) == wide.counts
    assert class_lengths(H1, enumerate_ball(H1, GENS1, 2), (6, 8)).counts(2) == wide.counts


def test_bruteforce_exact_past_int64():
    # a shift far past the ball's k range merges nothing along a, however large it is
    for m, order in (((1, 0), (0, 1)), None), (((-1, 0), (0, -1)), 2):
        big, small = (make_automorphism(H1, m, (k, 3)) for k in (2**70, 1000))
        brute = [twisted_growth_bruteforce(H1, GENS1, f, 3).counts for f in (big, small)]
        assert brute[0] == brute[1]
        if order:
            ext = [extension_conjugacy_growth(H1, GENS1, f, order, 3) for f in (big, small)]
            assert ext[0] == ext[1]
    # a matrix entry far past the ball's a range: the reflection b -> a^x b^-1 (eps = -1, order 2) and the shear
    cases = (((0, -1), (0, 0), [1, 4, 10, 19], [1, 5, 15, 32]), ((0, 1), (5, 0), [1, 5, 13, 33], None))
    for row, kappa, want, ext_want in cases:
        big, small = (make_automorphism(H1, ((1, x), row), kappa) for x in (2**70, 1000))
        brute = [twisted_growth_bruteforce(H1, GENS1, f, 3) for f in (big, small)]
        assert [(res.counts, res.stable) for res in brute] == [(want, True)] * 2
        if ext_want:
            assert [extension_conjugacy_growth(H1, GENS1, f, 2, 3) for f in (big, small)] == [ext_want] * 2


def test_verify_leaves_numpy_random_unimported():
    # numpy does not import numpy.random, and its first import costs ~6 MB of RSS; the fuzz draws without it
    code = (
        "import sys, nilgrowth\n"
        "spec = nilgrowth.named_spec('H1')\n"
        "assert nilgrowth.verify_automorphism(spec, nilgrowth.swap_automorphism(spec), 2000).ok\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nilgrowth.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_ball_and_conjugator_ball_share_one_budget():
    # n = 3: the counted ball (53 elements) is the prefix of the radius-7 conjugator ball (1069), charged once
    with pytest.raises(BudgetError) as info:
        twisted_growth_bruteforce(H1, GENS1, swap_automorphism(H1), 3, conjugator_radius=5, budget=1068)
    assert (info.value.needed, info.value.budget) == (1069, 1068)
    assert twisted_growth_bruteforce(H1, GENS1, swap_automorphism(H1), 3, conjugator_radius=5, budget=1069).stable
    # every coset of the extension counts on prefixes of one radius-5 ball (299 elements)
    with pytest.raises(BudgetError) as info:
        extension_conjugacy_growth(H1, GENS1, swap_automorphism(H1), 2, 3, budget=298)
    assert (info.value.needed, info.value.budget) == (299, 298)


def _on_every_pair(spec, block, kappa=None):
    """The automorphism acting by the 2x2 block on every (a_t, b_t) pair and fixing the z slots."""
    m = [[int(p == q) for q in range(spec.dim)] for p in range(spec.dim)]
    for t in range(spec.r):
        a = spec.s + 2 * t
        for i in range(2):
            for j in range(2):
                m[a + i][a + j] = block[i][j]
    return make_automorphism(spec, m, kappa)


BLOCKS = {"I": ((1, 0), (0, 1)), "-I": ((-1, 0), (0, -1)), "swap": ((0, 1), (1, 0)), "shear": ((1, 1), (0, 1))}
KAPPA = st.lists(st.integers(-3, 3) | st.integers(-(2**70), 2**70), min_size=5, max_size=5)  # cut to the spec's dim


def _map_rows(maps):
    """Each (shift, c, lin) map as one tuple of exact ints."""
    shift, c, lin = (m.tolist() for m in maps)
    return [(*s, k, *row) for s, k, row in zip(shift, c, lin)]


@settings(max_examples=60, deadline=None)
@given(_specs_and_gens(), st.sampled_from(sorted(BLOCKS)), KAPPA)
@example((HD2, standard_generating_set(HD2), 3), "swap", [2**70, -1, 0, 3, 0])
# c = [a, b] has length 4: the identity body holds c^-1, 1 and c, of which c alone is kept under eps = -1.
@example((H1, GENS1, 4), "swap", [0, 0, 0, 0, 0])
@example((H1, GENS1, 4), "shear", [1, -2, 0, 0, 0])
def test_conjugator_maps_are_read_off_their_bodies(case, block, kappa):
    # The kept maps are affine_maps(f(x), x^-1) for the x above the identity, in key order, which hold one of each
    # pair {x, x^-1} of the other conjugators.  Under eps = -1 one map per such x, at its length; under eps = +1 one
    # per body v > 0 (every x = (v, j) has the map of (v, 0)), at the body's least length.
    spec, gens, n = case
    f = _on_every_pair(spec, BLOCKS[block], kappa[: spec.dim])
    conj = enumerate_ball(spec, gens, n)
    maps, lengths = _conjugator_maps(f, conj)
    x = conj.coords.astype(object)
    exact = _map_rows(affine_maps(spec, apply_automorphism_array(spec, f, x), inverse_array(spec, x)))
    e = spec.identity()
    kept = [g > e for g in conj.entries]
    positive = {g for g, keep in zip(conj.entries, kept) if keep}
    inverses = set(map(spec.inv, positive))
    assert positive.isdisjoint(inverses) and positive | inverses == set(conj.entries) - {e}
    if f.eps == 1:
        body = [g[:-1] for g in conj.entries]
        least = {}
        for v, length in zip(body, conj.lengths.tolist()):
            least[v] = min(least.get(v, length), length)
        rows = [i for i, v in enumerate(body) if v > e[:-1] and v != body[i - 1]]  # the first x of each body v > 0
        assert lengths.tolist() == [least[body[i]] for i in rows]
    else:
        rows = np.flatnonzero(kept)
        assert lengths.tolist() == conj.lengths[rows].tolist()
    assert _map_rows(maps) == [exact[i] for i in rows]


@settings(max_examples=60, deadline=None)
@given(_specs_and_gens(), st.sampled_from(sorted(BLOCKS)), KAPPA)
@example((HD2, standard_generating_set(HD2), 4), "swap", [2**70, -1, 0, 3, 0])
# Steps listed with their inverses: the step set holds both, and one of each is merged.
@example((H1, GeneratingSet(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 1))), 3), "shear", [0, 0, 0, 0, 0])
# A central generator: c^j has length |j|, and its pair {c^j, c^-j} is one body under eps = +1.
@example((H1, GeneratingSet(((1, 0, 0), (0, 1, 0), (0, 0, 1))), 4), "I", [2, -3, 0, 0, 0])
@example((H1, GeneratingSet(((1, 0, 0), (0, 1, 0), (0, 0, 1))), 4), "swap", [2, -3, 0, 0, 0])
# c = [a, b] has length 4: the second pass's conjugators hold c^j, merged under eps = -1 by h -> h c^-2j.
@example((H1, GENS1, 4), "swap", [0, 0, 0, 0, 0])
@example((H1, GENS1, 4), "-I", [1, 1, 0, 0, 0])
def test_halved_maps_merge_as_every_conjugator(case, block, kappa):
    # One of each pair {x, x^-1} gives the labels of merging every conjugator: the oracle's counts over its step set
    # and both passes of the twisted partition, conjugators up to length n - 2 and n over the (n - 2)-ball.
    spec, gens, n = case
    f = _on_every_pair(spec, BLOCKS[block], kappa[: spec.dim])
    ball = enumerate_ball(spec, gens, max(n, 2))
    m = max(n - 2, 0)
    table = ball.prefix(m)
    label = new_labels(len(ball.keys))
    steps = np.array(_step_set(spec, gens), dtype=object).reshape(-1, spec.ncoords)
    merge_conjugates(spec, ball, label, affine_maps(spec, steps, inverse_array(spec, steps)))
    assert conjugacy_growth_oracle(spec, gens, m) == cumulative_counts(part_lengths(label, ball.lengths), m)
    radii = (m, n)
    try:
        halved = [label.copy() for label in _twisted_partition(f, ball, table, radii)]
    except SpecError:
        halved = [None, None]  # every conjugator's maps hold the halved ones, so their merges refuse too
    for r, got in zip(radii, halved):
        x = ball.prefix(r).coords.astype(object)
        label = new_labels(len(table.keys))
        maps = affine_maps(spec, apply_automorphism_array(spec, f, x), inverse_array(spec, x))
        try:
            merge_conjugates(spec, table, label, maps)
        except SpecError:
            continue  # the halved maps may fit 64-bit keys where every conjugator's do not
        assert got is not None and got.tolist() == label.tolist()


@pytest.mark.parametrize("spec", [H1, HD2], ids=["H1", "HD2"])
def test_first_pass_is_the_smaller_conjugator_ball(spec):
    # the first pass merges only the conjugators of length <= R: a whole run at R gives the same counts
    gens = standard_generating_set(spec)
    autos = [
        swap_automorphism(spec),
        _on_every_pair(spec, ((-1, 0), (0, -1))),
        _on_every_pair(spec, ((1, 1), (0, 1))),
        _on_every_pair(spec, ((1, 0), (0, 1)), (6, 8) * spec.r),
    ]
    unstable = 0
    for f in autos:
        for n in (2, 3):
            for radius in (n, n + 2):
                res = twisted_growth_bruteforce(spec, gens, f, n, conjugator_radius=radius)
                smaller = twisted_growth_bruteforce(spec, gens, f, n, conjugator_radius=radius - 2)
                assert res.first_pass_counts == smaller.counts
                unstable += not res.stable
    # a first pass over the whole (R + 2)-ball would report every one of these stable
    assert unstable


def test_swap_counts_on_h2_and_hd2():
    for name, counts in (("H2", [1, 5, 13, 25]), ("HD2", [1, 5, 13, 29])):
        spec = named_spec(name)
        res = twisted_growth_bruteforce(spec, standard_generating_set(spec), swap_automorphism(spec), 3)
        assert (res.counts, res.first_pass_counts, res.stable) == (counts, counts, True)
    res = twisted_growth_bruteforce(HD2, standard_generating_set(HD2), swap_automorphism(HD2), 3, conjugator_radius=3)
    assert (res.counts, res.first_pass_counts, res.stable) == ([1, 5, 13, 29], [1, 5, 13, 31], False)


def test_one_conjugator_ball_per_count(monkeypatch):
    import nilgrowth.autos

    radii = []
    enumerate_ball = nilgrowth.autos.enumerate_ball

    def counting(spec, gens, n, budget=None):
        radii.append(n)
        return enumerate_ball(spec, gens, n, budget=budget)

    monkeypatch.setattr(nilgrowth.autos, "enumerate_ball", counting)
    twisted_growth_bruteforce(H1, GENS1, swap_automorphism(H1), 3)
    assert radii == [7]  # the recheck's conjugator ball; its prefixes are the counted ball and the first pass
    radii.clear()
    extension_conjugacy_growth(H1, GENS1, swap_automorphism(H1), 2, 3)
    assert radii == [5]  # one (n + 2)-ball serves every coset


def test_twisted_class_respects_m_minus_i_coset():
    # members of one twisted class project into a single coset of the row
    # span of M - I in the abelianization (verify's twisted_counts runs this at its own radius)
    for f in (swap_automorphism(H1), make_automorphism(H1, ((-1, 0), (0, -1)))):
        res = twisted_growth_bruteforce(H1, GENS1, f, 5)
        check_twisted_cosets(f, res.table, res.label)


def test_twisted_count_comparability():
    # twisted counts are bounded by a linear-in-scale multiple of ordinary counts
    exact12 = conjugacy_growth_exact(H1, GENS1, 12)
    res = twisted_growth_bruteforce(H1, GENS1, swap_automorphism(H1), 4)
    for m in range(5):
        assert res.counts[m] <= 3 * exact12[3 * m] + 3


def test_extension_trivial_twist():
    ext = extension_conjugacy_growth(H1, GENS1, identity_automorphism(H1), 2, 8)
    ch = conjugacy_growth_exact(H1, GENS1, 8)
    assert ext == [ch[m] + (ch[m - 1] if m else 0) for m in range(9)]
    assert extension_conjugacy_growth(H1, GENS1, identity_automorphism(H1), 1, 6) == conjugacy_growth_exact(
        H1, GENS1, 6
    )


def test_extension_swap_ratio():
    ext = extension_conjugacy_growth(H1, GENS1, swap_automorphism(H1), 2, 8)
    ch = conjugacy_growth_exact(H1, GENS1, 8)
    assert ext[0] == 1
    for m in range(1, 9):
        assert ch[m] / 6 <= ext[m] <= 6 * ch[m]


def test_extension_rejects_wrong_order():
    with pytest.raises(SpecError):
        extension_conjugacy_growth(H1, GENS1, swap_automorphism(H1), 3, 4)
    with pytest.raises(SpecError):
        extension_conjugacy_growth(H1, GENS1, identity_automorphism(H1), 0, 4)


def test_automorphism_json_round_trip():
    f = make_automorphism(H1, ((0, 1), (1, 0)), (2, -3))
    g = automorphism_from_json_dict(H1, f.to_json_dict())
    assert g.m == f.m and g.kappa == f.kappa and g.eps == f.eps
    with pytest.raises(SpecError):
        automorphism_from_json_dict(H1, {"kappa": [1, 0]})
    # a misspelt key was once ignored, so {"M": I, "kapa": ...} read as the identity
    with pytest.raises(SpecError, match=r"unknown keys \['kapa'\]"):
        automorphism_from_json_dict(H1, {"M": [[1, 0], [0, 1]], "kapa": [6, 8]})


@pytest.mark.parametrize("m, kappa", [([[True, False], [False, True]], [False, True]), ([[1, 0], [0, 1]], [0, True])])
def test_automorphism_refuses_booleans(m, kappa):
    # operator.index(True) == 1, so these once read as (I, (0, 1)); the one integer check refuses them
    with pytest.raises(SpecError, match="must be integers"):
        make_automorphism(H1, m, kappa)
    with pytest.raises(SpecError, match="must be integers"):
        automorphism_from_json_dict(H1, {"M": m, "kappa": kappa})


def test_theta_compatibility():
    # abelianized images transform by the matrix: ab(f(g)) = ab(g) M
    rng = random.Random(11)
    f = make_automorphism(H1, ((1, 1), (0, 1)), (3, -2))
    for _ in range(100):
        g = tuple(rng.randint(-8, 8) for _ in range(3))
        img = apply_automorphism(H1, f, g)
        v = abelianize(H1, g)
        assert abelianize(H1, img) == tuple(
            sum(v[p] * f.m[p][q] for p in range(2)) for q in range(2)
        )


# --- integer linear algebra ---


def test_mat_inverse():
    m = ((1, 1), (0, 1))
    assert mat_inverse(m) == ((1, -1), (0, 1))
    assert mat_mul(m, mat_inverse(m)) == identity_matrix(2)
    with pytest.raises(SpecError):
        mat_inverse(((1, 2), (2, 4)))
    with pytest.raises(SpecError):
        mat_inverse(((2, 0), (0, 1)))


def test_hnf():
    assert hermite_normal_form(((2, 4), (3, 5))) == ((1, 1), (0, 2))
    assert hermite_normal_form(((2, 0), (0, 3))) == ((2, 0), (0, 3))
    assert hermite_normal_form(((-4, -6),)) == ((4, 6),)
    assert hermite_normal_form(((1, 2), (2, 4))) == ((1, 2),)


def test_hnf_reduce_canonical():
    hnf = hermite_normal_form(((2, 0), (0, 3)))
    rng = random.Random(3)
    for _ in range(100):
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        shift = (rng.randint(-5, 5), rng.randint(-5, 5))
        w = (v[0] + 2 * shift[0], v[1] + 3 * shift[1])
        assert hnf_reduce(hnf, v) == hnf_reduce(hnf, w)
    assert hnf_reduce(hnf, (7, -8)) == (1, 1)
    assert hnf_reduce((), (7, -8)) == (7, -8)


@pytest.mark.parametrize("name, kappa", [("H1", (6, 8)), ("H1", (3, -2)), ("ZxH1", (2, 5, -3))])
def test_eps_plus_one_conjugators_keep_each_body_at_its_least_length(name, kappa):
    # Under eps = +1 the brute force merges one conjugator per abelian body; both of its passes must equal the merge
    # over every conjugator of the same length prefixes.  A body's length is its least over the body, which is not
    # the length of its smallest-k element.
    spec = named_spec(name)
    gens = standard_generating_set(spec)
    f = make_automorphism(spec, identity_matrix(spec.dim), kappa)
    n, radius = 3, 2
    res = twisted_growth_bruteforce(spec, gens, f, n, conjugator_radius=radius)
    ball = enumerate_ball(spec, gens, radius + 2)
    table = ball.prefix(n)
    for r, counts in ((radius, res.first_pass_counts), (radius + 2, res.counts)):
        x = ball.prefix(r).coords
        label = new_labels(len(table.keys))
        maps = affine_maps(spec, apply_automorphism_array(spec, f, x), inverse_array(spec, x))
        merge_conjugates(spec, table, label, maps)
        assert cumulative_counts(part_lengths(label, table.lengths), n) == counts
