"""Core arithmetic oracles: presentation relators, associativity, frozen examples."""
from __future__ import annotations

import pickle
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgrowth.conjugacy import class_key, class_modulus
from nilgrowth.errors import SpecError
from nilgrowth.groups import (
    NAMED_SPECS,
    SMALL_ARRAY,
    abelianize,
    affine_maps,
    canonical_lift,
    central_element,
    check_element,
    commutator,
    commutator_form,
    conjugate,
    element_from_json_dict,
    element_to_json_dict,
    inverse,
    inverse_array,
    is_central,
    make_group_spec,
    multiply,
    multiply_array,
    named_spec,
    omega_apply,
    omega_form,
    power,
    power_array,
    spec_from_json_dict,
    standard_generators,
)

ALL_NAMED = ["H1", "H2", "H3", "ZxH1", "HD2"]


def rand_element(rng, spec, lim=9):
    return tuple(rng.randint(-lim, lim) for _ in range(spec.ncoords))


def ref_multiply(spec, g, h):
    """The loop law the generated kernels replace, kept as their reference: coordinates add, k takes the cross terms."""
    check_element(spec, g)
    check_element(spec, h)
    s = spec.s
    out = [x + y for x, y in zip(g, h)]
    k = g[-1] + h[-1]
    for t, w in enumerate(spec.weights):
        k -= w * g[s + 2 * t + 1] * h[s + 2 * t]
    out[-1] = k
    return tuple(out)


def ref_inverse(spec, g):
    """The loop inverse the generated kernels replace."""
    check_element(spec, g)
    s = spec.s
    out = [-x for x in g]
    k = -g[-1]
    for t, w in enumerate(spec.weights):
        k -= w * g[s + 2 * t] * g[s + 2 * t + 1]
    out[-1] = k
    return tuple(out)


def test_spec_validation():
    assert make_group_spec(0, 1).weights == (1,)
    assert make_group_spec(0, 2, (2,)).weights == (1, 2)
    assert make_group_spec(1, 3, (2, 6)).weights == (1, 2, 6)
    assert make_group_spec(2, 0).dim == 2
    with pytest.raises(SpecError):
        make_group_spec(0, 0)
    with pytest.raises(SpecError):
        make_group_spec(0, 2, ())  # missing delta entry
    with pytest.raises(SpecError):
        make_group_spec(0, 3, (2, 3))  # 2 does not divide 3
    with pytest.raises(SpecError):
        make_group_spec(0, 2, (0,))
    with pytest.raises(SpecError):
        make_group_spec(-1, 1)


@pytest.mark.parametrize("args", [(0, 2, [2.5]), (0, 1.0), ("1", 1)])
def test_spec_refuses_non_integers(args):
    # a float weight would give a non-integral k; a float r a float ncoords
    with pytest.raises(SpecError, match="must be integers"):
        make_group_spec(*args)


@pytest.mark.parametrize(
    "payload", [{"s": True, "r": 1, "delta": []}, {"s": 0, "r": 2, "delta": [True]}, {"s": 0, "r": np.True_, "delta": []}]
)
def test_spec_refuses_booleans(payload):
    # operator.index(True) == 1, so a JSON true once read as s = 1; the one integer check refuses it
    with pytest.raises(SpecError, match="must be integers"):
        spec_from_json_dict(payload)
    with pytest.raises(SpecError, match="must be integers"):
        make_group_spec(payload["s"], payload["r"], payload["delta"])


def test_spec_stores_exact_ints():
    spec = make_group_spec(np.int64(1), np.int64(2), [np.int64(3)])
    assert spec == make_group_spec(1, 2, (3,))
    assert all(type(x) is int for x in (spec.s, spec.r, *spec.delta, *spec.weights))


def test_spec_kernels_stay_out_of_identity():
    # repr, equality, hashing and pickling see only (s, r, delta)
    spec = named_spec("HD2")
    assert repr(spec) == "GroupSpec(s=0, r=2, delta=(2,), weights=(1, 2))"
    twin = make_group_spec(0, 2, (2,))
    assert spec == twin and hash(spec) == hash(twin) and spec.mul is not twin.mul
    assert spec.to_json_dict() == {"s": 0, "r": 2, "delta": [2]}
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy.mul((0, 1, 0, 0, 0), (1, 0, 0, 0, 0)) == (1, 1, 0, 0, -1)


def test_law_code_is_shared_per_s_r():
    # the code is compiled once per (s, r); each spec runs it with its own weights and names its own ncoords
    h2, hd2 = named_spec("H2"), make_group_spec(0, 2, (2,))
    assert h2.mul.__code__ is hd2.mul.__code__ and h2.inv.__code__ is hd2.inv.__code__
    assert h2.mul.__globals__["spec"] is h2 and hd2.inv.__globals__["spec"] is hd2
    b2, a2 = (0, 0, 0, 1, 0), (0, 0, 1, 0, 0)
    assert h2.mul(b2, a2) == (0, 0, 1, 1, -1) and hd2.mul(b2, a2) == (0, 0, 1, 1, -2)
    for spec in (h2, hd2, named_spec("H1"), make_group_spec(1, 2, (2,))):
        message = f"element has 2 coordinates, spec needs {spec.ncoords}"
        for call in (lambda: spec.mul((1, 2), spec.identity()), lambda: spec.inv((1, 2))):
            with pytest.raises(SpecError) as err:
                call()
            assert str(err.value) == message


def test_named_specs():
    assert named_spec("H1").dim == 2
    assert named_spec("H2").weights == (1, 1)
    assert named_spec("HD2").weights == (1, 2)
    assert named_spec("ZxH1").s == 1
    with pytest.raises(SpecError):
        named_spec("H99")


def test_multiply_heisenberg_example():
    # H1: (i,j,k) = (1,2,0) times (3,1,0) has k = 0 + 0 - 2*3 = -6.
    spec = named_spec("H1")
    assert multiply(spec, (1, 2, 0), (3, 1, 0)) == (4, 3, -6)


def test_multiply_weighted_example():
    # H_(2): weight 2 on the second pair; pure t=2 product picks up -2*1*1.
    spec = named_spec("HD2")
    g = (0, 0, 0, 1, 0)  # b_2
    h = (0, 0, 1, 0, 0)  # a_2
    assert multiply(spec, g, h) == (0, 0, 1, 1, -2)
    # weight 1 on the first pair
    assert multiply(spec, (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)) == (1, 1, 0, 0, -1)


def test_multiply_identity_and_mismatch():
    spec = named_spec("H2")
    e = spec.identity()
    g = (1, -2, 3, 0, 7)
    assert multiply(spec, e, g) == g
    assert multiply(spec, g, e) == g
    with pytest.raises(SpecError):
        multiply(spec, g, (1, 2, 3))
    with pytest.raises(SpecError):
        check_element(named_spec("H1"), g)


def test_inverse_roundtrip_exhaustive_small():
    spec = named_spec("H1")
    e = spec.identity()
    for i in range(-3, 4):
        for j in range(-3, 4):
            for k in range(-3, 4):
                g = (i, j, k)
                assert multiply(spec, g, inverse(spec, g)) == e
                assert multiply(spec, inverse(spec, g), g) == e


def test_inverse_roundtrip_fuzz():
    rng = random.Random(11)
    for name in ALL_NAMED:
        spec = named_spec(name)
        e = spec.identity()
        for _ in range(300):
            g = rand_element(rng, spec)
            assert multiply(spec, g, inverse(spec, g)) == e
            assert multiply(spec, inverse(spec, g), g) == e


def test_associativity_fuzz():
    rng = random.Random(7)
    for name in ALL_NAMED:
        spec = named_spec(name)
        for _ in range(500):
            g, h, f = (rand_element(rng, spec) for _ in range(3))
            assert multiply(spec, multiply(spec, g, h), f) == multiply(spec, g, multiply(spec, h, f))


def test_relator_suite():
    # [a_t, b_t] = c^{w_t}; all other generator pairs commute; z and c central.
    for name in ALL_NAMED:
        spec = named_spec(name)
        gens = standard_generators(spec)
        s = spec.s
        for t, w in enumerate(spec.weights):
            a_t, b_t = gens[s + 2 * t], gens[s + 2 * t + 1]
            assert commutator(spec, a_t, b_t) == central_element(spec, w)
            for u in range(spec.r):
                if u == t:
                    continue
                a_u, b_u = gens[s + 2 * u], gens[s + 2 * u + 1]
                e = spec.identity()
                assert commutator(spec, a_t, a_u) == e
                assert commutator(spec, a_t, b_u) == e
                assert commutator(spec, b_t, b_u) == e
        rng = random.Random(3)
        for _ in range(50):
            g = rand_element(rng, spec)
            assert commutator(spec, g, central_element(spec, rng.randint(-5, 5))) == spec.identity()
            for zpos in range(s):
                assert commutator(spec, g, gens[zpos]) == spec.identity()


def test_relator_check_covers_the_z_slots():
    import nilgrowth.verify as verify
    from nilgrowth.errors import StructuralError

    spec = named_spec("ZxH1")
    verify.check_relators(spec)
    law = spec.mul

    def z_before_a(g, h):
        # z a picks up a c that a z does not, so [z, a] = c; every Heisenberg relator still holds
        out = law(g, h)
        return out[:-1] + (out[-1] + g[0] * h[1],)

    object.__setattr__(spec, "mul", z_before_a)  # a fresh spec, so no other test sees the patch
    with pytest.raises(StructuralError, match=r"\(0, 1\)"):
        verify.check_relators(spec)


def test_power_matches_repeated_multiply():
    rng = random.Random(19)
    for name in ALL_NAMED:
        spec = named_spec(name)
        for _ in range(60):
            g = rand_element(rng, spec, lim=5)
            acc = spec.identity()
            for m in range(0, 7):
                assert power(spec, g, m) == acc
                assert power(spec, g, -m) == inverse(spec, acc)
                acc = multiply(spec, acc, g)


def test_commutator_equals_form():
    rng = random.Random(23)
    for name in ALL_NAMED:
        spec = named_spec(name)
        for _ in range(200):
            g, h = rand_element(rng, spec), rand_element(rng, spec)
            com = commutator(spec, g, h)
            assert is_central(spec, com)
            assert com == central_element(spec, commutator_form(spec, abelianize(spec, g), abelianize(spec, h)))


def test_commutator_form_examples():
    # H1: (2,4) vs (3,1): 2*1 - 4*3 = -10.
    spec = named_spec("H1")
    assert commutator_form(spec, (2, 4), (3, 1)) == -10
    # weighted: H_(2) pairs ((1,0),(0,0)) vs ((0,0),(0,1)) decouple; t=2 block carries weight 2.
    spec2 = named_spec("HD2")
    assert commutator_form(spec2, (0, 0, 1, 0), (0, 0, 0, 1)) == 2
    assert commutator_form(spec2, (1, 0, 0, 0), (0, 1, 0, 0)) == 1


def test_commutator_form_bilinear_skew():
    rng = random.Random(5)
    spec = named_spec("HD2")
    for _ in range(200):
        u = tuple(rng.randint(-9, 9) for _ in range(spec.dim))
        v = tuple(rng.randint(-9, 9) for _ in range(spec.dim))
        w = tuple(rng.randint(-9, 9) for _ in range(spec.dim))
        lam = rng.randint(-4, 4)
        assert commutator_form(spec, u, v) == -commutator_form(spec, v, u)
        uv = tuple(x + lam * y for x, y in zip(u, v))
        assert commutator_form(spec, uv, w) == commutator_form(spec, u, w) + lam * commutator_form(spec, v, w)


def test_conjugate_example():
    # H1: a (2,4,7) a^-1 shifts k by +j = 4.
    spec = named_spec("H1")
    a = (1, 0, 0)
    assert conjugate(spec, a, (2, 4, 7)) == (2, 4, 11)


def test_conjugate_is_central_shift():
    # x g x^-1 = g c^{xbar Omega gbar^T} for all elements, both weighted and not.
    rng = random.Random(37)
    for name in ALL_NAMED:
        spec = named_spec(name)
        for _ in range(200):
            x, g = rand_element(rng, spec), rand_element(rng, spec)
            shift = commutator_form(spec, abelianize(spec, x), abelianize(spec, g))
            expect = g[:-1] + (g[-1] + shift,)
            assert conjugate(spec, x, g) == expect


def test_abelianize_lift():
    spec = named_spec("HD2")
    rng = random.Random(41)
    for _ in range(100):
        g, h = rand_element(rng, spec), rand_element(rng, spec)
        assert abelianize(spec, multiply(spec, g, h)) == tuple(
            x + y for x, y in zip(abelianize(spec, g), abelianize(spec, h))
        )
    v = (3, -1, 2, 5)
    assert abelianize(spec, canonical_lift(spec, v)) == v
    with pytest.raises(SpecError):
        canonical_lift(spec, (1, 2, 3))


def test_omega_form_matrix():
    spec = make_group_spec(1, 2, (3,))
    mat = omega_form(spec)
    assert len(mat) == 5
    assert mat[0] == (0, 0, 0, 0, 0)
    assert mat[1][2] == 1 and mat[2][1] == -1
    assert mat[3][4] == 3 and mat[4][3] == -3
    # commutator_form agrees with the explicit matrix product
    rng = random.Random(2)
    for _ in range(100):
        u = tuple(rng.randint(-6, 6) for _ in range(5))
        v = tuple(rng.randint(-6, 6) for _ in range(5))
        quad = sum(u[p] * mat[p][q] * v[q] for p in range(5) for q in range(5))
        assert commutator_form(spec, u, v) == quad
        assert quad == sum(x * y for x, y in zip(u, omega_apply(spec, v)))


def test_central_pairing_gcd():
    # the central pairing gcd is class_modulus with no shift
    spec = named_spec("HD2")
    assert class_modulus(spec, (0, 0, 1, 0)) == 2
    assert class_modulus(spec, (2, 4, 0, 0)) == 2
    assert class_modulus(spec, (0, 0, 0, 0)) == 0
    assert class_modulus(spec, (3, 0, 1, 0)) == 1
    zspec = make_group_spec(2, 0)
    assert class_modulus(zspec, (5, 7)) == 0
    # it is the gcd of the pairings commutator_form(e_i, v) over the basis
    basis = [tuple(int(i == j) for j in range(spec.dim)) for i in range(spec.dim)]
    for v in [(0, 0, 1, 0), (2, 4, 0, 0), (3, 0, 1, 0), (6, -4, 2, 8)]:
        assert class_modulus(spec, v) == gcd(*(commutator_form(spec, e, v) for e in basis))


@st.composite
def _specs(draw):
    """A valid (s, r, D): s + r > 0 and each delta divides the next."""
    r = draw(st.integers(0, 3))
    s = draw(st.integers(0 if r else 1, 2))
    delta = []
    for _ in range(max(r - 1, 0)):
        delta.append((delta[-1] if delta else 1) * draw(st.integers(1, 3)))
    return make_group_spec(s, r, delta)


@settings(max_examples=150, deadline=None)
@given(_specs(), st.data())
def test_group_law_on_random_specs(spec, data):
    element = st.tuples(*[st.integers(-20, 20)] * spec.ncoords)
    g, h, x = (data.draw(element) for _ in range(3))
    a, b = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    assert multiply(spec, multiply(spec, g, h), x) == multiply(spec, g, multiply(spec, h, x))
    assert multiply(spec, g, inverse(spec, g)) == spec.identity()
    assert power(spec, g, a + b) == multiply(spec, power(spec, g, a), power(spec, g, b))
    assert class_key(spec, conjugate(spec, x, g)) == class_key(spec, g)


@settings(max_examples=150, deadline=None)
@given(_specs(), st.integers(1, 6), st.booleans(), st.data())
def test_array_law_matches_tuple_law(spec, rows, big, data):
    # big entries pass int64, so the arrays hold exact Python ints
    scale, dtype = (2**70, object) if big else (1, np.int64)
    element = st.tuples(*[st.integers(-20, 20).map(lambda x: x * scale)] * spec.ncoords)
    g, h = (data.draw(st.lists(element, min_size=rows, max_size=rows)) for _ in range(2))
    m = data.draw(st.lists(st.integers(-6, 6), min_size=rows, max_size=rows))
    ga, ha = np.array(g, dtype=dtype), np.array(h, dtype=dtype)
    assert multiply_array(spec, ga, ha).tolist() == [list(multiply(spec, x, y)) for x, y in zip(g, h)]
    assert multiply_array(spec, ga[0], ha).tolist() == [list(multiply(spec, g[0], y)) for y in h]
    assert inverse_array(spec, ga).tolist() == [list(inverse(spec, x)) for x in g]
    assert power_array(spec, ga, np.array(m)).tolist() == [list(power(spec, x, e)) for x, e in zip(g, m)]
    assert power_array(spec, ga[0], np.array(m)).tolist() == [list(power(spec, g[0], e)) for e in m]


@settings(max_examples=100, deadline=None)
@given(_specs(), st.integers(1, 4), st.booleans(), st.data())
def test_affine_maps_match_tuple_products(spec, rows, big, data):
    # left h right has body body(h) + shift and k = c + lin @ h; big entries pass int64, so the rows are exact ints
    entry = st.one_of(st.integers(-20, 20), st.sampled_from([2**70, -(2**70)])) if big else st.integers(-20, 20)
    dtype = object if big else np.int64
    element = st.tuples(*[entry] * spec.ncoords)
    left, right = (data.draw(st.lists(element, min_size=rows, max_size=rows)) for _ in range(2))
    hs = data.draw(st.lists(element, min_size=1, max_size=4))
    shift, c, lin = affine_maps(spec, np.array(left, dtype=dtype), np.array(right, dtype=dtype))
    assert shift.shape == (rows, spec.ncoords - 1) and c.shape == (rows,) and lin.shape == (rows, spec.ncoords)
    for u, v, du, cu, lu in zip(left, right, shift.tolist(), c.tolist(), lin.tolist()):
        assert lu[-1] == 1 and all(type(x) is int for x in du + [cu] + lu)
        for h in hs:
            image = multiply(spec, multiply(spec, u, h), v)
            assert list(image[:-1]) == [x + d for x, d in zip(h, du)]
            assert image[-1] == cu + sum(a * x for a, x in zip(lu, h))
    # a left row of one element broadcasts over the right rows
    one = affine_maps(spec, spec.identity(), np.array(right, dtype=object))
    assert [x.tolist() for x in one] == [x.tolist() for x in affine_maps(spec, [spec.identity()] * rows, right)]


def test_int64_rows_past_the_limit_do_not_wrap():
    # int64 rows whose results pass int64 are computed in exact ints, not wrapped mod 2^64
    spec = named_spec("H1")
    g, h = np.array([(0, 2**32, 0)], dtype=np.int64), np.array([(2**32, 0, 0)], dtype=np.int64)
    assert multiply_array(spec, g, h).tolist() == [list(multiply(spec, (0, 2**32, 0), (2**32, 0, 0)))]
    assert multiply(spec, (0, 2**32, 0), (2**32, 0, 0))[-1] == -(2**64)
    x = (2**32, 2**32, 0)
    assert inverse_array(spec, np.array([x], dtype=np.int64)).tolist() == [list(inverse(spec, x))]
    assert inverse(spec, x)[-1] == -(2**64)
    # m = 2^12 gives k = -(2^63 - 2^51), inside int64 but past 2^62; m = -2^12 gives -(2^63 + 2^51), past int64
    x = (2**20, 2**20, 0)
    for m in (2**12, -(2**12)):
        assert power_array(spec, np.array([x], dtype=np.int64), np.array([m])).tolist() == [list(power(spec, x, m))]
        assert power_array(spec, np.array(x, dtype=np.int64), m).dtype == object


def _of_size(b, signs=(1, -1)):
    """Integers of the given signs between 2^(b-1) and 2^b in size (0 or 1 for b = 0), a size not left to shrinking."""
    return st.integers(2**b // 2, 2**b).flatmap(lambda v: st.sampled_from([sign * v for sign in signs]))


def _magnitudes(bits):
    """Integers of every size up to 2^bits: a bit length first, then a value of that size."""
    return st.integers(0, bits).flatmap(_of_size)


@st.composite
def _wide_cases(draw):
    """H_D with D = (d,), d up to 2^20, and 1-4 rows g, h and exponents m whose results land on both sides of 2^62.

    The entries of a case share one size, up to 2^32, and its exponents one
    size, up to 2^12, so a product of two entries is near its bound's X Y.
    Each takes either sign or one sign only, so a largest |entry| read off
    the wrong end is too small.  Some cases tile their rows SMALL_ARRAY + 1
    times, so that top_entry reads g, h and m with numpy's max and min, not
    as a sorted list.
    """
    spec = make_group_spec(0, 2, (draw(_magnitudes(20).map(lambda d: max(abs(d), 1))),))
    rows, copies = draw(st.integers(1, 4)), draw(st.sampled_from((1, SMALL_ARRAY + 1)))
    signs = st.sampled_from(((1, -1), (1,), (-1,)))
    entry, exponent = (_of_size(draw(st.integers(0, bits)), draw(signs)) for bits in (32, 12))
    g, h = (draw(st.lists(st.tuples(*[entry] * spec.ncoords), min_size=rows, max_size=rows)) for _ in range(2))
    m = draw(st.lists(exponent, min_size=rows, max_size=rows))
    return spec, g * copies, h * copies, m * copies


def _exact_on_both_sides(results, want):
    """Results from int64 and from object inputs: equal lists, equal to want, and int64 only below 2^62."""
    for out in results:
        assert out.tolist() == want
        assert out.dtype == object or all(abs(x) < 2**62 for x in out.ravel().tolist())


@settings(max_examples=300, deadline=None)
@given(_wide_cases())
def test_array_law_is_exact_across_the_int64_switch(case):
    spec, g, h, m = case
    inputs = [tuple(np.array(rows, dtype=dtype) for rows in (g, h, m)) for dtype in (np.int64, object)]
    products = [multiply(spec, x, y) for x, y in zip(g, h)]
    _exact_on_both_sides([multiply_array(spec, ga, ha) for ga, ha, _ in inputs], list(map(list, products)))
    _exact_on_both_sides([inverse_array(spec, ga) for ga, _, _ in inputs], [list(inverse(spec, x)) for x in g])
    powers = [list(power(spec, x, e)) for x, e in zip(g, m)]
    _exact_on_both_sides([power_array(spec, ga, ma) for ga, _, ma in inputs], powers)
    # affine_maps: shift and c of g h, and lin_p = k(g e_p h) - c, per row
    maps = [affine_maps(spec, ga, ha) for ga, ha, _ in inputs]
    units = standard_generators(spec) + (central_element(spec, 1),)
    _exact_on_both_sides([shift for shift, _, _ in maps], [list(p[:-1]) for p in products])
    _exact_on_both_sides([c for _, c, _ in maps], [p[-1] for p in products])
    lins = [[multiply(spec, multiply(spec, x, e), y)[-1] - p[-1] for e in units] for x, y, p in zip(g, h, products)]
    _exact_on_both_sides([lin for _, _, lin in maps], lins)


def test_standard_generators():
    spec = make_group_spec(1, 2, (2,))
    gens = standard_generators(spec)
    assert len(gens) == 5
    assert gens[0] == (1, 0, 0, 0, 0, 0)
    assert gens[4] == (0, 0, 0, 0, 1, 0)


def test_element_json_roundtrip():
    spec = named_spec("HD2")
    g = (2, -1, 0, 5, -7)
    payload = element_to_json_dict(spec, g)
    assert payload == {"z": [], "ab": [[2, -1], [0, 5]], "k": -7}
    assert element_from_json_dict(spec, payload) == g
    zspec = make_group_spec(1, 1)
    h = (4, 1, -2, 9)
    assert element_from_json_dict(zspec, element_to_json_dict(zspec, h)) == h
    with pytest.raises(SpecError):
        element_from_json_dict(spec, {"z": [1], "ab": [], "k": 0})
    # non-integral numbers are refused, not truncated
    for bad in ({"z": [], "ab": [[2, -1], [0, 5]], "k": 1.5}, {"z": [], "ab": [[2.0, -1], [0, 5]], "k": 1}):
        with pytest.raises(SpecError):
            element_from_json_dict(spec, bad)
    # and booleans are not read as 0 and 1
    for on, bad in ((spec, {"z": [], "ab": [[2, -1], [0, 5]], "k": True}), (zspec, {"z": [False], "ab": [[4, 1]], "k": 9})):
        with pytest.raises(SpecError, match="must be integers"):
            element_from_json_dict(on, bad)


_COORD = st.one_of(st.integers(-20, 20), st.integers(2**63, 2**80), st.integers(-(2**80), -(2**63)))


@settings(max_examples=200, deadline=None)
@given(_specs(), st.booleans(), st.data())
def test_kernels_match_reference_law(spec, as_list, data):
    # coordinates past 2^63 stay exact Python ints; lists go in, tuples come out
    g, h = (data.draw(st.tuples(*[_COORD] * spec.ncoords)) for _ in range(2))
    gi, hi = (list(g), list(h)) if as_list else (g, h)
    product, inv = multiply(spec, gi, hi), inverse(spec, gi)
    assert type(product) is tuple and type(inv) is tuple
    assert product == ref_multiply(spec, g, h)
    assert inv == ref_inverse(spec, g)
    assert conjugate(spec, gi, hi) == ref_multiply(spec, ref_multiply(spec, g, h), ref_inverse(spec, g))
    expect = ref_multiply(spec, ref_multiply(spec, ref_multiply(spec, g, h), ref_inverse(spec, g)), ref_inverse(spec, h))
    assert commutator(spec, gi, hi) == expect
    # a wrong-length element raises the message check_element always gave, in either slot
    n = data.draw(st.integers(0, spec.ncoords + 2).filter(lambda m: m != spec.ncoords))
    bad = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    bad = bad if as_list else tuple(bad)
    message = f"element has {n} coordinates, spec needs {spec.ncoords}"
    for call in (
        lambda: multiply(spec, bad, g),
        lambda: multiply(spec, g, bad),
        lambda: inverse(spec, bad),
        lambda: conjugate(spec, g, bad),
        lambda: commutator(spec, bad, h),
    ):
        with pytest.raises(SpecError) as err:
            call()
        assert str(err.value) == message


def test_kernels_on_3000_pairs():
    # k as one expression over 3000 pairs overflows the compiler's recursion limit; one statement per pair does not
    spec = make_group_spec(0, 3000, [2 ** (t // 1000) for t in range(2999)])
    rng = random.Random(13)
    for _ in range(3):
        g, h = rand_element(rng, spec), rand_element(rng, spec)
        assert multiply(spec, g, h) == ref_multiply(spec, g, h)
        assert inverse(spec, g) == ref_inverse(spec, g)
        assert commutator(spec, g, h) == central_element(
            spec, commutator_form(spec, abelianize(spec, g), abelianize(spec, h))
        )


def test_group_law_check_compares_array_and_tuple_routes(monkeypatch):
    import nilgrowth.verify as verify
    from nilgrowth.errors import StructuralError

    # weights past int64 move the sampled rows, int64 ones included, to object arrays of exact ints
    for spec in (named_spec("ZxH1"), make_group_spec(1, 2, (2**70,))):
        verify.check_group_law(spec, trials=40)

    def off_by_one_on(dtype, law):
        # broken where the guard picked dtype only, so each pass must reach its own side of the guard
        def broken(spec, *rows):
            out = law(spec, *rows)
            if out.dtype == dtype:
                out[-1, -1] += 1
            return out

        return broken

    for name, law, message in (
        ("multiply_array", multiply_array, "array and tuple products differ"),
        ("inverse_array", inverse_array, "array and tuple inverses differ"),
        ("power_array", power_array, "array and tuple powers differ"),
    ):
        for dtype, rows in ((np.int64, "int64 rows"), (object, r"rows scaled by 2\^31")):
            for spec_name in NAMED_SPECS:
                with monkeypatch.context() as patch:
                    patch.setattr(verify, name, off_by_one_on(dtype, law))
                    with pytest.raises(StructuralError, match=f"{message} on {rows}"):
                        verify.check_group_law(named_spec(spec_name), trials=40)
