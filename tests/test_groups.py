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
    abelianize,
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

    # weights past int64 put the sampled rows on object arrays of exact ints
    for spec in (named_spec("ZxH1"), make_group_spec(1, 2, (2**70,))):
        verify.check_group_law(spec, trials=40)

    def off_by_one(law):
        def broken(spec, *rows):
            out = law(spec, *rows)
            out[-1, -1] += 1
            return out

        return broken

    for name, law, message in (
        ("multiply_array", multiply_array, "array and tuple products differ"),
        ("inverse_array", inverse_array, "array and tuple inverses differ"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, off_by_one(law))
            with pytest.raises(StructuralError, match=message):
                verify.check_group_law(named_spec("H2"), trials=40)
