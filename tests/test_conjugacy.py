"""Class keys vs orbit closure, sandwich bounds, windows, embeddings, products."""
from __future__ import annotations

import random
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgrowth.autos import make_automorphism, twisted_growth_bruteforce, twisted_growth_structural
from nilgrowth.conjugacy import (
    CENTRAL_EXACT_RADIUS,
    ConjClassKey,
    central_ball_window,
    class_key,
    class_lengths,
    class_modulus,
    colinear_commute_check,
    conjugacy_growth_bounds,
    conjugacy_growth_exact,
    conjugacy_growth_oracle,
    conjugacy_length_window_check,
    direct_product_inequality_check,
    hd_embeddings,
    merge_parts,
    new_labels,
    part_lengths,
    subgroup_domination_report,
)
from nilgrowth.errors import BudgetError, SpecError
from nilgrowth.gcdsums import l1_gcd_sums
from nilgrowth.groups import central_element, conjugate, make_group_spec, named_spec
from nilgrowth.intlinalg import identity_matrix
from nilgrowth.words import central_growth, cumulative_counts, enumerate_ball, standard_generating_set


def test_class_modulus_examples():
    h1 = named_spec("H1")
    assert class_modulus(h1, (2, 4)) == 2
    assert class_modulus(h1, (0, 0)) == 0
    hd2 = named_spec("HD2")
    assert class_modulus(hd2, (0, 0, 1, 0)) == 2
    assert class_modulus(hd2, (2, 4, 0, 0)) == 2
    assert class_modulus(hd2, (0, 0, 0, 0)) == 0
    assert class_modulus(hd2, (3, 0, 1, 0)) == 1
    zxh1 = named_spec("ZxH1")
    # z-coordinates contribute nothing
    assert class_modulus(zxh1, (7, 2, 4)) == 2
    assert class_modulus(zxh1, (7, 0, 0)) == 0
    # with a shift, a z slot contributes |kappa_z|
    assert class_modulus(zxh1, (7, 0, 0), (6, 0, 0)) == 6
    assert class_modulus(zxh1, (7, 2, 4), (3, 0, 0)) == 1
    # r = 0: the form vanishes
    assert class_modulus(make_group_spec(2, 0), (5, 7)) == 0
    with pytest.raises(SpecError):
        class_modulus(h1, (1, 0), (1, 0, 0))


def test_class_modulus_is_orbit_gcd_bruteforce():
    # the key modulus equals the step set of k under conjugation by a ball of elements
    spec = named_spec("HD2")
    table = enumerate_ball(spec, standard_generating_set(spec), 6)
    g = (0, 0, 1, 0, 0)  # a_2
    shifts = set()
    for x in table.entries:
        shifts.add(conjugate(spec, x, g)[-1])
    nonzero = sorted(abs(v) for v in shifts if v)
    assert nonzero[0] == class_modulus(spec, (0, 0, 1, 0)) == 2


def _twisted_key(spec, g, kappa):
    m = class_modulus(spec, g[:-1], kappa)
    return ConjClassKey(g[:-1], g[-1] % m if m else g[-1])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["H1", "ZxH1", "HD2"]), st.integers(0, 3), st.lists(st.integers(-12, 12), min_size=4, max_size=4))
# The modulus gcd(-10, -2) = 10 at abel (-1, 0) passes the k digit (radix 5) of the radius-2 ball.
@example("H1", 2, [-10, -1, 0, 0])
@example("ZxH1", 3, [-6, 4, 9, 0])
def test_class_lengths_with_kappa_match_elementwise_keys(name, radius, kappa):
    spec = named_spec(name)
    radius = min(radius, 2) if name == "HD2" else radius
    kappa = tuple(kappa[: spec.dim])
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, radius)
    lengths = class_lengths(spec, table, kappa)
    reference = {}
    for g, l in table.entries.items():
        reference.setdefault(_twisted_key(spec, g, kappa), l)
    assert lengths == reference
    # The brute force merges only through its conjugator ball, so its parts always refine the keys
    # and it can only count more.  On H1 a ball of radius radius + max|kappa| closes every key
    # (checked for all kappa in [-12, 12]^2 and radius <= 3); larger groups keep the default ball.
    counts = cumulative_counts(lengths.values(), radius)
    f = make_automorphism(spec, identity_matrix(spec.dim), kappa)
    wide = radius + max(map(abs, kappa)) if name == "H1" else None
    brute = twisted_growth_bruteforce(spec, gens, f, radius, conjugator_radius=wide)
    keys_per_part = {}
    for g, root in brute.part_of.items():
        keys_per_part.setdefault(root, set()).add(_twisted_key(spec, g, kappa))
    assert all(len(keys) == 1 for keys in keys_per_part.values())
    assert all(c <= b for c, b in zip(counts, brute.counts))
    if wide is not None:
        assert counts == brute.counts


@st.composite
def _class_table_cases(draw):
    r = draw(st.integers(0, 2))
    s = draw(st.integers(0 if r else 1, 1))
    spec = make_group_spec(s, r, (draw(st.integers(1, 3)),) if r == 2 else ())
    radius = draw(st.integers(0, 4 if spec.dim <= 3 else 3))
    kappa = draw(st.one_of(st.just(()), st.tuples(*[st.integers(-12, 12)] * spec.dim)))
    return spec, radius, kappa, draw(st.integers(-1, radius + 1))


@settings(max_examples=80, deadline=None)
@given(_class_table_cases())
# The modulus gcd(-10, -2) = 10 at abel (-1, 0) passes the k digit (radix 5) of the radius-2 ball.
@example((named_spec("H1"), 2, (-10, -1), 2))
@example((named_spec("HD2"), 3, (), 3))
def test_class_table_matches_decoded_mapping(case):
    spec, radius, kappa, n = case
    table = enumerate_ball(spec, standard_generating_set(spec), radius)
    lengths = class_lengths(spec, table, kappa)
    decoded = dict(lengths)
    assert decoded == dict(lengths.items())
    assert lengths.counts(n) == cumulative_counts(decoded.values(), n)
    assert len(lengths) == len(decoded)
    reference = {}
    for g, l in table.entries.items():
        reference.setdefault(_twisted_key(spec, g, kappa), l)
    assert lengths == reference
    assert all(lengths[key] == l for key, l in reference.items())


def test_counts_build_no_class_key_objects(monkeypatch):
    import nilgrowth.conjugacy as conjugacy

    def refuse(*args):
        raise AssertionError("a count built a ConjClassKey")

    monkeypatch.setattr(conjugacy, "ConjClassKey", refuse)
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, 6)
    assert class_lengths(spec, table).counts(6) == conjugacy_growth_oracle(spec, gens, 6)
    f = make_automorphism(spec, identity_matrix(2), (2, -1))
    assert twisted_growth_structural(spec, f, 4, gens=gens) == twisted_growth_bruteforce(spec, gens, f, 4, 10).counts
    assert direct_product_inequality_check(spec, named_spec("H2"), 2).ok
    with pytest.raises(AssertionError, match="ConjClassKey"):
        dict(class_lengths(spec, table))


def test_class_lengths_residue_past_the_k_digit():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, 2)
    assert table.codec.radix_k == 3
    lengths = class_lengths(spec, table, (-10, -1))
    assert len(lengths) == 15
    f = make_automorphism(spec, identity_matrix(2), (-10, -1))
    assert twisted_growth_bruteforce(spec, gens, f, 2).counts == cumulative_counts(lengths.values(), 2) == [1, 5, 15]
    # a z slot counts with |kappa_z| alone, and equals the brute force on ZxH1
    zxh1 = named_spec("ZxH1")
    gens = standard_generating_set(zxh1)
    f = make_automorphism(zxh1, identity_matrix(3), (2, 0, 1))
    counts = cumulative_counts(class_lengths(zxh1, enumerate_ball(zxh1, gens, 3), f.kappa).values(), 3)
    assert counts == twisted_growth_bruteforce(zxh1, gens, f, 3).counts
    with pytest.raises(SpecError, match="64-bit"):
        class_lengths(spec, table, (2**61, 0))


def test_class_key_examples():
    h1 = named_spec("H1")
    assert class_key(h1, (2, 4, 7)) == ConjClassKey((2, 4), 1)
    assert class_key(h1, central_element(h1, 5)) == ConjClassKey((0, 0), 5)


def test_class_key_conjugation_invariant_fuzz():
    rng = random.Random(13)
    for name in ("H1", "H2", "HD2", "ZxH1"):
        spec = named_spec(name)
        for _ in range(500):
            g = tuple(rng.randint(-8, 8) for _ in range(spec.ncoords))
            x = tuple(rng.randint(-8, 8) for _ in range(spec.ncoords))
            assert class_key(spec, g) == class_key(spec, conjugate(spec, x, g))


def test_exact_counts_small():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    counts = conjugacy_growth_exact(spec, gens, 2)
    assert counts[0] == 1
    assert counts[1] == 5
    assert counts[2] == 13


def test_exact_equals_oracle():
    for name, n in [("H1", 6), ("HD2", 5), ("ZxH1", 5), ("H2", 5), ("H3", 3)]:
        spec = named_spec(name)
        gens = standard_generating_set(spec)
        assert conjugacy_growth_exact(spec, gens, n) == conjugacy_growth_oracle(spec, gens, n)


class UnionFind:
    """Disjoint sets over hashable items, union by size with path compression: the label merge's reference.

    An item never passed to union is its own singleton; parent holds non-roots only.
    """

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, x):
        root = x
        while root in self.parent:
            root = self.parent[root]
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        sx, sy = self.size.get(rx, 1), self.size.get(ry, 1)
        if sx < sy:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] = sx + sy


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.data())
def test_label_merge_matches_union_find(size, data):
    node = st.integers(0, size - 1)
    batches = data.draw(st.lists(st.lists(st.tuples(node, node), max_size=40), max_size=4))
    lengths = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    label = new_labels(size)
    uf = UnionFind()
    for edges in batches:
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        merge_parts(label, u, v)
        for a, b in edges:
            uf.union(a, b)
        # compressed: every label is a root, and every root is the least index of its part
        assert (label[label] == label).all() and (label <= np.arange(size)).all()
    parts, reference = {}, {}
    for i in range(size):
        parts.setdefault(int(label[i]), set()).add(i)
        reference.setdefault(uf.find(i), set()).add(i)
    assert sorted(map(sorted, parts.values())) == sorted(map(sorted, reference.values()))
    least = sorted(min(lengths[i] for i in part) for part in reference.values())
    assert sorted(part_lengths(label, np.array(lengths))) == least


def test_oracle_guard():
    spec = named_spec("H1")
    with pytest.raises(SpecError):
        conjugacy_growth_oracle(spec, standard_generating_set(spec), 12)


def test_monotone_and_dominated():
    spec = named_spec("H2")
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, 6)
    counts = conjugacy_growth_exact(spec, gens, 6)
    sizes = table.ball_sizes()
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert all(c <= s for c, s in zip(counts, sizes))


def test_class_sizes_in_coset():
    # within a nonzero coset meeting the ball: distinct keys never exceed the
    # modulus and hit it once the full period fits inside the ball
    spec = named_spec("H1")
    table = enumerate_ball(spec, standard_generating_set(spec), 8)
    by_abel = {}
    for g in table.entries:
        if g[:-1] == (0, 0):
            continue
        by_abel.setdefault(g[:-1], set()).add(g[-1])
    for abel, ks in by_abel.items():
        m = class_modulus(spec, abel)
        resids = {k % m for k in ks}
        assert len(resids) <= m
        if any(all(k0 + d in ks for d in range(m)) for k0 in ks):
            assert len(resids) == m


def test_bounds_small():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    exact = conjugacy_growth_exact(spec, gens, 8)
    bounds = conjugacy_growth_bounds(spec, 8)
    assert [rep.n for rep in bounds] == list(range(9))
    for n in range(9):
        rep = bounds[n]
        assert rep.central_exact
        assert rep.lower <= exact[n] <= rep.upper
    assert (bounds[0].lower, bounds[0].upper) == (1, 1)
    assert (bounds[1].lower, bounds[1].upper) == (1, 5)


def test_bounds_h2_vs_oracle():
    spec = named_spec("H2")
    gens = standard_generating_set(spec)
    oracle = conjugacy_growth_oracle(spec, gens, 5)
    bounds = conjugacy_growth_bounds(spec, 5)
    for n in range(6):
        rep = bounds[n]
        assert rep.lower <= oracle[n] <= rep.upper


def test_bounds_estimate_mode():
    spec = named_spec("H1")
    bounds = conjugacy_growth_bounds(spec, 20)
    rep = bounds[20]
    assert not rep.central_exact
    assert rep.lower <= rep.upper
    # the estimate window brackets the BFS-exact count at the same radius
    exact = conjugacy_growth_exact(spec, standard_generating_set(spec), 14)
    rep14 = bounds[14]
    assert rep14.lower <= exact[14] <= rep14.upper


@pytest.mark.parametrize("name", ["H1", "H2"])
def test_bounds_rows_match_direct_sums(name):
    # the bounds take their gcd sums from the sieve; the direct fold is the second route
    spec, radius, cache = named_spec(name), 40, CENTRAL_EXACT_RADIUS
    bounds = conjugacy_growth_bounds(spec, radius)
    beta = central_growth(spec, standard_generating_set(spec), cache)
    sums = l1_gcd_sums(2 * spec.r, radius, method="direct")
    assert len(bounds) == radius + 1
    for n, rep in enumerate(bounds):
        lo, hi = (beta[n], beta[n]) if n <= cache else central_ball_window(n)
        inner = sums[n - 2] if n >= 2 else 0
        assert (rep.n, rep.lower, rep.upper, rep.central_exact) == (n, lo + inner, hi + sums[n], n <= cache)


def test_bounds_rejects_out_of_scope():
    with pytest.raises(SpecError):
        conjugacy_growth_bounds(named_spec("HD2"), 4)
    with pytest.raises(SpecError):
        conjugacy_growth_bounds(named_spec("ZxH1"), 4)
    with pytest.raises(SpecError):
        conjugacy_growth_bounds(named_spec("H1"), -1)


def test_central_window_matches_bfs():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    beta = central_growth(spec, gens, 12)
    for n in range(13):
        lo, hi = central_ball_window(n)
        assert lo <= beta[n] <= hi


def test_length_window_h1():
    rep = conjugacy_length_window_check(named_spec("H1"), 8)
    assert rep.ok
    assert rep.classes_checked > 50


def test_length_window_h2():
    rep = conjugacy_length_window_check(named_spec("H2"), 6)
    assert rep.ok


def test_length_window_a_cubed():
    spec = named_spec("H1")
    table = enumerate_ball(spec, standard_generating_set(spec), 6)
    lengths = class_lengths(spec, table)
    assert lengths[class_key(spec, (3, 0, 0))] == 3
    with pytest.raises(SpecError):
        class_lengths(named_spec("ZxH1"), table)


def test_colinear_commute():
    spec = named_spec("H1")
    assert colinear_commute_check(spec, (1, 0, 0), (0, 1, 0)) == (False, False)
    assert colinear_commute_check(spec, (2, 4, 3), (1, 2, -5)) == (True, True)
    assert colinear_commute_check(spec, central_element(spec, 3), (4, 9, 1)) == (True, True)
    with pytest.raises(SpecError):
        colinear_commute_check(named_spec("H2"), (0,) * 5, (0,) * 5)


def test_colinear_commute_exhaustive_agreement():
    spec = named_spec("H1")
    rng = random.Random(3)
    for _ in range(400):
        g = tuple(rng.randint(-5, 5) for _ in range(3))
        h = tuple(rng.randint(-5, 5) for _ in range(3))
        commute, colinear = colinear_commute_check(spec, g, h)
        assert commute == colinear


def test_hd_embeddings_d2():
    rep = hd_embeddings(named_spec("HD2"))
    assert rep.gamma == (2, 1)
    assert rep.index_gamma1 == rep.index_gamma1_formula == 4
    assert rep.index_gamma2 == rep.index_gamma2_formula == 2
    assert rep.label_invariance_ok and rep.reduction_ok
    assert rep.phi_relators_ok and rep.phi_injective_ok and rep.phi_homomorphism_ok


def test_hd_embeddings_trivial_d():
    for name in ("H1", "H2"):
        rep = hd_embeddings(named_spec(name))
        assert rep.index_gamma1 == 1
        assert rep.index_gamma2 == 1


def test_hd_embeddings_rejects_s_positive():
    with pytest.raises(SpecError):
        hd_embeddings(named_spec("ZxH1"))


@pytest.mark.parametrize("delta", [(6,), (2, 6), (3, 6), (1, 4), (2, 2, 4)])
def test_hd_embeddings_exact_index(delta):
    # a radius-4 ball misses some Gamma_1 cosets on these chains; the coset count reaches them all
    spec = make_group_spec(0, len(delta) + 1, delta)
    rep = hd_embeddings(spec)
    dmax = delta[-1]
    assert rep.index_gamma1 == rep.index_gamma1_formula == dmax * prod(dmax // w for w in spec.weights)
    assert rep.index_gamma2 == rep.index_gamma2_formula == prod(delta)
    assert rep.label_invariance_ok and rep.reduction_ok
    assert rep.phi_relators_ok and rep.phi_injective_ok and rep.phi_homomorphism_ok


def test_hd_embeddings_coset_walk_budget():
    # delta = (100,): the radius-4 ball holds 813 elements, Gamma_1 has index 10^4
    with pytest.raises(BudgetError) as info:
        hd_embeddings(make_group_spec(0, 2, (100,)), budget=1000)
    assert info.value.budget == 1000 and info.value.needed > 1000
    assert hd_embeddings(make_group_spec(0, 2, (100,)), budget=10**4).index_gamma1 == 10**4


def test_verify_checks_the_specs_own_embeddings(monkeypatch):
    import nilgrowth.verify

    seen = []
    real = nilgrowth.verify.hd_embeddings
    monkeypatch.setattr(nilgrowth.verify, "hd_embeddings", lambda spec: seen.append(spec) or real(spec))
    hd6 = make_group_spec(0, 2, (6,))
    nilgrowth.verify.check_embeddings(hd6)
    nilgrowth.verify.check_embeddings(named_spec("ZxH1"))  # no H_D sandwich: HD2's stands in
    assert seen == [hd6, named_spec("HD2")]


def test_direct_product_z_z():
    z = make_group_spec(1, 0)
    rep = direct_product_inequality_check(z, z, 5)
    assert rep.ok
    # abelian: classes are elements; the product counts are the l1 ball sizes
    from nilgrowth.gcdsums import l1_ball_count

    assert rep.counts_a == [2 * m + 1 for m in range(11)]
    assert rep.counts_product == [l1_ball_count(2, m) for m in range(11)]


def test_direct_product_h1_z():
    rep = direct_product_inequality_check(named_spec("H1"), make_group_spec(1, 0), 5)
    assert rep.ok


def test_direct_product_h1_h1():
    rep = direct_product_inequality_check(named_spec("H1"), named_spec("H1"), 4)
    assert rep.ok


def test_subgroup_domination():
    rep = subgroup_domination_report(named_spec("HD2"), 5)
    assert rep.fitted_lambda is not None
    assert rep.fitted_lambda <= 2
