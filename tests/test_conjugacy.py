"""Class keys vs orbit closure, sandwich bounds, windows, embeddings, products."""
from __future__ import annotations

import json
import random
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgrowth.autos import (
    apply_automorphism,
    make_automorphism,
    swap_automorphism,
    twisted_growth_bruteforce,
    twisted_growth_structural,
)
from nilgrowth.cli import EXIT_OK, EXIT_USAGE, main
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
    direct_product_conjugacy_growth,
    hd_embeddings,
    merge_conjugates,
    merge_parts,
    new_labels,
    part_lengths,
    subgroup_domination_report,
)
from nilgrowth.errors import BudgetError, SpecError
from nilgrowth.gcdsums import l1_gcd_sums
from nilgrowth.groups import affine_maps, central_element, conjugate, inverse_array, make_group_spec, named_spec
from nilgrowth.intlinalg import identity_matrix
from nilgrowth.words import GeneratingSet, central_growth, cumulative_counts, enumerate_ball, standard_generating_set

from test_autos import BLOCKS, _on_every_pair
from test_words import TOP_OF_KEY_RANGE, _specs_and_gens, _twisted_key


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
    for g, l in table.entries.items():  # in key order, not by length: keep each key's least length
        key = _twisted_key(spec, g, kappa)
        reference[key] = min(l, reference.get(key, l))
    assert lengths == reference
    # The brute force merges only through its conjugator ball, so its parts always refine the keys
    # and it can only count more.  On H1 a ball of radius radius + max|kappa| closes every key
    # (checked for all kappa in [-12, 12]^2 and radius <= 3); larger groups keep the default ball.
    counts = cumulative_counts(lengths.values(), radius)
    f = make_automorphism(spec, identity_matrix(spec.dim), kappa)
    wide = radius + max(map(abs, kappa)) if name == "H1" else None
    brute = twisted_growth_bruteforce(spec, gens, f, radius, conjugator_radius=wide)
    keys_per_part = {}
    for g, root in zip(brute.table.entries, brute.label.tolist()):
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
    for g, l in table.entries.items():  # in key order, not by length: keep each key's least length
        key = _twisted_key(spec, g, kappa)
        reference[key] = min(l, reference.get(key, l))
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
    assert direct_product_conjugacy_growth(spec, make_group_spec(1, 0), 4) == _product_bfs_counts(named_spec("ZxH1"), 4)
    with pytest.raises(AssertionError, match="ConjClassKey"):
        dict(class_lengths(spec, table))


def test_class_lengths_residue_past_the_k_digit():
    spec = named_spec("H1")
    gens = standard_generating_set(spec)
    table = enumerate_ball(spec, gens, 2)
    assert table.codec.radices[-1] == 3
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


@st.composite
def _merge_cases(draw):
    """(spec, gens, ball radius, table radius, conjugator radius, block name, kappa)."""
    spec, gens, n = draw(_specs_and_gens())
    radii = draw(st.integers(0, n)), draw(st.integers(0, n))
    kappa = draw(st.lists(st.sampled_from([0, 1, -2, 2**70]), min_size=spec.dim, max_size=spec.dim))
    return spec, gens, n, *radii, draw(st.sampled_from(sorted(BLOCKS))), tuple(kappa)


@settings(max_examples=60, deadline=None)
@given(_merge_cases())
# Under gens b and c, f = swap maps h = b^-1 c by c^-1 to b^-1 c^3, one past the table's k bound 2, and by c^-2 to
# b^-1 c^5.  Packed under the table's own codec, b^-1 c^3 aliases c^-2; with one more k digit on each side,
# b^-1 c^5 does.  Both are a body step from c^-2, which is in the table.
@example((named_spec("H1"), GeneratingSet(((0, 1, 0), (0, 0, 1))), 2, 2, 2, "swap", (0, 0)))
# Under f = -I, x = b^-1 maps h = b to b h b = b^3, a shift of 2 B_b; in the table's own body digits b^3 aliases a.
@example((named_spec("H1"), standard_generating_set(named_spec("H1")), 1, 1, 1, "-I", (0, 0)))
# The radius-1 prefix of a ball at the top of the key range (see test_words), merged as the twisted count at n = 1
# with conjugator radius 1 merges it: a and b entries of 12013 make cross terms near 2^27.
@example((named_spec("H1"), TOP_OF_KEY_RANGE, 3, 1, 1, "swap", (0, 0)))
@example((named_spec("H1"), TOP_OF_KEY_RANGE, 3, 1, 1, "shear", (2**70, -2)))
# Under gens a^2, b and a^3 one body holds several runs, and one image run under the swap meets four of the table's.
@example((named_spec("H1"), GeneratingSet(((2, 0, 0), (0, 1, 0), (3, 0, 0))), 4, 4, 4, "swap", (0, 0)))
# HD2 at table radius 4: an image run meets two runs of one body.
@example((named_spec("HD2"), standard_generating_set(named_spec("HD2")), 4, 4, 3, "swap", (0, 0, 0, 0)))
# Image runs cut at k = -B_k and at k = B_k that still meet the table at those ends (a table run spans at most
# 2 B_k + 1 values of k, so no image run is cut at both).
@example((named_spec("H1"), standard_generating_set(named_spec("H1")), 3, 3, 3, "-I", (1, -2)))
def test_merge_conjugates_matches_union_find(case):
    # the key-space merge against a union-find over table.entries, built from tuple products
    spec, gens, n, radius, conjugator_radius, block, kappa = case
    ball = enumerate_ball(spec, gens, n)
    table, conj = ball.prefix(radius), ball.prefix(conjugator_radius)
    f = _on_every_pair(spec, BLOCKS[block], kappa)
    x = conj.coords[:: -(-len(conj.keys) // 16)]  # at most 16 rows, spread over the conjugator ball
    rows = list(map(tuple, x.tolist()))
    images = [apply_automorphism(spec, f, g) for g in rows]
    label = new_labels(len(table.keys))
    maps = affine_maps(spec, np.array(images, dtype=object), inverse_array(spec, x.astype(object)))
    merge_conjugates(spec, table, label, maps)
    index = {g: i for i, g in enumerate(table.entries)}
    uf = UnionFind()
    for g, fg in zip(rows, images):
        ginv = spec.inv(g)
        for h, i in index.items():
            j = index.get(spec.mul(spec.mul(fg, h), ginv))
            if j is not None:
                uf.union(i, j)
    least = {}
    for i in range(len(index)):
        least.setdefault(uf.find(i), i)
    assert label.tolist() == [least[uf.find(i)] for i in range(len(index))]


def test_merge_refuses_keys_past_the_limit(tmp_path, capsys):
    # A merge codec past KEY_LIMIT is a SpecError, never a wrapped key: each radius-3 ball below fits 64-bit keys,
    # and the swap's conjugate images, with body shifts of up to twice the table's bounds, do not.
    h1 = named_spec("H1")
    with pytest.raises(SpecError, match="do not fit 64-bit keys"):
        twisted_growth_bruteforce(h1, TOP_OF_KEY_RANGE, swap_automorphism(h1), 3, conjugator_radius=1)
    # the CLI's exit 2 with one error line, on H_D with a weight of 10^14
    spec, auto = tmp_path / "spec.json", tmp_path / "swap.json"
    spec.write_text(json.dumps({"s": 0, "r": 2, "delta": [10**14]}))
    auto.write_text(json.dumps({"M": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "kappa": [0] * 4}))
    assert main(["ball", "--spec", str(spec), "--radius", "3"]) == EXIT_OK
    capsys.readouterr()
    argv = ["twisted", "--spec", str(spec), "--radius", "3", "--conjugator-radius", "1", "--auto", str(auto)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: conjugate images of this ball do not fit 64-bit keys")


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


def test_hd_embeddings_refuse_an_index_past_the_key_limit(tmp_path, capsys):
    # A budget past the Gamma_1 index delta^2 no longer reaches int64 rows built from a Python-int gamma:
    # an index of 2^62 or more is refused before any array is built.
    with pytest.raises(SpecError, match="2\\^62"):
        hd_embeddings(make_group_spec(0, 2, (2**70,)), budget=2**200)
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"s": 0, "r": 2, "delta": [2**70]}))
    assert main(["embeddings", "--spec", str(spec), "--budget", str(2**200)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: embedding index")


def test_verify_checks_the_specs_own_embeddings(monkeypatch):
    import nilgrowth.verify

    seen = []
    real = nilgrowth.verify.hd_embeddings
    monkeypatch.setattr(nilgrowth.verify, "hd_embeddings", lambda spec: seen.append(spec) or real(spec))
    hd6 = make_group_spec(0, 2, (6,))
    nilgrowth.verify.check_embeddings(hd6)
    nilgrowth.verify.check_embeddings(named_spec("ZxH1"))  # no H_D sandwich: HD2's stands in
    assert seen == [hd6, named_spec("HD2")]


def _product_bfs_counts(spec, n):
    return conjugacy_growth_exact(spec, standard_generating_set(spec), n)


def test_direct_product_z_z():
    # abelian: classes are elements, so the product counts are the l1 ball sizes of Z^2
    from nilgrowth.gcdsums import l1_ball_count

    z = make_group_spec(1, 0)
    counts = direct_product_conjugacy_growth(z, z, 8)
    assert counts == _product_bfs_counts(make_group_spec(2, 0), 8) == [l1_ball_count(2, m) for m in range(9)]


def test_direct_product_h1_z():
    counts = direct_product_conjugacy_growth(named_spec("H1"), make_group_spec(1, 0), 8)
    assert counts == _product_bfs_counts(named_spec("ZxH1"), 8)
    assert counts[:4] == [1, 7, 25, 63]


@st.composite
def _product_cases(draw):
    r = draw(st.integers(0, 2))
    s = draw(st.integers(1 if r else 2, 2))
    delta = (draw(st.integers(1, 3)),) if r == 2 else ()
    dim = s + 2 * r
    return s, r, delta, draw(st.integers(0, 5 if dim <= 4 else 3))


@settings(max_examples=30, deadline=None)
@given(_product_cases())
@example((1, 2, (1,), 5))
@example((1, 2, (2,), 5))  # HD2 x Z
@example((2, 1, (), 6))
def test_direct_product_matches_product_bfs(case):
    # Z^s x H_D as (Z^(s-1) x H_D) x Z, against the BFS of the product spec
    s, r, delta, n = case
    counts = direct_product_conjugacy_growth(make_group_spec(s - 1, r, delta), make_group_spec(1, 0), n)
    assert counts == _product_bfs_counts(make_group_spec(s, r, delta), n)


def test_subgroup_domination():
    rep = subgroup_domination_report(named_spec("HD2"), 5)
    assert rep.fitted_lambda is not None
    assert rep.fitted_lambda <= 2
