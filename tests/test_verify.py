"""The lemma checks of `nilgrowth verify`: where each runs, and one mutant that each must catch."""
from operator import add

import numpy as np
import pytest

import nilgrowth.conjugacy as conjugacy
import nilgrowth.verify as verify
from nilgrowth.autos import make_automorphism, twisted_growth_bruteforce
from nilgrowth.errors import StructuralError
from nilgrowth.groups import NAMED_SPECS, make_group_spec, named_spec
from nilgrowth.words import standard_generating_set

H1 = named_spec("H1")


@pytest.mark.parametrize("spec", [named_spec(name) for name in sorted(NAMED_SPECS)] + [make_group_spec(0, 3, (2, 4))])
def test_every_spec_passes_with_its_lemma_checks(spec):
    results = verify.run_verification(spec, quick=True)
    assert [r.name for r in results if not r.ok] == []
    names = {r.name for r in results}
    assert ("colinear_commuting" in names) == (spec == H1)
    assert ("direct_product" in names) == (spec == named_spec("ZxH1"))


def test_colinear_commuting_fails_on_a_law_without_its_cross_term(monkeypatch):
    monkeypatch.setattr(verify, "multiply", lambda spec, g, h: tuple(map(add, g, h)))
    with pytest.raises(StructuralError, match="commuting and colinearity disagree"):
        verify.check_colinear_commuting(H1)


def test_twisted_counts_check_the_cosets_of_swap_and_minus_identity(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "check_twisted_cosets", lambda f, table, label: seen.append(f.m))
    verify.check_twisted(H1, 3)
    assert seen == [((0, 1), (1, 0)), ((-1, 0), (0, -1))]


@pytest.mark.parametrize("m", [((0, 1), (1, 0)), ((-1, 0), (0, -1))])
def test_cosets_check_fails_when_two_cosets_share_a_part(m):
    # (0, 0) and (1, 0) lie in different cosets of the rows of M - I: (1, -1) for the swap, 2 Z^2 for -I
    f = make_automorphism(H1, m)
    res = twisted_growth_bruteforce(H1, standard_generating_set(H1), f, 3)
    verify.check_twisted_cosets(f, res.table, res.label)
    a, b = sorted(res.label[res.table.index(np.array([[0, 0, 0], [1, 0, 0]]))].tolist())
    assert a != b
    merged = np.where(res.label == b, a, res.label)
    with pytest.raises(StructuralError, match="two cosets"):
        verify.check_twisted_cosets(f, res.table, merged)


@pytest.mark.parametrize("spec", [named_spec("ZxH1"), make_group_spec(2, 1), make_group_spec(1, 2, (2,))])
def test_direct_product_fails_when_a_factor_is_shifted_by_one_radius(monkeypatch, spec):
    verify.check_direct_product(spec, 4)
    real = conjugacy.class_lengths

    def shifted(factor, table, kappa=()):
        classes = real(factor, table, kappa)
        if factor.r == 0:  # the Z^s factor's classes, each one longer
            classes.lengths = classes.lengths + 1
        return classes

    monkeypatch.setattr(conjugacy, "class_lengths", shifted)
    with pytest.raises(StructuralError, match="convolution"):
        verify.check_direct_product(spec, 4)

