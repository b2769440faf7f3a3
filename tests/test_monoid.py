"""monoid-core: families, translates, homomorphisms, good sections."""

import random
from fractions import Fraction

import pytest

from amenact.errors import MonoidMismatchError
from amenact.monoid import (
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MSubset,
    ProductMonoid,
    SemidirectZZ,
    check_good_window,
    fiber,
    fiber_conjugation,
    find_good_section,
    is_good_element,
    mod_hom,
    projection_hom,
    semidirect_quotient_hom,
    set_product,
    sym_diff_ratio,
)

N = FreeCommutative(1)
Z = FreeAbelian(1)
Z2 = FreeAbelian(2)


def ms(monoid, items):
    return MSubset.of(monoid, items)


def interval(monoid, lo, hi):
    return ms(monoid, [(i,) for i in range(lo, hi)])


# --- families ---------------------------------------------------------------

def test_product_monoid_flat_coordinates():
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    assert s.identity == (0, 0)
    assert s.op((1, 3), (1, -5)) == (0, -2)
    assert s.is_group
    assert s.inverse((1, 4)) == (1, -4)


def test_semidirect_defining_formula():
    g = SemidirectZZ()
    # (a1, c1) * (a2, c2) = (a1 + phi(c1) a2, c1 + c2), phi(n)(v1,v2) = (v1+n v2, v2)
    assert g.op((1, 2, 3), (4, 5, 6)) == (1 + 4 + 3 * 5, 2 + 5, 9)
    x = (7, -3, 5)
    assert g.op(x, g.inverse(x)) == g.identity
    assert g.op(g.inverse(x), x) == g.identity


def test_semidirect_set_product_per_defining_formula():
    g = SemidirectZZ()
    out = set_product(ms(g, [(0, 0, 0), (0, 0, 1)]), ms(g, [(1, 0, 0)]))
    # phi(1)(1, 0) = (1, 0), so the second product is (1, 0, 1)
    assert out.elements == {(1, 0, 0), (1, 0, 1)}


# --- set_product / sym_diff_ratio / translates ------------------------------

def test_set_product_intervals():
    assert set_product(interval(N, 0, 2), interval(N, 0, 2)).elements == {(0,), (1,), (2,)}


def test_set_product_identity():
    f = ms(N, [(0,), (3,), (5,)])
    assert set_product(f, ms(N, [(0,)])).elements == f.elements


def test_set_product_monoid_mismatch():
    with pytest.raises(MonoidMismatchError):
        set_product(interval(N, 0, 2), interval(Z, 0, 2))


def test_sym_diff_ratio_values():
    f = interval(Z, 0, 10)
    assert sym_diff_ratio(f, (1,)) == Fraction(2, 10)
    assert sym_diff_ratio(f, (0,)) == 0
    box = ms(Z2, [(i, j) for i in range(4) for j in range(4)])
    # oracle: direct enumeration of the translate
    moved = {(i + 1, j) for i in range(4) for j in range(4)}
    assert sym_diff_ratio(box, (1, 0)) == Fraction(len(moved ^ box.elements), 16) == Fraction(1, 2)


def test_translation_preserves_eps_equiv_and_cardinality():
    # right cancellativity: |Fs| = |F|, and F ~ F' implies Fs ~ F's
    rng = random.Random(6)
    g = SemidirectZZ()
    win = sorted(g.window(2).elements)
    for _ in range(100):
        f1 = frozenset(rng.sample(win, 6))
        f2 = frozenset(rng.sample(win, 6))
        s = win[rng.randrange(len(win))]
        F1, F2 = MSubset(g, f1), MSubset(g, f2)
        eps = Fraction(len(f1 ^ f2), 6)
        t1, t2 = F1.translate(s), F2.translate(s)
        assert len(t1) == 6 and len(t2) == 6
        assert len(t1.elements ^ t2.elements) <= eps * 6


# --- fibers ------------------------------------------------------------------

def test_fiber_mod3_window():
    pi = mod_hom(N, (3,))
    assert fiber(pi, (1,), 10).elements == {(1,), (4,), (7,)}


def test_fiber_product_projection_exact():
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    pi = projection_hom(s, (1,))
    assert fiber(pi, (5,), 6).elements == {(0, 5), (1, 5)}


def test_fiber_first_projection_Z2():
    pi = projection_hom(Z2, (0,))
    n = 3
    assert fiber(pi, (0,), n).elements == {(0, j) for j in range(-n, n + 1)}


# --- goodness ----------------------------------------------------------------

def test_good_elements_of_mod3():
    pi = mod_hom(N, (3,))
    assert is_good_element(pi, (1,))
    assert not is_good_element(pi, (4,))
    assert check_good_window(pi, (1,), 15)
    assert not check_good_window(pi, (4,), 15)


def test_group_homs_are_all_good():
    pi = mod_hom(Z, (5,))
    for s in [(-7,), (0,), (13,)]:
        assert is_good_element(pi, s)
        assert check_good_window(pi, s, 10)


def test_minimal_section_for_mod_n():
    pi = mod_hom(N, (4,))
    sigma = find_good_section(pi)
    assert [sigma((c,)) for c in range(4)] == [(0,), (1,), (2,), (3,)]
    assert sigma(pi.target.identity) == pi.source.identity


def test_canonical_section_for_product_projection():
    s = ProductMonoid((FreeCommutative(1), FiniteAbelianMonoid((3,))))
    pi = projection_hom(s, (1,))
    sigma = find_good_section(pi)
    assert sigma((2,)) == (0, 2)
    assert is_good_element(pi, sigma((2,)))
    assert not is_good_element(pi, (1, 2))  # nontrivial N-part of N^1 is not a unit


def test_good_section_gives_bijection_on_windows():
    # (n, c) -> n sigma(c) is injective and covers the source window
    pi = mod_hom(N, (3,))
    sigma = find_good_section(pi)
    n_mon, embed = pi.kernel_embedding()
    pairs = [(t, (c,)) for t in range(8) for c in range(3)]
    images = {pi.source.op(embed((t,)), sigma(c)) for t, c in pairs}
    assert len(images) == len(pairs)
    assert set(fiber(pi, (0,), 20).elements) <= images | {(i,) for i in range(24, 100)}
    window = {(i,) for i in range(24)}
    assert window <= images


def test_fiber_conjugation_commutative_and_semidirect():
    pi = mod_hom(N, (3,))
    sigma = find_good_section(pi)
    assert fiber_conjugation(pi, sigma, sigma((1,)), (6,)) == (6,)

    g = SemidirectZZ()
    pi2 = semidirect_quotient_hom(g)
    sigma2 = find_good_section(pi2)
    s = sigma2((4,))
    n = (2, 3, 0)
    h = fiber_conjugation(pi2, sigma2, s, n)
    assert g.op(n, s) == g.op(s, h)
    assert h[2] == 0
    e = g.identity
    assert fiber_conjugation(pi2, sigma2, s, e) == e


def test_kernel_embeddings():
    pi = mod_hom(N, (3,))
    n_mon, embed = pi.kernel_embedding()
    assert n_mon == FreeCommutative(1)
    assert embed((4,)) == (12,)

    pi2 = projection_hom(Z2, (0,))
    n2, embed2 = pi2.kernel_embedding()
    assert n2 == FreeAbelian(1)
    assert embed2((5,)) == (0, 5)

    pi3 = semidirect_quotient_hom(SemidirectZZ())
    n3, embed3 = pi3.kernel_embedding()
    assert n3 == FreeAbelian(2)
    assert embed3((1, 2)) == (1, 2, 0)
