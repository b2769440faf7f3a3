"""abelian-core: exact set/subgroup arithmetic against enumeration oracles."""

import math
import random

import pytest

from amenact import lattices
from amenact.abelian import (
    DirectSum,
    DropProjection,
    FiniteProduct,
    FiniteSubset,
    FreeZ,
    IdentityProjection,
    PercoordProjection,
    PercoordSubgroup,
    SmithProjection,
    Subgroup,
    TrivialProjection,
    minkowski_sum,
    quotient_group,
    subgroup_as_group,
)
from amenact.duality import subgroup_lattice
from amenact.errors import (
    GroupMismatchError,
    InconsistentSubgroupError,
    UnsupportedQuotientError,
)
from amenact.monoid import FreeAbelian, FreeCommutative

Z = FreeZ(1)


def subset(group, items):
    return FiniteSubset.of(group, items)


def closure(group, gens):
    """Brute-force subgroup closure (oracle)."""
    seen = {group.zero}
    frontier = [group.zero]
    gens = [group.element(g) for g in gens]
    gens += [group.neg(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# --- minkowski_sum ----------------------------------------------------------


def test_minkowski_sum_in_Z():
    out = minkowski_sum(subset(Z, [(0,), (1,)]), subset(Z, [(0,), (4,)]))
    assert out.elements == {(0,), (1,), (4,), (5,)}


def test_minkowski_identity_element():
    x = subset(Z, [(3,), (7,)])
    assert minkowski_sum(x, subset(Z, [(0,)])).elements == x.elements


def test_iterated_sum_matches_triple_enumeration():
    w = subset(Z, [(0,), (1,)])
    # oracle: enumerate all 2^3 sums directly
    expected = {(a + b + c,) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    got = minkowski_sum(minkowski_sum(w, w), w)
    assert got.elements == expected
    assert len(got) == 4


def test_minkowski_group_mismatch():
    with pytest.raises(GroupMismatchError):
        minkowski_sum(subset(Z, [(0,)]), subset(FreeZ(2), [(0, 0)]))


def test_directsum_arithmetic():
    a = DirectSum(FiniteProduct((2,)), FreeCommutative(1))
    e0 = a.basis_vector((0,))
    e1 = a.basis_vector((1,))
    assert a.add(e0, e0) == a.zero
    assert a.add(e0, e1) == a.element({(0,): (1,), (1,): (1,)})
    x = subset(a, [a.zero, e0])
    out = minkowski_sum(x, subset(a, [a.zero, e1]))
    assert len(out) == 4


# --- subgroup join / order --------------------------------------------------


def test_subgroup_join_full_in_Z2_squared():
    g = FiniteProduct((2, 2))
    b = Subgroup.generated(g, [(1, 0)])
    c = Subgroup.generated(g, [(0, 1)])
    j = b.join(c)
    assert j.order() == len(closure(g, [(1, 0), (0, 1)])) == 4


def test_join_with_trivial_is_identity():
    g = FiniteProduct((12,))
    b = Subgroup.generated(g, [(4,)])
    assert b.join(Subgroup.trivial(g)) == b


def test_join_2_and_3_in_Z12():
    g = FiniteProduct((12,))
    j = Subgroup.generated(g, [(2,)]).join(Subgroup.generated(g, [(3,)]))
    assert j.order() == len(closure(g, [(2,), (3,)])) == 12


def test_subgroup_order_examples():
    z8 = FiniteProduct((8,))
    assert Subgroup.generated(z8, [(2,)]).order() == len(closure(z8, [(2,)])) == 4
    assert Subgroup.trivial(z8).order() == 1
    z2 = FreeZ(2)
    assert Subgroup.generated(z2, [(2, 0), (0, 2)]).order() == math.inf


@pytest.mark.parametrize("factors", [(8,), (2, 4), (12,), (2, 2, 2), (6, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_subgroup_order_matches_enumeration(factors, seed):
    rng = random.Random((factors, seed).__repr__())
    g = FiniteProduct(factors)
    gens = [g.sample(rng, 0) for _ in range(rng.randint(1, 3))]
    b = Subgroup.generated(g, gens)
    assert b.order() == len(closure(g, gens))
    for x in closure(g, gens):
        assert b.contains(x)


def test_subgroup_elements_and_membership():
    g = FiniteProduct((4, 4))
    b = Subgroup.generated(g, [(2, 0), (0, 2)])
    els = b.elements()
    assert els == closure(g, [(2, 0), (0, 2)])
    assert not b.contains((1, 0))


def test_subgroup_elements_refuses_a_wrong_lattice_order():
    # the closure check survives python -O, unlike an assert
    b = Subgroup.generated(FiniteProduct((4,)), [(2,)])
    dim, basis, order, window = b._flat()
    b._data = (dim, basis, order + 1, window)
    with pytest.raises(InconsistentSubgroupError):
        b.elements()


# --- the canonical form of finite-group subgroups ----------------------------
# Subgroup._flat stacks the modulus rows under the generators, so hnf reads
# the Hermite form off a ModularEchelon, the engine the growing trajectory
# uses too: the trajectory's oracle (join_path_counts, built on Subgroup) no
# longer checks it alone.  Here the oracle is dense elimination of the flat
# generators stacked over the modulus rows.

SUBGROUP_FACTORS = [1, 2, 3, 4, 6, 8, 9, 12]


def _dense_flat(moduli, flat_gens):
    """(basis, order) of the flat generators plus the modulus rows, dense."""
    d = len(moduli)
    rows = [list(x) for x in flat_gens]
    rows += [[m if i == j else 0 for j in range(d)] for i, m in enumerate(moduli)]
    basis = lattices._echelon(rows, d)[0]
    assert len(basis) == d
    return basis, math.prod(moduli) // math.prod(row[j] for j, row in enumerate(basis))


def _random_direct_sum_subgroup(rng):
    base = FiniteProduct(tuple(rng.choice(SUBGROUP_FACTORS) for _ in range(rng.randint(1, 2))))
    group = DirectSum(base, FreeAbelian(1) if rng.random() < 0.5 else FreeCommutative(2))
    idx = sorted(group.index.window(2).elements)
    gens = []
    for _ in range(rng.randint(1, 3)):
        gens.append({idx[rng.randrange(len(idx))]: base.sample(rng, 0) for _ in range(rng.randint(1, 3))})
    return group, [group.element(x) for x in gens]


@pytest.mark.parametrize("seed", range(8))
def test_flat_matches_the_dense_hermite_form(seed):
    # 8 x 250 random subgroups, finite products and direct-sum windows in turn
    rng = random.Random(f"flat-oracle:{seed}")
    for case in range(250):
        if case % 2:
            g = FiniteProduct(tuple(rng.choice(SUBGROUP_FACTORS) for _ in range(rng.randint(1, 4))))
            gens = [g.sample(rng, 0) for _ in range(rng.randint(0, 4))]
            b = Subgroup.generated(g, gens)
            moduli, flat_gens, window = g.factors, [list(x) for x in b.gens], None
        else:
            g, gens = _random_direct_sum_subgroup(rng)
            b = Subgroup.generated(g, gens)
            window = tuple(sorted({i for x in gens for i, _ in x}))
            pos = {i: t for t, i in enumerate(window)}
            k = len(g.base.factors)
            moduli = g.base.factors * len(window)
            flat_gens = []
            for x in gens:
                flat = [0] * len(moduli)
                for i, v in x:
                    flat[pos[i] * k : (pos[i] + 1) * k] = v
                flat_gens.append(flat)
        basis, order = _dense_flat(moduli, flat_gens)
        assert b._flat() == (len(moduli), basis, order, window), (g, gens)
        assert b.order() == order


def test_flat_on_finite_groups_takes_no_dense_elimination(monkeypatch):
    def refuse(rows, dim):
        raise AssertionError("dense _echelon called")

    monkeypatch.setattr(lattices, "_echelon", refuse)
    z46 = FiniteProduct((4, 6))
    assert Subgroup.generated(z46, [(2, 3), (0, 2)])._flat() == (2, [[2, 1], [0, 2]], 6, None)
    a = DirectSum(FiniteProduct((2, 4)), FreeAbelian(1))
    b = Subgroup.generated(a, [{(0,): (1, 2), (3,): (0, 1)}, {(3,): (1, 1)}])
    # 2 g1 + 2 g2 = 0 is the one relation: order 4 * 4 / 2
    assert b.order() == 8 == len(closure(a, b.gens))
    assert b.contains(a.element({(3,): (0, 2)}))
    assert not b.contains(a.element({(0,): (1, 0)})) and not b.contains(a.element({(3,): (1, 0)}))
    assert b.coset_key(a.element({(1,): (1, 1)})) == b.coset_key(a.element({(1,): (1, 1), (3,): (0, 2)}))


def test_direct_sum_generating_sets_of_one_subgroup_give_one_key():
    # the same subgroup of (Z/4)^(Z) from generators with different
    # supports: the windows agree, as do the keys, equality and hashes
    a = DirectSum(FiniteProduct((4,)), FreeAbelian(1))
    e0, e1, e2 = (a.basis_vector((i,)) for i in range(3))
    sets = [
        [e0, e1, a.scalar(2, e2)],
        [a.add(e0, e1), a.sub(e1, a.scalar(2, e2)), a.scalar(2, e2)],
        [a.add(a.add(e0, e1), a.scalar(2, e2)), a.add(e1, a.scalar(2, e2)), a.scalar(6, e2)],
    ]
    subs = [Subgroup.generated(a, gens) for gens in sets]
    subs.append(subs[0].join(Subgroup.generated(a, [e1])))
    assert {len(b.gens) for b in subs} == {3, 4}
    assert len({b.canonical_key() for b in subs}) == 1
    assert len({hash(b) for b in subs}) == 1
    assert all(b == subs[0] for b in subs)
    assert subs[0]._flat()[3] == ((0,), (1,), (2,))
    assert subs[0] != Subgroup.generated(a, [e0, e1])


# --- coset keys: l(Y, B) = log of the number of cosets y + B, y in Y -------


def test_rel_ell_even_cosets_in_Z():
    y = subset(Z, [(0,), (1,), (2,), (3,)])
    b = Subgroup.generated(Z, [(2,)])
    assert len({b.coset_key(v) for v in y}) == 2


def test_rel_ell_inside_subgroup_is_zero():
    b = Subgroup.generated(Z, [(2,)])
    assert len({b.coset_key(v) for v in subset(Z, [(0,), (4,), (-6,)])}) == 1


def test_rel_ell_coset_enumeration_oracle():
    z8 = FiniteProduct((8,))
    y = subset(z8, [(0,), (1,), (4,), (5,)])
    b = Subgroup.generated(z8, [(4,)])
    bset = closure(z8, [(4,)])
    cosets = {frozenset(z8.add(v, x) for x in bset) for v in y.elements}
    assert len({b.coset_key(v) for v in y}) == len(cosets) == 2


# --- quotients --------------------------------------------------------------


def test_quotient_z4_by_two():
    g = FiniteProduct((4,))
    q, proj = quotient_group(g, Subgroup.generated(g, [(2,)]))
    assert q == FiniteProduct((2,))
    assert proj((1,)) != q.zero and proj((2,)) == q.zero


def test_quotient_directsum_coordinatewise():
    base = FiniteProduct((4,))
    a = DirectSum(base, FreeAbelian(1))
    two_a = Subgroup.percoord(a, Subgroup.generated(base, [(2,)]))
    q, proj = quotient_group(a, two_a)
    assert isinstance(q, DirectSum) and q.base == FiniteProduct((2,))
    # coordinatewise check on a sample of elements
    rng = random.Random(7)
    for _ in range(50):
        x = a.sample(rng, 3)
        y = a.sample(rng, 3)
        assert proj(a.add(x, y)) == q.add(proj(x), proj(y))
        assert (proj(x) == q.zero) == two_a.contains(x)


def test_quotient_z_by_5z():
    q, proj = quotient_group(Z, Subgroup.generated(Z, [(5,)]))
    assert q == FiniteProduct((5,))
    assert proj((7,)) == (2 % 5,)
    assert proj((-1,)) == (4,)


def test_quotient_unit_coordinate_sublattice():
    z2 = FreeZ(2)
    q, proj = quotient_group(z2, Subgroup.generated(z2, [(1, 0)]))
    assert q == FreeZ(1)
    assert proj((5, 3)) == (3,)


def test_quotient_rejects_odd_lattices():
    z2 = FreeZ(2)
    with pytest.raises(UnsupportedQuotientError):
        quotient_group(z2, Subgroup.generated(z2, [(2, 0)]))


def test_quotient_rejects_fg_subgroups_of_direct_sums():
    a = DirectSum(FiniteProduct((2,)), FreeAbelian(1))
    b = Subgroup.generated(a, [a.basis_vector((0,))])
    with pytest.raises(UnsupportedQuotientError):
        quotient_group(a, b)


def test_mixed_subgroup_join_contains_or_raises():
    a = DirectSum(FiniteProduct((4,)), FreeAbelian(1))
    per = Subgroup.percoord(a, Subgroup.generated(a.base, [(2,)]))
    inside = Subgroup.generated(a, [a.basis_vector((0,), (2,))])
    assert per.join(inside) == per
    outside = Subgroup.generated(a, [a.basis_vector((0,), (1,))])
    with pytest.raises(UnsupportedQuotientError):
        per.join(outside)


def test_quotient_projection_is_hom_with_right_kernel():
    g = FiniteProduct((4, 6))
    b = Subgroup.generated(g, [(2, 3)])
    q, proj = quotient_group(g, b)
    assert q.order * b.order() == g.order
    for x in g.elements():
        for y in [(1, 1), (3, 2), (0, 5)]:
            assert proj(g.add(x, y)) == q.add(proj(x), proj(y))
        assert (proj(x) == q.zero) == b.contains(x)


@pytest.mark.parametrize("group,gens", [
    (FiniteProduct((4, 6)), [(2, 3)]),
    (FiniteProduct((2, 4, 3)), [(1, 2, 0)]),
    (FreeZ(2), [(2, 0), (1, 3)]),
])
def test_snf_quotient_section_is_a_right_inverse(group, gens):
    q, proj = quotient_group(group, Subgroup.generated(group, gens))
    assert isinstance(proj, SmithProjection)
    for t in q.elements():
        x = proj.section(t)
        assert proj(x) == t
        if isinstance(group, FiniteProduct):
            assert group.contains(x)


@pytest.mark.parametrize("group,gens", [
    (FiniteProduct((4, 6)), [(2, 3)]),
    (FreeZ(2), [(2, 0), (1, 3)]),
])
def test_snf_section_uses_the_inverse_cached_at_construction(group, gens, monkeypatch):
    q, proj = quotient_group(group, Subgroup.generated(group, gens))
    v, v_inv = proj.v, proj.v_inv
    k = len(v)
    prod = [[sum(v[i][t] * v_inv[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    assert prod == [[int(i == j) for j in range(k)] for i in range(k)]

    def refuse(mat):
        raise AssertionError("section recomputed the inverse transform")

    monkeypatch.setattr(lattices, "unimodular_inverse", refuse)
    for t in q.elements():
        assert proj(proj.section(t)) == t


@pytest.mark.parametrize("factors", [(4,), (2, 4), (4, 6), (3, 9), (2, 2, 2)])
def test_section_is_a_right_inverse_on_every_subgroup(factors):
    # the trivial subgroup gives the identity projection, every other one Smith's
    group = FiniteProduct(factors)
    kinds = set()
    for gens, _ in subgroup_lattice(group):
        q, proj = quotient_group(group, Subgroup.generated(group, gens))
        kinds.add(type(proj))
        for t in q.elements():
            x = proj.section(t)
            assert group.contains(x) and proj(x) == t
    assert kinds == {IdentityProjection, SmithProjection}


def test_section_of_direct_sum_and_free_quotients():
    base = FiniteProduct((2, 3))
    a = DirectSum(base, FreeAbelian(1))
    q, proj = quotient_group(a, Subgroup.percoord(a, Subgroup.full(base)))
    assert isinstance(proj, TrivialProjection) and list(q.elements()) == [()]
    assert proj.section(()) == a.zero and proj(proj.section(())) == ()
    rng = random.Random(11)
    cases = [
        (a, Subgroup.generated(a, []), IdentityProjection),
        (a, Subgroup.percoord(a, Subgroup.generated(base, [(0, 1)])), PercoordProjection),
        (FreeZ(3), Subgroup.generated(FreeZ(3), [(0, 1, 0)]), DropProjection),
    ]
    for group, b, kind in cases:
        q, proj = quotient_group(group, b)
        assert type(proj) is kind
        for _ in range(40):
            t = q.sample(rng, 3)
            assert proj(proj.section(t)) == t


def _projection_cases():
    base = FiniteProduct((2, 3))
    a = DirectSum(base, FreeAbelian(1))
    g = FiniteProduct((4, 6))
    z2, z3 = FreeZ(2), FreeZ(3)
    cases = [
        ("identity-finite", g, Subgroup.trivial(g), IdentityProjection),
        ("identity-direct-sum", a, Subgroup.trivial(a), IdentityProjection),
        ("trivial", a, Subgroup.percoord(a, Subgroup.full(base)), TrivialProjection),
        ("smith-finite", g, Subgroup.generated(g, [(2, 3)]), SmithProjection),
        ("smith-free", z2, Subgroup.generated(z2, [(2, 0), (1, 3)]), SmithProjection),
        ("drop", z3, Subgroup.generated(z3, [(0, 1, 0)]), DropProjection),
        ("percoord", a, Subgroup.percoord(a, Subgroup.generated(base, [(0, 1)])), PercoordProjection),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


def _member(b, rng):
    """A random element of B: a combination of its generators, or for
    B0^(index) an element of B0 at each of a few indices."""
    if isinstance(b, PercoordSubgroup):
        return b.group.element({(i,): _member(b.base, rng) for i in range(-2, 3)})
    x = b.group.zero
    for gen in b.gens:
        x = b.group.add(x, b.group.scalar(rng.randint(-3, 3), gen))
    return x


@pytest.mark.parametrize("group,b,kind", _projection_cases())
def test_every_projection_is_a_hom_with_kernel_b_and_a_right_inverse(group, b, kind):
    q, proj = quotient_group(group, b)
    assert type(proj) is kind and (proj.source, proj.target) == (group, q)
    rng = random.Random(5)
    for _ in range(40):
        x, y, m = group.sample(rng, 4), group.sample(rng, 4), _member(b, rng)
        assert proj(group.add(x, y)) == q.add(proj(x), proj(y))
        assert b.contains(m) and proj(m) == q.zero
        for z in (x, group.add(x, m)):
            assert (proj(z) == q.zero) == b.contains(z)
        for t in (proj(x), q.sample(rng, 4)):
            lift = proj.section(t)
            assert group.contains(lift) and proj(lift) == t


# --- subgroup_as_group ------------------------------------------------------


@pytest.mark.parametrize("factors,gens", [
    ((8,), [(2,)]),
    ((4, 4), [(2, 0), (0, 2)]),
    ((4, 6), [(2, 3)]),
    ((2, 4, 3), [(1, 2, 0), (0, 0, 1)]),
])
def test_subgroup_as_group_is_an_isomorphism(factors, gens):
    g = FiniteProduct(factors)
    b = Subgroup.generated(g, gens)
    h, embed, express = subgroup_as_group(b)
    assert h.order == b.order()
    seen = set()
    for t in h.elements():
        x = embed(t)
        assert b.contains(x)
        assert express(x) == t
        seen.add(x)
    assert seen == b.elements()
    for t in h.elements():
        for s in h.elements():
            assert embed(h.add(t, s)) == g.add(embed(t), embed(s))


def test_subgroup_as_group_percoord():
    base = FiniteProduct((4,))
    a = DirectSum(base, FreeAbelian(1))
    b = Subgroup.percoord(a, Subgroup.generated(base, [(2,)]))
    h, embed, express = subgroup_as_group(b)
    assert isinstance(h, DirectSum) and h.base == FiniteProduct((2,))
    x = h.element({(3,): (1,)})
    y = embed(x)
    assert b.contains(y)
    assert express(y) == x


# --- invariants (module-level property checks) ------------------------------


def random_subset(rng, group, max_size=5, bound=6):
    n = rng.randint(1, max_size)
    return FiniteSubset(group, frozenset(group.sample(rng, bound) for _ in range(n)))


def test_ell_subadditive_under_minkowski():
    rng = random.Random(11)
    for group in [Z, FreeZ(2), FiniteProduct((8, 3))]:
        for _ in range(60):
            x, y = random_subset(rng, group), random_subset(rng, group)
            left = math.log(len(minkowski_sum(x, y)))
            assert left <= math.log(len(x)) + math.log(len(y)) + 1e-12


def test_ell_splits_over_finite_subgroup():
    # l(X + C) = l(X, C) + l(C) for a finite subgroup C and 0 in X
    rng = random.Random(12)
    g = FiniteProduct((8, 6))
    for _ in range(40):
        c = Subgroup.generated(g, [g.sample(rng, 0) for _ in range(rng.randint(1, 2))])
        cset = FiniteSubset(g, frozenset(c.elements()))
        x = random_subset(rng, g).union(FiniteSubset(g, frozenset({g.zero})))
        # counted exactly: |X + C| = |{x + C : x in X}| |C|
        assert len(minkowski_sum(x, cset)) == len({c.coset_key(v) for v in x}) * c.order()


def test_rel_ell_monotone_in_both_arguments():
    rng = random.Random(13)
    g = FiniteProduct((12, 4))
    for _ in range(40):
        x = random_subset(rng, g)
        y = x.union(random_subset(rng, g))
        b = Subgroup.generated(g, [g.sample(rng, 0)])
        bigger = b.join(Subgroup.generated(g, [g.sample(rng, 0)]))
        assert len({b.coset_key(v) for v in x}) <= len({b.coset_key(v) for v in y})
        assert len({bigger.coset_key(v) for v in x}) <= len({b.coset_key(v) for v in x})


def test_rel_ell_subadditive_in_pairs():
    # l(X + X', B + B') <= l(X, B) + l(X', B')
    rng = random.Random(14)
    g = FiniteProduct((6, 8))
    for _ in range(40):
        zero = FiniteSubset(g, frozenset({g.zero}))
        x, xp = random_subset(rng, g).union(zero), random_subset(rng, g).union(zero)
        b = Subgroup.generated(g, [g.sample(rng, 0)])
        bp = Subgroup.generated(g, [g.sample(rng, 0)])
        join = b.join(bp)
        lhs = len({join.coset_key(v) for v in minkowski_sum(x, xp)})
        assert lhs <= len({b.coset_key(v) for v in x}) * len({bp.coset_key(v) for v in xp})


def test_rel_ell_depends_only_on_intersection():
    # l(C, B) = l(C, B meet C) with the intersection built by enumeration
    rng = random.Random(15)
    g = FiniteProduct((4, 4))
    for _ in range(30):
        c = Subgroup.generated(g, [g.sample(rng, 0)])
        b = Subgroup.generated(g, [g.sample(rng, 0)])
        meet = Subgroup.generated(g, sorted(c.elements() & b.elements()))
        cset = FiniteSubset(g, frozenset(c.elements()))
        assert len({b.coset_key(v) for v in cset}) == len({meet.coset_key(v) for v in cset})
