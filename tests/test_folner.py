"""folner-tiling: net generators, defects, eps-disjointness, tilings."""

import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import prod

import pytest

from amenact.cli import BUILTINS, run_scenario
from amenact.errors import (
    BudgetExceededError,
    InvalidWitnessError,
    MonoidMismatchError,
    UndecidableFamilyError,
)
from amenact.folner import (
    DefectReport,
    DefectRow,
    FolnerNet,
    _Frame,
    _first_fit,
    TilingReport,
    TilingWitness,
    CanonicalNet,
    _live_shells,
    box_net,
    check_tiling,
    greedy_tiler,
    is_eps_disjoint,
    kernel_box_net,
    product_net,
    remtil_check,
    semidirect_defect,
    split_extension_net,
    translate_net,
    verify_folner,
)
from amenact.monoid import (
    BoxSubset,
    CappedAdd,
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MSubset,
    ProductMonoid,
    SemidirectZZ,
    find_good_section,
    mod_hom,
    projection_hom,
    semidirect_quotient_hom,
    set_product,
)

N1 = FreeCommutative(1)
N2 = FreeCommutative(2)
Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
Z3 = FreeAbelian(3)


def ms(monoid, items):
    return MSubset.of(monoid, items)


# --- box nets ----------------------------------------------------------------

def test_box_net_families():
    assert box_net(N1).subset(5).elements == {(i,) for i in range(5)}
    g = FiniteAbelianMonoid((2, 3))
    assert box_net(g).subset(7).elements == set(g.elements())
    assert len(box_net(Z2).subset(2)) == 25


@pytest.mark.parametrize(
    "monoid, label",
    [
        (N1, "boxes"),
        (FreeCommutative(2), "boxes"),
        (Z1, "boxes"),
        (Z2, "boxes"),
        (FiniteAbelianMonoid((2, 3)), "constant"),
        (ProductMonoid((N1, Z1)), "boxes"),
        (ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1))), "boxes"),
    ],
)
def test_box_net_is_the_monoid_window(monoid, label):
    net = box_net(monoid)
    assert net.label == label
    for n in range(1, 7):
        assert net.subset(n) == monoid.window(n)


@pytest.mark.parametrize("monoid", [SemidirectZZ(), ProductMonoid((N1, SemidirectZZ()))])
def test_box_net_refuses_the_shear_product(monoid):
    # the shear product's boxes are not Folner, alone or as a product part
    with pytest.raises(UndecidableFamilyError):
        box_net(monoid)


# --- shells F_i \\ F_{i-1} ----------------------------------------------------------

BOX_MONOIDS = [
    FreeCommutative(0), N1, FreeCommutative(2), FreeCommutative(3),
    FreeAbelian(0), Z1, Z2, FreeAbelian(3),
    FiniteAbelianMonoid((2, 3)),
    ProductMonoid((N1, Z1)),
    ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1))),
    ProductMonoid((Z1, FiniteAbelianMonoid((3,)), FreeCommutative(2))),
]


def sliding_net(monoid):
    # [n, 2n]^d: never nested
    return FolnerNet(
        monoid, lambda n: MSubset(monoid, frozenset(product(range(n, 2 * n + 1), repeat=monoid.dim))),
        "sliding",
    )


def every_net_family():
    """(net, prefix, nested): every family of net, with whether it is nested."""
    for m in BOX_MONOIDS:
        yield box_net(m), 5 if m.dim < 3 else 3, True
    yield translate_net(box_net(Z1), ms(Z1, [(3,), (-2,)])), 5, True
    yield translate_net(box_net(FreeCommutative(2)), ms(FreeCommutative(2), [(0, 0), (1, 2)])), 4, True
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    yield kernel_box_net(projection_hom(s, (0,))), 4, True
    yield kernel_box_net(projection_hom(s, (1,))), 4, True
    # the canonical boxes of {0, 1} at precision 1/n, by n
    canon = CanonicalNet(Z1)
    yield FolnerNet(Z1, partial(canon.at, ms(Z1, [(0,), (1,)])), "canonical"), 5, True
    yield product_net(box_net(N1), box_net(Z1)), 6, False
    yield sliding_net(N1), 4, False
    yield sliding_net(Z2), 3, False
    pi = projection_hom(Z2, (0,))
    split = split_extension_net(CanonicalNet(Z1), CanonicalNet(Z1), pi, find_good_section(pi))
    yield split.folner_net(), 4, False


@pytest.mark.parametrize("net, prefix, nested", list(every_net_family()), ids=repr)
def test_shell_is_the_new_part_of_the_net(net, prefix, nested):
    sizes, grows = 0, []
    for i in range(1, prefix + 1):
        before = net.subset(i - 1).elements if i > 1 else frozenset()
        grows.append(before <= net.subset(i).elements)
        shell = net.shell(i)
        assert shell.monoid == net.monoid
        assert shell.elements == net.subset(i).elements - before
        sizes += len(shell)
        if nested:
            assert sizes == len(net.subset(i))
    assert all(grows) == nested
    # only box nets and the kernel's box nets declare themselves nested
    assert net.nested == (net.label in ("boxes", "constant", "ker-boxes"))


@pytest.mark.parametrize("net, prefix, nested", list(every_net_family()), ids=repr)
def test_increments_rebuild_every_set_of_the_net(net, prefix, nested):
    held = set()
    fresh_at = []
    for i, added, fresh, size in net.increments(prefix):
        if fresh:
            held.clear()
            fresh_at.append(i)
        assert not held & added
        held |= added
        assert held == net.subset(i).elements and size == len(held)
    # a net that is not nested starts over somewhere
    assert bool(fresh_at) != nested


@pytest.mark.parametrize("monoid", [N1, FreeCommutative(2), FreeCommutative(3), Z1, Z2, FreeAbelian(3),
                                    FiniteAbelianMonoid((2, 3)), ProductMonoid((FiniteAbelianMonoid((2,)), N1))])
def test_box_shells_never_build_a_window(monkeypatch, monoid):
    calls = []
    window = type(monoid).window
    monkeypatch.setattr(type(monoid), "window", lambda self, n: calls.append(n) or window(self, n))
    net = box_net(monoid)
    shells = [net.shell(i).elements for i in range(1, 6)]
    nets = list(net.increments(5))
    sizes = [net.size(i) for i in range(1, 6)]
    assert not calls
    for i in range(1, 6):
        box = window(monoid, i).elements
        before = window(monoid, i - 1).elements if i > 1 else set()
        assert shells[i - 1] == nets[i - 1][1] == box - before
        assert nets[i - 1][3] == sizes[i - 1] == len(box)


# --- one box table per family, against enumeration ---------------------------------

ORACLE_MONOIDS = [
    *map(FreeCommutative, range(4)), *map(FreeAbelian, range(4)),
    *(FiniteAbelianMonoid(f) for f in [(), (1,), (2, 3), (2, 1, 3)]),
    ProductMonoid((N1, Z1)),
    ProductMonoid((FiniteAbelianMonoid(()), Z1)),
    ProductMonoid((FiniteAbelianMonoid((2,)), FreeCommutative(2))),
    ProductMonoid((Z1, FiniteAbelianMonoid((1, 3)), N1)),
    ProductMonoid((FreeCommutative(0), FiniteAbelianMonoid((2,)), FiniteAbelianMonoid(()))),
]


def oracle_ranges(monoid, n):
    """window(n) as one range per coordinate, read off the family."""
    if isinstance(monoid, ProductMonoid):
        return [r for p in monoid.parts for r in oracle_ranges(p, n)]
    if isinstance(monoid, FreeCommutative):
        return [range(n)] * monoid.dim
    if isinstance(monoid, FreeAbelian):
        return [range(-n, n + 1)] * monoid.dim
    return [range(k) for k in monoid.factors]


def oracle_cells(monoid, n):
    return frozenset(product(*oracle_ranges(monoid, n)))


@pytest.mark.parametrize("monoid", ORACLE_MONOIDS, ids=str)
def test_windows_are_the_products_of_their_coordinate_ranges(monoid):
    for n in range(6):
        box, cells = monoid.window(n), oracle_cells(monoid, n)
        as_set = MSubset(monoid, cells)
        assert isinstance(box, BoxSubset)
        assert box == as_set and as_set == box and hash(box) == hash(as_set)
        assert len(box) == len(cells) and list(box) == list(as_set) == sorted(cells)
        grown = product(*(range(r.start - 1, r.stop + 1) for r in oracle_ranges(monoid, n)))
        for x in [*grown, (0,) * (monoid.dim + 1)]:
            assert (x in box) == (x in as_set) == (x in cells), x


@pytest.mark.parametrize("monoid", ORACLE_MONOIDS, ids=str)
def test_box_net_shells_are_differences_of_enumerated_boxes(monoid):
    net = box_net(monoid)
    for i in range(1, 6):
        before = oracle_cells(monoid, i - 1) if i > 1 else frozenset()
        assert net.shell(i).elements == oracle_cells(monoid, i) - before, i
        assert net.size(i) == len(oracle_cells(monoid, i))


@pytest.mark.parametrize("monoid", ORACLE_MONOIDS, ids=str)
def test_pinned_shells_are_differences_of_enumerated_pinned_boxes(monoid):
    """Every mask of live coordinates: shell i holds the cells of F_i with
    the dead coordinates set to 0, less those of F_{i-1}."""
    for live in product((0, 1), repeat=monoid.dim):
        def pinned(cells):
            return {tuple(a * on for a, on in zip(x, live)) for x in cells}

        for i, size, shell in _live_shells(box_net(monoid), live, 5):
            before = pinned(oracle_cells(monoid, i - 1)) if i > 1 else set()
            assert shell == pinned(oracle_cells(monoid, i)) - before, (live, i)
            assert size == len(oracle_cells(monoid, i))


@pytest.mark.parametrize("monoid", ORACLE_MONOIDS, ids=str)
def test_canonical_boxes_are_their_enumerations(monkeypatch, monoid):
    """The search builds the boxes of sides 1, 2, ...: [0, m) on N and Z
    coordinates, all of Z/k.  {0, g} for a generator g of N or Z at
    precision 1/2 needs the side 4."""
    built, cells = [], BoxSubset.__iter__
    monkeypatch.setattr(BoxSubset, "__iter__", lambda self: built.append(self) or cells(self))
    free = [j for j, (a, b) in enumerate(zip(oracle_ranges(monoid, 1), oracle_ranges(monoid, 2))) if a != b]
    e = ms(monoid, [monoid.identity] + [monoid.generators()[j] for j in free[:1]])
    found = CanonicalNet(monoid).at(e, 2)
    monkeypatch.undo()
    assert len(built) == (4 if free else 1) and found is built[-1]
    for m, box in enumerate(built, start=1):
        want = product(*(range(m) if j in free else r for j, r in enumerate(oracle_ranges(monoid, 1))))
        assert box == MSubset(monoid, frozenset(want)), m


@pytest.mark.parametrize("monoid", ORACLE_MONOIDS, ids=str)
def test_a_box_corner_outside_the_monoid_is_refused(monoid):
    """hi >= k on a coordinate Z/k, or lo < 0 on one of N, leaves the
    monoid; an empty box has no cell to check."""
    box = monoid.window(1)
    for j, r in enumerate(oracle_ranges(monoid, 1)):
        if r == range(1):  # N (or Z/1): lo = -1 leaves it
            bad = (box.lo[:j] + (-1,) + box.lo[j + 1 :], box.hi)
        elif r.start == 0:  # Z/k: hi = k leaves it
            bad = (box.lo, box.hi[:j] + (r.stop,) + box.hi[j + 1 :])
        else:  # Z: every integer is in it
            continue
        with pytest.raises(MonoidMismatchError):
            BoxSubset(monoid, *bad)
        assert len(BoxSubset(monoid, box.lo, box.hi[:j] + (box.lo[j] - 1,) + box.hi[j + 1 :])) == 0


def block_box_axes(monoid):
    """The former axes of box shells: one per coordinate of N^d and Z^d and
    one per finite group, each value a tuple block."""
    if isinstance(monoid, ProductMonoid):
        return [axis for p in monoid.parts for axis in block_box_axes(p)]
    if isinstance(monoid, FreeCommutative):
        return [(lambda n: [(a,) for a in range(n)], lambda n: [(n - 1,)] if n else [])] * monoid.dim
    if isinstance(monoid, FreeAbelian):
        def new(n):
            return [(-n,), (n,)] if n > 1 else [(-1,), (0,), (1,)] if n else []

        return [(lambda n: [(a,) for a in range(-n, n + 1)] if n else [], new)] * monoid.dim
    return [(lambda n: list(monoid.elements()) if n else [],
             lambda n: list(monoid.elements()) if n == 1 else [])]


def block_box_shell(monoid, i):
    """The former box shell: each element concatenated from its blocks."""
    axes = block_box_axes(monoid)
    if not axes:
        return frozenset({()}) if i == 1 else frozenset()
    out = []
    for k, (_, new) in enumerate(axes):
        fresh = new(i)
        if fresh:
            before = [box(i - 1) for box, _ in axes[:k]]
            after = [box(i) for box, _ in axes[k + 1 :]]
            out.extend(sum(c, ()) for c in product(*before, fresh, *after))
    return frozenset(out)


@pytest.mark.parametrize(
    "monoid",
    BOX_MONOIDS + [
        FiniteAbelianMonoid(()), FiniteAbelianMonoid((2, 1, 3)),
        ProductMonoid((FiniteAbelianMonoid(()), Z1)),
        ProductMonoid((FiniteAbelianMonoid((2, 3)), Z2, FiniteAbelianMonoid((4,)))),
    ],
    ids=str,
)
def test_box_shells_match_the_block_construction(monoid):
    net = box_net(monoid)
    for i in range(1, 6 if monoid.dim < 4 else 4):
        assert net.shell(i).elements == block_box_shell(monoid, i), i


def test_shell_refuses_index_zero():
    with pytest.raises(ValueError):
        box_net(N1).shell(0)
    with pytest.raises(ValueError):
        sliding_net(N1).shell(0)


def test_verify_folner_boxes_of_Z():
    report = verify_folner(box_net(Z1), ms(Z1, [(1,), (-1,)]), 30)
    for n in (1, 10, 30):
        assert report.max_defect(n) == Fraction(2, 2 * n + 1)
    # the max defect never increases over the second half of the prefix
    back = [report.max_defect(i) for i in report.indices()[15:]]
    assert all(a >= b for a, b in zip(back, back[1:]))


def test_submonoid_boxes_are_folner_in_the_group():
    # [0, n) viewed inside Z still has vanishing defect under -1
    halfline = FolnerNet(Z1, lambda n: ms(Z1, [(i,) for i in range(n)]), "N-boxes")
    report = verify_folner(halfline, ms(Z1, [(-1,)]), 40)
    assert report.max_defect(40) == Fraction(2, 40)


def test_constant_net_on_finite_group_has_zero_defect():
    g = FiniteAbelianMonoid((6,))
    report = verify_folner(box_net(g), ms(g, [(1,), (5,)]), 4)
    assert report.tail_max() == 0


# --- verify_folner against the element-wise table ------------------------------


def verify_folner_by_elements(net, test, prefix):
    """Oracle: every F_i built whole, every F_i s and F_i E translated."""
    report = DefectReport(net.label)
    for i in range(1, prefix + 1):
        f = net.subset(i)
        size = len(f)
        for s in test:
            moved = f.translate(s).elements
            report.rows.append(DefectRow(i, size, s, Fraction(len(moved ^ f.elements), size)))
        fe = set_product(f, test).elements
        report.rows.append(DefectRow(i, size, "E", Fraction(len(fe ^ f.elements), size)))
    return report


def probe_set(monoid):
    """The identity, the generators, a sum of two of them, and an inverse;
    every element of the capped monoid."""
    if monoid == CAP:
        return ms(CAP, CAP.elements())
    gens = monoid.generators()
    out = [monoid.identity, *gens]
    if len(gens) > 1:
        out.append(monoid.op(gens[0], gens[-1]))
    if gens and monoid.is_group:
        out.append(monoid.inverse(gens[0]))
    return ms(monoid, out)


CAP = CappedAdd(3)


def capped_prefix(n):
    return frozenset((i,) for i in range(min(n, 4)))


def capped_nets():
    """Nets on {0, ..., 3} under min(3, x + y), where |F s| < |F| happens:
    {0, .., n - 1} (nested, by its shells) and {n mod 4, .., 3} (not nested)."""
    yield FolnerNet(CAP, lambda n: MSubset(CAP, capped_prefix(n)), "cap-prefix",
                    lambda n: capped_prefix(n) - capped_prefix(n - 1)), 6
    yield FolnerNet(CAP, lambda n: MSubset(CAP, frozenset((i,) for i in range(n % 4, 4))), "cap-tail"), 7


@pytest.mark.parametrize(
    "net, prefix", [(net, prefix) for net, prefix, _ in every_net_family()] + list(capped_nets()), ids=repr
)
def test_verify_folner_matches_the_elementwise_table(net, prefix):
    for test in (probe_set(net.monoid), ms(net.monoid, [])):
        assert verify_folner(net, test, prefix).rows == verify_folner_by_elements(net, test, prefix).rows


def test_capped_translates_shrink():
    # {0, .., 3} (1) = {1, 2, 3}: the defect counts the lost element once
    net, _ = next(capped_nets())
    report = verify_folner(net, ms(CAP, [(1,)]), 5)
    assert [r.ratio for r in report.rows if r.element == (1,)] == [
        Fraction(2, 1), Fraction(2, 2), Fraction(2, 3), Fraction(1, 4), Fraction(1, 4)
    ]


def refuse(i):
    raise AssertionError(f"F_{i} was built whole")


@pytest.mark.parametrize("monoid", [N2, Z2, FiniteAbelianMonoid((2, 3)), ProductMonoid((N1, Z1))])
def test_verify_folner_builds_no_set_of_a_nested_net(monoid):
    net = box_net(monoid)
    net._generate = refuse
    test = probe_set(monoid)
    want = verify_folner_by_elements(box_net(monoid), test, 5)
    assert verify_folner(net, test, 5).rows == want.rows


@pytest.mark.parametrize("net, prefix, nested", list(every_net_family()), ids=repr)
def test_net_size_is_the_size_of_the_set(net, prefix, nested):
    assert [net.size(i) for i in range(1, prefix + 1)] == [len(net.subset(i)) for i in range(1, prefix + 1)]


def test_box_and_product_nets_tell_their_sizes_without_building_a_set():
    z5 = FreeAbelian(5)
    net = box_net(z5)
    net._generate = refuse
    assert [net.size(i) for i in range(1, 5)] == [3**5, 5**5, 7**5, 9**5]
    pair = product_net(box_net(N1), box_net(Z1))
    pair._generate = refuse
    assert [pair.size(i) for i in range(1, 5)] == [3, 5, 6, 10]


def shells_built(net):
    """Record the indices whose shell ``net`` builds."""
    built, shell = [], net._shell
    net._shell = lambda i: built.append(i) or shell(i)
    return built


def test_verify_folner_stops_before_building_a_set_over_the_budget():
    """|F_i| of Z^5 boxes is 3^5, 5^5, 7^5, 9^5: a budget between two sizes
    stops at the larger one's index, before its shell is built."""
    z5 = FreeAbelian(5)
    test = ms(z5, [(1, 0, 0, 0, 0)])
    for budget, index in ((10, 1), (3**5, 2), (7**5 - 1, 3)):
        net = box_net(z5)
        built = shells_built(net)
        with pytest.raises(BudgetExceededError) as err:
            verify_folner(net, test, 4, budget)
        assert err.value.index == index
        assert str(err.value) == f"F_{index} has {(2 * index + 1) ** 5} elements, over the budget of {budget}"
        assert built == list(range(1, index))
    rows = verify_folner(box_net(z5), test, 3, 7**5).rows
    assert rows == verify_folner(box_net(z5), test, 3).rows


def test_verify_folner_budget_on_a_net_that_cannot_tell_its_sizes():
    # F_i = [-i, i] + {3, -2} holds 6, 10, 12, 14, 16 points
    net = translate_net(box_net(Z1), ms(Z1, [(3,), (-2,)]))
    with pytest.raises(BudgetExceededError) as err:
        verify_folner(net, ms(Z1, [(1,)]), 5, 11)
    assert (err.value.index, str(err.value)) == (3, "F_3 has 12 elements, over the budget of 11")
    assert len(verify_folner(net, ms(Z1, [(1,)]), 5, 16).rows) == 10


def test_folner_verify_run_exits_three_at_the_net_index(tmp_path):
    sc = {"kind": "folner-verify", "monoid": {"family": "Z^d", "dim": 5},
          "test": [[1, 0, 0, 0, 0]], "net": {"family": "box"}, "prefix": 4}
    source = tmp_path / "z5.json"
    source.write_text(json.dumps(sc))
    assert run_scenario(str(source), tmp_path, budget=10) == (
        3, "budget exceeded: F_1 has 243 elements, over the budget of 10 (net index 1)"
    )
    assert not (tmp_path / "z5.csv").exists()
    sc["monoid"] = {"family": "product", "parts": [{"family": "N^d", "dim": 1}, {"family": "Z^d", "dim": 1}]}
    sc.update(test=[[1, 0]], net={"family": "product"})
    source.write_text(json.dumps(sc))
    assert run_scenario(str(source), tmp_path, budget=5) == (
        3, "budget exceeded: F_3 has 6 elements, over the budget of 5 (net index 3)"
    )


# --- canonical nets ------------------------------------------------------------

def test_canonical_minimal_boxes_in_Z():
    net = CanonicalNet(Z1)
    f = net.at(ms(Z1, [(0,), (1,)]), 2)
    assert f.elements == {(i,) for i in range(4)}
    assert net.at(ms(Z1, [(0,)]), 9).elements == {(0,)}


def test_canonical_minimal_boxes_in_Z2():
    net = CanonicalNet(Z2)
    f = net.at(ms(Z2, [(1, 0)]), 4)
    assert len(f) == 64  # the 8x8 box is the first with defect <= 1/4


def test_canonical_nets_meet_their_precision():
    rng = random.Random(3)
    for mon in (N1, Z1, FreeCommutative(2)):
        net = CanonicalNet(mon)
        for _ in range(20):
            e = MSubset(mon, frozenset(mon.sample(rng, 3) for _ in range(2)))
            n = rng.randint(1, 9)
            f = net.at(e, n)
            for s in e:
                assert n * len(f.translate(s).elements ^ f.elements) <= len(f)


def test_canonical_search_stops_before_a_box_over_the_budget(monkeypatch):
    """Boxes of Z^3 with sides 1, 2, 3 hold 1, 8, 27 cells: a budget of 10
    stops the search before it builds the box of side 3."""
    built, cells = [], BoxSubset.__iter__  # the side of each box whose cells are built
    monkeypatch.setattr(BoxSubset, "__iter__", lambda self: built.append(self.hi[0] + 1) or cells(self))
    net = CanonicalNet(FreeAbelian(3), 10)
    with pytest.raises(BudgetExceededError) as err:
        net.at(ms(net.monoid, [(1, 0, 0), (0, 1, 0)]), 60)
    assert str(err.value) == "a canonical box of side 3 takes the cells built to 36, over the budget of 10"
    assert built == [1, 2]


def test_canonical_searches_share_one_budget():
    # {0, 1} at precision 1/2 needs the side 4 (1 + 2 + 3 + 4 = 10 cells
    # searched), and at 1/3 the side 6 (21 more); a memoized box costs none
    e = ms(Z1, [(0,), (1,)])
    for budget, ok in ((30, False), (31, True)):
        net = CanonicalNet(Z1, budget)
        assert len(net.at(e, 2)) == 4 and len(net.at(e, 2)) == 4
        if ok:
            assert len(net.at(e, 3)) == 6
        else:
            with pytest.raises(BudgetExceededError, match="side 6 takes the cells built to 31"):
                net.at(e, 3)


def test_canonical_net_run_exits_three_within_its_budget(tmp_path):
    sc = {"kind": "canonical-net", "monoid": {"family": "Z^d", "dim": 3},
          "requests": [{"test": [[1, 0, 0], [0, 1, 0]], "n": 60}], "budget": 10}
    source = tmp_path / "z3.json"
    source.write_text(json.dumps(sc))
    assert run_scenario(str(source), tmp_path) == (
        3, "budget exceeded: a canonical box of side 3 takes the cells built to 36, over the budget of 10"
    )


# --- derived nets ---------------------------------------------------------------

def test_translate_net_grows_boxes():
    net = translate_net(
        FolnerNet(N1, lambda n: ms(N1, [(i,) for i in range(n)]), "boxes"),
        ms(N1, [(0,), (1,)]),
    )
    assert net.subset(4).elements == {(i,) for i in range(5)}


def test_translate_net_size_ratio_tends_to_one():
    base = box_net(Z1)
    moved = translate_net(base, ms(Z1, [(0,), (1,)]))
    ratios = [Fraction(len(moved.subset(n)), len(base.subset(n))) for n in (2, 8, 32)]
    assert ratios[0] > ratios[1] > ratios[2] > 1
    assert ratios[2] == Fraction(66, 65)


def test_product_net_diagonal_linearization():
    net = product_net(box_net(Z1), box_net(Z1))
    # pairs with max(i, j) <= k are exhausted after k^2 indices, and each
    # block ends on the diagonal pair (k, k)
    assert len(net.subset(1)) == 9  # (1,1): [-1,1] x [-1,1]
    assert len(net.subset(4)) == 25  # (2,2)
    assert len(net.subset(9)) == 49  # (3,3)
    # block k, written out: (1, k) .. (k - 1, k), (k, 1) .. (k, k - 1), (k, k)
    pairs = [
        p for k in range(1, 8) for p in [(a, k) for a in range(1, k)] + [(k, b) for b in range(1, k)] + [(k, k)]
    ]
    boxes = box_net(Z1)
    for i, (a, b) in enumerate(pairs, start=1):
        product_box = {h + k for h in boxes.subset(a).elements for k in boxes.subset(b).elements}
        assert net.subset(i).elements == product_box
    report = verify_folner(net, ms(net.monoid, [(1, 0), (0, 1)]), 16)
    assert report.max_defect(16) < report.max_defect(1)


def test_product_net_defect_matches_factor_defect():
    net = product_net(box_net(Z1), box_net(Z1))
    f = net.subset(9)  # (3, 3): [-3,3] x [-3,3]
    moved = f.translate((1, 0)).elements
    assert Fraction(len(moved ^ f.elements), len(f)) == Fraction(2, 7)


def test_kernel_box_net_embeds_kernel():
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    pi = projection_hom(s, (1,))
    net = kernel_box_net(pi)
    assert net.subset(3).elements == {(0, 0), (1, 0)}


KERNEL_HOMS = {
    "project-2xZ-0": lambda: projection_hom(ProductMonoid((FiniteAbelianMonoid((2,)), Z1)), (0,)),
    "project-2xZ-1": lambda: projection_hom(ProductMonoid((FiniteAbelianMonoid((2,)), Z1)), (1,)),
    "project-N3": lambda: projection_hom(FreeCommutative(3), (1,)),
    "mod-Z2": lambda: mod_hom(Z2, (3, 2)),
    "mod-N1": lambda: mod_hom(N1, (4,)),
    "project-N1-all": lambda: projection_hom(N1, (0,)),
    "semidirect": lambda: semidirect_quotient_hom(SemidirectZZ()),
}


@pytest.mark.parametrize("make_pi", KERNEL_HOMS.values(), ids=KERNEL_HOMS.keys())
def test_kernel_box_net_shells_partition_its_boxes(monkeypatch, make_pi):
    pi = make_pi()
    want = [kernel_box_net(pi).subset(i).elements for i in range(1, 6)]
    net = kernel_box_net(pi)
    assert net.nested
    monkeypatch.setattr(FolnerNet, "subset", lambda self, i: pytest.fail(f"F_{i} was built"))
    shells = [net.shell(i).elements for i in range(1, 6)]
    increments = list(net.increments(5))
    monkeypatch.undo()
    held = set()
    for i, shell in enumerate(shells, start=1):
        assert not held & shell
        held |= shell
        assert held == want[i - 1], i
        assert increments[i - 1] == (i, shell, False, len(held))


# --- split extension nets --------------------------------------------------------

def test_split_extension_trivial_corrections_on_Z2():
    pi = projection_hom(Z2, (0,))
    sigma = find_good_section(pi)
    net = split_extension_net(CanonicalNet(FreeAbelian(1)), CanonicalNet(FreeAbelian(1)), pi, sigma)
    x = ms(FreeAbelian(1), [(0,), (1,)])
    y = ms(FreeAbelian(1), [(0,), (1,)])
    f = net.at(x, 4, y, 2)
    n_size = len(CanonicalNet(FreeAbelian(1)).at(x, 4))
    c_size = len(CanonicalNet(FreeAbelian(1)).at(y, 2))
    assert len(f) == n_size * c_size


def test_split_extension_net_on_semidirect():
    g = SemidirectZZ()
    pi = semidirect_quotient_hom(g)
    sigma = find_good_section(pi)
    net = split_extension_net(CanonicalNet(FreeAbelian(2)), CanonicalNet(FreeAbelian(1)), pi, sigma)
    x = ms(FreeAbelian(2), [(0, 0), (1, 0), (0, 1)])
    y = ms(FreeAbelian(1), [(0,), (1,)])
    for (m, n) in [(2, 2), (4, 2), (4, 3)]:
        f = net.at(x, m, y, n)
        for xe in x:
            for ye in y:
                shift = g.op((xe[0], xe[1], 0), sigma(ye))
                assert n * len(f.translate(shift).elements ^ f.elements) <= 3 * len(f)


def test_split_extension_cardinality_law():
    g = SemidirectZZ()
    pi = semidirect_quotient_hom(g)
    sigma = find_good_section(pi)
    n_canon = CanonicalNet(FreeAbelian(2))
    c_canon = CanonicalNet(FreeAbelian(1))
    net = split_extension_net(n_canon, c_canon, pi, sigma)
    lin = net.folner_net()
    for i in (1, 3, 6):
        assert len(lin.subset(i)) > 0  # the internal bijection assert ran


# --- semidirect defect ------------------------------------------------------------

def test_semidirect_defect_lower_bound_on_diagonal():
    for n in (4, 8, 16):
        delta = semidirect_defect(n, n, (0, 1))
        assert delta == Fraction(n * n + 1, 2 * n * n)
        assert delta >= Fraction(1, 4)


def test_semidirect_defect_identity_is_zero():
    assert semidirect_defect(5, 7, (0, 0, 0)) == 0


def test_semidirect_defect_vanishes_for_large_m():
    assert semidirect_defect(4, 400, (0, 1)) == Fraction(3994, 640000) < Fraction(1, 20)


def test_semidirect_defect_budget(tmp_path):
    """The budget bounds the n slices that the count walks, whatever m is."""
    assert 0 < semidirect_defect(10, 10**6, (0, 1), budget=10) < Fraction(1, 10**5)
    with pytest.raises(BudgetExceededError):
        semidirect_defect(11, 1, (0, 1), budget=10)
    path = tmp_path / "slices.json"
    path.write_text(json.dumps(dict(BUILTINS["semidirect-defect-flat"], pairs=[[4, 10**6], [11, 1]])))
    code, message = run_scenario(str(path), budget=10)
    assert (code, message) == (3, "budget exceeded: 11 slices exceed budget 10")


def test_semidirect_defect_counts_large_m_within_a_slice_budget():
    assert semidirect_defect(100, 1000, (0, 1), budget=10**6) == per_coordinate_defect(100, 1000, (0, 1))


@pytest.mark.parametrize("seed", range(10))
def test_semidirect_defect_matches_full_enumeration(seed):
    rng = random.Random(seed)
    g = SemidirectZZ()
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    x = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
    block = {(a1, a2, c) for a1 in range(m) for a2 in range(m) for c in range(n)}
    moved = {g.op(el, x) for el in block}
    assert semidirect_defect(n, m, x) == Fraction(len(moved - block), len(block))


def per_coordinate_defect(n, m, x):
    """Oracle: the defect with each slice's escape count enumerated per
    coordinate, point by point on each axis."""
    g = SemidirectZZ()
    x = tuple(x) if len(x) == 3 else (x[0], x[1], 0)
    escaped = 0
    for c in range(n):
        w1 = g.phi(c)[0][0] * x[0] + g.phi(c)[0][1] * x[1]
        w2 = g.phi(c)[1][0] * x[0] + g.phi(c)[1][1] * x[1]
        if not 0 <= c + x[2] < n:
            escaped += m * m
            continue
        stay1 = sum(1 for a in range(m) if 0 <= a + w1 < m)
        stay2 = sum(1 for a in range(m) if 0 <= a + w2 < m)
        escaped += m * m - stay1 * stay2
    return Fraction(escaped, n * m * m)


def test_semidirect_defect_matches_the_per_coordinate_count():
    rng = random.Random("semidirect-defect")
    for _ in range(3000):
        n, m = rng.randint(1, 9), rng.randint(1, 14)
        x = [rng.randint(-15, 15), rng.randint(-15, 15)]
        if rng.random() < 0.7:
            x.append(rng.randint(-n, n))
        assert semidirect_defect(n, m, x) == per_coordinate_defect(n, m, x), (n, m, x)


# --- eps-disjointness ----------------------------------------------------------------

def brute_eps_disjoint(sets, need):
    """Exponential oracle: search all disjoint sub-selections."""
    def rec(j, used):
        if j == len(sets):
            return True
        pool = sorted(sets[j] - used)
        for pick in combinations(pool, need[j]):
            if rec(j + 1, used | set(pick)):
                return True
        return False

    return rec(0, set())


def test_eps_disjoint_disjoint_family():
    f1 = ms(N1, [(0,), (1,)])
    f2 = ms(N1, [(5,), (6,)])
    ok, cert = is_eps_disjoint([f1, f2], Fraction(1, 2))
    assert ok
    assert cert[0].elements <= f1.elements and cert[1].elements <= f2.elements


def test_eps_disjoint_identical_sets_fail():
    y = ms(N1, [(i,) for i in range(10)])
    ok, cert = is_eps_disjoint([y, y], Fraction(2, 5))
    assert not ok and cert is None


def test_eps_disjoint_small_overlap_passes():
    y1 = ms(N1, [(i,) for i in range(10)])
    y2 = ms(N1, [(i,) for i in range(9, 19)])
    ok, cert = is_eps_disjoint([y1, y2], Fraction(1, 10))
    assert ok
    assert cert[0].elements.isdisjoint(cert[1].elements)
    assert len(cert[0]) >= 9 and len(cert[1]) >= 9


@pytest.mark.parametrize("seed", range(20))
def test_eps_disjoint_matches_brute_force(seed):
    rng = random.Random(seed)
    sets = []
    for _ in range(rng.randint(2, 3)):
        sets.append(frozenset((i,) for i in rng.sample(range(8), rng.randint(2, 5))))
    eps = Fraction(rng.randint(1, 4), 5)
    family = [MSubset(N1, s) for s in sets]
    need = []
    for s in sets:
        bound = (1 - eps) * len(s)
        need.append(max(0, -(-bound.numerator // bound.denominator)))
    ok, cert = is_eps_disjoint(family, eps)
    assert ok == brute_eps_disjoint(list(sets), need)
    if ok:
        chosen = [c.elements for c in cert]
        assert all(len(z) >= k for z, k in zip(chosen, need))
        for a, b in combinations(chosen, 2):
            assert a.isdisjoint(b)


# --- tilings ------------------------------------------------------------------------

def interval_tiling():
    d = ms(N1, [(i,) for i in range(10)])
    tile = ms(N1, [(0,), (1,), (2,)])
    centers = ms(N1, [(0,), (3,), (6,)])
    return d, TilingWitness((tile,), (centers,))


def test_check_tiling_interval_example():
    d, w = interval_tiling()
    report = check_tiling(d, w, Fraction(3, 20))
    assert report.ok
    assert (report.d, report.u, report.b) == (10, 9, 9)


def test_check_tiling_empty_centers_fail_covering():
    d = ms(N1, [(i,) for i in range(10)])
    w = TilingWitness((ms(N1, [(0,)]),), (MSubset(N1, frozenset()),))
    report = check_tiling(d, w, Fraction(3, 20))
    assert not report.covers and not report.ok


def test_check_tiling_overlapping_centers_fail():
    d = ms(N1, [(i,) for i in range(10)])
    w = TilingWitness((ms(N1, [(0,), (1,), (2,)]),), (ms(N1, [(0,), (1,)]),))
    report = check_tiling(d, w, Fraction(3, 20))
    # the translates {0,1,2} and {1,2,3} overlap: at eps = 0.15 the family is
    # not eps-disjoint and the mass clause b - u < eps b fails as well
    assert not report.within and not report.mass and not report.ok


def test_check_tiling_cross_tile_overlap_fails_disjointness():
    d = ms(N1, [(i,) for i in range(10)])
    w = TilingWitness(
        (ms(N1, [(0,), (1,), (2,)]), ms(N1, [(0,), (1,)])),
        (ms(N1, [(0,)]), ms(N1, [(2,)])),
    )
    report = check_tiling(d, w, Fraction(1, 2))
    assert not report.disjoint


def test_remtil_interval_example():
    d, w = interval_tiling()
    assert remtil_check(d, w, Fraction(3, 20))
    # |1/10 - 1/9| = 1/90 < 2 * 0.15 / 9


def test_remtil_rejects_invalid_witness():
    d = ms(N1, [(i,) for i in range(10)])
    w = TilingWitness((ms(N1, [(0,), (1,), (2,)]),), (ms(N1, [(0,), (1,)]),))
    with pytest.raises(InvalidWitnessError):
        remtil_check(d, w, Fraction(1, 2))


def test_greedy_tiler_square():
    d = ms(Z2, [(i, j) for i in range(20) for j in range(20)])
    t1 = ms(Z2, [(i, j) for i in range(4) for j in range(4)])
    t2 = ms(Z2, [(i, j) for i in range(3) for j in range(3)])
    w = greedy_tiler(d, [t2, t1], Fraction(1, 10))
    assert w is not None
    report = check_tiling(d, w, Fraction(1, 10))
    assert report.ok and report.u == report.b
    assert remtil_check(d, w, Fraction(1, 10))


def test_greedy_tiler_whole_region_as_tile():
    d = ms(N1, [(i,) for i in range(6)])
    w = greedy_tiler(d, [d], Fraction(1, 2))
    report = check_tiling(d, w, Fraction(1, 2))
    assert report.ok and report.u == report.d


def test_greedy_tiler_oversized_tiles_give_none():
    d = ms(N1, [(i,) for i in range(3)])
    big = ms(N1, [(i,) for i in range(5)])
    assert greedy_tiler(d, [big], Fraction(1, 10)) is None


def elementwise_check_tiling(d_set, witness, eps):
    """The former check_tiling: one frozenset per translate, built with
    monoid.op cell by cell."""
    eps = Fraction(eps)
    monoid = d_set.monoid
    placed = []
    within = True
    for tile, centers in zip(witness.tiles, witness.centers):
        translates = [
            MSubset(monoid, frozenset(monoid.op(s, t) for t in tile.elements))
            for s in sorted(centers.elements)
        ]
        tile_union = frozenset().union(*(t.elements for t in translates)) if translates else frozenset()
        if sum(len(t) for t in translates) != len(tile_union):
            ok, _ = is_eps_disjoint(translates, eps)
            within = within and ok
        placed.append(tile_union)
    union = frozenset().union(*placed) if placed else frozenset()
    disjoint = sum(len(p) for p in placed) == len(union)
    inside = union <= d_set.elements
    d = len(d_set)
    u = len(union)
    b = sum(len(c) * len(t) for c, t in zip(witness.centers, witness.tiles))
    covers = Fraction(d - u) < eps * d
    mass = 0 <= b - u and (Fraction(b - u) < eps * b if b else False)
    return TilingReport(d, u, b, disjoint, within, inside, covers, mass, eps)


def scan_greedy_tiler(d_set, tiles, eps, *, validate=True):
    """The former greedy_tiler: centers in sorted order, each rejected at
    the first cell of s F_j outside D or already covered."""
    eps = Fraction(eps)
    monoid = d_set.monoid
    tiles = sorted(tiles, key=len, reverse=True)
    d_elems = d_set.elements
    d = len(d_elems)
    covered: set = set()
    centers = []
    op = monoid.op
    done = False
    for tile in tiles:
        chosen = set()
        if not done:
            t_elems = sorted(tile.elements)
            for s in sorted(d_elems):
                if any((p := op(s, t)) not in d_elems or p in covered for t in t_elems):
                    continue
                covered.update(op(s, t) for t in t_elems)
                chosen.add(s)
                if Fraction(d - len(covered)) < eps * d:
                    done = True
                    break
        centers.append(MSubset(monoid, frozenset(chosen)))
    witness = TilingWitness(tuple(tiles), tuple(centers))
    if not validate:
        return witness
    return witness if elementwise_check_tiling(d_set, witness, eps).ok else None


def eager_greedy_tiler(d_set, tiles, eps):
    """An older scan: every cell of s F_j is placed before any is tested."""
    eps = Fraction(eps)
    monoid = d_set.monoid
    tiles = sorted(tiles, key=len, reverse=True)
    d_elems = d_set.elements
    d = len(d_elems)
    covered, centers, done = set(), [], False
    for tile in tiles:
        chosen = set()
        if not done:
            t_elems = sorted(tile.elements)
            for s in sorted(d_elems):
                placed = [monoid.op(s, t) for t in t_elems]
                if any(p not in d_elems or p in covered for p in placed):
                    continue
                covered.update(placed)
                chosen.add(s)
                if Fraction(d - len(covered)) < eps * d:
                    done = True
                    break
        centers.append(MSubset(monoid, frozenset(chosen)))
    witness = TilingWitness(tuple(tiles), tuple(centers))
    return witness if elementwise_check_tiling(d_set, witness, eps).ok else None


def box(monoid, sides, corner=None):
    corner = corner or (0,) * len(sides)
    return ms(monoid, product(*(range(c, c + n) for c, n in zip(corner, sides))))


def random_tile(rng, monoid, span):
    dim = monoid.dim
    low = 0 if isinstance(monoid, FreeCommutative) else -span
    cells = {tuple(rng.randint(low, span) for _ in range(dim)) for _ in range(rng.randint(1, 6))}
    return ms(monoid, cells)


def random_holed_cases(seeds=range(8)):
    for seed in seeds:
        rng = random.Random(seed)
        monoid = [N2, Z2, Z3][seed % 3]
        dim = monoid.dim
        sides = [rng.randint(3, 9) for _ in range(dim)]
        corner = None if monoid is N2 else [rng.randint(-4, 4) for _ in range(dim)]
        region = box(monoid, sides, corner).elements
        holes = {c for c in region if rng.random() < 0.15}
        tiles = [random_tile(rng, monoid, 2) for _ in range(rng.randint(1, 3))]
        tiles.append(box(monoid, [rng.randint(1, 3) for _ in range(dim)]))
        eps = Fraction(rng.randint(1, 9), 10)
        yield f"holed-{seed}", MSubset(monoid, region - holes), tiles, eps


def tiler_cases():
    holed = box(Z2, (12, 12)).elements - {(3, 3), (3, 4), (7, 9), (11, 0)}
    yield "interval", box(N1, (17,)), [box(N1, (5,)), box(N1, (2,))], Fraction(1, 20)
    yield "interval-exact", box(N1, (12,)), [box(N1, (3,))], Fraction(1, 2)
    yield "square-with-holes", MSubset(Z2, holed), [box(Z2, (4, 4)), box(Z2, (2, 2))], Fraction(1, 4)
    yield (
        "negative-corner", box(Z2, (9, 7), (-5, -3)),
        [box(Z2, (3, 2), (-1, -1)), box(Z2, (1, 1))], Fraction(1, 10),
    )
    yield (
        "no-identity", box(Z2, (10, 10), (-4, -4)),
        [ms(Z2, [(1, 2), (2, 2), (1, 3)]), ms(Z2, [(-1, 0)])], Fraction(1, 5),
    )
    yield (
        "gapped-tile", box(Z1, (20,), (-9,)),
        [ms(Z1, [(-1,), (1,), (2,)]), box(Z1, (2,), (3,))], Fraction(1, 3),
    )
    yield "unreachable", box(Z2, (5, 5)), [box(Z2, (3, 3))], Fraction(1, 10)
    yield "oversized", box(N1, (3,)), [box(N1, (5,))], Fraction(1, 10)
    yield "N2-region", box(N2, (11, 8)), [box(N2, (3, 3)), ms(N2, [(0, 0), (1, 2)])], Fraction(1, 3)
    yield "Z3-box", box(Z3, (6, 5, 4), (-2, 0, -3)), [box(Z3, (2, 2, 2)), box(Z3, (1, 1, 1))], Fraction(1, 10)
    yield "empty-tile", box(Z2, (5, 5)), [MSubset(Z2, frozenset()), box(Z2, (2, 2))], Fraction(1, 10)
    yield "empty-tile-alone", box(Z2, (3, 3)), [MSubset(Z2, frozenset())], Fraction(2)
    yield "empty-region", MSubset(Z2, frozenset()), [box(Z2, (2, 2))], Fraction(1, 2)
    yield "far-cell", box(Z2, (6, 6)), [ms(Z2, [(0, 0), (10**9, 0)]), box(Z2, (2, 2))], Fraction(1, 5)
    # s + (0, 9) for s on the right edge of D lands in the next row of a
    # frame that is only D's bounding box
    yield "row-wrap", box(Z2, (5, 12)), [ms(Z2, [(0, 0), (0, 9)])], Fraction(3, 5)
    edge = box(Z2, (5, 12)).elements - {(1, 9), (3, 0)}
    yield "row-wrap-holed", MSubset(Z2, edge), [ms(Z2, [(0, 0), (0, 9)]), box(Z2, (1, 2))], Fraction(1, 10)
    rng = random.Random(80)
    wide = {c for c in box(Z2, (80, 70)).elements if rng.random() > 0.05}
    ell = ms(Z2, [(0, 0), (1, 0), (2, 0), (2, 1)])
    yield "wide-holed", MSubset(Z2, wide), [box(Z2, (3, 3)), ell, box(Z2, (1, 2))], Fraction(1, 10)
    yield from random_holed_cases()


NO_WITNESS = ("unreachable", "oversized", "empty-tile", "empty-tile-alone", "empty-region")


@pytest.mark.parametrize("case", list(tiler_cases()), ids=lambda case: case[0])
def test_greedy_tiler_matches_the_eager_scan(case):
    name, d, tiles, eps = case
    want = eager_greedy_tiler(d, tiles, eps)
    assert greedy_tiler(d, tiles, eps) == want
    if want is None:
        assert name in NO_WITNESS or name.startswith("holed-")
        assert not check_tiling(d, greedy_tiler(d, tiles, eps, validate=False), eps).ok
    else:
        assert greedy_tiler(d, tiles, eps, validate=False) == want


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("case", list(tiler_cases()), ids=lambda case: case[0])
def test_greedy_tiler_matches_the_elementwise_scan(case, validate):
    _, d, tiles, eps = case
    assert greedy_tiler(d, tiles, eps, validate=validate) == scan_greedy_tiler(
        d, tiles, eps, validate=validate
    )


@pytest.mark.parametrize("case", list(tiler_cases()), ids=lambda case: case[0])
def test_check_tiling_matches_the_elementwise_check(case):
    _, d, tiles, eps = case
    witness = scan_greedy_tiler(d, tiles, eps, validate=False)
    assert check_tiling(d, witness, eps) == elementwise_check_tiling(d, witness, eps)


@pytest.mark.parametrize("seed", range(6))
def test_first_fit_matches_the_whole_mask_scan(seed):
    rng = random.Random(seed)
    fits = rng.getrandbits(rng.choice([100, 5000, 40000]))
    clash = rng.getrandbits(rng.choice([3, 300, 6000])) | 1
    want, rest = [], fits
    while rest:
        at = (rest & -rest).bit_length() - 1
        want.append(at)
        rest &= ~(clash << at)
    assert list(_first_fit(fits, clash)) == want


def check_only_cases():
    d1 = box(N1, (10,))
    tri = ms(N1, [(0,), (1,), (2,)])
    yield "overlapping", d1, TilingWitness((tri,), (ms(N1, [(0,), (1,)]),)), Fraction(3, 20)
    yield "overlapping-loose", d1, TilingWitness((tri,), (ms(N1, [(0,), (2,), (5,)]),)), Fraction(1, 2)
    yield (
        "cross-tile", d1,
        TilingWitness((tri, ms(N1, [(0,), (1,)])), (ms(N1, [(0,)]), ms(N1, [(2,)]))), Fraction(1, 2),
    )
    d2 = box(Z2, (6, 6), (-1, -1))
    sq = box(Z2, (3, 3))
    yield "outside-D", d2, TilingWitness((sq,), (ms(Z2, [(-1, -1), (3, 3), (40, -25)]),)), Fraction(1, 2)
    yield "outside-D-overlap", d2, TilingWitness((sq,), (ms(Z2, [(4, 4), (5, 6)]),)), Fraction(1, 2)
    yield (
        "empty-region", MSubset(Z2, frozenset()),
        TilingWitness((sq,), (ms(Z2, [(0, 0)]),)), Fraction(1, 2),
    )
    yield "no-centers", d2, TilingWitness((sq,), (MSubset(Z2, frozenset()),)), Fraction(1, 2)
    yield (
        "empty-tile", d2,
        TilingWitness((MSubset(Z2, frozenset()), sq), (ms(Z2, [(0, 0)]), ms(Z2, [(0, 0)]))),
        Fraction(1, 2),
    )


@pytest.mark.parametrize("case", list(check_only_cases()), ids=lambda case: case[0])
def test_check_tiling_matches_on_bad_witnesses(case):
    _, d, witness, eps = case
    assert check_tiling(d, witness, eps) == elementwise_check_tiling(d, witness, eps)


def as_box(subset):
    """The BoxSubset of the same cells when ``subset`` fills its bounding
    box (an empty subset gives an empty box), else ``subset`` itself."""
    if not len(subset):
        dim = subset.monoid.dim
        return BoxSubset(subset.monoid, (0,) * dim, (-1,) * dim)
    cols = list(zip(*subset.elements))
    lo, hi = [min(c) for c in cols], [max(c) for c in cols]
    if len(subset) != prod(b - a + 1 for a, b in zip(lo, hi)):
        return subset
    return BoxSubset(subset.monoid, lo, hi)


def boxed_tiler_cases():
    for name, d, tiles, eps in tiler_cases():
        boxed = [as_box(t) for t in tiles]
        if isinstance(as_box(d), BoxSubset) or any(isinstance(t, BoxSubset) for t in boxed):
            yield name, d, tiles, as_box(d), boxed, eps


def boxed_check_only_cases():
    for name, d, witness, eps in check_only_cases():
        boxed = TilingWitness(tuple(map(as_box, witness.tiles)), witness.centers)
        yield name, d, witness, as_box(d), boxed, eps


@pytest.mark.parametrize("case", list(boxed_tiler_cases()), ids=lambda case: case[0])
def test_greedy_tiler_reads_a_box_by_its_bounds(case):
    _, d, tiles, d_box, box_tiles, eps = case
    want = eager_greedy_tiler(d, tiles, eps)
    assert greedy_tiler(d_box, box_tiles, eps) == greedy_tiler(d, tiles, eps) == want
    witness = greedy_tiler(d_box, box_tiles, eps, validate=False)
    assert witness == greedy_tiler(d, tiles, eps, validate=False)
    assert witness == scan_greedy_tiler(d, tiles, eps, validate=False)
    report = check_tiling(d_box, witness, eps)
    assert report == check_tiling(d, witness, eps) == elementwise_check_tiling(d, witness, eps)
    if isinstance(d_box, BoxSubset):
        assert "elements" not in vars(d_box), "a box region's cells were built"


@pytest.mark.parametrize("case", list(boxed_check_only_cases()), ids=lambda case: case[0])
def test_check_tiling_reads_a_box_by_its_bounds(case):
    _, d, witness, d_box, boxed, eps = case
    report = check_tiling(d_box, boxed, eps)
    assert report == check_tiling(d, witness, eps) == elementwise_check_tiling(d, witness, eps)


def per_cell_decode(frame, index):
    """Oracle: the cell at one bit index, one divmod per coordinate."""
    out = []
    for a, stride in zip(frame.lo, frame.strides):
        q, index = divmod(index, stride)
        out.append(a + q)
    return tuple(out)


def test_frame_cells_match_the_per_cell_decode():
    rng = random.Random("frame-cells")
    for _ in range(300):
        dim = rng.randint(0, 3)
        lo = [rng.randint(-9, 5) for _ in range(dim)]
        hi = [a + rng.randint(0, 6) for a in lo]
        frame = _Frame(lo, hi)
        size = prod(b - a + 1 for a, b in zip(lo, hi))
        indices = sorted(rng.sample(range(size), rng.randint(0, size)))
        cells = frame.cells(indices)
        assert cells == [per_cell_decode(frame, at) for at in indices]
        assert [frame.offset(c) - frame.origin for c in cells] == indices


def test_box_subset_is_the_subset_of_its_cells():
    cells = box(Z2, (3, 2), (-1, 4))
    b = BoxSubset(Z2, (-1, 4), (1, 5))
    assert len(b) == 6 and b == cells and cells == b and hash(b) == hash(cells)
    assert list(b) == list(cells) and b.sorted_key() == cells.sorted_key()
    assert (0, 5) in b and (2, 5) not in b and (0,) not in b
    assert b != box(Z2, (3, 3), (-1, 4)) and b != BoxSubset(Z2, (-1, 4), (1, 6))
    assert b != ms(Z2, [(-1, 4), (0, 4), (1, 4), (-1, 5), (0, 5), (9, 9)])
    assert b != box(FreeCommutative(2), (3, 2)) and BoxSubset(Z2, (0, 0), (2, 1)) != box(N2, (3, 2))
    empty = BoxSubset(Z2, (0, 5), (3, 4))
    assert len(empty) == 0 and empty == MSubset(Z2, frozenset()) == BoxSubset(Z2, (1, 1), (0, 9))
    assert BoxSubset(N2, (0, 0), (4, 0)) == box(N2, (5, 1))
    with pytest.raises(MonoidMismatchError):
        BoxSubset(N2, (-1, 0), (2, 2))
    with pytest.raises(MonoidMismatchError):
        BoxSubset(Z2, (0,), (2,))
    z3 = FiniteAbelianMonoid((3,))
    assert BoxSubset(z3, (0,), (2,)) == z3.window(0) == ms(z3, z3.elements())
    with pytest.raises(MonoidMismatchError):
        BoxSubset(z3, (0,), (3,))
    with pytest.raises(MonoidMismatchError):
        BoxSubset(SemidirectZZ(), (0, 0, 0), (1, 1, 1))


def test_tiling_a_million_cell_region_holds_no_cell_tuples(tmp_path):
    """The region and tiles travel as bounds: at region side 1000 in dim 2
    the run peaks at about 3 MB, where a frozenset of the 10^6 cells and
    their coordinate columns took about 105 MB."""
    import json
    import tracemalloc

    from amenact.cli import BUILTINS, run_scenario

    path = tmp_path / "tiling-million.json"
    path.write_text(json.dumps(dict(BUILTINS["tiling-square"], region=1000, budget=10**6)))
    tracemalloc.start()
    try:
        code, message = run_scenario(str(path), out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, message
    assert (tmp_path / "tiling-million.csv").read_text().splitlines()[1].startswith("1000000,")
    assert peak < 16 * 2**20


def test_tiling_refuses_a_frame_over_the_bound():
    import tracemalloc

    sparse = ms(Z2, [(0, 0), (10**9, 10**9)])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="frame"):
            greedy_tiler(sparse, [box(Z2, (1, 1))], Fraction(1, 2))
        far = TilingWitness((box(Z2, (1, 1)),), (ms(Z2, [(10**9, 10**9)]),))
        with pytest.raises(BudgetExceededError, match="frame"):
            check_tiling(box(Z2, (2, 2)), far, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tiling_refuses_other_families():
    g = FiniteAbelianMonoid((2, 3))
    region = MSubset(g, frozenset(g.elements()))
    tile = ms(g, [g.identity])
    with pytest.raises(UndecidableFamilyError):
        greedy_tiler(region, [tile], Fraction(1, 2))
    with pytest.raises(UndecidableFamilyError):
        check_tiling(region, TilingWitness((tile,), (tile,)), Fraction(1, 2))


def test_tiling_square_makes_no_monoid_op_call(tmp_path, monkeypatch):
    """A count of work, not of time: the packed tiler and check never
    multiply two monoid elements."""
    from amenact.cli import run_scenario

    calls = []
    op = FreeAbelian.op
    monkeypatch.setattr(FreeAbelian, "op", lambda self, x, y: calls.append(x) or op(self, x, y))
    assert run_scenario("tiling-square", out_dir=tmp_path)[0] == 0
    assert calls == []
