"""Serialized report shapes: the CSV column contracts stay fixed."""

import math
import sys
from fractions import Fraction

from amenact.abelian import DirectSum, FiniteProduct, Subgroup
from amenact.actions import Action, h_alg_estimate, shift_endo
from amenact.duality import bridge_check
from amenact.folner import CanonicalNet, FolnerNet, box_net, verify_folner
from amenact.integral import card, integral
from amenact.monoid import FreeAbelian, FreeCommutative, MSubset
from amenact.tables import csv_table

N1 = FreeCommutative(1)
Z1 = FreeAbelian(1)


def test_defect_report_csv_columns():
    report = verify_folner(box_net(Z1), MSubset.of(Z1, [(1,)]), 4)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "index,size,element,ratio"
    assert len(lines) == 1 + 4 * 2  # one row per element plus the whole-set row


def test_integral_estimate_csv_columns():
    est = integral(card(Z1), box_net(Z1), 3)
    lines = est.to_csv().strip().splitlines()
    assert lines[0] == "index,size,value,ratio"
    assert lines[1].startswith("1,3,")


def test_entropy_estimate_csv_columns():
    group = DirectSum(FiniteProduct((2,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (1,))])
    seed = Subgroup.generated(group, [group.basis_vector((0,))])
    est = h_alg_estimate(alpha, seed, box_net(N1), 3)
    lines = est.to_csv().strip().splitlines()
    assert lines[0] == "index,size,count,ratio"
    assert lines[2].split(",")[2] == "4"  # exact order at index 2


def test_bridge_report_csv_columns():
    group = DirectSum(FiniteProduct((2,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (1,))])
    seed = Subgroup.generated(group, [group.basis_vector((0,))])
    report = bridge_check(alpha, seed, box_net(N1), 3)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "index,size,ell_trajectory,log_index,difference"
    assert all(line.rsplit(",", 1)[1] == "0.0" for line in lines[1:])


def test_canonical_linearization_meets_one_over_n():
    test = MSubset.of(Z1, [(0,), (1,)])
    canon = CanonicalNet(Z1)
    net = FolnerNet(Z1, lambda n: canon.at(test, n), "canonical")
    report = verify_folner(net, test, 12)
    for n in report.indices():
        per_element = [
            r.ratio for r in report.rows if r.index == n and r.element != "E"
        ]
        assert max(per_element) <= Fraction(1, n)


def _from_digits(text):
    """int(text) in chunks of 1000 digits, under str()'s digit limit."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_csv_table_writes_counts_of_any_size_exactly():
    big = 7**5916
    assert len(csv_table("count", [[big]]).split()[1]) == 5000
    for n in (big, -big, 10**4999, 10**600, 10**600 - 1, -(10**600)):
        cell = csv_table("count", [[n]], "\n").splitlines()[1]
        assert _from_digits(cell) == n
    assert csv_table("count", [[10**4999]]).split()[1] == "1" + "0" * 4999
    # ints either side of the 2000-bit switch to Decimal are exact even under
    # the lowest digit limit the interpreter accepts
    edge = [2**2000 - 1, 2**2000, -(2**2000), 10**639, 10**700]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        cells = csv_table("count", [[n] for n in edge], "\n").splitlines()[1:]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [_from_digits(cell) for cell in cells] == edge
    # small ints, bools and floats are written as the csv module writes them
    row = [0, -3, True, False, 1.5, "x", 2**64]
    text = "a,b,c,d,e,f,g\r\n0,-3,True,False,1.5,x,18446744073709551616\r\n"
    assert csv_table("a,b,c,d,e,f,g", [row]) == text
