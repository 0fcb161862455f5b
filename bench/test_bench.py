"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py
"""

import cmath
import math
from fractions import Fraction

import pytest

import brute
import spans
import worker


@pytest.mark.parametrize("p, g", [(3, 2), (5, 2), (7, 3), (11, 2), (23, 5), (41, 6)])
def test_smallest_primitive_root(p, g):
    assert brute.primitive_root(p) == g


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_additive_character_sums_to_minus_one(p):
    # the trivial multiplicative character: sum over x != 0 of psi(x) = -1
    assert abs(brute.gauss_sum(p, 0) + 1) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sums_have_absolute_square_p(p):
    for j in range(1, p - 1):
        assert abs(abs(brute.gauss_sum(p, j)) ** 2 - p) < 1e-9


def test_kloosterman_by_hand():
    # n=1, p=3, b=1: x_2 = 1/x_1 = x_1, so s = 2 x_1 and 1/s runs over {2, 1}
    assert abs(brute.kloosterman(3, 1, 1) - (-1)) < 1e-12
    # a twist by chi_1 on the first variable: chi_1(1) psi(2) + chi_1(2) psi(1)
    w = cmath.exp(2j * cmath.pi / 3)
    assert abs(brute.kloosterman(3, 1, 1, (1, 0)) - (w ** 2 - w)) < 1e-12


@pytest.mark.parametrize("p, b", [(5, 2), (7, 3), (11, 4)])
def test_untwisted_one_variable_sum_is_real(p, b):
    # x -> -x keeps the product and conjugates psi(1/s)
    assert abs(brute.kloosterman(p, 1, b).imag) < 1e-9


def test_implied_first_power_sum():
    # n=1, q=3, b=1: S_1 = -1 gives S*_1 = -1, beta sum -3, so c_1 = 1
    assert abs(brute.s1_from_p(1, 3, 1) - (-1)) < 1e-12


def test_pi_adic_valuation():
    p = 7
    assert brute.ord_pi(p, [1, 0, 0, 0, 0, 0]) == 0
    assert brute.ord_pi(p, [-1, 1, 0, 0, 0, 0]) == 1            # zeta - 1
    assert brute.ord_pi(p, [p, 0, 0, 0, 0, 0]) == p - 1
    assert brute.ord_pi(p, [1, -2, 1, 0, 0, 0]) == 2            # (zeta - 1)^2
    assert brute.ord_pi(p, [Fraction(1, p), 0, 0, 0, 0, 0]) == -(p - 1)
    assert brute.ord_pi(p, [0] * 6) == math.inf


def test_newton_and_hodge_polygons():
    pts = [(0, Fraction(0)), (1, Fraction(1, 2)), (2, Fraction(2))]
    assert brute.newton_slopes(pts) == [Fraction(1, 2), Fraction(3, 2)]
    assert brute.newton_slopes([(0, Fraction(0)), (1, Fraction(1)), (2, Fraction(1))]) \
        == [Fraction(1, 2)] * 2
    hodge = brute.hodge_slopes(2)
    assert hodge == [0, 1, 1, 2]
    assert brute.on_or_above([Fraction(k, 4) for k in (1, 3, 5, 7)], hodge)
    assert not brute.on_or_above([0, 0, 2, 2], hodge)           # dips below
    assert not brute.on_or_above([0, 1, 1, 1], hodge)           # wrong endpoint


def test_self_time_subtracts_direct_children():
    spans_ = [("a", -1, 0, 100), ("b", 0, 10, 40), ("c", 1, 15, 25), ("b", 0, 50, 70)]
    own = spans.self_times(spans_)
    assert own == pytest.approx({"a": 50e-9, "b": 40e-9, "c": 10e-9})
    assert sum(own.values()) == pytest.approx(100e-9)


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    def outer(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_leaf = tracer.wrap("m.leaf", "cyclotomic.sumvalue_mul", leaf)
    wrapped_outer = tracer.wrap("m.outer", "expsum.oracle", outer)
    assert wrapped_outer(1) == 4
    assert [(s[0], s[1]) for s in tracer.spans] == [
        ("m.outer", -1), ("m.leaf", 0), ("m.leaf", 0)]
    m = tracer.metrics()
    assert m["cyclotomic.sumvalue_mul_calls"] == 2
    outer_ns = tracer.spans[0][3] - tracer.spans[0][2]
    assert m["expsum.oracle_s"] + m["cyclotomic.sumvalue_mul_s"] == \
        pytest.approx(outer_ns / 1e9)
    tracer.recording = False
    wrapped_outer(1)
    assert len(tracer.spans) == 3


def test_expected_suite_cases_at_default_grids():
    grids = worker.SUITE_GRIDS
    assert worker.expected_cases("thm0", grids["thm0"]) == (6, [8, 16, 64, 256, 216, 1296])
    assert worker.expected_cases("thm2", grids["thm2"]) == (5, [8, 64, 256, 216, 1296])
    cases, counts = worker.expected_cases("identities", grids["identities"])
    assert cases == 25 and len(counts) == 12
    assert worker.expected_cases("thm33", grids["thm33"]) == (12, [])
    assert worker.expected_cases("prop31", grids["prop31"]) == (8, [])


def test_inputs_follow_the_seed():
    for w in worker.WORKLOADS:
        assert worker.make_items(w, 4) == worker.make_items(w, 4)
    assert worker.make_items("lfun-primes", 4) != worker.make_items("lfun-primes", 5)
    assert len(worker.make_items("lfun-primes", 4)) == 72
