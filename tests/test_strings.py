"""String graphs: the congruence, HJ continued fractions, multiplicities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfboundary.errors import InvalidInput, InvalidSize
from mfboundary.strings import (
    MAX_CF_TERMS,
    build_string,
    hj_continued_fraction,
    solve_lambda,
)

from oracles import cf_value, smallest_lambda


def test_hj_basic_values():
    assert hj_continued_fraction(7, 1) == [7]
    assert hj_continued_fraction(5, 3) == [2, 3]
    assert hj_continued_fraction(7, 5) == [2, 2, 3]
    assert hj_continued_fraction(12, 5) == [3, 2, 3]
    # common factors drop out: only the ratio matters
    assert hj_continued_fraction(10, 6) == hj_continued_fraction(5, 3)


def test_hj_rejects_bad_input():
    with pytest.raises(InvalidInput):
        hj_continued_fraction(3, 0)
    with pytest.raises(InvalidInput):
        hj_continued_fraction(3, 4)


def test_hj_stops_past_the_term_limit():
    # p/(p-1) expands to p-1 terms of 2
    assert len(hj_continued_fraction(MAX_CF_TERMS + 1, MAX_CF_TERMS)) == MAX_CF_TERMS
    with pytest.raises(InvalidSize):
        hj_continued_fraction(MAX_CF_TERMS + 2, MAX_CF_TERMS + 1)
    assert len(build_string(1, 2, 10**6).interior_mults) == 10**6 // 2 - 1


@given(st.integers(1, 400), st.integers(1, 400))
@settings(max_examples=120, deadline=None)
def test_hj_reconstructs_ratio(p, q):
    if q > p:
        p, q = q, p
    terms = hj_continued_fraction(p, q)
    if p != q:  # the ratio-1 expansion is the single term [1]
        assert all(k >= 2 for k in terms)
    assert cf_value(terms) == Fraction(p, q)  # independent evaluation


def test_solve_lambda_matches_brute_force():
    for a in range(1, 7):
        for b in range(1, 9):
            for c in range(1, 13):
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                lam, m1 = solve_lambda(a, b, c)
                assert lam == smallest_lambda(a, b, c)
                d = math.gcd(a, c)
                ap, cp = a // d, c // d
                assert m1 == (b + lam * ap) // cp


def test_solve_lambda_validates():
    with pytest.raises(InvalidInput):
        solve_lambda(0, 1, 2)
    with pytest.raises(InvalidInput):
        solve_lambda(2, 2, 2)  # common factor of all three


def test_double_arrow_case():
    s = build_string(1, 4, 4)
    assert s.is_double_arrow
    assert s.lam == 0
    assert s.cf_terms == ()
    assert s.interior_mults == ()


def test_single_vertex_case():
    s = build_string(1, 4, 5)
    assert not s.is_double_arrow
    assert s.lam == 1
    assert s.cf_terms == (5,)
    assert s.interior_mults == (1,)
    assert s.end_mults == (1, 4)


@pytest.mark.parametrize("a,b,c", [
    (1, 2, 4), (1, 2, 6), (1, 2, 8), (1, 3, 9), (2, 3, 4), (3, 1, 7),
    (1, 5, 7), (2, 5, 8), (1, 2, 12), (5, 3, 11),
])
def test_multiplicity_recurrence(a, b, c):
    """m_{i+1} = k_i m_i - m_{i-1} with the declared end multiplicities."""
    s = build_string(a, b, c)
    if s.is_double_arrow:
        return
    d = math.gcd(a, c)
    chain = [a // d, *s.interior_mults, b // math.gcd(b, c)]
    for t, k in enumerate(s.cf_terms):
        assert k * chain[t + 1] == chain[t] + chain[t + 2]
    assert s.end_mults == (chain[0], chain[-1])
    # the continued fraction really evaluates to c'/lambda
    cp = c // d
    assert cf_value(s.cf_terms) == Fraction(cp, s.lam)


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_random_strings_consistent(a, b, c):
    if math.gcd(math.gcd(a, b), c) != 1:
        return
    s = build_string(a, b, c)
    assert s.lam == smallest_lambda(a, b, c)
    if s.is_double_arrow:
        return
    d = math.gcd(a, c)
    chain = [a // d, *s.interior_mults, b // math.gcd(b, c)]
    for t, k in enumerate(s.cf_terms):
        assert k * chain[t + 1] == chain[t] + chain[t + 2]
    assert all(m >= 1 for m in s.interior_mults)
