"""The term arithmetic under Poly returns fresh dictionaries."""

from fractions import Fraction

from algebroids import symcalc


def test_pure_kernel_does_not_mutate():
    a = {(1, 0): Fraction(2)}
    b = {(1, 0): Fraction(-2)}
    out = symcalc.add_terms(a, b)
    assert out == {}
    assert a == {(1, 0): Fraction(2)} and b == {(1, 0): Fraction(-2)}
