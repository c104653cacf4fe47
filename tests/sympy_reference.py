"""Reductions computed by sympy, which the tests hold the package's own
arithmetic against.  sympy is a test dependency: nothing under ``src/``
uses this module."""

from wittmod.scalars import ParamPolynomial, _from_ring, _to_ring


def lowest_terms(num: ParamPolynomial, den: ParamPolynomial) -> tuple:
    """num/den as a coprime pair over Z: the integer content stays in the
    pair (c/(2b) is (c, 2b)), and den's grlex leading coefficient is
    positive."""
    if den.is_zero():
        raise ZeroDivisionError("quotient with zero denominator")
    # the cofactors are fixed up to one common sign: the grlex rule decides it
    _, n, d = _to_ring(num).cofactors(_to_ring(den))
    num, den = _from_ring(n), _from_ring(d)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den
