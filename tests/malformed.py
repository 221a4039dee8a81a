"""Hypothesis strategies of malformed input, shared by the error-contract
tests of every module.

Each strategy draws values that the input contract of ``qal.rationals``
rejects: exact data are ints that are not bools, and Fractions; an order
is an int that is not a bool; a list argument is a list or a tuple.
"""

import sympy
from hypothesis import strategies as st

# not exact data
NOT_DATA = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                     st.complex_numbers(), st.tuples(), st.tuples(st.integers()),
                     st.just(sympy.Rational(1, 2)))
# not exact data, and not a MultiPoly either
NOT_EXACT = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                      st.complex_numbers(), st.lists(st.integers(), max_size=2))
# not an int, or a bool
NOT_INTEGERS = st.one_of(NOT_DATA, st.fractions(), st.lists(st.integers(), max_size=1))
# not an int >= 0
BAD_ORDERS = st.one_of(NOT_INTEGERS, st.integers(max_value=-1))
# not a list or a tuple
NOT_LISTS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.fractions(),
                      st.text(max_size=2), st.just({0: 1}))
# not a CarlemanSequence: among them its DSL text and a list of its terms
NOT_SEQUENCES = st.one_of(st.none(), st.booleans(), st.integers(), st.fractions(),
                          st.text(max_size=9), st.just("gevrey(1)"),
                          st.lists(st.integers(1, 9), max_size=3))


def with_one_bad(good, bad):
    """A list of good entries with one bad entry among them."""
    return st.tuples(st.lists(good, max_size=2), bad, st.lists(good, max_size=2)).map(
        lambda t: t[0] + [t[1]] + t[2])
