"""Factoring totally positive matrices and the twist map.

Every totally positive matrix factors uniquely into elementary Jacobi
matrices along any factorization scheme (a shuffle of two reduced words
plus one diagonal letter per level).  For the staircase scheme the
parameters are Laurent monomials in the initial minors; for other schemes
they are rational but become Laurent monomials in the chamber minors of
the *twisted* matrix.
"""

import random
from fractions import Fraction

from totpos import (factor_scheme, factor_staircase, format_word,
                    parameter_sum_formula, parse_word, product_map,
                    reconstruct_from_initial_minors, staircase_scheme, twist,
                    verify_twist_monomial, is_tp_bruteforce)
from totpos.factorization import initial_minors

rng = random.Random(2)
n = 3
scheme = staircase_scheme(n)
params = [Fraction(rng.randint(1, 5)) for _ in range(n * n)]
x = product_map(scheme, params, n)
print("staircase scheme:", format_word(scheme))
print("product at parameters", [str(t) for t in params], ":")
print(x)

print("\nfactoring recovers the parameters exactly:")
recovered = factor_staircase(x)
print([str(t) for t in recovered])
assert list(recovered) == params
print("parameter sum via the minor formula:", parameter_sum_formula(x),
      "=", sum(params))
assert parameter_sum_formula(x) == sum(params)

print("\nthe matrix is also determined by its 9 initial minors:")
rebuilt = reconstruct_from_initial_minors(initial_minors(x), n)
print("reconstruction equals x:", rebuilt == x)
assert rebuilt == x

mixed = parse_word("2~ 1 @3 2 1~ @1 2~ 1 @2")
print("\nfactoring along a mixed-order scheme", format_word(mixed), ":")
t = factor_scheme(x, mixed)
print([str(v) for v in t])
print("product reproduces x:", product_map(mixed, t, n) == x)
assert product_map(mixed, t, n) == x

print("\nthe twist of x (totally positive again):")
tw = twist(x)
print(tw)
print("twist is totally positive:", is_tp_bruteforce(tw))
assert is_tp_bruteforce(tw)

print("\neach factorization parameter is a Laurent monomial in the chamber")
print("minors of the twisted matrix; certified numerically:")
certified = [verify_twist_monomial(scheme, n),
             verify_twist_monomial(mixed, n)]
print("  staircase:", certified[0])
print("  mixed scheme:", certified[1])
assert all(certified)
