"""Planar networks and their weight matrices.

A leveled planar network with positive edge weights has a totally
nonnegative weight matrix: entry (i, j) sums the weight products of all
paths from source i to sink j, and every minor expands as a sum over
vertex-disjoint path families, so no cancellation can occur.  This script
builds the standard totally connected network, checks a minor against the
path enumeration, and shows the binomial-coefficient matrix arising from a
staircase of falling slants.
"""

from fractions import Fraction

from totpos import (MinorSpec, disjoint_path_minor, is_totally_connected,
                    minor, standard_network, weight_matrix)
from totpos.networks import PlanarNetwork

print("The standard network on 3 levels, essential weights 1..9:")
weights = [Fraction(k) for k in range(1, 10)]
net = standard_network(3, weights)
x = weight_matrix(net)
print(x)

print("\nIt is totally connected:", is_totally_connected(net))
assert is_totally_connected(net)

spec = MinorSpec((2, 3), (2, 3))
print(f"\nMinor {spec} of the weight matrix:", minor(x, spec))
print("Sum over vertex-disjoint path families:",
      disjoint_path_minor(net, spec))
assert minor(x, spec) == disjoint_path_minor(net, spec)

print("\nA staircase of falling slants with unit weights produces the")
print("binomial coefficients (totally nonnegative, not totally positive):")
n = 5
vertices = [(col, level) for col in range(n) for level in range(1, n + 1)]
index = {v: k for k, v in enumerate(vertices)}
edges = []
for col in range(n - 1):
    for level in range(1, n + 1):
        edges.append((index[(col, level)], index[(col + 1, level)], 1))
    for level in range(2, n + 1):
        if col + level >= n:
            edges.append((index[(col, level)], index[(col + 1, level - 1)], 1))
pascal = PlanarNetwork(n, tuple(vertices), tuple(edges))
print(weight_matrix(pascal))
