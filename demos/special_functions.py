"""The numerical kernel: incomplete gamma at negative orders, quadrature.

The closed-form link analytics need the upper incomplete gamma function at
orders that go negative for large QoS exponents; this script shows the
function against direct quadrature and the recurrence identity that ties
neighboring orders together. Integrands map an array of nodes to an array,
so they are written with numpy functions.
"""

import math

import numpy as np

from eelink import integrate, upper_incomplete_gamma

print("Upper incomplete gamma vs direct quadrature of the defining integral")
for v, z in ((2.0, 3.0), (0.3, 0.02), (-0.5, 1.0), (-1.5, 0.5), (-4.5, 2.0)):
    direct = upper_incomplete_gamma(v, z)
    quad = integrate(lambda w: w ** (v - 1.0) * np.exp(-w), z)
    print(f"  Gamma({v:5.2f}, {z:5.2f}) = {direct:.12e}   quadrature {quad:.12e}")

print("\nRecurrence Gamma(v+1, z) = v Gamma(v, z) + z^v e^-z at negative orders")
for v in (-0.3, -1.7, -3.2):
    z = 0.8
    lhs = upper_incomplete_gamma(v + 1.0, z)
    rhs = v * upper_incomplete_gamma(v, z) + z**v * math.exp(-z)
    print(f"  v = {v:5.2f}: lhs {lhs:.12e}  rhs {rhs:.12e}  rel diff {abs(lhs - rhs) / abs(lhs):.1e}")

print("\nAt z = 0 it is the complete gamma function")
print(f"  Gamma(6, 0)   = {upper_incomplete_gamma(6.0, 0.0):.1f} (5! = 120)")
print(f"  Gamma(0.5, 0) = {upper_incomplete_gamma(0.5, 0.0):.12f} (sqrt(pi) = {math.sqrt(math.pi):.12f})")

print("\nDouble-exponential (exp-sinh) quadrature over [lo, inf)")
print(f"  integral of e^-w over [0, inf)          = {integrate(lambda w: np.exp(-w), 0.0):.12f}")
print(f"  integral of 4 w e^-2w over [0, inf)     = {integrate(lambda w: 4 * w * np.exp(-2 * w), 0.0):.12f}")
