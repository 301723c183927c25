"""Digit expansions of points in [0,1) under three digit distributions.

Every distribution P on the positive integers induces a digit expansion:
x picks its first digit c by the interval [prefix(c), prefix(c+1)) it
falls in, then rescales to a new point. Encoding inverts that. All
arithmetic is exact rational.
"""

from fractions import Fraction

from probmink import (
    DigitSeq,
    Dyadic,
    Geometric,
    approximation_bound,
    cylinder,
    decode,
    decode_periodic,
    encode,
    parse_distribution,
)

F = Fraction

print("== the same stream encodes different points under different P ==")
seq = DigitSeq((), (2, 1))
for spec in ("dyadic", "geometric:1/3", "custom:1/10;1/2"):
    dist = parse_distribution(spec)
    x = encode(dist, seq)
    print(f"  stream {seq} under {spec:<15} -> x = {x}")

print()
print("== decoding walks the digits back out ==")
d = Dyadic()
for x in (F(1, 4), F(2, 3), F(5, 8)):
    digits, remainder = decode(d, x, 5)
    print(f"  x = {x}: first digits {digits}, remainder {remainder}")

print()
print("== a rational point closes a period, or provably never does ==")
g = Geometric(F(1, 3))
for x in (F(2, 3), F(3, 7), F(1, 9)):
    print(f"  dyadic    {x} -> {decode_periodic(d, x)}")
    print(f"  geometric {x} -> {decode_periodic(g, x)}")

print()
print("== cylinders: all points sharing a digit prefix ==")
for word in ((2,), (2, 1), (2, 1, 3)):
    c = cylinder(d, word)
    print(f"  word {word}: [{c.inf}, {c.sup}), measure {c.measure}")

print()
print("== sharing u digits pins points down to max_p**u ==")
for u in (1, 4, 8):
    print(f"  dyadic bound after {u} shared digits: {approximation_bound(d, u)}")
