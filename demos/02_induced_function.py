"""The Minkowski-type function induced by a digit distribution.

The function maps x to an alternating sum of powers of two driven by the
digits of x. Its values are exact rationals at eventually periodic
points; elsewhere a truncation enclosure brackets it rigorously.
"""

from fractions import Fraction

from probmink import (
    DigitSeq,
    Dyadic,
    Geometric,
    continuity_modulus_check,
    cylinder_increment,
    eval_minkowski,
    eval_minkowski_enclosure,
    monotonicity_witnesses,
    singularity_ratio_step,
)

F = Fraction
d = Dyadic()
g = Geometric(F(1, 3))

print("== exact values at eventually periodic points ==")
for x in (F(0), F(1, 2), F(2, 3), F(1, 4)):
    print(f"  M({x}) = {eval_minkowski(d, x)}  (dyadic digits)")

print()
print("== a rigorous enclosure when no period is found ==")
x = F(1, 5)
enc = eval_minkowski_enclosure(g, x, 20)
print(f"  under geometric:1/3 the orbit of {x} resists period detection;")
print(f"  20 digits give [{enc.lower}, {enc.upper}], width {enc.width}")

print()
print("== the function is nowhere monotone, and jumps at cylinder ends ==")
dec, inc = monotonicity_witnesses(d)
print(f"  {dec.low_x} < {dec.high_x} yet M drops by {-dec.delta}")
print(f"  {inc.low_x} < {inc.high_x} and M rises by {inc.delta}")

print()
print("== cylinder increments do not depend on the distribution ==")
for word in ((2,), (1, 1), (3, 2)):
    delta_d = cylinder_increment(d, word).delta
    delta_g = cylinder_increment(g, word).delta
    print(f"  word {word}: delta {delta_d} (dyadic) == {delta_g} (geometric)")

print()
print("== but the increment/measure quotient does ==")
for word in ((2,), (2, 1), (2, 1, 3)):
    rep = cylinder_increment(g, word)
    print(f"  word {word}: |delta|/measure = {rep.quotient}")
print(f"  each extra digit c multiplies it by 1/(p_c 2^c):")
print(f"  digit 1 -> {singularity_ratio_step(g, 1)}, digit 3 -> {singularity_ratio_step(g, 3)}")

print()
print("== modulus of continuity from shared digit prefixes ==")
pairs = (
    (DigitSeq((), (1, 2)), DigitSeq((), (1, 4))),
    (DigitSeq((2, 2), (1,)), DigitSeq((2, 2), (3,))),
)
for s1, s2 in pairs:
    shared, bound, actual = continuity_modulus_check(s1, s2)
    print(f"  {s1} vs {s2}: {shared} shared digits, |dM| = {actual} < {bound}")
