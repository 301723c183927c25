"""Cases for `tools/ab.py --in-process`, each a function of a loaded probmink package.

    python tools/ab.py --parent HEAD --in-process tools.ab_cases:word_tables --pairs 15

Every function returns a list of (label, zero-argument callable); the
callables return plain values (tuples, lists, ints and Fractions), which
compare equal across the two package copies. Inputs are seeded and built
before timing.
"""

import random
from fractions import Fraction

# the benchmark's Monte Carlo laws with a word table, and its decode families
GEOMETRIC = ("geometric:1/3", "geometric:2/5", "geometric:1/4")
CUSTOM = ("custom:1/3,1/5;2/3", "custom:1/4,1/6;1/2", "custom:2/5,1/10;3/5")
FAMILIES = ("dyadic", "geometric:1/3", "custom:1/3,1/4;1/2")


def _period_points(pkg, length: int, seed: int) -> list:
    """(dist, x) for each decode family: the point of a seeded period of `length` digits 1-3."""
    rng = random.Random(seed)
    points = []
    for spec in FAMILIES:
        dist = pkg.parse_distribution(spec)
        digits = tuple(rng.randint(1, 3) for _ in range(length))
        points.append((dist, pkg.encode(dist, pkg.DigitSeq((), digits))))
    return points


def word_tables(pkg) -> list:
    """The walks that look words up in a word table: Monte Carlo, decode and decode_periodic."""
    cases = []
    for kind, specs, samples in (("geometric", GEOMETRIC, 500), ("custom", CUSTOM, 200)):
        dists = [pkg.parse_distribution(spec) for spec in specs]
        cases.append((f"integral_mc {kind} x{samples}",
                      lambda dists=dists, samples=samples: [
                          tuple(pkg.integral_mc(dist, samples, 1)) for dist in dists]))
    rng = random.Random(3)
    short = [(pkg.parse_distribution(spec), Fraction(rng.getrandbits(64), 1 << 64))
             for spec in FAMILIES for _ in range(100)]
    cases.append(("decode 64-bit points, 40 digits", lambda: [
        pkg.decode(dist, x, 40) for dist, x in short]))
    long_points = _period_points(pkg, 2000, 7)
    cases.append(("decode 2000-digit periods", lambda: [
        pkg.decode(dist, x, 2000) for dist, x in long_points]))
    walk_points = _period_points(pkg, 250, 12)
    cases.append(("decode_periodic 250-digit periods", lambda: [
        (seq.preperiod, seq.period)
        for seq in (pkg.decode_periodic(dist, x) for dist, x in walk_points)]))
    return cases

