"""Cases for `tools/ab.py --in-process`, each a function of a loaded probmink package.

    python tools/ab.py --parent HEAD --in-process tools.ab_cases:word_tables --pairs 15
    python tools/ab.py --parent HEAD --in-process tools.ab_cases:digit_search --pairs 15
    python tools/ab.py --parent HEAD --in-process tools.ab_cases:periodicity --pairs 15
    python tools/ab.py --parent HEAD --in-process tools.ab_cases:batches --pairs 15

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
# a law whose Q(1) is 5 times the fingerprint prime 1 073 739 179
PRIME_HEAD = "custom:1073739179/2147483648,1/5;1/2"
# the left end of this cylinder has a 2 625-bit denominator, and the short
# point of its first batch falls in the cylinder next door
FALLBACK_LAW, FALLBACK_WORD = "geometric:1/100", (100, 95, 102, 99)


def _period_points(pkg, length: int, seed: int, specs=FAMILIES) -> list:
    """(dist, x) for each law of `specs`: the point of a seeded period of `length` digits 1-3."""
    rng = random.Random(seed)
    points = []
    for spec in specs:
        dist = pkg.parse_distribution(spec)
        digits = tuple(rng.randint(1, 3) for _ in range(length))
        points.append((dist, pkg.encode(dist, pkg.DigitSeq((), digits))))
    return points


def word_tables(pkg) -> list:
    """The word tables' builds, and the walks that look words up in them.

    The walks are Monte Carlo, decode and decode_periodic. The build case
    clears the table cache and builds each benchmark law's table once,
    returning only whether one was built, so that both sides compare equal;
    it leaves every law's table cached for the walks.
    """
    laws = [pkg.parse_distribution(spec) for spec in dict.fromkeys(FAMILIES + GEOMETRIC + CUSTOM)]
    table = pkg.expansion._word_table

    def builds():
        table.cache_clear()
        return [table(dist) is not None for dist in laws]

    cases = [(f"word table builds, {len(laws)} laws", builds)]
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


def digit_search(pkg) -> list:
    """The digit search under `dyadic`: single digits, decode, decode_periodic and huge digits."""
    dist = pkg.Dyadic()
    rng = random.Random(29)
    short = [Fraction(rng.getrandbits(64), 1 << 64) for _ in range(300)]
    long_points = _period_points(pkg, 2000, 7, ("dyadic",) * 3)
    walk_points = _period_points(pkg, 250, 12, ("dyadic",) * 6)
    huge = [1 - Fraction(1, 1 << k) for k in (100, 1000, 10000, 100000)]
    return [
        ("digit_of 64-bit points", lambda: [dist.digit_of(x) for x in short]),
        ("decode 64-bit points, 40 digits", lambda: [pkg.decode(dist, x, 40) for x in short]),
        ("decode 2000-digit periods", lambda: [
            pkg.decode(dist, x, 2000) for dist, x in long_points]),
        ("decode_periodic 250-digit periods", lambda: [
            (seq.preperiod, seq.period)
            for seq in (pkg.decode_periodic(dist, x) for dist, x in walk_points)]),
        ("digit_of 1 - 2^-k, k = 10^2..10^5", lambda: [dist.digit_of(x) for x in huge]),
    ]


def _stream(found) -> tuple:
    """decode_periodic's result as plain values: (preperiod, period), or the certificate's fields."""
    return (found.preperiod, found.period) if hasattr(found, "period") else tuple(found)


def periodicity(pkg) -> list:
    """decode_periodic on short and 250-digit periods, and on points whose modulus steps.

    The last two cases' points share a prime with the fingerprint prime p:
    a 2 000-digit period under a law whose Q(1) is 5p, and the points of
    250-digit periods with their denominators multiplied by p.
    """
    prime = pkg.expansion._PRINT_MOD
    rng = random.Random(15)
    short = []
    for spec in FAMILIES:
        dist = pkg.parse_distribution(spec)
        for _ in range(100):
            digits = tuple(rng.randint(1, 3) for _ in range(rng.randint(5, 15)))
            short.append((dist, pkg.encode(dist, pkg.DigitSeq((), digits))))
    walk_points = _period_points(pkg, 250, 12)
    (head_law, head_point), = _period_points(pkg, 2000, 7, (PRIME_HEAD,))
    over_prime = [(dist, Fraction(x.numerator, x.denominator * prime))
                  for dist, x in _period_points(pkg, 250, 31, ("dyadic", "geometric:1/3"))]
    return [
        ("decode_periodic 5-15-digit periods, 300 points", lambda: [
            _stream(pkg.decode_periodic(dist, x)) for dist, x in short]),
        ("decode_periodic 250-digit periods", lambda: [
            _stream(pkg.decode_periodic(dist, x)) for dist, x in walk_points]),
        ("decode_periodic 2000-digit period, Q(1) = 5p", lambda: _stream(
            pkg.decode_periodic(head_law, head_point))),
        ("decode_periodic 250-digit points over p*d", lambda: [
            _stream(pkg.decode_periodic(dist, x)) for dist, x in over_prime]),
    ]


def batches(pkg) -> list:
    """The batch walk: decode, decode_periodic and eval_minkowski_enclosure on long points.

    Seeded periods of 500, 2 000 and 8 000 digits under exact_eval's three
    families, and the cylinder end of FALLBACK_WORD, whose batches fail
    their test on the point and bisect.
    """
    cases = []
    for length, seed in ((500, 41), (2000, 7), (8000, 43)):
        points = _period_points(pkg, length, seed)
        cases += [
            (f"decode {length}-digit periods", lambda points=points, n=length: [
                pkg.decode(dist, x, n) for dist, x in points]),
            (f"decode_periodic {length}-digit periods", lambda points=points, n=length: [
                _stream(pkg.decode_periodic(dist, x, 2 * n)) for dist, x in points]),
            (f"eval_minkowski_enclosure {length}-digit periods", lambda points=points, n=length: [
                tuple(pkg.eval_minkowski_enclosure(dist, x, n)) for dist, x in points]),
        ]
    dist = pkg.parse_distribution(FALLBACK_LAW)
    end = pkg.cylinder(dist, FALLBACK_WORD).inf
    cases.append(("cylinder end under geometric:1/100, three ways", lambda: (
        pkg.decode(dist, end, 8), _stream(pkg.decode_periodic(dist, end)),
        tuple(pkg.eval_minkowski_enclosure(dist, end, 8)))))
    return cases
