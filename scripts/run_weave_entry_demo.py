#!/usr/bin/env python3
"""For each small cylinder pattern, compute the constructive shift exponent at
which the weave configuration enters it, then confirm the entry by evaluating
the shifted configuration directly.  The exponents reach ~2^129 within the
first 26 patterns and ~2^94596 at pattern 2187, so each is printed as a power
of two; evaluation stays cheap because orbit positions resolve arithmetically."""

import argparse
import sys

from gshift import (
    ScrambledFamilySpec,
    almost_disjoint_family,
    block_lengths,
    default_alphabet,
    full_shift_transitive_point,
    in_cylinder,
    pattern_enumeration,
    pattern_json,
    shifted,
    successor,
    transitive_weave_family,
    weave_entry_exponent,
)
from gshift.indexspace import INTEGERS, ix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patterns", type=int, default=26,
                        help="how many patterns from the enumeration to enter")
    args = parser.parse_args()

    alpha = default_alphabet()
    m = successor()
    spec = ScrambledFamilySpec(m, (ix(0),), alpha, block_lengths(16, "weave"),
                               almost_disjoint_family(2), "weave")
    source = full_shift_transitive_point(alpha)
    x = transitive_weave_family(spec, source)[0]
    enum = pattern_enumeration(alpha, INTEGERS)

    failures = 0
    for n in range(1, args.patterns + 1):
        pattern = enum.pattern(n)
        exponent = weave_entry_exponent(spec, source, pattern)
        entered = in_cylinder(shifted(x, m, exponent), pattern)
        failures += not entered
        blob = pattern_json(INTEGERS, pattern)
        print(f"pattern {n:3d} {str(blob):46s} exponent ~2^{exponent.bit_length() - 1}"
              f" {'entered' if entered else 'MISSED'}")
    print(f"\n{args.patterns - failures}/{args.patterns} cylinders entered at "
          "their computed exponents")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
