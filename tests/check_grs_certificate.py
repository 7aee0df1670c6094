"""Check codes.grs_certificate against the reference kernel solve at length.

    PYTHONPATH=src python3 tests/check_grs_certificate.py

On 200 seeded codes per field over GF(8), GF(9), GF(13), GF(25), GF(27)
and GF(32), every kind that paper_lemmas.certificate_cases makes (GRS
codes, subcodes, repeated places, random codes, forged witnesses, changed
entries, places at infinity and at 0), the dual filter must give the
verdict of the k*w x N system's kernel basis for every d = 1 .. n - k + 2.
Codes with repeated places come given by a parity matrix, by a generator
and by both, so the filter's K is built from given and derived parity.
It takes seconds, so it runs as its own CI step; pytest does not collect
it, and the tier-1 tests run the same comparison on 12 codes per field.
Exits 1 and lists the cases that disagree.
"""

import random
import sys

from stripemerge.field import field_create

from paper_lemmas import certificate_disagreements

FIELDS = ((2, 3), (3, 2), (13, 1), (5, 2), (3, 3), (2, 5))
CASES = 200
SEED = 19


def main() -> int:
    total = certified = 0
    bad = []
    for p, s in FIELDS:
        F = field_create(p, s)
        checks, ok, widest, wrong = certificate_disagreements(F, random.Random(SEED * 1000 + F.q),
                                                              CASES)
        total, certified = total + checks, certified + ok
        print(f"GF({F.q}): {checks} checks, {ok} certified, widest kernel {widest}, "
              f"{len(wrong)} disagree")
        bad += [(F.q, *case) for case in wrong]
    print(f"{total} checks over {len(FIELDS)} fields, {certified} certified, {len(bad)} disagree")
    for q, kind, places, d, fast, ref in bad:
        print(f"GF({q}) {kind} places {list(places)} d = {d}: "
              f"grs_certificate {fast}, reference {ref}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
