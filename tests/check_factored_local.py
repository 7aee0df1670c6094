"""Check pgl.FactoredFunction against the multiplied-out function at length.

    PYTHONPATH=src python3 tests/check_factored_local.py

For each prime power q <= 256, and GF(257) and GF(289) (whose addition
and product table rows are made on lookup),
paper_lemmas.factored_disagreements compares FactoredFunction.local,
and eval_at with pole budgets 0 to 2, with those of the function
multiplied out as one RationalFunction at every place of the projective
line, on 20 seeded cases of three functions sharing one z: roots of
multiplicity up to 3, 0 among them, and parts z - c of a non-monic z
with zeros and poles, where z takes c and where it has a pole.  It takes
seconds, so it runs as its own CI step; pytest does not collect it, and
the tier-1 tests (test_pgl.py) run the same comparison on seven fields.
Exits 1 and lists the disagreements.
"""

import random
import sys

from stripemerge.field import TABLE_Q, _factorize, field_create

from paper_lemmas import factored_disagreements

CASES = 20
SEED = 29


def main() -> int:
    total, fields, bad = 0, 0, []
    for q in [*range(2, TABLE_Q + 1), 257, 289]:
        factors = _factorize(q)
        if len(factors) != 1:
            continue
        (p, s), = factors.items()
        F = field_create(p, s)
        checks, _, wrong = factored_disagreements(F, random.Random(SEED * 1000 + q), CASES)
        total, fields = total + checks, fields + 1
        bad += [(q, *case) for case in wrong]
    print(f"{total} comparisons over {fields} fields, {len(bad)} disagree")
    for q, f, place, what, fast, ref in bad:
        print(f"GF({q}) {f!r} at {place!r}, {what}: factored {fast}, multiplied out {ref}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
