"""Check pgl's table-based group code against the references at length.

    PYTHONPATH=src python3 tests/check_group_tables.py

For each prime power q <= 256, paper_lemmas.group_disagreements compares,
on the groups of paper_lemmas.group_cases (the order-d subgroup of the
cyclic group of order q + 1 for each d | q + 1, the dihedral groups
q_plus and q_minus of every order for even q, and affine groups) and on
20 seeded random Mobius maps: the point and place tables with
reference_image on every point (homogeneous coordinates and inverses
from the powers of a generator, not pgl._coord, which fills the
tables), and element orders, closure verdicts and messages, the orbit
split and the coset reps against references that compose matrices.  It
takes seconds, so it runs as its own CI step; pytest does not collect
it, and the tier-1 tests (test_pgl.py) run the same comparison on five
small fields and the action tables on GF(257).  Exits 1 and lists the
disagreements.
"""

import random
import sys

from stripemerge.field import TABLE_Q, _factorize, field_create

from paper_lemmas import group_disagreements

SEED = 22


def main() -> int:
    total, fields, bad = 0, 0, []
    for q in range(2, TABLE_Q + 1):
        factors = _factorize(q)
        if len(factors) != 1:
            continue
        (p, s), = factors.items()
        F = field_create(p, s)
        checks, wrong = group_disagreements(F, random.Random(SEED * 1000 + q))
        total, fields = total + checks, fields + 1
        bad += [(q, *case) for case in wrong]
    print(f"{total} comparisons over {fields} fields, {len(bad)} disagree")
    for q, case, what in bad:
        print(f"GF({q}) {case}: {what}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
