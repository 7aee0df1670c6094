"""Check primitive_quadratic_search against the reference scan on every field.

    PYTHONPATH=src python3 tests/check_quadratic_search.py

For each of the 70 prime powers q <= 256, the norm and trace criterion's
search must return the same (a, b) as the root scan and order test of
paper_lemmas.  It takes seconds, so it runs as its own CI step; pytest does
not collect it, and the tier-1 tests check the fields the builders use.
Exits 1 and names the fields that disagree.
"""

import sys

from stripemerge.field import _is_prime, field_create, primitive_quadratic_search

from paper_lemmas import reference_quadratic_search

LIMIT = 256


def prime_powers(limit):
    """(p, s) with p^s <= limit, ascending by p^s."""
    out = [(p, s) for p in range(2, limit + 1) if _is_prime(p)
           for s in range(1, limit.bit_length()) if p ** s <= limit]
    return sorted(out, key=lambda ps: ps[0] ** ps[1])


def main() -> int:
    fields = prime_powers(LIMIT)
    bad = []
    for p, s in fields:
        F = field_create(p, s)
        fast, ref = primitive_quadratic_search(F), reference_quadratic_search(F)
        if fast != ref:
            bad.append(f"GF({F.q}): search gives {list(fast)}, "
                       f"the reference {list(ref)}")
    print(f"{len(fields)} fields with q <= {LIMIT}, {len(bad)} disagree")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
