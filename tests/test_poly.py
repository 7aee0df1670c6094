import random

import pytest

from stripemerge.field import field_create
from stripemerge.poly import Poly


@pytest.mark.parametrize("p, s", [(23, 1), (2, 3), (3, 2)])
def test_split_root(p, s):
    # (X - x)^m * c with c(x) != 0 splits back into (m, c(x)) at every x
    F = field_create(p, s)
    rng = random.Random(F.q)
    for x in F.elements():
        lin = Poly(F, (F.neg_enc(x.enc), 1))
        for m in range(4):
            for _ in range(3):
                c = Poly.zero(F)
                while c.is_zero() or not c.eval(x).enc:
                    c = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
                got_m, got_value = (lin ** m * c).split_root(x)
                assert (got_m, got_value.enc) == (m, c.eval(x).enc)
    with pytest.raises(ValueError):
        Poly.zero(F).split_root(F.one)
