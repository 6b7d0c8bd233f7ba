import random

from cyclotile.errors import InvalidDigitSet
from cyclotile.intpoly import IntPoly, divide_exact, divmod_exact, mask_polynomial


def test_zero_polynomial_degree_is_sentinel():
    z = IntPoly.zero()
    assert z.is_zero
    assert z.degree is None
    assert IntPoly((0, 0, 0)) == z
    assert not z


def test_trailing_zeros_stripped():
    p = IntPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1


def test_mask_polynomial_basic():
    p = mask_polynomial([0, 1, 8, 9])
    assert p.coeffs == (1, 1, 0, 0, 0, 0, 0, 0, 1, 1)
    assert p.degree == 9
    assert p.at_one() == 4


def test_mask_polynomial_rejects_bad_digits():
    for bad in ([0, 0], [-1], [0, 1.5], [True]):
        try:
            mask_polynomial(bad)
        except InvalidDigitSet:
            continue
        raise AssertionError(f"accepted {bad}")


def test_mask_of_empty_set_is_zero():
    assert mask_polynomial([]).is_zero


def test_addition_and_subtraction():
    a = IntPoly((1, 2, 3))
    b = IntPoly((0, -2, -3))
    assert (a + b).coeffs == (1,)
    assert (a - a).is_zero


def test_multiplication_matches_schoolbook():
    rng = random.Random(11)
    for _ in range(200):
        a = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 9))))
        b = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 9))))
        got = a * b
        if a.is_zero or b.is_zero:
            assert got.is_zero
            continue
        want = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, c in enumerate(a.coeffs):
            for j, d in enumerate(b.coeffs):
                want[i + j] += c * d
        assert got == IntPoly(tuple(want))


def test_compose_power():
    p = IntPoly((1, -1, 1))
    q = p.compose_power(3)
    assert q.coeffs == (1, 0, 0, -1, 0, 0, 1)
    assert p.compose_power(1) == p
    assert p.compose_power(0) == IntPoly((p.at_one(),))


def test_fold_mod():
    p = mask_polynomial([0, 1, 8, 9])
    assert p.fold_mod(4).coeffs == (2, 2)
    assert p.fold_mod(2).coeffs == (2, 2)
    assert (IntPoly.x_power(6) - IntPoly.one()).fold_mod(6).is_zero


def test_divmod_exact_roundtrip():
    rng = random.Random(7)
    for _ in range(300):
        q = IntPoly(
            tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 6)))
            + (rng.choice((1, -1)),)
        )
        quot = IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 7))))
        r_low = tuple(rng.randint(-3, 3) for _ in range(q.degree))
        rem = IntPoly(r_low)
        p = q * quot + rem
        got_q, got_r = divmod_exact(p, q)
        assert got_q * q + got_r == p
        assert got_r.is_zero or got_r.degree < q.degree


def test_divide_exact_detects_non_divisors():
    p = IntPoly((1, 1, 1, 1))  # (x+1)(x^2+1)
    assert divide_exact(p, IntPoly((1, 1))) == IntPoly((1, 0, 1))
    assert divide_exact(p, IntPoly((1, 0, 1))) == IntPoly((1, 1))
    assert divide_exact(p, IntPoly((1, 1, 1))) is None


def test_divide_rejects_bad_divisors():
    p = IntPoly((1, 1))
    for bad in (IntPoly.zero(), IntPoly((1, 2))):
        try:
            divmod_exact(p, bad)
        except ValueError:
            continue
        raise AssertionError("accepted a bad divisor")




def test_evaluation():
    p = IntPoly((-1, 0, 1))
    assert p(3) == 8
    assert p.at_one() == 0
    assert p(-1) == 0
