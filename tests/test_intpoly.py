import random
import tracemalloc

import pytest

from cyclotile.errors import InvalidDigitSet
from cyclotile.intpoly import IntPoly, divide_exact, divmod_exact, mask_polynomial


def test_zero_polynomial_degree_is_sentinel():
    z = IntPoly.zero()
    assert z.is_zero
    assert z.degree is None
    assert IntPoly((0, 0, 0)) == z
    assert not z
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        z.leading


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
    with pytest.raises(ValueError, match="power must be non-negative"):
        p.compose_power(-1)


def test_fold_mod():
    p = mask_polynomial([0, 1, 8, 9])
    assert p.fold_mod(4).coeffs == (2, 2)
    assert p.fold_mod(2).coeffs == (2, 2)
    assert (IntPoly.x_power(6) - IntPoly.one()).fold_mod(6).is_zero
    with pytest.raises(ValueError, match="fold modulus must be positive"):
        p.fold_mod(0)


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
    assert IntPoly((-1, 0, 1)).at_one() == 0
    assert IntPoly.from_terms([(0, 2), (5, -7), (2**62, 1)]).at_one() == -4


def test_sparse_storage_is_canonical():
    p = IntPoly.from_terms([(9, 1), (0, 1), (8, 2), (8, -1), (1, 1), (5, 0)])
    assert p.terms() == ((0, 1), (1, 1), (8, 1), (9, 1))
    assert p == mask_polynomial([0, 1, 8, 9]) == IntPoly((1, 1, 0, 0, 0, 0, 0, 0, 1, 1))
    assert hash(p) == hash(mask_polynomial([9, 8, 1, 0]))
    assert eval(repr(p), {"IntPoly": IntPoly}) == p
    assert IntPoly.x_power(3, 0).is_zero
    for negative in (lambda: IntPoly.x_power(-1), lambda: IntPoly.from_terms([(-1, 1)])):
        with pytest.raises(ValueError, match="exponent must be non-negative"):
            negative()
    try:
        p.coeffs = ()
    except AttributeError:
        pass
    else:
        raise AssertionError("IntPoly accepted an attribute assignment")


# -- dense reference: a coefficient list, index = exponent, no trailing zeros --


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _dense_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _dense_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _trim(out)


def _dense_compose(a, n):
    if n == 0:
        return _trim([sum(a)])
    if not a:
        return []
    out = [0] * ((len(a) - 1) * n + 1)
    for i, c in enumerate(a):
        out[i * n] = c
    return out


def _dense_fold(a, n):
    out = [0] * n
    for i, c in enumerate(a):
        out[i % n] += c
    return _trim(out)


def _dense_divmod(a, q):
    # Long division by a monic or -monic q, highest coefficient first.
    rem = list(a)
    dq = len(q) - 1
    quot = [0] * max(len(a) - dq, 0)
    for i in range(len(a) - 1, dq - 1, -1):
        c = rem[i] * q[-1]  # q[-1] is 1 or -1, its own inverse
        quot[i - dq] = c
        for j, d in enumerate(q):
            rem[i - dq + j] -= c * d
    return _trim(quot), _trim(rem[:dq])


def _random_dense(rng, top, density):
    return _trim(rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(top))


def test_differential_against_dense_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        a = _random_dense(rng, rng.randint(0, 40), rng.choice((0.1, 0.5, 1.0)))
        b = _random_dense(rng, rng.randint(0, 40), rng.choice((0.1, 0.5, 1.0)))
        pa, pb = IntPoly(a), IntPoly(b)
        assert pa.coeffs == tuple(a) and pa.degree == (len(a) - 1 if a else None)
        assert pa.terms() == tuple((e, c) for e, c in enumerate(a) if c)
        assert IntPoly.from_terms(pa.terms()) == pa
        assert (pa + pb).coeffs == tuple(_dense_add(a, b))
        assert (pa - pb).coeffs == tuple(_dense_add(a, [-c for c in b]))
        assert (pa * pb).coeffs == tuple(_dense_mul(a, b))
        n = rng.randint(0, 5)
        assert pa.compose_power(n).coeffs == tuple(_dense_compose(a, n))
        m = rng.randint(1, 12)
        assert pa.fold_mod(m).coeffs == tuple(_dense_fold(a, m))
        assert pa.at_one() == sum(a)
        assert (pa == pb) == (a == b)
        assert (pa == IntPoly(list(a) + [0, 0])) and hash(pa) == hash(IntPoly(tuple(a)))
        q = _random_dense(rng, rng.randint(0, 8), 0.5) + [rng.choice((1, -1))]
        got_q, got_r = divmod_exact(pa, IntPoly(q))
        want_q, want_r = _dense_divmod(a, q)
        assert got_q.coeffs == tuple(want_q) and got_r.coeffs == tuple(want_r)


def test_lacunary_operations_do_not_allocate_by_degree():
    top = 2**62
    tracemalloc.start()
    try:
        p = mask_polynomial((0, 1, top))
        q = p.compose_power(2**40)
        folded = p.fold_mod(12)
        terms = q.terms()
        both = p * p + q - p
        assert p.degree == top and p.at_one() == 3
        assert p.terms() == ((0, 1), (1, 1), (top, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"peak {peak} bytes for three-term polynomials"
    assert terms == ((0, 1), (2**40, 1), (2**102, 1))
    assert folded == IntPoly.from_terms([(0, 1), (1, 1), (top % 12, 1)])
    # (1 + x + x^T)^2 + (1 + x^(2^40) + x^(2^102)) - (1 + x + x^T), T = 2^62
    assert both.terms() == (
        (0, 1), (1, 1), (2, 1), (2**40, 1), (top, 1), (top + 1, 2), (2 * top, 1), (2**102, 1)
    )
