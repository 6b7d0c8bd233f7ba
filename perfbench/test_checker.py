"""Tests of the independent checker on base 4: {0,1,8,9} tiles, {0,1,4,5} does not.

Run with `python3 -m pytest perfbench` or `python3 perfbench/test_checker.py`.
The expected values are worked out by hand:

* {0,1,8,9}: mask (1 + x)(1 + x**8) = Phi_2 Phi_16, blocking {2, 16}.
* {0,1,4,5}: mask (1 + x)(1 + x**4) = Phi_2 Phi_8; the path 4 -> 16
  escapes, since neither divides and totient(16) = 8 > 5.
"""

import checker

TILE = (0, 1, 8, 9)
NOT_TILE = (0, 1, 4, 5)


def _dense_remainder_is_zero(n, digits):
    num = [0] * (max(digits) + 1)
    for d in digits:
        num[d] = 1
    _, rem = checker._poly_divmod_monic(num, list(checker.dense_cyclotomic(n)))
    return not any(rem)


def test_divisibility_matches_dense_division():
    for digits in (TILE, NOT_TILE):
        terms = checker.mask_terms(digits)
        for n in range(2, 40):
            assert checker.cyclotomic_divides(n, terms) == _dense_remainder_is_zero(n, digits), n
    assert [n for n in range(2, 40) if checker.Mask(TILE).divisible_by(n)] == [2, 16]
    assert [n for n in range(2, 40) if checker.Mask(NOT_TILE).divisible_by(n)] == [2, 8]


def test_prime_power_spectra():
    assert checker.Mask(TILE).prime_power_spectrum() == (2, 16)
    assert checker.Mask(NOT_TILE).prime_power_spectrum() == (2, 8)


def test_tree_and_blockings():
    assert checker.roots(4) == [2, 4]
    assert checker.children(2, 4) == [8]
    assert checker.children(4, 4) == [16]
    assert checker.blocking_problems(4, [2, 16]) == []
    assert checker.blocking_problems(4, [4, 8]) == []
    assert checker.blocking_problems(4, [2])  # the path from 4 escapes
    assert checker.blocking_problems(4, [2, 8, 16])  # 8 lies below 2


def test_escaping_path():
    assert checker.escaping_path(4, checker.Mask(TILE)) is None
    assert checker.escaping_path(4, checker.Mask(NOT_TILE)) == [4, 16]


def _payload(digits, verdict, blocking, spectrum, t1):
    return {
        "base": 4,
        "digits": list(digits),
        "verdict": verdict,
        "blocking": blocking,
        "prime_power_spectrum": spectrum,
        "t1": t1,
    }


def test_certificates():
    assert checker.certificate_problems(_payload(TILE, "tile", [2, 16], [2, 16], True)) == []
    # {0,1,4,5} passes T1 (2 * 2 = 4 digits) although it does not tile
    assert checker.certificate_problems(_payload(NOT_TILE, "not-tile", None, [2, 8], True)) == []
    # a flipped verdict, a non-dividing blocking and a wrong spectrum are caught
    assert checker.certificate_problems(_payload(TILE, "not-tile", None, [2, 16], True))
    assert checker.certificate_problems(_payload(NOT_TILE, "tile", [2, 16], [2, 8], True))
    assert checker.certificate_problems(_payload(TILE, "tile", [2, 16], [2], True))
    assert checker.certificate_problems(_payload(TILE, "tile", [2, 16], [2, 16], False))


def test_integer_tiling_complement():
    assert checker.complement_problems(NOT_TILE, 8, [0, 2]) == []
    assert checker.complement_problems(NOT_TILE, 8, [0, 1])
    assert checker.complement_problems(TILE, 16, [0, 2, 4, 6]) == []


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
