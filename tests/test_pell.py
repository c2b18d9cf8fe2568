from math import isqrt

from quadorders.arith import is_squarefree
from quadorders.pell import FundamentalUnit, fundamental_unit, verify_unit
from quadorders.quadfield import make_field, qi_mul, qi_norm, unit_xy


def brute_pell4(D, y_stop):
    """First (x, y) with x^2 - D y^2 = +-4, scanning y = 1 .. y_stop - 1."""
    for y in range(1, y_stop):
        for delta in (-4, 4):
            t = D * y * y + delta
            if t > 0:
                x = isqrt(t)
                if x * x == t:
                    return x, y
    return None


def minimality_cap(x, D):
    # a non-minimal solution is a power of the minimal one, whose y is at most
    # sqrt(epsilon)/sqrt(D) with epsilon < x + 1
    return (isqrt(x + 1) + 1) // isqrt(D) + 2


def test_unit_fixtures():
    assert fundamental_unit(make_field(2)).u == (1, 1)
    assert fundamental_unit(make_field(2)).norm_sign == -1
    assert fundamental_unit(make_field(5)).u == (0, 1)
    assert fundamental_unit(make_field(5)).norm_sign == -1
    assert fundamental_unit(make_field(7)).u == (8, 3)
    assert fundamental_unit(make_field(7)).norm_sign == 1
    assert fundamental_unit(make_field(10)).u == (3, 1)
    U = fundamental_unit(make_field(-1))
    assert U.u == (0, 1) and U.torsion_order == 4
    U = fundamental_unit(make_field(-3))
    assert U.u == (0, 1) and U.torsion_order == 6
    U = fundamental_unit(make_field(-5))
    assert U.u == (-1, 0) and U.torsion_order == 2


def test_unit_xy():
    assert unit_xy(make_field(2), fundamental_unit(make_field(2)).u) == (2, 1)
    assert unit_xy(make_field(5), fundamental_unit(make_field(5)).u) == (1, 1)
    assert unit_xy(make_field(7), fundamental_unit(make_field(7)).u) == (16, 3)


def test_verify_unit():
    F = make_field(2)
    assert verify_unit(F, fundamental_unit(F))
    # the square of the unit is a unit but not minimal
    assert not verify_unit(F, FundamentalUnit((3, 2), 1, 2))
    # a non-unit fails the norm check
    assert not verify_unit(F, FundamentalUnit((2, 1), 1, 2))
    F5 = make_field(5)
    assert verify_unit(F5, fundamental_unit(F5))
    # (3 + sqrt(5))/2 is the square of the fundamental unit
    assert not verify_unit(F5, FundamentalUnit((1, 1), 1, 2))
    assert verify_unit(make_field(7), fundamental_unit(make_field(7)))


def test_verify_unit_imaginary():
    for d in (-1, -2, -3, -5, -7, -11):
        F = make_field(d)
        assert verify_unit(F, fundamental_unit(F))
    # wrong torsion order is rejected
    assert not verify_unit(make_field(-1), FundamentalUnit((0, 1), 1, 2))
    assert not verify_unit(make_field(-5), FundamentalUnit((-1, 0), 1, 4))


def test_matches_brute_scan_up_to_200():
    for d in range(2, 201):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        x, y = unit_xy(F, U.u)
        assert x * x - F.D * y * y in (-4, 4)
        found = brute_pell4(F.D, min(y + 1, minimality_cap(x, F.D) + 1))
        if found is not None:
            assert found == (x, y)
        else:
            # nothing below the cap: (x, y) itself must sit past it and be minimal
            assert y >= minimality_cap(x, F.D)
            assert verify_unit(F, U)


def test_unit_properties_below_1000():
    for d in range(2, 1000):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        assert U.u[1] >= 1
        assert qi_norm(F, U.u) == U.norm_sign
        assert U.norm_sign in (-1, 1)
        assert U.torsion_order == 2
        assert verify_unit(F, U)


def test_imaginary_torsion_orders():
    for d in range(-60, 0):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        expected = {-1: 4, -3: 6}.get(d, 2)
        assert U.torsion_order == expected
        w = (1, 0)
        for _ in range(U.torsion_order):
            w = qi_mul(F, w, U.u)
        assert w == (1, 0)
