import pytest

from quadorders import classify
from quadorders.arith import InternalConsistencyError, factorize, is_prime, is_squarefree
from quadorders.classgroup import class_number
from quadorders.classify import (
    ClassificationRecord,
    OrderSpec,
    classify_order,
    is_ideal_preserving,
)
from quadorders.pell import fundamental_unit
from quadorders.quadfield import make_field, omega_roots
from quadorders.unitindex import l_value, min_power


def reference_record(d, n):
    """The record of one cell, each rule applied to it on its own through factorize,
    min_power and l_value: the reference that the kernel, classify_field, and so
    classify_order and the scan, are tested against."""
    spec = OrderSpec(d, n)
    F = make_field(spec.d)
    U = fundamental_unit(F)
    h = class_number(F, U).h
    m = min_power(F, U, n)
    L = l_value(n, spec.d)
    if L % m:
        raise InternalConsistencyError(f"m={m} does not divide L={L} for d={F.d}, n={n}")
    ip, la = is_ideal_preserving(spec), m == L
    prime_shape = is_prime(n) or (n % 4 == 2 and is_prime(n // 2))  # p or 2p, p odd
    hfd = h <= 2 and (n == 1 or (ip and la and prime_shape))
    return ClassificationRecord(spec.d, n, F.D, m, L, ip, la, ip and la, h, h * (L // m), hfd)


def is_locally_associated(spec):
    return classify_order(spec).locally_associated


def is_associated(spec):
    return classify_order(spec).associated


def all_specs(d_values, n_values):
    for d in d_values:
        for n in n_values:
            yield OrderSpec(d, n)


SQUAREFREE_POS = [d for d in range(2, 31) if is_squarefree(d)]
SQUAREFREE_NEG = [d for d in range(-30, 0) if is_squarefree(d)]


def test_spec_validation():
    with pytest.raises(ValueError):
        OrderSpec(12, 2)
    with pytest.raises(ValueError):
        OrderSpec(0, 2)
    with pytest.raises(ValueError):
        OrderSpec(1, 2)
    with pytest.raises(ValueError):
        OrderSpec(2, 0)
    OrderSpec(-1, 1)
    F = make_field(2)
    with pytest.raises(ValueError):
        list(classify.classify_field(F, fundamental_unit(F), 1, 0, 3))


def test_fixture_records():
    r = classify_order(OrderSpec(2, 5))
    assert (r.m, r.L) == (3, 6)
    assert r.ideal_preserving and not r.locally_associated and not r.associated
    assert (r.h_maximal, r.h_order) == (1, 2)

    r = classify_order(OrderSpec(2, 2))
    assert (r.m, r.L) == (2, 2)
    assert r.locally_associated and not r.ideal_preserving and not r.associated
    assert r.h_order == 1

    r = classify_order(OrderSpec(5, 2))
    assert r.associated and r.hfd

    r = classify_order(OrderSpec(2, 3))
    assert (r.m, r.L) == (4, 4) and r.associated

    r = classify_order(OrderSpec(2, 11))
    assert (r.m, r.L) == (12, 12) and r.associated

    r = classify_order(OrderSpec(2, 33))
    assert (r.m, r.L) == (12, 48) and not r.locally_associated

    r = classify_order(OrderSpec(-7, 3))
    assert r.L == 4 and r.m == 1 and not r.locally_associated

    r = classify_order(OrderSpec(-1, 2))
    assert r.locally_associated and not r.associated

    r = classify_order(OrderSpec(-3, 2))
    assert r.associated and r.hfd

    r = classify_order(OrderSpec(-3, 4))
    assert not r.hfd

    r = classify_order(OrderSpec(2, 9))
    assert r.associated and not r.hfd


def test_order_class_number(monkeypatch):
    # |Cl(R)| = h * L / m
    assert classify_order(OrderSpec(2, 5)).h_order == 2
    assert classify_order(OrderSpec(-5, 1)).h_order == 2
    assert classify_order(OrderSpec(-5, 3)).h_order == 4  # h = 2, L = 2, m = 1
    # an m that does not divide L is a bug, never a record: the kernel, which classify_order
    # takes its one cell from, reads (m, L, inert) from the uncached local_data; m = 4 does
    # not divide L = 6
    monkeypatch.setattr(classify, "local_data", lambda F, U, p, a: (4, 6, True))
    with pytest.raises(InternalConsistencyError, match="n=5"):
        classify_order(OrderSpec(2, 5))
    F = make_field(2)
    with pytest.raises(InternalConsistencyError, match="n=5"):
        list(classify.classify_field(F, fundamental_unit(F), 1, 5, 5))


@pytest.mark.parametrize("d", [2, -7, 94])
def test_one_n_far_from_one(d):
    # classify_order's one-n window is planned from factorize(n), so n past any sieve's
    # reach is one cell: a prime power of 2 and of 3, twice a prime power, a prime
    for n in (2**40, 3**25, 2 * 5**17, 10**9 + 7):
        assert classify_order(OrderSpec(d, n)) == reference_record(d, n), n


def test_index_one_is_trivial():
    for d in (-5, -3, 2, 10):
        r = classify_order(OrderSpec(d, 1))
        assert r.m == 1 and r.L == 1
        assert r.ideal_preserving and r.locally_associated and r.associated
        assert r.h_order == r.h_maximal
        assert r.hfd == (r.h_maximal <= 2)


def test_record_invariants_grid():
    for spec in all_specs(SQUAREFREE_POS + SQUAREFREE_NEG, range(1, 31)):
        r = classify_order(spec)
        assert r.associated == (r.ideal_preserving and r.locally_associated)
        assert r.locally_associated == (r.m == r.L)
        assert r.L % r.m == 0
        assert r.h_order * r.m == r.h_maximal * r.L
        assert is_ideal_preserving(spec) == r.ideal_preserving
        # half-factorial: h <= 2, and n = 1 or R associated with n = p or 2p, p odd
        fac = factorize(spec.n)
        shape = (len(fac) == 1 and fac[0][1] == 1) or (
            len(fac) == 2 and fac[0] == (2, 1) and fac[1][1] == 1
        )
        assert r.hfd == (r.h_maximal <= 2 and (spec.n == 1 or (r.associated and shape)))


def test_ideal_preserving_is_inertness():
    for spec in all_specs((-10, -5, -3, 2, 5, 7, 15), range(2, 40)):
        # p is inert iff omega's minimal polynomial has no root mod p: a witness
        # independent of field_char, which is_ideal_preserving reads
        F = make_field(spec.d)
        expected = all(not omega_roots(F, p) for p, _ in factorize(spec.n))
        assert is_ideal_preserving(spec) == expected


def test_locally_associated_descends_to_divisors():
    for spec in all_specs((2, 3, 5, 13, -1, -3), range(2, 61)):
        if is_locally_associated(spec):
            for s in range(2, spec.n):
                if spec.n % s == 0:
                    assert is_locally_associated(OrderSpec(spec.d, s))


def test_ideal_preserving_multiplicative():
    for d in (2, 5, -3, 11):
        for a in range(2, 25):
            for b in range(2, 25):
                ab = is_ideal_preserving(OrderSpec(d, a * b))
                parts = is_ideal_preserving(OrderSpec(d, a)) and is_ideal_preserving(
                    OrderSpec(d, b)
                )
                assert ab == parts


def test_hfd_shape_condition():
    # beyond the maximal order, hfd needs n prime or twice an odd prime
    for spec in all_specs((-3, 2, 5), range(2, 50)):
        r = classify_order(spec)
        if r.hfd:
            fac = factorize(spec.n)
            assert is_prime(spec.n) or (
                len(fac) == 2 and fac[0] == (2, 1) and fac[1][1] == 1
            )


def test_imaginary_closed_form():
    # d < 0: locally associated only for d = 1 (mod 8) with n = 2,
    # (-1, 2), and (-3, n) with n in {2, 3}; associated only at (-3, 2)
    for d in range(-60, 0):
        if not is_squarefree(d):
            continue
        for n in range(2, 30):
            spec = OrderSpec(d, n)
            expected_la = (
                (n == 2 and d % 8 == 1)
                or (d == -1 and n == 2)
                or (d == -3 and n in (2, 3))
            )
            assert is_locally_associated(spec) == expected_la, (d, n)
            assert is_associated(spec) == (d == -3 and n == 2)
