import random
from math import gcd, isqrt

import pytest

from quadorders import classgroup
from quadorders.arith import InternalConsistencyError, is_squarefree
from quadorders.classgroup import (
    class_number,
    narrow_class_number,
    reduced_forms_indefinite,
    reduced_forms_negative,
    rho_step,
)
from quadorders.classify import OrderSpec, classify_order
from quadorders.pell import fundamental_unit
from quadorders.quadfield import make_field


def fundamental_discriminants(limit):
    out = []
    for d in range(-limit, limit + 1):
        if d in (0, 1) or not is_squarefree(d):
            continue
        D = d if d % 4 == 1 else 4 * d
        if abs(D) <= limit:
            out.append(D)
    return sorted(set(out))


def count_reduced_definite_by_box_scan(D):
    """Independent triple-loop count of reduced definite forms (a, b, c)."""
    count = 0
    a_max = isqrt(-D // 3)
    for a in range(1, a_max + 1):
        c_max = (a * a - D) // (4 * a) + 1
        for c in range(a, c_max + 1):
            for b in range(-a, a + 1):
                if b * b - 4 * a * c != D:
                    continue
                if b < 0 and (-b == a or a == c):
                    continue
                if gcd(gcd(a, abs(b)), c) != 1:
                    continue
                count += 1
    return count


def reference_forms_negative(D):
    """The a-major box over b in [-a, a] that reduced_forms_negative replaced."""
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    forms.sort()
    return forms


def reference_forms_indefinite(D):
    """The width-b scan over |a| that reduced_forms_indefinite replaced."""
    s = isqrt(D)
    forms = set()
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        num = b * b - D
        for abs_a in range(max((s - b + 2) // 2, 1), (s + b) // 2 + 1):
            if num % (4 * abs_a):
                continue
            for a in (abs_a, -abs_a):
                c = num // (4 * a)
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    forms.add((a, b, c))
    return forms


def equivalence_components(D, forms):
    """Number of proper-equivalence classes among the given forms.

    Breadth-first closure under the generators S: (a,b,c) -> (c,-b,a) and
    T^(+-1): (a,b,c) -> (a, b +- 2a, a +- b + c) of SL2(Z), inside a coefficient
    box that provably contains a reduction path between any two equivalent
    reduced forms.
    """
    if D > 0:
        box_ac, box_b = D // 4 + 2, isqrt(D) + 1
    else:
        box_ac = box_b = -D + 2

    def inside(f):
        a, b, c = f
        return abs(a) <= box_ac and abs(c) <= box_ac and abs(b) <= box_b

    remaining = set(forms)
    components = 0
    while remaining:
        components += 1
        start = remaining.pop()
        frontier = [start]
        seen = {start}
        while frontier:
            a, b, c = frontier.pop()
            for g in ((c, -b, a), (a, b + 2 * a, a + b + c), (a, b - 2 * a, a - b + c)):
                if g in seen or not inside(g):
                    continue
                seen.add(g)
                frontier.append(g)
                if g in remaining:
                    remaining.discard(g)
    return components


def test_definite_fixture_counts():
    assert len(list(reduced_forms_negative(-3))) == 1
    assert len(list(reduced_forms_negative(-4))) == 1
    assert len(list(reduced_forms_negative(-20))) == 2
    assert len(list(reduced_forms_negative(-23))) == 3


def test_definite_matches_box_scan():
    for D in fundamental_discriminants(400):
        if D < 0:
            assert len(list(reduced_forms_negative(D))) == count_reduced_definite_by_box_scan(D)


def with_mirrors(forms):
    """The reduced indefinite forms with a > 0 and their mirrors (-a, b, -c): all of them."""
    return forms | {(-a, b, -c) for a, b, c in forms}


def assert_same_forms_as_reference(D):
    if D < 0:
        assert sorted(reduced_forms_negative(D)) == reference_forms_negative(D), D
    else:
        positive = {f for f in reference_forms_indefinite(D) if f[0] > 0}
        assert reduced_forms_indefinite(D) == positive, D


def test_forms_match_reference_up_to_3000():
    for D in fundamental_discriminants(3000):
        assert_same_forms_as_reference(D)


def test_forms_match_reference_on_random_discriminants():
    # |d| < 16000, so |D| < 64000
    rng = random.Random(13)
    sample = set()
    while len(sample) < 300:
        d = rng.randrange(-16000, 16000)
        if d not in (0, 1) and is_squarefree(d):
            sample.add(d if d % 4 == 1 else 4 * d)
    for D in sorted(sample):
        assert_same_forms_as_reference(D)
        if D < 0:
            d = D if D % 4 == 1 else D // 4
            F = make_field(d)
            h = class_number(F, fundamental_unit(F)).h
            assert h == len(reference_forms_negative(D)), D


def test_definite_forms_are_pairwise_inequivalent():
    for D in fundamental_discriminants(200):
        if D < 0:
            forms = list(reduced_forms_negative(D))
            assert equivalence_components(D, forms) == len(forms)


def test_indefinite_fixture():
    forms = reduced_forms_indefinite(40)
    assert len(forms) == 4 and len(with_mirrors(forms)) == 8
    assert narrow_class_number(40) == 2


def test_rho_permutes_reduced_forms():
    for D in (8, 12, 13, 40, 60, 316):
        forms = with_mirrors(reduced_forms_indefinite(D))
        image = {rho_step(D, isqrt(D), f) for f in forms}
        assert image == forms


def test_rho_alternates_the_sign_of_a():
    # so each rho-cycle is one rho^2-cycle on the forms with a > 0, which narrow_class_number walks
    for D in fundamental_discriminants(2000):
        if D > 0:
            for f in with_mirrors(reduced_forms_indefinite(D)):
                assert f[0] * rho_step(D, isqrt(D), f)[0] < 0, (D, f)


@pytest.mark.parametrize("start,bad,message", [
    # a form with a > 0 sent to a form of discriminant 40 that is not reduced (b = 0)
    ((3, 2, -3), (-1, 0, 10), "rho left the reduced forms at"),
    # a form with a < 0 sent to a form with a > 0 that is not reduced
    ((-3, 2, 3), (1, 0, -10), "rho left its cycle at"),
    # a form with a < 0 sent to a reduced form with a > 0 of the other cycle: rho^2 reaches
    # that form twice
    ((-3, 2, 3), (1, 6, -1), "rho left its cycle at"),
])
def test_walk_refuses_a_step_off_the_cycle(monkeypatch, start, bad, message):
    # D = 40 has 8 reduced forms in 2 cycles; rho_step, the one rho the walk calls, is patched
    # at one form
    forms, rho = with_mirrors(reduced_forms_indefinite(40)), rho_step
    assert start in forms and bad != rho(40, 6, start)
    monkeypatch.setattr(classgroup, "rho_step",
                        lambda D, s, f: bad if f == start else rho(D, s, f))
    with pytest.raises(InternalConsistencyError, match=message):
        classgroup.narrow_class_number(40)


def test_narrow_count_matches_equivalence_components():
    for D in fundamental_discriminants(400):
        if D > 0:
            forms = with_mirrors(reduced_forms_indefinite(D))
            assert narrow_class_number(D) == equivalence_components(D, forms)


def test_class_number_fixtures():
    cases = {
        -3: 1,
        -4: 1,
        -20: 2,
        -23: 3,
        -47: 5,
        8: 1,
        40: 2,
        5: 1,
        13: 1,
    }
    for D, h in cases.items():
        d = D if D % 4 == 1 else D // 4
        F = make_field(d)
        C = class_number(F, fundamental_unit(F))
        assert F.D == D
        assert C.h == h, (D, C)


def test_narrow_versus_wide():
    for d in range(2, 200):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        C = class_number(F, U)
        assert C.h >= 1
        if U.norm_sign == -1:
            assert C.h == C.h_plus
        else:
            assert C.h_plus == 2 * C.h


def test_imaginary_has_no_narrow_field():
    F = make_field(-5)
    C = class_number(F, fundamental_unit(F))
    assert C.h_plus is None
    assert fundamental_unit(F).norm_sign == 1


def test_maximal_order_is_hfd():
    # the maximal order (n = 1) is half-factorial exactly when h <= 2
    for d, hfd in ((-5, True), (-23, False), (2, True), (-5 * 13, False)):
        F = make_field(d)
        assert (class_number(F, fundamental_unit(F)).h <= 2) == hfd
        assert classify_order(OrderSpec(d, 1)).hfd == hfd


def test_validation():
    with pytest.raises(ValueError):
        list(reduced_forms_negative(8))
    with pytest.raises(ValueError):
        list(reduced_forms_negative(-6))
    with pytest.raises(ValueError):
        reduced_forms_indefinite(-4)
    with pytest.raises(ValueError):
        reduced_forms_indefinite(16)
    for D in (16, 6, -4):  # a square, not a discriminant, negative
        with pytest.raises(ValueError):
            narrow_class_number(D)
