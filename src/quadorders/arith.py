"""Rational-integer helpers: factorization, primality and squarefree tests."""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import isqrt
from operator import floordiv

CACHE_MAXSIZE = 1 << 16  # bound of every lru_cache; holds dozens of fields' m(p^a) tables
TRIAL_BOUND = 10**7  # factorize's last trial divisor: every n < 10^14 factors, in about 1 s
# widest n window a scan plans: 16 bytes per n of plan, about 9 of a field's cofactor cells
# and its prime-power table make about 45 bytes per n (RSS measured at d = 7 between
# n_max = 10^6 and 2 * 10^6), so this window takes about 0.9 GB, and wider ones gigabytes;
# a d window's squarefree d take about 43 bytes per d, so it has the same bound
WINDOW_WIDTH_MAX = 2 * 10**7


class InternalConsistencyError(RuntimeError):
    """A computed result contradicts an identity that must hold; indicates a bug."""


@lru_cache(maxsize=CACHE_MAXSIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs; () for n = 1.

    Trial division by 2 and then the odd numbers up to TRIAL_BOUND; a cofactor left that
    this does not certify prime (so above 10^14) is refused with a ValueError.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    m, p = n, 2
    while p * p <= m and p <= TRIAL_BOUND:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise ValueError(f"n = {n} is too large to factor: no factor of {m} up to {TRIAL_BOUND}")
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def check_window(lo: int, hi: int, name: str = "n") -> None:
    """Refuse with a ValueError, allocating nothing, a window [lo, hi] of n (or of d) wider
    than WINDOW_WIDTH_MAX, or one reaching TRIAL_BOUND^2 = 10^14, where factorize stops: an n
    window that window_plan would sieve (lo != hi) by its end, a d window by its largest |d|."""
    if max(-lo, hi) >= TRIAL_BOUND**2 and (name == "d" or lo != hi):
        end = "factor: its largest |d|" if name == "d" else "sieve: its end"
        raise ValueError(f"{name} window [{lo}, {hi}] is too large to {end} must be below 10^14")
    if hi - lo >= WINDOW_WIDTH_MAX:
        raise ValueError(
            f"{name} window [{lo}, {hi}] is too large to scan at once: it holds {hi - lo + 1:,} "
            f"{name}, at most {WINDOW_WIDTH_MAX:,} are allowed; split it into narrower windows"
        )


@lru_cache(maxsize=1)  # the last window only: 16 bytes per n
def window_plan(lo: int, hi: int) -> tuple[list[int], list[int]] | tuple[array, array]:
    """For each n in [lo, hi], lo >= 1: q = p^a for the least prime p of n (1 at n = 1), and n // q.

    A window of one n is read from factorize(n), with no sieve, as two one-int lists: n may
    be any size factorize accepts.  A wider one is a segmented sieve (Crandall & Pomerance,
    Prime Numbers, 2005, section 3.2) into two array('q') columns: each power of each prime
    up to isqrt(hi) is set on its multiples by slice, larger primes and lower powers first,
    so the least prime's full power remains.  A wider window that check_window refuses raises
    its ValueError before anything is allocated.  Callers share the columns as is.
    """
    if lo == hi:
        p, a = factorize(lo)[0] if lo > 1 else (1, 1)
        return [p**a], [lo // p**a]
    check_window(lo, hi)
    root = isqrt(hi)
    prime = bytearray([1]) * (root + 1)
    for p in range(2, isqrt(root) + 1):
        prime[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    powers = array("q", range(lo, hi + 1))
    for p in reversed([p for p in range(2, root + 1) if prime[p]]):
        q = p
        while q <= hi:
            powers[-lo % q :: q] = array("q", [q]) * len(range(-lo % q, len(powers), q))
            q *= p
    return powers, array("q", map(floordiv, range(lo, hi + 1), powers))


@lru_cache(maxsize=CACHE_MAXSIZE)
def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


@lru_cache(maxsize=CACHE_MAXSIZE)
def is_squarefree(d: int) -> bool:
    """True iff no prime square divides d.  d = 0, or a d too large to factor, is refused."""
    if d == 0:
        raise ValueError("is_squarefree is undefined for 0")
    try:
        return all(a == 1 for _, a in factorize(abs(d)))
    except ValueError as exc:  # factorize names its argument n = |d|
        raise ValueError(f"d = {d}" + str(exc).removeprefix(f"n = {abs(d)}")) from None

