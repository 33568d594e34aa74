"""Small prime utilities (desk scale)."""

import math

import numpy as np


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def first_n_primes(m: int) -> np.ndarray:
    """The first m primes in ascending order."""
    if m < 1:
        return np.array([], dtype=np.int64)
    # p_m < m (log m + log log m) for m >= 6; pad the small cases.
    bound = 15 if m < 6 else int(m * (math.log(m) + math.log(math.log(m))) * 1.2) + 10
    ps = primes_up_to(bound)
    while ps.size < m:
        bound *= 2
        ps = primes_up_to(bound)
    return ps[:m]


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, ..., 41, the first 13 primes, which
    decides every n below psi_13 = 3317044064679887385961981 exactly
    (Sorenson and Webster, Math. Comp. 86 (2017)); ValueError at or above
    it.  Used to verify truncation levels and frequency keys."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    bound = 3317044064679887385961981
    if n >= bound:
        raise ValueError(f"is_prime decides n below psi_13 = {bound} only, got {n}")
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
