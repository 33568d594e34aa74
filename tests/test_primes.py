"""primes.is_prime: deterministic Miller-Rabin, exact below psi_13."""

import pytest

from zetalab.primes import is_prime, primes_up_to

PSI_13 = 3317044064679887385961981


def test_agrees_with_the_sieve_below_10_6():
    n_max = 10 ** 6
    sieve = set(primes_up_to(n_max - 1).tolist())
    assert [n for n in range(-5, n_max) if is_prime(n) != (n in sieve)] == []


@pytest.mark.parametrize("n", [
    561,  # the least Carmichael number
    3215031751,  # psi_4: strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # psi_11: strong pseudoprime to the primes up to 31
    318665857834031151167461,  # psi_12: strong pseudoprime to the primes up to 37
    PSI_13 - 2,
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2 ** 61 - 1, 100000000000031, 2 ** 64 - 59, 2 ** 31 - 1])
def test_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", [PSI_13, PSI_13 + 1, 10 ** 30])
def test_refused_from_psi_13(n):
    with pytest.raises(ValueError, match=f"^is_prime decides n below psi_13 = {PSI_13} only, got {n}$"):
        is_prime(n)
