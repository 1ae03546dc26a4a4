"""Seeded random cross-validation far past the exhaustive sweeps' ceiling.

The sweeps stop at n = 40. Here a fixed seed draws uniformly random p-regular
partitions with n in [200, 600] and checks, on each lambda:
- the recursion and the rim-symbol route agree, and M(M(lambda)) = lambda;
and on lambda and on M(lambda):
- the signature and arithmetic JS tests agree;
- there is one more conormal node than normal nodes;
- tilde_f adds the top conormal node of classify_nodes, for every residue.

n stays at or below 600 so that a cold recursion chain plus pytest's own
frames fits under the default recursion limit. The seed is fixed: a draw that
fails is a fault to fix, not a draw to replace.
"""

import random

import pytest

from modpart import (
    Partition,
    classify_nodes,
    enumerate_partitions,
    is_js,
    is_js_arith,
    is_p_regular,
    mullineux_image,
    mullineux_via_symbol,
    tilde_f,
)

PRIMES = (3, 5, 7)
DRAWS_PER_PRIME = 8
N_RANGE = (200, 600)


def _regular_counts(n_max, p):
    """counts[k][m]: the p-regular partitions of m with no part above k.

    Each part size k repeats 0..p-1 times, so the generating function gains
    the factor (1 - q^(pk)) / (1 - q^k) at step k.
    """
    counts = [[1] + [0] * n_max]
    for k in range(1, n_max + 1):
        prev = counts[-1]
        row = prev[:]
        for m in range(k, n_max + 1):
            row[m] += row[m - k]
            if m >= p * k:
                row[m] -= prev[m - p * k]
        counts.append(row)
    return counts


def _uniform_regular(rng, n, p, counts):
    """A uniformly random p-regular partition of n: from the largest part
    size down, pick how often it repeats, weighted by the completions left."""
    parts, rest = [], n
    for k in range(n, 0, -1):
        x = rng.randrange(counts[k][rest])
        for times in range(min(p - 1, rest // k) + 1):
            weight = counts[k - 1][rest - times * k]
            if x < weight:
                break
            x -= weight
        parts += [k] * times
        rest -= times * k
    assert rest == 0
    return Partition(parts)


def _draws(p):
    rng = random.Random(f"modpart random large n, p={p}")
    sizes = [rng.randint(*N_RANGE) for _ in range(DRAWS_PER_PRIME)]
    counts = _regular_counts(max(sizes), p)
    return [_uniform_regular(rng, n, p, counts) for n in sizes]


@pytest.fixture(scope="module")
def draws():
    return {p: _draws(p) for p in PRIMES}


@pytest.mark.parametrize("p", PRIMES)
def test_counts_match_enumeration(p):
    counts = _regular_counts(20, p)
    for n in range(21):
        assert counts[n][n] == sum(1 for _ in enumerate_partitions(n, p, regular_only=True)), n


@pytest.mark.parametrize("p", PRIMES)
def test_draws_are_regular_and_in_range(draws, p):
    assert len(draws[p]) == DRAWS_PER_PRIME
    for lam in draws[p]:
        assert N_RANGE[0] <= lam.size <= N_RANGE[1]
        assert is_p_regular(lam, p)


@pytest.mark.parametrize("p", PRIMES)
def test_routes_agree_and_the_map_is_an_involution(draws, p):
    for lam in draws[p]:
        image = mullineux_image(lam, p)
        assert image == mullineux_via_symbol(lam, p), lam
        assert mullineux_image(image, p) == lam, lam


@pytest.mark.parametrize("p", PRIMES)
def test_signature_facts_on_the_draw_and_its_image(draws, p):
    for lam in draws[p]:
        for mu in (lam, mullineux_image(lam, p)):
            assert is_js(mu, p) == is_js_arith(mu, p), mu
            nc = classify_nodes(mu, p)
            assert sum(nc.phi) == sum(nc.epsilon) + 1, mu
            for i in range(p):
                want = mu.add(nc.conormal[i][0]) if nc.conormal[i] else None
                assert tilde_f(mu, i, p) == want, (mu, i)
