"""Seeded random cross-validation far past the exhaustive sweeps' ceiling.

The sweeps stop at n = 40. Here a fixed seed draws uniformly random p-regular
partitions with n in [200, 600] and checks, on each lambda:
- the recursion and the rim-symbol route agree, and M(M(lambda)) = lambda;
- L17's statement: eps_i(lambda) = eps_{-i}(M lambda), phi likewise, and
  M e_i lambda = e_{-i} M lambda for every normal residue i;
- the block rule: M(lambda) has the conjugate p-core of lambda and the same
  p-weight (D^lambda (x) sgn = D^{M(lambda)}, and blocks are p-cores);
and on lambda and on M(lambda):
- the signature and arithmetic JS tests agree;
- the counts walk _node_counts gives classify_nodes' counts, with one more conormal node than
  normal nodes (the draws have 12 to 44 rows, in runs up to p - 1 long);
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
    conjugate,
    enumerate_partitions,
    is_js,
    is_js_arith,
    is_p_regular,
    mullineux_image,
    mullineux_via_symbol,
    tilde_e,
    tilde_f,
)
from modpart.branching import _node_counts

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


def _core_and_weight(lam, p):
    """The p-core and p-weight of lam, on James's abacus: slide every bead of
    the beta-set {lam_k + h - k} as far up its runner (residue mod p) as it
    goes; each step up removes one p-hook."""
    h = lam.height
    beads = [0] * p
    for k, x in enumerate(lam, 1):
        beads[(x + h - k) % p] += 1
    beta = sorted((r + p * j for r in range(p) for j in range(beads[r])), reverse=True)
    core = tuple(b - (h - k) for k, b in enumerate(beta, 1) if b > h - k)
    weight, rest = divmod(lam.size - sum(core), p)
    assert rest == 0
    return core, weight


def test_core_helper():
    # checked by hand against hook lengths
    assert _core_and_weight(Partition((6,)), 3) == ((), 2)
    assert _core_and_weight(Partition((2, 1)), 3) == ((), 1)
    assert _core_and_weight(Partition((2, 1)), 5) == ((2, 1), 0)
    assert _core_and_weight(Partition((5, 1, 1)), 3) == ((2, 1, 1), 1)
    assert _core_and_weight(Partition((4, 2)), 3) == ((4, 2), 0)


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
def test_l17_negates_residues_and_intertwines_tilde_e(draws, p):
    for lam in draws[p]:
        image = mullineux_image(lam, p)
        eps, phi = _node_counts(lam, p)
        eps_m, phi_m = _node_counts(image, p)
        for i in range(p):
            assert (eps[i], phi[i]) == (eps_m[-i % p], phi_m[-i % p]), (lam, i)
            if eps[i]:
                assert mullineux_image(tilde_e(lam, i, p), p) == tilde_e(image, -i % p, p), (lam, i)


@pytest.mark.parametrize("p", PRIMES)
def test_the_map_conjugates_the_core_and_keeps_the_weight(draws, p):
    for lam in draws[p]:
        core, weight = _core_and_weight(lam, p)
        assert _core_and_weight(mullineux_image(lam, p), p) == (conjugate(Partition(core)), weight), lam


@pytest.mark.parametrize("p", PRIMES)
def test_signature_facts_on_the_draw_and_its_image(draws, p):
    for lam in draws[p]:
        for mu in (lam, mullineux_image(lam, p)):
            assert is_js(mu, p) == is_js_arith(mu, p), mu
            nc = classify_nodes(mu, p)
            assert _node_counts(mu, p) == (nc.epsilon, nc.phi), mu
            assert sum(nc.phi) == sum(nc.epsilon) + 1, mu
            for i in range(p):
                want = mu.add(nc.conormal[i][0]) if nc.conormal[i] else None
                assert tilde_f(mu, i, p) == want, (mu, i)
