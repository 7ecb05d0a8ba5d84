import math

import numpy as np
import pytest

from gramlab.accum import CHUNK, csum, partials, total

# lengths around CHUNK, and around 2^16 and 3 * 2^16 + 7, which sit at or
# next to a chunk boundary for any CHUNK a power of two up to 2^16
LENGTHS = sorted({0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7,
                  2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7})


def fsum(a: np.ndarray) -> float:
    """The reference: math.fsum over the whole array."""
    return math.fsum(a.tolist())


def csums(arr, *terms, prep=None) -> tuple[float, ...]:
    """The correctly rounded sum of each term over arr: the `total` of its `partials`."""
    return tuple(map(total, partials(arr, *terms, prep=prep)))


def outcome(f, a):
    try:
        return float.hex(f(a))       # the hex keeps the sign of zero
    except (ValueError, OverflowError) as exc:
        return type(exc)


def cut(a: np.ndarray, *at: int) -> list[np.ndarray]:
    """a as a list of blocks cut at 0, at the given offsets and at four random
    ones: the first block, and any between two equal cuts, is empty."""
    more = np.random.default_rng(a.size).integers(0, a.size + 1, 4)
    return np.split(a, np.sort(np.clip([0, *at, *more], 0, a.size)))


def _data(kind: str, n: int, rng) -> np.ndarray:
    if kind == "prime_like":       # ln p / p over odd p, as in the Mertens sums
        p = 1e7 + 1.0 + 2.0 * np.arange(n)
        return np.log(p) / p
    if kind == "cancelling":
        x = rng.uniform(-1, 1, n // 2) * 10.0 ** rng.integers(-8, 8, n // 2)
        a = np.concatenate([x, -x, rng.uniform(-1e-12, 1e-12, n - 2 * (n // 2))])
        rng.shuffle(a)
        return a
    if kind == "wide":             # exponents across +-300
        return rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n)
    if kind == "subnormal":
        return rng.integers(-2**40, 2**40, n) * 5e-324
    if kind == "zeros":
        return rng.choice([0.0, -0.0, 1e-310, -1e-310, 3.0, -3.0], n)
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["prime_like", "cancelling", "wide", "subnormal", "zeros"])
@pytest.mark.parametrize("n", LENGTHS)
def test_csum_equals_chunked_fsum(kind, n):
    """csum of the array, whole or cut into blocks, is math.fsum over it."""
    a = _data(kind, n, np.random.default_rng(n))
    want = outcome(fsum, a)
    assert outcome(csum, a) == want
    assert outcome(lambda a: csum(cut(a, CHUNK - 1, CHUNK + 1)), a) == want


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_csum_signed_zero(n):
    for a in (np.full(n, -0.0), np.full(n, 0.0), np.tile([-0.0, 0.0], n)[:n]):
        assert outcome(csum, a) == outcome(fsum, a)
    x = np.random.default_rng(n).standard_normal(n)
    a = np.concatenate([x, -x[::-1]])          # exact total zero, cancelling across chunks
    assert outcome(csum, a) == outcome(fsum, a)
    assert outcome(lambda a: csum(cut(a, n)), a) == outcome(fsum, a)


@pytest.mark.parametrize("special", [
    [math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [math.inf, math.nan],
    [1e308, 1e308], [1e308, 1e308, -1e308], [-1e308, -1e308], [2.0**1006, 2.0**1006],
])
@pytest.mark.parametrize("at", sorted({0, CHUNK - 1, CHUNK + 5, 2**16 - 1, 2**16 + 5}))
def test_csum_special_values_as_fsum(special, at):
    a = np.random.default_rng(at).uniform(-1, 1, 2 * max(CHUNK, 2**16))
    a[at : at + len(special)] = special
    want = outcome(fsum, a)
    assert outcome(csum, a) == want
    assert outcome(lambda a: csum(cut(a, at + 1)), a) == want      # a block cut inside


def test_csums_evaluates_terms_by_chunk():
    p = np.arange(3, 3 + 2 * (CHUNK + 9), 2, dtype=np.uint64)
    pf = p.astype(float)
    got = csums(p, lambda c: np.log(c) / c, lambda c: 1.0 / c)
    assert [float.hex(g) for g in got] == [float.hex(fsum(np.log(pf) / pf)),
                                          float.hex(fsum(1.0 / pf))]
    assert csums(np.empty(0), lambda c: c, lambda c: c) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_csums_of_blocks_equal_csums_of_their_concatenation(seed):
    rng = np.random.default_rng(seed)
    a = _data(["prime_like", "cancelling", "wide"][seed % 3], 4 * CHUNK + 11, rng)
    cuts = np.sort(np.concatenate([
        rng.integers(0, a.size, 8),                          # random, with repeats: empty blocks
        [0, 0, CHUNK - 1, CHUNK + 1, 2 * CHUNK, 3 * CHUNK - 1, 3 * CHUNK + 1, a.size]]))
    blocks = np.split(a, cuts)
    assert any(b.size == 0 for b in blocks)
    terms = (lambda c: c, np.sin)
    want = [float.hex(v) for v in csums(a, *terms)]
    assert [float.hex(v) for v in csums(iter(blocks), *terms)] == want
    assert [float.hex(v) for v in csums(blocks, *terms)] == want    # a list is a stream too
    assert float.hex(csum(iter(blocks))) == float.hex(fsum(a))


def test_partials_are_exact_parts_by_block():
    """One list of parts per block, empty blocks included; the fsum of a
    block's parts is the fsum of its terms, and of all parts, of all terms."""
    a = _data("cancelling", 3 * CHUNK + 7, np.random.default_rng(7))
    blocks = cut(a, 5, 5, CHUNK + 1, 2 * CHUNK + 3)
    assert any(b.size == 0 for b in blocks)
    terms = (lambda c: c, np.sin)
    got = partials(iter(blocks), *terms)
    assert [len(p) for p in got] == [len(blocks)] * 2
    for term, parts in zip(terms, got):
        assert [float.hex(math.fsum(p)) for p in parts] == \
            [float.hex(fsum(term(b))) for b in blocks]
        assert float.hex(math.fsum(v for p in parts for v in p)) == float.hex(fsum(term(a)))
    for i, b in enumerate(blocks):          # a block's parts depend on it alone
        assert [p[i] for p in got] == [p[0] for p in partials(b.copy(), *terms)]


def test_csums_of_integer_blocks_carry_across_blocks():
    # uint64 blocks, as the prime stream yields them, converted chunk by chunk
    p = np.arange(3, 3 + 2 * (2 * CHUNK + 5), 2, dtype=np.uint64)
    blocks = [p[:7], p[7:7], p[7 : CHUNK + 1], p[CHUNK + 1 :]]
    prep = lambda c: (c, np.log(c))        # noqa: E731
    terms = (lambda c: c[1] / c[0], lambda c: 1.0 / c[0])
    assert csums(iter(blocks), *terms, prep=prep) == csums(p, *terms, prep=prep)
    assert csums(iter([]), *terms) == (0.0, 0.0)


def test_csum_matches_fsum_exactly():
    rng = np.random.default_rng(3)
    arr = rng.uniform(-1, 1, size=200_000) * 10.0 ** rng.integers(-8, 8, size=200_000)
    assert csum(arr[:1000]) == math.fsum(arr[:1000].tolist())


def test_csum_ill_conditioned():
    arr = np.array([1e16, 1.0, -1e16, 1.0])
    assert csum(arr) == 2.0


def test_csum_empty():
    assert csum(np.empty(0)) == 0.0
