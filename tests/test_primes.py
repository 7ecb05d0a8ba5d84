import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gramlab import accum
from gramlab import primes as pr
from gramlab.errors import (ChecksumMismatch, PreconditionError, ResourceError,
                            VersionMismatch)
from gramlab.regression import MERTENS_CONSTANT


def test_sieve_against_independent_generator():
    from sympy import primerange

    table = pr.sieve_primes(10**5)
    ref = np.array(list(primerange(2, 10**5 + 1)), dtype=np.uint64)
    assert np.array_equal(table.primes, ref)
    assert pr.verify_spot_range(table, 50000, 60000)


def test_sieve_peak_memory_stays_near_its_primes():
    """A cold segmented sieve fills one buffer: no segment list is held while
    a full copy is made, which peaked at 2.0x the primes' bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        table = pr.sieve_primes(5 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * table.primes.nbytes
    assert np.array_equal(table.primes, pr._base_primes(5 * 10**7))


@settings(max_examples=300, deadline=None)
@given(lo=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 20000)),
       width=st.one_of(st.integers(0, 3), st.integers(0, 5000)),
       base_prime=st.sampled_from([3, 5, 7, 11, 13, 97, 101, 127]),
       straddle=st.booleans())
def test_sieve_block_matches_a_plain_sieve(lo, width, base_prime, straddle):
    """The odd-only segment mask: windows from 0..3 up, narrower than 3, with
    either parity at each end, and across the square of a base prime, where
    that prime starts to strike."""
    if straddle:
        lo = max(0, base_prime ** 2 - width // 2)
    hi = lo + width
    plain = pr._base_primes(max(hi - 1, 1))
    want = plain[(plain >= lo) & (plain < hi)]
    got = pr._sieve_block(lo, hi, pr._base_primes(math.isqrt(max(hi - 1, 1))))
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_spot_check_flags_a_missing_prime():
    table = pr.sieve_primes(10**5)
    assert pr.verify_spot_range(table, 2, 10**5)
    i = int(np.searchsorted(table.primes, 50021))
    holed = pr.PrimeTable(limit=table.limit, primes=np.delete(table.primes, i))
    assert not pr.verify_spot_range(holed, 50000, 60000)
    assert pr.verify_spot_range(holed, 2, 50000)


def test_sieve_ceiling():
    with pytest.raises(ResourceError):
        pr.sieve_primes(10**9)
    with pytest.raises(ResourceError):
        pr.mertens_sums(2 * 10**8)


def test_sieve_cache_roundtrip(tmp_path):
    table = pr.sieve_primes(10**5)
    path = tmp_path / "primes.bin"
    pr.save_prime_cache(path, table)
    raw = path.read_bytes()
    assert raw[:8] == b"GRAMLAB\0"
    assert raw[8] == 1
    loaded = np.concatenate(list(pr.load_prime_cache(path)))
    assert np.array_equal(loaded, table.primes)
    # bad magic
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ChecksumMismatch):
        pr.load_prime_cache(bad)
    # future version byte
    v2 = tmp_path / "v2.bin"
    v2.write_bytes(raw[:8] + bytes([2]) + raw[9:])
    with pytest.raises(VersionMismatch):
        pr.load_prime_cache(v2)
    # payload cut inside a prime
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[:-3])
    with pytest.raises(ChecksumMismatch):
        pr.load_prime_cache(cut)
    # a header cut before its version byte, down to an empty file
    for size in range(9):
        short = tmp_path / f"short{size}.bin"
        short.write_bytes(raw[:size])
        with pytest.raises(ChecksumMismatch):
            pr.load_prime_cache(short)


def test_prime_sums_peak_memory_is_flat_in_x(tmp_path):
    """The sums hold one block of primes at a time, cold (sieving all) and warm
    (re-sieving a sample of blocks): no table of all the primes is built."""
    import tracemalloc

    def peak(x):
        tracemalloc.start()
        try:
            pr.prime_sums(x, (0.2,), cache_dir=tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (cold1, warm1), (cold2, warm2) = [(peak(x), peak(x)) for x in (10**7, 2 * 10**7)]
    sdir = tmp_path / "primes_000020000000"
    assert json.loads((sdir / "manifest.json").read_text())["limit"] == 2 * 10**7
    assert len(json.loads((sdir / "parts.json").read_text())["1 / p"]) == 11    # blocks
    assert abs(cold2 - cold1) < 2**20 and abs(warm2 - warm1) < 2**20
    assert warm1 < 8 * 664579           # the 1e7 table's bytes


def _assert_1e7_pinned(cache_dir):
    # 664,579 primes in 6 blocks, each sum correctly rounded, as float.hex
    lp, rp = pr.mertens_sums(10**7, cache_dir=cache_dir)
    assert (lp.hex(), rp.hex()) == ("0x1.d924752d6bd33p+3", "0x1.854e369c8494dp+1")
    assert pr.v_xh(1e7, 0.2, cache_dir=cache_dir).value.hex() == "0x1.a6fe730127f56p-1"
    assert pr.v_xh(1e7, 0.39, cache_dir=cache_dir).value.hex() == "0x1.248becb9c7a6cp+0"


def test_prime_sums_at_1e7_pinned(tmp_path):
    _assert_1e7_pinned(tmp_path)


def test_prime_sums_are_fsum_of_their_terms():
    """Each sum is math.fsum over its whole term array, which no cut of the
    primes reaches: at 1e6 and 1e7, 1 / p read one ulp low when it was
    rounded once per chunk of 65,536 primes.  The V(x;h) terms are those of
    `_vxh_term`."""
    def fsums(x, hs):
        p = pr.sieve_primes(x).primes.astype(float)
        lnp = np.log(p)
        terms = [lnp / p, 1.0 / p, *(pr._vxh_term(h)[1]((p, lnp)) for h in hs)]
        return [math.fsum(t.tolist()).hex() for t in terms]

    (lp, rp), vxh = pr.prime_sums(10**6, (0.2, 0.39))
    assert [lp.hex(), rp.hex(), *(v.value.hex() for v in vxh)] == fsums(10**6, (0.2, 0.39))
    assert [v.hex() for v in pr.mertens_sums(10**7)] == fsums(10**7, ())


@pytest.mark.parametrize("h", [0.05, 0.1, 0.2, 0.39])
def test_vxh_term_within_4_ulp_of_mpmath(h):
    """The term t^2 / ((1 + t^2) p), t = tan(y), is within 4 ulp of
    sin^2(y) / p at 30 digits, with y = h ln p / 2 as the term takes it, on
    seeded windows of primes up to 1e8 and on those where y passes pi/2 and pi."""
    rng = np.random.default_rng(36)
    base = pr._base_primes(10**4)
    centres = [*rng.integers(10**4, 10**8 - 10**4, 6),
               *(c for c in (math.exp(math.pi / h), math.exp(2 * math.pi / h)) if c < 10**8)]
    p = np.concatenate([pr._sieve_block(max(int(c) - 5000, 2), int(c) + 5000, base)
                        for c in centres]).astype(float)
    lnp = np.log(p)
    got = pr._vxh_term(h)[1]((p, lnp))
    with mpmath.workdps(30):
        ref = [mpmath.sin(mpmath.mpf(y)) ** 2 / int(q) for y, q in zip(0.5 * h * lnp, p)]
        ulps = [abs(mpmath.mpf(g) - r) / np.spacing(float(r)) for g, r in zip(got, ref)]
    assert max(ulps) <= 4


def _blocks_1e7() -> list[np.ndarray]:
    """The primes <= 1e7 by block: the base primes <= 3162, then one block per
    2^21 numbers from 3163, the last ending at 1e7."""
    primes = pr.sieve_primes(10**7).primes
    return np.split(primes, np.searchsorted(primes, range(3163, 10**7, 2**21)))


def _count_chunk_sums(monkeypatch) -> list[int]:
    """The sizes of the chunks summed from here on, one entry per term and chunk."""
    sizes, chunk_sum = [], accum._chunk_sum

    def counting(c, q, r):
        sizes.append(c.size)
        return chunk_sum(c, q, r)

    monkeypatch.setattr(accum, "_chunk_sum", counting)
    return sizes


def _pieces(blocks, terms: int) -> list[int]:
    """The sizes of the chunks that accum sums a stream of blocks in, once for
    each term of a chunk."""
    return [min(accum.CHUNK, b.size - i) for b in blocks
            for i in range(0, b.size, accum.CHUNK) for _ in range(terms)]


_SIDECAR = "primes_000010000000"


def _parts(cache_dir) -> dict[str, list[list[str]]]:
    """The stored parts of the 1e7 sidecar in cache_dir."""
    return json.loads((cache_dir / _SIDECAR / "parts.json").read_text())


def _listing(sdir) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sdir.iterdir()}


def test_prime_sums_at_1e7_pinned_from_the_sidecar(tmp_path, monkeypatch):
    _assert_1e7_pinned(tmp_path)
    assert len(_parts(tmp_path)) == 4       # each call added its term
    summed = _count_chunk_sums(monkeypatch)
    _assert_1e7_pinned(tmp_path)
    sample = [_blocks_1e7()[i] for i in (0, 5)]
    # each term over blocks 0 and 5 of 6: the Mertens pair, then each V(x;h)
    assert summed == _pieces(sample, 2) + _pieces(sample, 1) * 2


def _count_sieved(monkeypatch) -> list[tuple[int, int]]:
    """The ranges [lo, hi) that _sieve_block sieves from here on."""
    ranges, sieve_block = [], pr._sieve_block

    def counting(lo, hi, base):
        ranges.append((lo, hi))
        return sieve_block(lo, hi, base)

    monkeypatch.setattr(pr, "_sieve_block", counting)
    return ranges


def test_warm_prime_sums_resum_a_sample_of_chunks(tmp_path, monkeypatch):
    """A warm sum re-sieves its sampled blocks from their bounds and re-sums
    them, chunk by chunk."""
    blocks = _blocks_1e7()
    assert len(blocks) == 6
    summed = _count_chunk_sums(monkeypatch)
    cold = pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path)
    assert summed == _pieces(blocks, 3)
    assert [len(p) for p in _parts(tmp_path).values()] == [6, 6, 6]
    summed.clear()
    sieved = _count_sieved(monkeypatch)
    assert pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path) == cold
    # blocks 0 and 5 of 6, re-sieved from their bounds, each summed for its
    # three terms
    assert sieved == [(0, 3163), (3163 + 4 * 2**21, 10**7 + 1)]
    assert summed == _pieces([blocks[0], blocks[5]], 3)


def test_a_sidecar_of_the_sin_form_is_rewritten_once(tmp_path, monkeypatch):
    """A sidecar written with the earlier term sin(y)^2 / p fails the warm
    sample check: the sums are computed in full from the tangent form and
    written once, and the next call takes them from its sample."""
    tangent = pr._vxh_term

    def sin_form(h):
        return tangent(h)[0], lambda c: np.sin(0.5 * h * c[1]) ** 2 / c[0]

    monkeypatch.setattr(pr, "_vxh_term", sin_form)
    earlier = pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path)
    stored = _parts(tmp_path)
    monkeypatch.setattr(pr, "_vxh_term", tangent)
    writes, write_checked = [], pr.write_checked
    monkeypatch.setattr(pr, "write_checked",
                        lambda *a, **k: writes.append(1) or write_checked(*a, **k))
    sieved = _count_sieved(monkeypatch)
    now = pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path)
    sample = [(0, 3163), (3163 + 4 * 2**21, 10**7 + 1)]
    assert sieved == sample + [(lo, min(lo + 2**21, 10**7 + 1))
                               for lo in range(3163, 10**7 + 1, 2**21)]
    assert writes == [1]
    assert now == pr.prime_sums(10**7, (0.2,)) and now[0] == earlier[0]
    parts = _parts(tmp_path)
    (name,) = parts.keys() - pr._MERTENS_TERMS.keys()
    assert parts[name] != stored[name]
    assert {k: parts[k] for k in pr._MERTENS_TERMS} == {k: stored[k] for k in pr._MERTENS_TERMS}
    sieved.clear()
    assert pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path) == now
    assert sieved == sample and writes == [1]


def test_sums_that_fail_leave_no_sidecar(tmp_path, monkeypatch):
    chunk_sum, calls = accum._chunk_sum, []

    def failing(c, q, r):
        calls.append(c.size)
        if len(calls) == 5:
            raise MemoryError("term")
        return chunk_sum(c, q, r)

    monkeypatch.setattr(accum, "_chunk_sum", failing)
    with pytest.raises(MemoryError):                # cold
        pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(accum, "_chunk_sum", chunk_sum)
    pr.mertens_sums(10**7, cache_dir=tmp_path)
    sdir = tmp_path / _SIDECAR
    raw = _listing(sdir)
    calls.clear()
    monkeypatch.setattr(accum, "_chunk_sum", failing)
    with pytest.raises(MemoryError):                # warm, with a term the sidecar lacks
        pr.prime_sums(10**7, (0.2,), cache_dir=tmp_path)
    assert [f.name for f in tmp_path.iterdir()] == [_SIDECAR]
    assert _listing(sdir) == raw
    # a sidecar write that fails leaves no manifest and no temporary file, so
    # the next call takes the sidecar for absent and writes it whole
    monkeypatch.setattr(accum, "_chunk_sum", chunk_sum)

    def refused(src, dst):
        raise OSError("rename")

    monkeypatch.setattr(pr.os, "replace", refused)
    with pytest.raises(OSError, match="rename"):
        pr.v_xh(1e7, 0.2, cache_dir=tmp_path)
    assert _listing(sdir) == {"parts.json": raw["parts.json"]}
    monkeypatch.undo()
    summed = _count_chunk_sums(monkeypatch)
    value = pr.v_xh(1e7, 0.2, cache_dir=tmp_path)
    assert summed == _pieces(_blocks_1e7(), 1)     # one full stream of its one term
    assert sorted(_listing(sdir)) == ["manifest.json", "parts.json"]
    assert value == pr.v_xh(1e7, 0.2)


def test_mertens_hand_value_at_10():
    lp, rp = pr.mertens_sums(10)
    assert rp == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7, abs=1e-15)
    assert lp < math.log(10)


def test_mertens_constant_frozen_digits_rederived():
    """Re-derive the frozen constant from prime-zeta series (30 digits)."""
    from sympy import mobius

    with mpmath.workdps(40):
        c = mpmath.euler
        for k in range(2, 90):
            mu = int(mobius(k))
            if mu:
                c += mpmath.mpf(mu) / k * mpmath.log(mpmath.zeta(k))
        assert abs(float(c) - MERTENS_CONSTANT) < 1e-15


@pytest.mark.parametrize("x", [2, 10, 97, 5000, 10**6])
def test_lemma_style_inequalities(x):
    lp, rp = pr.mertens_sums(x)
    assert lp < math.log(x)
    theta = (rp - math.log(math.log(x)) - MERTENS_CONSTANT) * math.log(x) ** 2
    assert -0.5 < theta < 1.0


def test_mertens_precondition():
    with pytest.raises(PreconditionError):
        pr.mertens_sums(1)


def test_v_y_trivial_cases():
    assert pr.v_y(0.0, 100.0) == 0.0
    # single term below 3: sin(t ln 2)/(pi sqrt 2)
    t = 1.7
    assert pr.v_y(t, 3.0) == pytest.approx(
        math.sin(t * math.log(2.0)) / (math.pi * math.sqrt(2.0)), abs=1e-15)
    with pytest.raises(PreconditionError):
        pr.v_y(1.0, 1.5)


def test_v_y_refuses_a_phase_without_digits():
    """One float64 step of t ln p, p = 47 the largest prime below 50, is
    2^-20 < VY_PHASE_STEP below 2^33 and 2^-19 from there."""
    edge = 2.0**33 / math.log(47.0)
    for t in (edge * (1 - 1e-12), -edge * (1 - 1e-12)):
        assert abs(pr.v_y(t, 50.0)) < 2.0
    for t in (edge * (1 + 1e-12), -1e17, 1e300):
        with pytest.raises(PreconditionError, match="at most 1e-06 for p = 47"):
            pr.v_y(t, 50.0)
    assert pr.v_y(1e300, 2.0) == 0.0            # no prime below 2: no phase
    below = pr.sieve_primes(10**4).primes
    for y in (2.5, 3.0, 47.0, 47.5, 9973.0, 9973.5, 1e4):
        assert pr._largest_prime_below(y) == int(below[below < y][-1])
    assert pr._largest_prime_below(47326913) == 47326693    # the gap of 220


def test_v_y_strict_cutoff():
    # p < y strictly: y = 7 excludes 7 itself
    t = 2.34
    v7 = pr.v_y(t, 7.0)
    manual = math.fsum(math.sin(t * math.log(p)) / math.sqrt(p) for p in (2, 3, 5)) / math.pi
    assert v7 == pytest.approx(manual, abs=1e-15)


def test_v_y_against_high_precision_recomputation():
    t, y = 100.0, 10**4
    with mpmath.workdps(40):
        ref = mpmath.mpf(0)
        for p in pr.sieve_primes(10**4).primes:
            p = int(p)
            if p < y:
                ref += mpmath.sin(t * mpmath.log(p)) / mpmath.sqrt(p)
        ref = float(ref / mpmath.pi)
    assert abs(pr.v_y(t, y) - ref) < 1e-10


def test_v_y_partition_metamorphic():
    t, y1, y2 = 33.3, 50.0, 200.0
    head = pr.v_y(t, y1)
    mid = [int(p) for p in pr.sieve_primes(200).primes if y1 <= p < y2]
    tail = math.fsum(math.sin(t * math.log(p)) / math.sqrt(p) for p in mid) / math.pi
    assert head + tail == pytest.approx(pr.v_y(t, y2), abs=1e-13)


def test_v_xh_values_and_bound():
    for x in (1e4, 1e6):
        for h in (0.05, 0.1, 0.2, 0.39):
            if h * math.log(x) > 2.0 and h < pr.H_CEILING:
                res = pr.v_xh(x, h)
                assert res.deviation <= 1.05
            else:
                with pytest.raises(PreconditionError):
                    pr.v_xh(x, h)


def test_v_xh_boundary_exactly_two():
    x = math.exp(2.0 / 0.2)  # h ln x == 2 exactly up to rounding
    with pytest.raises(PreconditionError):
        pr.v_xh(x, 0.2)
    with pytest.raises(PreconditionError):
        pr.v_xh(1e6, 0.4)  # h at the ceiling
    with pytest.raises(PreconditionError):
        pr.v_xh(1e6, 0.0)


def test_diagonal_identity_k1_exact():
    chk = pr.diagonal_identity_check(1, 10)
    assert chk.ok and chk.lhs == chk.sigma1
    assert chk.lhs == pytest.approx(1.1761904761904762, abs=0)
    assert chk.theta == 0.0


def test_diagonal_identity_k2_window():
    chk = pr.diagonal_identity_check(2, 50)
    assert chk.ok
    assert -1.0 <= chk.theta <= 0.0
    # permutation-only solutions force theta = -1/8 exactly for any map
    assert chk.theta == pytest.approx(-0.125, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_diagonal_identity_k2_random_maps(seed):
    rng = np.random.default_rng(seed)
    primes = [int(p) for p in pr.sieve_primes(60).primes]
    a = {p: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2.0 for p in primes}
    chk = pr.diagonal_identity_check(2, 50, a=a)
    assert chk.ok


@pytest.mark.parametrize("y", [21, 50, 1000])
def test_diagonal_identity_k2_is_its_closed_form(y):
    """With unit coefficients the k = 2 brute force is lhs = 2 sigma1^2 - sigma2:
    each pair of primes p < q gives pq twice, and p = q gives p^2 once.  So
    theta = -1/8 at every y, and the check cannot fail."""
    primes = pr.sieve_primes(y).primes.tolist()
    sigma1 = math.fsum(1.0 / p for p in primes)
    sigma2 = math.fsum(1.0 / p ** 2 for p in primes)
    chk = pr.diagonal_identity_check(2, y)
    assert chk.lhs == pytest.approx(2.0 * sigma1 ** 2 - sigma2, rel=1e-14, abs=0)
    assert chk.theta == pytest.approx(-0.125, rel=1e-13, abs=0)


def test_diagonal_identity_zero_map():
    chk = pr.diagonal_identity_check(2, 30, a={})
    assert chk.lhs == 0.0 and chk.ok


def test_diagonal_identity_limits():
    with pytest.raises(ResourceError):
        pr.diagonal_identity_check(2, 2000.0)
    with pytest.raises(PreconditionError):
        pr.diagonal_identity_check(3, 50.0)
    with pytest.raises(PreconditionError):
        pr.diagonal_identity_check(2, 15.0)


def test_residual_moments(table_small):
    rep = pr.residual_moments(table_small, 100, 500, 1)
    assert rep.bound_satisfied
    assert rep.sum >= 0.0
    assert any("exploratory" in n for n in rep.notes)


def test_residual_moments_with_explicit_cutoff(table_small):
    # with a real prime cutoff the sum mixes S and V; bound still holds
    rep = pr.residual_moments(table_small, 100, 400, 1, y=100.0)
    assert rep.bound_satisfied and rep.sum > 0.0
