import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deletion_lab import construction
from deletion_lab.construction import (
    MAX_INNER_LENGTH,
    PaperParams,
    ParamsError,
    SignatureError,
    admissible_weight_cap,
    derive_params,
    encode_outer,
    executable_params,
    extract_signature,
    inner_codeword,
    params_from_json,
    params_to_json,
    preserves,
    rate_info,
    read_outer_words,
    smallest_lambda,
    toy_params,
)
from deletion_lab.words import DeletionPattern, Word, apply_pattern, is_subsequence

from helpers import join_patterns, outer_pattern, select, split_pattern, tau_prime, write_outer_words


def test_derive_params_examples():
    p4 = derive_params(Fraction(2, 5), 100)
    assert p4.lam == 2 and p4.delta == Fraction(7, 20)  # delta = 0.35
    p9 = derive_params("0.9", 100)
    assert p9.lam == 5 and p9.delta == Fraction(11, 160)  # 0.06875
    assert p9.log2_K == 14895
    assert p9.log2_R == 2 + 4 * p9.log2_K
    assert p9.log2_L == 1 + 2**p9.log2_K * p9.log2_R
    assert isinstance(p9, PaperParams)
    assert derive_params("0.999", 1).log2_K == 128070352


def test_relaxed_lambda_admits_one_below_half():
    for p in ("0.1", "0.3", "0.49"):
        assert Fraction(p) < 1 - Fraction(1, 2)  # the relaxed rule p < 1 - 2^-lam admits lam = 1
        assert smallest_lambda(p) >= 2  # strict rule needs (1+p)/2 < 1 - 2^-lam


def test_derive_params_rejects_bad_p():
    for bad in ("0", "1", "1.2", "-0.1"):
        with pytest.raises(ParamsError):
            derive_params(bad, 10)


def test_derive_params_rejects_nonpositive_delta(monkeypatch):
    monkeypatch.setattr(construction, "smallest_lambda", lambda p: 1)
    with pytest.raises(ParamsError, match="delta = -1/4"):
        derive_params("0.75", 10)


def test_params_from_json_names_missing_keys():
    with pytest.raises(ParamsError, match="R, delta"):
        params_from_json({"K": 2, "n": 4})
    with pytest.raises(ParamsError, match="lack key.*: p"):
        params_from_json({"mode": "paper", "n": 4})
    with pytest.raises(ParamsError, match="JSON object"):
        params_from_json([2, 2])
    with pytest.raises(ParamsError, match="'mode' = 'tooy'"):  # not read as toy mode
        params_from_json({"mode": "tooy", "K": 2, "R": 4, "delta": "1/2", "n": 4})


def test_paper_mode_refuses_to_materialize():
    params = derive_params("0.5", 10)
    with pytest.raises(ParamsError, match="not executable: log2 of the inner block length L is a 695-bit integer"):
        executable_params(params)
    assert "log2" in str(rate_info(params).keys()) or "log2_rate_floor" in rate_info(params)
    toy = toy_params(2, 4, 1, "1/2", 4)
    assert executable_params(toy) is toy


def test_toy_params_examples():
    t1 = toy_params(2, 2, 1, "0.5", 4)
    assert (t1.L, t1.N) == (8, 32)
    t2 = toy_params(2, 4, 2, "0.5", 8)
    assert (t2.L, t2.N) == (32, 256)
    with pytest.raises(ParamsError):
        toy_params(3, 3, 1, "0.5", 4)  # odd R
    with pytest.raises(ParamsError):
        toy_params(2, 4, 1, Fraction(1, 2), 6)  # delta*n odd
    with pytest.raises(ParamsError):
        toy_params(2, 4, 1, Fraction(1, 3), 4)  # delta*n not integral
    with pytest.raises(ParamsError, match="exceeds the configured limit"):
        toy_params(2, 1024, 1, "0.5", 4)  # L = 2^21 passes the 2^20 limit


def test_inner_codewords():
    t1 = toy_params(2, 2, 1, "0.5", 4)
    assert inner_codeword(1, t1) == Word("01010101")
    assert inner_codeword(2, t1) == Word("00110011")
    with pytest.raises(ParamsError):
        inner_codeword(3, t1)
    # built once per params object, outside the fields that equality and hashing read
    assert inner_codeword(1, t1) is inner_codeword(1, t1) is t1.inner_words[0]
    fresh = toy_params(2, 2, 1, "0.5", 4)
    assert fresh == t1 and hash(fresh) == hash(t1) and "inner_words" not in vars(fresh)
    # run counts: 2 R^(K+1-i), consecutive ratio exactly R
    for K, R in ((2, 2), (2, 4), (3, 2)):
        params = toy_params(K, R, 1, Fraction(1, 2), 4)
        counts = [len(inner_codeword(i, params).runs) for i in range(1, K + 1)]
        assert counts == [2 * R ** (K + 1 - i) for i in range(1, K + 1)]
        for a, b in zip(counts, counts[1:]):
            assert a == R * b


def test_encode_outer():
    t1 = toy_params(2, 2, 1, "0.5", 4)
    assert encode_outer((1,), t1) == inner_codeword(1, t1)
    assert encode_outer((1, 2), t1) == Word("0101010100110011")
    r = random.Random(0)
    for _ in range(20):
        X = tuple(r.randrange(1, 3) for _ in range(r.randrange(1, 6)))
        assert len(encode_outer(X, t1)) == len(X) * t1.L
    with pytest.raises(ParamsError):
        encode_outer((0,), t1)


def test_preserves_examples():
    params = toy_params(2, 4, 2, "0.5", 8)
    odd = DeletionPattern(32, tuple(range(1, 33, 2)))
    assert not preserves(odd, 1, params)  # sigma(g_1) = 1^16, one run
    assert preserves(odd, 2, params)  # sigma(g_2) = (01)^8, 16 runs
    empty = DeletionPattern(32, ())
    assert preserves(empty, 1, params) and preserves(empty, 2, params)


def test_admissibility_examples():
    params = toy_params(2, 4, 2, "0.5", 8)  # L=32: 1-admissible cutoff is 8
    assert admissible_weight_cap(params, 1) == 8
    assert admissible_weight_cap(params, 5) < 32
    # the cap agrees with a float evaluation of the bound away from ties
    for ell in range(0, 4):
        for w in range(0, 33):
            exact = w <= admissible_weight_cap(params, ell)
            approx = w <= 32 * (1 - 0.5 ** (ell + 1) - 0.5)
            assert exact == approx


def test_admissibility_exact_at_irrational_threshold():
    # R = 2: threshold involves 1/sqrt(2); squared-form arithmetic must match
    # a high-precision float evaluation on every weight
    params = toy_params(3, 2, 2, "0.5", 4)  # L = 16
    for ell in range(0, 3):
        bound = params.L * (1 - 0.5 ** (ell + 1) - 2 ** -0.5)
        for w in range(0, params.L + 1):
            assert (w <= admissible_weight_cap(params, ell)) == (w <= bound)


def test_signature_block_example():
    params = toy_params(2, 4, 2, "0.5", 4)
    tau = DeletionPattern(params.N, tuple(range(1, 33, 2)))  # odd bits of block 1
    sig = extract_signature(tau, params)
    assert sig.kept_indices == (2, 3)
    assert all(s == frozenset({1}) for s in sig.corruption_sets)
    assert outer_pattern(sig).deleted == (1, 4)


def test_signature_of_empty_pattern():
    params = toy_params(2, 4, 2, "0.5", 4)
    sig = extract_signature(DeletionPattern(params.N, ()), params)
    assert sig.kept_indices == (1, 2)
    assert all(s == frozenset({1}) for s in sig.corruption_sets)


def test_signature_subsequence_guarantee():
    params = toy_params(2, 4, 2, "0.5", 4)
    limit = int(params.N * (1 - 2**-params.lam - 0.5 - float(params.delta) / 2))
    r = random.Random(9)
    for _ in range(100):
        w = r.randrange(0, limit + 1)
        tau = DeletionPattern(params.N, tuple(r.sample(range(1, params.N + 1), w)))
        sig = extract_signature(tau, params)
        X = tuple(r.randrange(1, 3) for _ in range(4))
        lhs = apply_pattern(tau_prime(sig), encode_outer(select(sig, X), params))
        rhs = apply_pattern(tau, encode_outer(X, params))
        assert is_subsequence(lhs, rhs)
        for block, S in zip(sig.inner_patterns, sig.corruption_sets):
            assert block.weight <= admissible_weight_cap(params, params.lam - 1)
            assert all(preserves(block, j, params) for j in (1, 2) if j not in S)


def test_signature_rejects_overweight_pattern():
    params = toy_params(2, 4, 2, "0.5", 4)
    tau = DeletionPattern(params.N, tuple(range(1, params.N + 1)))
    with pytest.raises(SignatureError):
        extract_signature(tau, params)


def test_rate_info_examples():
    params = toy_params(2, 4, 1, "0.5", 8)
    info = rate_info(params)
    assert info["beta"] == Fraction(1, 64)
    assert info["gamma"] == Fraction(1, 256)
    assert info["rate"] == Fraction(1, 8192)
    # rate decreases in R at fixed K
    bigger = toy_params(2, 8, 1, "0.5", 8)
    assert rate_info(bigger)["rate"] < info["rate"]
    paper = derive_params("0.9", 100)
    assert "log2_rate_floor" in rate_info(paper)
    assert rate_info(paper)["log2_rate_floor"] < -(2**14000)


def test_copies_asymmetry():
    # two copies of g_1 absorb g_2, but g_1 needs R copies of g_2
    for K, R in ((2, 4), (2, 2), (3, 4)):
        params = toy_params(K, R, 1, Fraction(1, 2), 4)
        g1, g2 = inner_codeword(1, params), inner_codeword(2, params)
        assert is_subsequence(g2, g1 + g1)
        assert is_subsequence(g1, g2 * R)
        assert not is_subsequence(g1, g2 * (R - 1))


def test_params_json_roundtrip():
    params = toy_params(2, 4, 2, "0.5", 8)
    blob = json.dumps(params_to_json(params))
    back = params_from_json(json.loads(blob))
    assert back == params
    paper = derive_params("0.9", 10)
    back = params_from_json(json.loads(json.dumps(params_to_json(paper))))
    assert back.log2_K == paper.log2_K and back.lam == paper.lam


@st.composite
def toy_instances(draw):
    """Toy parameters anywhere within ``toy_params``' limits: even R, L = 2 R^K in range, even delta*n."""
    K = draw(st.integers(2, 19))
    R = draw(st.sampled_from([R for R in range(2, 726, 2) if 2 * R**K <= MAX_INNER_LENGTH]))
    n = draw(st.integers(3, 200))
    delta = Fraction(2 * draw(st.integers(1, (n - 1) // 2)), n)
    return toy_params(K, R, draw(st.integers(1, 10)), delta, n)


@st.composite
def paper_instances(draw):
    b = draw(st.integers(2, 16))
    return derive_params(Fraction(draw(st.integers(1, b - 1)), b), draw(st.integers(1, 1000)))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.one_of(toy_instances(), paper_instances()))
def test_printed_params_read_back_as_themselves(params):
    printed = params_to_json(params)
    assert params_from_json(printed) == params
    assert params_from_json(json.loads(json.dumps(printed))) == params


def test_outer_word_file_roundtrip(tmp_path):
    path = tmp_path / "outer.txt"
    words = [(1, 2, 1), (2, 2, 2)]
    write_outer_words(path, words)
    assert read_outer_words(path, toy_params(2, 2, 1, Fraction(2, 3), 3)) == words


def test_failed_outer_word_write_leaves_no_file(tmp_path):
    def words():
        yield (1, 2, 1)
        raise RuntimeError("no more words")

    with pytest.raises(RuntimeError):
        write_outer_words(tmp_path / "outer.txt", words())
    assert list(tmp_path.iterdir()) == []


def test_weight_bound_guarantees_enough_admissible_blocks():
    # patterns within N(1 - 2^-lam - 1/sqrt(R) - delta/2) always leave at
    # least delta*n admissible inner patterns, so signature extraction
    # cannot fail below that weight
    params = toy_params(2, 16, 2, "0.5", 4)  # N = 2048, bound = N/4 = 512
    bound = int(params.N * (1 - 2**-params.lam - 0.25 - float(params.delta) / 2))
    assert bound == 512
    r = random.Random(12)
    for trial in range(200):
        w = bound if trial < 50 else r.randrange(0, bound + 1)
        tau = DeletionPattern(params.N, tuple(r.sample(range(1, params.N + 1), w)))
        sig = extract_signature(tau, params)  # must not raise
        assert len(sig.kept_indices) == params.delta_n


def test_signature_kept_indices_are_first_admissible():
    from deletion_lab.construction import pad_corruption_set
    from deletion_lab.words import bit_deletion_pattern

    small = toy_params(2, 4, 2, "0.5", 4)
    r = random.Random(13)
    cases = [
        (small, DeletionPattern(small.N, tuple(r.sample(range(1, small.N + 1), r.randrange(0, 40)))))
        for _ in range(50)
    ]
    # random blocks corrupt nothing; a block deleting all zeros of g_i is
    # admissible here and corrupts g_i, and one more deletion makes it inadmissible
    wide = toy_params(2, 16, 2, "0.5", 4)
    choices = [DeletionPattern(wide.L, ()), DeletionPattern(wide.L, tuple(range(1, wide.L // 2 + 2)))]
    choices += [bit_deletion_pattern(g, 0) for g in wide.inner_words]
    cases += [(wide, join_patterns([r.choice(choices) for _ in range(wide.n)])) for _ in range(30)]
    for params, tau in cases:
        blocks = split_pattern(tau, params.n, params.L)
        admissible = [
            i + 1
            for i, blk in enumerate(blocks)
            if blk.weight <= admissible_weight_cap(params, params.lam - 1)
        ]
        if len(admissible) < params.delta_n:
            with pytest.raises(SignatureError):
                extract_signature(tau, params)
            continue
        sig = extract_signature(tau, params)
        assert list(sig.kept_indices) == admissible[: params.delta_n]
        for idx, S in zip(sig.kept_indices, sig.corruption_sets):
            corrupted = {
                j
                for j in range(1, params.K + 1)
                if not preserves(blocks[idx - 1], j, params)
            }
            assert corrupted <= S and len(S) == params.lam - 1
            assert S == pad_corruption_set(corrupted, params)
