"""Concatenated-code construction: parameters, inner codewords, signatures.

Parameter rules (paper mode) blow up double-exponentially, so paper mode has
its own type, ``PaperParams``: exact log2 forms only, printed but refused by
``executable_params``.  Everything that builds words takes toy ``CodeParams``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .reporting import read_lines
from .words import DeletionPattern, Word, concatenate, masked_run_count

OuterWord = tuple[int, ...]
FractionLike = Union[Fraction, float, int, str]
MAX_INNER_LENGTH = 1 << 20  # the largest inner block length L that toy_params accepts
MAX_LOG2_K = 1 << 27  # the largest log2 K that derive_params accepts; log2 L has about 2^log2_K bits


class ParamsError(ValueError):
    pass


def as_fraction(x: FractionLike) -> Fraction:
    # str() round-trips decimal literals exactly; Fraction(float) would not.
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class CodeParams:
    """Toy-mode parameters: exact K, R and L = 2 R^K, small enough to build."""

    lam: int
    delta: Fraction
    K: int
    R: int
    n: int
    L: int

    @property
    def N(self) -> int:
        return self.n * self.L

    @property
    def delta_n(self) -> int:
        dn = self.delta * self.n
        if dn.denominator != 1:
            raise ParamsError(f"delta*n = {dn} is not an integer")
        return int(dn)

    @cached_property
    def inner_words(self) -> tuple[Word, ...]:
        """(g_1, ..., g_K): g_i alternates 0/1 blocks of width R^(i-1) over L bits.

        Built once per params object; equality and hashing read only the fields.
        """
        widths = (self.R ** (i - 1) for i in range(1, self.K + 1))
        return tuple(Word((bytes(w) + bytes([1]) * w) * (self.L // (2 * w))) for w in widths)


@dataclass(frozen=True)
class PaperParams:
    """Paper-mode parameters: K = 2^log2_K, R = 4 K^4 and L = 2 R^K only as exact log2 forms."""

    p: Fraction
    lam: int
    delta: Fraction
    n: int
    log2_K: int
    log2_R: int
    log2_L: int


def executable_params(params: CodeParams | PaperParams) -> CodeParams:
    """``params`` when they are toy parameters; paper-scale ones are a ``ParamsError``."""
    if isinstance(params, PaperParams):
        raise ParamsError("paper-scale parameters not executable: log2 of the inner block length L is a "
                          f"{params.log2_L.bit_length()}-bit integer")
    return params


def smallest_lambda(p: FractionLike) -> int:
    """Smallest integer lam with (1+p)/2 < 1 - 2^-lam."""
    target = (1 + as_fraction(p)) / 2
    lam = 1
    while not (target < 1 - Fraction(1, 2**lam)):
        lam += 1
    return lam


def derive_params(p: FractionLike, n: int) -> PaperParams:
    """Paper-mode parameter derivation for deletion fraction p."""
    p = as_fraction(p)
    if not (0 < p < 1):
        raise ParamsError(f"p must lie in (0,1), got {p}")
    if n < 1:
        raise ParamsError("n must be positive")
    lam = smallest_lambda(p)
    delta = 1 - Fraction(1, 2**lam) - p
    if delta <= 0:
        raise ParamsError(f"lambda = {lam} leaves delta = {delta} <= 0 for p = {p}")
    log2_K = math.ceil(Fraction(2 ** (lam + 5)) / delta)
    if log2_K > MAX_LOG2_K:
        raise ParamsError(f"p = {p} needs log2 K = {log2_K}, past the limit {MAX_LOG2_K}")
    # K = 2^log2_K, R = 4 K^4 and L = 2 R^K are never built: log2 K > 128 for every p
    log2_R = 2 + 4 * log2_K
    log2_L = 1 + (log2_R << log2_K)
    return PaperParams(p=p, lam=lam, delta=delta, n=n, log2_K=log2_K, log2_R=log2_R, log2_L=log2_L)


def toy_params(
    K: int,
    R: int,
    lam: int,
    delta: FractionLike,
    n: int,
) -> CodeParams:
    """Small-scale parameters with the structural invariants enforced."""
    if K < 2:
        raise ParamsError("K must be at least 2")
    if R < 2 or R % 2 != 0:
        raise ParamsError(f"R must be even and >= 2, got {R}")
    if lam < 1:
        raise ParamsError("lambda must be at least 1")
    delta = as_fraction(delta)
    if not (0 < delta < 1):
        raise ParamsError(f"delta must lie in (0,1), got {delta}")
    if n < 1:
        raise ParamsError("n must be positive")
    dn = delta * n
    if dn.denominator != 1 or int(dn) <= 0 or int(dn) % 2 != 0:
        raise ParamsError(
            f"delta*n must be a positive even integer, got {dn}; "
            "pick a conforming delta instead of relying on silent adjustment"
        )
    L = 2 * R**K
    if L > MAX_INNER_LENGTH:
        raise ParamsError(f"L = 2*R^K = {L} exceeds the configured limit {MAX_INNER_LENGTH}")
    return CodeParams(lam=lam, delta=delta, K=K, R=R, n=n, L=L)


def inner_codeword(i: int, params: CodeParams) -> Word:
    """g_i: alternating 0/1 blocks of width R^(i-1), total length L; ``params.inner_words[i - 1]``."""
    if not 1 <= i <= params.K:
        raise ParamsError(f"inner symbol must lie in [1,{params.K}], got {i}")
    return params.inner_words[i - 1]


def check_outer(X: Sequence[int], params: CodeParams) -> OuterWord:
    X = tuple(int(s) for s in X)
    for s in X:
        if not 1 <= s <= params.K:
            raise ParamsError(f"outer symbol {s} outside [1,{params.K}]")
    return X


def encode_outer(X: Sequence[int], params: CodeParams) -> Word:
    """psi(X): concatenation of the inner codewords named by X.

    The word's runs come from the runs cached on ``params.inner_words``,
    merged at block boundaries by ``words.concatenate``, so the subsequence
    walk over psi(X) needs no pass over its N bits.
    """
    X = check_outer(X, params)
    words = params.inner_words
    return concatenate(words[s - 1] for s in X)


def admissible_weight_cap(params: CodeParams, ell: int) -> int:
    """Largest weight w <= L(1 - 2^-(ell+1) - 1/sqrt(R)) of an ell-admissible inner pattern (-1 if none).

    With s = 2^(ell+1) the bound reads s w <= L(s-1) - sL/sqrt(R), and since
    s w is an integer it may take the ceiling m of sL/sqrt(R): the smallest
    integer with m^2 R >= (sL)^2, found exactly with ``math.isqrt``.
    """
    s, L = 1 << (ell + 1), params.L
    q = -(-(s * L) ** 2 // params.R)  # ceil((sL)^2 / R)
    m = math.isqrt(q)
    m += m * m < q
    return max((L * (s - 1) - m) // s, -1)


def preserves(sigma: DeletionPattern, i: int, params: CodeParams) -> bool:
    """True iff sigma(g_i) keeps at least 2*R^(K+1-i)/sqrt(R) runs."""
    if sigma.word_length != params.L:
        raise ParamsError(
            f"inner pattern length {sigma.word_length} != L = {params.L}"
        )
    return preserves_runs(masked_run_count(inner_codeword(i, params), sigma.keep), i, params)


def preserves_runs(r: int, i: int, params: CodeParams) -> bool:
    """Do r kept runs of g_i preserve it: r >= 2*R^(K+1-i)/sqrt(R)?"""
    # r >= 2 R^(K+1-i) / sqrt(R)  <=>  r^2 >= 4 R^(2K+1-2i), exactly
    return r * r >= 4 * params.R ** (2 * params.K + 1 - 2 * i)


def corrupted_flags(params: CodeParams, keep: np.ndarray) -> np.ndarray:
    """``[..., i - 1]``: the inner pattern with keep mask ``keep`` fails to preserve g_i.

    ``keep`` is one mask, giving K flags, or a stack of masks, giving one row
    of K flags per mask: a stacked ``masked_run_count`` per inner codeword.
    """
    return np.stack(
        [~np.asarray(preserves_runs(masked_run_count(g, keep), i, params))
         for i, g in enumerate(params.inner_words, start=1)],
        axis=-1,
    )


def corruption_sets(params: CodeParams, keep: np.ndarray) -> list[frozenset[int]]:
    """The padded corruption set of each inner pattern in the stack of keep masks ``keep``."""
    return [pad_corruption_set({i for i, bad in enumerate(row, start=1) if bad}, params)
            for row in corrupted_flags(params, keep).tolist()]


def pad_corruption_set(corrupted: set[int], params: CodeParams) -> frozenset[int]:
    """``corrupted`` padded with the smallest unused symbols of [K] up to size lambda-1."""
    unused = [j for j in range(1, params.K + 1) if j not in corrupted]
    return frozenset(corrupted).union(unused[: max(0, params.lam - 1 - len(corrupted))])


class SignatureError(ValueError):
    """Fewer admissible inner patterns than delta*n.

    Guaranteed not to happen while the total weight stays at or below
    N*(1 - 2^-lambda - 1/sqrt(R) - delta/2); heavier patterns delete too
    much for a signature to exist."""


@dataclass(frozen=True)
class Signature:
    """(outer pattern, corruption sets) summary of a full deletion pattern.

    The outer pattern deletes the positions of [n] outside ``kept_indices``.
    """

    n: int
    kept_indices: tuple[int, ...]
    corruption_sets: tuple[frozenset[int], ...]
    inner_patterns: tuple[DeletionPattern, ...]


def extract_signature(tau: DeletionPattern, params: CodeParams) -> Signature:
    """Retain the first delta*n (lambda-1)-admissible inner patterns of tau.

    Kept indices are the lexicographically first admissible ones, and each
    corruption set is padded with the smallest unused symbols up to size
    lambda-1, so the output is deterministic.  A block is admissible when its
    weight is at most ``admissible_weight_cap``, and the kept blocks get their
    sets from one ``corruption_sets`` call over their stacked keep masks,
    which reads the inner codewords off ``params.inner_words``.
    """
    if tau.word_length != params.N:
        raise ParamsError(f"pattern length {tau.word_length} != N = {params.N}")
    rows = tau.keep.reshape(params.n, params.L)  # row i - 1 is inner block i's keep mask
    dn = params.delta_n
    cap = admissible_weight_cap(params, params.lam - 1)
    kept = np.flatnonzero(params.L - np.count_nonzero(rows, axis=1) <= cap)[:dn]  # 0-based
    if len(kept) < dn:
        raise SignatureError(
            f"only {len(kept)} admissible inner patterns, need {dn}: "
            "the pattern deletes too much for signature extraction"
        )
    inner = rows[kept]
    sets = corruption_sets(params, inner)
    for S in sets:  # padding stops at lambda-1, so an oversize set is the corrupted set itself
        if len(S) > params.lam - 1:
            raise AssertionError(
                f"admissible pattern corrupts {len(S)} > lambda-1 codewords"
            )
    return Signature(
        n=params.n,
        kept_indices=tuple((kept + 1).tolist()),
        corruption_sets=tuple(sets),
        inner_patterns=tuple(map(DeletionPattern.from_keep, inner)),
    )


def matchability_exponent(params: CodeParams) -> Fraction | float:
    """beta = log2(K) / (16 R): a Fraction when K is a power of two, else a float."""
    if params.K & (params.K - 1) == 0:
        return Fraction(params.K.bit_length() - 1, 16 * params.R)
    return math.log2(params.K) / (16 * params.R)


def filter_threshold(params: CodeParams) -> float:
    """2 * 2^(-beta n): the disguise probability an outer word must stay under to be kept."""
    return 2.0 * 2.0 ** (-float(matchability_exponent(params)) * params.n)


def outer_code_size(params: CodeParams) -> float:
    """2^(gamma n), gamma = beta/4: the random outer code's expected size, about one word at toy scales."""
    return 2.0 ** (float(matchability_exponent(params)) / 4 * params.n)


def rate_info(params: CodeParams | PaperParams) -> dict:
    """Sampling exponent beta, outer exponent gamma = beta/4, and rate gamma/L.

    Exact fractions when ``matchability_exponent`` is one; otherwise log2
    values (floats for the small parts, exact ints where integral).  Paper
    mode builds no K or R; its beta comes from the exact log2 K and log2 R.
    """
    if isinstance(params, PaperParams):
        log2_beta = math.log2(params.log2_K) - 4 - params.log2_R
        # log2(L) dwarfs the float part; keep the exact integer dominant term.
        return {
            "log2_beta": log2_beta,
            "log2_gamma": log2_beta - 2,
            "log2_rate_floor": math.floor(log2_beta - 2) - params.log2_L,
        }
    beta = matchability_exponent(params)
    if isinstance(beta, Fraction):
        gamma = beta / 4
        return {"beta": beta, "gamma": gamma, "rate": gamma / params.L}
    log2_beta = math.log2(beta)
    return {
        "log2_beta": log2_beta,
        "log2_gamma": log2_beta - 2,
        "log2_rate": log2_beta - 2 - math.log2(params.L),
    }


def json_int(value: int):
    """Arbitrary-size integers for JSON: hex text once decimal gets silly."""
    return value if value.bit_length() <= 256 else hex(value)


def params_to_json(params: CodeParams | PaperParams) -> dict:
    """K, R, L and N print as null in paper mode, and log2_K, log2_R and log2_L in toy mode."""
    out = {"n": params.n, "lambda": params.lam, "delta": str(params.delta)}
    logs = ("log2_K", "log2_R", "log2_L")
    if isinstance(params, PaperParams):
        out |= {"mode": "paper", "p": str(params.p), "K": None, "R": None, "L": None, "N": None}
        out |= {key: json_int(getattr(params, key)) for key in logs}
    else:
        out |= {"mode": "toy", "K": params.K, "R": params.R, "L": params.L, "N": params.N}
        out |= dict.fromkeys(logs)
    # each rate figure is a Fraction, a float, or an int of any size
    out["rate"] = {key: str(v) if isinstance(v, Fraction) else json_int(v) if isinstance(v, int) else v
                   for key, v in rate_info(params).items()}
    return out


# the keys each parameter mode reads; toy "lambda" defaults to 1
PARAM_KEYS = {"toy": ("K", "R", "lambda", "delta", "n"), "paper": ("p", "n")}


def params_from_json(obj: dict) -> CodeParams | PaperParams:
    """Toy or paper parameters; any key besides ``mode`` and those its mode reads must be
    one ``params_to_json`` prints for them, with the value it prints."""
    if not isinstance(obj, dict):
        raise ParamsError("parameters must be a JSON object")
    mode = obj.get("mode", "toy")
    if mode not in ("toy", "paper"):  # compared, not hashed: a JSON list is unhashable
        raise ParamsError(f"'mode' = {mode!r}: must be 'toy' or 'paper'")
    missing = [key for key in PARAM_KEYS[mode] if key not in obj and key != "lambda"]
    if missing:
        raise ParamsError(f"{mode} parameters lack key(s): {', '.join(missing)}")
    if mode == "paper":
        params = derive_params(json_field(obj, "p", as_fraction), json_field(obj, "n", json_typed(int)))
    else:
        params = toy_params(
            K=json_field(obj, "K", json_typed(int)),
            R=json_field(obj, "R", json_typed(int)),
            lam=json_field(obj, "lambda", json_typed(int), 1),
            delta=json_field(obj, "delta", as_fraction),
            n=json_field(obj, "n", json_typed(int)),
        )
    echoed = [key for key in obj if key not in ("mode", *PARAM_KEYS[mode])]
    printed = params_to_json(params) if echoed else {}
    for key in echoed:
        if key not in printed:
            raise ParamsError(f"{mode} parameters take no key {key!r}")
        if json.dumps(obj[key], sort_keys=True) != json.dumps(printed[key], sort_keys=True):  # 1.0 is no 1
            raise ParamsError(f"{key!r} = {json.dumps(obj[key])} is not what these parameters print")
    return params


def json_field(obj: dict, key: str, convert, default=None):
    """``convert(obj.get(key, default))``; a value of the wrong JSON type is a ``ParamsError``."""
    value = obj.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ParamsError(f"{key!r} = {value!r}: {exc}") from None


def json_typed(*types: type):
    """A ``json_field`` converter taking only values of exactly ``types``; ``true`` is no ``int``."""

    def convert(value):
        if type(value) not in types:
            raise TypeError(f"must be a JSON {' or '.join(t.__name__ for t in types)}")
        return value

    return convert


def read_outer_words(path, params: CodeParams) -> list[OuterWord]:
    """Comma-separated integers, one outer word per line; '#' comments.

    Every word must hold n symbols of [K]; a line that is not such a word is
    a ``ValueError`` naming ``path:line``.
    """

    def parse(line: str) -> OuterWord:
        X = tuple(int(tok) for tok in line.split(","))
        if len(X) != params.n:
            raise ParamsError(f"outer word has {len(X)} symbols, expected n = {params.n}")
        return check_outer(X, params)

    return list(read_lines(path, parse).values())
