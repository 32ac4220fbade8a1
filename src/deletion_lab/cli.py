"""Command-line front end: parameters, codec pipeline, experiments, verify.

Exit statuses: 0 ok, 1 oracle violations found, 2 usage error.  A command
refuses bad input by raising ``ValueError``, and ``main`` alone turns that, or
a file that cannot be opened, into exit 2 with the message.  All stochastic
subcommands take --seed; identical config plus seed reproduces byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from . import __version__
from . import rng as rngmod
from .construction import (
    PARAM_KEYS,
    encode_outer,
    executable_params,
    json_field,
    json_typed,
    params_from_json,
    params_to_json,
    read_outer_words,
)
from .oblivious import (
    every_outer_word,
    full_confusability_graph,
    oblivious_experiment,
    read_patterns,
    standard_pattern_family,
    uniform_pattern,
)
from .online import (
    OnlineConfig,
    make_first_superstring_decoder,
    make_unique_decoder,
    simulate_online,
)
from .oracles import LEMMAS
from .reporting import atomic_write_text, read_lines
from .words import (
    DeletionPattern,
    Word,
    apply_pattern,
    bit_deletion_pattern,
    parse_positions,
    read_codebook,
    write_codebook,
)


def _read_json(path):
    """The JSON value in file ``path``; text that is not JSON is a ``ValueError`` naming ``path``."""
    with open(path) as fh:  # an empty path names no file, where Path("") would be "."
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _params_from_args(args):
    """The parameters of ``--config``, or of the JSON object such a file would hold for the flags."""
    flags = vars(args)
    mode = "config" if args.config is not None else "toy" if args.toy else "paper"
    keys = PARAM_KEYS.get(mode, ())
    stray = [f"--{key}" for key in ("toy", "p", *PARAM_KEYS["toy"])  # --toy names its own mode
             if flags[key] not in (None, False) and key not in (mode, *keys)]
    if stray:
        raise ValueError(f"{mode} mode takes no {' '.join(stray)}")
    if mode == "config":
        return params_from_json(_read_json(args.config))
    return params_from_json({"mode": mode, **{key: flags[key] for key in keys if flags[key] is not None}})


def _add_params_options(sub):
    sub.add_argument("--config", help="JSON file with {mode,p,n,K,R,lambda,delta}")
    sub.add_argument("--toy", action="store_true")
    sub.add_argument("--p", type=str, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--K", type=int, default=None)
    sub.add_argument("--R", type=int, default=None)
    sub.add_argument("--lambda", type=int, default=None)
    sub.add_argument("--delta", type=str, default=None)


def cmd_params(args) -> int:
    print(json.dumps(params_to_json(_params_from_args(args)), indent=2, sort_keys=True))
    return 0


def cmd_encode(args) -> int:
    params = executable_params(_params_from_args(args))
    outers = read_outer_words(args.infile, params)
    words = [encode_outer(X, params) for X in outers]
    write_codebook(args.out, words)
    return 0


def _corruption_pattern(args, w: Word, rng) -> DeletionPattern:
    """The pattern ``corrupt`` applies to ``w``: ``--pattern``, or one of ``--family``."""
    if args.pattern is not None:
        return DeletionPattern(len(w), args.pattern)
    if args.family == "delete-zeros":
        return bit_deletion_pattern(w, 0)
    if args.family == "delete-ones":
        return bit_deletion_pattern(w, 1)
    return uniform_pattern(len(w), args.weight, rng)


def cmd_corrupt(args) -> int:
    words = read_codebook(args.infile)
    if not words:
        raise ValueError("no input words")
    if (args.pattern is None) == (args.family is None):
        raise ValueError("pass exactly one of --pattern / --family")
    if args.family == "uniform" and args.weight is None:
        raise ValueError("--weight required for the uniform family")
    if args.family != "uniform" and (args.weight, args.seed) != (None, None):
        raise ValueError("--weight and --seed go with --family uniform only")
    if args.weight is not None and not 0 <= args.weight <= len(words[0]):
        raise ValueError(f"--weight {args.weight} must lie in [0, {len(words[0])}], the word length")
    rng = rngmod.py_rng(args.seed if args.seed is not None else 0, "corrupt")
    write_codebook(args.out, [apply_pattern(_corruption_pattern(args, w, rng), w) for w in words])
    return 0


def cmd_decode(args) -> int:
    decode = make_unique_decoder(read_codebook(args.codebook))
    # received words come from deletions, so line lengths legitimately vary
    lines = []
    for s in read_lines(args.infile, Word).values():
        hit = decode(s)
        lines.append(hit.to01() if hit is not None else "FAIL")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _summary_path(out: str) -> Path:
    """Where an experiment writes its summary JSON: beside its CSV ``out``."""
    return Path(out).with_suffix(".summary.json")


def _write_report(report, out: str) -> int:
    """Write ``report``'s CSV to ``out`` and its summary beside it, and print the summary."""
    report.write(out, _summary_path(out))
    sys.stdout.write(report.summary_text())
    return 0


def _master_seed(seed: int | None) -> int:
    """``seed``, or one drawn from entropy and echoed on stderr when it is None."""
    if seed is not None:
        return seed
    seed = rngmod.fresh_master_seed()
    print(f"# master seed drawn from entropy: {seed}", file=sys.stderr)
    return seed


def _checked(convert, ok, message: str):
    """A ``json_field`` converter: ``convert(value)``, for which ``ok`` must hold, else ``message``."""

    def check(value):
        value = convert(value)
        if not ok(value):
            raise ValueError(message)
        return value

    return check


# the keys an ``experiment oblivious`` config and its ``pool`` object may hold
CONFIG_KEYS = {"params", "pool", "target_size", "pattern_weight", "pattern_file", "seeds",
               "use_filter", "f_exact", "f_trials"}
POOL_KEYS = {"file", "all", "random", "structured"}


def cmd_experiment_oblivious(args) -> int:
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict) or "params" not in cfg:
        raise ValueError(f"{args.config}: the config must be a JSON object with a 'params' key")
    pool_cfg = cfg.get("pool", {})
    if not isinstance(pool_cfg, dict):
        raise ValueError(f"{args.config}: 'pool' must be a JSON object, got {json.dumps(pool_cfg)}")
    for where, obj, known in (("", cfg, CONFIG_KEYS), ("'pool' ", pool_cfg, POOL_KEYS)):
        if unknown := sorted(set(obj) - known):
            raise ValueError(f"{args.config}: unknown {where}key(s) {', '.join(map(repr, unknown))}")
    params = executable_params(params_from_json(cfg["params"]))
    seed = _master_seed(args.seed)
    rng = rngmod.py_rng(seed, "pool")
    take_all = json_field(pool_cfg, "all", json_typed(bool), False)
    sources = [key for key in ("file", "all", "random") if (take_all if key == "all" else key in pool_cfg)]
    if len(sources) > 1:
        raise ValueError(f"{args.config}: 'pool' takes one source, got {' and '.join(map(repr, sources))}")
    if "file" in pool_cfg:
        pool = read_outer_words(json_field(pool_cfg, "file", json_typed(str)), params)
    elif take_all:
        pool = every_outer_word(params)
    else:
        nonnegative = _checked(json_typed(int), lambda count: count >= 0, "must be at least 0")
        count = min(json_field(pool_cfg, "random", nonnegative, 128), params.K**params.n)
        seen = set()
        while len(seen) < count:
            seen.add(tuple(rng.randrange(1, params.K + 1) for _ in range(params.n)))
        pool = sorted(seen)
    if json_field(pool_cfg, "structured", json_typed(bool), True):
        for sym in range(1, params.K + 1):
            const = tuple([sym] * params.n)
            if const not in pool:
                pool.append(const)
    if not pool:
        raise ValueError("the pool holds no outer words")
    # as a float here, so a number too large for one is a usage error naming the key
    positive_float = _checked(lambda size: float(json_typed(int, float)(size)),
                              lambda size: 0 < size < math.inf, "must be positive")
    target_size = json_field(cfg, "target_size", positive_float) if "target_size" in cfg else None
    use_filter = json_field(cfg, "use_filter", json_typed(bool), True)
    f_exact = json_field(cfg, "f_exact", json_typed(bool), True)
    positive = _checked(json_typed(int), lambda trials: trials > 0, "must be positive")
    f_trials = json_field(cfg, "f_trials", positive, 4000)
    for key, unread, when in (("f_exact", not use_filter, "when 'use_filter' is true"),
                              ("f_trials", not use_filter, "when 'use_filter' is true"),
                              ("f_trials", f_exact, "when 'f_exact' is false"),
                              ("pattern_weight", "pattern_file" in cfg, "without 'pattern_file'")):
        if unread and key in cfg:  # a key nothing reads would change no byte of the output
            raise ValueError(f"{args.config}: {key!r} is read only {when}")
    if "pattern_file" in cfg:
        pattern_file = json_field(cfg, "pattern_file", json_typed(str))  # a number would name a descriptor
        patterns = read_patterns(pattern_file, params.N)
        if not patterns:
            raise ValueError(f"pattern file {pattern_file} holds no patterns")
    else:
        ends = (pool[0], pool[-1])[: len(pool)]  # one reference word per pool end
        refs = [encode_outer(X, params) for X in ends]
        in_range = _checked(json_typed(int), lambda w: 0 <= w <= params.N, f"must lie in [0, N = {params.N}]")
        weight = json_field(cfg, "pattern_weight", in_range, params.N // 2)
        patterns = standard_pattern_family(params, weight, refs, master_seed=seed)
    seed_list = _checked(json_typed(list), lambda seeds: seeds and all(type(s) is int for s in seeds),
                         "must be a nonempty list of JSON integers")
    seeds = json_field(cfg, "seeds", seed_list, list(range(10)))
    report = oblivious_experiment(
        params,
        pool,
        patterns,
        seeds,
        master_seed=seed,
        target_size=target_size,
        use_filter=use_filter,
        f_trials=None if f_exact else f_trials,
        version=__version__,
    )
    return _write_report(report, args.out)


def cmd_experiment_online(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    code = read_codebook(args.code)
    if len(code) < 2:
        raise ValueError("online experiments need at least two codewords")
    cfg = OnlineConfig(p=args.p, p0_adv=args.p0_adv)
    if not cfg.in_regime:
        print(f"note: p = {cfg.p} is outside the regime p > 1/(3-2*p0_adv) = {cfg.regime_bound}; "
              "deletions stop at floor(p n), so a push may end short", file=sys.stderr)
    seed = _master_seed(args.seed)
    decoder = (make_unique_decoder if args.decoder == "unique" else make_first_superstring_decoder)(code)
    report = simulate_online(code, cfg, decoder, trials=args.trials, master_seed=seed, version=__version__)
    return _write_report(report, args.out)


def cmd_graph(args) -> int:
    graph = full_confusability_graph(executable_params(_params_from_args(args)))
    print(json.dumps(graph.stats(), indent=2, sort_keys=True))
    return 0


DEFAULT_SAMPLES = 10_000  # verify's --samples when the option is not given


# perfbench/tracing.py patches this name to trace each runner as cli.<lemma id>
def _verify_runners(samples: int, seed: int, exhaustive: bool) -> dict:
    return {rid: partial(lemma.run, samples, seed, exhaustive) for rid, lemma in LEMMAS.items()}


def _option_type(convert, what: str):
    """An argparse type: ``convert(text)``, where a value it refuses must be ``what``."""

    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}") from None

    return parse


def _sample_count(text: str) -> int:
    """``--samples``: a positive integer, also in scientific notation (``1e4``)."""
    value = float(text)
    if not (value >= 1 and value.is_integer()):
        raise ValueError(text)
    return int(value)


def cmd_verify(args) -> int:
    unknown = [lem for lem in args.lemmas if lem != "all" and lem not in LEMMAS]
    if unknown:
        raise ValueError(f"unknown lemma ids: {', '.join(unknown)}")
    ids = list(LEMMAS) if "all" in args.lemmas else args.lemmas
    for option, given in (("exhaustive", args.exhaustive), ("samples", args.samples is not None),
                          ("seed", args.seed is not None)):
        if given and not any(option in LEMMAS[lem].reads(args.exhaustive) for lem in ids):
            print(f"note: --{option} is read by none of {', '.join(ids)}", file=sys.stderr)
    runners = _verify_runners(args.samples or DEFAULT_SAMPLES, args.seed or 0, args.exhaustive)
    reports = []
    for lem in ids:
        report = runners[lem]()
        reports.append(report)
        print(report.summary(), file=sys.stderr)
    print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    return 0 if all(r.ok for r in reports) else 1


@cache  # one parser per process: ``main`` reuses the one a caller built before it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deletion-lab",
        description="Deletion-channel coding laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("params", help="derive and print code parameters")
    sp.set_defaults(run=cmd_params)
    _add_params_options(sp)

    sp = subs.add_parser("encode", help="concatenate inner codewords for outer words")
    sp.set_defaults(run=cmd_encode)
    _add_params_options(sp)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)

    sp = subs.add_parser("corrupt", help="apply deletion patterns to codewords")
    sp.set_defaults(run=cmd_corrupt)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    positions = _option_type(parse_positions, "comma-separated 1-based positions")
    sp.add_argument("--pattern", type=positions, help="comma-separated 1-based deleted indices")
    sp.add_argument("--family", choices=("delete-zeros", "delete-ones", "uniform"))
    sp.add_argument("--weight", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = subs.add_parser("decode", help="unique decoding against a codebook")
    sp.set_defaults(run=cmd_decode)
    sp.add_argument("--codebook", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)

    sp = subs.add_parser("experiment", help="run a reproducible experiment")
    exp = sp.add_subparsers(dest="experiment", required=True)
    spo = exp.add_parser("oblivious", help="fixed-pattern average-case errors")
    spo.set_defaults(run=cmd_experiment_oblivious)
    spo.add_argument("--config", required=True)
    spo.add_argument("--out", required=True)
    spo.add_argument("--seed", type=int, default=None)
    spn = exp.add_parser("online", help="wait-push adversary simulation")
    spn.set_defaults(run=cmd_experiment_online)
    spn.add_argument("--code", required=True)
    fraction = _option_type(Fraction, "a fraction")  # a rational such as ``1/2`` or ``0.4``
    spn.add_argument("--p", type=fraction, required=True)
    spn.add_argument("--p0-adv", dest="p0_adv", type=fraction, required=True)
    spn.add_argument("--trials", type=int, default=1000)
    spn.add_argument("--seed", type=int, default=None)
    spn.add_argument("--decoder", choices=("unique", "ml"), default="unique")
    spn.add_argument("--out", required=True)

    sp = subs.add_parser("graph", help="confusability graph statistics")
    sp.set_defaults(run=cmd_graph)
    _add_params_options(sp)

    sp = subs.add_parser("verify", help="run lemma oracles")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("lemmas", nargs="+")
    sp.add_argument("--exhaustive", action="store_true")
    count = _option_type(_sample_count, "a positive integer")
    sp.add_argument("--samples", type=count)  # DEFAULT_SAMPLES when not given
    sp.add_argument("--seed", type=int, default=None)  # 0 when not given

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)  # every command that writes takes --out
    folder = os.path.dirname(out or "") or "."
    try:
        if out is not None and (not out or os.path.isdir(out) or not os.path.isdir(folder)):
            raise ValueError(f"--out {out!r} names no file in an existing directory")
        if out is not None and args.command == "experiment" and os.path.isdir(summary := _summary_path(out)):
            raise ValueError(f"--out {out!r}: its summary {str(summary)!r} is a directory")
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        if exc.filename is None:  # not about a file, such as a closed stdout pipe
            raise
        parser.error(f"cannot open {exc.filename}: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
