import json
import math
import time

import pytest

from deletion_lab import cli, oblivious, oracles
from deletion_lab.cli import main
from deletion_lab.reporting import atomic_write_text
from deletion_lab.words import Word


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_of_a_toy_K_that_is_no_power_of_two_give_log2_rates(capsys):
    code, out, _ = run_cli(["params", "--toy", "--K", "3", "--R", "4", "--lambda", "1",
                            "--delta", "1/2", "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    log2_beta = math.log2(math.log2(3) / (16 * 4))  # beta = log2(K) / (16 R)
    assert payload["L"] == 128
    assert payload["rate"] == {
        "log2_beta": pytest.approx(log2_beta, rel=1e-12),
        "log2_gamma": pytest.approx(log2_beta - 2, rel=1e-12),  # gamma = beta / 4
        "log2_rate": pytest.approx(log2_beta - 2 - math.log2(128), rel=1e-12),  # rate = gamma / L
    }


def test_params_of_a_toy_R_that_is_no_power_of_two_read_the_exact_R(capsys):
    # toy mode keeps K, R and L exact and prints no log2 of them, as paper mode prints no K, R or L
    code, out, _ = run_cli(["params", "--toy", "--K", "3", "--R", "6", "--lambda", "1",
                            "--delta", "1/2", "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"]["log2_beta"] == math.log2(math.log2(3) / 96)  # beta = log2(K) / (16 R)
    assert (payload["log2_K"], payload["log2_R"], payload["log2_L"]) == (None, None, None)


def test_params_paper_mode(capsys):
    code, out, _ = run_cli(["params", "--p", "0.9", "--n", "100"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 5
    assert payload["delta"] == "11/160"
    assert payload["log2_K"] == 14895
    assert "log2_rate_floor" in payload["rate"]


def test_params_toy_mode(capsys):
    code, out, _ = run_cli(
        ["params", "--toy", "--K", "2", "--R", "4", "--lambda", "2",
         "--delta", "0.5", "--n", "8"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == 32 and payload["N"] == 256
    assert payload["rate"]["rate"] == "1/8192"


def test_params_invalid_p_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["params", "--p", "1.2", "--n", "10"])
    assert err.value.code == 2


@pytest.mark.parametrize("p, log2_K", [("0.9995", 512281405), ("0.9999", 15091241378)])
def test_paper_exponent_past_the_limit_is_usage_error(p, log2_K, capsys):
    # at these p, K = 2^log2_K alone would take gigabytes; the refusal builds no big integer
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["params", "--p", p, "--n", "1"])
    assert err.value.code == 2
    assert f"log2 K = {log2_K}" in capsys.readouterr().err
    assert time.perf_counter() - start < 10


def test_unknown_verify_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "no-such-lemma"])
    assert err.value.code == 2


@pytest.mark.parametrize("lemmas", [["all", "bogus"], ["bogus", "all"]])
def test_unknown_verify_id_beside_all_is_a_usage_error_before_any_oracle(lemmas, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_verify_runners", lambda *args: pytest.fail("an oracle ran"))
    with pytest.raises(SystemExit) as err:
        main(["verify", *lemmas])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "unknown lemma ids: bogus" in captured.err and captured.out == ""


def test_encode_corrupt_decode_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(
        {"mode": "toy", "K": 2, "R": 2, "lambda": 1, "delta": "0.5", "n": 4}
    ))
    outer = tmp_path / "outer.txt"
    outer.write_text("1,2,1,2\n2,1,2,1\n")  # n = 4 symbols of [2] each
    encoded = tmp_path / "code.txt"
    assert main(["encode", "--config", str(cfg), "--in", str(outer), "--out", str(encoded)]) == 0
    received = tmp_path / "received.txt"
    assert main(["corrupt", "--in", str(encoded), "--out", str(received), "--pattern", ""]) == 0
    decoded = tmp_path / "decoded.txt"
    assert main(["decode", "--codebook", str(encoded), "--in", str(received), "--out", str(decoded)]) == 0
    assert decoded.read_text().splitlines() == encoded.read_text().splitlines()


def test_corrupt_delete_zeros_family(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n")
    out = tmp_path / "out.txt"
    assert main(["corrupt", "--in", str(infile), "--out", str(out), "--family", "delete-zeros"]) == 0
    assert out.read_text() == "11\n"


def test_corrupt_delete_ones_family(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n0011\n")
    out = tmp_path / "out.txt"
    assert main(["corrupt", "--in", str(infile), "--out", str(out), "--family", "delete-ones"]) == 0
    assert out.read_text() == "00\n00\n"


@pytest.mark.parametrize("words, choice, message", [
    ("", ["--family", "delete-zeros"], "no input words"),
    ("0101\n", [], "pass exactly one of --pattern / --family"),
    ("0101\n", ["--pattern", "1", "--family", "delete-ones"], "pass exactly one of --pattern / --family"),
], ids=["no-words", "neither", "both"])
def test_corrupt_needs_words_and_one_pattern_source(words, choice, message, tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text(words)
    with pytest.raises(SystemExit) as err:
        main(["corrupt", "--in", str(infile), "--out", str(tmp_path / "out.txt"), *choice])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [infile]


def test_decode_ambiguous_writes_fail(tmp_path, capsys):
    book = tmp_path / "book.txt"
    book.write_text("0011\n1100\n")
    rec = tmp_path / "rec.txt"
    rec.write_text("0\n01\n")
    out = tmp_path / "dec.txt"
    assert main(["decode", "--codebook", str(book), "--in", str(rec), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["FAIL", "0011"]


def test_decode_refuses_a_codebook_that_repeats_a_codeword(tmp_path, capsys):
    book = tmp_path / "book.txt"
    book.write_text("0011\n0011\n1100\n")
    rec = tmp_path / "rec.txt"
    rec.write_text("01\n")
    out = tmp_path / "dec.txt"
    with pytest.raises(SystemExit) as err:
        main(["decode", "--codebook", str(book), "--in", str(rec), "--out", str(out)])
    assert err.value.code == 2
    assert "repeats the codeword 0011" in capsys.readouterr().err
    assert not out.exists()


def test_verify_exit_status_and_json(capsys):
    code = main(["verify", "levenshtein", "--samples", "200", "--seed", "3"])
    out = capsys.readouterr()
    assert code == 0
    reports = json.loads(out.out)
    assert reports[0]["violations"] == 0
    assert "levenshtein" in out.err


@pytest.mark.parametrize("argv, name, mode, instances", [
    (["levenshtein", "--exhaustive"], "levenshtein-equivalence", "t=1", 120),  # all pairs of 4-bit words
    (["corruption-cost", "--exhaustive"], "corruption-cost", "exhaustive", 65536),  # 2^L masks, L = 16
    (["alternating-absorption", "--samples", "100", "--seed", "3"], "alternating-absorption", "n=200", 100),
], ids=["levenshtein-exhaustive", "corruption-cost-exhaustive", "alternating-absorption"])
def test_verify_runner_reports(argv, name, mode, instances, capsys):
    assert main(["verify", *argv]) == 0
    [report] = json.loads(capsys.readouterr().out)
    assert (report["name"], report["mode"], report["instances"]) == (name, mode, instances)


def test_verify_accepts_scientific_sample_counts(capsys):
    assert main(["verify", "geometric-bounds", "--samples", "1e2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("lemmas, options, read, notes", [
    (["worst-sets-dominance"], ["--exhaustive", "--samples", "7"], [],
     ["note: --exhaustive is read by none of worst-sets-dominance",
      "note: --samples is read by none of worst-sets-dominance"]),
    (["matching-implication", "geometric-bounds"], ["--exhaustive", "--samples", "50"], ["--samples", "50"],
     ["note: --exhaustive is read by none of matching-implication, geometric-bounds"]),
    (["geometric-bounds", "levenshtein"], ["--exhaustive"], ["--exhaustive"], []),
    (["all"], ["--exhaustive", "--samples", "100"], ["--exhaustive", "--samples", "100"], []),
], ids=["neither", "exhaustive-unread", "read-by-one", "all"])
def test_verify_notes_an_option_that_no_named_lemma_reads(lemmas, options, read, notes, capsys):
    # the note goes to stderr only: the exit status and the reports are those
    # of the same call with only the options some lemma reads
    code = main(["verify", *lemmas, *options, "--seed", "3"])
    out = capsys.readouterr()
    assert [line for line in out.err.splitlines() if line.startswith("note:")] == notes
    assert (code, out.out) == (main(["verify", *lemmas, *read, "--seed", "3"]), capsys.readouterr().out)


@pytest.mark.parametrize("samples", ["0", "-5", "abc", "2.5", "nan"])
def test_verify_sample_count_must_be_a_positive_integer(samples, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", f"--samples={samples}"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert "--samples" in out.err and out.out == ""


def test_experiment_online_deterministic(tmp_path, capsys):
    book = tmp_path / "code.txt"
    book.write_text(
        "0000010010110010\n0000100010110010\n0000010101011101\n0000100101011101\n"
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main([
            "experiment", "online", "--code", str(book), "--p", "1/2",
            "--p0-adv", "2/5", "--trials", "40", "--seed", "11",
            "--decoder", "unique", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
        capsys.readouterr()
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "trial,codeword_index,strategy,coin_bit,deletions_used,output_len,decoded_ok,confused"
    assert (tmp_path / "a.summary.json").exists()


def test_experiment_oblivious_deterministic(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "params": {"mode": "toy", "K": 2, "R": 2, "lambda": 1, "delta": "0.5", "n": 4},
        "pool": {"all": True},
        "target_size": 6,
        "pattern_weight": 16,
        "seeds": [0, 1],
        "use_filter": False,
    }))
    outs = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        assert main([
            "experiment", "oblivious", "--config", str(cfg),
            "--out", str(out), "--seed", "4",
        ]) == 0
        outs.append(out.read_bytes())
        capsys.readouterr()
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[0] == "seed,pattern_id,pattern_weight,code_size,error_fraction"


def test_graph_stats(capsys):
    code, out, _ = run_cli(
        ["graph", "--toy", "--K", "2", "--R", "4", "--lambda", "1",
         "--delta", "0.5", "--n", "4"],
        capsys,
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["vertices"] == 16
    assert stats["max_outdegree"] <= 15


def test_usage_error_leaves_no_partial_output(tmp_path):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n")
    out = tmp_path / "never.txt"
    with pytest.raises(SystemExit) as err:
        main(["corrupt", "--in", str(infile), "--out", str(out), "--pattern", "99"])
    assert err.value.code == 2
    assert not out.exists()


def test_repeated_pattern_position_is_a_usage_error(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n")
    with pytest.raises(SystemExit) as err:
        main(["corrupt", "--in", str(infile), "--out", str(tmp_path / "out.txt"), "--pattern", "3,3"])
    assert err.value.code == 2
    assert "deleted index 3 is repeated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [infile]


@pytest.mark.parametrize("pattern", ["1,a", "1;2", "2.0"])
def test_pattern_that_is_not_positions_is_a_usage_error_naming_the_option(pattern, tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n")
    with pytest.raises(SystemExit) as err:
        main(["corrupt", "--in", str(infile), "--out", str(tmp_path / "out.txt"), "--pattern", pattern])
    assert err.value.code == 2
    assert f"argument --pattern: must be comma-separated 1-based positions, got {pattern!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [infile]


def test_missing_seed_is_drawn_and_echoed(tmp_path, capsys):
    book = tmp_path / "code.txt"
    book.write_text("000011\n001100\n110000\n111111\n")
    out = tmp_path / "c.csv"
    assert main([
        "experiment", "online", "--code", str(book), "--p", "1/2",
        "--p0-adv", "2/5", "--trials", "5", "--out", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "master seed" in captured.err


OMIT = object()  # a config key given this value is left out


def _oblivious_config(tmp_path, **extra):
    cfg = tmp_path / "exp.json"
    body = {
        "params": {"mode": "toy", "K": 2, "R": 4, "lambda": 1, "delta": "0.5", "n": 4},
        "seeds": [0],
        "use_filter": False,
        **extra,
    }
    cfg.write_text(json.dumps({key: value for key, value in body.items() if value is not OMIT}))
    return ["experiment", "oblivious", "--config", str(cfg),
            "--out", str(tmp_path / "o.csv"), "--seed", "1"]


def test_experiment_oblivious_rejects_empty_pool(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_text("# no words\n")
    argv = _oblivious_config(tmp_path, pool={"file": str(pool), "structured": False})
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "no outer words" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("pool, named", [
    ({"file": "p.txt", "random": 5, "all": True}, "'file' and 'all' and 'random'"),
    ({"file": "p.txt", "random": 5}, "'file' and 'random'"),
    ({"all": True, "random": 5}, "'all' and 'random'"),
], ids=["three-sources", "file-and-random", "all-and-random"])
def test_pool_with_more_than_one_source_is_a_usage_error(pool, named, tmp_path, capsys, monkeypatch):
    (tmp_path / "p.txt").write_text("1,2,1,2\n2,2,1,1\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(_oblivious_config(tmp_path, pool=pool))
    assert err.value.code == 2
    assert f"'pool' takes one source, got {named}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_experiment_oblivious_rejects_empty_pattern_file(tmp_path, capsys):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("# comments only\n")
    argv = _oblivious_config(tmp_path, pool={"random": 4}, pattern_file=str(patterns))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "holds no patterns" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_pattern_file_replaces_the_standard_family(tmp_path, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("standard family built although a pattern file is given")

    monkeypatch.setattr(cli, "standard_pattern_family", unused)
    monkeypatch.setattr(cli, "encode_outer", unused)
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("1,2,3\n\n")
    argv = _oblivious_config(tmp_path, pool={"random": 4}, pattern_file=str(patterns))
    assert main(argv) == 0
    capsys.readouterr()
    rows = (tmp_path / "o.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:3] for r in rows] == [["line1", "3"], ["line2", "0"]]


@pytest.mark.parametrize("case", ["received", "pattern-token", "pattern-index", "pattern-repeat"])
def test_bad_input_line_is_a_usage_error_naming_path_and_line(case, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    out = tmp_path / "o.csv"
    if case == "received":
        book = tmp_path / "book.txt"
        book.write_text("0011\n1100\n")
        bad.write_text("# received\n01x1\n")
        argv = ["decode", "--codebook", str(book), "--in", str(bad), "--out", str(out)]
    else:
        bad.write_text("1,2\n" + {"pattern-token": "zz\n", "pattern-index": "5000\n", "pattern-repeat": "3,3\n"}[case])
        argv = _oblivious_config(tmp_path, pool={"random": 4}, pattern_file=str(bad))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"{bad}:2:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(out.name)] == []


@pytest.mark.parametrize("line", ["1,2,1", "1,2,1,2,2", "1,2,3,1"], ids=["short", "long", "symbol"])
@pytest.mark.parametrize("caller", ["encode", "pool"])
def test_bad_outer_word_is_a_usage_error_naming_path_and_line(caller, line, tmp_path, capsys):
    words = tmp_path / "outer.txt"
    words.write_text("# n = 4 over [2]\n1,2,1,2\n" + line + "\n")
    out = tmp_path / "o.csv"
    if caller == "encode":
        argv = ["encode", "--toy", "--K", "2", "--R", "2", "--lambda", "1", "--delta", "0.5",
                "--n", "4", "--in", str(words), "--out", str(out)]
    else:
        argv = _oblivious_config(tmp_path, pool={"file": str(words), "structured": False})
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"{words}:3:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(out.name)] == []


@pytest.mark.parametrize("case", ["codebook", "received", "outer-words", "pattern-file"])
def test_non_ascii_input_line_is_a_usage_error_naming_path_and_line(case, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    out = tmp_path / "o.csv"
    book = tmp_path / "book.txt"
    book.write_text("0011\n1100\n")
    first = {"codebook": "0011", "received": "01", "outer-words": "1,2,1,2", "pattern-file": "1,2"}[case]
    bad.write_bytes(first.encode() + "\r\n# caf\u00e9\n".encode("utf-8"))  # the second line is not ASCII
    argv = {
        "codebook": ["corrupt", "--in", str(bad), "--out", str(out), "--pattern", ""],
        "received": ["decode", "--codebook", str(book), "--in", str(bad), "--out", str(out)],
        "outer-words": ["encode", "--toy", "--K", "2", "--R", "2", "--lambda", "1", "--delta", "0.5",
                        "--n", "4", "--in", str(bad), "--out", str(out)],
        "pattern-file": _oblivious_config(tmp_path, pool={"random": 4}, pattern_file=str(bad)),
    }[case]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"error: {bad}:2: 'ascii' codec can't decode byte 0xc3" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(out.name)] == []


def test_pool_that_repeats_a_word_is_a_usage_error_before_scoring(tmp_path, capsys, monkeypatch):
    words = tmp_path / "pool.txt"
    words.write_text("1,2,1,2\n2,2,1,1\n1,2,1,2\n")
    monkeypatch.setattr(oblivious, "filter_candidates", lambda *a, **k: pytest.fail("pool was scored"))
    argv = _oblivious_config(tmp_path, pool={"file": str(words), "structured": False}, use_filter=True)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "repeats the outer word 1,2,1,2" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_dominance_violation_is_recorded_with_witness(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "match_count_dominance", lambda *a, **k: (2, 1))
    assert main(["verify", "worst-sets-dominance", "--seed", "3"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["violations"] == report["instances"] == 100
    assert "'Y'" in report["witnesses"][0] and "'sets'" in report["witnesses"][0]


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as err:
        main(["--threads", "4", "params", "--p", "0.9", "--n", "10"])
    assert err.value.code == 2


def test_config_without_params_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"pool": {"random": 3}}))
    with pytest.raises(SystemExit) as err:
        main(["experiment", "oblivious", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert err.value.code == 2
    assert "'params'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("case", ["params", "oblivious", "pool", "patterns", "encode",
                                  "corrupt", "codebook", "received", "online"])
def test_missing_input_file_is_usage_error(case, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    book = tmp_path / "book.txt"
    book.write_text("0011\n1100\n")
    out = str(tmp_path / "out.txt")
    toy = ["--toy", "--K", "2", "--R", "2", "--lambda", "1", "--delta", "0.5", "--n", "4"]
    argv = {
        "params": ["params", "--config", missing],
        "oblivious": ["experiment", "oblivious", "--config", missing, "--out", out],
        "pool": _oblivious_config(tmp_path, pool={"file": missing}),
        "patterns": _oblivious_config(tmp_path, pool={"random": 4}, pattern_file=missing),
        "encode": ["encode", *toy, "--in", missing, "--out", out],
        "corrupt": ["corrupt", "--in", missing, "--out", out, "--pattern", "1"],
        "codebook": ["decode", "--codebook", missing, "--in", str(book), "--out", out],
        "received": ["decode", "--codebook", str(book), "--in", missing, "--out", out],
        "online": ["experiment", "online", "--code", missing, "--p", "1/2",
                   "--p0-adv", "2/5", "--out", out],
    }[case]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"cannot open {missing}: No such file" in capsys.readouterr().err


def test_failed_write_leaves_no_output_and_no_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(tmp_path / "out.txt", "01\u00e9\n")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_a_foreign_tmp_file_alone(tmp_path):
    other = tmp_path / "out.txt.tmp"
    other.write_text("another run's data\n")
    atomic_write_text(tmp_path / "out.txt", "0101\n")
    assert (tmp_path / "out.txt").read_text() == "0101\n"
    assert other.read_text() == "another run's data\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]


def test_failed_encode_keeps_the_old_codebook(tmp_path, monkeypatch, capsys):
    outer = tmp_path / "outer.txt"
    outer.write_text("1,2,1,2\n2,1,2,1\n")
    out = tmp_path / "code.txt"
    out.write_text("0101\n")
    encoded = iter([Word("01"), "0x"])  # the second codeword cannot be written
    monkeypatch.setattr(cli, "encode_outer", lambda X, params: next(encoded))
    with pytest.raises(SystemExit) as err:
        main(["encode", "--toy", "--K", "2", "--R", "2", "--lambda", "1", "--delta", "0.5",
              "--n", "4", "--in", str(outer), "--out", str(out)])
    assert err.value.code == 2
    assert out.read_text() == "0101\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["code.txt", "outer.txt"]


@pytest.mark.parametrize("params, key", [
    ({"mode": "toy", "K": None, "R": 4, "delta": "1/2", "n": 4}, "'K'"),
    ({"mode": "toy", "K": 2, "R": 4, "lambda": [1], "delta": "1/2", "n": 4}, "'lambda'"),
    ({"mode": "paper", "p": None, "n": 10}, "'p'"),
])
def test_params_of_the_wrong_json_type_are_usage_errors(params, key, tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    with pytest.raises(SystemExit) as err:
        main(["params", "--config", str(cfg)])
    assert err.value.code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    # "lamda" was read as the default lambda = 1
    ({"mode": "toy", "K": 2, "R": 4, "lamda": 2, "delta": "1/2", "n": 4}, "toy parameters take no key 'lamda'"),
    ({"mode": "paper", "p": "0.4", "n": 4, "K": 8}, "'K' = 8 is not what these parameters print"),
    ({"mode": "toy", "K": 2, "R": 4, "delta": "1/2", "n": 4, "L": 100}, "'L' = 100 is not"),
    ({"mode": "toy", "K": 2, "R": 4, "delta": "1/2", "n": 4, "L": 32.0}, "'L' = 32.0 is not"),  # L = 32
    ({"mode": "toy", "K": 2, "R": 4, "delta": "1/2", "n": 4, "p": "1/2"}, "toy parameters take no key 'p'"),
], ids=["misspelled-lambda", "paper-K", "wrong-L", "float-L", "toy-p"])
@pytest.mark.parametrize("command", ["params", "encode", "oblivious"])
def test_a_parameter_key_nothing_reads_or_prints_is_a_usage_error(command, params, message, tmp_path, capsys):
    # a parameter object holds the keys its mode reads, and the keys ``params``
    # prints for it only with the values it prints
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    outer = tmp_path / "outer.txt"
    outer.write_text("1,2,1,2\n")
    argv = {"params": ["params", "--config", str(cfg)],
            "encode": ["encode", "--config", str(cfg), "--in", str(outer), "--out", str(tmp_path / "code.txt")],
            "oblivious": _oblivious_config(tmp_path, params=params)}[command]
    inputs = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("extra, key", [
    ({"pool": 3}, "'pool'"),
    ({"pool": {"random": None}}, "'random'"),
    ({"seeds": 3}, "'seeds'"),
    ({"f_exact": False, "f_trials": "many"}, "'f_trials'"),
    ({"params": {"mode": "toy", "K": None, "R": 4, "delta": "1/2", "n": 4}}, "'K'"),
    ({"pool": {"file": 1}}, "'file'"),  # not file descriptor 1
    ({"pattern_file": 0}, "'pattern_file'"),
])
def test_experiment_config_of_the_wrong_json_type_is_usage_error(extra, key, tmp_path, capsys):
    argv = _oblivious_config(tmp_path, **extra)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("extra, key", [
    pytest.param({"use_filter": True, "f_exact": False, "f_trials": 0}, "'f_trials'",
                 id="zero-f_trials"),
    pytest.param({"use_filter": True, "f_exact": "false"}, "'f_exact'", id="string-f_exact"),
    pytest.param({"use_filter": "no"}, "'use_filter'", id="string-use_filter"),
    pytest.param({"pool": {"all": 1}}, "'all'", id="number-all"),
    pytest.param({"pool": {"random": 3, "structured": "no"}}, "'structured'",
                 id="string-structured"),
    pytest.param({"target_size": -3}, "'target_size'", id="negative-target_size"),
    pytest.param({"target_size": 0}, "'target_size'", id="zero-target_size"),
    pytest.param({"target_size": "big"}, "'target_size'", id="string-target_size"),
    pytest.param({"seeds": []}, "'seeds'", id="empty-seeds"),
    # keys the reader does not know, including the removed seed_count and master_seed
    pytest.param({"seeds": OMIT, "seed_count": -2}, "unknown key(s) 'seed_count'",
                 id="negative-seed_count"),
    pytest.param({"seeds": OMIT, "seed_count": 0}, "unknown key(s) 'seed_count'", id="zero-seed_count"),
    pytest.param({"master_seed": "abc"}, "unknown key(s) 'master_seed'", id="string-master_seed"),
    pytest.param({"use_filtre": False}, "unknown key(s) 'use_filtre'", id="typo-use_filter"),
    pytest.param({"f_exact": False, "f_trails": 3}, "unknown key(s) 'f_trails'", id="typo-f_trials"),
    pytest.param({"pool": {"random": 3, "structurd": False}}, "unknown 'pool' key(s) 'structurd'",
                 id="typo-structured"),
    pytest.param({"pool": {"random": -4}}, "'random'", id="negative-random"),
    pytest.param({"pattern_weight": -5}, "'pattern_weight'", id="negative-pattern_weight"),
    pytest.param({"pattern_weight": 129}, "'pattern_weight'", id="pattern_weight-past-N"),  # N = 128
    # integer keys take JSON integers only, and target_size a JSON number
    pytest.param({"params": {"mode": "toy", "K": 2, "R": 4, "delta": "1/2", "n": 4.9}}, "'n'",
                 id="float-n"),
    pytest.param({"params": {"mode": "toy", "K": True, "R": 4, "delta": "1/2", "n": 4}}, "'K'",
                 id="boolean-K"),
    pytest.param({"pool": {"random": 3.9}}, "'random'", id="float-random"),
    pytest.param({"pattern_weight": 2.5}, "'pattern_weight'", id="float-pattern_weight"),
    pytest.param({"seeds": [True]}, "'seeds'", id="boolean-seed"),
    pytest.param({"target_size": "8"}, "'target_size'", id="numeric-string-target_size"),
    pytest.param({"target_size": 10**400}, "'target_size'", id="float-overflow-target_size"),
    pytest.param({"params": {"mode": "toy", "K": 2, "R": 4, "delta": "1/0", "n": 4}}, "'delta'",
                 id="zero-denominator-delta"),
])
def test_experiment_config_bad_value_is_usage_error(extra, key, tmp_path, capsys):
    # flags must be JSON booleans, and counts and sizes positive
    argv = _oblivious_config(tmp_path, **extra)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("extra, named", [
    pytest.param({"use_filter": True, "f_trials": 7}, ("'f_trials'", "'f_exact'"), id="f_trials-with-exact-f"),
    pytest.param({"use_filter": True, "f_exact": True, "f_trials": 7}, ("'f_trials'", "'f_exact'"),
                 id="f_trials-with-f_exact-true"),
    pytest.param({"f_exact": False, "f_trials": 9}, ("'f_exact'", "'use_filter'"), id="f_exact-without-filter"),
    pytest.param({"f_trials": 9}, ("'f_trials'", "'use_filter'"), id="f_trials-without-filter"),
    pytest.param({"pattern_weight": 3, "pattern_file": "patterns.txt"}, ("'pattern_weight'", "'pattern_file'"),
                 id="pattern_weight-beside-pattern_file"),
])
def test_config_key_that_nothing_reads_is_a_usage_error(extra, named, tmp_path, capsys, monkeypatch):
    # without the check each of these runs, ignores the key and writes the same bytes as without it
    (tmp_path / "patterns.txt").write_text("1,2,3\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(_oblivious_config(tmp_path, **extra))
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert all(key in message for key in named), message
    assert not (tmp_path / "o.csv").exists()


def test_online_experiment_needs_two_codewords(tmp_path, capsys):
    book = tmp_path / "code.txt"
    book.write_text("0011\n")
    with pytest.raises(SystemExit) as err:
        main(["experiment", "online", "--code", str(book), "--p", "1/2", "--p0-adv", "2/5",
              "--seed", "1", "--out", str(tmp_path / "online.csv")])
    assert err.value.code == 2
    assert "need at least two codewords" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [book]


@pytest.mark.parametrize("decoder", ["unique", "ml"])
def test_online_experiment_names_the_repeated_codeword(decoder, tmp_path, capsys):
    book = tmp_path / "code.txt"
    book.write_text("0011\n0011\n1100\n")
    with pytest.raises(SystemExit) as err:
        main(["experiment", "online", "--code", str(book), "--p", "1/2", "--p0-adv", "2/5",
              "--seed", "1", "--decoder", decoder, "--out", str(tmp_path / "online.csv")])
    assert err.value.code == 2
    assert "repeats the codeword 0011" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [book]


def test_negative_trial_count_is_usage_error(tmp_path, capsys):
    book = tmp_path / "code.txt"
    book.write_text("0011\n1100\n")
    out = tmp_path / "online.csv"
    with pytest.raises(SystemExit) as err:
        main(["experiment", "online", "--code", str(book), "--p", "1/2", "--p0-adv", "2/5",
              "--trials", "-3", "--seed", "1", "--out", str(out)])
    assert err.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [book]


@pytest.mark.parametrize("option, value", [("--p", "1/0"), ("--p0-adv", "1/0"),
                                           ("--p", "half"), ("--p0-adv", "2/")])
def test_bad_online_fraction_is_usage_error(option, value, tmp_path, capsys):
    book = tmp_path / "code.txt"
    book.write_text("0011\n1100\n")
    out = tmp_path / "online.csv"
    fractions = {"--p": "1/2", "--p0-adv": "2/5", option: value}
    with pytest.raises(SystemExit) as err:
        main(["experiment", "online", "--code", str(book), "--p", fractions["--p"],
              "--p0-adv", fractions["--p0-adv"], "--trials", "3", "--seed", "1",
              "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}:" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [book]


@pytest.mark.parametrize("p", ["0.3", "0.9"])
@pytest.mark.parametrize("command", ["encode", "graph", "oblivious"])
def test_paper_scale_parameters_are_a_usage_error(command, p, tmp_path, capsys):
    # at p = 0.9, log2 L alone has more than 4,300 decimal digits
    outer = tmp_path / "outer.txt"
    outer.write_text("1,1\n")
    out = tmp_path / "out.txt"
    argv = {
        "encode": ["encode", "--p", p, "--n", "2", "--in", str(outer), "--out", str(out)],
        "graph": ["graph", "--p", p, "--n", "2"],
        "oblivious": _oblivious_config(tmp_path, params={"mode": "paper", "p": p, "n": 2}),
    }[command]
    inputs = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "not executable" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


TOY_OPTIONS = ["--K", "2", "--R", "4", "--lambda", "1", "--delta", "0.5"]


@pytest.mark.parametrize("command", ["params", "encode", "graph"])
@pytest.mark.parametrize("mode, options, stray", [
    ("config", ["--toy"], "--toy"),
    ("config", ["--p", "0.9"], "--p"),
    ("config", ["--n", "4"], "--n"),
    ("config", ["--K", "2"], "--K"),
    ("config", ["--R", "4"], "--R"),
    ("config", ["--lambda", "1"], "--lambda"),
    ("config", ["--delta", "0.5"], "--delta"),
    ("toy", ["--toy", *TOY_OPTIONS, "--n", "4", "--p", "0.9"], "--p"),
    ("paper", ["--p", "0.9", "--n", "100", "--K", "4"], "--K"),
    ("paper", ["--p", "0.9", "--n", "100", "--R", "3"], "--R"),
    ("paper", ["--p", "0.9", "--n", "100", "--lambda", "2"], "--lambda"),
    ("paper", ["--p", "0.9", "--n", "100", "--delta", "0.5"], "--delta"),
])
def test_parameter_option_of_another_mode_is_a_usage_error(command, mode, options, stray,
                                                           tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"mode": "toy", "K": 2, "R": 4, "lambda": 1, "delta": "0.5", "n": 4}))
    outer = tmp_path / "outer.txt"
    outer.write_text("1,2,1,2\n")
    out = tmp_path / "out.txt"
    argv = [command, *(["--config", str(cfg)] if mode == "config" else []), *options]
    if command == "encode":
        argv += ["--in", str(outer), "--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"{mode} mode takes no {stray}" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("family, options", [
    (None, ["--weight", "3"]),
    (None, ["--seed", "9"]),
    ("delete-zeros", ["--weight", "3"]),
    ("delete-ones", ["--seed", "9"]),
])
def test_uniform_family_options_elsewhere_are_a_usage_error(family, options, tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n")
    out = tmp_path / "out.txt"
    chosen = ["--family", family] if family else ["--pattern", "1"]
    with pytest.raises(SystemExit) as err:
        main(["corrupt", "--in", str(infile), "--out", str(out), *chosen, *options])
    assert err.value.code == 2
    assert "--family uniform only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["9", "-1"])
def test_uniform_weight_outside_the_word_length_is_a_usage_error(weight, tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n")
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as err:
        main(["corrupt", "--in", str(infile), "--out", str(out), "--family", "uniform", "--weight", weight])
    assert err.value.code == 2
    assert f"--weight {weight} must lie in [0, 4], the word length" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options, message", [
    ([], "cannot open : No such file"),
    (["--p", "0.5", "--n", "4"], "config mode takes no --p --n"),
], ids=["alone", "beside-paper-options"])
def test_empty_config_path_is_a_usage_error(options, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["params", "--config", "", *options])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_uniform_family_takes_weight_and_seed(tmp_path, capsys):
    infile = tmp_path / "in.txt"
    infile.write_text("0101\n0011\n")
    out = tmp_path / "out.txt"
    argv = ["corrupt", "--in", str(infile), "--out", str(out), "--family", "uniform", "--weight", "3"]
    assert main([*argv, "--seed", "9"]) == 0
    assert [len(line) for line in out.read_text().splitlines()] == [1, 1]
    with pytest.raises(SystemExit) as err:
        main(argv[:-2])
    assert err.value.code == 2
    assert "--weight required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["params", "oblivious"])
def test_config_that_is_not_json_is_a_usage_error_naming_the_file(command, tmp_path, capsys):
    cfg = tmp_path / "cut.json"
    cfg.write_text('{"params": ')
    argv = {"params": ["params", "--config", str(cfg)],
            "oblivious": ["experiment", "oblivious", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]}
    with pytest.raises(SystemExit) as err:
        main(argv[command])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"{cfg}: Expecting value: line 1" in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", [
    ["--p", "0.9", "--n", "100"],
    ["--toy", "--K", "2", "--R", "4", "--lambda", "2", "--delta", "0.5", "--n", "8"],
], ids=["paper", "toy"])
def test_params_output_reads_back_through_config(argv, tmp_path, capsys):
    code, out, _ = run_cli(["params", *argv], capsys)
    assert code == 0
    cfg = tmp_path / "params.json"
    cfg.write_text(out)
    assert run_cli(["params", "--config", str(cfg)], capsys) == (0, out, "")


def test_toy_flags_read_as_a_config_file_does(capsys):
    # --lambda defaults to 1, and a missing option is a missing key
    toy = ["params", "--toy", "--K", "2", "--R", "4", "--delta", "0.5"]
    code, out, _ = run_cli([*toy, "--n", "8"], capsys)
    assert code == 0 and json.loads(out)["lambda"] == 1
    with pytest.raises(SystemExit) as err:
        main(toy)
    assert err.value.code == 2
    assert "toy parameters lack key(s): n" in capsys.readouterr().err


def test_paper_config_reads_p_as_its_decimal(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"mode": "paper", "p": 0.3, "n": 10}))
    code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["p"] == "3/10"  # as --p 0.3 gives, not the binary float


WRITERS = {
    "encode": lambda d: ["encode", "--toy", "--K", "2", "--R", "2", "--lambda", "1", "--delta", "0.5",
                         "--n", "4", "--in", str(d / "outer.txt")],
    "corrupt": lambda d: ["corrupt", "--in", str(d / "book.txt"), "--pattern", "1"],
    "decode": lambda d: ["decode", "--codebook", str(d / "book.txt"), "--in", str(d / "book.txt")],
    "oblivious": lambda d: _oblivious_config(d, pool={"random": 4}),  # the last --out given counts
    "online": lambda d: ["experiment", "online", "--code", str(d / "book.txt"), "--p", "1/2",
                         "--p0-adv", "2/5", "--trials", "3", "--seed", "1"],
}


@pytest.mark.parametrize("out", ["", "nodir/x.txt", "adir"], ids=["empty", "no-directory", "directory"])
@pytest.mark.parametrize("command", list(WRITERS))
def test_unwritable_out_is_a_usage_error_before_any_work(command, out, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "book.txt").write_text("0011\n1100\n")
    (tmp_path / "outer.txt").write_text("1,2,1,2\n")
    (tmp_path / "adir").mkdir()
    argv = WRITERS[command](tmp_path) + ["--out", out]
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"--out {out!r}" in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["oblivious", "online"])
def test_summary_path_that_is_a_directory_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    # an experiment writes its summary beside --out: r.csv -> r.summary.json
    monkeypatch.chdir(tmp_path)
    (tmp_path / "book.txt").write_text("0011\n1100\n")
    (tmp_path / "r.summary.json").mkdir()
    argv = WRITERS[command](tmp_path) + ["--out", "r.csv"]
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "'r.summary.json' is a directory" in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_matching_decay_violation_exits_1(capsys, monkeypatch):
    # estimates that grow with n break both the order and the slope
    growth = {n: 2.0 ** (n - 40) for n in (8, 16, 24, 32)}
    monkeypatch.setattr(oracles, "matchability_estimates", lambda *args: growth)
    code, out, err = run_cli(["verify", "matching-decay", "--samples", "10", "--seed", "1"], capsys)
    assert code == 1 and "VIOLATIONS" in err
    (report,) = json.loads(out)
    assert report["violations"] == 2
    assert "not nonincreasing" in report["witnesses"][0] and "slope not negative" in report["witnesses"][1]


def test_matching_decay_with_a_zero_estimate_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "matching-decay", "--samples", "1", "--seed", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "matching-decay: the estimate at n = 8 is 0 after 1 trials" in captured.err
    assert captured.out == ""
