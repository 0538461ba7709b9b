import functools
import inspect
import json

import pytest

from statelab.cli import main

GOOD_DOC = """\
alphabet: a b
states: q0 q1
initial: q0
accepting: q1
trans q0 a -> q1
trans q0 b -> q0
trans q1 a -> q1
trans q1 b -> q1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_gallery_accept_and_reject(capsys):
    code, out, _ = run(capsys, "eval", "lex", "0#1")
    assert (code, out.strip()) == (0, "accept")
    code, out, _ = run(capsys, "eval", "lex", "1#0")
    assert (code, out.strip()) == (1, "reject")


def test_eval_file_automaton(tmp_path, capsys):
    path = tmp_path / "once.aut"
    path.write_text(GOOD_DOC, encoding="utf-8")
    code, out, _ = run(capsys, "eval", str(path), "ba")
    assert (code, out.strip()) == (0, "accept")


def test_eval_unknown_ref_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "no-such-thing", "x")
    assert code == 2
    assert "neither" in err


@pytest.mark.parametrize("argv", [
    ("eval", "REF", "ab"),
    ("profile", "REF", "4"),
    ("quotients", "REF", "--order", "1", "--witness", "1"),
    ("query-table", "REF", "--order", "1", "--rows", "1"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("ref,reason", [
    ("l-hier:1", "'l-hier:1': the hierarchy needs an exponent >= 2"),
    ("l-hier:x", "bad hierarchy exponent 'x'"),
])
def test_malformed_hierarchy_ref_is_usage_error_naming_its_fault(
        tmp_path, monkeypatch, capsys, argv, ref, reason):
    monkeypatch.chdir(tmp_path)  # no file of that name
    code, out, err = run(capsys, *(ref if a == "REF" else a for a in argv))
    assert (code, out) == (2, "")
    assert reason in err


def test_eval_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.aut"
    path.write_text("alphabet: a\nstates: q\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", str(path), "a")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("alphabet_line", ["alphabet: a a", "alphabet:"])
def test_eval_file_with_a_bad_alphabet_is_usage_error(tmp_path, capsys, alphabet_line):
    path = tmp_path / "alphabet.aut"
    path.write_text(GOOD_DOC.replace("alphabet: a b", alphabet_line), encoding="utf-8")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (2, "")
    assert "line 1: alphabet" in err


@pytest.mark.parametrize("kind,reason", [("directory", "Is a directory"), ("binary", "utf-8")])
def test_eval_unreadable_ref_is_usage_error(tmp_path, capsys, kind, reason):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (2, "")
    assert f"cannot read {str(path)!r}" in err and reason in err


def test_quotients_json(capsys):
    code, out, _ = run(
        capsys, "quotients", "count-eq3", "--order", "1",
        "--witness", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["representatives"] == ["", "a", "b", "c"]


def test_quotients_csv(capsys):
    code, out, _ = run(
        capsys, "quotients", "count-eq3", "--order", "1",
        "--witness", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,representative"
    assert len(lines) == 5


def test_quotients_budget_exhaustion_fails_cleanly(capsys):
    code, _, err = run(
        capsys, "quotients", "primes", "--order", "8",
        "--witness", "8", "--budget", "1000",
    )
    assert code == 1
    assert "budget" in err


def test_profile_uses_declared_gallery_bound(capsys):
    code, out, _ = run(capsys, "profile", "lex", "12")
    assert code == 0
    assert "pass" in out


def test_profile_explicit_bound_can_fail(capsys):
    code, out, _ = run(
        capsys, "profile", "count-eq3", "12",
        "--bound-class", "n", "--constant", "1",
    )
    assert code == 1


def test_profile_constant_applies_to_the_declared_class(capsys):
    # maj2 declares 3*n; with --constant 1 the same profile breaks 1*n
    code, out, _ = run(capsys, "profile", "maj2", "4", "--constant", "1", "--format", "json")
    assert code == 1
    assert json.loads(out)["bound"]["constant"] == 1


def test_profile_constant_without_a_ceiling_is_usage_error(tmp_path, capsys):
    path = tmp_path / "once.aut"
    path.write_text(GOOD_DOC, encoding="utf-8")
    code, out, err = run(capsys, "profile", str(path), "2", "--constant", "2")
    assert (code, out) == (2, "")
    assert "--constant" in err


@pytest.mark.parametrize("argv", [
    ("profile", "lex", "4", "--seed", "1"),
    ("profile", "lex", "4", "--budget", "5"),
    ("quotients", "count-eq3", "--order", "1", "--witness", "2", "--seed", "1"),
    ("query-table", "l-exp", "--order", "1", "--rows", "#0", "--seed", "1"),
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (("profile", "lex", "-1"), "depth"),
    (("quotients", "count-eq3", "--order", "-1", "--witness", "2"), "--order"),
    (("quotients", "count-eq3", "--order", "1", "--witness", "-1"), "--witness"),
    (("query-table", "primes", "--order", "-1", "--rows-max", "2"), "--order"),
    (("query-table", "l-exp", "--order", "1", "--rows-max", "-1"), "--rows-max"),
    (("quotients", "lex", "--order", "1", "--witness", "1", "--budget", "-1"), "--budget"),
    (("query-table", "lex", "--order", "1", "--rows-max", "1", "--budget", "-1"), "--budget"),
    (("experiment", "exp-alt", "--budget", "-1"), "--budget"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_negative_size_is_usage_error_before_any_query(capsys, monkeypatch, argv, flag):
    import statelab.cli as cli

    monkeypatch.setattr(cli, "get_language", lambda name: pytest.fail("language built"))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= 0, got -1" in err
    assert "Traceback" not in err


def test_eval_letter_outside_the_alphabet_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "lex", "2")
    assert (code, out) == (2, "")
    assert "letter '2' not in alphabet '01#'" in err


def test_profile_json_payload(capsys):
    code, out, _ = run(
        capsys, "profile", "maj2", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == [1, 3, 5, 7, 9]
    assert payload["bound"]["passed"] is True


def test_query_table_explicit_rows(capsys):
    code, out, _ = run(
        capsys, "query-table", "l-exp", "--order", "1",
        "--rows", "", "#0", "#1", "#0#1",
        "--profiles", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["profiles"]["#0"] == "0101"


def test_query_table_row_letter_outside_the_alphabet_is_usage_error(capsys):
    code, out, err = run(capsys, "query-table", "l-exp", "--order", "1", "--rows", "#0", "2")
    assert (code, out) == (2, "")
    assert "letter '2' not in alphabet '01#'" in err


def test_query_table_rows_takes_at_least_one_word(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query-table", "lex", "--order", "1", "--rows"])
    assert exc.value.code == 2
    assert "argument --rows: expected at least one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, "query-table", "lex", "--order", "1", "--rows", "",
                       "--profiles", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["row_spec"]["rows"]) == (1, [""])


def test_query_table_requires_a_row_source(capsys):
    code, _, err = run(capsys, "query-table", "l-exp", "--order", "1")
    assert code == 2
    assert "rows" in err


def test_prob_eval_prints_exact_fraction(capsys):
    code, out, _ = run(capsys, "prob", "eval", "rabin-half", "11")
    assert (code, out.strip()) == (0, "3/4")


def test_prob_eval_rejects_non_probabilistic_ref(capsys):
    code, _, err = run(capsys, "prob", "eval", "lex", "0#1")
    assert code == 2


def test_prob_separate(capsys):
    code, out, _ = run(capsys, "prob", "separate", "0", "1")
    assert (code, out.strip()) == (0, "#11")


@pytest.mark.parametrize("u,v,message", [
    ("01", "0", "equal length"),
    ("01", "01", "distinct"),
    ("0x", "01", "not a binary word"),
    ("0x", "11", "not a binary word: '0x'\n"),
    ("01", "0x", "not a binary word: '0x'\n"),
])
def test_prob_separate_bad_words_are_usage_error(capsys, u, v, message):
    code, out, err = run(capsys, "prob", "separate", u, v)
    assert (code, out) == (2, "")
    assert message in err


def test_experiment_text_output(capsys):
    code, out, _ = run(capsys, "experiment", "exp-alt", "--n", "1")
    assert code == 0
    assert "verdict: pass" in out


def test_experiment_list(capsys):
    code, out, _ = run(capsys, "experiment", "--list")
    assert code == 0
    assert "rabin-claim" in out
    assert "core-crosscheck" in out


def test_experiment_small_run_json(capsys):
    code, out, _ = run(
        capsys, "experiment", "exp-alt", "--n", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert "duration" not in payload


def test_experiment_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "experiment", "never-heard-of-it")
    assert code == 2
    assert "known" in err


def test_experiment_requires_id_or_list(capsys):
    code, _, err = run(capsys, "experiment")
    assert code == 2


def test_out_writes_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "quotients", "count-eq3", "--order", "1", "--witness", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["count"] == 4


def test_gallery_listing(capsys):
    code, out, _ = run(capsys, "gallery")
    assert code == 0
    for name in ("count-eq3", "lex", "primes", "rabin-half"):
        assert name in out


def test_profile_csv_with_bound_reports_each_verdict(capsys):
    code, out, _ = run(
        capsys, "profile", "count-eq3", "12",
        "--bound-class", "n", "--constant", "1", "--format", "csv",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,within_bound"
    assert len(lines) == 14
    assert lines[1] == "0,1,true"
    assert lines[2] == "1,4,false"
    assert all(line.split(",")[2] in ("true", "false") for line in lines[1:])


def test_profile_csv_bytes_with_and_without_a_bound(tmp_path, capsys):
    code, out, _ = run(capsys, "profile", "maj2", "2", "--format", "csv")
    assert (code, out) == (0, "n,count,within_bound\n0,1,true\n1,3,true\n2,5,true\n")
    path = tmp_path / "once.aut"
    path.write_text(GOOD_DOC, encoding="utf-8")
    code, out, _ = run(capsys, "profile", str(path), "2", "--format", "csv")
    assert (code, out) == (0, "n,count\n0,1\n1,2\n2,2\n")


@pytest.mark.parametrize("argv", [
    ("profile", "maj2", "2"),
    ("profile", "maj2", "2", "--bound-class", "n", "--constant", "3"),
    ("quotients", "count-eq3", "--order", "1", "--witness", "3"),
    ("query-table", "lex", "--order", "1", "--rows-max", "1"),
    ("experiment", "exp-alt", "--n", "1"),
], ids=["profile", "profile-bound", "quotients", "query-table", "experiment"])
def test_csv_output_ends_with_one_newline(capsys, argv):
    # and so does every other format of every report
    for fmt in ("json", "csv", "text"):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0, fmt
        assert out.endswith("\n") and not out.endswith("\n\n"), fmt


@pytest.mark.parametrize("flag", ["--n", "--limit", "--count"])
def test_experiment_all_rejects_per_experiment_flags(capsys, flag):
    code, out, err = run(capsys, "experiment", "all", flag, "3")
    assert code == 2
    assert out == ""
    assert flag in err


def test_experiment_override_it_does_not_take_is_usage_error(capsys):
    code, out, err = run(capsys, "experiment", "rabin-claim", "--count", "5")
    assert code == 2
    assert out == ""
    assert "count" in err


@pytest.mark.parametrize("exp_id", ["rabin-claim", "all"])
def test_experiment_passes_every_runner_only_what_it_takes(capsys, monkeypatch, exp_id):
    import statelab.experiments as exps

    def stub(runner):
        # same signature as the real runner, without its work
        @functools.wraps(runner)
        def fake(**overrides):
            inspect.signature(runner).bind(**overrides)
            return exps.ExperimentReport(
                experiment=runner.__name__, claim="", parameters={}, measured={},
                bound="", verdict="pass",
            )
        return fake

    monkeypatch.setattr(exps, "REGISTRY", {k: stub(r) for k, r in exps.REGISTRY.items()})
    code, out, _ = run(capsys, "experiment", exp_id, "--seed", "5", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == (8 if exp_id == "all" else 2)


@pytest.mark.parametrize("argv", [
    ("primes-linear", "--n", "0"),
    ("primes-hs", "--n", "0"),
    ("primes-hs", "--n", "1"),
    ("rabin-claim", "--n", "0"),
    ("exp-alt", "--n", "-1"),
    ("hierarchy:2", "--n", "-2"),
    ("core-crosscheck", "--count", "0"),
    ("core-crosscheck", "--count", "1"),
    ("primes-linear", "--limit", "0"),
], ids=lambda argv: " ".join(argv))
def test_experiment_size_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "experiment", *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert f"needs {argv[1][2:]} >= " in err
    assert "Traceback" not in err


def test_experiment_bad_hierarchy_exponent_is_a_checked_failure(capsys):
    for exp_id in ("hierarchy:x", "hierarchy:1", "hierarchy:\u0662"):
        code, _, err = run(capsys, "experiment", exp_id)
        assert code == 1
        assert "exponent" in err


@pytest.mark.parametrize("argv", [
    ("eval", "lex", "0#1"),
    ("profile", "lex", "12"),
    ("profile", "count-eq3", "4", "--bound-class", "n^2", "--constant", "9"),
    ("quotients", "count-eq3", "--order", "1", "--witness", "2"),
    ("query-table", "l-exp", "--order", "1", "--rows", "#0"),
    ("prob", "eval", "rabin-half", "11"),
], ids=lambda argv: " ".join(argv[:2]))
def test_gallery_language_is_built_once_per_command(capsys, monkeypatch, argv):
    import statelab.cli as cli

    calls = []
    get_language = cli.get_language

    def counting(name):
        calls.append(name)
        return get_language(name)

    monkeypatch.setattr(cli, "get_language", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_prob_eval_letter_outside_the_alphabet_is_usage_error(capsys):
    code, out, err = run(capsys, "prob", "eval", "rabin-half", "2")
    assert (code, out) == (2, "")
    assert "letter '2' not in alphabet '01#'" in err


@pytest.mark.parametrize("shape,message", [
    ("foo", "unknown bound class 'foo'"),
    ("n^0", "bad bound exponent in 'n^0'"),
    # int() would read each of these as an exponent
    ("n^\u0663", "bad bound class 'n^\u0663'"),
    ("n^+3", "bad bound class 'n^+3'"),
    ("n^ 3", "bad bound class 'n^ 3'"),
    ("n^3 ", "bad bound class 'n^3 '"),
    ("n^1_0", "bad bound class 'n^1_0'"),
])
def test_bad_bound_class_is_usage_error_before_any_language(capsys, monkeypatch, shape, message):
    import statelab.cli as cli

    monkeypatch.setattr(cli, "get_language", lambda name: pytest.fail("language built"))
    with pytest.raises(SystemExit) as exc:
        main(["profile", "lex", "3", "--bound-class", shape])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --bound-class: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("constant", ["0", "-3"])
def test_constant_below_one_is_usage_error_before_any_language(capsys, monkeypatch, constant):
    import statelab.cli as cli

    monkeypatch.setattr(cli, "get_language", lambda name: pytest.fail("language built"))
    with pytest.raises(SystemExit) as exc:
        main(["profile", "maj2", "4", "--constant", constant])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --constant: must be >= 1, got {constant}" in err
    assert "Traceback" not in err


def test_query_table_rows_max_matches_the_same_rows_given_explicitly(capsys):
    code, out, _ = run(capsys, "query-table", "lex", "--order", "1",
                       "--rows-max", "1", "--format", "json")
    assert code == 0
    exhaustive = json.loads(out)
    code, out, _ = run(capsys, "query-table", "lex", "--order", "1",
                       "--rows", "", "0", "1", "#", "--format", "json")
    assert code == 0
    explicit = json.loads(out)
    assert exhaustive["row_spec"] == {"kind": "exhaustive", "max_length": 1}
    assert (exhaustive["count"], exhaustive["representatives"]) == (
        explicit["count"], explicit["representatives"])


def test_query_table_rejects_both_row_sources(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query-table", "l-exp", "--order", "1", "--rows", "#0", "--rows-max", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_quotients_of_a_file_name_the_oracle_by_the_path_given(tmp_path, capsys):
    path = tmp_path / "once.aut"
    path.write_text(GOOD_DOC, encoding="utf-8")
    code, out, _ = run(
        capsys, "quotients", str(path), "--order", "1", "--witness", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["language"] == str(path)
    assert payload["count"] == 2


def test_prob_eval_of_a_file(tmp_path, capsys):
    from statelab import rabin_automaton, serialize_prob_automaton

    path = tmp_path / "rabin.pa"
    path.write_text(serialize_prob_automaton(rabin_automaton()), encoding="utf-8")
    code, out, _ = run(capsys, "prob", "eval", str(path), "11")
    assert (code, out.strip()) == (0, "3/4")


@pytest.mark.parametrize("line,replacement,message", [
    ("alphabet: a b", "alphabet: a b\nalphabet: a b", "line 2: duplicate alphabet line"),
    ("trans q0 a -> q1", "trans q0 a => q1", "expected '->' after the letter"),
], ids=["duplicate-header", "missing-arrow"])
def test_eval_of_a_malformed_file_names_the_fault(tmp_path, capsys, line, replacement, message):
    path = tmp_path / "broken.aut"
    path.write_text(GOOD_DOC.replace(line, replacement), encoding="utf-8")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (2, "")
    assert f"{path}: " in err and message in err


@pytest.mark.parametrize("n, budget, needed", [
    # the sweep's least need, every prefix of length <= 11, is refused up front
    ("11", "1000", 2 ** 12 - 1),
    # a split search is refused mid-run, counting the queries asked before it
    ("8", "600", 672),
], ids=["before-the-first-query", "mid-search"])
def test_primes_hs_budget_refusal_message(capsys, n, budget, needed):
    code, out, err = run(capsys, "experiment", "primes-hs", "--n", n, "--budget", budget)
    assert (code, out) == (1, "")
    assert err == f"error: operation needs about {needed} membership queries, budget is {budget}\n"
