import time
from pathlib import Path

import pytest

from kcorr import cli, session
from kcorr.cli import main

SESSION = """format 1
field Q
variety pt { vars = []; ideal = [] }
variety A1 { vars = [x]; ideal = [] }
variety Gm1 { vars = [t1, s1]; ideal = [t1*s1 - 1] }
map sq : A1 -> A1 { x = x^2 }
map ev0 : pt -> A1 { x = 0 }
corr G : A1 -> A1 { n = 1; unit = [[1]]; gen x = [[x^2 + 1]] }
corr P1 : pt -> pt { n = 2; unit = [[1, 0], [0, 0]] }
corr P2 : pt -> pt { n = 2; unit = [[1/2, 1/2], [1/2, 1/2]] }
corr P3 : pt -> pt { n = 1; unit = [[1]] }
corr TOR : pt -> Gm1 { n = 1; unit = [[1]]; gen t1 = [[3]]; gen s1 = [[1/3]] }
morphism IDG : G -> G { matrix = [[1]] }
morphism TH : G -> G { matrix = [[2]] }
morphism THI : G -> G { matrix = [[1/2]] }
aut A { base = G; theta = [TH]; theta_inv = [THI] }
"""


@pytest.fixture
def session_file(tmp_path):
    path = tmp_path / "demo.kc"
    path.write_text(SESSION, encoding="utf-8")
    return str(path)


def test_validate(session_file, capsys):
    assert main(["validate", session_file]) == 0
    out = capsys.readouterr().out
    assert "ok corr G" in out


def test_print_round_trip(session_file, capsys):
    assert main(["print", session_file]) == 0
    printed = capsys.readouterr().out
    from kcorr.session import parse_session
    assert parse_session(printed) == parse_session(SESSION)


def test_compose(session_file, capsys):
    assert main(["compose", session_file, "G", "G"]) == 0
    out = capsys.readouterr().out
    assert "corr G_o_G" in out
    assert "x^4 + 2*x^2 + 2" in out  # (x^2+1)^2 + 1


def test_pullback_pushforward_box(session_file, capsys):
    assert main(["pullback", session_file, "ev0", "G"]) == 0
    out = capsys.readouterr().out
    assert "gen x = [[1]]" in out
    assert main(["pushforward", session_file, "sq", "G"]) == 0
    assert main(["box", session_file, "sq", "G"]) == 0
    out = capsys.readouterr().out
    assert "A1_x_A1" in out


def test_rho_and_inverse(session_file, capsys):
    assert main(["rho", session_file, "TOR"]) == 0
    out = capsys.readouterr().out
    assert "matrix = [[3]]" in out and "matrix = [[1/3]]" in out
    assert main(["rho-inv", session_file, "A"]) == 0
    out = capsys.readouterr().out
    assert "A_torus" in out and "Gm1" in out


def test_k0_report(session_file, capsys):
    assert main(["k0", session_file, "P1", "P2", "P3"]) == 0
    out = capsys.readouterr().out
    assert "rank map: P1=1, P2=1, P3=1" in out
    assert "class {P1, P2, P3}" in out
    assert "brackets coincide" in out


def test_k0_report_beyond_three(tmp_path, capsys):
    path = tmp_path / "big.kc"
    path.write_text(
        "format 1\nfield Q\nvariety pt { vars = []; ideal = [] }\n"
        "corr P1 : pt -> pt { n = 4; unit = [[1, 0, 0, 0], [0, 1, 0, 0], "
        "[0, 0, 0, 0], [0, 0, 0, 0]] }\n"
        "corr P2 : pt -> pt { n = 4; unit = [[0, 0, 0, 0], [0, 1, 0, 0], "
        "[0, 0, 1/2, 1/2], [0, 0, 1/2, 1/2]] }\n", encoding="utf-8")
    assert main(["k0", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rank map: P1=2, P2=2" in out
    assert "class {P1, P2}" in out
    assert "brackets coincide" in out


def test_k0_report_without_certificate_search(capsys):
    """Over a non-point base no certificate is searched: A1 brackets by rank,
    and TwoPts, whose ideal is not asserted prime, gets no rank map."""
    path = Path(__file__).resolve().parent / "data" / "k0_unresolved.kc"
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == (
        "> k0\n"
        "k0 report over (A1, pt): 2 objects\n"
        "rank map: P=1, Q=1\n"
        "class {P}\n"
        "class {Q}\n"
        "unresolved (no certificate, no separating invariant): [P] vs [Q]\n"
        "k0 report over (TwoPts, pt): 2 objects\n"
        "rank map: skipped (base variety has relations; integrality not asserted)\n"
        "class {R}\n"
        "class {S}\n"
        "unresolved (no certificate, no separating invariant): [R] vs [S]\n")


def test_compare_bimodule(session_file, capsys):
    assert main(["compare-bimodule", session_file, "G", "G", "[[x]]"]) == 0
    out = capsys.readouterr().out
    assert "agree: True" in out


def test_bimodule_and_torus_session_matches_its_golden_output(capsys):
    """The session of ``rho``, ``rho-inv`` and ``compare-bimodule`` prints
    exactly its recorded output, on stdout only, and exits 0."""
    data = Path(__file__).resolve().parent / "data"
    assert main(["run", str(data / "bimodule_and_torus.kc")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (data / "bimodule_and_torus.out").read_text(encoding="utf-8")
    assert captured.err == ""


def test_run_executes_commands(tmp_path, capsys):
    path = tmp_path / "run.kc"
    path.write_text(SESSION + "validate\ncompose G G\n", encoding="utf-8")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "> compose G G" in out


def test_run_in_session_laws(tmp_path, capsys):
    path = tmp_path / "laws.kc"
    path.write_text(SESSION + "laws --cases 1 --seed 4 --field Q "
                    "--law pairing-units\n", encoding="utf-8")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS pairing-units" in out


def test_laws_subcommand(capsys):
    assert main(["laws", "--cases", "2", "--seed", "5", "--field", "Fp:5",
                 "--law", "box-graph", "--law", "pairing-units"]) == 0
    out = capsys.readouterr().out
    assert "PASS box-graph" in out


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.kc"
    bad.write_text("field Q\ncorr C : A -> B { n = 1; unit = [[1]] }\n",
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(tmp_path / "missing.kc")]) == 2
    ok = tmp_path / "ok.kc"
    ok.write_text(SESSION, encoding="utf-8")
    assert main(["compose", str(ok), "G", "NOPE"]) == 2
    # laws option errors end as input errors, in a session and on the command line
    bad_laws = tmp_path / "badlaws.kc"
    bad_laws.write_text(SESSION + "laws --cases x\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(bad_laws)]) == 2
    assert main(["laws", "--law", "no-such-family"]) == 2
    session_err, cli_err = capsys.readouterr().err.splitlines()
    assert session_err == "error: line 17: laws: argument --cases: invalid int value: 'x'"
    # argparse quotes the list of choices that follows differently across versions
    assert cli_err.startswith(
        "error: laws: argument --law: invalid choice: 'no-such-family' (choose from ")


def test_zero_denominator_in_prime_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "fp.kc"
    bad.write_text("format 1\nfield Fp 5\n"
                   "variety A1 { vars = [x]; ideal = [x - 1/5] }\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "denominator" in err


def test_command_errors_name_their_session_line(tmp_path, capsys, session_file):
    path = tmp_path / "badmatrix.kc"
    path.write_text(SESSION + "compare-bimodule G G [[x, 0]\n", encoding="utf-8")
    assert SESSION.count("\n") == 16  # so the command sits on line 17
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 17, col 22: unbalanced brackets\n"
    # on the command line there is no session line to name
    assert main(["compare-bimodule", session_file, "G", "G", "[[x, 0]"]) == 2
    assert capsys.readouterr().err == "error: unbalanced brackets\n"
    s = session.parse_session(path.read_text(encoding="utf-8"))
    assert s.command_lines == [(17, "compare-bimodule G G [[x, 0]")]
    assert session.parse_session(session.print_session(s)) == s
    # every command's error names its line, not only a bad matrix literal
    path = tmp_path / "undeclared.kc"
    path.write_text("format 1\nfield Q\nvariety pt { vars = []; ideal = [] }\n"
                    "compose C D\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: no corr named 'C' in the session\n")
    assert main(["compose", str(path), "C", "D"]) == 2
    assert capsys.readouterr().err == "error: no corr named 'C' in the session\n"


def test_indented_command_error_names_its_source_column(capsys):
    """The column of a command error counts along the source line, not along
    the command with its blanks collapsed."""
    path = Path(__file__).resolve().parent / "data" / "indented_compare_bimodule.kc"
    assert path.read_text(encoding="utf-8").splitlines()[16] == \
        "   compare-bimodule   G  G [[x, 0]"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 17, col 28: unbalanced brackets\n"
    s = session.parse_session(path.read_text(encoding="utf-8"))
    assert s.commands == ["compare-bimodule G G [[x, 0]"]
    assert session.print_session(s).endswith("\ncompare-bimodule G G [[x, 0]\n")


def test_unknown_variable_in_a_block_names_its_line(capsys):
    path = Path(__file__).resolve().parent / "data" / "unknown_variable_in_block.kc"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 5, col 34: unknown variable 'z'; ambient has ('x',)\n")


def test_deeply_nested_literal_is_an_input_error(capsys):
    path = Path(__file__).resolve().parent / "data" / "deep_parentheses.kc"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3, col 134: expression nested too deeply\n")


@pytest.mark.parametrize("name, error", [
    ("not_utf8.kc", "line 4: byte 0xe9 is not UTF-8 text"),
    ("text_after_block.kc", "line 3, col 38: unexpected 'this' after the closing brace"),
    ("repeated_key.kc", "line 3, col 38: repeated key 'vars'"),
])
def test_malformed_file_is_an_input_error(name, error, capsys):
    path = Path(__file__).resolve().parent / "data" / name
    for word in ("run", "print"):
        assert main([word, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("name, status, expected", [
    ("bom.kc", 0, None),
    ("not_utf8.kc", 2, ("", "error: line 4: byte 0xe9 is not UTF-8 text\n")),
], ids=["same-as-without", "bad-byte-line"])
def test_byte_order_mark_is_skipped(name, status, expected, tmp_path, capsys):
    data = (Path(__file__).resolve().parent / "data" / name).read_bytes()
    with_bom, without = tmp_path / "with.kc", tmp_path / "without.kc"
    with_bom.write_bytes(data if data.startswith(BOM) else BOM + data)
    without.write_bytes(data.removeprefix(BOM))
    for word in ("run", "print"):
        assert main([word, str(without)]) == status
        plain = capsys.readouterr()
        assert main([word, str(with_bom)]) == status
        assert capsys.readouterr() == plain
        assert expected is None or plain == expected


@pytest.mark.parametrize("ideal, column", [(None, 48),
                                            ("x^2000000 - 1, x^2 - 2", 38)])
def test_huge_power_is_an_input_error(ideal, column, tmp_path, capsys):
    path = Path(__file__).resolve().parent / "data" / "huge_power.kc"
    if ideal is not None:
        path = tmp_path / "huge.kc"
        path.write_text("field Q\nvariety V { vars = [x, y]; ideal = [%s] }\n"
                        % ideal, encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: line 2, col {column}: polynomial literal too large\n")


def test_huge_composite_is_an_input_error(capsys):
    path = Path(__file__).resolve().parent / "data" / "huge_composite.kc"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == (
        "> compose I I\n",
        "error: line 4: composite too large: n = 1024 gives 1,048,576 "
        "entries, more than 1,000,000\n")


_HUGE = "1" * 5000  # past the 4,300 digits CPython's int() reads by default


@pytest.mark.parametrize("text, error", [
    ("field Q\nvariety V { vars = [x]; ideal = [%s*x] }\n" % _HUGE,
     "line 2, col 34: polynomial literal too large"),
    ("field Q\nvariety V { vars = [x]; ideal = [x - 1/%s] }\n" % _HUGE,
     "line 2, col 40: polynomial literal too large"),
    ("format 1\nfield Fp %s\n" % _HUGE,
     "line 2: a 5000-digit modulus is too large; a prime field needs p < 2^64"),
    ("field Q\nvariety pt { vars = []; ideal = [] }\n"
     "corr P : pt -> pt { n = %s; unit = [[1]] }\n" % _HUGE,
     "line 3, col 25: n too large"),
], ids=["coefficient", "denominator", "field", "corr-n"])
def test_huge_integer_is_an_input_error(text, error, tmp_path, capsys):
    path = tmp_path / "huge.kc"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_huge_field_modulus_in_laws_is_an_input_error(capsys):
    assert main(["laws", "--field", "Fp:" + _HUGE]) == 2
    assert capsys.readouterr().err == (
        "error: a 5000-digit modulus is too large; a prime field needs p < 2^64\n")


def test_compare_bimodule_with_invalid_matrices(tmp_path, capsys):
    """A matrix that does not intertwine, then one of the wrong shape: the
    one morphism predicate rejects the first by test and the second by
    raising, and both verdict lines say invalid."""
    path = tmp_path / "invalid.kc"
    path.write_text(SESSION + "corr H : A1 -> A1 { n = 2; unit = [[1, 0], [0, 1]]; "
                    "gen x = [[x, 0], [0, 0]] }\n"
                    "compare-bimodule H H [[0, 1], [0, 0]]\n"
                    "compare-bimodule G G [[x, 0]]\n", encoding="utf-8")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    verdicts = ["correspondence-hom: invalid", "bimodule-hom:       invalid",
                "agree: True"]
    assert out == (["> compare-bimodule H H [[0, 1], [0, 0]]"] + verdicts
                   + ["> compare-bimodule G G [[x, 0]]"] + verdicts)


def test_command_without_session_file_exits_2(capsys):
    assert main(["compose"]) == 2
    assert capsys.readouterr().err == "error: command compose needs a SESSION file\n"


def test_printed_results_reparse(session_file, capsys):
    """compose, pullback and rho print sessions that parse back."""
    for argv in (["compose", session_file, "G", "G"],
                 ["pullback", session_file, "ev0", "G"],
                 ["rho", session_file, "TOR"]):
        assert main(argv) == 0
        printed = session.parse_session("field Q\n" + capsys.readouterr().out)
        assert printed.decls
    assert printed.auts["TOR_aut"].arity == 1


def test_result_name_clash_is_an_input_error(tmp_path, capsys):
    """rho T declares T_base; a session variety of that name cannot be reused."""
    path = tmp_path / "clash.kc"
    path.write_text("format 1\nfield Q\n"
                    "variety T_base { vars = []; ideal = [] }\n"
                    "variety Gm1 { vars = [t1, s1]; ideal = [t1*s1 - 1] }\n"
                    "corr T : T_base -> Gm1 { n = 1; unit = [[1]]; "
                    "gen t1 = [[3]]; gen s1 = [[1/3]] }\n", encoding="utf-8")
    assert main(["rho", str(path), "T"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: name 'T_base' is already declared\n"


def test_tour_example_runs_and_is_the_readme_example(capsys):
    root = Path(__file__).resolve().parents[1]
    tour = root / "examples" / "tour.kc"
    assert main(["run", str(tour)]) == 0
    assert "corr PSI_o_PHI : pt -> pt" in capsys.readouterr().out
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert "```\n" + tour.read_text(encoding="utf-8") + "```" in readme


def test_debug_validate_flag(session_file):
    assert main(["--debug-validate", "compose", session_file, "G", "G"]) == 0


def test_command_table_matches_session_words():
    assert set(cli.SESSION_COMMANDS) == session.COMMAND_WORDS


def _wrong_arity(word):
    if word in ("run", "print"):
        return ["extra"]
    _, lo, hi = cli.SESSION_COMMANDS[word]
    return ["G"] * (lo - 1 if lo else hi + 1)


# every word with a bounded argument count; k0 and laws take any number
@pytest.mark.parametrize("word", ["run", "print"] + [
    w for w, (_, lo, hi) in cli.SESSION_COMMANDS.items() if lo or hi is not None])
def test_wrong_argument_count_exits_2(word, session_file, capsys):
    assert main([word, session_file] + _wrong_arity(word)) == 2
    assert f"error: command {word} takes" in capsys.readouterr().err
