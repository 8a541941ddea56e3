import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kcorr.cli import main
from kcorr.errors import (InvalidArity, InvalidObject, KcorrError, ParseError,
                          ResolveError, UnknownVariable)
from kcorr.exactalg import PrimeField, QQ
from kcorr.laws import law_pool, serialize_case
from kcorr.randomgen import (GenBounds, derive_seed, random_aut_object,
                             random_morphism_from, random_object, sample_map)
from kcorr.session import Session, parse_session, print_session
from kcorr.varieties import make_variety, point

TWOPTS_FIXTURE = """
format 1
field Q
# worked example: rank-one summand of the trivial rank-two bundle
variety pt { vars = []; ideal = [] }
variety TwoPts { vars = [y]; ideal = [y^2 - y] }
map incl1 : pt -> TwoPts { y = 1 }
corr PHI : pt -> TwoPts { n = 2; unit = [[1, 0], [0, 1]]; gen y = [[1, 0], [0, 0]] }
morphism E11 : PHI -> PHI { matrix = [[1, 0], [0, 0]] }
morphism TH : PHI -> PHI { matrix = [[2, 0], [0, 3]] }
morphism THI : PHI -> PHI { matrix = [[1/2, 0], [0, 1/3]] }
aut ROT { base = PHI; theta = [TH]; theta_inv = [THI] }
validate
compose PHI PHI
k0 PHI
"""


def test_empty_session():
    s = parse_session("")
    assert s == Session()
    assert s.field == QQ
    assert not s.decls and not s.commands


def test_twopts_fixture_loads_and_validates():
    s = parse_session(TWOPTS_FIXTURE)
    assert [k for k, _ in s.decls] == ["variety", "variety", "map", "corr",
                                       "morphism", "morphism", "morphism", "aut"]
    assert s.corrs["PHI"].n == 2
    assert s.auts["ROT"].arity == 1
    assert s.commands == ["validate", "compose PHI PHI", "k0 PHI"]


def test_round_trip_is_exact():
    s = parse_session(TWOPTS_FIXTURE)
    printed = print_session(s)
    assert parse_session(printed) == s
    assert print_session(parse_session(printed)) == printed


ROOT = Path(__file__).resolve().parent.parent
# the bad inputs that fail to parse; the CLI job checks where each fails
UNPARSABLE = {"deep_parentheses.kc", "huge_coefficient.kc", "huge_power.kc",
              "not_utf8.kc", "text_after_block.kc", "unknown_variable_in_block.kc"}
SESSION_FILES = [ROOT / "examples" / "tour.kc"] + [
    path for path in sorted((ROOT / "tests" / "data").glob("*.kc"))
    if path.name not in UNPARSABLE]


@pytest.mark.parametrize("path", SESSION_FILES, ids=lambda path: path.name)
def test_session_files_round_trip(path):
    s = parse_session(path.read_text(encoding="utf-8-sig"))
    printed = print_session(s)
    assert parse_session(printed) == s
    assert print_session(parse_session(printed)) == printed


def test_prime_field_session():
    text = "field Fp 5\nvariety V { vars = [x]; ideal = [] }\n"
    s = parse_session(text)
    assert s.field == PrimeField(5)
    assert parse_session(print_session(s)) == s


def test_non_idempotent_unit_names_the_law():
    text = ("field Q\nvariety pt { vars = []; ideal = [] }\n"
            "corr BAD : pt -> pt { n = 1; unit = [[2]] }\n")
    with pytest.raises(InvalidObject, match="idempotent"):
        parse_session(text)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_session("field Q\nvariety V { vars = [x]; ideal = [x + ] }\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="line 1"):
        parse_session("format 9\n")


def test_dangling_references():
    with pytest.raises(ResolveError):
        parse_session("field Q\nmap f : A -> B { }\n")
    with pytest.raises(ResolveError):
        parse_session("field Q\nvariety pt { vars = []; ideal = [] }\n"
                      "corr C : pt -> pt { n = 1; unit = [[1]] }\n"
                      "aut A { base = D; theta = []; theta_inv = [] }\n")
    # an error with no column names its line
    with pytest.raises(ResolveError) as err:
        parse_session("format 1\nfield Q\nvariety V { vars = [x]; ideal = [] }\n"
                      "map f : V -> W { x = x }\n")
    assert str(err.value) == "line 4: map 'f' references undeclared variety"


def test_duplicate_names_rejected():
    text = ("field Q\nvariety V { vars = []; ideal = [] }\n"
            "variety V { vars = []; ideal = [] }\n")
    with pytest.raises(ParseError, match="already declared"):
        parse_session(text)


def test_multiline_blocks_and_comments():
    text = """field Q
variety V {
  vars = [x];         # one coordinate
  ideal = []
}   # a comment may follow a closing brace
corr C : V -> V {
  n = 1;
  unit = [[1]];
  gen x = [[x^2]]
}
"""
    s = parse_session(text)
    assert s.corrs["C"].gen_images[0][0, 0] == s.varieties["V"].qelem("x^2")


def test_zero_object_blocks():
    text = ("field Q\nvariety pt { vars = []; ideal = [] }\n"
            "corr Z : pt -> pt { n = 0; unit = [] }\n")
    s = parse_session(text)
    assert s.corrs["Z"].n == 0
    assert parse_session(print_session(s)) == s


def test_field_must_precede_declarations():
    with pytest.raises(ParseError, match="precede"):
        parse_session("variety V { vars = []; ideal = [] }\nfield Q\n")


SMALL = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.1)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_map_and_aut_inputs_round_trip_through_serialize_case(field):
    pt, line, twopts, gm = law_pool(field)
    rng = random.Random(derive_seed("serialize", field.name))
    f = sample_map(line, gm, rng, 1)
    aut = random_aut_object(gm, twopts, 2, rng=rng, bounds=SMALL)
    s = parse_session(serialize_case({"f": f, "aut": aut}, field))
    assert s.maps["f"] == f
    assert s.auts["aut_aut"] == aut
    assert s.refs["aut_aut"] == ("aut_base", ("aut_t1", "aut_t2"),
                                      ("aut_s1", "aut_s2"))
    assert [k for k, _ in s.decls] == ["variety", "variety", "map", "variety",
                                       "corr", "morphism", "morphism",
                                       "morphism", "morphism", "aut"]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("seed", range(3))
def test_declared_random_values_round_trip(field, seed):
    pool = law_pool(field)
    rng = random.Random(derive_seed("declare", field.name, seed))
    s = Session(field=field)
    for i in range(4):
        x, y = rng.choice(pool), rng.choice(pool)
        obj = random_object(x, y, rng=rng, bounds=SMALL)
        s.declare(f"C{i}", obj)
        s.declare(f"M{i}", random_morphism_from(obj, rng, SMALL))
        s.declare(f"F{i}", sample_map(x, y, rng, 1))
        s.declare(f"R{i}", random_aut_object(x, rng.choice(pool[:3]), 1, rng=rng,
                                             bounds=SMALL))
    assert set(s.varieties) <= {v.name for v in pool}
    printed = print_session(s)
    heads = [line.split(" {")[0] for line in printed.splitlines()
             if line.startswith("morphism M")]
    assert heads == [f"morphism M{i} : M{i}_src -> M{i}_dst" for i in range(4)]
    assert parse_session(printed) == s
    assert print_session(parse_session(printed)) == printed


def test_print_keeps_the_names_a_declaration_refers_to(capsys):
    # A and B hold equal data; E, T and S are declared on B, F from A to B
    path = Path(__file__).resolve().parent / "data" / "equal_corrs.kc"
    assert main(["print", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "morphism E : B -> B {" in printed
    assert printed == "".join(line + "\n" for line in path.read_text().splitlines()
                              if not line.startswith("#"))


def test_declare_rejects_two_varieties_with_one_name():
    s = Session()
    s.declare("A1", make_variety("A1", ["x"], [], QQ))
    with pytest.raises(ResolveError, match="two different varieties"):
        s.declare("f", sample_map(point(QQ), make_variety("A1", ["y"], [], QQ),
                                  random.Random(0)))


def test_register_rejects_a_used_name():
    s = Session()
    pt = point(QQ)
    obj = random_object(pt, pt, rng=random.Random(0), bounds=SMALL)
    s.declare("C", obj)
    s.declare("pt", pt)  # the same variety again is not a new declaration
    for name, value in (("C", obj), ("C", sample_map(pt, pt, random.Random(1))),
                        ("V", make_variety("C", [], [], QQ))):
        with pytest.raises(ResolveError, match="already declared"):
            s.declare(name, value)
    assert s.decls == [("variety", "pt"), ("corr", "C")]
    assert parse_session(print_session(s)) == s


def test_declare_rejects_what_is_not_a_value():
    with pytest.raises(TypeError, match="^cannot declare a int$"):
        Session().declare("x", 3)


@pytest.mark.parametrize("decl, column, message", [
    # the bad entry's operator, counted along the whole source line
    ("corr C : V -> V { n = 1; unit = [[1]]; gen x = [[x + ]] }", 52,
     "unexpected end"),
    ("corr C : V -> V { n = 1; unit = [[1]; gen x = [[x]] }", 33, "unbalanced"),
    ("corr C : V -> V { n = 1; unit = [[1]]]; gen x = [[x]] }", 38, "unbalanced"),
    ("corr C : V -> V { n = 2; unit = [[1, 0], [0]]; gen x = [[x]] }", 42,
     "ragged"),
    ("corr C : V -> V { n = x; unit = [[1]]; gen x = [[x]] }", 23, "natural"),
    # digits that int() rejects are not numbers either
    ("corr C : V -> V { n = \u00b2; unit = [[1]]; gen x = [[x]] }", 23, "natural"),
    ("corr C : V -> V { n = 1; unit = [[\u00b2]]; gen x = [[x]] }", 35,
     "unexpected character"),
    ("  map m : V -> V { x = x^^2 }", 26, "exponent"),
    ("variety W { vars = [w]; ideal = [w -* 1] }", 37, "unexpected token"),
    # an arrow before the colon is a malformed header, not a crash
    ("map m -> V : V { x = x }", 1, "expected NAME : SRC -> DST"),
    # only blanks may follow the closing brace; a comment is gone by then
    ("variety W { vars = [w]; ideal = [] }   ; # c", 40, "unexpected ';'"),
])
def test_errors_name_their_column_in_the_source_line(decl, column, message):
    text = f"field Q\nvariety V {{ vars = [x]; ideal = [] }}\n{decl}\n"
    with pytest.raises(ParseError, match=message) as err:
        parse_session(text)
    assert (err.value.line, err.value.column) == (3, column)


@pytest.mark.parametrize("block, line, column, message", [
    # an error on the block's first line keeps that line's column
    ("corr C : V -> V { n = 1; unit = [[1 + ]];\n  gen x = [[x]] }", 3, 37,
     "unexpected end"),
    # an error on a continuation line names that line and its own column
    ("corr C : V -> V {\n  n = 1; unit = [[1]]; gen x = [[x + ]] }", 4, 36,
     "unexpected end"),
    ("corr C : V -> V {\n  n = 1;\n  unit = [[1]]]\n  gen x = [[x]]\n}", 5, 15,
     "unbalanced"),
    ("variety W {\n  vars = [w];   # one coordinate\n  ideal = [w -* 1]\n}", 5, 15,
     "unexpected token"),
    ("variety W {\n  vars = [w]\n}  ideal = [w] # two", 5, 4, "unexpected 'ideal'"),
])
def test_multiline_block_errors_name_their_source_line(block, line, column, message):
    text = f"field Q\nvariety V {{ vars = [x]; ideal = [] }}\n{block}\n"
    with pytest.raises(ParseError, match=message) as err:
        parse_session(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"line {line}, col {column}: ")


def test_variable_the_tokenizer_cannot_read_is_rejected_where_declared(tmp_path, capsys):
    """x² is alphanumeric but no polynomial literal could ever mention it."""
    text = ("field Q\nvariety V { vars = [x\u00b2]; ideal = [] }\n"
            "corr C : V -> V { n = 1; unit = [[1]]; gen x\u00b2 = [[x\u00b2]] }\n")
    with pytest.raises(InvalidArity) as err:
        parse_session(text)
    assert err.value.line == 2
    path = tmp_path / "superscript.kc"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: variable 'x\u00b2' ")


def test_error_position_format():
    assert str(KcorrError("bad", 3)) == "line 3: bad"
    assert str(ParseError("bad", 3, 7)) == "line 3, col 7: bad"
    assert str(ParseError("bad", column=7)) == "bad"  # no line, no position
    err = ResolveError("bad", 3)
    assert (err.detail, err.line, err.column) == ("bad", 3, None)


def test_unknown_variable_in_a_block_names_its_source_position():
    text = (Path(__file__).resolve().parent / "data"
            / "unknown_variable_in_block.kc").read_text(encoding="utf-8")
    with pytest.raises(UnknownVariable) as err:
        parse_session(text)
    assert str(err.value) == "line 5, col 34: unknown variable 'z'; ambient has ('x',)"


READER_PREFIX = """format 1
field Q
variety pt { vars = []; ideal = [] }
variety A1 { vars = [x]; ideal = [] }
corr G : A1 -> A1 { n = 1; unit = [[1]]; gen x = [[x]] }
morphism TH : G -> G { matrix = [[2]] }
morphism THI : G -> G { matrix = [[1/2]] }
"""


@pytest.mark.parametrize("statement, error, message", [
    ("variety B { vars = x; ideal = [] }", ParseError, "expected a [...] list"),
    ("variety B { vars [x] }", ParseError, "expected key = value"),
    ("variety B { vars = [x]; order = [x] }", ParseError,
     "variety block takes vars and ideal"),
    ("map f : A1 -> A1 { }", ParseError, "map 'f' missing image for 'x'"),
    ("map f : A1 -> A1 { x = x; y = x }", ParseError,
     "map 'f' assigns unknown variables ['y']"),
    ("corr C : pt -> pt { n = 1; unit = [[1]]; size = 2 }", ParseError,
     "unknown corr field 'size'"),
    ("corr C : pt -> pt { n = 1 }", ParseError, "corr 'C' needs n and unit"),
    ("corr C : pt -> A1 { n = 1; unit = [[1]] }", ParseError, "corr 'C' missing gen 'x'"),
    ("corr C : pt -> pt { n = 1; unit = [[1]]; gen z = [[1]] }", ParseError,
     "corr 'C' has gens for unknown variables ['z']"),
    ("morphism M : G -> G { matrix = [[1]]; scale = 1 }", ParseError,
     "morphism block takes exactly matrix"),
    ("aut B { base = G; theta = [TH] }", ParseError,
     "aut block takes base, theta and theta_inv"),
    ("aut B { base = G; theta = [TH, TH]; theta_inv = [THI] }", ParseError,
     "theta and theta_inv have different lengths"),
    ("aut B { base = G; theta = [TH]; theta_inv = [NOPE] }", ResolveError,
     "aut 'B' references undeclared morphism"),
    ("variety B { vars = [x, x]; ideal = [] }", InvalidArity,
     "duplicate variables in ('x', 'x')"),
    ("variety B { vars = [x]; ideal = [] } this is ignored", ParseError,
     "unexpected 'this' after the closing brace"),
    ("variety B", ParseError, "variety declaration needs a {...} block"),
    ("frobnicate B", ParseError, "unknown statement 'frobnicate'"),
    ("variety B {\n  vars = [x];\n", ParseError, "unterminated block"),
])
def test_session_reader_errors_exit_2_naming_their_line(statement, error, message,
                                                         tmp_path, capsys):
    text = READER_PREFIX + statement
    assert READER_PREFIX.count("\n") == 7  # so the statement starts on line 8
    with pytest.raises(error) as err:
        parse_session(text)
    assert err.value.detail.startswith(message) and err.value.line == 8
    path = tmp_path / "bad.kc"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: line 8") and f": {message}" in stderr


TOUR = (Path(__file__).resolve().parents[1] / "examples" / "tour.kc").read_text(
    encoding="utf-8")
# the characters the session grammar gives a meaning to, plus a few it does not
_SESSION_CHARS = "0123456789xyzt_ .^*/+-()[]{},;=:>#\n\tFpQ%é"


@st.composite
def _mutated_tour(draw):
    """The tour with up to three spans of at most eight characters replaced."""
    text = TOUR
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(_SESSION_CHARS, max_size=8)) + text[j:]
    return text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=200), _mutated_tour()))
def test_session_reader_raises_only_input_errors(text):
    """Whatever the text, the reader either parses it or raises a KcorrError."""
    try:
        parse_session(text)
    except KcorrError:
        pass
