"""Command-line interface: session execution, single operations, law runs.

Exit codes: 0 success, 1 law failure, 2 input error.  An input error prints
as ``error: message``; one that a session line causes names that line first,
``error: line L[, col C]: message``.  ``parse_session`` places the errors of
declarations and ``run_session`` those of commands; a command given on the
command line has no line to name.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bimod, config, functors, k0 as k0mod, pairing
from .errors import KcorrError, ParseError, ResolveError
from .exactalg import parse_field
from .laws import LAW_NAMES, law_suite
from .session import (Session, format_decls, parse_session, print_session,
                      _block_position, _parse_matrix)

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _load_session(path: str) -> Session:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start indexes exc.object, the data after any byte-order mark;
        # the sentinel stands for the undecodable byte, so its line counts too
        bad = exc.object
        line = len((bad[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte 0x{bad[exc.start]:02x} is not UTF-8 text", line) from None
    return parse_session(text)


def _get(session: Session, name: str, kind: str):
    table = getattr(session, kind)
    if name not in table:
        raise ResolveError(f"no {kind[:-1]} named {name!r} in the session")
    return table[name]


def _print_declared(out, name, value):
    """Print ``value`` and what it refers to as the declarations of a session."""
    result = Session()
    result.declare(name, value)
    for line in format_decls(result):
        out(line)


def cmd_validate(session: Session, args, out) -> int:
    for kind, name in session.decls:
        out(f"ok {kind} {name}")
    out(f"validated {len(session.decls)} declarations")
    return EXIT_OK


def _derived(kinds, build, name):
    """The command row that looks up one operand of each of ``kinds``, calls
    ``build`` on them and prints the result under ``name`` formatted with
    the arguments."""
    def handler(session: Session, args, out) -> int:
        operands = [_get(session, arg, kind) for arg, kind in zip(args, kinds)]
        _print_declared(out, name.format(*args), build(*operands))
        return EXIT_OK
    return handler, len(kinds), len(kinds)


def cmd_compare_bimodule(session: Session, args, out) -> int:
    first = _get(session, args[0], "corrs")
    second = _get(session, args[1], "corrs")
    literal = " ".join(args[2:])
    literal_col = len(" ".join(["compare-bimodule", *args[:2]])) + 1
    mat = _parse_matrix((literal, literal_col), first.X)
    # a correspondence is its own bimodule presentation, so one predicate
    # decides both lines; the three-line format is kept
    try:
        valid = bimod.bimodule_hom_valid(first, second, mat)
    except KcorrError:
        valid = False
    verdict = "valid" if valid else "invalid"
    out(f"correspondence-hom: {verdict}")
    out(f"bimodule-hom:       {verdict}")
    out("agree: True")
    return EXIT_OK


def cmd_k0(session: Session, args, out) -> int:
    groups: dict = {}
    for name in args or list(session.corrs):
        obj = _get(session, name, "corrs")
        groups.setdefault((obj.X, obj.Y), []).append((name, obj))
    for (x, y), members in groups.items():
        out(f"k0 report over ({x.name}, {y.name}): {len(members)} objects")
        ledger, ranks, unresolved = k0mod.bracket(obj for _, obj in members)
        name_of = {ledger.id_of(obj): name for name, obj in members}
        if ranks is None:
            out("rank map: skipped (base variety has relations; integrality "
                "not asserted)")
        else:
            out("rank map: " + ", ".join(f"{name_of[i]}={r}" for i, r in ranks.items()))
        for cls in ledger.classes():
            out("class {" + ", ".join(name_of[i] for i in cls) + "}")
        if unresolved:
            out("unresolved (no certificate, no separating invariant): "
                + "; ".join(f"[{name_of[i]}] vs [{name_of[j]}]" for i, j in unresolved))
        else:
            out("brackets coincide: partition is exact")
    return EXIT_OK


class _LawsParser(argparse.ArgumentParser):
    """Option errors become input errors instead of leaving the process."""

    def error(self, message):
        raise ResolveError(f"laws: {message}")


LAWS_PARSER = _LawsParser(prog="laws", add_help=False)
LAWS_PARSER.add_argument("--seed", type=int, default=42)
LAWS_PARSER.add_argument("--cases", type=int, default=200)
LAWS_PARSER.add_argument("--field", default=None)
LAWS_PARSER.add_argument("--format", dest="fmt", default="text",
                         choices=("text", "json-lines"))
LAWS_PARSER.add_argument("--law", action="append", choices=LAW_NAMES)


def cmd_laws(session, args, out) -> int:
    opts = LAWS_PARSER.parse_args(args)
    fields = (parse_field(opts.field),) if opts.field else None
    report = law_suite(opts.seed, opts.cases, fields=fields, laws=opts.law)
    out(report.to_text() if opts.fmt == "text" else report.to_json_lines())
    return report.exit_code


# word -> (handler, least and most arguments, None for no most); a derived
# value's library call is looked up when the command runs, not bound here
SESSION_COMMANDS = {
    "validate": (cmd_validate, 0, 0),
    "compose": _derived(("corrs", "corrs"),
                        lambda a, b: pairing.compose_objects(a, b), "{1}_o_{0}"),
    "pullback": _derived(("maps", "corrs"),
                         lambda f, o: functors.pullback_obj(f, o), "{0}_pull_{1}"),
    "pushforward": _derived(("maps", "corrs"),
                            lambda g, o: functors.pushforward_obj(g, o), "{0}_push_{1}"),
    "box": _derived(("maps", "corrs"),
                    lambda f, o: functors.box_product(f, o), "{0}_box_{1}"),
    "rho": _derived(("corrs",), lambda o: functors.to_automorphism_object(o), "{0}"),
    "rho-inv": _derived(("auts",), lambda a: functors.to_torus_object(a), "{0}_torus"),
    "compare-bimodule": (cmd_compare_bimodule, 3, None),
    "k0": (cmd_k0, 0, None),
    "laws": (cmd_laws, 0, None),
}


def execute_command(session: Session | None, word: str, args, out) -> int:
    """Run one command, from a session or from the command line.

    ``word`` is a key of ``SESSION_COMMANDS``: argparse's choices and
    ``session.COMMAND_WORDS`` admit no other word."""
    handler, min_args, max_args = SESSION_COMMANDS[word]
    if len(args) < min_args or (max_args is not None and len(args) > max_args):
        raise ResolveError(f"command {word} takes "
                           f"{min_args}{'+' if max_args is None else ''} arguments")
    return handler(session, args, out)


def _source_column(source: str, column: int) -> int:
    """The column in ``source`` of ``column`` in the command as normalised,
    its blank-separated tokens joined by single blanks."""
    tokens = list(re.finditer(r"\S+", source))
    k, offset = _block_position([t.group() for t in tokens], 0, column)
    return tokens[k].start() + offset


def run_session(session: Session, out) -> int:
    """Run a session's commands; an error names the line of its command and
    the column in that line's source text."""
    code = EXIT_OK
    for command, (line, source) in zip(session.commands, session.command_lines):
        out(f"> {command}")
        word, *args = command.split()
        try:
            code = max(code, execute_command(session, word, args, out))
        except KcorrError as exc:
            column = None if exc.column is None else _source_column(source, exc.column)
            raise type(exc)(exc.detail, line, column) from exc
    return code


USAGE = """commands:
  run SESSION                   execute the command list of a session
  print SESSION                 canonical reprint
  validate SESSION
  compose SESSION PHI1 PHI2     likewise pullback/pushforward/box SESSION MAP PHI
  rho SESSION PHI | rho-inv SESSION AUT
  k0 SESSION [NAMES...]
  compare-bimodule SESSION PHI1 PHI2 MATRIX
  laws [--seed N] [--cases N] [--field Q|Fp:P] [--format text|json-lines]
       [--law FAMILY]...

exit codes: 0 success, 1 law failure, 2 input error (a wrong argument count
included)"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kcorr",
        description="Exact computer algebra for matrix-correspondence "
                    "categories over affine varieties.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=USAGE)
    parser.add_argument("--debug-validate", action="store_true",
                        help="re-validate every derived value")
    parser.add_argument("command", choices=("run", "print", *SESSION_COMMANDS),
                        metavar="COMMAND")
    parser.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                        help="a SESSION file, then the command's arguments "
                             "(laws takes options only)")
    opts = parser.parse_args(argv)
    word, args = opts.command, opts.args
    out = print
    with config.debug_validation(opts.debug_validate):
        try:
            if word == "laws":
                return execute_command(None, word, args, out)
            if not args:
                raise ResolveError(f"command {word} needs a SESSION file")
            if word in ("run", "print") and len(args) > 1:
                raise ResolveError(f"command {word} takes 0 arguments")
            session = _load_session(args[0])
            if word == "run":
                return run_session(session, out)
            if word == "print":
                sys.stdout.write(print_session(session))
                return EXIT_OK
            return execute_command(session, word, args[1:], out)
        except (OSError, KcorrError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
