"""The line-oriented session format: parsing, resolution and printing.

A session declares a field, varieties, variety maps, correspondences,
morphisms and automorphism tuples, then lists commands.  Declarations are
validated in file order, so every reference must point backwards.  Printing
is canonical (normal-form entries, fixed layout) and ``parse(print(s))``
reproduces the session exactly.  A morphism or aut declaration keeps the
names it refers to (``Session.refs``), and printing writes those names back,
never the name of an earlier equal value.  ``Session.declare`` adds values
built in code, so CLI results and law-failure inputs print as sessions too.

The reader is the only code here that knows source lines.  Text helpers and
declaration handlers raise errors with a column at most, counted along the
statement's lines joined by blanks; ``parse_session`` re-raises every
``KcorrError`` as the same type with its source line and column, so the
message reads ``line L, col C: message`` (``line L: message`` without one).
"""

from __future__ import annotations

from .corrcat import CorrMorphism, CorrObject, make_corr_morphism, make_correspondence
from .errors import KcorrError, ParseError, ResolveError
from .exactalg import Field, Matrix, QElem, QQ, parse_field, parse_poly
from .functors import AutObject, make_aut_object
from .values import Value
from .varieties import AffVariety, VarMorphism, make_morphism, make_variety

FORMAT_VERSION = 1

COMMAND_WORDS = frozenset({
    "validate", "compose", "pullback", "pushforward", "box", "rho",
    "rho-inv", "k0", "compare-bimodule", "laws",
})


class Session(Value):
    """A parsed or assembled session: declaration tables and commands.

    ``refs`` holds the names a declaration refers to: (src, dst) or (base,
    thetas, inverses).  ``decls`` lists (kind, name) in file order, and
    ``command_lines`` the (line number, source text) of each command, for
    error messages; it is not part of equality.
    """

    def __init__(self, field: Field = QQ, varieties: dict | None = None,
                 maps: dict | None = None, corrs: dict | None = None,
                 morphisms: dict | None = None, auts: dict | None = None,
                 refs: dict | None = None, decls: list | None = None,
                 commands: list | None = None, command_lines: list | None = None):
        self.field = field
        self.varieties = {} if varieties is None else varieties
        self.maps = {} if maps is None else maps
        self.corrs = {} if corrs is None else corrs
        self.morphisms = {} if morphisms is None else morphisms
        self.auts = {} if auts is None else auts
        self.refs = {} if refs is None else refs
        self.decls = [] if decls is None else decls
        self.commands = [] if commands is None else commands
        self.command_lines = [] if command_lines is None else command_lines

    def __eq__(self, other):
        # every field but the last, command_lines
        if other.__class__ is self.__class__:
            return self._key(self)[:-1] == self._key(other)[:-1]
        return NotImplemented

    def is_declared(self, name: str) -> bool:
        return any(name in getattr(self, table) for table in _TABLES.values())

    def register(self, kind: str, name: str, value, refs=()):
        """Store a declared value in its table and record it in file order,
        with the names it refers to, if any."""
        if self.is_declared(name):
            raise ResolveError(f"name {name!r} is already declared")
        getattr(self, _TABLES[kind])[name] = value
        self.decls.append((kind, name))
        if refs:
            self.refs[name] = refs

    def declare(self, name: str, value):
        """Declare a built value under ``name``, after what it refers to.

        A variety is declared under its own name, once.  A morphism ``m``
        declares its endpoints as ``m_src`` and ``m_dst``.  An ``AutObject``
        under prefix ``P`` declares ``P_base``, then ``P_t{i}`` and ``P_s{i}``
        (each from ``P_base`` to ``P_base``), then the aut ``P_aut``.  Each
        declaration refers to these names, never to an earlier equal value.
        """
        if isinstance(value, AffVariety):
            known = self.varieties.get(value.name)
            if known is None:
                self.register("variety", value.name, value)
            elif known != value:
                raise ResolveError(f"two different varieties named {value.name!r}")
        elif isinstance(value, VarMorphism):
            self.declare(value.source.name, value.source)
            self.declare(value.target.name, value.target)
            self.register("map", name, value)
        elif isinstance(value, CorrObject):
            self.declare(value.X.name, value.X)
            self.declare(value.Y.name, value.Y)
            self.register("corr", name, value)
        elif isinstance(value, CorrMorphism):
            self.declare(f"{name}_src", value.src)
            self.declare(f"{name}_dst", value.dst)
            self.register("morphism", name, value, (f"{name}_src", f"{name}_dst"))
        elif isinstance(value, AutObject):
            base = f"{name}_base"
            self.declare(base, value.base)
            thetas, invs = [], []
            for i, (fwd, bwd) in enumerate(value.thetas, start=1):
                thetas.append(f"{name}_t{i}")
                invs.append(f"{name}_s{i}")
                self.register("morphism", thetas[-1], fwd, (base, base))
                self.register("morphism", invs[-1], bwd, (base, base))
            self.register("aut", f"{name}_aut", value,
                          (base, tuple(thetas), tuple(invs)))
        else:
            raise TypeError(f"cannot declare a {type(value).__name__}")


_TABLES = {"variety": "varieties", "map": "maps", "corr": "corrs",
           "morphism": "morphisms", "aut": "auts"}


# -- low-level text helpers -------------------------------------------------


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _stripped(text: str, col: int):
    """A span: ``text`` stripped of blanks, and the offset in its source line."""
    return text.strip(), col + len(text) - len(text.lstrip())


def _split_top_level(body: str, sep: str, col: int):
    """Split ``body``, at offset ``col``, on ``sep`` outside brackets and
    parentheses, into spans; errors name the bracket at fault."""
    parts = []
    opened = []
    start = 0
    for k, ch in enumerate(body):
        if ch in "[(":
            opened.append(k)
        elif ch in "])":
            if not opened:
                raise ParseError("unbalanced brackets", column=col + k + 1)
            opened.pop()
        elif ch == sep and not opened:
            parts.append(_stripped(body[start:k], col + start))
            start = k + 1
    if opened:
        raise ParseError("unbalanced brackets", column=col + opened[-1] + 1)
    parts.append(_stripped(body[start:], col + start))
    return parts


def _parse_bracket_list(span):
    """The elements of the ``[...]`` list in a span, as spans."""
    text, col = _stripped(*span)
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a [...] list, got {text!r}", column=col + 1)
    _split_top_level(text, ",", col)  # the list's own brackets must match
    if not text[1:-1].strip():
        return []
    return _split_top_level(text[1:-1], ",", col + 1)


def _parse_matrix(span, variety: AffVariety) -> Matrix:
    row_spans = _parse_bracket_list(span)
    rows = [[QElem(variety.gb, parse_poly(e, variety.ambient, col_offset=e_col))
             for e, e_col in _parse_bracket_list(row)]
            for row in row_spans]
    ncols = len(rows[0]) if rows else 0
    for row, (_, row_col) in zip(rows, row_spans):
        if len(row) != ncols:
            raise ParseError("ragged matrix literal", column=row_col + 1)
    return Matrix(variety.gb, rows, len(rows), ncols)


def _parse_body(body: str, col: int):
    """(key, value span) pairs from a ``{...}`` block.  A key may appear once;
    keys are compared with their blanks collapsed, so ``gen  y`` repeats
    ``gen y``."""
    pairs = []
    seen = set()
    for chunk, chunk_col in _split_top_level(body, ";", col):
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"expected key = value, got {chunk!r}", column=chunk_col + 1)
        key, value = chunk.split("=", 1)
        words = " ".join(key.split())
        if words in seen:
            raise ParseError(f"repeated key {key.strip()!r}", column=chunk_col + 1)
        seen.add(words)
        pairs.append((key.strip(), _stripped(value, chunk_col + len(key) + 1)))
    return pairs


# -- declaration handling -----------------------------------------------------


def _expect_unique(session: Session, name: str):
    if session.is_declared(name):
        raise ParseError(f"name {name!r} is already declared", column=1)


def _resolve_arrow(session: Session, header: str, kind: str, ends: str):
    """Resolve a ``NAME : SRC -> DST`` header: NAME must be new, and SRC and
    DST name declared values of kind ``ends``; returns NAME, (SRC, DST) and
    the two values."""
    name, _, arrow = header.partition(":")
    if "->" not in arrow:
        raise ParseError("expected NAME : SRC -> DST", column=1)
    name = name.strip()
    _expect_unique(session, name)
    table = getattr(session, _TABLES[ends])
    end_names = tuple(end.strip() for end in arrow.split("->", 1))
    src, dst = map(table.get, end_names)
    if src is None or dst is None:
        raise ResolveError(f"{kind} {name!r} references undeclared {ends}")
    return name, end_names, src, dst


def _declare_variety(session, header, body, col):
    name = header.strip()
    _expect_unique(session, name)
    fields = dict(_parse_body(body, col))
    if set(fields) - {"vars", "ideal"}:
        raise ParseError(f"variety block takes vars and ideal, got {sorted(fields)}",
                         column=1)
    var_names = [v for v, _ in _parse_bracket_list(fields.get("vars", ("[]", 0)))]
    variety = make_variety(name, var_names, [], session.field)
    gens = [parse_poly(g, variety.ambient, col_offset=g_col)
            for g, g_col in _parse_bracket_list(fields.get("ideal", ("[]", 0)))]
    session.register("variety", name, make_variety(name, var_names, gens, session.field))


def _declare_map(session, header, body, col):
    name, _, src, dst = _resolve_arrow(session, header, "map", "variety")
    assignments = dict(_parse_body(body, col))
    images = []
    for v in dst.vars:
        if v not in assignments:
            raise ParseError(f"map {name!r} missing image for {v!r}", column=1)
        image, image_col = assignments.pop(v)
        images.append(parse_poly(image, src.ambient, col_offset=image_col))
    if assignments:
        raise ParseError(f"map {name!r} assigns unknown variables {sorted(assignments)}",
                         column=1)
    session.register("map", name, make_morphism(src, dst, images))


def _declare_corr(session, header, body, col):
    name, _, x, y = _resolve_arrow(session, header, "corr", "variety")
    n = None
    unit = None
    gens = {}
    for key, value in _parse_body(body, col):
        if key == "n":
            if not value[0].isdecimal():
                raise ParseError(f"n must be a natural number, got {value[0]!r}",
                                 column=value[1] + 1)
            if len(value[0].lstrip("0")) > 20:  # more rows than any unit a file holds
                raise ParseError("n too large", column=value[1] + 1)
            n = int(value[0])
        elif key == "unit":
            unit = _parse_matrix(value, x)
        elif key.startswith("gen "):
            gens[key[4:].strip()] = _parse_matrix(value, x)
        else:
            raise ParseError(f"unknown corr field {key!r}", column=1)
    if n is None or unit is None:
        raise ParseError(f"corr {name!r} needs n and unit", column=1)
    images = []
    for v in y.vars:
        if v not in gens:
            raise ParseError(f"corr {name!r} missing gen {v!r}", column=1)
        images.append(gens.pop(v))
    if gens:
        raise ParseError(f"corr {name!r} has gens for unknown variables {sorted(gens)}",
                         column=1)
    session.register("corr", name, make_correspondence(x, y, n, unit, images))


def _declare_morphism(session, header, body, col):
    name, ends, src, dst = _resolve_arrow(session, header, "morphism", "corr")
    fields = dict(_parse_body(body, col))
    if set(fields) != {"matrix"}:
        raise ParseError(f"morphism block takes exactly matrix, got {sorted(fields)}",
                         column=1)
    mat = _parse_matrix(fields["matrix"], src.X)
    if mat.nrows == 0 and mat.ncols == 0 and (dst.n == 0 or src.n == 0):
        mat = Matrix.zeros(src.X.gb, dst.n, src.n)
    session.register("morphism", name, make_corr_morphism(src, dst, mat), ends)


def _declare_aut(session, header, body, col):
    name = header.strip()
    _expect_unique(session, name)
    fields = dict(_parse_body(body, col))
    if set(fields) != {"base", "theta", "theta_inv"}:
        raise ParseError("aut block takes base, theta and theta_inv", column=1)
    base_name = fields["base"][0]
    base = session.corrs.get(base_name)
    if base is None:
        raise ResolveError(f"aut {name!r} references undeclared corr {base_name!r}")
    theta_names = [t for t, _ in _parse_bracket_list(fields["theta"])]
    inv_names = [t for t, _ in _parse_bracket_list(fields["theta_inv"])]
    if len(theta_names) != len(inv_names):
        raise ParseError("theta and theta_inv have different lengths", column=1)
    pairs = []
    for t, s in zip(theta_names, inv_names):
        fwd = session.morphisms.get(t)
        bwd = session.morphisms.get(s)
        if fwd is None or bwd is None:
            raise ResolveError(f"aut {name!r} references undeclared morphism")
        pairs.append((fwd, bwd))
    session.register("aut", name, make_aut_object(base, pairs),
                     (base_name, tuple(theta_names), tuple(inv_names)))


_DECL_HANDLERS = {
    "variety": _declare_variety,
    "map": _declare_map,
    "corr": _declare_corr,
    "morphism": _declare_morphism,
    "aut": _declare_aut,
}


def _read_statement(session: Session, word: str, text: str):
    """Carry out the statement ``word ...`` whose source lines, joined by
    blanks, are ``text``; its errors carry at most a column along ``text``."""
    rest = text.strip()[len(word):].strip()
    if word == "format":
        if rest != str(FORMAT_VERSION):
            raise ParseError(f"unsupported format {rest!r}", column=1)
    elif word == "field":
        if session.decls:
            raise ParseError("field must precede all declarations", column=1)
        session.field = parse_field(rest.replace(" ", ":", 1))
    elif word in _DECL_HANDLERS:
        if "{" not in rest:
            raise ParseError(f"{word} declaration needs a {{...}} block", column=1)
        body_col = text.index("{") + 1
        close = text.rfind("}")
        tail, tail_col = _stripped(text[close + 1:], close + 1)
        if tail:
            raise ParseError(f"unexpected {tail.split()[0]!r} after the closing brace",
                             column=tail_col + 1)
        header = text[:body_col - 1].strip()[len(word):]
        _DECL_HANDLERS[word](session, header, text[body_col:close], body_col)
    else:
        raise ParseError(f"unknown statement {word!r}", column=1)


def _block_position(chunks, line_no: int, column: int):
    """Source (line, col) of ``column``, counted along the lines ``chunks``
    joined by single blanks, the first of them being line ``line_no``."""
    offset = column - 1
    for k, chunk in enumerate(chunks):
        if offset <= len(chunk) or k == len(chunks) - 1:
            return line_no + k, offset + 1
        offset -= len(chunk) + 1


def parse_session(text: str) -> Session:
    """Parse and resolve a session; declarations validate in file order.

    The reader alone knows source lines: a statement's errors carry at most
    a column, and are re-raised here, as the same type, naming their line.
    """
    session = Session()
    lines = [_strip_comment(line) for line in text.splitlines()]
    i = 0
    while i < len(lines):
        line_no = i + 1
        chunks = [lines[i]]
        i += 1
        if not chunks[0].strip():
            continue
        word = chunks[0].split(None, 1)[0]
        if word in COMMAND_WORDS:
            session.commands.append(" ".join(chunks[0].split()))
            session.command_lines.append((line_no, chunks[0]))
            continue
        # a declaration block runs on until its braces balance
        depth = chunks[0].count("{") - chunks[0].count("}")
        while depth > 0 and word in _DECL_HANDLERS:
            if i >= len(lines):
                raise ParseError("unterminated block", line_no, 1)
            chunks.append(lines[i])
            depth += lines[i].count("{") - lines[i].count("}")
            i += 1
        try:
            _read_statement(session, word, " ".join(chunks))
        except KcorrError as exc:
            at = (line_no,) if exc.column is None else _block_position(
                chunks, line_no, exc.column)
            raise type(exc)(exc.detail, *at) from exc
    return session


# -- printing ----------------------------------------------------------------


def format_matrix(mat: Matrix) -> str:
    rows = ", ".join(
        "[" + ", ".join(str(e) for e in row) + "]" for row in mat.rows)
    return f"[{rows}]"


def format_field(field: Field) -> str:
    if field == QQ:
        return "field Q"
    return f"field Fp {field.p}"


def format_variety_block(v: AffVariety) -> str:
    vars_part = ", ".join(v.vars)
    ideal_part = ", ".join(str(g) for g in v.ideal_gens)
    return f"variety {v.name} {{ vars = [{vars_part}]; ideal = [{ideal_part}] }}"


def format_map_block(name: str, f: VarMorphism) -> str:
    body = "; ".join(f"{v} = {img}" for v, img in zip(f.target.vars, f.images))
    return (f"map {name} : {f.source.name} -> {f.target.name} {{ {body} }}"
            if body else
            f"map {name} : {f.source.name} -> {f.target.name} {{ }}")


def format_corr_block(name: str, obj: CorrObject) -> str:
    parts = [f"n = {obj.n}", f"unit = {format_matrix(obj.p)}"]
    parts.extend(f"gen {v} = {format_matrix(a)}"
                 for v, a in zip(obj.Y.vars, obj.gen_images))
    return (f"corr {name} : {obj.X.name} -> {obj.Y.name} "
            f"{{ {'; '.join(parts)} }}")


def format_morphism_block(name: str, mor: CorrMorphism, src_name: str,
                          dst_name: str) -> str:
    return (f"morphism {name} : {src_name} -> {dst_name} "
            f"{{ matrix = {format_matrix(mor.mat)} }}")


def format_decls(session: Session) -> list:
    """The declaration lines of a session, in declaration order."""
    lines = []
    for kind, name in session.decls:
        if kind == "variety":
            lines.append(format_variety_block(session.varieties[name]))
        elif kind == "map":
            lines.append(format_map_block(name, session.maps[name]))
        elif kind == "corr":
            lines.append(format_corr_block(name, session.corrs[name]))
        elif kind == "morphism":
            lines.append(format_morphism_block(
                name, session.morphisms[name], *session.refs[name]))
        elif kind == "aut":
            base_name, thetas, invs = session.refs[name]
            lines.append(
                f"aut {name} {{ base = {base_name}; "
                f"theta = [{', '.join(thetas)}]; "
                f"theta_inv = [{', '.join(invs)}] }}")
    return lines


def print_session(session: Session) -> str:
    lines = [f"format {FORMAT_VERSION}", format_field(session.field),
             *format_decls(session), *session.commands]
    return "\n".join(lines) + "\n"
