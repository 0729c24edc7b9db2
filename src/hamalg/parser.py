"""Text format and JSON serialization for symbols and operator expressions.

Grammar (whitespace-insensitive):

    expr     := ['-'] prod (('+' | '-') prod)*
    prod     := factor (('*' factor) | ('/' INT))*
    factor   := atom ['^' INT]
    atom     := INT | 'h' | 'i' | 'm'
              | 'delta0' ['(' order ')'] | 'intdelta2' | 'vol'
              | ('int' | 'qint') '[' NAME (',' NAME)* ']' '(' expr ')'
              | ('phi'|'pi'|'Phi'|'Pi') '(' var ')'
              | 'D' '(' base ',' order ')' '(' var ')'
              | 'delta' '(' var ['-' var] [';' order] ')'
              | NAME '(' var ')'                -- declared coefficient function
              | '(' expr ')'
    order    := INT | '[' INT (',' INT)* ']'

`int[...]` binds integration dummies for a classical term, `qint[...]` for an
operator term; `phi`/`pi` are classical field values, `Phi`/`Pi` operator
factors whose order within a product is the operator word.  Any other variable
name is a free variable interned in the session.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import DeclarationError, ParseError
from .session import RESERVED, SESSION
from .terms import (
    ANCHOR,
    Coefficient,
    DeltaFactor,
    DivergentConstant,
    FieldFactor,
    DELTA_AT_ZERO,
    INT_DELTA_SQ,
    VOLUME,
    NamedFunction,
    PHI,
    PI,
    Symbol,
    Term,
    VarId,
    DUMMY,
    FREE,
    dummy,
    free_var,
    mi_coerce,
    relabel,
    sites,
)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[()\[\],;^*/+\-]|\S")


@dataclass
class _Token:
    type: str  # NAME, INT, or the punctuation itself
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for match in _TOKEN_RE.finditer(line):
            s = match.group(0)
            col = match.start() + 1
            if s.isdigit():
                tokens.append(_Token("INT", s, lineno, col))
            elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", s):
                tokens.append(_Token("NAME", s, lineno, col))
            elif s in "()[],;^*/+-":
                tokens.append(_Token(s, s, lineno, col))
            else:
                raise ParseError(f"unexpected character {s!r}", lineno, col)
    tokens.append(_Token("EOF", "", lineno if text else 1, len(text) + 1))
    return tokens


@dataclass
class _Mono:
    """One product collected during parsing."""
    scalar: Fraction = Fraction(1)
    h: int = 0
    i: int = 0
    m: int = 0
    divergent: list = dc_field(default_factory=list)
    functions: list = dc_field(default_factory=list)
    factors: list = dc_field(default_factory=list)
    deltas: list = dc_field(default_factory=list)
    dummies: list = dc_field(default_factory=list)

    def mul(self, other: "_Mono") -> "_Mono":
        return _Mono(
            self.scalar * other.scalar,
            self.h + other.h, self.i + other.i, self.m + other.m,
            self.divergent + other.divergent,
            self.functions + other.functions,
            self.factors + other.factors,
            self.deltas + other.deltas,
            self.dummies + other.dummies,
        )

    def to_term(self) -> Term:
        # scope ids are allocated across the whole source; terms carry
        # local labels, so rebase each one to its own 0.. sequence
        # (before Coefficient.make sorts the functions by their variables)
        t = relabel(Term((), Coefficient(self.scalar, functions=tuple(self.functions)),
                         tuple(self.factors), tuple(self.deltas)),
                    {old: dummy(k) for k, old in enumerate(self.dummies)},
                    tuple(map(dummy, range(len(self.dummies)))))
        return Term(t.dummies, Coefficient.make(self.scalar, self.h, self.i, self.m,
                                                self.divergent, t.coeff.functions),
                    t.factors, t.deltas)


def _poly_mul(a: list[_Mono], b: list[_Mono]) -> list[_Mono]:
    return [ma.mul(mb) for ma in a for mb in b]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.scopes: list[dict[str, VarId]] = []
        self.dummy_counter = 0
        self.saw_quantum = False
        self.saw_classical = False

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, ttype: str) -> _Token:
        t = self.next()
        if t.type != ttype:
            raise ParseError(f"expected {ttype!r}, found {t.value!r}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- grammar ---------------------------------------------------------------

    def parse_expr(self) -> list[_Mono]:
        negate = False
        if self.peek().type == "-":
            self.next()
            negate = True
        monos = self.parse_prod()
        if negate:
            for m in monos:
                m.scalar = -m.scalar
        while self.peek().type in ("+", "-"):
            op = self.next().type
            rhs = self.parse_prod()
            if op == "-":
                for m in rhs:
                    m.scalar = -m.scalar
            monos = monos + rhs
        return monos

    def parse_prod(self) -> list[_Mono]:
        monos = self.parse_factor()
        while self.peek().type in ("*", "/"):
            op = self.next().type
            if op == "/":
                t = self.expect("INT")
                q = Fraction(1, int(t.value))
                for m in monos:
                    m.scalar *= q
            else:
                monos = _poly_mul(monos, self.parse_factor())
        return monos

    def parse_factor(self) -> list[_Mono]:
        monos = self.parse_atom()
        if self.peek().type == "^":
            self.next()
            t = self.expect("INT")
            k = int(t.value)
            out = [_Mono()]
            for _ in range(k):
                out = _poly_mul(out, [self._copy_mono(m) for m in monos])
            monos = out
        return monos

    def _copy_mono(self, m: _Mono) -> _Mono:
        # each copy binds fresh dummies, so a power of an integral is a
        # product of independent integrals
        fresh = {v: dummy(self.dummy_counter + k) for k, v in enumerate(m.dummies)}
        self.dummy_counter += len(fresh)
        t = relabel(Term((), Coefficient(m.scalar, functions=tuple(m.functions)),
                         tuple(m.factors), tuple(m.deltas)), fresh, ())
        return _Mono(m.scalar, m.h, m.i, m.m, list(m.divergent),
                     list(t.coeff.functions), list(t.factors), list(t.deltas),
                     list(fresh.values()))

    def parse_order(self):
        if self.peek().type == "[":
            self.next()
            parts = [int(self.expect("INT").value)]
            while self.peek().type == ",":
                self.next()
                parts.append(int(self.expect("INT").value))
            self.expect("]")
            order = tuple(parts)
        else:
            order = int(self.expect("INT").value)
        try:
            return mi_coerce(order)
        except Exception as e:
            self.error(str(e))

    def parse_var(self) -> VarId:
        t = self.expect("NAME")
        name = t.value
        if name in RESERVED:
            raise ParseError(f"{name!r} cannot be used as a variable", t.line, t.col)
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        try:
            return free_var(name)
        except DeclarationError as e:
            raise ParseError(str(e), t.line, t.col)

    def parse_atom(self) -> list[_Mono]:
        t = self.peek()
        if t.type == "INT":
            self.next()
            return [_Mono(scalar=Fraction(int(t.value)))]
        if t.type == "(":
            self.next()
            monos = self.parse_expr()
            self.expect(")")
            return monos
        if t.type != "NAME":
            self.error(f"unexpected token {t.value!r}")
        name = t.value
        if name == "h":
            self.next()
            return [_Mono(h=1)]
        if name == "i":
            self.next()
            return [_Mono(i=1)]
        if name == "m":
            self.next()
            return [_Mono(m=1)]
        if name == "intdelta2":
            self.next()
            return [_Mono(divergent=[DivergentConstant(INT_DELTA_SQ)])]
        if name == "vol":
            self.next()
            return [_Mono(divergent=[DivergentConstant(VOLUME)])]
        if name == "delta0":
            self.next()
            order = mi_coerce(None)
            if self.peek().type == "(":
                self.next()
                order = self.parse_order()
                self.expect(")")
            return [_Mono(divergent=[DivergentConstant(DELTA_AT_ZERO, order)])]
        if name in ("int", "qint"):
            return self.parse_integral(name == "qint")
        if name in ("phi", "pi", "Phi", "Pi"):
            self.next()
            self.expect("(")
            var = self.parse_var()
            self.expect(")")
            return [self._field_mono(name, mi_coerce(None), var)]
        if name == "D":
            return self.parse_derivative()
        if name == "delta":
            return self.parse_delta()
        # declared coefficient function
        self.next()
        if self.peek().type != "(":
            self.error(f"unexpected name {name!r} (variables may only appear "
                       "as arguments)")
        try:
            SESSION.require_function(name)
        except DeclarationError as e:
            raise ParseError(str(e), t.line, t.col)
        self.expect("(")
        var = self.parse_var()
        self.expect(")")
        return [_Mono(functions=[NamedFunction(name, mi_coerce(None), var)])]

    def _field_mono(self, name: str, order, var: VarId) -> _Mono:
        if name in ("Phi", "Pi"):
            self.saw_quantum = True
        else:
            self.saw_classical = True
        field = PHI if name in ("phi", "Phi") else PI
        return _Mono(factors=[FieldFactor(field, order, var)])

    def parse_integral(self, quantum: bool) -> list[_Mono]:
        t = self.next()  # int / qint
        if quantum:
            self.saw_quantum = True
        self.expect("[")
        names = [self.expect("NAME").value]
        while self.peek().type == ",":
            self.next()
            names.append(self.expect("NAME").value)
        self.expect("]")
        scope = {}
        bound = []
        for nm in names:
            if nm in RESERVED or any(nm in s for s in self.scopes) or nm in scope:
                raise ParseError(f"integration variable {nm!r} shadows an "
                                 "existing binding or keyword", t.line, t.col)
            v = dummy(self.dummy_counter)
            self.dummy_counter += 1
            scope[nm] = v
            bound.append(v)
        self.scopes.append(scope)
        self.expect("(")
        monos = self.parse_expr()
        self.expect(")")
        self.scopes.pop()
        for m in monos:
            m.dummies = m.dummies + bound
        return monos

    def parse_derivative(self) -> list[_Mono]:
        t = self.next()  # D
        self.expect("(")
        base = self.expect("NAME").value
        self.expect(",")
        order = self.parse_order()
        self.expect(")")
        self.expect("(")
        var = self.parse_var()
        self.expect(")")
        if base in ("phi", "pi", "Phi", "Pi"):
            return [self._field_mono(base, order, var)]
        try:
            SESSION.require_function(base)
        except DeclarationError as e:
            raise ParseError(str(e), t.line, t.col)
        return [_Mono(functions=[NamedFunction(base, order, var)])]

    def parse_delta(self) -> list[_Mono]:
        self.next()  # delta
        self.expect("(")
        left = self.parse_var()
        right = ANCHOR
        if self.peek().type == "-":
            self.next()
            right = self.parse_var()
        order = mi_coerce(None)
        if self.peek().type == ";":
            self.next()
            order = self.parse_order()
        self.expect(")")
        return [_Mono(deltas=[DeltaFactor(order, left, right)])]


def _parse_monos(text: str):
    p = _Parser(text)
    monos = p.parse_expr()
    t = p.peek()
    if t.type != "EOF":
        raise ParseError(f"trailing input starting at {t.value!r}", t.line, t.col)
    if p.saw_quantum and p.saw_classical:
        raise ParseError("cannot mix phi/pi with Phi/Pi in one expression", 1, 1)
    return monos, p.saw_quantum


def parse(text: str):
    """Parse text into a Symbol or an OperatorExpression (auto-detected)."""
    monos, quantum = _parse_monos(text)
    terms = tuple(m.to_term() for m in monos)
    if quantum:
        from .quantum import OperatorExpression
        return OperatorExpression(terms)
    return Symbol(terms)


def parse_symbol(text: str) -> Symbol:
    monos, quantum = _parse_monos(text)
    if quantum:
        raise ParseError("operator syntax (qint/Phi/Pi) in a classical context", 1, 1)
    return Symbol(tuple(m.to_term() for m in monos))


def parse_operator(text: str):
    from .quantum import OperatorExpression
    monos, _ = _parse_monos(text)
    return OperatorExpression(tuple(m.to_term() for m in monos))


# -- formatting ---------------------------------------------------------------

_DUMMY_POOL = ["x", "y", "z", "u", "v", "w"]


def _dummy_names(count: int, taken: set[str]) -> list[str]:
    out = []
    k = 0
    suffix = 0
    while len(out) < count:
        if suffix == 0:
            pool = _DUMMY_POOL
        else:
            pool = [f"{b}{suffix}" for b in _DUMMY_POOL]
        for nm in pool:
            if nm not in taken and nm not in RESERVED and len(out) < count:
                out.append(nm)
                taken = taken | {nm}
        suffix += 1
        k += 1
        if k > 100:  # pragma: no cover - pool exhaustion is unreachable
            raise RuntimeError("dummy name pool exhausted")
    return out


def _order_str(deriv) -> str:
    if len(deriv) == 1:
        return str(deriv[0])
    return "[" + ",".join(str(a) for a in deriv) + "]"


def _var_str(v: VarId, names: dict[VarId, str]) -> str:
    if v.kind == FREE:
        return SESSION.free_name(v.index)
    return names[v]


def _atom_str(name: str, deriv, var: VarId, names) -> str:
    if sum(deriv) == 0:
        return f"{name}({_var_str(var, names)})"
    return f"D({name},{_order_str(deriv)})({_var_str(var, names)})"


def _monomial_str(t: Term, names: dict[VarId, str], quantum: bool) -> str:
    c = t.coeff
    parts = []
    mag = abs(c.scalar)
    if mag != 1:
        parts.append(str(mag) if mag.denominator == 1 else f"({mag})")
    if c.h == 1:
        parts.append("h")
    elif c.h:
        parts.append(f"h^{c.h}")
    if c.i:
        parts.append("i")
    if c.m == 1:
        parts.append("m")
    elif c.m:
        parts.append(f"m^{c.m}")
    for dv in c.divergent:
        if dv.kind == DELTA_AT_ZERO:
            parts.append(f"delta0({_order_str(dv.order)})")
        elif dv.kind == INT_DELTA_SQ:
            parts.append("intdelta2")
        else:
            parts.append("vol")
    for fn in c.functions:
        parts.append(_atom_str(fn.name, fn.deriv, fn.var, names))
    # collapse repeated adjacent factors into powers
    idx = 0
    fname = {PHI: "Phi" if quantum else "phi", PI: "Pi" if quantum else "pi"}
    while idx < len(t.factors):
        f = t.factors[idx]
        run = 1
        while idx + run < len(t.factors) and t.factors[idx + run] == f:
            run += 1
        s = _atom_str(fname[f.field], f.deriv, f.var, names)
        parts.append(s if run == 1 else f"{s}^{run}")
        idx += run
    for d in t.deltas:
        inner = _var_str(d.left, names)
        if d.right is not ANCHOR:
            inner += f"-{_var_str(d.right, names)}"
        if sum(d.deriv):
            inner += f";{_order_str(d.deriv)}"
        parts.append(f"delta({inner})")
    if not parts:
        parts.append("1")
    return "*".join(parts)


def format_expression(obj) -> str:
    """Render a canonical Symbol/OperatorExpression in the text format."""
    terms = obj.terms
    quantum = bool(getattr(obj, "ORDERED", False))
    if not terms:
        return "0"
    taken = set()
    for t in terms:
        for v in sites(t):
            if v.kind == FREE:
                taken.add(SESSION.free_name(v.index))
        for fn in t.coeff.functions:
            taken.add(fn.name)
    # group consecutive terms by dummy count (canonical order sorts by it)
    groups: list[tuple[int, list[Term]]] = []
    for t in terms:
        d = len(t.dummies)
        if groups and groups[-1][0] == d:
            groups[-1][1].append(t)
        else:
            groups.append((d, [t]))
    word = "qint" if quantum else "int"
    chunks = []
    for d, group in groups:
        names = {}
        if d:
            dnames = _dummy_names(d, taken)
            names = {dummy(i): dnames[i] for i in range(d)}
        body = ""
        for idx, t in enumerate(group):
            mono = _monomial_str(t, names, quantum)
            neg = t.coeff.scalar < 0
            if idx == 0:
                body = ("-" if neg else "") + mono
            else:
                body += (" - " if neg else " + ") + mono
        if d:
            chunks.append(f"{word}[{','.join(dnames)}]( {body} )")
        else:
            chunks.append(body)
    out = ""
    for idx, ch in enumerate(chunks):
        if idx == 0:
            out = ch
        else:
            out += " + " + ch
    return out


# -- JSON ---------------------------------------------------------------------


def _var_json(v: VarId):
    if v.kind == DUMMY:
        return {"kind": "dummy", "index": v.index}
    return {"kind": "free", "name": SESSION.free_name(v.index)}


def _var_from_json(obj) -> VarId:
    if obj["kind"] == "dummy":
        return dummy(int(obj["index"]))
    return free_var(obj["name"])


def to_json_dict(obj) -> dict:
    quantum = bool(getattr(obj, "ORDERED", False))
    terms = []
    for t in obj.terms:
        c = t.coeff
        terms.append({
            "dummies": len(t.dummies),
            "coefficient": {
                "num": c.scalar.numerator,
                "den": c.scalar.denominator,
                "h": c.h, "i": c.i, "m": c.m,
                "divergent": [{"kind": d.kind, "order": list(d.order)}
                              for d in c.divergent],
                "functions": [{"name": f.name, "deriv": list(f.deriv),
                               "var": _var_json(f.var)} for f in c.functions],
            },
            "factors": [{"field": f.field, "deriv": list(f.deriv),
                         "var": _var_json(f.var)} for f in t.factors],
            "deltas": [{"deriv": list(d.deriv), "left": _var_json(d.left),
                        "right": None if d.right is ANCHOR else _var_json(d.right)}
                       for d in t.deltas],
        })
    return {
        "kind": "operator" if quantum else "symbol",
        "dimension": SESSION.dimension,
        "terms": terms,
    }


def to_json(obj) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, separators=(",", ":"))


def from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    if data.get("dimension") != SESSION.dimension:
        raise ParseError(
            f"dimension mismatch: payload {data.get('dimension')}, "
            f"session {SESSION.dimension}", 1, 1)
    terms = []
    for tj in data["terms"]:
        cj = tj["coefficient"]
        coeff = Coefficient.make(
            Fraction(cj["num"], cj["den"]), cj["h"], cj["i"], cj["m"],
            [DivergentConstant(d["kind"], tuple(d["order"])) for d in cj["divergent"]],
            [NamedFunction(f["name"], tuple(f["deriv"]), _var_from_json(f["var"]))
             for f in cj["functions"]],
        )
        factors = tuple(FieldFactor(f["field"], tuple(f["deriv"]),
                                    _var_from_json(f["var"]))
                        for f in tj["factors"])
        deltas = tuple(DeltaFactor(tuple(d["deriv"]), _var_from_json(d["left"]),
                                   ANCHOR if d["right"] is None
                                   else _var_from_json(d["right"]))
                       for d in tj["deltas"])
        terms.append(Term(tuple(dummy(i) for i in range(tj["dummies"])),
                          coeff, factors, deltas))
    if data["kind"] == "operator":
        from .quantum import OperatorExpression
        return OperatorExpression(tuple(terms))
    return Symbol(tuple(terms))
