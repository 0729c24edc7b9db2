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

Every production returns a list of Terms; a product of two lists is
terms.concat of each pair, which moves the right operand's own dummies past
the left's, so the copies in a power bind fresh dummies.  Scope variables
are labelled in source order, so an enclosing scope's variables are labelled
before any dummy inside its body; as concat only moves labels upward, a
moved label never meets an outer variable that the term refers to.
parse_symbol and parse_operator then renumber each term's dummies 0.. in
list order.  A product that would build more than EXPANSION_LIMIT terms is
refused with a ParseError at its operator or exponent before any term is
built.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
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
    concat,
    dummy,
    free_var,
    make_term,
    mi_coerce,
    relabel,
    sites,
)

#: most terms one product may build ((phi(u)+pi(u))^15 needs 32,768)
EXPANSION_LIMIT = 20_000

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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.scopes: list[dict[str, VarId]] = []
        # labels scope variables in source order, an enclosing scope's before
        # any in its body: the invariant concat's shift relies on (see above)
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

    def parse_expr(self) -> list[Term]:
        negate = False
        if self.peek().type == "-":
            self.next()
            negate = True
        terms = self.parse_prod()
        if negate:
            terms = _scaled(terms, -1)
        while self.peek().type in ("+", "-"):
            op = self.next().type
            rhs = self.parse_prod()
            terms = terms + (_scaled(rhs, -1) if op == "-" else rhs)
        return terms

    def parse_prod(self) -> list[Term]:
        terms = self.parse_factor()
        while self.peek().type in ("*", "/"):
            op = self.next()
            if op.type == "/":
                t = self.expect("INT")
                if int(t.value) == 0:
                    raise ParseError("division by zero", t.line, t.col)
                terms = _scaled(terms, Fraction(1, int(t.value)))
            else:
                terms = _product(terms, self.parse_factor(), op)
        return terms

    def parse_factor(self) -> list[Term]:
        terms = self.parse_atom()
        if self.peek().type == "^":
            self.next()
            t = self.expect("INT")
            out = [make_term(1)]
            for _ in range(int(t.value)):
                out = _product(out, terms, t)
            terms = out
        return terms

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

    def parse_atom(self) -> list[Term]:
        t = self.peek()
        if t.type == "INT":
            self.next()
            return [make_term(int(t.value))]
        if t.type == "(":
            self.next()
            terms = self.parse_expr()
            self.expect(")")
            return terms
        if t.type != "NAME":
            self.error(f"unexpected token {t.value!r}")
        name = t.value
        if name in ("h", "i", "m"):
            self.next()
            return [make_term(1, **{name: 1})]
        if name in (INT_DELTA_SQ, VOLUME):  # the kinds are their text names
            self.next()
            return [make_term(1, divergent=(DivergentConstant(name),))]
        if name == "delta0":
            self.next()
            order = mi_coerce(None)
            if self.peek().type == "(":
                self.next()
                order = self.parse_order()
                self.expect(")")
            return [make_term(1, divergent=(DivergentConstant(DELTA_AT_ZERO, order),))]
        if name in ("int", "qint"):
            return self.parse_integral(name == "qint")
        if name in ("phi", "pi", "Phi", "Pi"):
            self.next()
            self.expect("(")
            var = self.parse_var()
            self.expect(")")
            return [self._field_term(name, mi_coerce(None), var)]
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
        return [make_term(1, functions=(NamedFunction(name, mi_coerce(None), var),))]

    def _field_term(self, name: str, order, var: VarId) -> Term:
        if name in ("Phi", "Pi"):
            self.saw_quantum = True
        else:
            self.saw_classical = True
        field = PHI if name in ("phi", "Phi") else PI
        return make_term(1, factors=(FieldFactor(field, order, var),))

    def parse_integral(self, quantum: bool) -> list[Term]:
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
        for nm in names:
            if nm in RESERVED or any(nm in s for s in self.scopes) or nm in scope:
                raise ParseError(f"integration variable {nm!r} shadows an "
                                 "existing binding or keyword", t.line, t.col)
            scope[nm] = dummy(self.dummy_counter)
            self.dummy_counter += 1
        self.scopes.append(scope)
        self.expect("(")
        terms = self.parse_expr()
        self.expect(")")
        self.scopes.pop()
        bound = tuple(scope.values())
        return [Term(b.dummies + bound, b.coeff, b.factors, b.deltas) for b in terms]

    def parse_derivative(self) -> list[Term]:
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
            return [self._field_term(base, order, var)]
        try:
            SESSION.require_function(base)
        except DeclarationError as e:
            raise ParseError(str(e), t.line, t.col)
        return [make_term(1, functions=(NamedFunction(base, order, var),))]

    def parse_delta(self) -> list[Term]:
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
        return [make_term(1, deltas=(DeltaFactor(order, left, right),))]


def _scaled(terms: list[Term], q) -> list[Term]:
    return [Term(t.dummies, t.coeff.scale(q), t.factors, t.deltas) for t in terms]


def _product(a: list[Term], b: list[Term], at: _Token) -> list[Term]:
    """Every product of a term of `a` with a term of `b`, refused before it
    is built when there would be more than EXPANSION_LIMIT of them."""
    if len(a) * len(b) > EXPANSION_LIMIT:
        raise ParseError(f"expanding this product would build {len(a) * len(b)} "
                         f"terms, above the limit of {EXPANSION_LIMIT}",
                         at.line, at.col)
    return [concat(ta, tb) for ta in a for tb in b]


def _rebase(t: Term) -> Term:
    # scope labels are allocated across the whole source; a term carries
    # local labels, so renumber its dummies 0.. in list order, then sort its
    # functions by their new variables
    t = relabel(t, {old: dummy(k) for k, old in enumerate(t.dummies)},
                tuple(map(dummy, range(len(t.dummies)))))
    c = t.coeff
    return Term(t.dummies, Coefficient.make(c.scalar, c.h, c.i, c.m, c.divergent,
                                            c.functions), t.factors, t.deltas)


def _parse_terms(text: str) -> tuple[tuple[Term, ...], bool]:
    p = _Parser(text)
    terms = p.parse_expr()
    t = p.peek()
    if t.type != "EOF":
        raise ParseError(f"trailing input starting at {t.value!r}", t.line, t.col)
    if p.saw_quantum and p.saw_classical:
        raise ParseError("cannot mix phi/pi with Phi/Pi in one expression", 1, 1)
    return tuple(map(_rebase, terms)), p.saw_quantum


def parse_symbol(text: str) -> Symbol:
    terms, quantum = _parse_terms(text)
    if quantum:
        raise ParseError("operator syntax (qint/Phi/Pi) in a classical context", 1, 1)
    return Symbol(terms)


def parse_operator(text: str):
    from .quantum import OperatorExpression
    return OperatorExpression(_parse_terms(text)[0])


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
