"""Recursive-descent parser for the MSO surface grammar.

ASCII aliases: forall, exists, &, |, !, ->, in, cl, indep, = and the set
terms ``T \\ {e}`` / ``T + {e}``; the unicode forms of the connectives
are accepted too.  ``spanning(T)`` is the core atom ``Spanning``, which
both engines decide natively, and ``is_base(T)`` stands for
``indep(T) & spanning(T)``; ``is_circuit`` is the one macro that
expands to a quantified definition at parse time.  Every walk over a
formula, this descent included, recurses once per level, so ``parse``
rejects a formula nested more than ``MAX_DEPTH`` levels deep, in its
text or in its tree.
"""

from ..errors import FormulaSyntaxError
from . import formulas as F

__all__ = ["parse", "tokenize"]

MAX_DEPTH = 100  # fixed, far inside Python's recursion limit

_KEYWORDS = {
    "exists",
    "forall",
    "in",
    "cl",
    "indep",
    "ind",
    "is_circuit",
    "is_base",
    "spanning",
}

_UNICODE = {
    "∃": "exists",
    "∀": "forall",
    "∈": "in",
    "∧": "&",
    "∨": "|",
    "¬": "!",
    "→": "->",
    "⇒": "->",
    "∖": "\\",
    "∪": "+",
}


def _is_name(tok):
    return bool(tok) and (tok[0].isalpha() or tok[0] == "_") and tok not in _KEYWORDS


def tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _UNICODE:
            tokens.append((_UNICODE[ch], i))
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", i))
            i += 2
            continue
        if text.startswith("!=", i):
            tokens.append(("!=", i))
            i += 2
            continue
        if ch in "()&|!\\+={},:":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append((None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses and operators the descent is inside

    def peek(self):
        return self.tokens[self.pos][0]

    def here(self):
        return self.tokens[self.pos][1]

    def take(self, expected=None):
        tok, at = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok!r}", at)
        self.pos += 1
        return tok

    def fail(self, message):
        raise FormulaSyntaxError(message, self.here())

    def nested(self, production):
        """``production()`` one level deeper, failing past ``MAX_DEPTH``."""
        if self.depth == MAX_DEPTH:
            self.fail(f"formula nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        out = production()
        self.depth -= 1
        return out

    # formula := quantified
    def formula(self):
        return self.quantified()

    def quantified(self):
        if self.peek() in ("exists", "forall"):
            kind = self.take()
            var = self.variable()
            if self.peek() == ":":
                self.take()
            inner = self.nested(self.quantified)
            return F.Exists(var, inner) if kind == "exists" else F.Forall(var, inner)
        return self.implies()

    def implies(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return F.Implies(left, self.nested(self.implies))
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.peek() == "|":
            self.take()
            left = F.Or(left, self.conjunction())
        return left

    def conjunction(self):
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = F.And(left, self.unary())
        return left

    def unary(self):
        if self.peek() == "!":
            self.take()
            return F.Not(self.nested(self.unary))
        if self.peek() in ("exists", "forall"):
            # quantifier scope extends as far right as possible
            return self.quantified()
        return self.atom()

    def variable(self):
        tok = self.peek()
        if not _is_name(tok):
            self.fail(f"expected a variable name, found {tok!r}")
        return self.take()

    def atom(self):
        tok = self.peek()
        if tok == "(":
            start = self.pos
            self.take("(")
            if self.peek() in ("exists", "forall") or self._looks_like_formula():
                inner = self.nested(self.formula)
                self.take(")")
                return inner
            self.pos = start
        if tok in _SET_PREDICATES:
            return _SET_PREDICATES[tok](self, self.set_argument(tok))
        if tok == "cl":
            left = self.set_argument("cl")
            self.take("=")
            if self.peek() != "cl":
                self.fail("closure can only be compared with another closure")
            right = self.set_argument("cl")
            return F.ClosureEq(left, right)
        return self.comparison()

    def _looks_like_formula(self):
        # inside '(' we may have a parenthesized formula or a set term; a
        # set term uses only names, parens, braces, '\' and '+', so any
        # other token before the matching ')' means formula
        termish = {"(", ")", "{", "}", "\\", "+"}
        depth = 0
        for tok, _ in self.tokens[self.pos :]:
            if tok is None:
                return False
            if tok == "(":
                depth += 1
            elif tok == ")":
                if depth == 0:
                    return False
                depth -= 1
            elif tok not in termish and not _is_name(tok):
                return True
        return False

    def set_argument(self, keyword):
        """The set term of ``keyword ( set_term )``."""
        self.take(keyword)
        self.take("(")
        term = self.set_term()
        self.take(")")
        return term

    def comparison(self):
        if self.peek() == "(" or F.is_set_name(self.peek() or ""):
            left = self.set_term()
            op = self.peek()
            if op not in ("=", "!="):
                self.fail(f"expected '=' after a set term, found {op!r}")
            self.take()
            eq = F.SetEq(left, self.set_term())
            return eq if op == "=" else F.Not(eq)
        var = self.variable()
        op = self.peek()
        if op == "in":
            self.take()
            if self.peek() == "cl":
                return F.InClosure(var, self.set_argument("cl"))
            return F.Member(var, self.set_term())
        if op == "=":
            self.take()
            return F.ElemEq(var, self.variable())
        if op == "!=":
            self.take()
            return F.Not(F.ElemEq(var, self.variable()))
        self.fail(f"expected 'in', '=' or '!=' after {var!r}")

    def set_term(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            term = self.nested(self.set_term)
            self.take(")")
        else:
            name = self.variable()
            if not F.is_set_name(name):
                self.fail(f"{name!r} is not a set variable (capitalize set names)")
            term = F.Var(name)
        while self.peek() in ("\\", "+"):
            op = self.take()
            self.take("{")
            elem = self.variable()
            if F.is_set_name(elem):
                self.fail(f"{elem!r} is not an element variable")
            self.take("}")
            term = F.Remove(term, elem) if op == "\\" else F.Add(term, elem)
        return term

    # -- set predicates: core atoms, except the is_circuit macro ------------

    def _fresh(self, term):
        """An element name for ``is_circuit`` to bind over ``term``: ``e_<token
        position>``, lengthened until the term does not use it."""
        used = {name for name, _ in F.parts(F.Indep(term))[0]}
        name = f"e_{self.pos}"
        while name in used:
            name += "_"
        return name

    def _indep(self, term):
        return F.Indep(term)

    def _is_circuit(self, term):
        e = self._fresh(term)
        return F.And(
            F.Not(F.Indep(term)),
            F.Forall(e, F.Implies(F.Member(e, term), F.Indep(F.Remove(term, e)))),
        )

    def _is_base(self, term):
        return F.And(F.Indep(term), F.Spanning(term))

    def _spanning(self, term):
        return F.Spanning(term)


# keyword -> builder of the formula ``keyword ( set_term )`` stands for
_SET_PREDICATES = {
    "indep": _Parser._indep,
    "ind": _Parser._indep,
    "is_circuit": _Parser._is_circuit,
    "is_base": _Parser._is_base,
    "spanning": _Parser._spanning,
}


def parse(text):
    """Parse MSO surface text into a checked formula tree."""
    p = _Parser(text)
    out = p.formula()
    if p.peek() is not None:
        p.fail(f"unexpected trailing input {p.peek()!r}")
    stack = [(out, 0)]  # the tree's formula and set-term nodes, with their levels
    while stack:
        node, level = stack.pop()
        if level > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", 0)
        stack += [(v, level + 1) for v in vars(node).values() if not isinstance(v, (str, F.Var))]
    return F.check_kinds(out)
