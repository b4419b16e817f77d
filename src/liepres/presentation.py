"""Presentation files: generators plus relations written as bracket expressions."""

from fractions import Fraction

from .freelie import LiePoly, bracket
from .record import Record


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Presentation(Record):
    __slots__ = ("names", "relations")  # generator names in file order; relations as LiePoly, lhs - rhs

    def max_relation_degree(self) -> int:
        return max((r.max_degree() for r in self.relations), default=0)


_PUNCT = {"[": "LBRACK", "]": "RBRACK", ",": "COMMA", "=": "EQ", "*": "STAR",
          "+": "PLUS", "-": "MINUS", "/": "SLASH", ":": "COLON"}

_KEYWORDS = {"generators", "relation"}

# The parser owns the input limits, each a ParseError at the bracket's '[': nesting
# past MAX_NESTING (not a RecursionError, though the parser recurses once per level),
# and operands whose top degrees sum past MAX_DEGREE, refused before the bracket
# expands them.  Nonzero brackets meet the degree cap long before the nesting one.
MAX_NESTING = 100
MAX_DEGREE = 12


def _tokenize(text: str):
    tokens = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        n = len(line)
        while col < n:
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            start = col + 1  # 1-based for messages
            if ch in _PUNCT:
                tokens.append((_PUNCT[ch], ch, ln, start))
                col += 1
            elif ch.isdecimal():
                j = col
                while j < n and line[j].isdecimal():
                    j += 1
                try:
                    value = int(line[col:j])
                except ValueError:  # past the interpreter's limit on digits
                    raise ParseError(f"number of {j - col} digits is too long", ln, start) from None
                tokens.append(("INT", value, ln, start))
                col = j
            elif ch.isalpha() or ch == "_":
                j = col
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                word = line[col:j]
                kind = "KEYWORD" if word in _KEYWORDS else "NAME"
                tokens.append((kind, word, ln, start))
                col = j
            else:
                raise ParseError(f"unexpected character {ch!r}", ln, start)
    tokens.append(("EOF", None, text.count("\n") + 1, 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.index: dict = {}
        self.brackets: dict = {}  # one Lyndon bracket memo for the whole file

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        _, _, ln, col = self.peek()
        raise ParseError(message, ln, col)

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self) -> Presentation:
        kind, val, ln, col = self.next()
        if kind != "KEYWORD" or val != "generators":
            raise ParseError("file must start with 'generators:'", ln, col)
        self.expect("COLON", "':' after 'generators'")
        while self.peek()[0] == "NAME":
            _, name, ln, col = self.next()
            if name in self.index:
                raise ParseError(f"duplicate generator {name!r}", ln, col)
            self.index[name] = len(self.index)
        if not self.index:
            self.fail("at least one generator is required")
        relations = []
        while self.peek()[0] != "EOF":
            kind, val, ln, col = self.next()
            if kind != "KEYWORD" or val != "relation":
                raise ParseError("expected 'relation:'", ln, col)
            self.expect("COLON", "':' after 'relation'")
            lhs = self.parse_expr()
            self.expect("EQ", "'='")
            rhs = self.parse_expr()
            relations.append(lhs - rhs)
        return Presentation(tuple(self.index), tuple(relations))

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def parse_expr(self) -> LiePoly:
        negate = self.peek()[0] in ("PLUS", "MINUS") and self.next()[0] == "MINUS"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.next()[0]
            term = self.parse_term()
            acc = acc + term if op == "PLUS" else acc - term
        return acc

    # term := rational ['*' atom] | atom
    def parse_term(self) -> LiePoly:
        kind, _, ln, col = self.peek()
        if kind == "INT":
            coeff = self.parse_rational()
            if self.peek()[0] == "STAR":
                self.next()
                return coeff * self.parse_atom()
            if coeff != 0:
                raise ParseError(f"constant {coeff} has no meaning in a Lie expression (only 0 does)", ln, col)
            return LiePoly()
        return self.parse_atom()

    def parse_rational(self) -> int | Fraction:
        tok = self.expect("INT", "a number")
        num = tok[1]
        if self.peek()[0] == "SLASH":
            self.next()
            dtok = self.expect("INT", "a denominator")
            if dtok[1] == 0:
                raise ParseError("zero denominator", dtok[2], dtok[3])
            return Fraction(num, dtok[1])
        return num

    # atom := name | '[' expr ',' expr ']'
    def parse_atom(self) -> LiePoly:
        kind, val, ln, col = self.next()
        if kind == "NAME":
            if val not in self.index:
                raise ParseError(f"unknown generator {val!r}", ln, col)
            return LiePoly.generator(self.index[val])
        if kind == "LBRACK":
            if self.depth == MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", ln, col)
            self.depth += 1
            left = self.parse_expr()
            self.expect("COMMA", "',' between bracket arguments")
            right = self.parse_expr()
            self.expect("RBRACK", "']'")
            self.depth -= 1
            # a zero operand has degree 0 and the other at most MAX_DEGREE: only nonzero pairs are refused
            degree = left.max_degree() + right.max_degree()
            if degree > MAX_DEGREE:
                raise ParseError(f"bracket degree {degree} exceeds cap {MAX_DEGREE}", ln, col)
            return bracket(left, right, self.brackets)
        raise ParseError(f"expected a generator name or '[', found {val!r}", ln, col)


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file; raises ParseError with line and column on bad input."""
    return _Parser(text).parse()


def combination_text(terms) -> str:
    """A linear combination from ordered (label, coefficient) pairs, e.g. 2*y3 - h1; "0" if empty."""
    bits = []
    for label, c in terms:
        mag = abs(c)
        body = label if mag == 1 else f"{mag}*{label}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits) or "0"
