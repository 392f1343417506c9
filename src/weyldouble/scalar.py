"""Exact scalars: cyclotomic rationals or multivariate rational functions.

A session fixes one :class:`ScalarContext`, either

* ``cyclotomic(N)`` — the field Q(zeta_N), elements stored as rational
  coefficient vectors reduced modulo the N-th cyclotomic polynomial, or
* ``parameters(names)`` — the rational function field Q(q1,...,qk),
  elements stored as coprime integer-polynomial fractions with positive
  (grlex-leading) denominator.

Both representations are canonical: two scalars are equal iff their
payloads are identical.  Zero-testing is exact; there is no floating
point anywhere.
"""

import threading
import weakref
from fractions import Fraction

from .polys import (grlex_key, p_add, p_const, p_content, p_divexact,
                    p_gcd, p_is_const, p_leading, p_mul, p_neg)

CYCLOTOMIC = "cyclotomic"
PARAMETERS = "parameters"


def _poly_div(num, den):
    """Quotient/remainder of dense Fraction coefficient lists."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = c
        for i, d in enumerate(den):
            num[i + shift] -= c * d
        num.pop()
    return q, num


def cyclotomic_polynomial(n, _cache={}):
    """Integer coefficient list of Phi_n, constant term first."""
    if n in _cache:
        return _cache[n]
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_div(poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
            if any(rem):
                raise AssertionError(f"Phi_{d} does not divide x^{n} - 1 after "
                                     "the lower cyclotomic factors")
    result = tuple(int(c) for c in poly)
    _cache[n] = result
    return result


class ScalarError(ValueError):
    pass


class BackendMismatch(ScalarError):
    pass


class ScalarContext:
    """Shared arithmetic backend for all scalars of a session."""

    def __init__(self, backend, order=None, names=None):
        if backend == CYCLOTOMIC:
            if not isinstance(order, int) or order < 1:
                raise ScalarError("cyclotomic order must be a positive integer")
            self.backend = CYCLOTOMIC
            self.order = order
            self.names = None
            phi = cyclotomic_polynomial(order)
            self.degree = len(phi) - 1
            self._phi = phi
            self._reduction = self._reduction_table(phi)
        elif backend == PARAMETERS:
            names = tuple(names or ())
            if not names or len(set(names)) != len(names) or not all(names):
                raise ScalarError("parameter names must be distinct and nonempty")
            self.backend = PARAMETERS
            self.order = None
            self.names = names
            self.nvars = len(names)
        else:
            raise ScalarError(f"unknown backend {backend!r}")
        self.zero = self._make_zero()
        self.one = self.integer(1)
        # the canonical Bicharacter of each entry matrix over this context
        self.bicharacters = weakref.WeakValueDictionary()
        self.bicharacters_lock = threading.Lock()
        # Pascal rows of the Gaussian binomials, per base payload; each value
        # is an immutable tuple of rows that is only ever replaced whole
        self.q_binomial_rows = {}

    @staticmethod
    def cyclotomic(order):
        return ScalarContext(CYCLOTOMIC, order=order)

    @staticmethod
    def parameters(*names):
        return ScalarContext(PARAMETERS, names=names)

    def _reduction_table(self, phi):
        # x^k mod Phi_N for k = deg .. 2*deg-2
        deg = len(phi) - 1
        table = []
        current = [Fraction(-phi[i], phi[deg]) for i in range(deg)]
        table.append(tuple(current))
        for _ in range(deg - 2):
            nxt = [Fraction(0)] + current[:-1]
            top = current[-1]
            if top:
                for i in range(deg):
                    nxt[i] += top * table[0][i]
            current = nxt
            table.append(tuple(current))
        return table

    def __eq__(self, other):
        return (isinstance(other, ScalarContext)
                and self.backend == other.backend
                and self.order == other.order
                and self.names == other.names)

    def __hash__(self):
        return hash((self.backend, self.order, self.names))

    def __repr__(self):
        if self.backend == CYCLOTOMIC:
            return f"ScalarContext.cyclotomic({self.order})"
        return f"ScalarContext.parameters{self.names}"

    # constructors ------------------------------------------------------

    def _make_zero(self):
        if self.backend == CYCLOTOMIC:
            return Scalar(self, (Fraction(0),) * self.degree)
        return Scalar(self, ((), p_key(p_const(1, self.nvars))))

    def integer(self, n):
        return self.rational(Fraction(n))

    def rational(self, q):
        q = Fraction(q)
        if self.backend == CYCLOTOMIC:
            coeffs = [Fraction(0)] * self.degree
            coeffs[0] = q
            return Scalar(self, tuple(coeffs))
        num = p_const(q.numerator, self.nvars)
        den = p_const(q.denominator, self.nvars)
        return Scalar(self, (p_key(num), p_key(den)))

    def root_of_unity(self, k=1):
        """zeta_N^k in the cyclotomic backend."""
        if self.backend != CYCLOTOMIC:
            raise BackendMismatch("root_of_unity requires the cyclotomic backend")
        k %= self.order
        zeta = Scalar(self, self._reduce([Fraction(0), Fraction(1)]))
        return zeta ** k

    def generator(self, name):
        if self.backend != PARAMETERS:
            raise BackendMismatch("generator requires the parameter backend")
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Scalar(self, (((exps, 1),), p_key(p_const(1, self.nvars))))

    def monomial(self, coeff, exps):
        """coeff * prod(names[i] ** exps[i]); exponents may be negative."""
        if self.backend != PARAMETERS:
            raise BackendMismatch("monomial requires the parameter backend")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero
        nume = tuple(max(e, 0) for e in exps)
        dene = tuple(max(-e, 0) for e in exps)
        num = {nume: coeff.numerator}
        den = {dene: coeff.denominator}
        return Scalar(self, _normalize(num, den))

    def _reduce(self, coeffs):
        deg = self.degree
        coeffs = list(coeffs) + [Fraction(0)] * max(0, deg - len(coeffs))
        for k in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[k]
            if c:
                row = self._reduction[k - deg]
                for i in range(deg):
                    coeffs[i] += c * row[i]
            coeffs.pop()
        return tuple(coeffs)


def p_key(f):
    """Freeze a polynomial dict to a sorted, hashable tuple."""
    return tuple(sorted(f.items(), key=lambda kv: grlex_key(kv[0]), reverse=True))


def p_of(key):
    return dict(key)


def _normalize(num, den):
    """Canonical fraction: coprime, den content-free with positive lead."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ((), p_key(p_const(1, len(next(iter(den))))))
    g = p_gcd(num, den)
    if not (p_is_const(g) and p_content(g) == 1):
        num = p_divexact(num, g)
        den = p_divexact(den, g)
    if p_leading(den)[1] < 0:
        num, den = p_neg(num), p_neg(den)
    return (p_key(num), p_key(den))


class Scalar:
    """Immutable element of the session field, in canonical form."""

    __slots__ = ("ctx", "payload", "_hash")

    def __init__(self, ctx, payload):
        self.ctx = ctx
        self.payload = payload
        self._hash = None

    # predicates --------------------------------------------------------

    def is_zero(self):
        if self.ctx.backend == CYCLOTOMIC:
            return not any(self.payload)
        return not self.payload[0]

    def is_one(self):
        return self == self.ctx.one

    def is_rational(self):
        """The rational number this scalar equals, or None."""
        if self.ctx.backend == CYCLOTOMIC:
            if any(self.payload[1:]):
                return None
            return self.payload[0]
        mono = self.as_monomial()
        if mono is None or any(mono[1]):
            return None
        return mono[0]

    def as_monomial(self):
        """(coefficient, Laurent exponents) if this is c*q^a, else None."""
        if self.ctx.backend != PARAMETERS:
            return None
        num, den = self.payload
        if len(num) != 1 or len(den) != 1:
            return None
        (ne, nc), (de, dc) = num[0], den[0]
        return Fraction(nc, dc), tuple(a - b for a, b in zip(ne, de))

    # arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise BackendMismatch("scalars from different contexts")

    def __add__(self, other):
        self._check(other)
        if self.ctx.backend == CYCLOTOMIC:
            return Scalar(self.ctx, tuple(a + b for a, b in zip(self.payload, other.payload)))
        n1, d1 = p_of(self.payload[0]), p_of(self.payload[1])
        n2, d2 = p_of(other.payload[0]), p_of(other.payload[1])
        g = p_gcd(d1, d2)
        if p_is_const(g) and p_content(g) == 1:
            return Scalar(self.ctx, _normalize(p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2)))
        a, b = p_divexact(d1, g), p_divexact(d2, g)
        num = p_add(p_mul(n1, b), p_mul(n2, a))
        return Scalar(self.ctx, _normalize(num, p_mul(p_mul(a, b), g)))

    def __neg__(self):
        if self.ctx.backend == CYCLOTOMIC:
            return Scalar(self.ctx, tuple(-a for a in self.payload))
        return Scalar(self.ctx, (p_key(p_neg(p_of(self.payload[0]))), self.payload[1]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.ctx.backend == CYCLOTOMIC:
            a, b = self.payload, other.payload
            deg = self.ctx.degree
            conv = [Fraction(0)] * (2 * deg - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            conv[i + j] += x * y
            return Scalar(self.ctx, self.ctx._reduce(conv))
        n1, d1 = p_of(self.payload[0]), p_of(self.payload[1])
        n2, d2 = p_of(other.payload[0]), p_of(other.payload[1])
        g1, g2 = p_gcd(n1, d2), p_gcd(n2, d1)
        if not (p_is_const(g1) and p_content(g1) == 1):
            n1, d2 = p_divexact(n1, g1), p_divexact(d2, g1)
        if not (p_is_const(g2) and p_content(g2) == 1):
            n2, d1 = p_divexact(n2, g2), p_divexact(d1, g2)
        return Scalar(self.ctx, _normalize(p_mul(n1, n2), p_mul(d1, d2)))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.ctx.backend == PARAMETERS:
            num, den = p_of(self.payload[0]), p_of(self.payload[1])
            return Scalar(self.ctx, _normalize(den, num))
        # extended Euclid in Q[x] against Phi_N
        phi = [Fraction(c) for c in self.ctx._phi]
        r0, r1 = phi, list(self.payload)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return Scalar(self.ctx, self.ctx._reduce(inv))
            q, rem = _poly_div(r0, r1)
            qs = _poly_mul_frac(q, s1)
            s_new = [a - b for a, b in
                     zip(s0 + [Fraction(0)] * max(0, len(qs) - len(s0)),
                         qs + [Fraction(0)] * max(0, len(s0) - len(qs)))]
            r0, r1 = r1, rem
            s0, s1 = s1, s_new

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar powers must be integers")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = self.ctx.one
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.ctx == other.ctx
                and self.payload == other.payload)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self.payload))
        return self._hash

    def multiplicative_order(self):
        """Order as a root of unity, or None if not torsion."""
        if self.is_zero():
            return None
        if self.ctx.backend == PARAMETERS:
            q = self.is_rational()
            if q == 1:
                return 1
            if q == -1:
                return 2
            return None
        bound = self.ctx.order if self.ctx.order % 2 == 0 else 2 * self.ctx.order
        power = self
        for m in range(1, bound + 1):
            if power.is_one():
                return m
            power = power * self
        return None

    # rendering ---------------------------------------------------------

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({render_scalar(self)})"


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# q-combinatorics --------------------------------------------------------

def q_int(m, q):
    """1 + q + ... + q^(m-1), with [0]=0 and [-m] = -[m]."""
    if q.is_zero():
        raise ScalarError("q-integer base must be nonzero")
    if m == 0:
        return q.ctx.zero
    if m < 0:
        return -q_int(-m, q)
    total = q.ctx.one
    power = q.ctx.one
    for _ in range(m - 1):
        power = power * q
        total = total + power
    return total


def q_factorial(m, q):
    if m < 0:
        raise ScalarError("q-factorial of a negative integer")
    if q.is_zero():
        raise ScalarError("q-factorial base must be nonzero")
    result = q.ctx.one
    for n in range(1, m + 1):
        result = result * q_int(n, q)
    return result


def q_binomial(m, n, q):
    """Gaussian binomial, by the Pascal recursion on the quantum plane."""
    if m < 0:
        raise ScalarError("q-binomial upper index must be nonnegative")
    if q.is_zero():
        raise ScalarError("q-binomial base must be nonzero")
    if n < 0 or n > m:
        return q.ctx.zero
    memo = q.ctx.q_binomial_rows
    rows = memo.get(q.payload, ((q.ctx.one,),))
    if len(rows) <= m:
        rows = list(rows)
        row = rows[-1]
        qpow = [q.ctx.one]
        for _ in range(1, m):
            qpow.append(qpow[-1] * q)
        for k in range(len(rows), m + 1):
            new = [q.ctx.one]
            for j in range(1, k):
                new.append(row[j - 1] + qpow[j] * row[j])
            new.append(q.ctx.one)
            row = tuple(new)
            rows.append(row)
        rows = tuple(rows)
        memo[q.payload] = rows
    return rows[m][n]


# literal parser ---------------------------------------------------------

class ParseError(ScalarError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]


def parse_scalar(ctx, text):
    """Parse a scalar literal: rationals, parameter monomials, sums,
    products, powers, and the cyclotomic generator ``z``."""
    lex = _Lexer(text)
    value = _parse_sum(ctx, lex)
    if lex.peek() is not None:
        raise ParseError(f"unexpected character {lex.peek()!r}", lex.pos)
    return value


def _parse_sum(ctx, lex):
    value = _parse_product(ctx, lex)
    while True:
        ch = lex.peek()
        if ch == "+":
            lex.pos += 1
            value = value + _parse_product(ctx, lex)
        elif ch == "-":
            lex.pos += 1
            value = value - _parse_product(ctx, lex)
        else:
            return value


def _parse_product(ctx, lex):
    value = _parse_factor(ctx, lex)
    while True:
        ch = lex.peek()
        if ch == "*":
            lex.pos += 1
            value = value * _parse_factor(ctx, lex)
        elif ch == "/":
            lex.pos += 1
            den = _parse_factor(ctx, lex)
            if den.is_zero():
                raise ParseError("division by zero", lex.pos)
            value = value / den
        else:
            return value


def _parse_factor(ctx, lex):
    ch = lex.peek()
    if ch == "-":
        lex.pos += 1
        return -_parse_factor(ctx, lex)
    value = _parse_atom(ctx, lex)
    if lex.peek() == "^":
        lex.pos += 1
        value = value ** _parse_exponent(lex)
    return value


def _parse_exponent(lex):
    ch = lex.peek()
    sign = 1
    if ch == "-":
        lex.pos += 1
        sign = -1
        ch = lex.peek()
    if ch is None or not ch.isdigit():
        raise ParseError("expected integer exponent", lex.pos)
    start = lex.pos
    while lex.pos < len(lex.text) and lex.text[lex.pos].isdigit():
        lex.pos += 1
    return sign * int(lex.text[start:lex.pos])


def _parse_atom(ctx, lex):
    ch = lex.peek()
    if ch is None:
        raise ParseError("unexpected end of input", lex.pos)
    if ch == "(":
        lex.pos += 1
        value = _parse_sum(ctx, lex)
        if lex.peek() != ")":
            raise ParseError("expected ')'", lex.pos)
        lex.pos += 1
        return value
    if ch.isdigit():
        start = lex.pos
        while lex.pos < len(lex.text) and lex.text[lex.pos].isdigit():
            lex.pos += 1
        num = int(lex.text[start:lex.pos])
        # rational literal a/b, only when b is a bare integer
        save = lex.pos
        if lex.peek() == "/":
            lex.pos += 1
            ch2 = lex.peek()
            if ch2 is not None and ch2.isdigit():
                start2 = lex.pos
                while lex.pos < len(lex.text) and lex.text[lex.pos].isdigit():
                    lex.pos += 1
                den = int(lex.text[start2:lex.pos])
                if den == 0:
                    raise ParseError("zero denominator", start2)
                return ctx.rational(Fraction(num, den))
            lex.pos = save
        return ctx.integer(num)
    if ch.isalpha():
        start = lex.pos
        while lex.pos < len(lex.text) and (lex.text[lex.pos].isalnum() or lex.text[lex.pos] == "_"):
            lex.pos += 1
        name = lex.text[start:lex.pos]
        if ctx.backend == CYCLOTOMIC:
            if name != "z":
                raise ParseError(f"unknown symbol {name!r} (cyclotomic backend uses 'z')", start)
            return ctx.root_of_unity(1)
        if name not in ctx.names:
            raise ParseError(f"unknown parameter {name!r}", start)
        return ctx.generator(name)
    raise ParseError(f"unexpected character {ch!r}", lex.pos)


# rendering --------------------------------------------------------------

def _render_frac(q):
    return str(q) if q.denominator != 1 else str(q.numerator)


def _render_cyclotomic(scalar):
    parts = []
    for k in range(len(scalar.payload) - 1, -1, -1):
        c = scalar.payload[k]
        if not c:
            continue
        if k == 0:
            body = _render_frac(abs(c))
        else:
            mono = "z" if k == 1 else f"z^{k}"
            body = mono if abs(c) == 1 else f"{_render_frac(abs(c))}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _render_poly(poly_key, names):
    parts = []
    for exps, c in poly_key:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def render_scalar(scalar):
    if scalar.ctx.backend == CYCLOTOMIC:
        return _render_cyclotomic(scalar)
    mono = scalar.as_monomial()
    if mono is not None:
        coeff, exps = mono
        factors = []
        for name, e in zip(scalar.ctx.names, exps):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        if not factors:
            return _render_frac(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{_render_frac(coeff)}*{body}"
    num, den = scalar.payload
    num_s = _render_poly(num, scalar.ctx.names)
    if den == p_key(p_const(1, scalar.ctx.nvars)):
        return num_s
    den_s = _render_poly(den, scalar.ctx.names)
    num_wrapped = f"({num_s})" if len(num) > 1 else num_s
    den_bare = len(den) == 1 and all(e == 0 for e in den[0][0])
    den_wrapped = den_s if den_bare else f"({den_s})"
    return f"{num_wrapped}/{den_wrapped}"
