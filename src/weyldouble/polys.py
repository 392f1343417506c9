"""Multivariate polynomials over the integers, as exponent-tuple dicts.

A polynomial in k variables is a dict mapping exponent tuples of length k
to nonzero int coefficients.  The zero polynomial is the empty dict.
Monomial order is graded lexicographic (total degree first, then the
exponent tuple, earlier variables weighing more).
"""

from math import gcd


def p_const(c, nvars):
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def p_is_const(f):
    return all(all(e == 0 for e in exps) for exps in f)


def grlex_key(exps):
    return (sum(exps), exps)


def p_leading(f):
    """Leading (exponents, coefficient) under grlex; f must be nonzero."""
    exps = max(f, key=grlex_key)
    return exps, f[exps]


def p_add(f, g):
    out = dict(f)
    for exps, c in g.items():
        s = out.get(exps, 0) + c
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return out


def p_neg(f):
    return {exps: -c for exps, c in f.items()}


def p_sub(f, g):
    return p_add(f, p_neg(g))


def p_mul(f, g):
    if not f or not g:
        return {}
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(exps, 0) + c1 * c2
            if s:
                out[exps] = s
            else:
                del out[exps]
    return out


def p_mul_term(f, exps, c):
    if not f or c == 0:
        return {}
    return {tuple(a + b for a, b in zip(e, exps)): cc * c for e, cc in f.items()}


def p_content(f):
    g = 0
    for c in f.values():
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def p_div_int(f, n):
    return {exps: c // n for exps, c in f.items()}


def p_divexact(f, g):
    """Exact division f / g; raises ValueError if g does not divide f."""
    if not g:
        raise ValueError("division by zero polynomial")
    if not f:
        return {}
    ge, gc = p_leading(g)
    out = {}
    rem = dict(f)
    while rem:
        fe, fc = p_leading(rem)
        exps = tuple(a - b for a, b in zip(fe, ge))
        if any(e < 0 for e in exps) or fc % gc:
            raise ValueError("inexact polynomial division")
        q = fc // gc
        out[exps] = q
        rem = p_sub(rem, p_mul_term(g, exps, q))
    return out


def _deg_v(f, v):
    return max((exps[v] for exps in f), default=-1)


def _v_coeffs(f, v):
    """Split f by the exponent of variable v; coefficients keep arity."""
    out = {}
    for exps, c in f.items():
        d = exps[v]
        key = exps[:v] + (0,) + exps[v + 1:]
        coeff = out.setdefault(d, {})
        coeff[key] = c
    return out


def _v_leadcoeff(f, v):
    d = _deg_v(f, v)
    out = {}
    for exps, c in f.items():
        if exps[v] == d:
            out[exps[:v] + (0,) + exps[v + 1:]] = c
    return out


def _v_shift(f, v, d):
    return {exps[:v] + (exps[v] + d,) + exps[v + 1:]: c for exps, c in f.items()}


def p_prem(f, g, v):
    """Pseudo-remainder of f by g in the variable v."""
    n = _deg_v(g, v)
    lcg = _v_leadcoeff(g, v)
    r = f
    while r and _deg_v(r, v) >= n:
        d = _deg_v(r, v)
        lcr = _v_leadcoeff(r, v)
        r = p_sub(p_mul(lcg, r), p_mul(_v_shift(lcr, v, d - n), g))
    return r


def _v_content(f, v):
    coeffs = list(_v_coeffs(f, v).values())
    g = {}
    for c in coeffs:
        g = p_gcd(g, c)
        if p_is_const(g) and p_content(g) == 1:
            break
    return g


def p_positive(f):
    """Flip sign so the grlex leading coefficient is positive."""
    if f and p_leading(f)[1] < 0:
        return p_neg(f)
    return f


def _monomial_gcd(f, g):
    """gcd when g is a single term: content gcd times common variable powers."""
    (ge, gc), = g.items()
    c = gcd(p_content(f), abs(gc))
    mins = list(ge)
    for exps in f:
        for i, e in enumerate(exps):
            if e < mins[i]:
                mins[i] = e
        if not any(mins):
            break
    return {tuple(mins): c}


def _active_vars(f, g):
    nvars = len(next(iter(f)))
    active = []
    for i in range(nvars):
        if _deg_v(f, i) > 0 or _deg_v(g, i) > 0:
            active.append(i)
    return active


def _gcd_univariate(f, g, v):
    """Primitive PRS on dense integer coefficient lists in the variable v."""
    def dense(p):
        out = [0] * (_deg_v(p, v) + 1)
        for exps, c in p.items():
            out[exps[v]] = c
        return out

    a, b = dense(f), dense(g)

    def content(p):
        h = 0
        for c in p:
            h = gcd(h, abs(c))
            if h == 1:
                return 1
        return h

    def primitive(p):
        h = content(p)
        return p if h in (0, 1) else [c // h for c in p]

    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b
        r = a[:]
        lb = b[-1]
        while len(r) >= len(b) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            lr = r[-1]
            shift = len(r) - len(b)
            r = [c * lb for c in r]
            for idx, bc in enumerate(b):
                r[idx + shift] -= lr * bc
            while r and r[-1] == 0:
                r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not any(r):
            r = []
        a, b = b, primitive(r)
    if a[-1] < 0:
        a = [-c for c in a]
    nvars = len(next(iter(f)))
    out = {}
    for e, c in enumerate(a):
        if c:
            exps = [0] * nvars
            exps[v] = e
            out[tuple(exps)] = c
    return out


def p_gcd(f, g):
    """Greatest common divisor, positive leading coefficient.

    Single terms and single-variable inputs take dedicated fast paths;
    the general case runs primitive pseudo-remainder sequences recursing
    on the variables.
    """
    if not f:
        return p_positive(g)
    if not g:
        return p_positive(f)
    if len(g) == 1:
        return _monomial_gcd(f, g)
    if len(f) == 1:
        return _monomial_gcd(g, f)
    c = gcd(p_content(f), p_content(g))
    f = p_div_int(f, p_content(f))
    g = p_div_int(g, p_content(g))
    nvars = len(next(iter(f)))
    active = _active_vars(f, g)
    if not active:
        return p_const(c, nvars)
    if p_is_const(f) or p_is_const(g):
        return p_const(c, nvars)
    if len(active) == 1:
        v = active[0]
        if all(exps[j] == 0 for exps in list(f) + list(g)
               for j in range(nvars) if j != v):
            result = _gcd_univariate(f, g, v)
            return p_positive(p_mul_term(result, (0,) * nvars, c))
    v = active[0]
    cf, cg = _v_content(f, v), _v_content(g, v)
    a = p_divexact(f, cf)
    b = p_divexact(g, cg)
    if _deg_v(a, v) < _deg_v(b, v):
        a, b = b, a
    while True:
        r = p_prem(a, b, v)
        if not r:
            break
        if _deg_v(r, v) == 0:
            b = p_const(1, nvars)
            break
        a, b = b, p_divexact(r, _v_content(r, v))
    result = p_mul(p_gcd(cf, cg), p_positive(p_div_int(b, p_content(b))))
    return p_positive(p_mul_term(result, (0,) * nvars, c))
