"""Exact linear algebra over the session field (lists of Scalars)."""


def mat_zero_scalar(ctx, rows, cols):
    return [[ctx.zero] * cols for _ in range(rows)]


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not matrix or not matrix[0]:
        return [], []
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rank(matrix):
    return len(rref(matrix)[1])


def nullspace(matrix, ctx):
    """Basis of {x : matrix @ x = 0} as a list of column vectors."""
    if not matrix:
        return []
    cols = len(matrix[0])
    echelon, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ctx.zero] * cols
        vec[f] = ctx.one
        for row, p in zip(echelon, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def in_span(vectors, target, ctx):
    """Whether target lies in the span of the given row vectors."""
    if all(x.is_zero() for x in target):
        return True
    if not vectors:
        return False
    return rank(vectors) == rank(vectors + [target])


def mat_mul(a, b, ctx):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = mat_zero_scalar(ctx, rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x.is_zero():
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                if not bk[j].is_zero():
                    row[j] = row[j] + x * bk[j]
    return out


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)
