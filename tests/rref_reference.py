"""The plain-list RREF the tests check the packed-row kernels against, and
the transpose and coordinate subspaces, built through the checked
constructors."""

from lsc.linalg import MatrixFq, Subspace


def rref_generic(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """RREF over F_q (q prime), one list per row, in place.

    Returns (reduced rows including trailing zero rows, pivot column list).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, q)
        if inv != 1:
            rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def transpose(matrix: MatrixFq) -> MatrixFq:
    """The cols x rows transpose, by the checked constructor."""
    columns = list(zip(*matrix.entries)) if matrix.rows else [()] * matrix.cols
    return MatrixFq(matrix.q, matrix.cols, matrix.rows, columns)


def unit_span(q: int, ambient_dim: int, columns) -> Subspace:
    """The span of the unit vectors at ``columns`` (ascending, 0-based), by
    the checked constructors: those unit rows are its canonical basis."""
    rows = [tuple(int(c == col) for c in range(ambient_dim)) for col in columns]
    return Subspace(ambient_dim, MatrixFq(q, len(rows), ambient_dim, rows))


def full_space(q: int, ambient_dim: int) -> Subspace:
    """F_q^ambient_dim, its canonical basis the identity."""
    return unit_span(q, ambient_dim, range(ambient_dim))
