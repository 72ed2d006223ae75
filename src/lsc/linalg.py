"""Matrices over F_q and canonical subspaces of F_q^N.

A subspace is stored as its reduced-row-echelon basis with zero rows
dropped, which makes RREF a canonical form: two subspaces are equal iff
their stored bases are entry-identical.  The zero subspace has a 0 x N
basis.

Most operations reduce to one Gaussian elimination; for q = 2 the
elimination runs on bit-packed rows (one int per row, column 0 in the
most significant bit) which is an order of magnitude faster and produces
the same canonical output as the generic path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, ParameterError

_ENUMERATION_CAP = 1 << 20


def _rref_generic(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
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


def _rref_gf2(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    packed = []
    for row in rows:
        v = 0
        for x in row:
            v = (v << 1) | x
        packed.append(v)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        bit = 1 << (ncols - 1 - col)
        pivot = next((i for i in range(r, len(packed)) if packed[i] & bit), None)
        if pivot is None:
            continue
        packed[r], packed[pivot] = packed[pivot], packed[r]
        prow = packed[r]
        for i in range(len(packed)):
            if i != r and packed[i] & bit:
                packed[i] ^= prow
        pivots.append(col)
        r += 1
        if r == len(packed):
            break
    out = []
    for v in packed:
        out.append([(v >> (ncols - 1 - c)) & 1 for c in range(ncols)])
    return out, pivots


def rref(rows: Sequence[Sequence[int]], ncols: int, q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q.

    Args:
        rows: the matrix rows (not mutated).
        ncols: column count (needed when rows is empty).
        q: field order (prime).

    Returns:
        (reduced rows including trailing zero rows, pivot column list).
    """
    work = [list(r) for r in rows]
    if q == 2:
        return _rref_gf2(work, ncols)
    return _rref_generic(work, q)


@dataclass(frozen=True)
class MatrixFq:
    """An immutable rows x cols matrix over F_q, entries row-major."""

    q: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ParameterError("q must be at least 2")
        if self.rows < 0 or self.cols < 0:
            raise ParameterError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ParameterError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ParameterError("ragged matrix rows")
            if any(not 0 <= x < self.q for x in row):
                raise ParameterError(f"entries must lie in [0, {self.q})")

    @classmethod
    def from_rows(cls, q: int, rows: Iterable[Sequence[int]], cols: int | None = None) -> "MatrixFq":
        tup = tuple(tuple(x % q for x in row) for row in rows)
        if cols is None:
            if not tup:
                raise ParameterError("cols required for an empty matrix")
            cols = len(tup[0])
        return cls(q, len(tup), cols, tup)

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "MatrixFq":
        return cls(q, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, q: int, n: int) -> "MatrixFq":
        return cls(
            q, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @classmethod
    def random(cls, q: int, rows: int, cols: int, rng) -> "MatrixFq":
        return cls(
            q,
            rows,
            cols,
            tuple(tuple(rng.randbelow(q) for _ in range(cols)) for _ in range(rows)),
        )

    def _check_shape(self, other: "MatrixFq") -> None:
        if self.q != other.q:
            raise ParameterError("matrices over different fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise ParameterError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "MatrixFq") -> "MatrixFq":
        self._check_shape(other)
        q = self.q
        return MatrixFq(
            q,
            self.rows,
            self.cols,
            tuple(
                tuple((a + b) % q for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "MatrixFq") -> "MatrixFq":
        self._check_shape(other)
        q = self.q
        return MatrixFq(
            q,
            self.rows,
            self.cols,
            tuple(
                tuple((a - b) % q for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.q != other.q:
            raise ParameterError("matrices over different fields")
        if self.cols != other.rows:
            raise ParameterError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        q = self.q
        cols_t = tuple(zip(*other.entries)) if other.entries else ()
        out = []
        for row in self.entries:
            if other.cols == 0:
                out.append(())
                continue
            out.append(
                tuple(sum(a * b for a, b in zip(row, col)) % q for col in cols_t)
            )
        return MatrixFq(q, self.rows, other.cols, tuple(out))

    def transpose(self) -> "MatrixFq":
        if not self.entries:
            return MatrixFq(self.q, self.cols, 0, tuple(() for _ in range(self.cols)))
        return MatrixFq(self.q, self.cols, self.rows, tuple(zip(*self.entries)))

    def hstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.rows != other.rows or self.q != other.q:
            raise ParameterError("hstack requires equal row counts and field")
        return MatrixFq(
            self.q,
            self.rows,
            self.cols + other.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def vstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.cols != other.cols or self.q != other.q:
            raise ParameterError("vstack requires equal column counts and field")
        return MatrixFq(
            self.q, self.rows + other.rows, self.cols, self.entries + other.entries
        )

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.entries)

    def rref(self) -> tuple["MatrixFq", tuple[int, ...]]:
        reduced, pivots = rref(self.entries, self.cols, self.q)
        return (
            MatrixFq(self.q, self.rows, self.cols, tuple(tuple(r) for r in reduced)),
            tuple(pivots),
        )

    def rank(self) -> int:
        _, pivots = rref(self.entries, self.cols, self.q)
        return len(pivots)

    def kernel_basis(self) -> "MatrixFq":
        """Basis (as rows, one per free column, RREF-canonical) of {x : M x = 0}."""
        reduced, pivots = rref(self.entries, self.cols, self.q)
        q = self.q
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        rows = []
        for f in free:
            vec = [0] * self.cols
            vec[f] = 1
            for r, p in enumerate(pivots):
                vec[p] = (-reduced[r][f]) % q
            rows.append(tuple(vec))
        return MatrixFq(q, len(rows), self.cols, tuple(rows))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^N held as its canonical RREF basis (no zero rows)."""

    ambient_dim: int
    basis: MatrixFq

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ParameterError("basis width does not match ambient dimension")
        if self.basis.rows > self.ambient_dim:
            raise ParameterError("basis has more rows than the ambient dimension")
        last = -1
        for i, row in enumerate(self.basis.entries):
            pivot = next((c for c, x in enumerate(row) if x), None)
            if pivot is None:
                raise ParameterError("canonical basis must not contain zero rows")
            if pivot <= last:
                raise ParameterError("basis rows are not in echelon order")
            if row[pivot] != 1:
                raise ParameterError("pivot entries must equal 1")
            if any(self.basis.entries[j][pivot] for j in range(self.basis.rows) if j != i):
                raise ParameterError("pivot columns must be elsewhere zero")
            last = pivot

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, q: int, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, MatrixFq(q, 0, ambient_dim, ()))

    @classmethod
    def full(cls, q: int, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, MatrixFq.identity(q, ambient_dim))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim or self.q != other.q:
            raise ParameterError("subspaces live in different ambient spaces")

    def contains_vector(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ParameterError("vector length does not match ambient dimension")
        q = self.q
        residue = [x % q for x in vector]
        for row in self.basis.entries:
            pivot = next(c for c, x in enumerate(row) if x)
            f = residue[pivot]
            if f:
                residue = [(a - f * b) % q for a, b in zip(residue, row)]
        return not any(residue)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.basis.entries)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the subspace (guarded by the enumeration cap)."""
        if self.q**self.dim > _ENUMERATION_CAP:
            raise CapacityError("subspace too large to enumerate")
        q = self.q
        for coeffs in itertools.product(range(q), repeat=self.dim):
            vec = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis.entries):
                if c:
                    vec = [(a + c * b) % q for a, b in zip(vec, row)]
            yield tuple(vec)

    def __add__(self, other: "Subspace") -> "Subspace":
        return subspace_sum(self, other)

    def __and__(self, other: "Subspace") -> "Subspace":
        return intersection(self, other)

    def __repr__(self) -> str:
        rows = ",".join("".join(map(str, r)) for r in self.basis.entries)
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, [{rows}])"


def row_space(matrix: MatrixFq, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the rows of ``matrix``."""
    if matrix.cols != ambient_dim:
        raise ParameterError("matrix width does not match ambient dimension")
    reduced, pivots = rref(matrix.entries, matrix.cols, matrix.q)
    basis = MatrixFq(
        matrix.q, len(pivots), ambient_dim, tuple(tuple(r) for r in reduced[: len(pivots)])
    )
    return Subspace(ambient_dim, basis)


def subspace_sum(v: Subspace, u: Subspace) -> Subspace:
    """Smallest subspace containing both operands (span of the joint bases)."""
    v._check_ambient(u)
    stacked = v.basis.vstack(u.basis)
    return row_space(stacked, v.ambient_dim)


def intersection(v: Subspace, u: Subspace) -> Subspace:
    """Largest subspace contained in both operands.

    Uses the Zassenhaus block trick: row-reduce [B_v | B_v ; B_u | 0];
    rows whose left half vanished span the intersection in the right half.
    """
    v._check_ambient(u)
    n = v.ambient_dim
    q = v.q
    if v.dim == 0 or u.dim == 0:
        return Subspace.zero(q, n)
    block = [list(row) + list(row) for row in v.basis.entries]
    block += [list(row) + [0] * n for row in u.basis.entries]
    reduced, pivots = rref(block, 2 * n, q)
    rows = []
    for row in reduced:
        if any(row[:n]):
            continue
        if any(row[n:]):
            rows.append(tuple(row[n:]))
    if not rows:
        return Subspace.zero(q, n)
    return row_space(MatrixFq(q, len(rows), n, tuple(rows)), n)


def is_direct_sum(v: Subspace, u: Subspace) -> bool:
    """True iff the operands intersect trivially."""
    v._check_ambient(u)
    # dim(V) + dim(U) == dim(V+U) is equivalent and needs one elimination
    return subspace_sum(v, u).dim == v.dim + u.dim


def subspace_distance(v: Subspace, u: Subspace) -> int:
    """dim(V+U) - dim(V∩U) = dim(V) + dim(U) - 2 dim(V∩U)."""
    v._check_ambient(u)
    return 2 * subspace_sum(v, u).dim - v.dim - u.dim


def rank_distance(x: MatrixFq, y: MatrixFq) -> int:
    """rank(X - Y) for equal-shape matrices over the same field."""
    return (x - y).rank()


def coordinate_zero_subspace(q: int, ambient_dim: int, zero_coords: Iterable[int]) -> Subspace:
    """Subspace of all vectors vanishing on the given 1-based coordinates."""
    zset = set(zero_coords)
    for idx in zset:
        if not 1 <= idx <= ambient_dim:
            raise ParameterError(f"coordinate {idx} outside [1, {ambient_dim}]")
    rows = []
    for c in range(ambient_dim):
        if (c + 1) in zset:
            continue
        row = [0] * ambient_dim
        row[c] = 1
        rows.append(tuple(row))
    basis = MatrixFq(q, len(rows), ambient_dim, tuple(rows))
    return Subspace(ambient_dim, basis)


# --- randomized constructions used by the channel and the test suites ---

_SAMPLING_ATTEMPT_CAP = 1000


def random_full_rank_matrix(q: int, rows: int, cols: int, rng) -> MatrixFq:
    """Uniform rows x cols matrix conditioned on full rank (rejection)."""
    if rows > cols:
        raise ParameterError("cannot have rank beyond the column count")
    for _ in range(_SAMPLING_ATTEMPT_CAP):
        m = MatrixFq.random(q, rows, cols, rng)
        if m.rank() == rows:
            return m
    raise CapacityError("full-rank rejection sampling exceeded its attempt cap")


def random_subspace(q: int, ambient_dim: int, dim: int, rng) -> Subspace:
    if not 0 <= dim <= ambient_dim:
        raise ParameterError("dimension outside [0, ambient]")
    if dim == 0:
        return Subspace.zero(q, ambient_dim)
    return row_space(random_full_rank_matrix(q, dim, ambient_dim, rng), ambient_dim)


def random_subspace_of(v: Subspace, dim: int, rng) -> Subspace:
    """Uniform-coefficient subspace of ``v`` with the requested dimension."""
    if not 0 <= dim <= v.dim:
        raise ParameterError("dimension outside [0, dim(V)]")
    if dim == 0:
        return Subspace.zero(v.q, v.ambient_dim)
    coeffs = random_full_rank_matrix(v.q, dim, v.dim, rng)
    return row_space(coeffs @ v.basis, v.ambient_dim)


# --- debug dump format (one digit row per line, ambient in the header) ---


def dump_subspace(v: Subspace) -> str:
    lines = [f"ambient {v.ambient_dim}"]
    lines.extend("".join(str(x) for x in row) for row in v.basis.entries)
    return "\n".join(lines) + "\n"


def parse_subspace(text: str, q: int) -> Subspace:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ambient "):
        raise ParameterError("dump must start with an 'ambient N' header")
    ambient = int(lines[0].split()[1])
    rows = []
    for ln in lines[1:]:
        row = [int(ch) for ch in ln]
        if len(row) != ambient:
            raise ParameterError("dump row width does not match the header")
        rows.append(row)
    if not rows:
        return Subspace.zero(q, ambient)
    return row_space(MatrixFq.from_rows(q, rows, ambient), ambient)
