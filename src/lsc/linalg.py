"""Matrices over F_q and canonical subspaces of F_q^N.

A subspace is stored as its reduced-row-echelon basis with zero rows
dropped, which makes RREF a canonical form: two subspaces are equal iff
their stored bases are entry-identical.  The zero subspace has a 0 x N
basis.

Storage: a matrix keeps each row as one int, column 0 most significant,
with one fixed-width field per entry.  For q = 2 a field is one bit, so
adding rows is XOR.  For odd q a field is one byte when (q-1) + (q-1)^2 <
256 (q <= 13), else the fewest whole bytes that hold that sum: the
largest value a row operation (a row plus a multiple of another) can
leave in a field, so no field carries into the next.  A row operation
adds the multiple of the other row as one int sum, then reduces every
field mod q at once: for byte fields one ``bytes.translate`` through a
residue table, for wider fields one field at a time.  Stored rows are
always fully reduced, so equal matrices have equal rows.  Moving a run of
columns is a shift and a mask for every q.  ``MatrixFq.entries`` is the
row-major tuple view for callers, unpacked on first use and cached.  A
random matrix is packed from one batch of draws in C (``_random_rows``:
a base-2 numeral per GF(2) row, big-endian bytes per one-byte-field row).
Besides this module only ``lifted`` looks inside the packed rows: it cuts
a received basis at the header/payload boundary with ``_field_bits`` and
``_head_rows`` and reads the payload as element indices (``_index_rows``).
``gabidulin`` and ``layered`` hold some without reading them: a lift's
rows are ``_lift_rows`` (``layered`` ORs a layer's cached identity rows,
the lift of zero, with a codeword's rows), the oracle codebook hands
them back to ``_difference_ranks``, which feeds each codeword's row
differences into one forward pass with no tuple built, and the decoder
eliminates a hint's rows with ``_eliminate`` and hands the basis to
``_kernel`` and ``MatrixFq._unchecked``.  At N <= 40 one machine word holds
a GF(2) row, so elimination is a plain XOR sweep with no Four-Russians
tables (cf. M4RI, Albrecht, Bard and Hart, ACM TOMS 2010).

No elimination where the canonical basis answers.  Its rows lead at
increasing columns, so the stored rows decrease, and the rows that lead
before a column are a prefix, found by comparing each row with a power of
two (``_head_rows``).  The vectors of a subspace that vanish on the first
c columns are spanned by its basis rows that lead at c or later, already
reduced.  A layer of a layered code reads a block of columns and the
trailing payload (``shorten`` and ``embed``); the other layers' identity
columns lie before the block and in the gap after it.  With no gap (the
last layer) they are a leading block, so ``shorten`` needs no
elimination, and a lifted decode cuts the received basis in the same
way.  With a gap each row moves the block past it, a shift and a mask,
and one elimination follows.  Nor back substitution where the forward
pass answers: a rank is the size of the pass, and ``intersection``
back-substitutes only the rows of its Zassenhaus pass that lead in the
right half.

Trust: the public constructors ``MatrixFq(q, rows, cols, entries)`` and
``Subspace(ambient_dim, basis)`` check their arguments (shape, entry
range, canonical basis), and ``parse_subspace`` goes through them.
Every result that is in range and canonical by construction
(eliminations, sums, intersections, products, stacks, lifts and block
moves here; codewords, hints and channel outputs in the other modules)
is built by ``MatrixFq._unchecked`` or, for a subspace, by
``Subspace._unchecked(q, ambient_dim, rows)`` from its basis's stored
rows; both skip those checks.  The test suite points both at the checked
constructors and runs the pipeline, so the invariants they skip stay
checked.  Two space rules are written once, here, for every module:
``_check_space``, the check that a space lies in F_q^N (the operations
on two subspaces, a lifted decode, a layer's extraction and embedding),
and ``_distance``, d_S as one stacked rank of two bases
(``subspace_distance``, a layer distance and the lifted oracle).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from operator import xor
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, ParameterError

# the most vectors of a subspace, or messages of a code, an enumeration lists
_ENUMERATION_CAP = 1 << 20
_set = object.__setattr__


# --- the packed row format ---


@lru_cache(maxsize=16)
def _field_bits(q: int) -> int:
    """Bits per entry of a stored row over F_q (see the module docstring)."""
    if q == 2:
        return 1
    top = (q - 1) + (q - 1) ** 2
    return 8 * ((top.bit_length() + 7) // 8)


@lru_cache(maxsize=256)
def _reducer(q: int, ncols: int):
    """The map that reduces every field of an odd-q row of ``ncols`` fields mod q.

    A field may hold up to (q-1) + (q-1)^2 on the way in.
    """
    width = _field_bits(q)
    if width == 8:
        table = bytes(b % q for b in range(256))
        to_bytes, from_bytes = int.to_bytes, int.from_bytes
        return lambda v: from_bytes(to_bytes(v, ncols, "big").translate(table), "big")
    mask = (1 << width) - 1
    shifts = range((ncols - 1) * width, -1, -width)

    def reduce(v: int) -> int:
        out = 0
        for s in shifts:
            out = (out << width) | ((v >> s) & mask) % q
        return out

    return reduce


def _pack(rows: Iterable[Sequence[int]], q: int) -> tuple[int, ...]:
    """Row tuples with entries in [0, q) as stored rows."""
    width = _field_bits(q)
    if width == 8:
        return tuple(int.from_bytes(bytes(row), "big") for row in rows)
    out = []
    for row in rows:
        v = 0
        for x in row:
            v = (v << width) | x
        out.append(v)
    return tuple(out)


def _unpack(data: Iterable[int], q: int, ncols: int) -> tuple[tuple[int, ...], ...]:
    width = _field_bits(q)
    if width == 8:
        return tuple(tuple(v.to_bytes(ncols, "big")) for v in data)
    mask = (1 << width) - 1
    shifts = range((ncols - 1) * width, -1, -width)
    return tuple(tuple([(v >> s) & mask for s in shifts]) for v in data)


def _lead_columns(data: Iterable[int], q: int, ncols: int) -> list[int]:
    """The column of the first nonzero entry of each nonzero stored row."""
    width = _field_bits(q)
    return [ncols - 1 - (v.bit_length() - 1) // width for v in data]


def _head_rows(data: Sequence[int], bits: int) -> int:
    """How many rows of a canonical basis lead before its last ``bits`` bits.

    A canonical basis leads at increasing columns, so its stored rows
    decrease and those rows come first: a row leads there iff it is at
    least 2^bits.
    """
    bound = 1 << bits
    count = 0
    for v in data:
        if v < bound:
            break
        count += 1
    return count


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _random_rows(q: int, rows: int, cols: int, rng) -> tuple[int, ...]:
    """A uniform rows x cols matrix as stored rows, from one batch
    ``rng.randbelow_many(q, rows * cols)`` read in row-major order; cols
    is at least 1 (no caller draws an empty matrix).

    Over GF(2) a row is its draws as the digits of a base-2 numeral, over
    one-byte fields its draws as big-endian bytes: both conversions run
    in C.  Wider fields pack one entry at a time.
    """
    draws = rng.randbelow_many(q, rows * cols)
    width = _field_bits(q)
    if width == 1:
        digits = bytes(draws).translate(_BIT_DIGITS)
        return tuple(int(digits[i : i + cols], 2) for i in range(0, len(digits), cols))
    if width == 8:
        raw = bytes(draws)
        return tuple(int.from_bytes(raw[i : i + cols], "big") for i in range(0, len(raw), cols))
    return _pack(zip(*[iter(draws)] * cols), q)


# --- elimination ---


def _echelon_gf2(rows: Iterable[int], by_lead: dict[int, int] | None = None) -> dict[int, int]:
    """Forward pass over packed rows: kept rows keyed by their bit lengths.

    Each incoming row loses its top bit to the kept row that leads with it
    until its top bit is new, and is then kept.  The kept rows have distinct
    leading bits, so they are an echelon form of the same space, and their
    count is its rank.  Given ``by_lead``, the forward pass of earlier rows,
    the pass extends that dict in place: it grows by one for each incoming
    row independent of everything before it.
    """
    if by_lead is None:
        by_lead = {}
    for v in rows:
        while v:
            lead = v.bit_length()
            row = by_lead.get(lead)
            if row is None:
                by_lead[lead] = v
                break
            v ^= row
    return by_lead


def _echelon_odd(
    rows: Iterable[int], q: int, ncols: int, by_lead: dict[int, int] | None = None
) -> dict[int, int]:
    """``_echelon_gf2`` for odd q: kept rows scaled to lead 1, keyed by the
    shift of their lead field.

    An incoming row whose lead field meets a kept row's loses it by adding
    (q - lead) times that row: the lead field becomes q, which reduces to 0.
    """
    width = _field_bits(q)
    reduce = _reducer(q, ncols)
    if by_lead is None:
        by_lead = {}
    for v in rows:
        while v:
            shift = (v.bit_length() - 1) // width * width
            row = by_lead.get(shift)
            if row is None:
                lead = v >> shift
                by_lead[shift] = v if lead == 1 else reduce(v * pow(lead, -1, q))
                break
            v = reduce(v + (q - (v >> shift)) * row)
    return by_lead


def _back_substitute(q: int, ncols: int, by_lead: dict[int, int]) -> tuple[list[int], list[int]]:
    """The nonzero RREF rows of a forward pass (``_echelon``), as stored
    rows in pivot order, and the pivots.

    The kept rows sorted by their leads, descending, are an echelon form
    with leading entries 1; back substitution clears each lead from the
    rows above it.
    """
    if q == 2:
        kept = sorted(by_lead.values(), reverse=True)
        for i in range(len(kept) - 1, 0, -1):
            row = kept[i]
            lead = 1 << (row.bit_length() - 1)
            for j in range(i):
                if kept[j] & lead:
                    kept[j] ^= row
        return kept, [ncols - row.bit_length() for row in kept]
    width = _field_bits(q)
    mask = (1 << width) - 1
    reduce = _reducer(q, ncols)
    shifts = sorted(by_lead, reverse=True)
    kept = [by_lead[s] for s in shifts]
    for i in range(len(kept) - 1, 0, -1):
        row, shift = kept[i], shifts[i]
        for j in range(i):
            x = (kept[j] >> shift) & mask
            if x:
                kept[j] = reduce(kept[j] + (q - x) * row)
    return kept, [ncols - 1 - s // width for s in shifts]


def _eliminate(q: int, ncols: int, data: Sequence[int]) -> tuple[list[int], list[int]]:
    """The nonzero RREF rows of stored rows, as stored rows, and the pivots:
    the forward pass, then back substitution."""
    return _back_substitute(q, ncols, _echelon(q, ncols, data))


def _echelon(
    q: int, ncols: int, data: Iterable[int], by_lead: dict[int, int] | None = None
) -> dict[int, int]:
    """The forward pass of stored rows (``_echelon_gf2`` or ``_echelon_odd``),
    extending ``by_lead`` in place when given."""
    if q == 2:
        return _echelon_gf2(data, by_lead)
    return _echelon_odd(data, q, ncols, by_lead)


def _rank(q: int, ncols: int, data: Sequence[int]) -> int:
    """The rank of stored rows: the size of the forward pass, no back substitution."""
    return len(_echelon(q, ncols, data))


def _add_rows(q: int, ncols: int, a: Sequence[int], b: Sequence[int], sign: int) -> Iterator[int]:
    """The stored rows of A + sign * B (sign 1 or -1) for equal-shape stored
    rows, one at a time: ``MatrixFq._add`` collects them, and
    ``_difference_ranks`` feeds them straight into a forward pass."""
    if q == 2:
        return map(xor, a, b)
    reduce, factor = _reducer(q, ncols), sign % q
    return (reduce(x + factor * y) for x, y in zip(a, b))


def _difference_ranks(q: int, ncols: int, a: Sequence[int], others: Iterable[Sequence[int]]) -> list[int]:
    """rank(A - B) for each B of ``others``, all stored rows of one shape:
    one forward pass per B, fed the row differences as they are made, with
    no tuple built (the oracle's codebook scan)."""
    if q == 2:
        return [len(_echelon_gf2(map(xor, a, b))) for b in others]
    return [len(_echelon_odd(_add_rows(q, ncols, a, b, -1), q, ncols)) for b in others]


def _kernel(q: int, ncols: int, reduced: Sequence[int], pivots: Sequence[int]) -> "MatrixFq":
    """Basis (as rows, one per free column) of {x : R x = 0}, read off the
    nonzero RREF rows R of some matrix and their pivots with no elimination."""
    width = _field_bits(q)
    mask = (1 << width) - 1
    pivot_set = set(pivots)
    rows = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        shift = (ncols - 1 - f) * width
        vec = 1 << shift
        for row, p in zip(reduced, pivots):
            x = (row >> shift) & mask
            if x:
                vec |= (q - x) << ((ncols - 1 - p) * width)
        rows.append(vec)
    return MatrixFq._unchecked(q, len(rows), ncols, tuple(rows))


def rref(rows: Sequence[Sequence[int]], ncols: int, q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q.

    Packs the rows, runs the elimination every ``MatrixFq`` and
    ``Subspace`` operation runs, and unpacks the result.

    Args:
        rows: the matrix rows (not mutated).
        ncols: column count (needed when rows is empty).
        q: field order (prime).

    Returns:
        (reduced rows including trailing zero rows, pivot column list).
    """
    data = _pack([[x % q for x in row] for row in rows], q)
    reduced, pivots = _eliminate(q, ncols, data)
    out = [list(row) for row in _unpack(reduced, q, ncols)]
    out.extend([0] * ncols for _ in range(len(rows) - len(out)))
    return out, pivots


# --- the bridge between stored rows and F_{q^m} element indices ---
#
# A row of width m holds the coordinates of one element, column j being
# coordinate j.  An element index has coordinate 0 as its least significant
# base-q digit (``field.coords_of``), but a stored row has column 0 in its
# most significant field, so the bridge is a table per (q, m), built once:
# the row of index i is the row of i // q moved one field right, with the
# digit i % q in front.


@lru_cache(maxsize=16)
def _index_rows(q: int, m: int) -> tuple[list[int], dict[int, int]]:
    """The stored row of each element index below q^m, and the inverse map.
    (q, m) is a constructed ``FieldParams``', which bounds q^m by 2^16."""
    width = _field_bits(q)
    top = (m - 1) * width
    rows = [0] * q**m
    for i in range(1, len(rows)):
        rows[i] = (rows[i // q] >> width) | ((i % q) << top)
    return rows, {v: i for i, v in enumerate(rows)}


def _check_dims(q: int, rows: int, cols: int) -> None:
    if q < 2:
        raise ParameterError("q must be at least 2")
    if rows < 0 or cols < 0:
        raise ParameterError("matrix dimensions must be non-negative")


class MatrixFq:
    """An immutable rows x cols matrix over F_q.

    ``entries`` is the row-major tuple of row tuples; the rows are stored
    packed (see the module docstring).
    """

    __slots__ = ("q", "rows", "cols", "_data", "_entries")

    def __init__(self, q: int, rows: int, cols: int, entries: Iterable[Sequence[int]]) -> None:
        _set(self, "q", q)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_entries", tuple(map(tuple, entries)))
        self.__post_init__()
        _set(self, "_data", _pack(self._entries, q))

    def __post_init__(self) -> None:
        _check_dims(self.q, self.rows, self.cols)
        if len(self._entries) != self.rows:
            raise ParameterError("row count does not match entries")
        for row in self._entries:
            if len(row) != self.cols:
                raise ParameterError("ragged matrix rows")
            if any(not 0 <= x < self.q for x in row):
                raise ParameterError(f"entries must lie in [0, {self.q})")

    @classmethod
    def _unchecked(cls, q: int, rows: int, cols: int, data: tuple) -> "MatrixFq":
        """A matrix from rows already in the stored format, without checks."""
        matrix = object.__new__(cls)
        _set(matrix, "q", q)
        _set(matrix, "rows", rows)
        _set(matrix, "cols", cols)
        _set(matrix, "_data", data)
        return matrix

    @classmethod
    def _from_indices(cls, q: int, m: int, indices: Sequence[int]) -> "MatrixFq":
        """The len(indices) x m matrix whose row i holds the coordinates of
        the F_{q^m} element with index ``indices[i]`` (the indices must lie in
        [0, q^m)); ``_row_indices`` is its inverse."""
        data = tuple(map(_index_rows(q, m)[0].__getitem__, indices))
        return cls._unchecked(q, len(data), m, data)

    def _row_indices(self) -> list[int]:
        """The element index whose coordinates each row holds."""
        return list(map(_index_rows(self.q, self.cols)[1].__getitem__, self._data))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        try:
            return self._entries
        except AttributeError:
            entries = _unpack(self._data, self.q, self.cols)
            _set(self, "_entries", entries)
            return entries

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not MatrixFq:
            return NotImplemented
        return (self.q, self.rows, self.cols, self._data) == (
            other.q, other.rows, other.cols, other._data
        )

    def __hash__(self) -> int:
        return hash((self.q, self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return (
            f"MatrixFq(q={self.q!r}, rows={self.rows!r}, cols={self.cols!r}, "
            f"entries={self.entries!r})"
        )

    def __reduce__(self):
        return (MatrixFq, (self.q, self.rows, self.cols, self.entries))

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "MatrixFq":
        _check_dims(q, rows, cols)
        return cls._unchecked(q, rows, cols, (0,) * rows)

    @classmethod
    def random(cls, q: int, rows: int, cols: int, rng) -> "MatrixFq":
        """Uniform entries, drawn in row-major order with ``rng.randbelow_many(q, ...)``.

        A matrix with no entries draws nothing, so it leaves the stream alone.
        """
        _check_dims(q, rows, cols)
        if not rows * cols:
            return cls._unchecked(q, rows, cols, (0,) * rows)
        return cls._unchecked(q, rows, cols, _random_rows(q, rows, cols, rng))

    def _check_shape(self, other: "MatrixFq") -> None:
        if self.q != other.q:
            raise ParameterError("matrices over different fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise ParameterError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "MatrixFq") -> "MatrixFq":
        return self._add(other, 1)

    def __sub__(self, other: "MatrixFq") -> "MatrixFq":
        return self._add(other, -1)

    def _add(self, other: "MatrixFq", sign: int) -> "MatrixFq":
        self._check_shape(other)
        data = tuple(_add_rows(self.q, self.cols, self._data, other._data, sign))
        return MatrixFq._unchecked(self.q, self.rows, self.cols, data)

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.q != other.q:
            raise ParameterError("matrices over different fields")
        if self.cols != other.rows:
            raise ParameterError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        q = self.q
        out = []
        if q == 2:
            # row i of the product is the XOR of other's rows at the set bits of row i
            brows = other._data
            top = self.cols - 1
            for a in self._data:
                acc = 0
                while a:
                    low = a & -a
                    acc ^= brows[top + 1 - low.bit_length()]
                    a ^= low
                out.append(acc)
            return MatrixFq._unchecked(q, self.rows, other.cols, tuple(out))
        # row i of the product is the sum of a_ij times other's row j, reduced
        # before a field can overflow: each term adds at most (q-1)^2 to a field
        reduce = _reducer(q, other.cols)
        budget = ((1 << _field_bits(q)) - q) // (q - 1) ** 2
        brows = other._data
        for coeffs in self.entries:
            acc = terms = 0
            for x, b in zip(coeffs, brows):
                if x:
                    acc += x * b
                    terms += 1
                    if terms == budget:
                        acc, terms = reduce(acc), 0
            out.append(reduce(acc) if terms else acc)
        return MatrixFq._unchecked(q, self.rows, other.cols, tuple(out))

    def hstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.rows != other.rows or self.q != other.q:
            raise ParameterError("hstack requires equal row counts and field")
        shift = other.cols * _field_bits(self.q)
        data = tuple((a << shift) | b for a, b in zip(self._data, other._data))
        return MatrixFq._unchecked(self.q, self.rows, self.cols + other.cols, data)

    def vstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.cols != other.cols or self.q != other.q:
            raise ParameterError("vstack requires equal column counts and field")
        return MatrixFq._unchecked(
            self.q, self.rows + other.rows, self.cols, self._data + other._data
        )

    def rank(self) -> int:
        return _rank(self.q, self.cols, self._data)


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

    @classmethod
    def _unchecked(cls, q: int, ambient_dim: int, rows: Sequence[int]) -> "Subspace":
        """A subspace of F_q^ambient_dim from the stored rows of its canonical
        basis, without checks."""
        rows = tuple(rows)
        space = object.__new__(cls)
        _set(space, "ambient_dim", ambient_dim)
        _set(space, "basis", MatrixFq._unchecked(q, len(rows), ambient_dim, rows))
        return space

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, q: int, ambient_dim: int) -> "Subspace":
        _check_dims(q, 0, ambient_dim)
        return cls._unchecked(q, ambient_dim, ())

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """An iterator over all q^dim vectors of the subspace; more than the
        enumeration cap is a CapacityError at the call.

        The vector sum_i c_i b_i over the canonical basis comes in the
        ``itertools.product`` order of its coefficients (c_1, ..., c_dim):
        each basis row in turn adds each of its multiples to every vector so
        far, one row operation per new vector.
        """
        if self.q**self.dim > _ENUMERATION_CAP:
            raise CapacityError("subspace too large to enumerate")
        q, n = self.q, self.ambient_dim
        span = [0]
        if q == 2:
            for row in self.basis._data:
                span = [x for v in span for x in (v, v ^ row)]
        else:
            reduce = _reducer(q, n)
            for row in self.basis._data:
                span = [reduce(v + c * row) for v in span for c in range(q)]
        return iter(_unpack(span, q, n))

    def __repr__(self) -> str:
        rows = ",".join("".join(map(str, r)) for r in self.basis.entries)
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, [{rows}])"


def _check_space(space: Subspace, q: int, ambient_dim: int) -> None:
    """The one membership check: a ParameterError unless ``space`` is a
    subspace of F_q^ambient_dim."""
    if space.ambient_dim != ambient_dim or space.q != q:
        raise ParameterError(f"space must lie in F_{q}^{ambient_dim}")


def _distance(q: int, ncols: int, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """d_S between the spans of two bases given as stored rows of width
    ``ncols``: dim(A+B) - dim(A∩B) = 2 rank([A; B]) - dim A - dim B, one
    stacked rank and no canonical sum."""
    return 2 * _rank(q, ncols, a + b) - len(a) - len(b)


def _span(q: int, ambient_dim: int, data: Sequence) -> Subspace:
    """The subspace spanned by stored rows of width ``ambient_dim``."""
    return Subspace._unchecked(q, ambient_dim, _eliminate(q, ambient_dim, data)[0])


def row_space(matrix: MatrixFq, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the rows of ``matrix``."""
    if matrix.cols != ambient_dim:
        raise ParameterError("matrix width does not match ambient dimension")
    return _span(matrix.q, ambient_dim, matrix._data)


def subspace_sum(v: Subspace, u: Subspace) -> Subspace:
    """Smallest subspace containing both operands (span of the joint bases)."""
    _check_space(u, v.q, v.ambient_dim)
    return _span(v.q, v.ambient_dim, v.basis._data + u.basis._data)


def intersection(v: Subspace, u: Subspace) -> Subspace:
    """Largest subspace contained in both operands.

    Uses the Zassenhaus block trick: the vectors of the row space of
    [B_v | B_v ; B_u | 0] whose left half vanishes are 0 | w for w in V∩U.
    Its forward pass is an echelon form, so the kept rows that lead in the
    right half span them, and they are zero in the left half.  Back
    substitution changes a row only by rows that lead after it, which for
    these rows lead in the right half too, so back substitution among
    them alone gives the canonical basis of V∩U.
    """
    _check_space(u, v.q, v.ambient_dim)
    n = v.ambient_dim
    q = v.q
    shift = n * _field_bits(q)
    block = [(row << shift) | row for row in v.basis._data]
    block += [row << shift for row in u.basis._data]
    bound = 1 << shift
    right = {lead: row for lead, row in _echelon(q, 2 * n, block).items() if row < bound}
    return Subspace._unchecked(q, n, _back_substitute(q, n, right)[0])


def subspace_distance(v: Subspace, u: Subspace) -> int:
    """dim(V+U) - dim(V∩U), one stacked rank of the bases (``_distance``)."""
    _check_space(u, v.q, v.ambient_dim)
    return _distance(v.q, v.ambient_dim, v.basis._data, u.basis._data)


def rank_distance(x: MatrixFq, y: MatrixFq) -> int:
    """rank(X - Y) for equal-shape matrices over the same field."""
    return (x - y).rank()


def _lift_rows(q: int, data: Sequence[int], offset: int, ambient_dim: int) -> tuple[int, ...]:
    """The stored rows of [0 | I_n | 0 | X] for the stored rows of X, with
    no fit check: row i is the unit at column offset + i plus X's row i,
    already the canonical basis of the lift."""
    width = _field_bits(q)
    unit = 1 << (ambient_dim - 1 - offset) * width
    return tuple((unit >> i * width) | row for i, row in enumerate(data))


# --- block moves: a layer's coordinates read off a space, and back ---
#
# The kept columns are a block [start, start + width) and the last ``tail``
# columns.  A stored row of the ambient is A | B | C | P: the columns
# before the block, the block, the gap between them and the tail.


# Keyed by the layout: a layered code asks for one plan per layer.
@lru_cache(maxsize=64)
def _block_plan(q: int, ambient_dim: int, start: int, width: int, tail: int) -> tuple[int, ...]:
    """The shifts and masks of a layout for stored rows over F_q: the bits
    of B and P together, of P, of C and of B, then the masks of C, of B,
    and of A and P.  The one fit check: a ParameterError when the block
    and the tail do not fit."""
    if min(start, width, tail) < 0 or start + width + tail > ambient_dim:
        raise ParameterError(
            f"a block of {width} at column {start} and a tail of {tail}"
            f" do not fit in {ambient_dim}"
        )
    bits = _field_bits(q)
    low, block = tail * bits, width * bits
    gap = (ambient_dim - start - width - tail) * bits
    gap_mask = ((1 << gap) - 1) << low
    block_mask = ((1 << block) - 1) << gap + low
    rest = ~(gap_mask | block_mask)
    return block + low, low, gap, block, gap_mask, block_mask, rest


def shorten(u: Subspace, start: int, width: int, tail: int) -> Subspace:
    """The vectors of ``u`` that vanish off the block and the tail, read at
    the block and then the tail (width + tail coordinates).

    Each row A | B | C | P becomes A | C | B | P, and one elimination
    follows: its rows below 2^((width + tail) bits) vanish at A and C, and
    their B | P is already the canonical basis.  With no gap the canonical
    basis is that reduction, so the result is its rows that lead past A,
    with no move and no elimination.
    """
    q, n = u.q, u.ambient_dim
    kept, _, gap, block, gap_mask, block_mask, rest = _block_plan(q, n, start, width, tail)
    data = u.basis._data
    if gap:
        moved = [(v & rest) | (v & gap_mask) << block | (v & block_mask) >> gap for v in data]
        data = _eliminate(q, n, moved)[0]
    return Subspace._unchecked(q, width + tail, data[_head_rows(data, kept) :])


def embed(u: Subspace, start: int, width: int, ambient_dim: int) -> Subspace:
    """``u`` placed at the block [start, start + width) and the last
    ``u.ambient_dim - width`` columns of F_q^ambient_dim, the other
    coordinates zero: ``shorten`` undoes it.

    Each row B | P becomes B | C | P with C zero; the moved basis stays
    canonical.
    """
    q = u.q
    _, low, gap, _, _, _, _ = _block_plan(q, ambient_dim, start, width, u.ambient_dim - width)
    left, tail_mask = gap + low, (1 << low) - 1
    data = [(v >> low) << left | v & tail_mask for v in u.basis._data]
    return Subspace._unchecked(q, ambient_dim, data)


# --- randomized constructions used by the channel and the test suites ---

_SAMPLING_ATTEMPT_CAP = 1000


def random_full_rank_matrix(q: int, rows: int, cols: int, rng) -> MatrixFq:
    """Uniform rows x cols matrix conditioned on full rank (rejection).

    The rejection runs on stored rows: each draw is one ``_random_rows``
    batch, as ``MatrixFq.random`` makes it, and its rank a forward pass; a
    matrix is built only for the accepted draw.  Zero rows draw nothing.
    """
    if rows > cols:
        raise ParameterError("cannot have rank beyond the column count")
    _check_dims(q, rows, cols)
    if not rows:
        return MatrixFq._unchecked(q, 0, cols, ())
    for _ in range(_SAMPLING_ATTEMPT_CAP):
        data = _random_rows(q, rows, cols, rng)
        if _rank(q, cols, data) == rows:
            return MatrixFq._unchecked(q, rows, cols, data)
    raise CapacityError("full-rank rejection sampling exceeded its attempt cap")


def random_subspace(q: int, ambient_dim: int, dim: int, rng) -> Subspace:
    """A uniform ``dim``-dimensional subspace of F_q^ambient_dim.  The whole
    space is the only one of its dimension: its canonical basis is the
    identity, and nothing is drawn."""
    if not 0 <= dim <= ambient_dim:
        raise ParameterError("dimension outside [0, ambient]")
    if dim < ambient_dim:
        return row_space(random_full_rank_matrix(q, dim, ambient_dim, rng), ambient_dim)
    _check_dims(q, dim, dim)
    width = _field_bits(q)
    return Subspace._unchecked(q, dim, [1 << i * width for i in reversed(range(dim))])


def random_subspace_of(v: Subspace, dim: int, rng) -> Subspace:
    """Uniform-coefficient subspace of ``v`` with the requested dimension;
    ``v`` itself, with nothing drawn, at ``dim == v.dim``."""
    if not 0 <= dim <= v.dim:
        raise ParameterError("dimension outside [0, dim(V)]")
    if dim == v.dim:
        return v
    coeffs = random_full_rank_matrix(v.q, dim, v.dim, rng)
    return row_space(coeffs @ v.basis, v.ambient_dim)


# --- debug dump format (one digit row per line, ambient in the header) ---


def dump_subspace(v: Subspace) -> str:
    """The docs/formats.md dump: one digit per entry, so an entry above 9 raises."""
    lines = [f"ambient {v.ambient_dim}"]
    lines.extend("".join(map(str, row)) for row in v.basis.entries)
    if any(len(line) != v.ambient_dim for line in lines[1:]):
        raise ParameterError("dump entries are single digits: an entry is above 9")
    return "\n".join(lines) + "\n"


def dump_pair(v: Subspace, u: Subspace) -> str:
    """A sent and a received space, as ``simulate --dump`` and the search
    instances write them: ``V``, V's dump, ``U``, U's dump."""
    return f"V\n{dump_subspace(v)}U\n{dump_subspace(u)}"


def parse_subspace(text: str, q: int) -> Subspace:
    """Read a ``dump_subspace`` text; rows may span any basis, entries lie in [0, q)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ambient "):
        raise ParameterError("dump must start with an 'ambient N' header")
    header = lines[0].split()
    if len(header) != 2 or not (header[1].isascii() and header[1].isdigit()):
        raise ParameterError(f"dump header must be 'ambient N' with N >= 0, got {lines[0]!r}")
    ambient = int(header[1])
    rows = []
    for ln in lines[1:]:
        if not (ln.isascii() and ln.isdigit()):
            raise ParameterError(f"dump row {ln!r} holds a character that is not a digit")
        if len(ln) != ambient:
            raise ParameterError("dump row width does not match the header")
        rows.append(tuple(int(ch) for ch in ln))
    if not rows:
        return Subspace.zero(q, ambient)
    return row_space(MatrixFq(q, len(rows), ambient, rows), ambient)
