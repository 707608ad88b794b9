"""Variance profile matrices: validation, ingestion, and the structured families.

A profile is the d x n nonnegative matrix B = (b_ij) of entrywise standard
deviations; every other module consumes it read-only.  It is exact iff every
cell is an int or a Fraction (in a file, an integer or "p/q"; a bool is a
float), else float: a read-only float64 array.  An exact profile is an
integer numerator matrix N over the least common denominator D, int64 when it
fits, else Python ints, plus the float view N_ij / D, correctly rounded.
`numerators` is the one exact view of the cells of either kind of profile,
and `VarianceProfile(rows)` the one path from Python cells to a profile.
A file is JSON iff its first non-blank character is "[" or "{", else CSV.
A negative cell, or one with no finite float64 value, is a ProfileDomainError.
Parameters are computed once per profile (see params).  The structured
families come from `rank_one(a, b)`, b_ij = a_i * b_j (ones on one side or
both give i.i.d. columns, i.i.d. rows or the constant profile), and
`bounded_ratio(base, K)`.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

import numpy as np

Entry = Union[Fraction, float]


class ProfileFormatError(ValueError):
    """Input does not parse as a rectangular numeric matrix."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ProfileDomainError(ValueError):
    """Parsed matrix violates the profile domain (negative entry, empty, non-finite)."""


class ResourceLimitError(RuntimeError):
    """A configured work cap (term count, shape order) would be exceeded."""


class VarianceProfile:
    """Immutable d x n matrix of nonnegative standard-deviation weights.

    `VarianceProfile(entries)` takes rows of cells or a 2-D ndarray; it is
    exact iff every cell passes _is_exact, or the ndarray has an integer dtype,
    else float, each cell of the rows through _float.  Equality compares
    values: exact profiles are kept in lowest terms, so their (N, D) are unique.
    """

    def __init__(self, entries):
        if isinstance(entries, np.ndarray):
            exact = np.issubdtype(entries.dtype, np.integer)
            rows = entries.tolist() if exact else entries
        else:
            rows = [tuple(r) for r in entries]
            exact = all(_is_exact(x) for row in rows for x in row)
            rows = rows if exact else [tuple(map(_float, row)) for row in rows]
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ProfileFormatError(f"row {i + 1} has {len(row)} cells, expected {len(rows[0])}", line=i + 1)
        self._set(*(_exact_parts(rows) if exact else (np.array(rows, dtype=np.float64), None)))

    @classmethod
    def _of(cls, data: np.ndarray, den: int | None) -> "VarianceProfile":  # den None: floats
        B = cls.__new__(cls)
        B._set(data, den)
        return B

    def _set(self, data: np.ndarray, den: int | None) -> None:
        if den is None:
            nums = values = np.asarray(data, dtype=np.float64)
        else:
            nums = _int_array(data)
            if den != 1:  # lowest terms: divide out gcd(D, every numerator)
                g = math.gcd(den, int(np.gcd.reduce(nums, axis=None)))
                nums, den = _int_array(nums // g), den // g
            if nums.dtype != object and den <= 2**53 and nums.max(initial=0) <= 2**53:
                values = nums / den  # both operands exact in float64: one correctly rounded division
            else:
                values = np.array([_float(Fraction(int(x), den)) for x in nums.flat]).reshape(nums.shape)
        for a in (nums, values):
            a.setflags(write=False)
        # _matrix: the numerators over _den when exact, else the float values;
        # _memo: per-profile cache of derived quantities, filled through params._once
        # (by the params and shapes modules)
        self.__dict__.update(d=values.shape[0], n=values.shape[-1], exact=den is not None,
                             _matrix=nums, _den=den, _values=values, _memo={})
        self.__post_init__()

    def __post_init__(self):
        if not self._values.size:
            raise ProfileDomainError("profile must have at least one row and one column")
        if self._matrix.min() < 0 or not np.isfinite(self._values).all():
            neg = self._matrix < 0
            i, j = divmod(int(np.argmax(neg | ~np.isfinite(self._values))), self.n)
            cell = Fraction(int(self._matrix[i, j]), self._den) if self.exact else float(self._values[i, j])
            what = f"negative entry {cell}" if neg[i, j] else "entry with no finite float64 value"
            raise ProfileDomainError(f"{what} in row {i + 1}")

    def __eq__(self, other):
        if not isinstance(other, VarianceProfile):
            return NotImplemented
        return (self.exact, self._den) == (other.exact, other._den) and np.array_equal(self._matrix, other._matrix)

    def as_array(self) -> np.ndarray:
        """Read-only float64 view of the entries."""
        return self._values

    @cached_property
    def is_zero(self) -> bool:
        return not self._matrix.any()

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int]:
        """(N, D) with b_ij = N_ij / D exactly, N a read-only object array of
        Python ints.  A float profile uses the exact value of each float64 cell
        (D is a power of two).  Every moment of homogeneous degree 2p in the
        entries is then an integer sum divided by D**(2p) once at the end."""
        if self.exact:
            nums, den = self._matrix, self._den
        else:
            nums, den = _exact_parts([[Fraction(x) for x in row] for row in self._values.tolist()])
        nums = nums.astype(object)
        nums.setflags(write=False)
        return nums, den

    def _cells(self, row: np.ndarray) -> list:
        """One row's cells for serialization: floats, or ints and "p/q" strings in lowest terms."""
        cells = row.tolist()
        return cells if self._den in (None, 1) else [_ratio(x, self._den) for x in cells]

    def to_csv(self) -> str:
        """One line per row.  Equal rows are rendered once, keyed by their bytes:
        the values of an int64 or float64 row (so -0.0 keys apart from 0.0), the
        element pointers of an object row, which stay fixed during the call."""
        fmt = repr if not self.exact else str
        lines: dict[bytes, str] = {}
        out = []
        for row in self._matrix:
            if (key := row.tobytes()) not in lines:
                lines[key] = ",".join(map(fmt, self._cells(row))) + "\n"
            out.append(lines[key])
        return "".join(out)


def _is_exact(x) -> bool:  # the one rule for a cell: an int or a Fraction, not a bool
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _ratio(num: int, den: int):
    g = math.gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def _float(x, k: int = 0) -> float:
    """float(x) * 2^k, or inf where that passes the float64 range (float and math.ldexp raise there)."""
    try:
        return math.ldexp(float(x), k)
    except OverflowError:
        return math.inf


def _int_array(data) -> np.ndarray:
    """Integer matrix: int64 when every value fits, else Python ints in an object array."""
    try:
        return np.asarray(data, dtype=np.int64)
    except OverflowError:
        return np.array(data, dtype=object)


def _exact_parts(rows) -> tuple[np.ndarray, int]:
    """(numerators, least common denominator) of rows of Fractions or ints."""
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return _int_array([[x.numerator * (den // x.denominator) for x in row] for row in rows]), den


def _parse_cell(text: str) -> Entry:
    """One CSV/JSON-string cell: integer or p/q stays exact, decimal is a float."""
    s = text.strip()
    if not s:
        raise ValueError("empty cell")
    if "/" in s:
        num, _, den = s.partition("/")
        p, q = int(num), int(den)
        if not q:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(p, q)
    try:
        return Fraction(int(s))
    except ValueError:
        return float(s)  # may raise ValueError for garbage


def _from_cells(numbered: list[tuple[int, object]], split, unit: str) -> VarianceProfile:
    """Profile of numbered rows; `split(row)` gives a row's cell strings, one row
    at a time to bound memory.  Every cell is converted in one pass when all are
    integers (exact) or all are floats (so none is a ratio), else parsed one by
    one into VarianceProfile; errors name rows as f"{unit} {number}"."""
    if not numbered:
        raise ProfileDomainError("empty matrix")
    for parse, den in ((int, 1), (float, None)):
        try:
            data = [list(map(parse, split(row))) for _, row in numbered]
        except ValueError:
            continue
        if len({len(cells) for cells in data}) == 1:  # ragged rows are reported below
            return VarianceProfile._of(_int_array(data) if den else np.array(data), den)
        break
    width = len(split(numbered[0][1]))
    parsed: list[list[Entry]] = []
    for k, raw in numbered:
        cells = split(raw)
        if len(cells) != width:
            raise ProfileFormatError(f"{unit} {k}: {len(cells)} cells, expected {width}", line=k)
        row = []
        for cell in cells:
            try:
                row.append(_parse_cell(cell))
            except ValueError as exc:
                raise ProfileFormatError(f"{unit} {k}: bad cell {cell.strip()!r}", line=k) from exc
        parsed.append(row)
    return VarianceProfile(parsed)


def _load_csv(text: str) -> VarianceProfile:
    lines = text.splitlines()
    if lines and not lines[0].strip():
        raise ProfileFormatError("blank line before any data", line=1)
    # blank lines after the first data line are skipped
    numbered = [(k, line) for k, line in enumerate(lines, start=1) if line.strip()]
    return _from_cells(numbered, lambda line: line.split(","), "line")


def _reject_constant(name):
    raise ProfileFormatError(f"non-finite JSON constant {name!r}")


def _load_json(text: str) -> VarianceProfile:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    ent = obj  # an array or an object: load_profile sends only text starting with "[" or "{"
    if isinstance(obj, dict):
        try:
            d, n, ent = obj["d"], obj["n"], obj["entries"]
        except KeyError as exc:
            raise ProfileFormatError(f"missing key {exc}") from exc
        if not isinstance(ent, list) or len(ent) != d:
            raise ProfileFormatError(f"entries has {len(ent) if isinstance(ent, list) else '?'} rows, d={d}")
        if any(not isinstance(r, list) or len(r) != n for r in ent):
            raise ProfileFormatError(f"entries rows must all have n={n} cells")
    for i, raw in enumerate(ent, start=1):
        if not isinstance(raw, list):
            raise ProfileFormatError(f"row {i} is not an array", line=i)
        for cell in raw:
            if isinstance(cell, bool) or not isinstance(cell, (int, float, str)):
                raise ProfileFormatError(f"row {i}: unsupported cell type {type(cell).__name__}", line=i)
    # numbers as their shortest round-tripping text, so one parser serves both formats
    return _from_cells(
        list(enumerate(ent, start=1)), lambda row: [c if isinstance(c, str) else repr(c) for c in row], "row")


def load_profile(source: Union[bytes, str]) -> VarianceProfile:
    """Parse a profile from UTF-8 bytes (a leading byte-order mark, as some
    editors write, is dropped) or text: JSON when the first non-blank
    character is "[" or "{" (no valid CSV cell starts with either), else CSV.

    Integer and "p/q" cells are ingested exactly (exact=True); any decimal
    cell switches the whole matrix to float mode.  Ragged rows raise
    ProfileFormatError; negative entries and cells with no finite float64
    value raise ProfileDomainError.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig")
    return (_load_json if re.match(r"\s*[\[{]", source) else _load_csv)(source)


# --- structured families -------------------------------------------------


def _as_entry_vector(vec: Sequence) -> tuple[Union[int, Entry], ...]:
    out = tuple(x if _is_exact(x) else float(x) for x in vec)
    if any(x < 0 for x in out):  # NaN passes here and fails the profile's finiteness check
        raise ProfileDomainError("family vectors must be nonnegative")
    return out


def rank_one(a: Sequence, b: Sequence) -> VarianceProfile:
    """The len(a) x len(b) profile b_ij = a_i * b_j: exact when every cell is an
    int or a Fraction (int64 when the largest product fits, else Python ints),
    else the float products float(a_i) * float(b_j)."""
    a, b = _as_entry_vector(a), _as_entry_vector(b)
    if all(map(_is_exact, a + b)):
        (na, da), (nb, db) = _exact_parts([a]), _exact_parts([b])
        if int(na.max(initial=0)) * int(nb.max(initial=0)) >= 2**63:
            na, nb = na.astype(object), nb.astype(object)
        return VarianceProfile._of(np.outer(na, nb), da * db)
    with np.errstate(over="ignore"):  # an inf product is the profile's own ProfileDomainError
        return VarianceProfile._of(np.outer([_float(x) for x in a], [_float(x) for x in b]), None)


def bounded_ratio(base: VarianceProfile, K: float) -> VarianceProfile:
    """The base profile with every column whose Euclidean norm is below max/K
    scaled up to norm max/K, so the column norms lie within a factor K >= 1
    of each other.  A base that already complies is returned as is, exact or
    not; a rescaled one is a float profile."""
    if not K >= 1:  # NaN too
        raise ValueError("bounded_ratio requires K >= 1")
    arr = base.as_array()
    e = np.frexp(arr.max(axis=0))[1]  # columns scaled near 1 before squaring: no sum overflows
    norms = np.ldexp(np.sqrt(np.square(np.ldexp(arr, -e)).sum(axis=0)), e)
    target = norms.max() / K
    factors = np.divide(target, norms, out=np.ones(base.n), where=(norms > 0) & (norms < target))
    if np.all(factors == 1.0):
        return base
    return VarianceProfile._of(arr * factors[np.newaxis, :], None)
