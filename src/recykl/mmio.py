"""Matrix Market exchange files for system sequences.

Two flavors are read and written: ``coordinate real symmetric`` for the
sparse matrices (lower triangle stored) and ``array real general`` for
right-hand sides and output matrices.  Values are written with shortest
round-tripping decimal representation, so write/read cycles are bit exact
for float64; each file is formatted in memory and written at once.

A reader takes the header and the size line itself, then parses the whole
body in one C-level pass (``np.loadtxt``) and checks the entry count, that
every value is finite and, for coordinate files, the index range on the
resulting arrays.  When the parse or a check fails, one diagnostic rescan
walks the body line by line to name the first offending line, so every
parse failure, a NaN or an infinity included, reports the file and line
number.  A file that cannot be opened raises
:class:`~recykl.errors.ManifestError` naming it.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse

from .errors import ManifestError, NotSymmetric
from .linalg import SparseSpdMatrix

_HEADER_PREFIX = "%%matrixmarket"


def write_symmetric_matrix(path, A: SparseSpdMatrix) -> None:
    """Write the lower triangle of a symmetric sparse matrix."""
    coo = scipy.sparse.tril(A.to_scipy(), k=0).tocoo()
    order = np.lexsort((coo.col, coo.row))
    entries = zip((coo.row[order] + 1).tolist(), (coo.col[order] + 1).tolist(),
                  coo.data[order].tolist())
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real symmetric\n{A.n} {A.n} {coo.nnz}\n"
                 + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries))


def write_array(path, values: np.ndarray) -> None:
    """Write a dense vector or matrix in array format (column major)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{arr.shape[0]} {arr.shape[1]}\n"
                 + "".join(f"{v!r}\n" for v in arr.T.ravel().tolist()))


def _open(path):
    try:
        return open(path)
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read ({exc.strerror})") from exc


def _parse_header(path, line):
    parts = line.lower().split()
    if len(parts) != 5 or parts[0] != _HEADER_PREFIX or parts[1] != "matrix":
        raise ManifestError(f"{path}:1: malformed Matrix Market header {line!r}")
    fmt, dtype, symmetry = parts[2], parts[3], parts[4]
    if dtype != "real":
        raise ManifestError(f"{path}:1: unsupported value type {dtype!r}")
    return fmt, symmetry


def _read_head(path, fh, ntoks):
    """Read the header and the size line from ``fh``, leaving it at the body.

    Returns the header's format and symmetry, the size line's ``ntoks``
    integers and the size line's number.
    """
    header = fh.readline()
    if not header:
        raise ManifestError(f"{path}: empty file")
    fmt, symmetry = _parse_header(path, header.strip())
    for lineno, raw in enumerate(iter(fh.readline, ""), start=2):
        line = raw.strip()
        if line and not line.startswith("%"):
            break
    else:
        raise ManifestError(f"{path}: missing size line")
    try:
        sizes = [int(tok) for tok in line.split()]
    except ValueError:
        sizes = []
    if len(sizes) != ntoks or min(sizes) < 0:
        raise ManifestError(f"{path}:{lineno}: malformed size line {line!r}")
    return fmt, symmetry, sizes, lineno


def _load_body(fh, dtype, usecols):
    # one C-level parse of every remaining line; an empty body is legal
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, dtype=dtype, comments="%", usecols=usecols, ndmin=1)


def _number(tok, kind):
    # the body parse takes only ASCII numerals without digit-group underscores
    if "_" in tok or not tok.isascii():
        raise ValueError(tok)
    return kind(tok)


def _first_bad_line(path, after, declared, noun, check):
    """Raise a ManifestError naming the first body line the parse rejected.

    A diagnostic rescan, made only after the body parse or its checks
    failed.  The lines past the size line (line ``after``) are walked in
    order: each counts as one of the ``declared`` entries, and
    ``check(tokens)`` raises ``ValueError`` or ``IndexError`` on a malformed
    line and returns a message for a well-formed but invalid one.
    """
    count = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno <= after or not line or line.startswith("%"):
                continue
            if count >= declared:
                raise ManifestError(f"{path}:{lineno}: more entries than declared ({declared})")
            try:
                problem = check(line.split())
            except (ValueError, IndexError):
                raise ManifestError(f"{path}:{lineno}: malformed {noun} {line!r}") from None
            if problem:
                raise ManifestError(f"{path}:{lineno}: {problem}")
            count += 1
    raise ManifestError(f"{path}: malformed body after line {after}")


def _finite(tok):
    # returns the message of a well-formed but non-finite value, as a check does
    if not np.isfinite(_number(tok, float)):
        return f"non-finite value {tok!r}"


def _check_value(toks):
    return _finite(toks[0])


def _within(indices, bound):
    return indices.size == 0 or (indices.min() >= 1 and indices.max() <= bound)


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix(path) -> SparseSpdMatrix:
    """Read a sparse symmetric matrix in coordinate format."""
    with _open(path) as fh:
        fmt, symmetry, (rows, cols, nnz), after = _read_head(path, fh, 3)
        if fmt != "coordinate":
            raise ManifestError(f"{path}:1: expected coordinate format, got {fmt!r}")
        if rows != cols:
            raise ManifestError(f"{path}:{after}: matrix must be square, got {rows}x{cols}")
        try:
            body = _load_body(fh, _ENTRY, (0, 1, 2))
        except ValueError:
            body = None
    if (
        body is None
        or len(body) > nnz
        or not (_within(body["i"], rows) and _within(body["j"], cols))
        or not np.isfinite(body["v"]).all()
    ):

        def check(toks):
            i, j, problem = _number(toks[0], int), _number(toks[1], int), _finite(toks[2])
            if not (1 <= i <= rows and 1 <= j <= cols):
                return f"index ({i},{j}) out of range"
            return problem

        _first_bad_line(path, after, nnz, "entry", check)
    if len(body) != nnz:
        raise ManifestError(f"{path}: expected {nnz} entries, found {len(body)}")
    i, j, v = body["i"] - 1, body["j"] - 1, body["v"]
    if symmetry == "symmetric":
        # mirror the off-diagonal entries: one COO -> CSR holds both triangles
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
    elif symmetry != "general":
        raise ManifestError(f"{path}:1: unsupported symmetry {symmetry!r}")
    full = scipy.sparse.coo_matrix((v, (i, j)), shape=(rows, cols)).tocsr()
    try:
        return SparseSpdMatrix.from_scipy(full)
    except NotSymmetric as exc:
        # only a general file can be asymmetric; the matrix checks it
        raise NotSymmetric(f"{path}: {exc}") from None


def read_array(path) -> np.ndarray:
    """Read a dense vector or matrix in array format."""
    with _open(path) as fh:
        fmt, symmetry, (rows, cols), after = _read_head(path, fh, 2)
        if fmt != "array" or symmetry != "general":
            raise ManifestError(f"{path}:1: expected 'array real general'")
        try:
            values = _load_body(fh, np.float64, 0)
        except ValueError:
            values = None
    if values is None or values.size > rows * cols or not np.isfinite(values).all():
        _first_bad_line(path, after, rows * cols, "value", _check_value)
    if values.size != rows * cols:
        raise ManifestError(f"{path}: expected {rows * cols} values, found {values.size}")
    out = values.reshape((cols, rows)).T  # column-major storage
    return out[:, 0] if cols == 1 else out
