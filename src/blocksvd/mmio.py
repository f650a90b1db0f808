"""Matrix Market coordinate-format reading and writing.

Dense matrices are exchanged as sparse coordinate files: one header line,
optional comment lines, a size line, then one entry per line. Writing is
deterministic — entries sorted row-major, values formatted with %.17g so a
read-back reproduces the float64 exactly. Reading validates structure and
reports the offending line number on failure.

Reading has two paths over the entry lines. The fast path reads the
header, then hands ``np.loadtxt`` the file's path with the header lines
skipped, so numpy's C parser reads the file in large chunks rather than one
Python line at a time. It checks index ranges, the lower triangle of
symmetric files, duplicates (with no sort when the entries are in row-major
order) and the entry count with array operations. It refuses any file it
cannot take whole: a token numpy will not parse (``1.0`` or ``1_0`` as an
index, a ``%`` comment between entries, a wrong token count), a loadtxt
warning, a failed range, triangle or duplicate check, or a path numpy would
not open as plain text (a compressed suffix such as ``.gz``, a URL). A
refused file goes to the per-line loop, which either names its first bad
line or, for spellings Python accepts and numpy does not (``1_0``, comment
lines between entries), returns the same matrix. The fast path accepts no
file the loop would reject, and both return the same bits.

Both paths read UTF-8 whatever the locale. A byte that is not UTF-8 (a
compressed or binary file, a Latin-1 character) makes the fast path refuse
the file, and reaches the loop's checks as a lone surrogate, which no
header, size or entry check accepts, so the line it sits on is named as
malformed; in a comment line it is ignored like any other comment text.
"""

from __future__ import annotations

import os

import numpy as np

from .matcore import MatrixError

_HEADER = "%%MatrixMarket matrix coordinate real"
_SYMMETRIES = ("general", "symmetric")
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class MatrixMarketError(MatrixError):
    """Malformed Matrix Market content; message carries the line number."""


def _open(path):
    """The file as UTF-8 text, with undecodable bytes kept as surrogates."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _fail(lineno: int, msg: str):
    raise MatrixMarketError(f"line {lineno}: {msg}")


def _read_header(fh) -> tuple[bool, int, int, int, int]:
    """Parse the header, comment and size lines of an open file.

    Leaves ``fh`` just past the size line and returns
    ``(symmetric, rows, cols, nnz, size_line)``, the last 1-based.
    """
    first = fh.readline()
    if not first:
        raise MatrixMarketError("line 1: empty file")
    head = first.strip().lower().split()
    want = _HEADER.lower().split()
    if len(head) != 5 or head[:4] != want[:4] or head[4] not in _SYMMETRIES:
        _fail(1, f"expected header {_HEADER!r} + general|symmetric, got {first.strip()!r}")
    symmetric = head[4] == "symmetric"

    lineno, line = 2, fh.readline()
    while line.lstrip().startswith("%"):
        lineno, line = lineno + 1, fh.readline()
    while line and not line.strip():
        lineno, line = lineno + 1, fh.readline()
    if not line:
        _fail(lineno - 1, "missing size line")
    parts = line.split()
    if len(parts) != 3:
        _fail(lineno, f"size line needs 'rows cols entries', got {line.strip()!r}")
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        _fail(lineno, f"non-integer size line {line.strip()!r}")
    if rows < 1 or cols < 1 or nnz < 0:
        _fail(lineno, f"invalid dimensions {rows} x {cols}, {nnz} entries")
    if symmetric and rows != cols:
        _fail(lineno, "symmetric storage requires a square matrix")
    return symmetric, rows, cols, nnz, lineno


def _read_by_lines(path) -> np.ndarray:
    """Per-line reader for the files the fast path of ``read_matrix`` refuses."""
    with _open(path) as fh:
        symmetric, rows, cols, nnz, size_line = _read_header(fh)
        out = np.zeros((rows, cols))
        seen = set()
        count = 0
        for lineno, line in enumerate(fh, start=size_line + 1):
            text = line.strip()
            if not text or text.startswith("%"):
                continue
            parts = text.split()
            if len(parts) != 3:
                _fail(lineno, f"entry needs 'row col value', got {text!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                v = float(parts[2])
            except ValueError:
                _fail(lineno, f"malformed entry {text!r}")
            if not (1 <= i <= rows and 1 <= j <= cols):
                _fail(lineno, f"index ({i}, {j}) outside {rows} x {cols}")
            if symmetric and j > i:
                _fail(lineno, f"upper-triangle entry ({i}, {j}) in symmetric storage")
            if (i, j) in seen:
                _fail(lineno, f"duplicate entry for ({i}, {j})")
            seen.add((i, j))
            out[i - 1, j - 1] = v
            if symmetric and i != j:
                out[j - 1, i - 1] = v
            count += 1
    if count != nnz:
        raise MatrixMarketError(
            f"line {size_line}: size line promises {nnz} entries, file has {count}")
    return out


def read_matrix(path) -> np.ndarray:
    """Read a real coordinate Matrix Market file into a dense array.

    Supports general and symmetric storage; symmetric files carry the lower
    triangle and are expanded on read. Unspecified entries are zero.
    """
    import warnings  # already loaded by the interpreter; no import cost

    with _open(path) as fh:
        symmetric, rows, cols, nnz, size_line = _read_header(fh)
    if isinstance(path, os.PathLike):
        path = os.fspath(path)
    # Given a str, loadtxt reads in large chunks, but it opens the file
    # through numpy's DataSource, which decompresses by suffix and fetches
    # URLs; such names take the line loop.
    if not isinstance(path, str) or path.endswith(_COMPRESSED) or "://" in path:
        return _read_by_lines(path)
    # A warning refuses the file too: loadtxt warns on an empty body, and
    # numpy releases that still parse "1.0" as an integer warn on it.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = np.loadtxt(path, dtype=_ENTRY, comments=None, ndmin=1,
                                 skiprows=size_line, encoding="utf-8")
    except (ValueError, Warning):
        return _read_by_lines(path)
    i, j, v = entries["i"], entries["j"], entries["v"]
    # i and j are checked apart: a flat key of an int64 index near 2**63
    # could wrap into range.
    if (i.min() < 1 or i.max() > rows or j.min() < 1 or j.max() > cols
            or (symmetric and np.any(j > i))):
        return _read_by_lines(path)
    keys = i * cols
    keys += j - (cols + 1)          # 0-based row-major flat index
    # Writers emit row-major order, where strictly increasing keys rule out
    # duplicates without a sort.
    if not np.all(keys[1:] > keys[:-1]):
        ordered = np.sort(keys)
        if np.any(ordered[1:] == ordered[:-1]):
            return _read_by_lines(path)
    if entries.size != nnz:
        raise MatrixMarketError(
            f"line {size_line}: size line promises {nnz} entries, file has {entries.size}")
    out = np.zeros((rows, cols))
    flat = out.reshape(-1)
    flat[keys] = v
    if symmetric:
        flat[(j - 1) * cols + (i - 1)] = v
    return out


def write_matrix(path, matrix, symmetric: bool = False,
                 comments: tuple[str, ...] = ()) -> None:
    """Write a dense array as a coordinate Matrix Market file.

    Only nonzero entries are stored, in row-major order; symmetric mode
    stores the lower triangle and requires an exactly symmetric input.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise MatrixError("need a non-empty 2-D array")
    if symmetric:
        if a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
            raise MatrixError("symmetric output requires an exactly symmetric square matrix")
    rows, cols = a.shape
    stored = a != 0.0
    if symmetric:
        stored &= np.tri(rows, dtype=bool)
    i, j = np.nonzero(stored)       # row-major order
    kind = "symmetric" if symmetric else "general"
    with open(path, "w") as fh:
        fh.write(f"{_HEADER} {kind}\n")
        for c in comments:
            fh.write(f"% {c}\n")
        fh.write(f"{rows} {cols} {i.size}\n")
        fh.writelines(f"{row} {col} {v:.17g}\n" for row, col, v in
                      zip((i + 1).tolist(), (j + 1).tolist(), a[i, j].tolist()))
