import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from blocksvd import mmio
from blocksvd.matcore import MatrixError

RNG = np.random.default_rng(7)


class TestRoundTrip:
    def test_scalar(self, tmp_path):
        path = tmp_path / "one.mtx"
        mmio.write_matrix(path, np.array([[2.5]]))
        np.testing.assert_array_equal(mmio.read_matrix(path), [[2.5]])

    def test_identity(self, tmp_path):
        path = tmp_path / "eye.mtx"
        mmio.write_matrix(path, np.eye(4))
        np.testing.assert_array_equal(mmio.read_matrix(path), np.eye(4))

    def test_dense_random_exact(self, tmp_path):
        path = tmp_path / "dense.mtx"
        m = RNG.standard_normal((7, 5))
        mmio.write_matrix(path, m)
        np.testing.assert_array_equal(mmio.read_matrix(path), m)

    def test_write_read_write_bit_identical(self, tmp_path):
        p1 = tmp_path / "a.mtx"
        p2 = tmp_path / "b.mtx"
        m = RNG.standard_normal((6, 6))
        m[RNG.random((6, 6)) < 0.5] = 0.0
        mmio.write_matrix(p1, m)
        mmio.write_matrix(p2, mmio.read_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_symmetric_round_trip(self, tmp_path):
        path = tmp_path / "sym.mtx"
        a = RNG.standard_normal((5, 5))
        m = a + a.T
        mmio.write_matrix(path, m, symmetric=True)
        np.testing.assert_array_equal(mmio.read_matrix(path), m)
        header = path.read_text().splitlines()[0]
        assert "symmetric" in header

    def test_comments_preserved_on_read(self, tmp_path):
        path = tmp_path / "c.mtx"
        mmio.write_matrix(path, np.array([[1.0]]), comments=["generated for a test"])
        assert "% generated for a test" in path.read_text()
        np.testing.assert_array_equal(mmio.read_matrix(path), [[1.0]])


class TestRejections:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        return path

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "%%MatrixMarket matrix array real general\n1 1 1\n1 1 2.5\n")
        with pytest.raises(mmio.MatrixMarketError, match="line 1"):
            mmio.read_matrix(path)

    def test_out_of_range_index_names_line(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(mmio.MatrixMarketError, match="line 3"):
            mmio.read_matrix(path)

    def test_duplicate_entry(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real general\n"
                          "2 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(mmio.MatrixMarketError, match="line 4"):
            mmio.read_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(mmio.MatrixMarketError):
            mmio.read_matrix(path)

    def test_asymmetric_rejected_on_write(self, tmp_path):
        with pytest.raises(MatrixError):
            mmio.write_matrix(tmp_path / "x.mtx", np.array([[1.0, 2.0], [3.0, 4.0]]),
                              symmetric=True)


GENERAL = "%%MatrixMarket matrix coordinate real general"
SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric"


def outcome(read, path):
    """The array a reader returns, or the message of its MatrixMarketError."""
    try:
        return read(path)
    except mmio.MatrixMarketError as exc:
        return str(exc)


class TestVectorizedMatchesLineLoop:
    """read_matrix against the per-line loop it keeps for refused files."""

    CASES = [
        ("crlf", GENERAL + "\r\n2 2 2\r\n1 1 1.5\r\n2 2 -3\r\n", None),
        ("comments_blanks_between", GENERAL + "\n2 2 2\n1 1 1.5\n\n% note\n  \n2 1 4\n",
         None),
        ("tabs", GENERAL + "\n2 2 2\n1\t1\t1.5\n2 \t 2\t\t-3\n", None),
        ("plus_index", GENERAL + "\n2 2 1\n+1 +2 1.5\n", None),
        ("underscore_index", GENERAL + "\n10 10 1\n1_0 1 1.5\n", None),
        ("float_index", GENERAL + "\n2 2 2\n1 1 1\n1.0 2 1.5\n", "line 4: malformed entry"),
        ("exp_index", GENERAL + "\n2 2 1\n1e0 2 1.5\n", "line 3: malformed entry"),
        ("trailing_note", GENERAL + "\n2 2 1\n1 1 1.5 % note\n", "line 3: entry needs"),
        ("no_entries", GENERAL + "\n3 2 0\n", None),
        ("no_entries_but_one", GENERAL + "\n3 2 0\n1 1 2\n",
         "line 2: size line promises 0 entries, file has 1"),
        ("upper_triangle", SYMMETRIC + "\n3 3 2\n2 1 1\n1 3 2\n", "line 4: upper-triangle"),
        ("late_duplicate", GENERAL + "\n3 3 5\n1 1 1\n2 2 2\n3 3 3\n3 1 4\n2 2 5\n",
         "line 7: duplicate entry for \\(2, 2\\)"),
        ("index_beyond_int64", GENERAL + "\n2 2 2\n1 1 1\n99999999999999999999 1 2\n",
         "line 4: index \\(99999999999999999999, 1\\) outside 2 x 2"),
        ("nan_inf", GENERAL + "\n2 2 4\n1 1 nan\n1 2 -inf\n2 1 inf\n2 2 -nan\n", None),
        ("short_line", GENERAL + "\n2 2 2\n1 1 1\n2 2\n", "line 4: entry needs"),
        ("count_mismatch", GENERAL + "\n2 2 3\n1 1 1\n2 2 2\n",
         "line 2: size line promises 3 entries, file has 2"),
        ("out_of_range", GENERAL + "\n2 2 2\n1 1 1\n0 1 2\n", "line 4: index \\(0, 1\\)"),
        ("symmetric_expands", SYMMETRIC + "\n3 3 3\n1 1 1\n3 1 2\n3 2 -4\n", None),
        ("header_comments_blanks",
         GENERAL + "\n% one\n%two\n% three\n\n  \n2 2 2\n1 1 1.5\n2 2 -3\n", None),
        ("unsorted", GENERAL + "\n3 3 4\n3 1 4\n1 2 1\n2 2 2\n1 1 3\n", None),
        ("unsorted_symmetric", SYMMETRIC + "\n3 3 3\n3 2 -4\n1 1 1\n3 1 2\n", None),
        ("unsorted_late_duplicate", GENERAL + "\n3 3 5\n3 3 3\n1 1 1\n2 2 2\n3 1 4\n1 1 5\n",
         "line 7: duplicate entry for \\(1, 1\\)"),
    ]

    @pytest.mark.parametrize("name, text, error", CASES, ids=[c[0] for c in CASES])
    def test_same_outcome(self, tmp_path, name, text, error):
        path = tmp_path / f"{name}.mtx"
        path.write_bytes(text.encode())
        got, want = outcome(mmio.read_matrix, path), outcome(mmio._read_by_lines, path)
        if error is None:
            assert isinstance(got, np.ndarray)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            assert got == want
            assert re.match(error, got)

    def test_clean_file_skips_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "clean.mtx"
        m = RNG.standard_normal((9, 4))
        m[RNG.random((9, 4)) < 0.4] = 0.0
        mmio.write_matrix(path, m)
        commented = tmp_path / "commented.mtx"
        mmio.write_matrix(commented, m, comments=["first note", "second note"])
        shuffled = tmp_path / "shuffled.mtx"
        head, size, *entries = path.read_text().splitlines()
        shuffled.write_text("\n".join([head, "% note", "", size] + entries[::-1]) + "\n")
        monkeypatch.setattr(mmio, "_read_by_lines", None)
        for p in (path, commented, shuffled):
            np.testing.assert_array_equal(mmio.read_matrix(p), m)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, tmp_path, suffix):
        # numpy would decompress a path with this suffix; it is plain text
        path = tmp_path / f"m.mtx{suffix}"
        path.write_text(GENERAL + "\n2 2 2\n1 1 1.5\n2 2 -3\n")
        for p in (path, str(path)):
            got = mmio.read_matrix(p)
            assert got.tobytes() == mmio._read_by_lines(p).tobytes()
            np.testing.assert_array_equal(got, [[1.5, 0.0], [0.0, -3.0]])


sparse_matrices = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
    elements=st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False)))


def write_by_cells(path, a, symmetric=False, comments=()):
    """The writer's former body, a Python loop over every cell, kept as the
    byte-for-byte reference for ``mmio.write_matrix``."""
    rows, cols = a.shape
    entries = []
    for i in range(rows):
        jmax = i + 1 if symmetric else cols
        for j in range(jmax):
            if a[i, j] != 0.0:
                entries.append((i + 1, j + 1, a[i, j]))
    kind = "symmetric" if symmetric else "general"
    with open(path, "w") as fh:
        fh.write(f"{mmio._HEADER} {kind}\n")
        for c in comments:
            fh.write(f"% {c}\n")
        fh.write(f"{rows} {cols} {len(entries)}\n")
        for i, j, v in entries:
            fh.write(f"{i} {j} {v:.17g}\n")


def mostly_zero(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.03)
    a[0, -1], a[-1, 0] = -0.0, 5e-324     # a signed zero and a subnormal
    return a


def symmetric_of(a):
    side = min(a.shape)
    low = np.tril(a[:side, :side])
    return low + np.tril(low, -1).T


class TestWriterMatchesCellLoop:
    @pytest.mark.parametrize("name, a, symmetric, comments", [
        ("general", RNG.standard_normal((7, 5)), False, ()),
        ("symmetric", symmetric_of(RNG.standard_normal((6, 6))), True, ()),
        ("commented", RNG.standard_normal((4, 6)), False, ("first", "second line")),
        ("mostly_zero", mostly_zero(40, 30, 1), False, ()),
        ("mostly_zero_symmetric", symmetric_of(mostly_zero(30, 30, 2)), True, ("c",)),
        ("all_zero", np.zeros((3, 4)), False, ()),
        ("one_by_one", np.array([[-2.5]]), True, ()),
        ("non_finite", np.array([[np.nan, 0.0], [np.inf, -np.inf]]), False, ()),
    ])
    def test_same_bytes(self, tmp_path, name, a, symmetric, comments):
        got, want = tmp_path / "got.mtx", tmp_path / "want.mtx"
        mmio.write_matrix(got, a, symmetric=symmetric, comments=comments)
        write_by_cells(want, a, symmetric=symmetric, comments=comments)
        assert got.read_bytes() == want.read_bytes()


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=sparse_matrices, symmetric=st.booleans())
    def test_write_read_bit_identical(self, tmp_path, m, symmetric):
        if symmetric:
            m = symmetric_of(m)
        path = tmp_path / "h.mtx"
        mmio.write_matrix(path, m, symmetric=symmetric)
        got = mmio.read_matrix(path)
        # -0.0 is not stored, so it reads back as +0.0.
        assert got.tobytes() == (m + 0.0).tobytes()
        assert got.tobytes() == mmio._read_by_lines(path).tobytes()
        write_by_cells(tmp_path / "ref.mtx", m, symmetric=symmetric)
        assert path.read_bytes() == (tmp_path / "ref.mtx").read_bytes()


class TestUndecodableBytes:
    """A byte that is not UTF-8 fails the check of the line it is on."""

    def test_gzip_file(self, tmp_path):
        import gzip

        path = tmp_path / "m.mtx.gz"
        path.write_bytes(gzip.compress((GENERAL + "\n2 2 1\n1 1 1.5\n").encode()))
        for p in (path, str(path)):
            with pytest.raises(mmio.MatrixMarketError, match="line 1: expected header"):
                mmio.read_matrix(p)

    @pytest.mark.parametrize("byte", [b"\xe9", b"\xa0", b"\x8b"])
    def test_entry_line(self, tmp_path, byte):
        path = tmp_path / "latin1.mtx"
        path.write_bytes(GENERAL.encode() + b"\n2 2 2\n1 1 1.5\n2 2 -3" + byte + b"\n")
        for read in (mmio.read_matrix, mmio._read_by_lines):
            with pytest.raises(mmio.MatrixMarketError, match="line 4: malformed entry"):
                read(path)

    def test_size_line(self, tmp_path):
        path = tmp_path / "size.mtx"
        path.write_bytes(GENERAL.encode() + b"\n2 2\xe9 1\n1 1 1.5\n")
        with pytest.raises(mmio.MatrixMarketError, match="line 2: non-integer size line"):
            mmio.read_matrix(path)

    def test_comment_line_ignored(self, tmp_path):
        path = tmp_path / "comment.mtx"
        path.write_bytes(GENERAL.encode() + b"\n% caf\xe9\n2 2 2\n1 1 1.5\n% \xff\n2 2 -3\n")
        np.testing.assert_array_equal(mmio.read_matrix(path), [[1.5, 0.0], [0.0, -3.0]])


class TestHeaderRejections:
    """Each refusal of the header or size line names its line."""

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        (GENERAL + "\n% no size line follows\n", "line 2: missing size line"),
        (GENERAL + "\n2 2\n1 1 1.0\n", "line 2: size line needs 'rows cols entries', got '2 2'"),
        (GENERAL + "\n0 3 0\n", "line 2: invalid dimensions 0 x 3, 0 entries"),
        (SYMMETRIC + "\n3 2 0\n", "line 2: symmetric storage requires a square matrix"),
    ], ids=["empty", "no-size-line", "two-tokens", "zero-rows", "symmetric-3x2"])
    def test_refused(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(mmio.MatrixMarketError, match=re.escape(message)):
            mmio.read_matrix(path)

    def test_command_exits_2(self, tmp_path, capsys):
        from blocksvd import cli

        path = tmp_path / "empty.mtx"
        path.write_text("")
        assert cli.main(["approx", str(path), "--k", "1", "--i", "1"]) == 2
        assert capsys.readouterr().err == "error: line 1: empty file\n"

    def test_write_refuses_vector(self, tmp_path):
        with pytest.raises(MatrixError, match="need a non-empty 2-D array"):
            mmio.write_matrix(tmp_path / "v.mtx", np.ones(3))
