import re

import numpy as np
import pytest

from aerosurrogate import pointcloud
from aerosurrogate.pointcloud import (
    PointCloud, SampleRecord, NormalizationStats, SampleFormatError,
    load_sample, save_sample, save_targets, normalize, normalize_clouds,
    compute_stats, write_manifest, read_manifest, split_of, _read_rows,
    _write_rows)
from aerosurrogate.rng import SplitMix64


def oracle_read_rows(path, n, width, lines=None, start=0):
    """Per-line reference reader: str.splitlines, str.split and float on
    each token. Blank lines are skipped; errors name the line's number in
    the file."""
    if lines is None:
        if not path.is_file():
            raise SampleFormatError(f"missing file: {path}")
        lines = path.read_text(encoding="utf-8").splitlines()
    body = [i for i in range(start, len(lines)) if lines[i].strip()]
    if len(body) != n:
        raise SampleFormatError(f"{path}: expected {n} rows, got {len(body)}")
    rows = []
    for i in body:
        parts = lines[i].split()
        if len(parts) != width:
            raise SampleFormatError(
                f"{path}:{i + 1}: expected {width} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise SampleFormatError(f"{path}:{i + 1}: {e}") from None
    arr = np.array(rows, dtype=np.float64).reshape(n, width)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        lineno = body[int(np.argmin(finite))] + 1
        raise SampleFormatError(f"{path}:{lineno}: non-finite value")
    return arr


def oracle_write_rows(path, rows, header=None):
    """Reference writer: one `%` per row, %.17g values."""
    rows = np.asarray(rows, dtype=np.float64)
    fmt = " ".join(["%.17g"] * rows.shape[1])
    lines = [] if header is None else [header]
    lines += [fmt % tuple(row.tolist()) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def make_record(n_s=4, n_v=2, seed=0, drag=0.3):
    rng = SplitMix64(seed)
    pos_s = rng.uniform_array(n_s * 3).reshape(n_s, 3) * 2 - 1
    normals = rng.uniform_array(n_s * 3).reshape(n_s, 3) - 0.5
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    pos_v = rng.uniform_array(n_v * 3).reshape(n_v, 3) * 4 - 2
    surface = PointCloud(pos_s, normals, "surface")
    volume = PointCloud(pos_v, None, "volume")
    return SampleRecord(surface=surface, volume=volume,
                        pressure=rng.uniform_array(n_s),
                        velocity=rng.uniform_array(n_v * 3).reshape(n_v, 3),
                        drag=drag, id="t")


class TestPointCloudInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)), None, "surface")

    def test_rejects_nonfinite_position(self):
        pos = np.zeros((2, 3))
        pos[1, 0] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pos, None, "surface")

    def test_rejects_non_unit_normals(self):
        pos = np.zeros((2, 3))
        bad = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(ValueError):
            PointCloud(pos, bad, "surface")

    def test_rejects_bad_role(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), None, "ghost")


class TestSampleRecordInvariants:
    def test_pressure_count_mismatch(self):
        rec = make_record()
        with pytest.raises(ValueError):
            SampleRecord(surface=rec.surface, volume=rec.volume,
                         pressure=rec.pressure[:-1], velocity=rec.velocity,
                         drag=0.3)

    def test_velocity_count_mismatch(self):
        rec = make_record()
        with pytest.raises(ValueError):
            SampleRecord(surface=rec.surface, volume=rec.volume,
                         pressure=rec.pressure, velocity=rec.velocity[:-1],
                         drag=0.3)

    def test_nonfinite_drag(self):
        rec = make_record()
        with pytest.raises(ValueError):
            SampleRecord(surface=rec.surface, volume=rec.volume,
                         pressure=rec.pressure, velocity=rec.velocity,
                         drag=float("inf"))


class TestFileIO:
    def test_round_trip_identity(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        back = load_sample(tmp_path / "s0")
        np.testing.assert_array_equal(back.surface.positions, rec.surface.positions)
        np.testing.assert_array_equal(back.surface.normals, rec.surface.normals)
        np.testing.assert_array_equal(back.volume.positions, rec.volume.positions)
        np.testing.assert_array_equal(back.pressure, rec.pressure)
        np.testing.assert_array_equal(back.velocity, rec.velocity)
        assert back.drag == rec.drag

    def test_direct_readback(self, tmp_path):
        rec = make_record(n_s=4, n_v=2)
        save_sample(rec, tmp_path / "s0")
        (tmp_path / "s0" / "cd.txt").write_text("0.3000000000\n")
        back = load_sample(tmp_path / "s0")
        assert back.surface.n_points == 4
        assert back.volume.n_points == 2
        assert back.drag == 0.3

    @pytest.mark.parametrize("name", ["pressure.txt", "velocity.txt",
                                      "cd.txt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_targets_refuses_non_finite(self, tmp_path, name, value):
        targets = {"pressure.txt": np.zeros(3), "velocity.txt": np.zeros((2, 3)),
                   "cd.txt": np.zeros(1)}
        targets[name].flat[-1] = value
        out = tmp_path / "pred"
        with pytest.raises(SampleFormatError,
                           match=f"^{re.escape(str(out / name))}: non-finite"):
            save_targets(out, targets["pressure.txt"],
                         targets["velocity.txt"], targets["cd.txt"][0])
        assert not out.exists()

    def test_save_is_deterministic(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "a")
        save_sample(rec, tmp_path / "b")
        for name in ("surface.txt", "volume.txt", "pressure.txt",
                     "velocity.txt", "cd.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_pressure_count_mismatch_error(self, tmp_path):
        rec = make_record(n_s=4)
        save_sample(rec, tmp_path / "s0")
        lines = (tmp_path / "s0" / "pressure.txt").read_text().splitlines()
        (tmp_path / "s0" / "pressure.txt").write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(SampleFormatError, match="expected 4 rows"):
            load_sample(tmp_path / "s0")

    def test_malformed_row_reports_line(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        lines = (tmp_path / "s0" / "surface.txt").read_text().splitlines()
        lines[2] = "1.0 oops 2.0 0 0 1"
        (tmp_path / "s0" / "surface.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match=":3:"):
            load_sample(tmp_path / "s0")

    def test_missing_file(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        (tmp_path / "s0" / "velocity.txt").unlink()
        with pytest.raises(SampleFormatError, match="missing file"):
            load_sample(tmp_path / "s0")

    def test_nonfinite_value(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        (tmp_path / "s0" / "cd.txt").write_text("nan\n")
        with pytest.raises(SampleFormatError, match="non-finite"):
            load_sample(tmp_path / "s0")

    def test_golden_text(self, tmp_path):
        third = 1.0 / 3.0
        surface = PointCloud([[0.1, -0.0, third], [1e-300, 2.5, -7.0]],
                             [[0.0, -0.0, 1.0], [-1.0, 0.0, 0.0]], "surface")
        volume = PointCloud([[1.0, 2.0, 3.0], [0.5, -0.25, 1e-300]], None,
                            "volume")
        rec = SampleRecord(surface=surface, volume=volume,
                           pressure=[third, -0.0],
                           velocity=[[0.1, 0.2, 0.3], [-1.0, 1e-300, 4.0]],
                           drag=1e22)
        save_sample(rec, tmp_path / "s0")
        expected = {
            "surface.txt": "2 0 1\n"
                           "0.10000000000000001 -0 0.33333333333333331 0 -0 1\n"
                           "1e-300 2.5 -7 -1 0 0\n",
            "volume.txt": "2 0 0\n"
                          "1 2 3\n"
                          "0.5 -0.25 1e-300\n",
            "pressure.txt": "0.33333333333333331\n-0\n",
            "velocity.txt": "0.10000000000000001 0.20000000000000001 "
                            "0.29999999999999999\n"
                            "-1 1e-300 4\n",
            "cd.txt": "1e+22\n",
        }
        for name, text in expected.items():
            assert (tmp_path / "s0" / name).read_text() == text, name
        back = load_sample(tmp_path / "s0")
        assert back.surface.positions.tobytes() == surface.positions.tobytes()
        assert back.pressure.tobytes() == rec.pressure.tobytes()

    @pytest.mark.parametrize("name,blank_at,bad_at", [
        ("surface.txt", 2, 4), ("pressure.txt", 0, 3)])
    def test_line_numbers_count_blank_lines(self, tmp_path, name, blank_at,
                                            bad_at):
        save_sample(make_record(), tmp_path / "s0")
        lines = (tmp_path / "s0" / name).read_text().splitlines()
        lines.insert(blank_at, "")
        lines[bad_at - 1] = lines[bad_at - 1].replace(
            lines[bad_at - 1].split()[0], "oops", 1)
        (tmp_path / "s0" / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match=f"{name}:{bad_at}: "):
            load_sample(tmp_path / "s0")

    def test_non_unit_normal_is_format_error(self, tmp_path):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / "surface.txt"
        lines = path.read_text().splitlines()
        lines[2] = "0 0 0 2 0 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match="surface.txt: normals"):
            load_sample(tmp_path / "s0")

    def test_negative_feature_count_is_format_error(self, tmp_path):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / "surface.txt"
        lines = path.read_text().splitlines()
        # rows as wide as the header claims: 3 + 3 normals - 1
        lines = ["4 -1 1"] + [" ".join(ln.split()[:5]) for ln in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match="surface.txt:1: C_u"):
            load_sample(tmp_path / "s0")

    @pytest.mark.parametrize("name", ["surface.txt", "volume.txt"])
    def test_feature_columns_are_format_error(self, tmp_path, name):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / name
        lines = path.read_text().splitlines()
        n, _, has_normals = lines[0].split()
        # rows as wide as the header claims: one feature column each
        lines = [f"{n} 1 {has_normals}"] + [ln + " 0.5" for ln in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SampleFormatError, match=f"{name}:1: C_u must be 0"):
            load_sample(tmp_path / "s0")

    @pytest.mark.parametrize("name,header", [
        ("surface.txt", "-3 0 1"), ("surface.txt", "0 0 1"),
        ("volume.txt", "0 0 0")])
    def test_non_positive_point_count_is_header_error(self, tmp_path, name,
                                                      header):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(SampleFormatError,
                           match=f"{name}:1: N must be >= 1"):
            load_sample(tmp_path / "s0")

    @pytest.mark.parametrize("name", ["surface.txt", "pressure.txt", "cd.txt"])
    def test_non_utf8_file_is_format_error_naming_it(self, tmp_path, name):
        save_sample(make_record(), tmp_path / "s0")
        path = tmp_path / "s0" / name
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(SampleFormatError, match=f"{name}: not UTF-8: "):
            load_sample(tmp_path / "s0")

    def test_zero_feature_sample(self, tmp_path):
        rec = make_record()
        save_sample(rec, tmp_path / "s0")
        header = (tmp_path / "s0" / "surface.txt").read_text().splitlines()[0]
        assert header.split()[1] == "0"   # C_u=0: no feature columns written


# Characters at which str.splitlines() ends a line.
SPLITS_LINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029"]

# A body that fills the first block of lines the reader converts at once.
LONG = pointcloud._LINES
ROWS = "1 2 3\n" * LONG
WIDE = "1 2 3 4 5 6\n" * LONG

PARITY_CASES = [
    # line endings and separators
    ("crlf", "1 2 3\r\n4 5 6\r\n", 2, 3),
    ("bare-cr", "1 2 3\r4 5 6\r", 2, 3),
    ("tabs", "1\t2\t3\n4\t5\t6\n", 2, 3),
    ("trailing-spaces", "1 2 3   \n4 5 6 \t\n", 2, 3),
    ("blank-lines", "\n1 2 3\n\n   \n\t\n4 5 6\n\n", 2, 3),
    ("blank-lines-then-bad-token", "\n \n1 2 3\n\n4 x 6\n", 2, 3),
    ("no-final-newline", "1 2 3\n4 5 6", 2, 3),
    ("only-blank-lines", "\n \n\t\n", 1, 3),
    ("empty", "", 1, 1),
    ("unit-separator", "1\x1f2 3\n", 1, 3),
    ("no-break-space", "1\xa02 3\n", 1, 3),
    ("nul", "1\x002 3\n", 1, 3),
    # tokens Python's float reads differently from np.loadtxt
    ("underscore", "1_0 2 3\n", 1, 3),
    ("arabic-indic-digits", "\u0661 \u0662.\u0665 \u0663\n", 1, 3),
    ("hex-float", "0x1p3 2 3\n", 1, 3),
    # special values
    ("nan", "1 nan 3\n", 1, 3),
    ("nan-second-row", "1 2 3\n4 NaN 6\n", 2, 3),
    ("inf", "inf 2 3\n", 1, 3),
    ("infinity", "1 2 -infinity\n", 1, 3),
    ("overflow", "1e400 2 3\n", 1, 3),
    ("underflow", "1e-400 -1e-400 3\n", 1, 3),
    # malformed rows
    ("short-row", "1 2 3\n4 5\n", 2, 3),
    ("long-row", "1 2 3 4\n5 6 7\n", 2, 3),
    ("commas", "1,2,3\n", 1, 3),
    ("trailing-comment", "1 2 3 # c\n", 1, 3),
    ("too-few-rows", "1 2 3\n", 2, 3),
    ("too-many-rows", "1 2 3\n4 5 6\n", 1, 3),
    # shapes
    ("cd", "0.29999999999999999\n", 1, 1),
    ("cd-between-blank-lines", "\n0.3\n\n", 1, 1),
    ("cd-two-values", "0.3 0.4\n", 1, 1),
    ("one-row", "1 2 3\n", 1, 3),
    # mixed faults: a width or token error on any line comes before a
    # non-finite value, and the first line with either error wins
    ("nan-then-bad-token", "1 nan 3\n4 x 6\n", 2, 3),
    ("bad-token-then-short-row", "4 x 6\n1 2\n", 2, 3),
    ("inf-then-short-row", "1 inf 3\n4 5\n", 2, 3),
    ("short-row-then-bad-token", "1 2\n4 x 6\n", 2, 3),
    # faults in a later block of lines than the first
    ("later-block-bad-token", ROWS + "4 x 6\n", LONG + 1, 3),
    ("later-block-short-row", ROWS + "4 5\n", LONG + 1, 3),
    ("later-block-nan", ROWS + "4 nan 6\n", LONG + 1, 3),
    ("nan-then-later-block-bad-token", "1 nan 3\n" + ROWS + "4 x 6\n",
     LONG + 2, 3),
    ("blank-lines-then-later-block-short-row",
     "\n \n" + ROWS.replace("\n", "\n\n", 9) + "4 5\n", LONG + 1, 3),
    ("later-block-too-few-rows", ROWS, LONG + 1, 3),
    # a last block of two half-width rows must not fill two full rows
    ("later-block-half-width-pair", WIDE + "1 2 3\n4 5 6\n", LONG + 2, 6),
    ("later-block-one-double-width-row", ROWS + "1 2 3 4 5 6\n", LONG + 1, 3),
] + [case for i, c in enumerate(SPLITS_LINES) for case in (
    (f"split{i}-inside-row", f"1 2 3{c}4 5 6\n", 2, 3),
    (f"split{i}-inside-wide-row", f"1 2 3{c}4 5 6\n", 1, 6),
    (f"split{i}-own-line", f"1 2 3\n{c}\n4 5 6\n", 2, 3),
    (f"split{i}-own-line-then-bad-token", f"1 2 3\n{c}\n4 x 6\n", 2, 3),
)]


def outcome(read):
    """("rows", bytes, shape) for an array, ("error", message) for a
    SampleFormatError."""
    try:
        arr = read()
    except SampleFormatError as e:
        return ("error", str(e))
    return ("rows", arr.tobytes(), arr.shape)


def assert_same_read(path, n, width, skip):
    """The reader and the per-line oracle raise the same message or return
    byte-equal arrays; with `skip=1` the file's first line is a header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    want = outcome(lambda: oracle_read_rows(path, n, width, lines, skip))
    if skip:
        got = outcome(lambda: pointcloud._parse_rows(
            path, pointcloud._read_text(path).splitlines(), skip, n, width))
    else:
        got = outcome(lambda: _read_rows(path, n, width))
    assert got == want


def awkward_doubles():
    """Random bit patterns plus subnormals, signed zeros and the ends of
    the float64 range, shaped (-1, 3)."""
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
    x = bits.view(np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.225073858507201e-308,
               2.2250738585072014e-308, 1.7e308, -1.7e308,
               1.7976931348623157e308, 1.0 / 3.0, 0.1, 1e22, -1.0]
    x = np.concatenate([x[np.isfinite(x)], special,
                        rng.uniform(-1.0, 1.0, 100)])
    return x[: len(x) // 3 * 3].reshape(-1, 3)


class TestReaderParity:
    """The reader accepts and rejects exactly what the per-line oracle
    does, with the same values, messages and error precedence."""

    @pytest.mark.parametrize("skip", [0, 1])
    @pytest.mark.parametrize("name,text,n,width", PARITY_CASES,
                             ids=[c[0] for c in PARITY_CASES])
    def test_same_result_as_oracle(self, tmp_path, name, text, n, width,
                                   skip):
        path = tmp_path / "rows.txt"
        path.write_bytes((("2 0 0\n" if skip else "") + text).encode())
        assert_same_read(path, n, width, skip)

    @pytest.mark.parametrize("fmt", ["%.17g", "%.25g", "repr", "%.3e"])
    def test_round_trip_matches_oracle(self, tmp_path, fmt):
        x = awkward_doubles()
        show = repr if fmt == "repr" else (lambda v: fmt % v)
        path = tmp_path / "rows.txt"
        path.write_text("".join(" ".join(show(v) for v in row.tolist()) + "\n"
                                for row in x))
        assert_same_read(path, x.shape[0], 3, 0)
        if fmt in ("%.17g", "repr"):
            assert _read_rows(path, x.shape[0], 3).tobytes() == x.tobytes()

    def test_crlf_and_blank_lines_read_as_written(self, tmp_path):
        save_sample(make_record(n_s=40, n_v=30), tmp_path / "s0")
        want = load_sample(tmp_path / "s0")
        velocity = tmp_path / "s0" / "velocity.txt"
        rows = velocity.read_text().splitlines()
        velocity.write_bytes(("\r\n\r\n".join(rows) + "\r\n \n").encode())
        got = load_sample(tmp_path / "s0")
        assert got.velocity.tobytes() == want.velocity.tobytes()
        assert got.surface.normals.tobytes() == want.surface.normals.tobytes()

    @pytest.mark.parametrize("text,want", [
        ("2 0 0\r\n1 2 3\r\n4 5 6\r\n", [[1, 2, 3], [4, 5, 6]]),
        ("2 0 0\x0c1 2 3\n4 5 6\n", [[1, 2, 3], [4, 5, 6]]),
        ("2 0 0\u20281 2 3\n\n4 5 6", [[1, 2, 3], [4, 5, 6]]),
        ("\n2 0 0\n1 2 3\n4 5 6\n", "volume.txt:1: header must be"),
        ("\x0c2 0 0\n1 2 3\n4 5 6\n", "volume.txt:1: header must be"),
    ])
    def test_header_is_the_first_line_splitlines_sees(self, tmp_path, text,
                                                       want):
        path = tmp_path / "volume.txt"
        path.write_bytes(text.encode())
        if isinstance(want, str):
            with pytest.raises(SampleFormatError, match=want):
                pointcloud._load_cloud(path, "volume")
        else:
            cloud = pointcloud._load_cloud(path, "volume")
            assert cloud.positions.tolist() == want


class TestWriterBytes:
    @pytest.mark.parametrize("header", [None, "7 0 1"])
    @pytest.mark.parametrize("n", [0, 1, 2, 1025])
    @pytest.mark.parametrize("width", [1, 3, 6])
    def test_same_bytes_as_oracle(self, tmp_path, width, n, header):
        values = np.array([-0.0, 1e-300, 1e22, 1.0 / 3.0, 0.1, -7.0, 5e-324])
        rng = np.random.default_rng(width * 10_000 + n)
        rows = np.concatenate([values, rng.normal(size=n * width)])
        rows = rows[: n * width].reshape(n, width)
        _write_rows(tmp_path / "new.txt", rows, header)
        oracle_write_rows(tmp_path / "old.txt", rows, header)
        assert (tmp_path / "new.txt").read_bytes() == \
            (tmp_path / "old.txt").read_bytes()


class TestNormalization:
    @staticmethod
    def oracle_frame(surface):
        """Midpoint of the bounding box, and twice the largest distance
        from it."""
        pos = surface.positions
        center = (pos.min(axis=0) + pos.max(axis=0)) / 2
        return center, 2 * np.linalg.norm(pos - center, axis=1).max()

    def test_identity_stats(self):
        # the targets stay as they are, and the clouds go to the frame
        rec = make_record()
        out = normalize(rec, NormalizationStats.identity())
        center, scale = self.oracle_frame(rec.surface)
        np.testing.assert_allclose(out.surface.positions,
                                   (rec.surface.positions - center) / scale,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.volume.positions,
                                   (rec.volume.positions - center) / scale,
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out.surface.normals, rec.surface.normals)
        np.testing.assert_allclose(out.pressure, rec.pressure)
        assert out.drag == rec.drag

    def test_unit_ball(self):
        # every surface point lies within 0.5 of the origin, the farthest
        # at 0.5; the volume may lie outside
        for seed in range(3):
            rec = make_record(seed=seed)
            surface = normalize_clouds(rec.surface, rec.volume)[0]
            radii = np.linalg.norm(surface.positions, axis=1)
            assert radii.max() == pytest.approx(0.5, rel=1e-12)
            assert radii.max() <= 0.5 + 1e-15

    def test_single_point_has_scale_one(self):
        rec = make_record(n_s=1)
        surface, volume = normalize_clouds(rec.surface, rec.volume)
        np.testing.assert_array_equal(surface.positions, np.zeros((1, 3)))
        np.testing.assert_array_equal(
            volume.positions, rec.volume.positions - rec.surface.positions)

    def test_surface_permutation_leaves_frame_bit_equal(self):
        rec = make_record(n_s=64, n_v=16, seed=5)
        perm = np.random.default_rng(0).permutation(64)
        surface, volume = normalize_clouds(rec.surface, rec.volume)
        p_surface, p_volume = normalize_clouds(rec.surface.select(perm),
                                               rec.volume)
        np.testing.assert_array_equal(p_surface.positions,
                                      surface.positions[perm])
        np.testing.assert_array_equal(p_volume.positions, volume.positions)

    @pytest.mark.parametrize("edit", [
        lambda v: PointCloud(v.positions * 100.0 + 7.0, None, "volume"),
        lambda v: v.select([0]),
        lambda v: PointCloud(np.concatenate([v.positions, [[1e6, -1e6, 0]]]),
                             None, "volume"),
        lambda v: None], ids=["changed", "dropped", "added", "none"])
    def test_volume_never_moves_frame(self, edit):
        rec = make_record(n_s=16, n_v=8, seed=2)
        surface = normalize_clouds(rec.surface, rec.volume)[0]
        other = normalize_clouds(rec.surface, edit(rec.volume))[0]
        np.testing.assert_array_equal(other.positions, surface.positions)
        np.testing.assert_array_equal(other.normals, surface.normals)


class TestComputeStats:
    def test_degenerate_drag_floor(self):
        recs = [make_record(seed=s, drag=0.3) for s in range(2)]
        stats = compute_stats(recs)
        assert stats.drag_mean == pytest.approx(0.3)
        assert stats.drag_std == 1e-8

    def test_population_std(self):
        recs = [make_record(seed=0, drag=0.2), make_record(seed=1, drag=0.4)]
        stats = compute_stats(recs)
        assert stats.drag_mean == pytest.approx(0.3)
        assert stats.drag_std == pytest.approx(0.1)

    def test_permutation_invariant(self):
        recs = [make_record(seed=s, drag=0.1 * s + 0.2) for s in range(4)]
        s1 = compute_stats(recs).to_dict()
        s2 = compute_stats(recs[::-1]).to_dict()
        assert s1.keys() == s2.keys()
        for key in s1:
            np.testing.assert_allclose(s2[key], s1[key], rtol=1e-12,
                                       atol=1e-15, err_msg=key)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_stats([])


class TestManifest:
    def test_round_trip(self, tmp_path):
        write_manifest(tmp_path, ["a", "b"], {"a": "train", "b": "val"})
        m = read_manifest(tmp_path)
        assert m["samples"] == ["a", "b"]
        assert split_of("b", m) == "val"

    def test_hash_split_default(self, tmp_path):
        write_manifest(tmp_path, [f"s{i}" for i in range(100)])
        m = read_manifest(tmp_path)
        vals = sum(split_of(s, m) == "val" for s in m["samples"])
        assert 5 <= vals <= 40   # roughly 20%

    def test_missing_manifest_names_the_file(self, tmp_path):
        with pytest.raises(SampleFormatError) as e:
            read_manifest(tmp_path)
        assert str(e.value) == f"missing file: {tmp_path / 'manifest.json'}"

    def test_manifest_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes('{"format_version": 1, "samples": ["\u00e9t\u00e9"]}'
                         .encode("utf-8"))
        assert read_manifest(tmp_path)["samples"] == ["\u00e9t\u00e9"]
        path.write_bytes(b'{"format_version": 1, "samples": ["\xe9"]}')
        with pytest.raises(SampleFormatError,
                           match=re.escape(f"{path}: not UTF-8")):
            read_manifest(tmp_path)
