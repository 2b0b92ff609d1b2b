"""End-to-end runs of the command line, in process, against temp dirs."""

import argparse
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snopto import __version__, cli, feasibility, gaussian_dynamics, spectra
from snopto.cli import _ALL_KEYS, _SPECS, _emit_csv, build_parser, load_config, main, parse_quantity
from snopto.csvtext import G17Rows
from snopto.errors import ConfigError
from snopto.feasibility import PRE_DESIGN, ExperimentConfig, pre_report
from snopto.gaussian_dynamics import GaussianState, check_step, evolve_moments
from snopto.materials import get_material, omega_sn
from snopto.synth import BasebandModel, gen_baseband, read_series

TWO_PI = 2.0 * math.pi


class TestParseQuantity:
    @pytest.mark.parametrize("text,expected", [
        ("0.14", 0.14),
        ("-3.5", -3.5),
        ("1e7", 1e7),
        ("10 mHz", TWO_PI * 0.010),
        ("10mHz", TWO_PI * 0.010),
        ("0.2 THz", TWO_PI * 0.2e12),
        ("1 Hz", TWO_PI),
        ("300 K", 300.0),
        ("15 mK", 0.015),
        ("432 mW", 0.432),
        ("4.8 nW", 4.8e-9),
        ("200 g", 0.2),
        ("0.2 kg", 0.2),
        ("184 amu", 184 * 1.66053906660e-27),
        ("0.0478 A2", 4.78e-22),
        ("0.0478 A^2", 4.78e-22),
        ("1.6 h", 5760.0),
        ("13 d", 13 * 86400.0),
        ("200 s", 200.0),
        ("50 ms", 0.05),
    ])
    def test_accepted(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("text", ["", "abc", "3 furlongs", "inf", "nan", "1 QHz"])
    def test_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_quantity(text)

    def test_passthrough_numbers(self):
        assert parse_quantity(0.14) == 0.14
        assert parse_quantity(7) == 7.0

    @pytest.mark.parametrize("text,message", [
        ("1e400 s", "non-finite quantity '1e400 s'"),
        # "W" is the first suffix whose head parses, so nan is refused as a value
        ("nanW", "non-finite quantity 'nanW'"),
        ("Hz", "cannot parse quantity 'Hz'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_quantity(text)
        assert str(exc.value) == message


class TestConfigFile:
    def test_key_value_document(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text(
            "# a comment\n"
            "\n"
            "omega-cm = 10 mHz\n"
            "t0 = 300 K\n"
            "material = W\n"
        )
        conf = load_config(p)
        assert conf == {"omega_cm": "10 mHz", "t0": "300 K", "material": "W"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("this is not a setting\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.conf")

    def test_json_report_accepted(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"config": {"amp": 0.62, "kind": "dip"}}))
        assert load_config(p) == {"amp": 0.62, "kind": "dip"}

    def test_json_config_block_must_be_an_object(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"config": [1, 2]}))
        assert main(["spectrum", "--config", str(p), "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {p}: JSON config block must be an object\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["spectrum", "--config", str(p), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed JSON" in err and err.count("\n") == 1


class TestMaterial:
    def test_single(self, capsys):
        assert main(["material", "W"]) == 0
        out = capsys.readouterr().out
        assert "W" in out
        assert f"{omega_sn(get_material('W')):.4f}" in out

    def test_all_rows(self, capsys):
        assert main(["material", "--all"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1 + 7

    def test_all_rows_frozen(self, capsys):
        # sha256 of the whole table as printed
        assert main(["material", "--all"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "7e10546b64dade70535658771d8d16d61f5493991984c1eda386cf4c318cc048"

    def test_unknown(self, capsys):
        assert main(["material", "Xx"]) == 2
        assert "unknown material" in capsys.readouterr().err

    def test_no_argument(self):
        assert main(["material"]) == 2


class TestSpectrum:
    def test_pre_files_and_feature(self, tmp_path, capsys):
        assert main(["spectrum", "--prescription", "pre", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum_pre_seed0.json").read_text())
        feat = payload["result"]["feature"]
        assert feat["kind"] == "peak"
        assert feat["center"] == pytest.approx(payload["result"]["omega_q"], rel=1e-12)
        data = np.loadtxt(tmp_path / "spectrum_pre_seed0.csv")
        assert data.shape[1] == 2
        assert np.all(data[:, 1] > 0)

    def test_qm_flat_at_feature_frequency(self, tmp_path):
        assert main(["spectrum", "--prescription", "qm", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum_qm_seed0.json").read_text())
        assert payload["result"]["feature"] is None
        base = payload["result"]["baseline"]
        wq = payload["result"]["omega_q"]
        gamma_m = payload["config"]["omega_cm"] / payload["config"]["q"]
        data = np.loadtxt(tmp_path / "spectrum_qm_seed0.csv")
        mask = np.abs(data[:, 0] - wq) <= 10 * gamma_m
        assert mask.sum() > 100
        assert np.max(np.abs(data[mask, 1] / base - 1.0)) < 0.01

    def test_post_dip(self, tmp_path):
        assert main(["spectrum", "--prescription", "post", "--beta", "1e4",
                     "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum_post_seed0.json").read_text())
        assert payload["result"]["feature"]["kind"] == "dip"
        assert payload["config"]["beta"] == pytest.approx(1e4, rel=1e-12)


    # sha256 of the CSV and the JSON per prescription at the defaults
    FROZEN = {
        "qm": ("c61338bd91f86458b65a10cd918e1832a45ffbaf533d17033b18b86f7c458804",
               "e12d6e697663abcd2c1925a4678b8d1fbf78a99803fc39ab79baa57ed13d7afc"),
        "pre": ("02ef8d3f3faa1824e0130caf7e08bd7adac843997cf5d763b394c38d6a288af8",
                "65dd7827b618ff8d888c8dc4e4ba868680fa696bdb34594aace0d59781e39522"),
        "post": ("30e8ae8c7e093dcabeaa67fac18a69d1c90ba68bf1e9568feaa6cfbfe29a1b42",
                 "41131efbc635151149375ebaecd9033f81620b266f824abb7487d96d7895c0ea"),
    }

    @pytest.mark.parametrize("prescription", list(FROZEN))
    def test_default_files_frozen(self, tmp_path, prescription):
        assert main(["spectrum", "--prescription", prescription, "--outdir", str(tmp_path)]) == 0
        got = tuple(
            hashlib.sha256((tmp_path / f"spectrum_{prescription}_seed0.{ext}").read_bytes()).hexdigest()
            for ext in ("csv", "json")
        )
        assert got == self.FROZEN[prescription]

    def test_config_round_trip(self, tmp_path):
        # beta from beta_limit, beta from the optics (--i-in), and a material
        # whose beta recomputed from alpha_sq differs from beta_limit's
        for argv, stem in [
            (["--prescription", "post", "--seed", "5"], "spectrum_post_seed5"),
            (["--i-in", "432 mW", "--omega-c", "0.2 THz", "--seed", "2"], "spectrum_pre_seed2"),
            (["--material", "Os", "--seed", "1"], "spectrum_pre_seed1"),
        ]:
            first, rerun = tmp_path / stem, tmp_path / stem / "rerun"
            assert main(["spectrum", *argv, "--outdir", str(first)]) == 0
            assert main(["spectrum", "--config", str(first / f"{stem}.json"),
                         "--outdir", str(rerun)]) == 0
            for name in (f"{stem}.json", f"{stem}.csv"):
                assert (first / name).read_bytes() == (rerun / name).read_bytes(), name

    def test_explicit_grid(self, tmp_path):
        assert main(["spectrum", "--wmin", "0.1", "--wmax", "10", "--npoints", "5",
                     "--outdir", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "spectrum_pre_seed0.csv")
        np.testing.assert_array_equal(data[:, 0], np.geomspace(0.1, 10.0, 5))

    def test_npoints_only_sizes_an_explicit_grid(self, tmp_path):
        # the default grid ignores --npoints (test_bad_grid_rejected), so
        # default configs record none; an explicit grid defaults to 2001
        assert main(["spectrum", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum_pre_seed0.json").read_text())
        assert payload["config"]["npoints"] is None
        assert main(["spectrum", "--wmin", "0.1", "--wmax", "10", "--outdir", str(tmp_path)]) == 0
        assert np.loadtxt(tmp_path / "spectrum_pre_seed0.csv").shape == (2001, 2)

    @pytest.mark.parametrize("flags", [
        ["--wmin", "0", "--wmax", "1"],
        ["--wmin", "2", "--wmax", "1"],
        ["--wmin", "1", "--wmax", "2", "--npoints", "1"],
        ["--wmin", "1"],
        ["--wmax", "1"],
        ["--npoints", "5"],
    ])
    def test_bad_grid_rejected(self, tmp_path, capsys, flags):
        assert main(["spectrum", *flags, "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestEmitCsv:
    """`_emit_csv` writes the bytes of np.savetxt(..., fmt="%.17g", header=...)."""

    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7e308]

    @pytest.mark.parametrize("ncols", [1, 7])
    @pytest.mark.parametrize("nrows", [1, 4095, 4096, 4097])
    def test_matches_savetxt(self, tmp_path, ncols, nrows):
        rng = np.random.default_rng(nrows * 10 + ncols)
        data = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-300, 300, (nrows, ncols))
        flat = data.reshape(-1)
        flat[:len(self.SPECIAL)] = self.SPECIAL[:flat.size]
        flat[-len(self.SPECIAL):] = self.SPECIAL[-flat.size:]
        conf = {"material": "W", "mass": 0.2, "n": 3, "beta": None}
        names = [f"c{i}" for i in range(ncols)]
        _emit_csv(tmp_path / "got.csv", "test", conf, names, [data])
        header = "\n".join(["command = test", f"version = {__version__}", "material = W",
                            "mass = 0.2", "n = 3", "beta = None", ", ".join(names)])
        np.savetxt(tmp_path / "want.csv", data, fmt="%.17g", header=header)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _percent_rows(block) -> bytes:
    """The rows as one Python string format writes them: the oracle."""
    rows, cols = block.shape
    row_fmt = " ".join(["%.17g"] * cols) + "\n"
    return ((row_fmt * rows) % tuple(block.ravel().tolist())).encode()


def _assert_rows_equal(got: bytes, want: bytes):
    """Fail with the count of differing rows and the first of them, if any differ."""
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[0] if bad else (len(got), len(want))}")


class TestG17Rows:
    """`G17Rows` writes the bytes of Python's "%.17g", value for value."""

    @staticmethod
    def check(values, cols=1):
        values = np.asarray(values, dtype=float).ravel()
        block = values[:values.size - values.size % cols].reshape(-1, cols)
        rows_g17 = G17Rows()  # one formatter for every part, as _emit_csv uses it
        for start in range(0, len(block), 4096):
            part = block[start:start + 4096]
            _assert_rows_equal(rows_g17(part), _percent_rows(part))

    def test_reuse_leaks_no_state(self, tmp_path):
        # one formatter, many block sizes: a large block holding every kind
        # of value the Python route takes (and -0.0), then smaller blocks of
        # ordinary values, one row, and a block larger than the first
        rng = np.random.default_rng(11)
        first = rng.standard_normal((4096, 7)) * 10.0 ** rng.integers(-20, 20, (4096, 7))
        m = rng.integers(4 * 10**15, 9 * 10**15, 2000) | 1
        python_route = np.concatenate([[np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324, -2.5e-310, -0.0],
                                       m / 4.0, -m / 4.0])
        first.ravel()[rng.choice(first.size, python_route.size, replace=False)] = python_route
        blocks = [first, rng.standard_normal((1000, 7)), rng.standard_normal((300, 7)) * 1e-16,
                  np.arange(7.0)[None, :] + 0.5, rng.standard_normal((4097, 7)) * 1e5]
        rows_g17 = G17Rows()
        for block in blocks:
            _assert_rows_equal(rows_g17(block), _percent_rows(block))
        _emit_csv(tmp_path / "got.csv", "test", {}, [f"c{i}" for i in range(7)], iter(blocks))
        np.savetxt(tmp_path / "want.csv", np.concatenate(blocks), fmt="%.17g",
                   header="\n".join(["command = test", f"version = {__version__}",
                                      ", ".join(f"c{i}" for i in range(7))]))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_reused_scratch_bounds_allocation(self):
        # after a warm-up part sizes the scratch, a 4096-value part allocates
        # only its text, about 46 bytes per value at the peak; a megabyte of
        # numpy temporaries per part, 250 bytes per value, was handed back to
        # the kernel and faulted in again part after part
        rng = np.random.default_rng(12)
        rows_g17 = G17Rows()
        tracemalloc.start()
        try:
            rows_g17(rng.standard_normal((586, 7)))
            for _ in range(3):
                part = rng.standard_normal((585, 7)) * 10.0 ** rng.integers(-30, 30, (585, 7))
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                rows_g17(part)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak <= 128 * part.size
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("cols", [1, 7])
    def test_random_bit_patterns(self, cols):
        # every exponent, subnormals, nan payloads; then the named specials
        bits = np.random.default_rng(cols).integers(0, 2**64, 10**6, dtype=np.uint64)
        self.check(bits.view(np.float64), cols)
        specials = np.array([0, 2**63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48, 0xFFF8 << 48,
                             0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 1, 2**63 + 1,
                             0x000FFFFFFFFFFFFF, 0x0010000000000000], dtype=np.uint64)
        self.check(specials.view(np.float64), 1)

    def test_powers_of_ten_and_neighbours(self):
        # the exponent estimate, the round up to the next power of ten, and
        # the edges 1e-280 and 1e280 of the vector route, each with 1-3 ulps
        # either way
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values, up, down = [p], p, p
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            values += [up, down]
        values = np.concatenate(values)
        self.check(np.concatenate([values, -values]), 1)
        self.check(np.concatenate([values, -values])[:-1], 3)

    def test_exact_ties(self):
        # m / 4 has 18 significant digits ending in 5: %.17g rounds half to even
        m = np.random.default_rng(1).integers(4 * 10**15, 9 * 10**15, 10**5) | 1
        self.check(m / 4.0, 7)
        self.check(-m / 4.0, 1)
        # and at every scale: q 2^-(k+1) scales to q 5^k / 2
        ties = [math.ldexp(q, -k - 1) for k in range(25) for q in range(1, 2001, 2)
                if 2 * 10**16 <= q * 5**k < 2 * 10**17]
        self.check(ties, 1)

    def test_integers(self):
        self.check(np.random.default_rng(2).integers(0, 2**63, 10**5, dtype=np.int64).astype(float), 7)
        powers = 2.0 ** np.arange(64)
        self.check(np.concatenate([powers, powers - 1, powers + 1, -powers, np.arange(-1000.0, 1000.0)]), 1)

    @pytest.mark.parametrize("places", range(8))
    def test_rounded_decimals(self, places):
        rng = np.random.default_rng(places)
        values = np.round(rng.standard_normal(7 * 10**4) * 10.0 ** rng.integers(-3, 6, 7 * 10**4), places)
        self.check(values, 7)

    def test_zero_columns(self):
        block = np.random.default_rng(3).standard_normal((5000, 7))
        block[:, 1] = 0.0
        block[:, 2] = -0.0
        self.check(block, 7)
        self.check(np.zeros(7000), 7)
        self.check(-np.zeros(10), 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64), st.integers(1, 4))
    def test_any_float(self, values, cols):
        self.check(np.array(values * cols), cols)


class _NanEmptyNumpy:
    """numpy, except that np.empty fills its float arrays with a signaling nan.

    Arithmetic on a signaling nan raises the invalid flag, which numpy
    reports as a RuntimeWarning, so reading a value before writing it shows.
    """

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape):
        return np.full(shape, 0x7FF0000000000001, dtype=np.uint64).view(np.float64)


class TestDynamics:
    def test_trajectory_csv(self, tmp_path):
        # the records are the exact moment flow, so the conserved energy
        # stays flat to rounding: over 1e5 s at 5 mHz it spreads by 2.2e-16
        # in 57 298 rows, where fourth-order Runge-Kutta records spread by 7.0e-11
        for i, (flags, bound) in enumerate([
            (["--t-final", "100", "--dt", "0.0034", "--store-every", "50", "--x0", "1e-9"], 1e-9),
            (["--omega-cm", "5 mHz", "--squeeze", "0.4", "--t-final", "100000", "--store-every", "100"], 1e-14),
        ]):
            out = tmp_path / str(i)
            assert main(["dynamics", *flags, "--outdir", str(out)]) == 0
            data = np.loadtxt(out / "dynamics_W_seed0.csv")
            assert data.shape[1] == 7
            energy = data[:, 6]
            assert np.max(np.abs(energy / energy[0] - 1.0)) < bound, flags

    # sha256 of the emitted CSV, header included, per (store_every,
    # t_final) at the default dt: 4637 and 5796 rows (two blocks of 4096
    # rows, the second short) and 663 rows (one short block)
    FROZEN_CSV = {
        (1, "80"): "da9214c0a9d8cc739c9cbcaf5bde14084fc925e6e310ffac195f15923039665d",
        (3, "300"): "9970a60b24e86730994711d52f57e738fdd7d9a30d9bfd3d8eb719c4b51581d3",
        (7, "80"): "3ed67d4e6a26567651002af421d7d12959a5380d363278947071dd3855a85e7f",
    }

    @pytest.mark.parametrize("store_every,t_final", list(FROZEN_CSV))
    def test_csv_frozen(self, tmp_path, store_every, t_final):
        assert main(["dynamics", "--t-final", t_final, "--store-every", str(store_every),
                     "--squeeze", "0.3", "--x0", "2e-16", "--p0", "1e-18",
                     "--outdir", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "dynamics_W_seed0.csv").read_bytes()).hexdigest()
        assert digest == self.FROZEN_CSV[store_every, t_final]

    def test_memory_does_not_grow_with_t_final(self, tmp_path):
        # rows stream to the file in blocks of 4096, so 4637 rows and ten
        # times as many peak alike, up to the slack of string formatting;
        # holding the longer record would add 2.3 MB per copy
        peaks = []
        for t_final in ("80", "800"):
            tracemalloc.start()
            try:
                assert main(["dynamics", "--t-final", t_final, "--outdir", str(tmp_path / t_final)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 2**20
        assert peaks[1] < 4 * 2**20

    def test_requires_t_final(self, capsys):
        assert main(["dynamics"]) == 2
        assert "t-final" in capsys.readouterr().err

    # times are k * (dt * store_every): dividing a time difference by
    # store_every would stamp 0.10000000000000002, and a run that records
    # one row has no time difference at all
    @pytest.mark.parametrize("flags,dt", [(["--t-final", "10", "--dt", "0.1"], 0.1), (["--t-final", "0.01"], None)])
    def test_header_stamps_the_step_taken(self, tmp_path, flags, dt):
        assert main(["dynamics", *flags, "--store-every", "3", "--outdir", str(tmp_path)]) == 0
        dt = check_step(ExperimentConfig.build(**PRE_DESIGN).osc, 1.0, dt, 3)
        assert f"# dt = {dt!r}\n" in (tmp_path / "dynamics_W_seed0.csv").read_text()

    # the default W pendulum's omega_q period is about 17 s, so dt = 1 s is
    # coarser than a hundredth of it
    @pytest.mark.parametrize("flags,message", [(["--store-every", "0"], "store_every must be >= 1"),
                                               (["--dt", "1"], "too coarse")])
    def test_refused_step_writes_nothing(self, tmp_path, capsys, flags, message):
        assert main(["dynamics", "--t-final", "10", *flags, "--outdir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_csv_reads_back_the_records(self, tmp_path, capsys, monkeypatch):
        # %.17g round-trips every double, so the file holds the records bit
        # for bit; 300 s at every step is 17 386 rows, in five 4096-row blocks.
        # The last case coasts (omega_cm = 0). No case may warn, as a warning
        # would reach stderr outside the test runner: np.empty may hand back
        # signaling nans, here it always does, and no unwritten value may be read
        monkeypatch.setattr(gaussian_dynamics, "np", _NanEmptyNumpy())
        for t_final, store_every, omega_cm, squeeze, x0 in ((80.0, 3, None, 0.3, 2e-16),
                                                           (300.0, 1, None, 0.3, 2e-16),
                                                           (100.0, 1, 0.0, 0.0, 1e-16)):
            out = tmp_path / f"{t_final}-{store_every}"
            flags = [] if omega_cm is None else ["--omega-cm", repr(omega_cm)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["dynamics", "--t-final", repr(t_final), "--store-every", str(store_every), *flags,
                             "--squeeze", repr(squeeze), "--x0", repr(x0), "--p0", "1e-18",
                             "--outdir", str(out)]) == 0
            assert [str(w.message) for w in caught] == []
            assert capsys.readouterr().err == ""
            exp = ExperimentConfig.build(**{**PRE_DESIGN, **({} if omega_cm is None else {"omega_cm": omega_cm})})
            state = GaussianState.ground(exp.osc).squeezed(squeeze).displaced(x0, 1e-18)
            traj = evolve_moments(state, exp.osc, t_final, None, 0.5, store_every)
            records = np.column_stack([traj.times, traj.mean_x, traj.mean_p, traj.var_xx,
                                       traj.cov_xp, traj.var_pp, traj.energy])
            assert np.array_equal(np.loadtxt(out / "dynamics_W_seed0.csv"), records)

    @pytest.mark.parametrize("squeeze", ["355", "-355"])
    def test_overflowing_squeeze_is_one_error_line(self, tmp_path, capsys, squeeze):
        # exp(710) is past the largest double: the run is refused before
        # numpy warns of the overflow, and it writes nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["dynamics", "--t-final", "10", f"--squeeze={squeeze}", "--outdir", str(tmp_path)]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"error: squeeze r = {float(squeeze)!r} overflows the variances\n"
        assert not list(tmp_path.iterdir())

    def test_zero_means_print_as_zero(self, tmp_path):
        # the default state sits at the origin; 0 * cos + 0 * sin is -0
        # wherever both are negative, which must not reach the file as -0
        assert main(["dynamics", "--t-final", "200", "--outdir", str(tmp_path)]) == 0
        rows = [line.split() for line in (tmp_path / "dynamics_W_seed0.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 11591
        assert {row[1] for row in rows} == {row[2] for row in rows} == {"0"}


class TestSynth:
    def test_round_trip_and_determinism(self, tmp_path):
        args = ["synth", "--kind", "dip", "--amp", "0.62", "--gamma", "1",
                "--duration", "100", "--dt", "0.14", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--outdir", str(a)]) == 0
        assert main(args + ["--outdir", str(b)]) == 0
        fa, fb = a / "synth_dip_seed7.csv", b / "synth_dip_seed7.csv"
        assert fa.read_bytes() == fb.read_bytes()
        series = read_series(fa)
        drawn = gen_baseband(BasebandModel("dip", amplitude=0.62, fwhm_gamma=1.0), 100.0, 0.14, 7)
        assert series.n == 714 and series.dt == 0.14 and series.seed == 7
        assert series.model_tag == drawn.model_tag
        assert np.array_equal(series.samples, drawn.samples)

    @pytest.mark.parametrize("kind,amp", [("dip", 0.62), ("peak", 30.0)])
    def test_csv_reads_back_the_draw(self, tmp_path, kind, amp):
        assert main(["synth", "--kind", kind, "--amp", repr(amp), "--duration", "1400",
                     "--dt", "0.14", "--seed", "11", "--outdir", str(tmp_path)]) == 0
        drawn = gen_baseband(BasebandModel(kind, amplitude=amp, fwhm_gamma=1.0), 1400.0, 0.14, 11)
        series = read_series(tmp_path / f"synth_{kind}_seed11.csv")
        assert series.samples.tobytes() == drawn.samples.tobytes()

    def test_flat_needs_no_amp(self, tmp_path):
        assert main(["synth", "--kind", "flat", "--duration", "10", "--dt", "0.1",
                     "--outdir", str(tmp_path)]) == 0

    def test_peak_needs_amp(self, tmp_path, capsys):
        assert main(["synth", "--kind", "peak", "--duration", "10", "--dt", "0.1",
                     "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --amp is required for kind 'peak'\n"
        assert not list(tmp_path.iterdir())

    def test_domain_error_exits_one(self, tmp_path, capsys):
        rc = main(["synth", "--kind", "dip", "--amp", "1.5", "--gamma", "1",
                   "--duration", "10", "--dt", "0.1", "--outdir", str(tmp_path)])
        assert rc == 1

    def test_method_key_rejected(self, tmp_path, capsys):
        # one exact sampler serves every length; there is nothing to select
        conf = tmp_path / "synth.conf"
        conf.write_text("kind = dip\namp = 0.62\nduration = 10\ndt = 0.14\nmethod = cholesky\n")
        assert main(["synth", "--config", str(conf), "--outdir", str(tmp_path)]) == 2
        assert "method" in capsys.readouterr().err


class TestDetect:
    def test_report_and_config_round_trip(self, tmp_path):
        args = ["detect", "--truth", "dip", "--amp", "0.62", "--duration", "200",
                "--dt", "0.14", "--yth", "2", "--n", "300", "--seed", "11"]
        assert main(args + ["--outdir", str(tmp_path)]) == 0
        emitted = tmp_path / "detect_dip_seed11.json"
        payload = json.loads(emitted.read_text())
        r = payload["result"]
        assert r["p_correct"] + r["p_wrong"] + r["p_indecision"] == pytest.approx(1.0, abs=1e-12)
        assert payload["master_seed"] == 11
        rerun = tmp_path / "rerun"
        assert main(["detect", "--config", str(emitted), "--outdir", str(rerun)]) == 0
        assert emitted.read_bytes() == (rerun / "detect_dip_seed11.json").read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "truth = dip\namp = 0.5\nduration = 140\ndt = 0.14\nyth = 2\nn = 50\n")
        assert main(["detect", "--config", str(conf), "--amp", "0.62",
                     "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "detect_dip_seed0.json").read_text())
        assert payload["config"]["amp"] == 0.62
        assert payload["config"]["duration"] == 140.0

    def test_truth_must_match_kind(self, capsys):
        assert main(["detect", "--truth", "peak", "--kind", "dip", "--amp", "0.6",
                     "--duration", "100", "--dt", "0.14", "--yth", "1"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["detect", "--truth", "dip", "--amp", "0.62"]) == 2
        assert "--duration" in capsys.readouterr().err

    @pytest.mark.parametrize("truth", ["flat", "peak"])
    def test_featureless_alternative_decides_nothing(self, tmp_path, truth):
        # two identical laws: Y is exactly zero, so no trial passes y_th = 0
        assert main(["detect", "--kind", "peak", "--amp", "0", "--truth", truth, "--yth", "0",
                     "--duration", "14", "--dt", "0.14", "--n", "300", "--outdir", str(tmp_path)]) == 0
        r = json.loads((tmp_path / f"detect_{truth}_seed0.json").read_text())["result"]
        assert (r["p_correct"], r["p_wrong"], r["p_indecision"]) == (0.0, 0.0, 1.0)

    def test_featureless_truth_needs_no_resolution(self, tmp_path):
        # dt * gamma = 1 would leave a feature unresolved, but there is none
        rates = []
        for truth in ("peak", "flat"):
            assert main(["detect", "--kind", "peak", "--amp", "0", "--truth", truth, "--yth", "0",
                         "--duration", "14", "--dt", "1", "--n", "10", "--outdir", str(tmp_path)]) == 0
            r = json.loads((tmp_path / f"detect_{truth}_seed0.json").read_text())["result"]
            rates.append((r["p_correct"], r["p_wrong"], r["p_indecision"]))
        assert rates[0] == rates[1]


class TestTauMin:
    def test_fit_only_matches_printed_fit(self, tmp_path):
        assert main(["taumin", "--kind", "dip", "--amp", "0.62", "--p", "10",
                     "--fit-only", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "taumin_dip_seed0.json").read_text())
        fit = payload["result"]["fit"]
        assert fit["coherence_times"] == pytest.approx(30.348595213319456, rel=1e-9)
        assert fit["seconds"] == pytest.approx(30.348595213319456 * 2.0, rel=1e-9)

    def test_small_search_runs(self, tmp_path):
        assert main(["taumin", "--kind", "dip", "--amp", "0.62", "--p", "25",
                     "--n", "300", "--seed", "3", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "taumin_dip_seed3.json").read_text())
        r = payload["result"]
        assert r["tau_min"] > 0
        assert r["n_trials"] == 300
        assert r["confidence_p"] == pytest.approx(0.25)

    def test_report_and_config_round_trip(self, tmp_path):
        assert main(["taumin", "--kind", "peak", "--amp", "100", "--p", "10",
                     "--n", "500", "--seed", "4", "--outdir", str(tmp_path)]) == 0
        emitted = tmp_path / "taumin_peak_seed4.json"
        rerun = tmp_path / "rerun"
        assert main(["taumin", "--config", str(emitted), "--outdir", str(rerun)]) == 0
        assert emitted.read_bytes() == (rerun / "taumin_peak_seed4.json").read_bytes()

    # sha256 of the JSON report at both benchmark peak points, (amp, seed)
    FROZEN = {
        ("30", "0"): "bcf77c35ef986ae0f0b78a2303551c7728ad222bb828d07ecf0ae127b9ce54aa",
        ("100", "1"): "b55802a30dec624379b338c3e9ed315ebd377176a37fb25ee66bc72974330b1c",
    }

    @pytest.mark.parametrize("amp,seed", list(FROZEN))
    def test_peak_report_frozen(self, tmp_path, amp, seed):
        assert main(["taumin", "--kind", "peak", "--amp", amp, "--gamma", "1", "--p", "10",
                     "--n", "10000", "--seed", seed, "--jobs", "1", "--outdir", str(tmp_path)]) == 0
        report = (tmp_path / f"taumin_peak_seed{seed}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == self.FROZEN[amp, seed]

    def test_last_doubling_stops_at_max_samples(self, tmp_path):
        # the fit's estimate, 3003 samples, fails at p = 1 % and its double
        # passes --max-samples: the search probes 5000 itself and brackets there
        assert main(["taumin", "--kind", "dip", "--amp", "0.62", "--p", "1", "--n", "2000",
                     "--max-samples", "5000", "--outdir", str(tmp_path)]) == 0
        r = json.loads((tmp_path / "taumin_dip_seed0.json").read_text())["result"]
        assert 3003 < r["n_samples"] <= 5000

    def test_missing_amp(self, capsys):
        assert main(["taumin", "--kind", "dip"]) == 2
        assert "--amp" in capsys.readouterr().err

    def test_zero_trials_rejected(self, tmp_path, capsys):
        assert main(["taumin", "--kind", "peak", "--amp", "30", "--n", "0",
                     "--outdir", str(tmp_path)]) == 2
        assert "n_trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--n", "0"], "n_trials must be >= 1"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--max-samples", "1"], "max_samples must be >= 2, got 1"),
        (["--dt-gamma", "0"], "dt_gamma must be in (0, 0.5], got 0.0"),
        (["--dt-gamma", "0.6"], "dt_gamma must be in (0, 0.5], got 0.6"),
        (["--seed", "-1"], "master seed must be >= 0, got -1"),
    ], ids=["n", "jobs", "max_samples", "dt_gamma_zero", "dt_gamma_above_half", "seed"])
    def test_fit_only_refuses_what_the_search_refuses(self, tmp_path, capsys, flags, message):
        outdir = tmp_path / "out"
        assert main(["taumin", "--kind", "dip", "--amp", "0.62", "--fit-only", *flags,
                     "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()


class TestFeasibility:
    def test_pre_matches_library(self, tmp_path):
        assert main(["feasibility", "--prescription", "pre", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "feasibility_pre_seed0.json").read_text())
        r = payload["result"]
        lib = pre_report(ExperimentConfig.reference_pre())
        assert r["tau_min_scaled"] == pytest.approx(lib.tau_min_scaled, rel=1e-12)
        assert r["input_power"] == pytest.approx(lib.input_power, rel=1e-12)
        assert r["peak_height_or_dip"] == pytest.approx(lib.peak_height_or_dip, rel=1e-12)
        assert all(r["validity_flags"].values())

    def test_post_sweep(self, tmp_path):
        assert main(["feasibility", "--prescription", "post", "--sweep",
                     "--n-grid", "121", "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "feasibility_post_seed0.json").read_text())
        assert 0.5 < payload["result"]["sweep"]["law_ratio"] < 2.0
        curve = np.loadtxt(tmp_path / "feasibility_post_seed0_sweep.csv")
        assert curve.shape == (121, 2)
        assert np.all(curve[:, 1] > 0)

    # the sweep's fit at beta_opt is past the confidence law's turn at p = 90
    # and short of it at p = 10; its warnings reach the report either way
    @pytest.mark.parametrize("p,warned", [("90", True), ("10", False)])
    def test_sweep_carries_the_fit_warnings(self, tmp_path, p, warned):
        assert main(["feasibility", "--prescription", "post", "--sweep", "--p", p,
                     "--outdir", str(tmp_path)]) == 0
        sweep = json.loads((tmp_path / "feasibility_post_seed0.json").read_text())["result"]["sweep"]
        assert sweep["warnings"] == (["confidence law reaches 0 at p = 57.3% and turns back up above it"]
                                     if warned else [])

    def test_prescription_required(self, capsys):
        assert main(["feasibility"]) == 2
        assert capsys.readouterr().err == "error: missing required option --prescription\n"

    def test_unit_suffixes_through_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("prescription = pre\nomega-cm = 10 mHz\nt0 = 300 K\nmass = 200 g\n")
        assert main(["feasibility", "--config", str(conf), "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "feasibility_pre_seed0.json").read_text())
        assert payload["config"]["omega_cm"] == pytest.approx(TWO_PI * 0.010, rel=1e-12)
        assert payload["config"]["mass"] == 0.2

    @pytest.mark.parametrize("value,sweep", [
        ("yes", True), ("on", True), ("1", True), ("true", True),
        ("no", False), ("off", False), ("0", False), ("false", False),
    ])
    def test_sweep_spellings_in_a_config_file(self, tmp_path, value, sweep):
        # a key = value switch replays the flag run byte for byte
        conf = tmp_path / "run.conf"
        conf.write_text(f"prescription = pre\nn_grid = 121\nsweep = {value}\n")
        assert main(["feasibility", "--config", str(conf), "--outdir", str(tmp_path / "file")]) == 0
        flags = ["--sweep"] if sweep else []
        assert main(["feasibility", "--prescription", "pre", "--n-grid", "121", *flags,
                     "--outdir", str(tmp_path / "flag")]) == 0
        names = sorted(f.name for f in (tmp_path / "flag").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "file").iterdir())
        assert ("feasibility_pre_seed0_sweep.csv" in names) is sweep
        for name in names:
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
        payload = json.loads((tmp_path / "file" / "feasibility_pre_seed0.json").read_text())
        assert payload["config"]["sweep"] is sweep

    @pytest.mark.parametrize("flags,message", [
        (["--p", "0"], "p must be a percentage in (0, 100), got 0.0"),
        (["--n-grid", "1"], "n_grid must be at least 16, got 1"),
    ])
    @pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["report", "sweep"])
    def test_refuses_what_the_sweep_refuses(self, tmp_path, capsys, flags, message, sweep):
        outdir = tmp_path / "out"
        assert main(["feasibility", "--prescription", "pre", *flags, *sweep, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    def test_sweep_must_be_a_boolean(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("prescription = pre\nsweep = maybe\n")
        outdir = tmp_path / "out"
        assert main(["feasibility", "--config", str(conf), "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == "error: expected a boolean, got 'maybe'\n"
        assert not outdir.exists()


    def test_config_round_trip(self, tmp_path):
        for prescription in ("pre", "post"):
            assert main(["feasibility", "--prescription", prescription, "--sweep", "--n-grid", "121",
                         "--seed", "2", "--outdir", str(tmp_path)]) == 0
            rerun = tmp_path / "rerun"
            assert main(["feasibility", "--config", str(tmp_path / f"feasibility_{prescription}_seed2.json"),
                         "--outdir", str(rerun)]) == 0
            for name in (f"feasibility_{prescription}_seed2.json", f"feasibility_{prescription}_seed2_sweep.csv"):
                assert (tmp_path / name).read_bytes() == (rerun / name).read_bytes()


class TestWorkerSplit:
    # 4100 trials are enough for --jobs 2 to split the Monte Carlo across two
    # worker processes, in ranges cut at the 256-trial blocks of the seed
    # contract; the flat truth's 1429 samples take the whitening path with
    # the dip factor filled past its fixed point (k = 327), and the duration
    # search splits each nested pass and runs the threshold sweep per probe
    @pytest.mark.parametrize("argv,name", [
        (["detect", "--truth", "dip", "--amp", "0.62", "--duration", "20", "--dt", "0.14", "--yth", "1"],
         "detect_dip_seed0.json"),
        (["detect", "--truth", "flat", "--amp", "0.62", "--duration", "200", "--dt", "0.14", "--yth", "1"],
         "detect_flat_seed0.json"),
        (["taumin", "--kind", "peak", "--amp", "30"], "taumin_peak_seed0.json"),
    ], ids=["detect-dip", "detect-flat", "taumin-peak"])
    def test_two_workers_report_what_one_reports(self, tmp_path, argv, name):
        results = []
        for jobs in ("1", "2"):
            assert main([*argv, "--n", "4100", "--jobs", jobs, "--outdir", str(tmp_path / jobs)]) == 0
            results.append(json.loads((tmp_path / jobs / name).read_text())["result"])
        assert results[0] == results[1]


_DETECT_ARGS = ["detect", "--truth", "dip", "--amp", "0.62", "--duration", "14",
                "--dt", "0.14", "--yth", "1"]


class TestIntegerValues:
    @pytest.mark.parametrize("line", ["n = abc", "seed = inf", "n = 1.5", "seed = nan"])
    def test_bad_config_value(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        assert main([*_DETECT_ARGS, "--config", str(conf), "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: expected an integer")

    @pytest.mark.parametrize("flags", [["--n", "abc"], ["--n", "1.5"], ["--seed", "inf"]])
    def test_bad_flag_value(self, tmp_path, capsys, flags):
        assert main([*_DETECT_ARGS, *flags, "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: expected an integer")

    @pytest.mark.parametrize("argv", [
        ["synth", "--kind", "dip", "--amp", "0.62", "--duration", "14", "--dt", "0.14"],
        _DETECT_ARGS,
        ["taumin", "--kind", "peak", "--amp", "30", "--n", "100"],
    ], ids=["synth", "detect", "taumin"])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--seed", "-1", "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: master seed must be >= 0, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("argv", [_DETECT_ARGS, ["taumin", "--kind", "peak", "--amp", "30", "--n", "100"]],
                             ids=["detect", "taumin"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, argv, value):
        outdir = tmp_path / "out"
        assert main([*argv, "--jobs", value, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {value}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_max_samples_below_two_rejected(self, tmp_path, capsys, value):
        assert main(["taumin", "--kind", "peak", "--amp", "30", "--n", "100",
                     "--max-samples", value, "--outdir", str(tmp_path)]) == 2
        assert "max_samples must be >= 2" in capsys.readouterr().err

    def test_whole_float_spelling_accepted(self, tmp_path):
        assert main([*_DETECT_ARGS, "--n", "3e2", "--seed", "12345678901234567891",
                     "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "detect_dip_seed12345678901234567891.json").read_text())
        assert payload["config"]["n"] == 300 and payload["result"]["n_trials"] == 300
        assert payload["master_seed"] == 12345678901234567891


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestGeneratedParser:
    def test_flags_are_the_spec_keys(self):
        subs = _subparsers()
        assert set(subs) == {"material", *_SPECS}
        for name, spec in _SPECS.items():
            flags = {o for o in subs[name]._option_string_actions if o.startswith("--")}
            expected = {"--config", "--outdir"} | {"--" + k.replace("_", "-") for k in spec}
            assert flags - {"--help"} == expected, name

    def test_rebound_command_runs(self, tmp_path, monkeypatch):
        # the parser is built once per process, and main looks the command
        # up at call time, so a cmd_* rebound after the first call still runs
        argv = ["synth", "--kind", "dip", "--amp", "0.62", "--duration", "14", "--dt", "0.14",
                "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert build_parser() is build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args.duration) or 7)
        assert main(argv) == 7
        assert seen == ["14"]

    @pytest.mark.parametrize("module,name,argv", [
        (spectra, "pre_feature", ["spectrum", "--prescription", "pre"]),
        (spectra, "post_feature", ["spectrum", "--prescription", "post"]),
        (feasibility, "pre_report", ["feasibility", "--prescription", "pre"]),
        (feasibility, "post_report", ["feasibility", "--prescription", "post"]),
    ])
    def test_rebound_prescription_function_runs(self, tmp_path, monkeypatch, module, name, argv):
        # the prescription dispatch looks these names up in their own module
        # at call time, so a function rebound there (as bench/tracing.py
        # rebinds them to time them) is the one that runs
        original, seen = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda *a, **kw: seen.append(name) or original(*a, **kw))
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        assert seen == [name]

    def test_spec_keys_are_known(self):
        for spec in _SPECS.values():
            assert set(spec) <= _ALL_KEYS

    def test_jobs_only_on_monte_carlo_commands(self):
        assert {name for name, spec in _SPECS.items() if "jobs" in spec} == {"detect", "taumin"}
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["synth", "--kind", "foo", "--duration", "1", "--dt", "0.1"], "kind must be one of"),
        (["detect", "--kind", "flat", "--truth", "flat", "--amp", "1", "--duration", "10",
          "--dt", "0.1", "--yth", "1"], "alt_model must be a peak or a dip"),
        (["taumin", "--kind", "flat", "--amp", "1", "--fit-only"], "kind must be peak or dip"),
        (["spectrum", "--prescription", "foo"], "prescription must be one of"),
        (["feasibility", "--prescription", "qm"], "prescription must be pre or post"),
    ])
    def test_invalid_choice_is_a_config_error(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.iterdir())


class TestPrintedPaths:
    """A run prints exactly the paths it wrote, in the order it wrote them."""

    @pytest.mark.parametrize("argv,names", [
        (["spectrum"], ["spectrum_pre_seed0.csv", "spectrum_pre_seed0.json"]),
        (["spectrum", "--prescription", "qm", "--seed", "4"], ["spectrum_qm_seed4.csv", "spectrum_qm_seed4.json"]),
        (["dynamics", "--t-final", "30", "--store-every", "7"], ["dynamics_W_seed0.csv"]),
        (["synth", "--kind", "flat", "--duration", "10", "--dt", "0.1", "--seed", "2"], ["synth_flat_seed2.csv"]),
        (["detect", "--truth", "flat", "--amp", "0.62", "--duration", "14", "--dt", "0.14", "--yth", "1",
          "--n", "50"], ["detect_flat_seed0.json"]),
        (["taumin", "--kind", "peak", "--amp", "30", "--fit-only"], ["taumin_peak_seed0.json"]),
        (["feasibility", "--prescription", "post"], ["feasibility_post_seed0.json"]),
        (["feasibility", "--prescription", "pre", "--sweep", "--n-grid", "16"],
         ["feasibility_pre_seed0_sweep.csv", "feasibility_pre_seed0.json"]),
    ])
    def test_printed_paths_are_the_files_written(self, tmp_path, capsys, argv, names):
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "".join(f"{tmp_path / name}\n" for name in names)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
        written = [(tmp_path / name).stat().st_mtime_ns for name in names]
        assert written == sorted(written)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--prescription", "foo"],
        ["spectrum", "--wmin", "1"],
        ["dynamics", "--t-final", "10", "--store-every", "0"],
        ["synth", "--kind", "peak", "--duration", "10", "--dt", "0.1"],
        ["taumin", "--kind", "dip", "--amp", "0.62", "--fit-only", "--seed", "-1"],
        ["feasibility", "--prescription", "qm", "--sweep"],
        ["feasibility", "--prescription", "pre", "--sweep", "--p", "0"],
    ])
    def test_refused_run_prints_and_writes_nothing(self, tmp_path, capsys, argv):
        assert main([*argv, "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())


class TestHarness:
    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOPTO_OUTDIR", str(tmp_path / "envdir"))
        assert main(["synth", "--kind", "flat", "--duration", "10", "--dt", "0.1"]) == 0
        assert (tmp_path / "envdir" / "synth_flat_seed0.csv").exists()

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--nonsense", "1"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("truth = dip\namp = 0.62\nduration = 140\ndt = 0.14\nyth = 2\nwidget = 3\n")
        assert main(["detect", "--config", str(conf)]) == 2
        assert "widget" in capsys.readouterr().err
