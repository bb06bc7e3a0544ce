"""Simulation and path I/O tests."""

import dataclasses
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from levy_gqmle import _util
from levy_gqmle._util import _integer, _real, batch_means_se, substream
from levy_gqmle.experiment import true_ou
from levy_gqmle.levy import BilateralGamma, Brownian, NormalInverseGaussian, cumulants, sample_increments
from levy_gqmle.sde import (
    DivergenceError,
    PathConfig,
    SamplePath,
    TrueModel,
    _chunked_paths,
    _euler_panel,
    _first_bad,
    _scan,
    _step_map,
    load_path,
    simulate_euler,
    write_path,
)
from _oracles import _euler_columns, chunk_draws
from test_levy import CASE_I, CASE_II, CASE_III

OU = TrueModel(rate=0.5, level=0.0, sigma=1.0)
# what a float setting refuses: a boolean, numpy's too, and a string
NOT_NUMBERS = [True, np.True_, "0.1"]
DRIFT_ONLY = TrueModel(rate=0.5, level=0.0, sigma=0.0)


class TestTrueModel:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(TrueModel)] == ["rate", "level", "sigma"]
        assert dataclasses.astuple(true_ou()) == (0.5, 0.0, 1.0)

    @pytest.mark.parametrize("name", ["rate", "level", "sigma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_refused(self, name, value):
        fields = {"rate": 0.5, "level": 0.1, "sigma": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrueModel(**fields)

    @pytest.mark.parametrize("rate,level,sigma,dt", [
        (0.5, 0.0, 1.0, 0.05),
        (0.8, 0.8 * 0.7, 1.3, 0.01),
        (0.0, 0.4, 0.8, 0.05),  # random walk with drift
        (-5.0, 0.3, 0.0, 1.0),  # explosive, drift-only
        (0.3, -0.1, -1.0, 0.1),  # negative scale
    ])
    def test_step_map_is_the_euler_step(self, rate, level, sigma, dt):
        got = _step_map(TrueModel(rate, level, sigma), dt)
        want = (1.0 - rate * dt, sigma, level * dt)
        assert all(type(g) is float for g in got)
        assert [g.hex() for g in got] == [w.hex() for w in want]


class TestSimulate:
    def test_deterministic_recursion(self):
        cfg = PathConfig(n=2, h=0.1, x0=1.0, seed=0)
        path = simulate_euler(DRIFT_ONLY, CASE_I, cfg)
        np.testing.assert_allclose(path.values, [1.0, 0.95, 0.9025], rtol=1e-14)

    def test_same_seed_same_path(self):
        cfg = PathConfig(n=500, h=0.05, x0=0.0, seed=77)
        a = simulate_euler(OU, CASE_I, cfg)
        b = simulate_euler(OU, CASE_I, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = simulate_euler(OU, CASE_I, PathConfig(n=100, h=0.05, seed=1))
        b = simulate_euler(OU, CASE_I, PathConfig(n=100, h=0.05, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_divergence_reports_step(self):
        exploding = TrueModel(rate=-5.0, level=0.0, sigma=0.0)
        with pytest.raises(DivergenceError) as exc:
            simulate_euler(exploding, CASE_I, PathConfig(n=60, h=1.0, x0=1.0, seed=0))
        assert exc.value.step > 0

    def test_refine_subsamples_observation_grid(self):
        cfg = PathConfig(n=50, h=0.1, x0=0.0, seed=9, refine=4)
        path = simulate_euler(OU, CASE_I, cfg)
        assert path.n == 50 and path.h == 0.1

    def test_refine_consistency(self):
        # moments of the subsampled path are stable in the refine factor
        stats = []
        for refine in (8, 16):
            cfg = PathConfig(n=30_000, h=0.1, x0=0.0, seed=13, refine=refine)
            path = simulate_euler(OU, CASE_I, cfg)
            x = path.values[200:]
            stats.append((x.var(), batch_means_se(x**2)))
        (v8, se8), (v16, se16) = stats
        assert abs(v8 - v16) < 5 * math.hypot(se8, se16)


class TestAffinePaths:
    @pytest.mark.parametrize("model,dt", [
        (OU, 0.05),
        (TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.3), 0.05),
        (TrueModel(rate=0.0, level=0.4, sigma=0.8), 0.05),  # rho = 1
        (TrueModel(rate=-5.0, level=0.0, sigma=1.0), 1.0),  # rho = 6
        (TrueModel(rate=4.0, level=0.0, sigma=1.0), 1.0),  # rho = -3
    ], ids=["linear-decay", "mean-revert", "constant-drift", "exploding", "oscillating"])
    def test_matches_euler_oracle(self, model, dt):
        # every row against the Euler loop on the same increments, up to the
        # first bad state, which both must place at the same index
        R, steps = 6, 2000
        z = sample_increments(CASE_III, dt, (R, steps), substream(5, 1))
        x0 = np.linspace(-2.0, 3.0, R)
        got = np.empty((R, steps + 1))
        got[:, 0], got[:, 1:] = x0, z
        _scan(*_step_map(model, dt), x0, got[:, 1:])
        first_bad = _first_bad(got[:, 1:], x0)
        want, want_bad = _euler_columns(model, dt, x0, z.T)
        assert got.shape == (R, steps + 1)
        np.testing.assert_array_equal(first_bad, want_bad)
        for row, bad in enumerate(first_bad):
            end = steps + 1 if bad < 0 else bad
            ref = want[:end, row]
            assert np.max(np.abs(got[row, :end] - ref)) <= 1e-12 * np.max(np.abs(ref)), row

    def test_row_in_block_equals_row_alone(self):
        model = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.3)
        z = sample_increments(CASE_II, 0.02, (32, 5000), substream(6, 1))
        x0 = np.linspace(-1.0, 1.0, 32)
        block = z.copy()
        _scan(*_step_map(model, 0.02), x0, block)
        for row in (0, 17, 31):
            alone = z[row : row + 1].copy()
            _scan(*_step_map(model, 0.02), x0[row], alone)
            assert np.array_equal(alone[0], block[row]), row

    def test_time_major_panel_in_place_matches_one_lfilter(self):
        # a (steps, m) panel passed as panel.T is scanned along time in
        # blocks of a few hundred steps, one step at a time across the rows;
        # lfilter is the reference, and the bound is twice the largest
        # error measured when the scan replaced it (1.9e-15)
        model = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.3)
        panel = sample_increments(CASE_I, 0.01, (1000, 300), substream(7, 1))
        x0 = np.linspace(-2.0, 2.0, 300)
        rho, scale, shift = _step_map(model, 0.01)
        want, _ = lfilter([1.0], [1.0, -rho], panel * scale + shift, axis=0, zi=rho * x0[None])
        _scan(*_step_map(model, 0.01), x0, panel.T)
        assert np.max(np.abs(panel - want)) <= 4e-15 * np.max(np.abs(want))
        assert np.all(_first_bad(panel.T, x0) == -1)

    def test_long_row_in_place_matches_one_lfilter(self):
        # a 1-D path passed as path[None], longer than one time block and
        # one sub-block; the bound is as above (measured 1.1e-15)
        model = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.3)
        path = sample_increments(CASE_III, 0.01, 200_000, substream(7, 2))
        rho, scale, shift = _step_map(model, 0.01)
        want, _ = lfilter([1.0], [1.0, -rho], path * scale + shift, zi=[rho * 0.4])
        _scan(*_step_map(model, 0.01), 0.4, path[None])
        assert np.max(np.abs(path - want)) <= 4e-15 * np.max(np.abs(want))
        assert _first_bad(path[None], 0.4).tolist() == [-1]

    # the scan cuts time into sub-blocks (1 step at rho = 0, 2 at 1e-200,
    # 349 at 6, 568 at -3, 2^16 at |rho| = 1 and 0.9975) and time blocks
    # (2^16 // rows steps); no length below is a multiple of either
    @pytest.mark.parametrize("rho", [0.0, 1e-200, -1.0, 1.0, -3.0, 6.0, 0.9975])
    @pytest.mark.parametrize("rows,steps", [(1, 70_001), (8, 8_195), (16, 8_195), (1500, 1001)])
    def test_scan_matches_euler_oracle(self, rho, rows, steps):
        # the oracle is the Euler step of rate 1 - rho at dt = 1 (rho = 1e-200
        # rounds to rate 1, rho = 0, which moves no state by more than 1e-188);
        # 1500 rows are scanned time-major, as the EPE panel is.  The oracle
        # rounds twice a step, so the bound is recursive summation's worst
        # case, 2 eps a step: at rho = 1 over 70001 steps it is 1.3e-12 off
        # (the scan is bitwise lfilter there)
        model = TrueModel(rate=1.0 - rho, level=0.3, sigma=1.3)
        z = sample_increments(CASE_III, 0.01, (steps, rows), substream(8, rows))
        x0 = np.linspace(-2.0, 3.0, rows)
        got = z.copy().T if rows == 1500 else z.T.copy()
        _scan(rho, 1.3, 0.3, x0, got)
        first_bad = _first_bad(got, x0)
        want, want_bad = _euler_columns(model, 1.0, x0, z)
        np.testing.assert_array_equal(first_bad, want_bad)
        assert ((first_bad >= 0) == (abs(rho) > 1.0)).all()
        for row, bad in enumerate(first_bad):
            end = steps if bad < 0 else bad - 1
            ref = want[1 : end + 1, row]
            bound = 2 * steps * np.finfo(float).eps * np.max(np.abs(ref), initial=0.0)
            assert np.max(np.abs(got[row, :end] - ref), initial=0.0) <= bound, row

    def test_layout_keeps_bits(self):
        # row-major rows and a time-major panel are summed in different
        # loops, with the same additions; 70001 steps span two sub-blocks
        model = TrueModel(rate=0.25, level=0.1, sigma=1.3)
        z = sample_increments(CASE_II, 0.01, (70_001, 3), substream(6, 2))
        x0 = np.array([0.5, -1.0, 2.0])
        rows = np.ascontiguousarray(z.T)
        _scan(*_step_map(model, 0.01), x0, rows)
        _scan(*_step_map(model, 0.01), x0, z.T)
        assert rows.tobytes() == np.ascontiguousarray(z.T).tobytes()

    @staticmethod
    def _scan_peak(z: np.ndarray, dt: float) -> int:
        rho, scale, shift = _step_map(true_ou(), dt)
        tracemalloc.start()
        try:
            _scan(rho, scale, shift, 0.3, z)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # numpy's ufunc iterator may buffer a strided in-place operation, up to
    # np.getbufsize() elements for each of its three operands
    UFUNC_BUFFERS = 3 * 8 * np.getbufsize()

    def test_scan_forms_no_copy_of_a_panel_block(self):
        # an mc block: the (16, n+1) panel's view values[:, 1:], scanned in
        # time blocks of 16 x 4096 cells (512 KiB).  The scan keeps its two
        # power tables of n floats and a few rows of 16 beside the panel
        # (plus array headers, 1 KiB); a block-sized copy would exceed that
        n = 10_000
        values = sample_increments(CASE_II, 0.01, (16, n + 1), substream(9, 1))
        bound = 2 * 8 * n + 8 * 8 * 16 + self.UFUNC_BUFFERS + 1024
        assert self._scan_peak(values[:, 1:], 0.01) <= bound

    def test_scan_forms_no_copy_of_a_time_major_chunk(self):
        # an EPE chunk: 500 steps of 1500 paths, passed as chunk.T and
        # scanned in time-major blocks of 1500 x 43 cells (504 KiB).  The
        # scan keeps its two power tables of 500 floats and a few rows of 1500
        chunk = sample_increments(CASE_I, 0.01, (500, 1500), substream(9, 2))
        bound = 2 * 8 * 500 + 4 * 8 * 1500 + self.UFUNC_BUFFERS + 1024
        assert self._scan_peak(chunk.T, 0.01) <= bound

    def test_panel_rows_are_lone_paths(self):
        # a panel row is bitwise the path simulate_euler draws from its generator
        model = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.3)
        values, first_bad = _euler_panel(model, CASE_II, 0.02, 400, 0.3, [substream(s) for s in (3, 4, 5)])
        assert values.shape == (3, 401) and first_bad.tolist() == [-1, -1, -1]
        for row, seed in zip(values, (3, 4, 5)):
            alone = simulate_euler(model, CASE_II, PathConfig(n=400, h=0.02, x0=0.3, seed=seed))
            assert alone.values.tobytes() == row.tobytes()

    def test_bad_start_is_index_zero(self):
        z = sample_increments(CASE_I, 0.05, (5, 100), substream(7, 3))
        x0 = np.array([np.nan, 2e12, -np.inf, 0.5, -1e12])
        _scan(*_step_map(OU, 0.05), x0, z)
        assert _first_bad(z, x0).tolist() == [0, 0, 0, -1, -1]
        one = z[:1].copy()
        _scan(*_step_map(OU, 0.05), np.inf, one)
        assert _first_bad(one, np.inf).tolist() == [0]


# two _chunked_paths runs over 1234 groups in 500-group chunks, the last
# one short: 7 columns keeping every state, and one column keeping every
# 7th state
SHIFTED = TrueModel(rate=0.5, level=0.5 * 0.7, sigma=1.3)
CHUNK_RUNS = {"panel": dict(cols=7, keep=1), "thinned": dict(cols=1, keep=7)}


def _chunk_blocks(groups: int, cols: int, keep: int) -> list[np.ndarray]:
    return list(_chunked_paths(SHIFTED, CASE_I, 0.01, groups, cols, -0.4, 500, 12, 7001, keep))


class TestChunkedPaths:
    @pytest.mark.parametrize("run", CHUNK_RUNS)
    def test_independent_of_worker_count(self, run, monkeypatch):
        # each chunk is drawn from its own substream and scanned in time
        # order in the calling thread; threads are switched as often as
        # possible
        want = _chunk_blocks(1234, **CHUNK_RUNS[run])
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 3):
                monkeypatch.setattr(_util, "_pool_size", lambda tasks, n=workers: n)
                got = _chunk_blocks(1234, **CHUNK_RUNS[run])
                assert [b.tobytes() for b in got] == [b.tobytes() for b in want], workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("run", CHUNK_RUNS)
    def test_matches_one_filter_pass(self, run):
        # the chunks, each scanned from the previous chunk's last state,
        # against one lfilter pass over the same draws, kept at X_keep,
        # X_2keep, ...; a longer run starts with the same blocks, bitwise
        cols, keep = CHUNK_RUNS[run].values()
        rho, scale, shift = _step_map(SHIFTED, 0.01)
        dz = chunk_draws(CASE_I, 0.01, 1234 * keep, cols, 12, 7001, chunk=500 * keep)
        path, _ = lfilter([1.0], [1.0, -rho], dz * scale + shift, axis=0, zi=np.full((1, cols), -0.4 * rho))
        want = path[keep - 1 :: keep]
        blocks = _chunk_blocks(1234, cols, keep)
        assert [b.shape for b in blocks] == [(500, cols), (500, cols), (234, cols)]
        got = np.concatenate(blocks)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        longer = _chunk_blocks(1600, cols, keep)
        assert [b.tobytes() for b in longer[:2]] == [b.tobytes() for b in blocks[:2]]

    @pytest.mark.parametrize("keep", [7, 100, 200])
    @pytest.mark.parametrize("chunking", ["ragged", "exact", "whole"])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_thinned_matches_every_state(self, keep, chunking, cols):
        # a thinned run forms only its kept states, from weighted sums of
        # each keep steps' increments; against every keep-th state of a
        # keep = 1 run on the same draws at pi_0's step, over about 9000
        # steps in chunks of about 2000 steps, a number of groups that does
        # not divide the run's ("ragged"), in five equal chunks ("exact"),
        # or in one chunk ("whole").  The bound is about three times the
        # largest error measured (1.4e-15 when the first kept state could
        # lie mid-chunk, 1.1e-15 on these runs)
        groups = 9000 // keep
        chunk = {"ragged": 2000 // keep, "exact": groups // 5, "whole": groups}[chunking]
        assert (groups % chunk > 0) == (chunking == "ragged")
        run = dict(model=SHIFTED, noise=CASE_III, dt=0.005, cols=cols, x0=-0.4, seed=12, tag=3101)
        every = np.concatenate(list(_chunked_paths(**run, groups=groups * keep, chunk=chunk * keep)))[keep - 1 :: keep]
        blocks = list(_chunked_paths(**run, groups=groups, chunk=chunk, keep=keep))
        sizes = [min(chunk, groups - c0) for c0 in range(0, groups, chunk)]
        assert [b.shape for b in blocks] == [(size, cols) for size in sizes]
        got = np.concatenate(blocks)
        assert got.shape == every.shape
        assert np.max(np.abs(got - every)) <= 4e-15 * np.max(np.abs(every))


_STATIONARY_CACHE = {}


def _stationary_states(law):
    # one long path per law, burn-in discarded, shared by the cumulant checks
    if law not in _STATIONARY_CACHE:
        cfg = PathConfig(n=200_000, h=0.05, x0=0.0, seed=29, refine=1)
        path = simulate_euler(OU, law, cfg)
        _STATIONARY_CACHE[law] = path.values[int(20 / cfg.h) :]
    return _STATIONARY_CACHE[law]


class TestStationaryCumulants:
    @pytest.mark.parametrize("law,j,target", [
        (CASE_I, 2, 1.0),
        (CASE_I, 4, 0.015),
        (CASE_III, 3, 8 / 15),
    ], ids=["var-i", "kurt-i", "skew-iii"])
    def test_matches_invariant_cumulants(self, law, j, target):
        # invariant cumulants are kappa_j / (j/2) for drift rate 1/2; the
        # 0.02 term allows for the O(h) Euler bias at h = 0.05
        x = _stationary_states(law)
        xc = x - x.mean()
        if j == 2:
            series = xc**2
        elif j == 3:
            series = xc**3
        else:
            series = xc**4 - 3 * (xc**2).mean() * xc**2
        est = series.mean()
        se = batch_means_se(series)
        assert est == pytest.approx(target, abs=5 * se + 0.02)


class TestPathIO:
    def test_round_trip(self, tmp_path):
        p = simulate_euler(OU, CASE_II, PathConfig(n=200, h=0.05, seed=3))
        f = tmp_path / "path.csv"
        write_path(p, f)
        q = load_path(f)
        assert q.h == p.h
        np.testing.assert_array_equal(q.values, p.values)

    def test_two_row_parse(self):
        q = load_path(io.StringIO("t,x\n0,1\n0.1,0.95\n"))
        assert q.h == pytest.approx(0.1)
        np.testing.assert_allclose(q.values, [1.0, 0.95])

    def test_non_equispaced_rejected(self):
        with pytest.raises(ValueError, match="equispaced"):
            load_path(io.StringIO("t,x\n0,1\n0.1,0.9\n0.25,0.8\n"))

    def test_non_finite_time_rejected(self):
        # a NaN time cell compares False against every grid tolerance, so it
        # must be rejected on its own
        with pytest.raises(ValueError, match="finite"):
            load_path(io.StringIO("t,x\n0,1\n0.1,0.9\nnan,0.8\n0.3,0.7\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_path(io.StringIO("time,value\n0,1\n0.1,0.9\n"))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            load_path(io.StringIO("t,x\n0,1\n0.1,0.9,7\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            load_path(io.StringIO("t,x\n0,1\n0.1,oops\n"))

    def test_write_to_stream(self):
        p = SamplePath(h=0.5, values=np.array([0.0, 1.0, 0.5]))
        buf = io.StringIO()
        write_path(p, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x"
        assert lines[1] == "0,0" and lines[2] == "0.5,1"


class TestSubstream:
    def test_integer_addresses_keep_their_streams(self):
        want = np.random.default_rng(np.random.SeedSequence((3, 7001, 2))).random(4)
        for address in ((3, 7001, 2), (np.int64(3), np.uint32(7001), 2), (3.0, 7001, np.int8(2))):
            assert substream(*address).random(4).tobytes() == want.tobytes()
        # integers beyond float range pass through unchanged
        huge = np.random.default_rng(np.random.SeedSequence((10**400, 1))).random(4)
        assert substream(10**400, 1).random(4).tobytes() == huge.tobytes()

    @pytest.mark.parametrize("part", [1.5, np.float32(2.5), math.nan, math.inf, True])
    def test_non_integral_part_refused(self, part):
        with pytest.raises(ValueError, match="must be an integer"):
            substream(part)
        with pytest.raises(ValueError, match="must be an integer"):
            substream(3, 7001, part)


class TestInteger:
    @pytest.mark.parametrize("value,name", [("4", "r"), (b"7", "r"), ("x", "r"), (None, "n"), (4.5, "r"), (True, "r")])
    def test_refused_by_name(self, value, name):
        # strings used to be parsed ("4" ran as 4), and None raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            _integer(value, name)

    @pytest.mark.parametrize("value", [np.int64(5), np.float32(4.0), 4.0, 3])
    def test_integral_values_accepted(self, value):
        assert type(_integer(value)) is int and _integer(value) == value

    def test_path_config_refuses_strings(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            PathConfig(n="10", h=0.1, seed="3")
        with pytest.raises(ValueError, match="seed must be an integer"):
            PathConfig(n=10, h=0.1, seed="3")


class TestReal:
    @pytest.mark.parametrize("value", NOT_NUMBERS + [np.False_, b"1", None, 1j, np.array(0.5)])
    def test_refused_by_name(self, value):
        with pytest.raises(ValueError, match="^h must be a number, got "):
            _real(value, "h")

    @pytest.mark.parametrize("value", [np.float32(0.25), np.int64(2), np.float64(0.25), 0.25, 2])
    def test_numbers_accepted(self, value):
        assert type(_real(value)) is float and _real(value) == value

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("name", ["h", "x0"])
    def test_path_config_refuses(self, name, value):
        # h=True used to run at step 1, and h="0.1" raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            PathConfig(**{"n": 10, "h": 0.1, name: value})

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("name", ["rate", "level", "sigma"])
    def test_true_model_refuses(self, name, value):
        # rate=True used to run as rate 1
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            TrueModel(**{"rate": 0.5, "level": 0.0, "sigma": 1.0, name: value})

    def test_numpy_numbers_run_as_floats(self):
        cfg = PathConfig(n=50, h=np.float32(0.25), x0=np.int64(1), seed=4)
        model = TrueModel(np.float32(0.5), np.int64(0), np.float32(1.0))
        assert all(type(v) is float for v in (cfg.h, cfg.x0, *dataclasses.astuple(model)))
        want = simulate_euler(OU, CASE_I, PathConfig(n=50, h=0.25, x0=1.0, seed=4)).values
        assert simulate_euler(model, CASE_I, cfg).values.tobytes() == want.tobytes()


class TestConfigAndPathTypes:
    def test_path_config_validation(self):
        with pytest.raises(ValueError):
            PathConfig(n=0, h=0.1)
        with pytest.raises(ValueError):
            PathConfig(n=10, h=0.0)
        with pytest.raises(ValueError):
            PathConfig(n=10, h=0.1, refine=0)

    def test_non_integral_seed_refused(self):
        # a seed of 1.5 used to run as seed 1
        with pytest.raises(ValueError, match="must be an integer"):
            simulate_euler(OU, CASE_I, PathConfig(n=10, h=0.1, seed=1.5))
        whole = simulate_euler(OU, CASE_I, PathConfig(n=10, h=0.1, seed=2.0))
        assert whole.values.tobytes() == simulate_euler(OU, CASE_I, PathConfig(n=10, h=0.1, seed=2)).values.tobytes()

    def test_counts_cast_before_drawing(self):
        # n = 10.5 and refine = 1.5 used to fail with TypeError inside
        # simulate_euler, and True ran as 1; each is refused at construction
        for bad in (dict(n=10.5), dict(n=True), dict(refine=1.5), dict(refine=True), dict(seed=False)):
            with pytest.raises(ValueError, match="must be an integer"):
                PathConfig(**{"n": 10, "h": 0.1, **bad})
        cfg = PathConfig(n=10.0, h=0.1, seed=3.0, refine=2.0)
        assert (type(cfg.n), type(cfg.seed), type(cfg.refine)) == (int, int, int)
        want = simulate_euler(OU, CASE_I, PathConfig(n=10, h=0.1, seed=3, refine=2)).values
        assert simulate_euler(OU, CASE_I, cfg).values.tobytes() == want.tobytes()

    def test_negative_seed_refused(self):
        # numpy used to refuse it only when drawing, without naming the seed
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            PathConfig(n=10, h=0.1, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            substream(-1, 7001)

    def test_sample_path_validation(self):
        with pytest.raises(ValueError, match="finite"):
            SamplePath(h=0.1, values=np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            SamplePath(h=0.1, values=np.array([1.0]))


# Blumenthal-Getoor index of each law type
_BG_INDEX = {NormalInverseGaussian: 1.0, BilateralGamma: 0.0, Brownian: 0.0}


def small_time_moment_check(model, noise, cfg, p, reps):
    """E|X_h - x|^p / (h (1 + x^2)) at starts x = -3, -2.5, ..., 3, shape (2, 13).

    Row 0 is at h = cfg.h and row 1 at cfg.h / 2, each simulated on
    ``cfg.refine`` Euler steps from the substreams (cfg.seed, row, start).
    The small-time moment bound E^x|X_h - x|^p <~ h (1 + |x|^2) carries
    unknown constants, so the usable diagnostic is that the ratio stays
    bounded as h is halved.  p must lie in (max(1, BG-index), 2).
    """
    if not (1.0 < p < 2.0) or p <= _BG_INDEX[type(noise)]:
        raise ValueError(f"p must lie in (max(1, BG-index), 2), got p={p}")
    grid = np.linspace(-3.0, 3.0, 13)
    ratios = np.empty((2, grid.size))
    for i, h in enumerate((cfg.h, cfg.h / 2.0)):
        dt = h / cfg.refine
        for k, x0 in enumerate(grid):
            z = sample_increments(noise, dt, (cfg.refine, reps), substream(cfg.seed, i, k))
            _scan(*_step_map(model, dt), x0, z.T)
            assert (_first_bad(z.T, x0) < 0).all()
            ratios[i, k] = float(np.mean(np.abs(z[-1] - x0) ** p)) / (h * (1.0 + abs(x0) ** 2.0))
    return ratios


class TestSmallTimeMoment:
    def test_p_domain_checked(self):
        cfg = PathConfig(n=1, h=0.05, seed=0)
        with pytest.raises(ValueError):
            small_time_moment_check(OU, CASE_I, cfg, p=0.9, reps=10)
        with pytest.raises(ValueError):
            small_time_moment_check(OU, CASE_I, cfg, p=2.5, reps=10)

    def test_drift_only_ratio_vanishes(self):
        # deterministic motion gives E|X_h - x|^p = O(h^p), so ratio = O(h^{p-1})
        cfg = PathConfig(n=1, h=0.01, seed=0, refine=4)
        sup_h, sup_half = small_time_moment_check(DRIFT_ONLY, CASE_I, cfg, p=1.5, reps=50).max(axis=1)
        assert sup_h < 0.3
        assert sup_half < sup_h

    def test_benchmark_noise_i_bounded(self):
        cfg = PathConfig(n=1, h=0.05, seed=17, refine=4)
        sup_h, sup_half = small_time_moment_check(OU, CASE_I, cfg, p=1.5, reps=4000).max(axis=1)
        assert np.isfinite(sup_h) and np.isfinite(sup_half)
        assert sup_half / sup_h < 2.0

    def test_noise_ii_halving_factor_bounded(self):
        cfg = PathConfig(n=1, h=0.05, seed=19, refine=4)
        sup_h, sup_half = small_time_moment_check(OU, CASE_II, cfg, p=1.5, reps=4000).max(axis=1)
        assert max(sup_half / sup_h, sup_h / sup_half) < 2.0
