from __future__ import annotations

import functools
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescert import dirichlet
from rescert.dirichlet import (
    RESYNC_STRIDE,
    _grid_values,
    _guided_candidates,
    derivative_bound,
    eval_DN,
    eval_R,
    grid_sup,
    resonance_guided_search,
)
from rescert.errors import ResourceLimitError
from rescert.multfn import archimedean_cmf, constant_one, steinhaus_sample, values_up_to
from rescert.ntcore import build_factor_table
from rescert.resonator import build_resonator, degenerate_resonator, support_elements

TABLE = build_factor_table(20_000)
RES20 = build_resonator(math.exp(20.0), TABLE)  # support {1, 61}


def test_eval_dn_at_zero():
    one = constant_one()
    assert eval_DN(one, 4, 0.0, TABLE) == pytest.approx(2.0, rel=1e-14)
    assert eval_DN(one, 2, 0.0, TABLE) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert eval_DN(one, 1, 1.7, TABLE) == pytest.approx(1.0, rel=1e-14)


def test_eval_dn_triangle_bound():
    rng = np.random.default_rng(3)
    f = steinhaus_sample(11)
    for _ in range(20):
        t = float(rng.uniform(-100.0, 100.0))
        n = int(rng.integers(1, 300))
        assert abs(eval_DN(f, n, t, TABLE)) <= math.sqrt(n) + 1e-9


def test_eval_dn_conjugate_symmetry():
    # Real coefficients make D(-t) the conjugate of D(t).
    one = constant_one()
    for t in (0.3, 2.0, 55.5):
        assert eval_DN(one, 50, -t, TABLE) == pytest.approx(
            eval_DN(one, 50, t, TABLE).conjugate(), rel=1e-12
        )


def test_eval_dn_archimedean_shift_identity():
    # n^{i alpha} coefficients just translate the argument.
    alpha = 0.9
    arch = archimedean_cmf(alpha)
    one = constant_one()
    for t in (-3.0, 0.0, 1.2, 40.0):
        assert eval_DN(arch, 80, t, TABLE) == pytest.approx(
            eval_DN(one, 80, t + alpha, TABLE), abs=1e-12
        )


def test_eval_r():
    one = constant_one()
    support = support_elements(RES20, RES20.x)
    v0 = eval_R(one, 0.0, support)
    assert v0 == pytest.approx(1.0 + RES20.r_p[61], rel=1e-14)
    # Triangle bound at arbitrary t.
    vt = eval_R(one, 17.3, support)
    assert abs(vt) <= abs(v0) + 1e-12
    empty = degenerate_resonator(3.0)
    assert eval_R(one, 5.0, support_elements(empty, 3.0)) == 1.0


def test_grid_sup_constant_one_peaks_at_zero():
    for n in (1, 4, 16):
        result = grid_sup(constant_one(), n, 10.0, 0.05, TABLE)
        assert result.t_star == 0.0
        assert result.value == pytest.approx(math.sqrt(n), rel=1e-12)


def test_grid_sup_n1_tie_breaks():
    res = grid_sup(constant_one(), 1, 5.0, 0.1, TABLE)
    assert res.t_star == 0.0 and res.value == 1.0 and res.grid_step == 0.0
    off = grid_sup(constant_one(), 1, 5.0, 0.1, TABLE, window=(2.0, 7.0))
    assert off.t_star == 2.0


def test_grid_sup_refinement_finds_interior_peak():
    # f(n) = n^{-2i} translates the peak of the constant-one polynomial
    # to t = 2, which is generically off the grid.
    result = grid_sup(archimedean_cmf(-2.0), 16, 10.0, 0.05, TABLE)
    assert result.t_star == pytest.approx(2.0, abs=1e-8)
    assert result.value == pytest.approx(4.0, rel=1e-12)
    assert result.refinement_iterations > 0


def test_grid_sup_certified_slack():
    result = grid_sup(constant_one(), 30, 10.0, 0.05, TABLE)
    assert result.certified_slack is not None
    assert result.certified_slack <= 0.05 + 1e-15
    assert result.grid_step == pytest.approx(
        2.0 * 0.05 / derivative_bound(30), rel=1e-14
    )


def test_grid_sup_probe_property():
    # No window point may beat the reported value by more than the slack.
    f = steinhaus_sample(21)
    result = grid_sup(f, 60, 50.0, 0.1, TABLE, window=(2.5, 9.0))
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = float(rng.uniform(2.5, 9.0))
        assert abs(eval_DN(f, 60, t, TABLE)) <= result.value + result.certified_slack + 1e-9


def test_grid_sup_degenerate_window():
    result = grid_sup(constant_one(), 9, 10.0, 0.05, TABLE, window=(3.0, 3.0))
    assert result.t_star == 3.0
    assert result.value == pytest.approx(abs(eval_DN(constant_one(), 9, 3.0, TABLE)), rel=1e-12)


def _kernel_abs2(coeffs, logs, origin, k0, count, h):
    blocks = list(_grid_values(coeffs, logs, origin, k0, count, h))
    assert [start for start, _ in blocks] == list(range(0, count, RESYNC_STRIDE))
    vals = np.concatenate([v for _, v in blocks])
    assert vals.shape == (count,)
    return np.abs(vals) ** 2


def _direct_abs2(coeffs, logs, ts):
    return np.array([abs(np.sum(coeffs * np.exp(1j * t * logs))) ** 2 for t in ts])


def test_grid_kernel_matches_direct_across_anchor_blocks():
    # Three anchor blocks, the last one partial, at t ~ 1e3.
    n = 60
    coeffs = values_up_to(steinhaus_sample(5), n, TABLE) / math.sqrt(n)
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    h = 2e-3 / math.log(n)
    k0, count = int(1000.0 / h), 2 * RESYNC_STRIDE + 37
    ts = (k0 + np.arange(count)) * h
    got = _kernel_abs2(coeffs, logs, 0.0, k0, count, h)
    assert np.max(np.abs(got - _direct_abs2(coeffs, logs, ts))) <= 1e-9
    # An origin off the grid of multiples of h (the guided-search form).
    origin = 1000.0 + h / 3
    got = _kernel_abs2(coeffs, logs, origin, 0, 301, h)
    assert np.max(np.abs(got - _direct_abs2(coeffs, logs, origin + np.arange(301) * h))) <= 1e-9


def test_grid_kernel_matches_direct_across_term_slices():
    # N = 12 000 terms run in two slices of at most RESYNC_STRIDE.
    n = 12_000
    table = build_factor_table(n)
    f = steinhaus_sample(9, table.limit)
    coeffs = values_up_to(f, n, table) / math.sqrt(n)
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    h = 2e-3 / math.log(n)
    k0, count = int(777.0 / h), 150
    got = _kernel_abs2(coeffs, logs, 0.0, k0, count, h)
    assert np.max(np.abs(got - _direct_abs2(coeffs, logs, (k0 + np.arange(count)) * h))) <= 1e-9


def _per_block_grid_values(coeffs, logs, origin, k0, count, h):
    """The kernel as it was before its step tables were shared: every anchor block
    computed one (201, slice) phase table, anchor row and step tables together."""
    stride = dirichlet.RESYNC_STRIDE
    for start in range(0, count, stride):
        size = min(stride, count - start)
        rows = math.isqrt(size - 1) + 1
        t0 = origin + (k0 + start) * h
        phases = np.concatenate(([t0], np.arange(rows) * h, np.arange(0, size, rows) * h))
        block = np.zeros((rows, phases.size - 1 - rows), dtype=np.complex128)
        for s in range(0, logs.size, stride):
            x = np.outer(phases, logs[s : s + stride])
            tab = np.empty(x.shape, dtype=np.complex128)
            np.cos(x, out=tab.real)
            np.sin(x, out=tab.imag)
            anchor = coeffs[s : s + stride] * tab[0]
            block += tab[1 : rows + 1] @ (tab[rows + 1 :] * anchor).T
        yield start, block.T.ravel()[:size]


def _taylor_rank(coeffs, logs, h):
    return dirichlet._taylor_rank(h, float(logs.max()), logs.size)


def _error_bound(coeffs, logs, h, t_abs):
    """dirichlet._grid_error_bound of the polynomial (coeffs, logs) scanned with step h."""
    return dirichlet._grid_error_bound(
        float(np.abs(coeffs).sum()), float(logs.max()), logs.size, t_abs, h
    )


def _explicit_only(monkeypatch):
    monkeypatch.setattr(dirichlet, "_taylor_rank", lambda h, max_log, n_terms: None)


def _assert_same_blocks(coeffs, logs, origin, k0, count, h):
    """Bit equality with the per-block kernel where the explicit tables run.  Where the
    Taylor factor runs the two kernels still compute the same anchor rows, so they differ by
    at most both kernels' error bounds with the anchor phase left out (t_abs = 0)."""
    got = list(_grid_values(coeffs, logs, origin, k0, count, h))
    want = list(_per_block_grid_values(coeffs, logs, origin, k0, count, h))
    assert [start for start, _ in got] == [start for start, _ in want]
    explicit = _taylor_rank(coeffs, logs, h) is None
    tol = 2.0 * _error_bound(coeffs, logs, h, 0.0)
    for (_, g), (_, w) in zip(got, want):
        assert g.shape == w.shape
        if explicit:
            assert np.array_equal(g, w)
        else:
            assert np.max(np.abs(g - w)) <= tol


def _dn_coeffs_logs(n, seed):
    table = TABLE if n <= TABLE.limit else build_factor_table(n)
    return dirichlet._dn_terms(steinhaus_sample(seed, table.limit), n, table)


@pytest.mark.parametrize(
    "n, t, count, off_grid",
    [
        (60, 1e3, 2 * RESYNC_STRIDE + 37, False),  # a partial last block
        (12_000, 777.0, RESYNC_STRIDE + 37, False),  # two term slices, two blocks
        (25_000, 1e5, RESYNC_STRIDE + 37, False),  # three term slices
        (60, 1e3, 2 * RESYNC_STRIDE + 37, True),  # an origin off the multiples of h
        (500, 6e10, 2 * RESYNC_STRIDE + 37, False),  # phases of ~1e11 rad
    ],
)
def test_grid_kernel_matches_per_block_kernel(monkeypatch, n, t, count, off_grid):
    # The search step h = 2e-3 / log N takes the Taylor factor; the explicit tables, forced,
    # change no float: same tables, same products, same order.
    coeffs, logs = _dn_coeffs_logs(n, n)
    h = 2e-3 / math.log(n)
    origin, k0 = (t + h / 3, 0) if off_grid else (0.0, int(t / h))
    assert _taylor_rank(coeffs, logs, h) is not None
    _assert_same_blocks(coeffs, logs, origin, k0, count, h)
    _explicit_only(monkeypatch)
    _assert_same_blocks(coeffs, logs, origin, k0, count, h)


@pytest.mark.parametrize("n, count", [(40, 5 * 16), (40, 201 * 16 + 5 * 16 + 7), (16, 201 * 16 + 1)])
def test_grid_kernel_matches_per_block_kernel_over_block_groups(monkeypatch, n, count):
    # A small stride makes several term slices and several groups of 201 blocks cheap.  At
    # h = 1e-3 the 40-term polynomial takes the Taylor factor and the 16-term one does not.
    monkeypatch.setattr(dirichlet, "RESYNC_STRIDE", 16)
    coeffs, logs = _dn_coeffs_logs(n, 3)
    assert (_taylor_rank(coeffs, logs, 1e-3) is None) == (n == 16)
    _assert_same_blocks(coeffs, logs, 0.25, 10**9, count, 1e-3)


def _count_step_tables(monkeypatch):
    """Record (rows, cols, slice terms) of every step-table build: _step_tables, and
    _taylor_tables with rows = r, the sub-block size."""
    calls = []
    for name in ("_step_tables", "_taylor_tables"):
        build = getattr(dirichlet, name)

        def counted(rows, cols, h, logs, *rest, build=build):
            calls.append((rows, cols, logs.size))
            return build(rows, cols, h, logs, *rest)

        monkeypatch.setattr(dirichlet, name, counted)
    return calls


def test_grid_kernel_builds_step_tables_once_per_scan(monkeypatch):
    calls = _count_step_tables(monkeypatch)
    coeffs, logs = _dn_coeffs_logs(60, 1)
    # The Taylor factor: x <= 1 at h*L = 4.1e-4 gives sub-blocks of 4885 points, 3 per block.
    assert _taylor_rank(coeffs, logs, 1e-4) == (4885, 19)
    shapes = [((4885, 3, 60), (4885, 1, 60)), ((100, 100, 60), (7, 6, 60))]
    for i, (full, last) in enumerate(shapes):
        if i:
            _explicit_only(monkeypatch)
        calls.clear()
        assert len(list(_grid_values(coeffs, logs, 0.0, 10**6, 5 * RESYNC_STRIDE, 1e-4))) == 5
        assert calls == [full]
        # A partial last block has its own shape, so it gets its own tables.
        calls.clear()
        assert len(list(_grid_values(coeffs, logs, 0.0, 10**6, 5 * RESYNC_STRIDE + 37, 1e-4))) == 6
        assert calls == [full, last]


def test_grid_kernel_builds_step_tables_once_per_group_and_slice(monkeypatch):
    monkeypatch.setattr(dirichlet, "RESYNC_STRIDE", 16)
    calls = _count_step_tables(monkeypatch)
    coeffs, logs = _dn_coeffs_logs(40, 2)  # slices of 16, 16 and 8 terms
    # The Taylor factor (one 16-point sub-block per block) holds (cols, K) sums per block,
    # so a scan is one group; the explicit tables, forced, hold at most 201 blocks a group:
    # 201 blocks are one group, 202 are two.
    assert _taylor_rank(coeffs, logs, 1e-4) == (16, 6)
    for i, (shape, groups) in enumerate([((16, 1), (1, 1)), ((4, 4), (1, 2))]):
        if i:
            _explicit_only(monkeypatch)
        per_slice = [(*shape, 16), (*shape, 16), (*shape, 8)]
        calls.clear()
        assert len(list(_grid_values(coeffs, logs, 0.0, 10**6, 5 * 16, 1e-4))) == 5
        assert calls == per_slice
        for n_blocks, n_groups in zip((201, 202), groups):
            calls.clear()
            blocks = _grid_values(coeffs, logs, 0.0, 10**6, n_blocks * 16, 1e-4)
            assert [start for start, _ in blocks] == list(range(0, n_blocks * 16, 16))
            assert calls == per_slice * n_groups


def test_grid_kernel_yields_one_slice_blocks_before_the_next_is_computed(monkeypatch):
    # With one term slice no block sum is held back: each block is yielded
    # before the next anchor row is computed, for one origin and for several,
    # with the Taylor factor and with the explicit tables.
    coeffs, logs = _dn_coeffs_logs(60, 1)
    expi = dirichlet._expi
    h = 1e-4
    for explicit in (False, True):
        if explicit:
            _explicit_only(monkeypatch)
        # Four origins: no step table (3 or 200 rows here) has the shape of an anchor row.
        for origin in (0.0, np.array([0.0, 0.25, 0.5, 0.75])):
            anchors = []

            def recorded(x):
                if x.shape[:-1] == np.shape(origin):  # an anchor row per origin
                    anchors.append(x[..., 1] / logs[1])
                return expi(x)

            monkeypatch.setattr(dirichlet, "_expi", recorded)
            for start, _ in _grid_values(coeffs, logs, origin, 10**6, 3 * RESYNC_STRIDE, h):
                assert len(anchors) == start // RESYNC_STRIDE + 1
                assert anchors[-1] == pytest.approx(origin + (10**6 + start) * h, rel=1e-12)


_GL_ORIGINS = 1000.0 + 0.5 * 1e-3 * (1.0 + np.polynomial.legendre.leggauss(10)[0][:5])


def _assert_origins_match_scalar_scans(coeffs, logs, origins, k0, count, h):
    got = list(_grid_values(coeffs, logs, origins, k0, count, h))
    assert [start for start, _ in got] == list(range(0, count, dirichlet.RESYNC_STRIDE))
    for i, origin in enumerate(origins):
        want = list(_grid_values(coeffs, logs, float(origin), k0, count, h))
        assert len(got) == len(want)
        for (start, g), (start_1, w) in zip(got, want):
            assert start == start_1 and g.shape == (origins.size, w.size)
            assert np.array_equal(g[i], w)


@pytest.mark.parametrize(
    "n, count",
    [
        (12, 300),  # one block, explicit tables
        (60, 3 * RESYNC_STRIDE),  # several full blocks
        (60, 2 * RESYNC_STRIDE + 37),  # a short last block
        (12_000, RESYNC_STRIDE + 37),  # two term slices
    ],
)
def test_grid_kernel_with_origin_vector_matches_scalar_scans(n, count):
    # Several origins share one scan: the same tables, anchors and products per origin.
    coeffs, logs = _dn_coeffs_logs(n, n)
    assert (_taylor_rank(coeffs, logs, 1e-3) is None) == (n == 12)
    _assert_origins_match_scalar_scans(coeffs, logs, _GL_ORIGINS, 30_000, count, 1e-3)


@pytest.mark.parametrize("n_origins, count", [(5, 45 * 16 + 7), (201, 3 * 16), (300, 2 * 16 + 1)])
def test_grid_kernel_with_origin_vector_over_block_groups(monkeypatch, n_origins, count):
    # In a multi-slice scan of n origins the explicit tables hold floor(201 / n) blocks a
    # group (at least one) and the Taylor factor all blocks in one group; each group builds
    # each slice's tables once per block shape.
    monkeypatch.setattr(dirichlet, "RESYNC_STRIDE", 16)
    calls = _count_step_tables(monkeypatch)
    coeffs, logs = _dn_coeffs_logs(40, 4)  # slices of 16, 16 and 8 terms
    origins = 0.25 + np.arange(n_origins) * 1e-5
    sizes = [min(16, count - start) for start in range(0, count, 16)]
    r, _ = _taylor_rank(coeffs, logs, 1e-3)
    for explicit in (False, True):
        if explicit:
            _explicit_only(monkeypatch)
        calls.clear()
        list(_grid_values(coeffs, logs, origins, 10**9, count, 1e-3))
        rows = [math.isqrt(size - 1) + 1 if explicit else r for size in sizes]
        shapes = [(a, -(-size // a)) for a, size in zip(rows, sizes)]
        per_group = max(1, 201 // n_origins) if explicit else len(sizes)
        groups = [shapes[g : g + per_group] for g in range(0, len(shapes), per_group)]
        builds = sum(1 for *_, n_terms in calls if n_terms == 8)
        assert builds == sum(len(set(g)) for g in groups)
        _assert_origins_match_scalar_scans(coeffs, logs, origins, 10**9, count, 1e-3)


def _scan(coeffs, logs, origin, k0, count, h):
    """A scan's values, the blocks joined along the grid axis."""
    return np.concatenate([v for _, v in _grid_values(coeffs, logs, origin, k0, count, h)], -1)


@functools.cache
def _mp_logs(n):
    with mpmath.workdps(50):
        return [mpmath.log(k) for k in range(1, n + 1)]


def _mp_value(coeffs, n, t):
    """sum_n c_n e^{i*t*log n} to 50 digits at the exact value of t (an mpf)."""
    with mpmath.workdps(50):
        terms = (mpmath.mpc(c.real, c.imag) * mpmath.expj(t * lg)
                 for c, lg in zip(coeffs.tolist(), _mp_logs(n)))
        return complex(mpmath.fsum(terms))


@pytest.mark.parametrize("n", [500, 12_000])
@pytest.mark.parametrize("t", [1e3, 6e10])
def test_grid_kernel_within_error_bound_of_mpmath(monkeypatch, n, t):
    # Both forms of the step tables stay within _grid_error_bound of the 50-digit sum, over
    # two anchor blocks (the second one partial) and, at N = 12 000, two term slices.
    coeffs, logs = _dn_coeffs_logs(n, 7)
    h = 2e-3 / math.log(n)
    k0, count = int(t / h), RESYNC_STRIDE + 37
    ks = [0, 1, 4999, 9999, 10_000, 10_036] if n == 500 else [0, 5003, 10_036]
    with mpmath.workdps(50):
        want = [_mp_value(coeffs, n, mpmath.mpf(k0 + k) * mpmath.mpf(h)) for k in ks]
    bound = _error_bound(coeffs, logs, h, (k0 + count) * h)
    assert _taylor_rank(coeffs, logs, h) is not None
    for explicit in (False, True):
        if explicit:
            _explicit_only(monkeypatch)
        got = _scan(coeffs, logs, 0.0, k0, count, h)
        assert max(abs(got[k] - w) for k, w in zip(ks, want)) <= bound


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 1500),
    log_h=st.floats(-5.0, 0.0),
    count=st.integers(1, 30_000),
    origins=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
    k0=st.integers(-10**6, 10**6),
    stride=st.sampled_from([16, 257, RESYNC_STRIDE]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_kernel_forms_agree_within_error_bound(n, log_h, count, origins, k0, stride, seed):
    # The Taylor factor (forced wherever r > K + 1) against the explicit tables: both compute
    # the same anchor rows, so they agree within both error bounds without the anchor phase.
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    h, origin = 10.0**log_h, np.array(origins)
    count = min(count, 3 * stride)
    rank = dirichlet._taylor_rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet, "RESYNC_STRIDE", stride)
        mp.setattr(dirichlet, "_taylor_rank", lambda h, max_log, _: rank(h, max_log, 10**9))
        factored = _scan(coeffs, logs, origin, k0, count, h)
        mp.setattr(dirichlet, "_taylor_rank", lambda h, max_log, n_terms: None)
        explicit = _scan(coeffs, logs, origin, k0, count, h)
        tol = 2.0 * _error_bound(coeffs, logs, h, 0.0)
    assert factored.shape == explicit.shape == (origin.size, count)
    assert np.max(np.abs(factored - explicit)) <= tol


def _full_array_candidates(r_mag, max_log, lo, step, top_k):
    """The guided search's selection as it was when it held the whole |R| array."""
    peak_idx = 1 + np.flatnonzero((r_mag[1:-1] >= r_mag[:-2]) & (r_mag[1:-1] >= r_mag[2:]))
    if peak_idx.size == 0:
        peak_idx = np.array([int(np.argmax(r_mag))])
    heights = r_mag[peak_idx]
    h_top = float(heights.max())
    blur = h_top * (max_log * step) ** 2
    in_band = heights >= h_top - blur
    band = peak_idx[in_band]
    band = band[np.argsort(np.abs(lo + step * band), kind="stable")]
    rest = peak_idx[~in_band]
    rest = rest[np.argsort(heights[~in_band], kind="stable")[::-1]]
    return np.concatenate([band, rest])[:top_k]


def _as_blocks(r_mag, sizes):
    # Blocks of the given sizes; |R| as complex values with a phase, as the kernel yields.
    bounds = np.cumsum([0, *sizes])
    assert bounds[-1] == r_mag.size
    return [(int(a), r_mag[a:b] * np.exp(0.3j)) for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize(
    "r_mag, sizes",
    [
        # A peak on the last point of a block, one on the first point of the next,
        # and a plateau across a boundary.
        ([1.0, 2.0, 5.0, 1.0, 0.5, 3.0, 3.0, 3.0, 1.0], [3, 3, 3]),
        ([1.0, 2.0, 5.0, 1.0, 0.5, 3.0, 3.0, 3.0, 1.0], [2, 1, 1, 2, 1, 2]),
        ([1.0, 2.0, 5.0, 1.0, 0.5, 3.0, 3.0, 3.0, 1.0], [1] * 9),
        # No interior maximum: the first argmax stands in.
        ([1.0, 2.0, 3.0, 4.0, 4.0], [2, 3]),
        ([4.0, 4.0, 3.0, 2.0], [1, 3]),
        ([4.0, 3.0, 4.0], [1, 2]),  # a tied maximum in a later block
        ([4.0, 3.0, 4.0], [2, 1]),
        ([7.0], [1]),
        ([2.0, 7.0], [1, 1]),
    ],
)
@pytest.mark.parametrize("top_k", [1, 5, 100])
def test_guided_candidates_match_full_array_selection(r_mag, sizes, top_k):
    r_mag = np.abs(np.asarray(r_mag) * np.exp(0.3j))  # the rounding of np.abs on both sides
    want = _full_array_candidates(r_mag, 3.0, -2.0, 0.5, top_k)
    got = _guided_candidates(_as_blocks(r_mag, sizes), 3.0, -2.0, 0.5, top_k)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_guided_candidates_match_full_array_selection_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        # Few distinct levels, so plateaus and ties are common.
        r_mag = np.abs(rng.integers(0, 4, n) * np.exp(0.3j))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        sizes = np.diff([0, *cuts, n])
        lo, step = float(rng.uniform(-5.0, 1.0)), 0.1
        want = _full_array_candidates(r_mag, 1.0, lo, step, 7)
        got = _guided_candidates(_as_blocks(r_mag, sizes), 1.0, lo, step, 7)
        assert np.array_equal(got, want)


def test_guided_candidates_periodic_one_prime_resonator():
    # |R| = |1 + r e^{i t log 61}| is periodic: all its peaks fall in the tie band,
    # which is scanned smallest |t| first, across three anchor blocks.
    coeffs, logs = dirichlet._support_coeff_logs(
        constant_one(), support_elements(RES20, RES20.x)
    )
    lo, count = -250.0, 2 * RESYNC_STRIDE + 37
    step = 500.0 / (count - 1)
    r_mag = np.concatenate([np.abs(v) for _, v in _grid_values(coeffs, logs, lo, 0, count, step)])
    for top_k in (5, 10**6):
        want = _full_array_candidates(r_mag, float(logs.max()), lo, step, top_k)
        got = _guided_candidates(_grid_values(coeffs, logs, lo, 0, count, step),
                                 float(logs.max()), lo, step, top_k)
        assert np.array_equal(got, want)
    assert want.size > 100  # one peak per period 2*pi / log 61 ~ 1.5
    assert np.all(np.diff(np.abs(lo + step * want[:50])) >= 0)  # in the band


def test_guided_search_memory_bounded():
    # 6.2e6 coarse points: the whole |R| array alone would take 50 MB.
    res = build_resonator(4.85e8, TABLE)
    tracemalloc.start()
    try:
        resonance_guided_search(res, steinhaus_sample(2, TABLE.limit), 500, 1e4, None, TABLE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_grid_sup_trace(tmp_path):
    path = os.path.join(tmp_path, "trace.csv")
    f, n, eps, stride = steinhaus_sample(4), 40, 0.05, 997
    window = (900.0, 960.0)
    result = grid_sup(f, n, 1e3, eps, TABLE, window=window, trace_path=path, trace_stride=stride)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,abs_dn"
    step = result.grid_step
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    # Interior grid points are the multiples k * step inside the window.
    k_lo, k_hi = round(rows[0][0] / step), math.floor(window[1] / step)
    assert (k_lo - 1) * step < window[0] <= k_lo * step and k_hi * step <= window[1]
    assert k_hi - k_lo > RESYNC_STRIDE  # the trace crosses an anchor block
    assert len(rows) == len(range(0, k_hi - k_lo + 1, stride))
    for j, (t, abs_dn) in enumerate(rows):
        assert t == (k_lo + j * stride) * step
        assert abs_dn == pytest.approx(abs(eval_DN(f, n, t, TABLE)), rel=1e-9)


def test_grid_sup_validation():
    one = constant_one()
    with pytest.raises(ValueError):
        grid_sup(one, 0, 10.0, 0.1, TABLE)
    with pytest.raises(ValueError):
        grid_sup(one, 4, -1.0, 0.1, TABLE)
    with pytest.raises(ValueError):
        grid_sup(one, 4, 10.0, 0.0, TABLE)
    with pytest.raises(ValueError):
        grid_sup(one, 4, 10.0, 0.1, TABLE, window=(2.0, 1.0))
    with pytest.raises(ResourceLimitError):
        grid_sup(one, 100, 1e6, 1e-6, TABLE, eval_budget=1000)


def test_grid_sup_refuses_eps_within_float_error():
    # eps <= rho, the kernel's error bound at max(|lo|, |hi|), is refused; just above it the
    # scan runs.  rho at h = 0 is below the bound at the scan's step by about 1e-14 relative.
    f, n, window = steinhaus_sample(6), 500, (6e10, 6e10 + 1.0)
    rho = dirichlet._grid_error_bound(math.sqrt(n), math.log(n), n, window[1], 0.0)
    assert 5e-3 < rho < 6e-3
    with pytest.raises(ValueError, match="float error bound"):
        grid_sup(f, n, 1e11, rho, TABLE, window=window)
    result = grid_sup(f, n, 1e11, rho * (1 + 1e-9), TABLE, window=window)
    assert result.certified_slack <= rho * (1 + 1e-9)
    # The default eps = 1e-3 sqrt(N) clears rho at the benchmark's T = 500^4.
    t_bound = 500.0**4
    for n in (500, 5000):
        grid_sup(f, n, t_bound, None, TABLE, window=(t_bound - 0.01, t_bound))


def test_grid_sup_memory_bounded_at_large_n():
    # The kernel's tables are sliced by terms: unsliced 100 x N tables
    # would need about 1 GB here.
    n = 200_000
    table = build_factor_table(n)
    h = 2e-3 / math.log(n)
    tracemalloc.start()
    try:
        grid_sup(constant_one(), n, 1e4, None, table, window=(1000.0, 1000.0 + 1000 * h))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(window=(50.0, 40.0)),
        dict(window=(0.0, math.inf)),
        dict(window=(-math.inf, 0.0)),
        dict(window=(math.nan, 1.0)),
        dict(eps=0.0),
        dict(eps=-1.0),
        dict(eps=math.inf),
        dict(eval_budget=0),
        dict(eval_budget=-5),
    ],
)
def test_search_argument_checks(kwargs):
    # Both searches share one check, with or without a resonator support.
    eps = kwargs.pop("eps", None)
    with pytest.raises(ValueError):
        grid_sup(constant_one(), 25, 100.0, eps, TABLE, **kwargs)
    for res in (RES20, degenerate_resonator(3.0)):
        with pytest.raises(ValueError):
            resonance_guided_search(res, constant_one(), 25, 100.0, eps, TABLE, **kwargs)


def test_guided_search_constant_one():
    result = resonance_guided_search(RES20, constant_one(), 25, 20.0, None, TABLE)
    assert abs(result.t_star) <= 1e-6
    assert result.value == pytest.approx(5.0, rel=1e-9)
    assert result.certified_slack is None


def test_guided_search_empty_support_degenerates():
    res = degenerate_resonator(3.0)
    result = resonance_guided_search(res, constant_one(), 16, 10.0, 0.05, TABLE)
    assert result.t_star == 0.0
    assert result.value == pytest.approx(4.0, rel=1e-12)
    # Degenerate path is a plain grid search, so the certificate survives.
    assert result.certified_slack is not None


def test_guided_never_beats_certified_grid():
    for seed in (0, 1, 2):
        f = steinhaus_sample(seed)
        grid = grid_sup(f, 120, 50.0, 0.5, TABLE)
        guided = resonance_guided_search(RES20, f, 120, 50.0, None, TABLE)
        assert guided.value <= grid.value + grid.certified_slack + 1e-9


def test_derivative_bound():
    assert derivative_bound(1) == 0.0
    assert derivative_bound(100) == pytest.approx(10.0 * math.log(100.0), rel=1e-14)
