from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescert import dirichlet
from rescert.dirichlet import (
    RESYNC_STRIDE,
    _grid_blocks,
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
from rescert.resonator import build_resonator, degenerate_resonator, support_elements

RES20 = build_resonator(math.exp(20.0))  # support {1, 61}


def test_eval_dn_at_zero():
    one = constant_one()
    assert eval_DN(one, 4, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert eval_DN(one, 2, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert eval_DN(one, 1, 1.7) == pytest.approx(1.0, rel=1e-14)


def test_eval_dn_triangle_bound():
    rng = np.random.default_rng(3)
    f = steinhaus_sample(11)
    for _ in range(20):
        t = float(rng.uniform(-100.0, 100.0))
        n = int(rng.integers(1, 300))
        assert abs(eval_DN(f, n, t)) <= math.sqrt(n) + 1e-9


def test_eval_dn_conjugate_symmetry():
    # Real coefficients make D(-t) the conjugate of D(t).
    one = constant_one()
    for t in (0.3, 2.0, 55.5):
        assert eval_DN(one, 50, -t) == pytest.approx(
            eval_DN(one, 50, t).conjugate(), rel=1e-12
        )


def test_eval_dn_archimedean_shift_identity():
    # n^{i alpha} coefficients just translate the argument.
    alpha = 0.9
    arch = archimedean_cmf(alpha)
    one = constant_one()
    for t in (-3.0, 0.0, 1.2, 40.0):
        assert eval_DN(arch, 80, t) == pytest.approx(
            eval_DN(one, 80, t + alpha), abs=1e-12
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
        result = grid_sup(constant_one(), n, 10.0, 0.05)
        assert result.t_star == 0.0
        assert result.value == pytest.approx(math.sqrt(n), rel=1e-12)


def test_grid_sup_n1_tie_breaks():
    res = grid_sup(constant_one(), 1, 5.0, 0.1)
    assert res.t_star == 0.0 and res.value == 1.0 and res.grid_step == 0.0
    off = grid_sup(constant_one(), 1, 5.0, 0.1, window=(2.0, 7.0))
    assert off.t_star == 2.0


def test_grid_sup_refinement_finds_interior_peak():
    # f(n) = n^{-2i} translates the peak of the constant-one polynomial
    # to t = 2, which is generically off the grid.
    result = grid_sup(archimedean_cmf(-2.0), 16, 10.0, 0.05)
    assert result.t_star == pytest.approx(2.0, abs=1e-8)
    assert result.value == pytest.approx(4.0, rel=1e-12)
    assert result.refinement_iterations > 0


def test_grid_sup_certified_slack():
    result = grid_sup(constant_one(), 30, 10.0, 0.05)
    assert result.certified_slack is not None
    assert result.certified_slack <= 0.05 + 1e-15
    assert result.grid_step == pytest.approx(
        2.0 * 0.05 / derivative_bound(30), rel=1e-14
    )


def test_grid_sup_probe_property():
    # No window point may beat the reported value by more than the slack.
    f = steinhaus_sample(21)
    result = grid_sup(f, 60, 50.0, 0.1, window=(2.5, 9.0))
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = float(rng.uniform(2.5, 9.0))
        assert abs(eval_DN(f, 60, t)) <= result.value + result.certified_slack + 1e-9


def test_grid_sup_degenerate_window():
    result = grid_sup(constant_one(), 9, 10.0, 0.05, window=(3.0, 3.0))
    assert result.t_star == 3.0
    assert result.value == pytest.approx(abs(eval_DN(constant_one(), 9, 3.0)), rel=1e-12)


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
    coeffs = values_up_to(steinhaus_sample(5), n) / math.sqrt(n)
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
    f = steinhaus_sample(9)
    coeffs = values_up_to(f, n) / math.sqrt(n)
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    h = 2e-3 / math.log(n)
    k0, count = int(777.0 / h), 150
    got = _kernel_abs2(coeffs, logs, 0.0, k0, count, h)
    assert np.max(np.abs(got - _direct_abs2(coeffs, logs, (k0 + np.arange(count)) * h))) <= 1e-9


def _per_block_grid_values(coeffs, logs, origin, k0, count, h):
    """The kernel as it was before its step tables were shared: every anchor block
    computed its own step tables by cos and sin.  The anchor row goes through
    dirichlet._expi, which reduces huge phases modulo 2*pi as the kernel does, and the
    product through dirichlet._sum_matmul's one-thread chunks, so bit equality checks the
    sharing of the step tables, not the trigonometry or the product."""
    stride = dirichlet.RESYNC_STRIDE
    for start in range(0, count, stride):
        size = min(stride, count - start)
        rows = math.isqrt(size - 1) + 1
        t0 = origin + (k0 + start) * h
        phases = np.concatenate((np.arange(rows) * h, np.arange(0, size, rows) * h))
        block = np.zeros((rows, phases.size - rows), dtype=np.complex128)
        for s in range(0, logs.size, stride):
            x = np.outer(phases, logs[s : s + stride])
            tab = np.empty(x.shape, dtype=np.complex128)
            np.cos(x, out=tab.real)
            np.sin(x, out=tab.imag)
            anchor = coeffs[s : s + stride] * dirichlet._expi(t0 * logs[s : s + stride])
            block += dirichlet._sum_matmul(tab[:rows], (tab[rows:] * anchor).T)
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
    at most both kernels' error bounds with the anchor phase left out (t_abs = 0).  The
    kernel yields a batch of explicit blocks as one block, so the scans are compared
    joined."""
    got = _scan(coeffs, logs, origin, k0, count, h)
    want = np.concatenate([v for _, v in _per_block_grid_values(coeffs, logs, origin, k0, count, h)])
    assert got.shape == want.shape == (count,)
    if _taylor_rank(coeffs, logs, h) is None:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 2.0 * _error_bound(coeffs, logs, h, 0.0)


def _dn_coeffs_logs(n, seed):
    return dirichlet._dn_terms(steinhaus_sample(seed), n)


@pytest.mark.parametrize(
    "n, t, count, off_grid",
    [
        (60, 1e3, 2 * RESYNC_STRIDE + 37, False),  # a partial last block
        (12_000, 777.0, RESYNC_STRIDE + 37, False),  # two term slices, two blocks
        (25_000, 1e5, RESYNC_STRIDE + 37, False),  # three term slices
        (60, 1e3, 2 * RESYNC_STRIDE + 37, True),  # an origin off the multiples of h
        (500, 6e10, 2 * RESYNC_STRIDE + 37, False),  # phases of ~1e11 rad
        (60, 2.0**27 / math.log(60), 2 * RESYNC_STRIDE + 37, False),  # rows across 2^27 rad
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
    # It yields block by block; the explicit tables, forced, yield a batch of up to 6 full
    # blocks as one block.
    assert _taylor_rank(coeffs, logs, 1e-4) == (4885, 19)
    shapes = [((4885, 3, 60), (4885, 1, 60), (5, 6)), ((100, 100, 60), (7, 6, 60), (1, 2))]
    for i, (full, last, yields) in enumerate(shapes):
        if i:
            _explicit_only(monkeypatch)
        calls.clear()
        blocks = list(_grid_values(coeffs, logs, 0.0, 10**6, 5 * RESYNC_STRIDE, 1e-4))
        assert len(blocks) == yields[0]
        assert calls == [full]
        # A partial last block has its own shape, so it gets its own tables.
        calls.clear()
        blocks = list(_grid_values(coeffs, logs, 0.0, 10**6, 5 * RESYNC_STRIDE + 37, 1e-4))
        assert len(blocks) == yields[1]
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
        # The Taylor factor yields block by block; the explicit tables yield a group's
        # batch of full blocks as one block.
        assert len(list(_grid_values(coeffs, logs, 0.0, 10**6, 5 * 16, 1e-4))) == (1 if i else 5)
        assert calls == per_slice
        for n_blocks, n_groups in zip((201, 202), groups):
            calls.clear()
            blocks = _grid_values(coeffs, logs, 0.0, 10**6, n_blocks * 16, 1e-4)
            starts = range(0, n_blocks * 16, 201 * 16 if i else 16)
            assert [start for start, _ in blocks] == list(starts)
            assert calls == per_slice * n_groups


def test_grid_kernel_yields_one_slice_blocks_before_the_next_is_computed(monkeypatch):
    # With one term slice no batch sum is held back: each batch is yielded before the next
    # batch's anchor rows are computed, at two origins, with the Taylor factor and with the
    # explicit tables, and no batch array exceeds _BATCH_ENTRIES entries.  The spy wraps _expi, so it records the phases before _expi reduces them
    # (origin 3e10: phases of ~1e11 rad).
    coeffs, logs = _dn_coeffs_logs(60, 1)
    expi = dirichlet._expi
    h, k0, count = 1e-4, 10**6, 13 * RESYNC_STRIDE + 37
    cap = dirichlet._BATCH_ENTRIES
    for explicit in (False, True):
        if explicit:
            _explicit_only(monkeypatch)
        for origin in (0.0, 3e10):
            batches = []  # the block starts of each batch's anchors

            def recorded(x, *bound):
                if bound:  # the anchor rows, (nb, slice); step tables pass no bound
                    assert x.size <= cap
                    k = (x[:, 1] / logs[1] - origin) / h - k0
                    batches.append((np.rint(k / RESYNC_STRIDE) * RESYNC_STRIDE).astype(int))
                return expi(x, *bound)

            monkeypatch.setattr(dirichlet, "_expi", recorded)
            products = [0]  # entries of the blocks yielded from each batch
            for start, size, block in _grid_blocks(coeffs, logs, origin, k0, count, h):
                covered = range(start, start + size, RESYNC_STRIDE)
                assert set(covered) <= set(batches[-1].tolist())
                if start == batches[-1][0]:
                    products.append(0)
                products[-1] += block.size
            assert np.concatenate(batches).tolist() == list(range(0, count, RESYNC_STRIDE))
            assert len(batches) > 3 and max(products) <= cap


_CROSS_2_27 = 2.0**27 / math.log(60)  # t where the anchor row's top phase t*log 60 is 2^27


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize(
    "n, stride, cap_blocks, t",
    [
        (60, RESYNC_STRIDE, None, 1e3),  # the module's cap: 6 blocks a batch in both forms
        (60, RESYNC_STRIDE, None, _CROSS_2_27),  # anchors across 2^27 rad inside a batch
        (40, 16, 3, 1e3),  # three term slices (16, 16 and 8 terms)
    ],
)
def test_grid_kernel_batches_pinned_to_per_block_scans(
    monkeypatch, explicit, n, stride, cap_blocks, t
):
    # A batch of anchor blocks computes every value bit for bit as the blocks one at a time
    # (a cap of one entry: one block a batch), for runs of cap - 1, cap and cap + 1 full
    # blocks followed by a short last block of another shape or of theirs (which joins their
    # run).  The spy checks the batch schedule: the nb axis of each batch's anchor phases.
    monkeypatch.setattr(dirichlet, "RESYNC_STRIDE", stride)
    coeffs, logs = _dn_coeffs_logs(n, 5)
    h = 2e-3 / math.log(n) if stride == RESYNC_STRIDE else 1e-4
    if explicit:
        _explicit_only(monkeypatch)
    factor = _taylor_rank(coeffs, logs, h)
    assert (factor is None) == explicit
    r = None if explicit else factor[0]
    n_terms = min(n, stride)
    rows, cols = dirichlet._block_shape(stride, r)
    assert rows * cols == stride or not explicit
    if cap_blocks is not None:
        monkeypatch.setattr(dirichlet, "_BATCH_ENTRIES", cap_blocks * cols * max(rows, n_terms))
    nb = dirichlet._blocks_per_batch(rows, cols, n_terms)
    assert nb == (cap_blocks or 6) and nb >= 3
    k0 = int(t / h) - 2 * stride
    if t == _CROSS_2_27:
        assert k0 * h * logs[-1] < 2.0**27 <= (k0 + (nb - 1) * stride) * h * logs[-1]
    expi = dirichlet._expi
    schedule = []

    def recorded(x, *bound):
        if bound:  # the anchor rows, (..., nb, slice)
            schedule.append(x.shape[-2])
        return expi(x, *bound)

    monkeypatch.setattr(dirichlet, "_expi", recorded)
    cap = dirichlet._BATCH_ENTRIES
    n_slices = -(-n // stride)
    for m in (nb - 1, nb, nb + 1):
        for tail in (37, 9947) if stride == RESYNC_STRIDE else (5, 13):
            count = m * stride + tail
            schedule.clear()
            got = _scan(coeffs, logs, 0.0, k0, count, h)
            joins = dirichlet._block_shape(tail, r) == (rows, cols)
            runs = [m + 1] if joins else [m, 1]
            want = [b for run in runs for b in [nb] * (run // nb) + [run % nb] * (run % nb > 0)]
            assert schedule == want * n_slices
            monkeypatch.setattr(dirichlet, "_BATCH_ENTRIES", 1)
            per_block = _scan(coeffs, logs, 0.0, k0, count, h)
            monkeypatch.setattr(dirichlet, "_BATCH_ENTRIES", cap)
            assert got.shape == per_block.shape and got.tobytes() == per_block.tobytes()


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


_U = 2.0**-52
_REDUCED = (dirichlet._REDUCE_LO, dirichlet._REDUCE_HI)  # _expi reduces lo <= |x| < hi


def test_expi_reduction_constants():
    # C1..C4 are the leading 16 bits of what is left of 2*pi, truncated; C5 is the float
    # nearest the rest.
    pieces = (dirichlet._C1, dirichlet._C2, dirichlet._C3, dirichlet._C4)
    with mpmath.workdps(60):
        rest = 2 * mpmath.pi
        for c in pieces:
            ulp16 = math.ldexp(1.0, math.frexp(c)[1] - 16)  # last place of 16 bits
            assert (c / ulp16).is_integer()
            assert 0 < rest - c < ulp16
            rest -= c
        assert dirichlet._C5 == float(rest)
    assert dirichlet._REDUCE_HI == 2.0**37 * dirichlet._C1


def test_expi_reduction_first_three_subtractions_exact():
    # Over the reduced range, q*C1 .. q*C4 and the first three subtractions round nothing.
    rng = np.random.default_rng(11)
    lo, hi = _REDUCED
    xs = np.concatenate((
        [lo, np.nextafter(hi, 0.0), 4.5e10 * math.log(500)],
        np.exp(rng.uniform(math.log(lo), math.log(hi), 2000)),
    ))
    pieces = (dirichlet._C1, dirichlet._C2, dirichlet._C3, dirichlet._C4)
    for x in np.concatenate((xs, -xs)).tolist():
        q = float(np.rint(x / dirichlet._TWO_PI))
        assert abs(q) < 2.0**37
        r = x
        for i, c in enumerate(pieces):
            assert Fraction(q * c) == Fraction(q) * Fraction(c)
            if i < 3:
                assert Fraction(r - q * c) == Fraction(r) - Fraction(q * c)
            r -= q * c


def test_expi_reduced_phases_within_bound_of_mpmath():
    # Reduced phases, random over the range and next to multiples of pi/2 (where cos or sin
    # is near zero): within 4u of e^{i*x} before cos and sin round, which adds under u, and
    # the reference rounded to complex adds u/2.
    rng = np.random.default_rng(12)
    lo, hi = _REDUCED
    xs = np.exp(rng.uniform(math.log(lo), math.log(hi), 300)) * rng.choice([-1.0, 1.0], 300)
    with mpmath.workdps(60):
        ks = np.exp(rng.uniform(math.log(lo / 1.5), math.log(hi / 1.6), 300)).astype(np.int64)
        near = [float(int(k) * mpmath.pi / 2) for k in ks.tolist()]
        xs = np.concatenate((xs, near, -np.array(near)))
        want = np.array([complex(mpmath.expj(mpmath.mpf(x))) for x in xs.tolist()])
    assert np.all((np.abs(xs) >= lo) & (np.abs(xs) < hi))
    got = dirichlet._expi(xs)
    assert np.max(np.abs(got - want)) <= 5.5 * _U


def test_expi_leaves_phases_outside_the_reduced_range_to_cos_and_sin():
    # Below 2^27 and from the guard up, _expi is np.cos and np.sin bit for bit, also when
    # the array mixes them with reduced phases.
    rng = np.random.default_rng(13)
    lo, hi = _REDUCED
    small = np.concatenate(([0.0, 1.0, np.nextafter(lo, 0.0)], rng.uniform(0.0, lo, 500)))
    large = np.exp(rng.uniform(math.log(hi), 60.0, 500))
    large = np.concatenate(([hi, 2 * hi, 1e15, 1e300], large))
    reduced = np.exp(rng.uniform(math.log(lo), math.log(hi), 500))
    for xs in (small, -small, large, -large):
        got = dirichlet._expi(xs)
        assert np.array_equal(got.real, np.cos(xs)) and np.array_equal(got.imag, np.sin(xs))
    mixed = rng.permutation(np.concatenate((small, -large, reduced)))
    got = dirichlet._expi(mixed)
    out = (np.abs(mixed) < lo) | (np.abs(mixed) >= hi)
    assert np.array_equal(got[out].real, np.cos(mixed[out]))
    assert np.array_equal(got[out].imag, np.sin(mixed[out]))
    assert np.array_equal(got[~out], dirichlet._expi(mixed[~out]))


_SCAN_DIGEST = """
import hashlib, math, sys
import numpy as np
from rescert import dirichlet
from rescert.multfn import steinhaus_sample
digest = hashlib.sha256()
for n in (5000, 12000):
    coeffs, logs = dirichlet._dn_terms(steinhaus_sample(0), n)
    h = 2e-3 / math.log(n)
    assert dirichlet._taylor_rank(h, float(logs.max()), n) is not None
    for origin, k0 in ((0.0, int(4.5e10 / h)), (1e4, 0)):
        for _, values in dirichlet._grid_values(coeffs, logs, origin, k0, 12_000, h):
            digest.update(np.ascontiguousarray(values).tobytes())
print(digest.hexdigest())
"""


# The explicit tables forced on the search's step at N = 500, t ~ 4.5e10: a 5e4-point scan.
_EXPLICIT_SCAN_DIGEST = """
import hashlib, math
import numpy as np
from rescert import dirichlet
from rescert.multfn import steinhaus_sample
dirichlet._taylor_rank = lambda h, max_log, n_terms: None
n = 500
coeffs, logs = dirichlet._dn_terms(steinhaus_sample(3), n)
h = 2e-3 / math.log(n)
digest = hashlib.sha256()
for _, values in dirichlet._grid_values(coeffs, logs, 0.0, int(4.5e10 / h), 50_000, h):
    digest.update(np.ascontiguousarray(values).tobytes())
print(digest.hexdigest())
"""


def _digests_under_blas_threads(script: str) -> list[str]:
    """The output of `script` in a new interpreter under 1 and under 2 BLAS threads."""
    src = str(Path(dirichlet.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        )
        digests.append(proc.stdout)
    return digests


def test_taylor_scan_independent_of_blas_threads():
    # The Taylor factor's first product sums over up to RESYNC_STRIDE terms; as one real
    # product it gave other bits under 2 BLAS threads at N = 5000.  Its sum is taken in
    # one-thread chunks (_sum_matmul), so 1 and 2 threads scan the same bits, also at a
    # nonzero origin and with two term slices (N = 12 000).
    digests = _digests_under_blas_threads(_SCAN_DIGEST)
    assert digests[0] == digests[1]


def test_explicit_scan_independent_of_blas_threads():
    # The explicit tables' complex product, (100, 500) @ (500, 100) per block, gave other
    # bits under 2 BLAS threads as one product; its sum is taken in one-thread chunks too.
    digests = _digests_under_blas_threads(_EXPLICIT_SCAN_DIGEST)
    assert digests[0] == digests[1]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 1500),
    log_h=st.floats(-5.0, 0.0),
    count=st.integers(1, 30_000),
    origin=st.floats(-1e6, 1e6),
    k0=st.integers(-10**6, 10**6),
    stride=st.sampled_from([16, 257, RESYNC_STRIDE]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_kernel_forms_agree_within_error_bound(n, log_h, count, origin, k0, stride, seed):
    # The Taylor factor (forced wherever r > K + 1) against the explicit tables: both compute
    # the same anchor rows, so they agree within both error bounds without the anchor phase.
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    h = 10.0**log_h
    count = min(count, 3 * stride)
    rank = dirichlet._taylor_rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet, "RESYNC_STRIDE", stride)
        mp.setattr(dirichlet, "_taylor_rank", lambda h, max_log, _: rank(h, max_log, 10**9))
        factored = _scan(coeffs, logs, origin, k0, count, h)
        mp.setattr(dirichlet, "_taylor_rank", lambda h, max_log, n_terms: None)
        explicit = _scan(coeffs, logs, origin, k0, count, h)
        tol = 2.0 * _error_bound(coeffs, logs, h, 0.0)
    assert factored.shape == explicit.shape == (count,)
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
    """Blocks of the given sizes as _grid_blocks yields them from the explicit tables: |R| as
    complex values with a phase, (cols, rows) in grid order as the transposed view of a
    (rows, cols) array.  The padding past each block's size would be the highest peak if it
    were read."""
    bounds = np.cumsum([0, *sizes])
    assert bounds[-1] == r_mag.size
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        size = int(b - a)
        rows = math.isqrt(size - 1) + 1
        cols = -(-size // rows)
        vals = np.full(rows * cols, 1e300, dtype=np.complex128)
        vals[:size] = r_mag[a:b] * np.exp(0.3j)
        blocks.append((int(a), size, np.ascontiguousarray(vals.reshape(cols, rows).T).T))
    return blocks


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
        got = _guided_candidates(_grid_blocks(coeffs, logs, lo, 0, count, step),
                                 float(logs.max()), lo, step, top_k)
        assert np.array_equal(got, want)
    assert want.size > 100  # one peak per period 2*pi / log 61 ~ 1.5
    assert np.all(np.diff(np.abs(lo + step * want[:50])) >= 0)  # in the band


def _kernel_scan_case(shape, count, frac, seed):
    """(coeffs, logs, lo, h) of a small R and its scan, in one of five shapes of |R|."""
    rng = np.random.default_rng(seed)
    if shape in ("falling", "rising"):
        # |R| = |1 + e^{it}| = 2|cos(t/2)|, strictly monotone on the scan: no interior maximum.
        coeffs, logs = np.ones(2, dtype=np.complex128), np.array([0.0, 1.0])
        h = 10.0 ** (-3.0 + 1.6 * frac)  # the scan spans at most 47 h < 2
        return coeffs, logs, 0.3 if shape == "falling" else -0.3 - (count - 1) * h, h
    n = {"random": int(rng.integers(2, 9)), "one term": 1, "flat": int(rng.integers(1, 5))}[shape]
    coeffs = rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    if shape == "flat":
        # log n = 0 for every term: every point sums the same products, so ties abound.
        return coeffs, np.zeros(n), float(rng.uniform(-50.0, 50.0)), 10.0 ** (-2.0 + frac)
    # One term: |R| = |c| up to rounding, so plateaus and ties of adjacent floats abound.
    logs = np.log(np.arange(2, n + 2, dtype=np.float64)) * rng.uniform(0.5, 3.0)
    h = 10.0 ** (-3.0 + 1.5 * frac) / logs.max()  # h*L <= 0.032: the forced factor runs
    return coeffs, logs, float(rng.uniform(-50.0, 50.0)), h


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["random", "one term", "flat", "falling", "rising"]),
    explicit=st.booleans(),
    count=st.integers(1, 48),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    top_k=st.sampled_from([1, 5, 100]),
)
def test_guided_candidates_on_kernel_blocks_match_full_array_selection(
    shape, explicit, count, frac, seed, top_k
):
    # The finder reads the kernel's native blocks (1 to 3 of 16 points, the last one short)
    # and selects what the full-array selection selects from the concatenated |R|.
    coeffs, logs, lo, h = _kernel_scan_case(shape, count, frac, seed)
    max_log = float(logs.max())
    rank = dirichlet._taylor_rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet, "RESYNC_STRIDE", 16)
        if explicit:
            mp.setattr(dirichlet, "_taylor_rank", lambda h, max_log, n_terms: None)
        else:
            mp.setattr(dirichlet, "_taylor_rank", lambda h, max_log, _: rank(h, max_log, 10**9))
        # With every log n = 0 only the explicit tables run.
        assert (dirichlet._taylor_rank(h, max_log, logs.size) is None) == (
            explicit or shape == "flat"
        )
        r_mag = np.abs(np.concatenate([v for _, v in _grid_values(coeffs, logs, lo, 0, count, h)]))
        got = _guided_candidates(_grid_blocks(coeffs, logs, lo, 0, count, h), max_log, lo, h, top_k)
    want = _full_array_candidates(r_mag, max_log, lo, h, top_k)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if shape in ("falling", "rising"):
        assert want.tolist() == [0 if shape == "falling" else count - 1]


def test_guided_search_memory_bounded():
    # 6.2e6 coarse points: the whole |R| array alone would take 50 MB.
    res = build_resonator(4.85e8)
    tracemalloc.start()
    try:
        resonance_guided_search(res, steinhaus_sample(2), 500, 1e4, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_guided_scan_batches_its_one_slice_as_one_group(monkeypatch):
    # At the benchmark's guided config R has 2 terms, so the explicit scan of 6 214 609
    # points has one slice and no held block sums: one group of 622 anchor blocks, 621 full
    # ones in batches of 6 and a short last block of its own shape, 105 batches.  Groups of
    # 201 blocks would cut the runs at 201, 402 and 603 blocks: 106 batches.
    anchor_batches = dirichlet._anchor_batches
    calls = []

    def recorded(first, end, count, *rest):
        batches = anchor_batches(first, end, count, *rest)
        calls.append((first, end, count, len(batches)))
        return batches

    monkeypatch.setattr(dirichlet, "_anchor_batches", recorded)
    res = build_resonator(4.85e8)
    resonance_guided_search(res, steinhaus_sample(2), 500, 1e4, None)
    assert calls == [(0, 6_214_609, 6_214_609, 105)]


def test_grid_sup_trace(tmp_path):
    path = os.path.join(tmp_path, "trace.csv")
    f, n, eps, stride = steinhaus_sample(4), 40, 0.05, 997
    window = (900.0, 960.0)
    result = grid_sup(f, n, 1e3, eps, window=window, trace_path=path, trace_stride=stride)
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
        assert abs_dn == pytest.approx(abs(eval_DN(f, n, t)), rel=1e-9)


def test_grid_sup_explicit_batches_pinned_to_the_bit():
    # At N = 16 the explicit tables run, and the kernel yields batches of 6 full blocks as
    # one block of 6e4 points: 221 808 points are 4 batches and a short block.  grid_sup's
    # reused buffers take the largest block; t_star, value and the refinement count are
    # those of the scan block by block.
    f, n, t_bound, eps = steinhaus_sample(8), 16, 1000.0, 0.05
    step = 2.0 * eps / derivative_bound(n)
    assert dirichlet._taylor_rank(step, math.log(n), n) is None
    assert dirichlet._blocks_per_batch(100, 100, n) == 6
    assert 2 * t_bound / step > 3 * 6 * RESYNC_STRIDE
    result = grid_sup(f, n, t_bound, eps)
    assert (result.t_star, result.value, result.refinement_iterations) == (
        -432.0827220230687, 3.6308233448531424, 27
    )


def test_grid_sup_validation():
    one = constant_one()
    with pytest.raises(ValueError):
        grid_sup(one, 0, 10.0, 0.1)
    with pytest.raises(ValueError):
        grid_sup(one, 4, -1.0, 0.1)
    with pytest.raises(ValueError):
        grid_sup(one, 4, 10.0, 0.0)
    with pytest.raises(ValueError):
        grid_sup(one, 4, 10.0, 0.1, window=(2.0, 1.0))
    with pytest.raises(ResourceLimitError):
        grid_sup(one, 100, 1e6, 1e-6, eval_budget=1000)


def test_grid_sup_refuses_eps_within_float_error():
    # eps <= rho, the kernel's error bound at max(|lo|, |hi|), is refused; just above it the
    # scan runs.  rho at h = 0 is below the bound at the scan's step by about 1e-14 relative.
    f, n, window = steinhaus_sample(6), 500, (6e10, 6e10 + 1.0)
    rho = dirichlet._grid_error_bound(math.sqrt(n), math.log(n), n, window[1], 0.0)
    assert 5e-3 < rho < 6e-3
    with pytest.raises(ValueError, match="float error bound"):
        grid_sup(f, n, 1e11, rho, window=window)
    result = grid_sup(f, n, 1e11, rho * (1 + 1e-9), window=window)
    assert result.certified_slack <= rho * (1 + 1e-9)
    # The default eps = 1e-3 sqrt(N) clears rho at the benchmark's T = 500^4.
    t_bound = 500.0**4
    for n in (500, 5000):
        grid_sup(f, n, t_bound, None, window=(t_bound - 0.01, t_bound))


def test_grid_sup_memory_bounded_at_large_n():
    # The kernel's tables are sliced by terms: unsliced 100 x N tables
    # would need about 1 GB here.
    n = 200_000
    h = 2e-3 / math.log(n)
    tracemalloc.start()
    try:
        grid_sup(constant_one(), n, 1e4, None, window=(1000.0, 1000.0 + 1000 * h))
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
        grid_sup(constant_one(), 25, 100.0, eps, **kwargs)
    for res in (RES20, degenerate_resonator(3.0)):
        with pytest.raises(ValueError):
            resonance_guided_search(res, constant_one(), 25, 100.0, eps, **kwargs)


def test_guided_search_constant_one():
    result = resonance_guided_search(RES20, constant_one(), 25, 20.0, None)
    assert abs(result.t_star) <= 1e-6
    assert result.value == pytest.approx(5.0, rel=1e-9)
    assert result.certified_slack is None


@pytest.mark.parametrize(
    "f, n, t_bound, eps, t_star, value",
    [
        # README's `search --guided --n 25 --t 20 --x 4.85e8 --eps 0.2`: one block.
        (constant_one(), 25, 20.0, 0.2, -1.2328129298286758e-08, 5.000000000000002),
        # 24 567 coarse points: two full blocks and a partial third.
        (steinhaus_sample(3), 60, 60.0, None, -0.8108768215969929, 2.2050885840059404),
        # 124 293 coarse points: 12 full blocks in batches of 6 and 6, then a short block.
        (steinhaus_sample(3), 500, 200.0, None, -0.8109934669689506, 1.6224262129600089),
    ],
)
def test_guided_search_pinned_to_the_bit(f, n, t_bound, eps, t_star, value):
    # The peaks of |R| set the refined neighbourhoods, so t_star and value pin the kernel's
    # |R| bits and the finder's candidates as well as the refinement.
    result = resonance_guided_search(build_resonator(4.85e8), f, n, t_bound, eps)
    assert (result.t_star, result.value) == (t_star, value)


def test_guided_search_empty_support_degenerates():
    res = degenerate_resonator(3.0)
    result = resonance_guided_search(res, constant_one(), 16, 10.0, 0.05)
    assert result.t_star == 0.0
    assert result.value == pytest.approx(4.0, rel=1e-12)
    # Degenerate path is a plain grid search, so the certificate survives.
    assert result.certified_slack is not None


def test_guided_never_beats_certified_grid():
    for seed in (0, 1, 2):
        f = steinhaus_sample(seed)
        grid = grid_sup(f, 120, 50.0, 0.5)
        guided = resonance_guided_search(RES20, f, 120, 50.0, None)
        assert guided.value <= grid.value + grid.certified_slack + 1e-9


def test_derivative_bound():
    assert derivative_bound(1) == 0.0
    assert derivative_bound(100) == pytest.approx(10.0 * math.log(100.0), rel=1e-14)
