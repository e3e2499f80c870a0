"""Ring runs of the Z_n array system: two arcs of the sites, one stepped by a forked helper, byte for byte one block.

The tests force two arcs by patching ``flow.ARC_MIN_SITES`` and
``flow.ARC_BREAK_EVEN`` to 0 (as ``test_both_zn_forms_blow_up_alike``
patches the scalar crossover) and compare each ring run with the same
run in one block, the break-even patched out of reach.  After every ring run no child process is left.
"""

import contextlib
import functools
import math
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ncgflow import connection, flow, transport
from ncgflow.flow import BlowupError, integrate

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
    reason="a ring forks its helpers on a second CPU")

ONE_BLOCK = 10**30  # a break-even that no run reaches


@pytest.fixture
def rings(monkeypatch):
    """The sites of each ring run that starts; two arcs from two sites on."""
    started = []
    real = flow._rk4_ring

    def counting(y, *args):  # y is the state as three rows of two floats per site
        started.append(y.shape[1] // 2)
        return real(y, *args)

    monkeypatch.setattr(flow, "_rk4_ring", counting)
    monkeypatch.setattr(flow, "ARC_MIN_SITES", 0)
    monkeypatch.setattr(flow, "ARC_BREAK_EVEN", 0)
    if not flow._two_arcs(4, 1):
        pytest.skip("two arcs need Linux on x86-64")
    return started


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _run(y0, monkeypatch, break_even, calls=None, **kwargs):
    """The trajectory of an rk4 run of the Z_n array system from y0 at the given break-even.

    The time of each call of the run's f is appended to ``calls``.
    """
    monkeypatch.setattr(flow, "ARC_BREAK_EVEN", break_even)
    system = connection._zn_arrays(y0.shape[0] // 6)
    calls = [] if calls is None else calls

    def f(t, y):
        calls.append(t)
        return system.rhs(t, y)

    return integrate(f, y0, kwargs.pop("t_end", 0.04), system=system, **{"h": 1e-3, "stride": 3, **kwargs})


def _admissible(n, seed=5):
    rng = np.random.default_rng(seed)
    k_plus = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    return transport.pack_zn_state(k_plus, -np.conj(np.roll(k_plus, -1)), m / np.linalg.norm(m))


def _arbitrary(n, seed=6):
    rng = np.random.default_rng(seed)
    return transport.pack_zn_state(*(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))))


def _special(n):
    """Arbitrary data with signed zeros, subnormal, tiny and larger entries at the sites next to each arc edge."""
    kp, km, m = _arbitrary(n, 7).view(np.complex128).reshape(3, n).copy()
    edges = sorted({0, n // 2 - 1, n // 2, n - 1})
    for i, (a, b, c) in zip(edges, [(-0.0, 0.0, 5e-324), (20.0, -1e-300, -0.0), (-5e-324, 1e-310, 0.0),
                                    (0.0, -0.0, -1e-305)]):
        kp[i], km[i], m[i] = complex(a, -0.0), complex(b, a), complex(c, -5e-324)
    return transport.pack_zn_state(kp, km, m)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 333])  # at 2 and 3 an arc of one site fills both pads from one
@pytest.mark.parametrize("data", [_admissible, _arbitrary, _special])
def test_a_ring_run_is_byte_for_byte_one_block(n, data, rings, monkeypatch):
    y0 = data(n)
    for stride in (1, 3, 7):
        one = _run(y0, monkeypatch, ONE_BLOCK, stride=stride)
        two = _run(y0, monkeypatch, 0, stride=stride)
        assert two.states.tobytes() == one.states.tobytes() and two.times.tobytes() == one.times.tobytes()
    assert rings == [n] * 3 and _no_child_left()


@pytest.mark.parametrize("n", [18, 64])
def test_a_ring_blows_up_as_one_block(n, rings, monkeypatch):
    """K_- = K_+ is not admissible and grows past MAX_ABS: the ring is redone in one block, whose error it raises."""
    rng = np.random.default_rng(7)
    kp, m = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    y0 = transport.pack_zn_state(kp, kp, m)
    seen = []
    for break_even in (ONE_BLOCK, 0):
        with pytest.raises(BlowupError) as info:
            _run(y0, monkeypatch, break_even, t_end=10.0, h=0.01, stride=5)
        seen.append((str(info.value), info.value.last_good_time))
    assert seen[0] == seen[1] and seen[0][0].startswith("state magnitude exceeded 1e+09 (last good time t=")
    assert rings == [n] and _no_child_left()


@pytest.mark.parametrize("arc, last_good", [(slice(0, 32), 5.0), (slice(32, 64), 3.45)])
def test_a_blow_up_in_one_arc_alone_is_redone_in_one_block(arc, last_good, rings, monkeypatch):
    """K_- = K_+ on the parent's arc or on the helper's alone: the arc whose check fails gives the run to one block."""
    kp, km, m = _admissible(64).view(np.complex128).reshape(3, 64).copy()
    km[arc] = kp[arc]
    y0 = transport.pack_zn_state(kp, km, m)
    seen, calls = [], []
    for break_even in (ONE_BLOCK, 0):
        with pytest.raises(BlowupError) as info:
            _run(y0, monkeypatch, break_even, calls, t_end=40.0, h=0.01, stride=5)
        seen.append((str(info.value), info.value.last_good_time))
    assert seen == [(f"state magnitude exceeded 1e+09 (last good time t={last_good:g})", last_good)] * 2
    assert rings == [64] and calls == [0.0, 0.0] and _no_child_left()  # one block; the ring, then one block


def test_a_floating_point_event_redoes_the_ring_in_one_block(rings, monkeypatch):
    """Tiny data and huge steps: a stage of the third step overflows inside the arcs, and the state turns non-finite.

    The arc's state check raises ``BlowupError``, and the run redone in one
    block raises one block's error.  ``integrate`` reports no
    floating-point event, so neither run warns.
    """
    n = 64
    y0 = transport.pack_zn_state(*(2e-40 * np.exp(1j * np.random.default_rng(3).uniform(0.0, 6.3, (3, n)))))
    seen, calls = [], []
    for break_even in (ONE_BLOCK, 0):
        with warnings.catch_warnings(record=True) as caught, pytest.raises(BlowupError) as info:
            warnings.simplefilter("always")
            _run(y0, monkeypatch, break_even, calls, t_end=30e40, h=1e40, stride=1)
        seen.append((str(info.value), info.value.last_good_time, [str(w.message) for w in caught]))
    assert seen[0] == seen[1] and seen[0][::2] == ("non-finite state encountered (last good time t=2e+40)", [])
    assert rings == [64] and calls == [0.0, 0.0] and _no_child_left()  # one block; the ring, then one block


def _failing_fork():
    raise OSError("fork failed")


@pytest.mark.parametrize("case", ["one block", "two arcs", "failed fork", "blow-up on an arc"])
def test_every_array_rk4_run_calls_f_once(case, rings, monkeypatch):
    """f gives the first stage and nothing more: in one block, on two arcs and in a ring redone in one block.

    A failed fork is a ``_Redo``; K_- = K_+ on the helper's arc alone
    makes that arc raise ``BlowupError``.  Either way the block that
    redoes the run starts from the ring's first stage.
    """
    kp, km, m = _admissible(64).view(np.complex128).reshape(3, 64).copy()
    if case == "blow-up on an arc":
        km[32:] = kp[32:]
    if case == "failed fork":
        monkeypatch.setattr(os, "fork", _failing_fork)
    calls = []
    with pytest.raises(BlowupError) if case == "blow-up on an arc" else contextlib.nullcontext():
        _run(transport.pack_zn_state(kp, km, m), monkeypatch, ONE_BLOCK if case == "one block" else 0, calls,
             t_end=5.0, h=0.01, stride=5)
    assert calls == [0.0] and rings == ([] if case == "one block" else [64]) and _no_child_left()


def _barrier_that(act, monkeypatch, after=None):
    """Patch ``flow._barrier`` so that ``act(me, calls)`` runs before each barrier of each arc, ``after`` after it."""
    real = flow._barrier

    def barrier_of(control, me, alive):
        barrier, calls = real(control, me, alive), 0

        def acting():
            nonlocal calls
            calls += 1
            act(me, calls)
            barrier()
            if after:
                after(me, calls)

        return acting

    monkeypatch.setattr(flow, "_barrier", barrier_of)


@pytest.mark.parametrize("stride, barriers", [(1, 179), (3, 165), (7, 161)])
def test_each_arc_passes_two_barriers_per_stage_and_one_per_sampled_row(stride, barriers, rings, monkeypatch):
    """20 steps: 8 n - 2 barriers in the stages (f gives the first) and n // stride + 1 in the samples, on each arc."""
    y0 = _arbitrary(64)
    one = _run(y0, monkeypatch, ONE_BLOCK, stride=stride, t_end=0.02)
    parent, (read, write) = [], os.pipe()  # the helper writes one byte per barrier
    _barrier_that(lambda me, calls: os.write(write, b".") if me else parent.append(calls), monkeypatch)
    try:
        assert _run(y0, monkeypatch, 0, stride=stride, t_end=0.02).states.tobytes() == one.states.tobytes()
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as pipe:
        helper = len(pipe.read())
    assert (len(parent), helper) == (barriers, barriers) and barriers == 8 * 20 - 2 + 20 // stride + 1
    assert rings == [64] and _no_child_left()


def test_a_neighbour_that_reads_its_pads_late_reads_the_same_sites(rings, monkeypatch):
    """The helper copies its pads 2 ms after each barrier: the other arc writes no buffer that it reads meanwhile."""
    y0 = _special(64)
    one = _run(y0, monkeypatch, ONE_BLOCK, stride=1, t_end=0.005)
    _barrier_that(lambda me, calls: None, monkeypatch, after=lambda me, calls: me == 1 and time.sleep(0.002))
    assert _run(y0, monkeypatch, 0, stride=1, t_end=0.005).states.tobytes() == one.states.tobytes()
    assert rings == [64] and _no_child_left()


def test_a_helper_that_exits_mid_run_leaves_the_run_to_one_block(rings, monkeypatch):
    y0 = _arbitrary(64)
    one, f_calls = _run(y0, monkeypatch, ONE_BLOCK, stride=1), []

    def exit_helper(me, calls):
        if me == 1 and calls == 5:
            os._exit(9)

    _barrier_that(exit_helper, monkeypatch)
    assert _run(y0, monkeypatch, 0, f_calls, stride=1).states.tobytes() == one.states.tobytes()
    assert rings == [64] and f_calls == [0.0] and _no_child_left()  # the ring, then one block


def test_a_killed_helper_leaves_the_run_to_one_block(rings, monkeypatch):
    y0 = _arbitrary(64)
    one = _run(y0, monkeypatch, ONE_BLOCK, stride=2)
    helpers, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            helpers.append(pid)
        return pid

    def kill_helper(me, calls):  # at the first barrier, before any wait could give the run to one block
        if me == 0 and calls == 1:
            os.kill(helpers[0], signal.SIGKILL)

    monkeypatch.setattr(os, "fork", recording_fork)
    _barrier_that(kill_helper, monkeypatch)
    assert _run(y0, monkeypatch, 0, stride=2).states.tobytes() == one.states.tobytes()
    assert rings == [64] and len(helpers) == 1 and _no_child_left()


def test_a_ring_that_waits_more_than_it_steps_is_redone_in_one_block(rings, monkeypatch):
    """A helper that is slow at every barrier, as a descheduled one is: the parent gives the run to one block."""
    y0, f_calls = _arbitrary(64), []
    one = _run(y0, monkeypatch, ONE_BLOCK, t_end=0.5)
    _barrier_that(lambda me, calls: me == 1 and time.sleep(0.005), monkeypatch)
    started = time.perf_counter()
    assert _run(y0, monkeypatch, 0, f_calls, t_end=0.5).states.tobytes() == one.states.tobytes()
    assert time.perf_counter() - started < 500 * 9 * 0.005 / 10  # a tenth of the 500 steps' slow barriers
    assert rings == [64] and f_calls == [0.0] and _no_child_left()  # the ring, then one block


def test_an_exception_in_the_parent_stops_the_helper(rings, monkeypatch):
    class Stop(Exception):
        pass

    def stop_parent(me, calls):  # at the first barrier, before any wait could give the run to one block
        if me == 0 and calls == 1:
            raise Stop

    _barrier_that(stop_parent, monkeypatch)
    with pytest.raises(Stop):
        _run(_arbitrary(64), monkeypatch, 0)
    assert rings == [64] and _no_child_left()


def test_a_ring_completes_where_sigchld_is_ignored(rings, monkeypatch):
    """The kernel reaps the helper itself, so a wait finds no child: the run still ends as one block's."""
    y0 = _arbitrary(64)
    one = _run(y0, monkeypatch, ONE_BLOCK)
    _barrier_that(lambda me, calls: me == 1 and calls == 40 and time.sleep(0.3), monkeypatch)  # a waiting parent
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _run(y0, monkeypatch, 0).states.tobytes() == one.states.tobytes()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert rings == [64] and _no_child_left()


def test_a_run_pinned_to_one_cpu_completes(rings, monkeypatch):
    """One usable CPU: the selection keeps one block, and a ring forced there yields the CPU at its barriers."""
    y0, cpus = _arbitrary(64), os.sched_getaffinity(0)
    one = _run(y0, monkeypatch, ONE_BLOCK)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        monkeypatch.setattr(flow, "ARC_BREAK_EVEN", 0)
        assert not flow._two_arcs(64, 10**6)
        assert _run(y0, monkeypatch, 0).states.tobytes() == one.states.tobytes()
        assert rings == []
        monkeypatch.setattr(flow, "_two_arcs", lambda sites, n_steps: True)
        assert _run(y0, monkeypatch, 0).states.tobytes() == one.states.tobytes()
        assert rings == [64]
    finally:
        os.sched_setaffinity(0, cpus)
    assert _no_child_left()


def test_a_sweep_worker_keeps_one_arc():
    """A plain pool worker, with no initializer, keeps one arc: it is a multiprocessing child."""
    probe = functools.partial(flow._two_arcs, 4096, 2000)  # zn-large's Z_4096 run
    if not probe():
        pytest.skip("two arcs need Linux on x86-64")
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(probe).result() is False
    assert probe() is True


def test_the_selection_reads_the_sites_and_the_site_steps(monkeypatch):
    if not flow._two_arcs(4096, 10**30):
        pytest.skip("two arcs need Linux on x86-64")
    cases = [(4096, 999), (4096, 1000), (2048, 2000), (2047, 10**9), (8192, 500), (64, 10**9)]
    monkeypatch.setattr(flow, "ARC_BREAK_EVEN", 4096 * 1000)
    assert [flow._two_arcs(*args) for args in cases] == [False, True, True, False, True, False]
    monkeypatch.setattr(flow, "ARC_MIN_SITES", 0)
    assert [flow._two_arcs(*args) for args in [(1, 10**9), (2, 4096 * 500)]] == [False, True]  # an arc holds a site
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(10,))
    waiting.start()
    try:
        assert not flow._two_arcs(4096, 1000)  # a fork copies only the calling thread
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive() and flow._two_arcs(4096, 1000)


_UFUNCS = ("add", "subtract", "multiply", "absolute", "dot")


@pytest.mark.parametrize("n", [64, 4096])
def test_a_one_block_run_makes_one_blocks_ufunc_calls(n, monkeypatch):
    """13 ufunc calls per stage (4 add, 3 subtract, 6 multiply), 13 per step's combination (7 add, 6 multiply)
    and one absolute per step's check, with no dot, which may start BLAS threads; Z_64 at its workload's steps
    and Z_4096 below the break-even fork nothing."""
    counts, y0 = dict.fromkeys(_UFUNCS, 0), _admissible(n)

    def counting(name):
        real = getattr(np, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in _UFUNCS:
        monkeypatch.setattr(np, name, counting(name))
    monkeypatch.setattr(os, "fork", None)  # a ring would fail to fork
    connection._zn_rates_of.cache_clear()  # emitted again, with the counting ufuncs bound
    try:
        steps = 10000 if n == 64 else 3
        assert n * steps < flow.ARC_BREAK_EVEN
        system = connection._zn_arrays(n)
        integrate(system.rhs, y0, steps * 1e-3, h=1e-3, stride=100, system=system)
    finally:
        connection._zn_rates_of.cache_clear()
    stages = 4 * steps  # the first from f, which runs the same stage
    assert counts == {"add": 4 * stages + 7 * steps, "subtract": 3 * stages, "multiply": 6 * stages + 6 * steps,
                      "absolute": steps, "dot": 0}
