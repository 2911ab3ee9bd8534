"""char_det's helper processes: every Delta is the one process's bit for
bit, and no helper outlives its caller."""
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import diraclab
import diraclab.ode as ode
from diraclab import (boundary_from_config, build_mesh, char_det,
                      make_potential)

pytestmark = [
    pytest.mark.skipif(os.name != "posix", reason="helpers need POSIX"),
    pytest.mark.skipif((os.cpu_count() or 1) < 2,
                       reason="one CPU starts no helper")]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diraclab.__file__)))
# the three problems of the benchmark's spectrum workload, 128 panels
SPECTRUM = {
    "periodic-constant": ("periodic",
                          {"family": "constant_offdiag", "c": 0.3}),
    "antiperiodic-trig": ("antiperiodic",
                          {"family": "trig", "p2": [["sin", 1, 0.8]],
                           "p3": [["cos", 2, 0.5]]}),
    "dirichlet-power": ("dirichlet_analog",
                        {"family": "power", "alpha": 0.6, "x0": 1.1,
                         "amplitude": 0.5}),
}


def _problem(label, panels=128):
    bname, spec = SPECTRUM[label]
    P = make_potential(spec)
    mesh = build_mesh(panels, order=5, singular_points=P.singular_points)
    return P, boundary_from_config(bname), mesh


def _lams(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-40, 40, n) + 1j * rng.uniform(-3, 3, n)


def _same_bits(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.fixture
def pool(monkeypatch):
    """A pool of its own in place of the process's, closed after the
    test; DIRACLAB_THREADS is unset, so the pool starts one helper per CPU
    beyond the first."""
    monkeypatch.delenv("DIRACLAB_THREADS", raising=False)
    own = ode._HelperPool()
    monkeypatch.setattr(ode, "_HELPERS", own)
    yield own
    own.close()


def _wait_ready(pool, timeout=60.0):
    """The pool's first helper, once ready (started if need be)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        taken = pool.take(1)
        if taken:
            taken[0].release()
            return taken[0]
        time.sleep(0.02)
    raise AssertionError("the helper did not get ready")


def _local_sizes(monkeypatch):
    """Sizes of the parts that _det_part evaluates in this process."""
    sizes = []
    inner = ode._det_part

    def recording(panels, C, D, tree, lams):
        sizes.append(lams.size)
        return inner(panels, C, D, tree, lams)

    monkeypatch.setattr(ode, "_det_part", recording)
    return sizes


def _alone(monkeypatch, *args, **kw):
    """char_det in this process alone (DIRACLAB_THREADS=1)."""
    with monkeypatch.context() as m:
        m.setenv("DIRACLAB_THREADS", "1")
        return char_det(*args, **kw)


@pytest.mark.parametrize("tree", [False, True], ids=["sequential", "tree"])
@pytest.mark.parametrize("label", sorted(SPECTRUM))
def test_helper_gives_the_same_bits(pool, monkeypatch, label, tree):
    # 65 lambdas make one part, 200 and 390 two: the helper takes the
    # second half, which this process then does not evaluate
    P, U, mesh = _problem(label)
    _wait_ready(pool)
    sizes = _local_sizes(monkeypatch)
    for n in (65, 200, 390):
        lams = _lams(n)
        want = _alone(monkeypatch, P, U, lams, mesh, tree=tree)
        del sizes[:]
        assert _same_bits(char_det(P, U, lams, mesh, tree=tree), want)
        assert sizes == [n if n < 2 * ode.DET_CHUNK else n // 2]
    lam = 3.1 + 0.2j
    got = char_det(P, U, lam, mesh, tree=tree)
    assert isinstance(got, complex)
    assert _same_bits(got, _alone(monkeypatch, P, U, lam, mesh, tree=tree))
    assert pool.started == 1 and pool.helpers[0].alive


def test_busy_helper_is_not_shared(pool, monkeypatch):
    # three threads at once on two CPUs, switching often: while one holds
    # the helper, the others compute their batches alone; a reply read by
    # the wrong thread would give it another batch's values
    P, U, mesh = _problem("antiperiodic-trig")
    lams = [_lams(200, seed) for seed in (1, 2, 3)]
    want = [_alone(monkeypatch, P, U, z, mesh) for z in lams]
    _wait_ready(pool)
    got = [[] for _ in lams]
    barrier = threading.Barrier(len(lams))

    def run(i):
        for _ in range(10):
            barrier.wait(timeout=30)
            got[i].append(char_det(P, U, lams[i], mesh))

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(lams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(len(lams)):
        assert len(got[i]) == 10
        assert all(_same_bits(g, want[i]) for g in got[i])
    assert pool.started == 1 and pool.helpers[0].alive


def test_helper_not_ready_is_not_waited_for(pool, monkeypatch):
    # a helper that never says it is ready: the caller computes every part
    # and returns; the helper keeps running until the pool closes it
    monkeypatch.setattr(pool, "command",
                        [sys.executable, "-c",
                         "import sys; sys.stdin.buffer.read()"])
    P, U, mesh = _problem("periodic-constant")
    lams = _lams(390)
    want = _alone(monkeypatch, P, U, lams, mesh)
    sizes = _local_sizes(monkeypatch)
    got = []
    th = threading.Thread(target=lambda: got.append(
        char_det(P, U, lams, mesh)))
    th.start()
    th.join(timeout=60)
    assert not th.is_alive()
    assert _same_bits(got[0], want)
    assert sizes == [390]
    (helper,) = pool.helpers
    assert not helper.ready and helper.proc.poll() is None


def test_killed_helper_is_dropped(pool, monkeypatch):
    # the helper is stopped, sent its part, then killed while this process
    # evaluates its own: its part is computed here, and it is not restarted
    P, U, mesh = _problem("periodic-constant")
    lams = _lams(390)
    want = _alone(monkeypatch, P, U, lams, mesh)
    helper = _wait_ready(pool)
    os.kill(helper.proc.pid, signal.SIGSTOP)
    sizes = []
    inner = ode._det_part

    def killing(panels, C, D, tree, part):
        if helper.proc.returncode is None:
            os.kill(helper.proc.pid, signal.SIGKILL)
        sizes.append(part.size)
        return inner(panels, C, D, tree, part)

    monkeypatch.setattr(ode, "_det_part", killing)
    assert _same_bits(char_det(P, U, lams, mesh), want)
    assert sizes == [195, 195]
    assert not helper.alive and helper.proc.returncode == -signal.SIGKILL
    del sizes[:]
    assert _same_bits(char_det(P, U, lams, mesh), want)
    assert sizes == [390]
    assert pool.helpers == [] and pool.started == 1


def test_one_thread_starts_no_helper(pool, monkeypatch):
    def no_process(*args, **kw):
        raise AssertionError("a process was started")

    monkeypatch.setenv("DIRACLAB_THREADS", "1")
    monkeypatch.setattr(subprocess, "Popen", no_process)
    P, U, mesh = _problem("periodic-constant")
    for tree in (False, True):
        char_det(P, U, _lams(390), mesh, tree=tree)
    assert pool.helpers == [] and pool.started == 0


# a caller that makes its helper ready, prints the helper's pid, then
# either exits normally or sleeps until it is killed
CALLER = """
import sys, time
import numpy as np
from diraclab import boundary_from_config, build_mesh, char_det, ode
from diraclab import make_potential
P = make_potential({"family": "constant_offdiag", "c": 0.3})
U, mesh = boundary_from_config("periodic"), build_mesh(32, order=5)
lams = np.linspace(-40, 40, 200) + 0.5j
end = time.monotonic() + 60
while not (ode._HELPERS.helpers and ode._HELPERS.helpers[0].ready):
    assert time.monotonic() < end, "the helper did not get ready"
    char_det(P, U, lams, mesh)
    time.sleep(0.02)
print(ode._HELPERS.helpers[0].proc.pid, flush=True)
if sys.argv[1] == "sleep":
    time.sleep(120)
"""


def _gone(pid):
    """Whether process pid has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _caller(mode):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DIRACLAB_THREADS", None)
    proc = subprocess.Popen([sys.executable, "-c", CALLER, mode], env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    proc.stdout.close()
    assert line.strip().isdigit(), "the caller printed no helper pid"
    return proc, int(line)


def _gone_within(pid, seconds):
    end = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > end:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_helper_dies_with_a_killed_caller():
    proc, pid = _caller("sleep")
    assert not _gone(pid)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    assert _gone_within(pid, 5.0)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_no_helper_survives_a_normal_exit():
    proc, pid = _caller("exit")
    assert proc.wait(timeout=60) == 0
    assert _gone_within(pid, 5.0)


def test_caller_that_raises_kills_the_helper_it_owes(pool, monkeypatch):
    # the helper's reply is never read, so no later call may read it in
    # place of its own
    P, U, mesh = _problem("periodic-constant")
    lams, later = _lams(390), _lams(390, seed=1)
    want = _alone(monkeypatch, P, U, later, mesh)
    helper = _wait_ready(pool)

    def failing(*args):
        raise RuntimeError("local part failed")

    with monkeypatch.context() as m:
        m.setattr(ode, "_det_part", failing)
        with pytest.raises(RuntimeError, match="local part failed"):
            char_det(P, U, lams, mesh)
    assert not helper.alive and pool.take(1) == []
    assert _same_bits(char_det(P, U, later, mesh), want)
