"""Tests for ``pipeline.fan_out``, the process fan-out that the lgcp and
evaluate stages run their independent units through, and that runs the
evaluate stage beside factorize and efficiency.  Each case runs as if
the process's affinity mask held three CPUs, and each checks afterwards that
no child process is left."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shotfactor.cli import main
from shotfactor.pipeline import fan_out

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI with three usable CPUs, whatever the machine has.
THREE_CPU_MAIN = (
    "import os, sys\n"
    "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
    "from shotfactor.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.fixture(autouse=True)
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_items", [0, 1, 2, 7])
def test_results_come_back_in_item_order(n_items):
    items = [3 * x + 1 for x in range(n_items)]
    assert fan_out(lambda x: (x, x * x), items) == [(x, x * x) for x in items]


def test_items_are_shared_strided_over_the_cpus():
    """This process computes items 0, 3, 6; each worker one stride."""
    pids = fan_out(lambda x: os.getpid(), list(range(7)))
    assert pids[0] == pids[3] == pids[6] == os.getpid()
    assert pids[1] == pids[4] and pids[2] == pids[5]
    assert len({pids[0], pids[1], pids[2]}) == 3


def test_worker_exception_reaches_the_caller():
    parent = os.getpid()

    def fn(x):
        if x == 5:  # the second item of worker 2's share
            assert os.getpid() != parent
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="^bad item 5$"):
        fan_out(fn, list(range(7)))


class PairError(Exception):
    """An exception whose ``__init__`` takes other arguments than its args."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")
        self.what = what


def test_exception_that_does_not_unpickle_keeps_its_type_and_message():
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise PairError("item", x)
        return x

    with pytest.raises(PairError, match="^item: 1$") as raised:
        fan_out(fn, list(range(7)))
    assert raised.value.what == "item"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_os_error_keeps_its_file_name(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError, match="missing.csv'$"):
        fan_out(lambda x: x if x != 1 else open(missing), list(range(3)))


def test_unpicklable_result_fails_with_the_pickling_error():
    """A result that cannot cross the pipe fails with what pickling it
    raised, not with the worker's exit status."""
    with pytest.raises(Exception, match="pickle") as raised:
        fan_out(lambda x: (lambda: x) if x == 1 else x, list(range(3)))
    assert not isinstance(raised.value, RuntimeError)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_that_exits_without_replying_names_its_status():
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="status 3"):
        fan_out(fn, list(range(7)))


def test_own_share_failing_kills_and_reaps_the_workers():
    """Workers still busy when this process's share raises are killed, so
    the error arrives at once rather than after the workers' shares."""
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyError(x)

    start = time.monotonic()
    with pytest.raises(KeyError):
        fan_out(fn, list(range(7)))
    assert time.monotonic() - start < 10


def _proc_state(pid):
    """(state letter, parent pid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
    except (OSError, ValueError):
        return None
    return state, int(ppid)


def _children(pid):
    pids = [int(e) for e in os.listdir("/proc") if e.isdigit()]
    return [p for p in pids if (_proc_state(p) or ("", 0))[1] == pid]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_workers_die_with_a_killed_pipeline(tmp_path):
    """SIGKILL of a pipeline during a long lgcp stage takes its workers
    with it: none is left running."""
    config = tmp_path / "config.txt"
    config.write_text(
        "tile_x = 5.0\ntile_y = 5.0\nn_players = 4\nk_star = 2\n"
        "budget_min = 60\nbudget_max = 80\nmin_attempts = 10\n"
        f"lgcp_burn_in = 1000000\nshots = {tmp_path / 'data' / 'shots.csv'}\n"
    )
    data = str(tmp_path / "data")
    assert main(["synth", "--config", str(config), "--out", data]) == 0
    argv = ["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]
    proc = subprocess.Popen(
        [sys.executable, "-c", THREE_CPU_MAIN, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers, alive = [], []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == 2, "the lgcp stage forked no workers"
        proc.kill()
        proc.wait(timeout=10)
        deadline, alive = time.monotonic() + 5, workers
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            # a zombie has died: whoever adopted it has not reaped it yet
            alive = [w for w in workers if (_proc_state(w) or ("Z",))[0] != "Z"]
        assert not alive, f"workers {alive} outlived the pipeline"
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in alive:
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_side_stage_workers_die_with_a_killed_pipeline(tmp_path):
    """SIGKILL of a pipeline while evaluate runs beside factorize takes the
    evaluate worker and the workers of its own fan-out with it."""
    config = tmp_path / "config.txt"
    config.write_text(
        "tile_x = 5.0\ntile_y = 5.0\nn_players = 4\nk_star = 2\n"
        "budget_min = 60\nbudget_max = 80\nmin_attempts = 10\nk = 2\n"
        "k_list = [1, 2]\nlgcp_burn_in = 10\nlgcp_samples = 10\n"
        "nmf_iters = 100000000\nnmf_tol = 0\n"
        f"shots = {tmp_path / 'data' / 'shots.csv'}\n"
    )
    data = str(tmp_path / "data")
    assert main(["synth", "--config", str(config), "--out", data]) == 0
    argv = ["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]
    proc = subprocess.Popen(
        [sys.executable, "-c", THREE_CPU_MAIN, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers, alive = [], []
    try:
        deadline = time.monotonic() + 60
        while not workers and time.monotonic() < deadline:
            time.sleep(0.05)
            # the evaluate worker is the one child that has children itself
            for side in _children(proc.pid):
                if nested := _children(side):
                    workers = [side, *nested]
        assert len(workers) == 3, "evaluate did not fan out beside factorize"
        proc.kill()
        proc.wait(timeout=10)
        deadline, alive = time.monotonic() + 5, workers
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [w for w in workers if (_proc_state(w) or ("Z",))[0] != "Z"]
        assert not alive, f"workers {alive} outlived the pipeline"
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
