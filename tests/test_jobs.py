"""`verify` runs its suites as jobs spread over forked workers, on a space
large enough to repay the fork; the run in one process is the oracle for
every report and every failure."""

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from radmul import cli
from radmul.cli import _run_jobs, main
from radmul.config import ConfigError, parse_config, preset_config
from radmul.report import VerificationReport

from conftest import geo_dih_config, noncommuting_config


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cores(monkeypatch, n):
    """Make ``n`` cores look usable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def no_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")
    monkeypatch.setattr(os, "fork", fork)


def fork_any_size(monkeypatch):
    """Let ``verify`` fork on a space of any size, however small."""
    monkeypatch.setattr(cli, "FORK_MIN_SIZE", 0)


def counted_forks(monkeypatch):
    """The list that gets an item at each ``os.fork`` call."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def report_bytes(tmp_path, config, *flags):
    path = tmp_path / "report.json"
    assert main(["verify", "--config", config, "--report", str(path)] + list(flags)) == 0
    return path.read_bytes()


def geo_dih():
    """``conftest.geo_dih_config`` at the benchmark's Hankel size, 1200."""
    data = geo_dih_config()
    data["truncation"]["hankel_dim"] = 1200
    return data


CONFIGS = ([(name, preset_config(name), 0) for name in ("dih", "mat2", "cy3")]
           + [("cy3-L5", preset_config("cy3"), seed) for seed in (1, 2, 3, 4)]
           + [("geo-dih", geo_dih(), seed) for seed in (1, 2, 3, 4)]
           + [("noncommuting(3)", noncommuting_config(3), 0)])


@pytest.mark.parametrize("data, seed", [c[1:] for c in CONFIGS],
                         ids=["%s-seed%d" % (c[0], c[2]) for c in CONFIGS])
def test_workers_give_the_one_process_report(tmp_path, monkeypatch, data, seed):
    config = write_config(tmp_path, data)
    with monkeypatch.context() as m:
        cores(m, 1)
        no_fork(m)
        oracle = report_bytes(tmp_path, config, "--seed", str(seed))
    cores(monkeypatch, 3)
    fork_any_size(monkeypatch)
    forks = counted_forks(monkeypatch)
    assert report_bytes(tmp_path, config, "--seed", str(seed)) == oracle
    assert len(forks) == 2


def test_more_workers_than_cores_run_each_job_once(tmp_path, monkeypatch):
    config = write_config(tmp_path, preset_config("cy3"))
    with monkeypatch.context() as m:
        cores(m, 1)
        oracle = report_bytes(tmp_path, config)
    names = [c["name"] for c in json.loads(oracle)["checks"]]
    assert len(names) == len(set(names)) == 42
    cores(monkeypatch, 16)  # one worker per job after the first: 7 on 8 jobs
    fork_any_size(monkeypatch)
    forks = counted_forks(monkeypatch)
    for _ in range(3):
        assert report_bytes(tmp_path, config) == oracle
    assert len(forks) == 3 * 7


def test_failed_fork_leaves_the_jobs_to_the_others(tmp_path, monkeypatch):
    config = write_config(tmp_path, preset_config("dih"))
    with monkeypatch.context() as m:
        cores(m, 1)
        oracle = report_bytes(tmp_path, config)
    cores(monkeypatch, 4)
    fork_any_size(monkeypatch)
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            raise OSError(11, "Resource temporarily unavailable")
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    assert report_bytes(tmp_path, config) == oracle
    assert len(forks) == 2


@pytest.mark.parametrize("n_cores, first_failing, calls", [(4, 3, 3), (1, 1, 0), (2, 1, 1),
                                                           (4, 1, 1)],
                         ids=["third-of-4-cores", "every-1-core", "every-2-cores",
                              "every-4-cores"])
def test_failed_pipe_leaves_the_jobs_to_the_others(tmp_path, monkeypatch, n_cores,
                                                   first_failing, calls):
    config = write_config(tmp_path, preset_config("dih"))
    with monkeypatch.context() as m:
        cores(m, 1)
        oracle = report_bytes(tmp_path, config)
    cores(monkeypatch, n_cores)
    fork_any_size(monkeypatch)
    real_pipe, pipes = os.pipe, []

    def pipe():
        # the first worker's pipe, the second's, then (or from the first call
        # on) no more descriptors; one core needs no pipe at all
        pipes.append(1)
        if len(pipes) >= first_failing:
            raise OSError(24, "Too many open files")
        return real_pipe()
    monkeypatch.setattr(os, "pipe", pipe)
    assert report_bytes(tmp_path, config) == oracle
    assert len(pipes) == calls


@pytest.mark.parametrize("n_cores", [2, 3, 4, 8])
def test_caller_runs_job_0_and_worker_w_runs_share_w(monkeypatch, n_cores):
    cores(monkeypatch, n_cores)
    real_fork, workers = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            workers.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    ran_in = _run_jobs([("job%d" % i, os.getpid) for i in range(8)], True)
    n = n_cores - 1
    assert len(workers) == n
    assert ran_in == {"job%d" % i: workers[(i - 1) % n] if i else os.getpid() for i in range(8)}


# the jobs of --suite all in list order, the longest first (the calling
# process keeps the first); --suite operators selects operators and embedding
TAKEN = ("cases", "theorem", "bound", "embedding", "operators", "fock", "spanning", "pp")


@pytest.mark.parametrize("suite", cli.SUITES)
def test_jobs_are_handed_over_largest_first(monkeypatch, suite):
    handed = []

    def run_jobs(jobs, fork):
        handed.extend(name for name, _ in jobs)
        return {name: VerificationReport() for name, _ in jobs}
    monkeypatch.setattr(cli, "_run_jobs", run_jobs)
    cli._run_suites(parse_config(preset_config("dih")), suite)
    selected = {"all": TAKEN, "operators": ("operators", "embedding")}.get(suite, (suite,))
    assert handed == [name for name in TAKEN if name in selected]


@pytest.mark.parametrize("argv", [["verify", "--suite", "bound"], ["verify", "--suite", "pp"],
                                  ["bound"]])
def test_one_job_never_forks(tmp_path, monkeypatch, argv, capsys):
    cores(monkeypatch, 8)
    fork_any_size(monkeypatch)
    no_fork(monkeypatch)
    assert main(argv + ["--config", write_config(tmp_path, preset_config("dih"))]) == 0


@pytest.mark.parametrize("readable", [True, False])
def test_one_usable_core_never_forks(tmp_path, monkeypatch, readable):
    if readable:
        cores(monkeypatch, 1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
    fork_any_size(monkeypatch)
    no_fork(monkeypatch)
    report_bytes(tmp_path, write_config(tmp_path, preset_config("mat2")))


@pytest.mark.parametrize("data", [preset_config("cy3"), geo_dih()], ids=["cy3-L5", "geo-dih"])
def test_small_space_never_forks(tmp_path, monkeypatch, data):
    # the benchmark sizes (22 and 500 scalar entries) run in one process
    cores(monkeypatch, 3)
    no_fork(monkeypatch)
    report_bytes(tmp_path, write_config(tmp_path, data))


def test_space_at_the_size_constant_forks(tmp_path, monkeypatch):
    config = write_config(tmp_path, preset_config("dih"))
    space = parse_config(preset_config("dih")).space()
    size = len(space.letters) * space.dim
    cores(monkeypatch, 3)
    forks = counted_forks(monkeypatch)
    for constant, workers in ((size + 1, 0), (size, 2)):
        monkeypatch.setattr(cli, "FORK_MIN_SIZE", constant)
        forks.clear()
        report_bytes(tmp_path, config)
        assert len(forks) == workers


@pytest.mark.parametrize("fock_len, fork", [(7, False), (8, True)])
def test_size_constant_sits_in_the_measured_crossover(monkeypatch, fock_len, fork):
    # cy3 at fock_len 7 (2036 entries) sits in the band where the winner
    # turned on whether the second core was free, and at fock_len 8 (4084
    # entries) the fork won in every run (FORK_MIN_SIZE's comment)
    asked = []
    monkeypatch.setattr(cli, "_run_jobs", lambda jobs, flag: asked.append(flag) or {})
    data = preset_config("cy3")
    data["truncation"]["fock_len"] = fock_len
    cli._run_suites(parse_config(data), "all")
    assert asked == [fork]


def test_rng_is_loaded_and_heap_frozen_before_the_fork():
    # in a fresh interpreter, where nothing has frozen the heap or loaded
    # numpy.random yet: the command line loads the RNG at import, and the
    # forked worker runs its job with the inherited heap frozen
    code = ("import gc, os, sys\n"
            "import radmul.cli\n"
            "print('numpy.random' in sys.modules, gc.get_freeze_count())\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "caller = os.getpid()\n"
            "out = radmul.cli._run_jobs([('caller', os.getpid),\n"
            "                            ('worker', lambda: (os.getpid(), gc.get_freeze_count()))],\n"
            "                           True)\n"
            "pid, frozen = out['worker']\n"
            "print(out['caller'] == caller != pid, frozen > 0)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert run.stdout.split() == ["True", "0", "True", "True"]


# ------------------------------------------------------------ failures

def worker_jobs(second):
    """Two jobs, the second run in a worker for sure when there is one: the
    first, in the calling process, waits until the second has started."""
    parent = os.getpid()
    ready, started = os.pipe()

    def first():
        waited = 30.0 if len(os.sched_getaffinity(0)) > 1 else 0.0
        select.select([ready], [], [], waited)
        return "first done"

    def run_second():
        if os.getpid() != parent:
            os.write(started, b"!")
        return second()
    return [("first", first), ("second", run_second)], (ready, started)


def run_both(monkeypatch, n_cores, second):
    """The exception _run_jobs raises with ``n_cores`` usable cores."""
    cores(monkeypatch, n_cores)
    jobs, fds = worker_jobs(second)
    try:
        with pytest.raises(Exception) as info:
            _run_jobs(jobs, True)
    finally:
        for fd in fds:
            os.close(fd)
    return info.value


def boom(exc):
    def job(*args, **kwargs):
        raise exc
    return job


@pytest.mark.parametrize("exc", [ValueError("bad value"), ConfigError("bad config"),
                                 FileNotFoundError(2, "no such file", "x.json"),
                                 ZeroDivisionError("division by zero")])
def test_worker_exception_is_the_one_process_exception(monkeypatch, exc):
    oracle = run_both(monkeypatch, 1, boom(exc))
    raised = run_both(monkeypatch, 2, boom(exc))
    assert type(raised) is type(oracle) is type(exc)
    assert raised.args == oracle.args
    assert str(raised) == str(oracle)
    assert "raised in a worker process" in str(raised.__cause__)
    assert oracle.__cause__ is None


def test_worker_that_dies_names_its_job(monkeypatch):
    def die():
        os._exit(3)
    cores(monkeypatch, 2)
    jobs, fds = worker_jobs(die)
    try:
        with pytest.raises(ChildProcessError, match="'second'.*exit code 3"):
            _run_jobs(jobs, True)
    finally:
        for fd in fds:
            os.close(fd)


def test_first_failing_job_in_order_is_raised(monkeypatch):
    ran = []

    def job(name, fails):
        def run():
            ran.append(name)
            if fails:
                raise ValueError(name)
            return name
        return name, run
    cores(monkeypatch, 1)
    jobs = [job("a", False), job("b", True), job("c", True)]
    with pytest.raises(ValueError, match="^b$"):
        _run_jobs(jobs, True)
    assert ran == ["a", "b"]  # a process whose job fails runs no further job
    assert _run_jobs([job("a", False), job("c", False)], True) == {"a": "a", "c": "c"}


def test_no_job_runs_after_a_worker_failed(monkeypatch):
    # the third job, in the failed worker's share, would write to a pipe
    # made before the fork; the caller's job reads it until the worker ends
    cores(monkeypatch, 2)
    r, w = os.pipe()
    reads = []

    def first():
        os.close(w)  # the worker now holds the only write end
        while select.select([r], [], [], 30.0)[0]:
            reads.append(os.read(r, 1))
            if not reads[-1]:  # end of file: the worker has ended
                break
    jobs = [("first", first), ("second", boom(ValueError("second failed"))),
            ("third", lambda: os.write(w, b"!"))]
    try:
        with pytest.raises(ValueError, match="second failed"):
            _run_jobs(jobs, True)
    finally:
        os.close(r)
    assert reads == [b""]


def test_failure_waits_for_no_later_job(monkeypatch):
    # job 1, in the worker, would block for 20 s; job 0's failure is final
    cores(monkeypatch, 2)
    r, w = os.pipe()
    start = time.monotonic()
    try:
        with pytest.raises(ValueError, match="^first failed$"):
            _run_jobs([("first", boom(ValueError("first failed"))),
                       ("second", lambda: select.select([r], [], [], 20.0))], True)
    finally:
        os.close(r)
        os.close(w)
    assert time.monotonic() - start < 5.0


def test_worker_that_dies_exits_2(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, preset_config("dih"))
    parent = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != parent  # only ever in a worker
        os._exit(3)
    monkeypatch.setattr(cli, "main_theorem_suite", die)
    cores(monkeypatch, 2)  # the caller runs cases, the worker everything else
    fork_any_size(monkeypatch)
    assert main(["verify", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "'theorem'" in err and "exit code 3" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("exc, code", [(ConfigError("no such suite input"), 2),
                                       (OSError(5, "disk went away"), 2),
                                       (MemoryError(), 2)])
def test_suite_error_exit_code_matches_one_process(tmp_path, monkeypatch, capsys, exc, code):
    config = write_config(tmp_path, preset_config("dih"))
    monkeypatch.setattr(cli, "lemma_suite", boom(exc))
    fork_any_size(monkeypatch)
    outputs = []
    for n in (1, 3):
        cores(monkeypatch, n)
        assert main(["verify", "--config", config]) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert str(exc) in outputs[0].err
    assert "Traceback" not in outputs[0].err and outputs[0].err.count("\n") == 1


def test_suite_exception_matches_one_process(tmp_path, monkeypatch):
    config = write_config(tmp_path, preset_config("dih"))
    monkeypatch.setattr(cli, "spanning_check", boom(ArithmeticError("spanning broke")))
    fork_any_size(monkeypatch)
    for n in (1, 3):
        cores(monkeypatch, n)
        with pytest.raises(ArithmeticError, match="^spanning broke$"):
            main(["verify", "--config", config])
