"""`verify` runs its suites as jobs spread over forked workers; the run in
one process is the oracle for every report and every failure."""

import json
import os
import select
import time

import pytest

from radmul import cli
from radmul.cli import _run_jobs, main
from radmul.config import ConfigError, parse_config, preset_config
from radmul.report import VerificationReport

from conftest import noncommuting_config


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


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def report_bytes(tmp_path, config, *flags):
    path = tmp_path / "report.json"
    assert main(["verify", "--config", config, "--report", str(path)] + list(flags)) == 0
    return path.read_bytes()


def geo_dih():
    data = preset_config("dih")
    data["symbol"] = {"head": [1.0], "tail": {"kind": "geometric", "coefficient": 1.0,
                                              "ratio": 0.97, "limit": 0}}
    data["truncation"] = {"fock_len": 5, "hankel_dim": 1200}
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
    assert report_bytes(tmp_path, config, "--seed", str(seed)) == oracle


def test_more_workers_than_cores_run_each_job_once(tmp_path, monkeypatch):
    config = write_config(tmp_path, preset_config("cy3"))
    with monkeypatch.context() as m:
        cores(m, 1)
        oracle = report_bytes(tmp_path, config)
    names = [c["name"] for c in json.loads(oracle)["checks"]]
    assert len(names) == len(set(names)) == 42
    cores(monkeypatch, 16)  # one worker per job after the first: 7 on 8 jobs
    for _ in range(3):
        assert report_bytes(tmp_path, config) == oracle


def test_failed_fork_leaves_the_jobs_to_the_others(tmp_path, monkeypatch):
    config = write_config(tmp_path, preset_config("dih"))
    with monkeypatch.context() as m:
        cores(m, 1)
        oracle = report_bytes(tmp_path, config)
    cores(monkeypatch, 4)
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
    ran_in = _run_jobs([("job%d" % i, os.getpid) for i in range(8)])
    n = n_cores - 1
    assert len(workers) == n
    assert ran_in == {"job%d" % i: workers[(i - 1) % n] if i else os.getpid() for i in range(8)}


# the jobs of --suite all in list order: bound first, which the
# calling process keeps (a tracer in it sees the same jobs on every run), then
# the others largest first; --suite operators selects operators and embedding
TAKEN = ("bound", "theorem", "cases", "operators", "embedding", "fock", "pp", "spanning")


@pytest.mark.parametrize("suite", cli.SUITES)
def test_jobs_are_handed_over_bound_first_then_largest_first(monkeypatch, suite):
    handed = []

    def run_jobs(jobs):
        handed.extend(name for name, _ in jobs)
        return {name: VerificationReport() for name, _ in jobs}
    monkeypatch.setattr(cli, "_run_jobs", run_jobs)
    cli._run_suites(parse_config(preset_config("dih")), suite)
    selected = {"all": TAKEN, "operators": ("operators", "embedding")}.get(suite, (suite,))
    assert handed == [name for name in TAKEN if name in selected]


@pytest.mark.parametrize("argv", [["verify", "--suite", "bound"], ["verify", "--suite", "pp"],
                                  ["bound", "--samples", "3"]])
def test_one_job_never_forks(tmp_path, monkeypatch, argv, capsys):
    cores(monkeypatch, 8)
    no_fork(monkeypatch)
    assert main(argv + ["--config", write_config(tmp_path, preset_config("dih"))]) == 0


@pytest.mark.parametrize("readable", [True, False])
def test_one_usable_core_never_forks(tmp_path, monkeypatch, readable):
    if readable:
        cores(monkeypatch, 1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
    no_fork(monkeypatch)
    report_bytes(tmp_path, write_config(tmp_path, preset_config("mat2")))


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
            _run_jobs(jobs)
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
            _run_jobs(jobs)
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
        _run_jobs(jobs)
    assert ran == ["a", "b"]  # a process whose job fails runs no further job
    assert _run_jobs([job("a", False), job("c", False)]) == {"a": "a", "c": "c"}


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
            _run_jobs(jobs)
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
                       ("second", lambda: select.select([r], [], [], 20.0))])
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
    monkeypatch.setattr(cli, "lemma_suite", die)
    cores(monkeypatch, 2)  # the caller runs bound, the worker everything else
    assert main(["verify", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "'cases'" in err and "exit code 3" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("exc, code", [(ConfigError("no such suite input"), 2),
                                       (OSError(5, "disk went away"), 2),
                                       (MemoryError(), 2)])
def test_suite_error_exit_code_matches_one_process(tmp_path, monkeypatch, capsys, exc, code):
    config = write_config(tmp_path, preset_config("dih"))
    monkeypatch.setattr(cli, "lemma_suite", boom(exc))
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
    for n in (1, 3):
        cores(monkeypatch, n)
        with pytest.raises(ArithmeticError, match="^spanning broke$"):
            main(["verify", "--config", config])
