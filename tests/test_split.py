"""The process split behind `count` and `sequence --jobs`: its arithmetic,
its plan, and the processes it starts and reaps."""

import os
import select
import signal
import subprocess
import sys

import pytest

from conftest import partition_count
from magma_census import census, cli, split

# (argv, why): each is run at --jobs 1, 2 and 3 and must print the same bytes.
_SPLIT_CASES = [
    (("count", "--n", "0", "--k", "2"), "n = 0, never split"),
    (("count", "--n", "1", "--k", "3", "--format", "json"), "n = 1, never split"),
    (("count", "--n", "25", "--k", "2"), "k = 2, p(25) = 1,958 leaves, under the bound"),
    (("count", "--n", "26", "--k", "2", "--format", "json"), "k = 2, p(26) = 2,436, split"),
    (("count", "--n", "20", "--k", "3"), "k = 3 under the bound"),
    (("count", "--n", "22", "--k", "3"), "k = 3, split for its result size"),
    (("count", "--n", "14", "--k", "4"), "k = 4, 135 leaves, split for its result size"),
    (("sequence", "--k", "2", "--from", "0", "--to", "1"), "n = 0 and 1 only"),
    (("sequence", "--k", "2", "--from", "0", "--to", "28", "--format", "bfile"),
     "light terms, then split ones"),
    (("sequence", "--k", "2", "--from", "25", "--to", "27", "--format", "json"),
     "JSON across the bound"),
    (("sequence", "--vary", "k", "--n", "8", "--from", "0", "--to", "6", "--format", "bfile"),
     "--vary k: only k = 6 is split"),
]


@pytest.mark.parametrize("argv", [a for a, _ in _SPLIT_CASES], ids=" ".join)
def test_split_prints_the_same_bytes_at_every_jobs(argv):
    outputs = []
    for jobs in ("1", "2", "3"):
        r = subprocess.run([sys.executable, "-m", "magma_census", *argv, "--jobs", jobs],
                           capture_output=True, text=True)
        assert r.returncode == 0, (jobs, r.stderr)
        assert r.stderr == "", jobs
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_the_cases_fall_on_both_sides_of_the_bound():
    # The cases above mean what their notes say only while the plan does.
    heavy = {}
    for argv, _ in _SPLIT_CASES:
        flags = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "count":
            shapes = [(int(flags["--n"]), int(flags["--k"]))]
        else:
            fixed = int(flags.get("--k", flags.get("--n")))
            lo, hi = int(flags["--from"]), int(flags["--to"])
            shapes = list(census._shapes(fixed, lo, hi, flags.get("--vary", "n")))
        plan = split._Plan(2)
        heavy[argv] = [shape for shape in shapes if plan.deal(*shape) is not None]
    assert [bool(heavy[a]) for a, _ in _SPLIT_CASES] == [
        False, False, False, True, False, True, True, False, True, True, True]
    assert heavy[_SPLIT_CASES[8][0]] == [(26, 2), (27, 2), (28, 2)]
    assert heavy[_SPLIT_CASES[10][0]] == [(8, 6)]


def test_leaf_table_counts_partitions():
    plan = split._Plan(2)
    assert plan.leaves(0, 0) == 1
    for n in range(1, 41):
        assert plan.leaves(n, 0) == partition_count(n)
        # The root edges (r, c) cover every leaf once.
        assert sum(plan.leaves(n - r * c, r)
                   for r in range(1, n + 1) for c in range(1, n // r + 1)) == partition_count(n)


def test_deal_covers_each_root_edge_once_and_balances():
    plan = split._Plan(3)
    plan.loads[0] = 500.0
    shares = plan.deal(30, 2)
    assert shares is not None
    assert not (shares[0] & shares[1] or shares[0] & shares[2] or shares[1] & shares[2])
    costs = {(r, c): plan.leaves(30 - r * c, r)
             for r in range(1, 31) for c in range(1, 30 // r + 1)}
    assert set().union(*shares) == {edge for edge, cost in costs.items() if cost}
    # Longest first onto the least loaded worker: no worker ends more than
    # the largest edge above another.
    assert max(plan.loads) - min(plan.loads) <= max(costs.values()) * split._leaf_work(30, 2)


def _split_counts(monkeypatch, workers, fixed, lo, hi, vary="n"):
    monkeypatch.setattr(split, "_usable_cpus", lambda: workers)
    return [r.count for r in split.sequence(fixed, lo, hi, vary=vary, jobs=workers)]


@pytest.mark.parametrize("workers", [2, 3])
def test_split_counts_match_the_serial_walk(monkeypatch, workers):
    expected = [r.count for r in census.sequence(2, 24, 27)]
    assert _split_counts(monkeypatch, workers, 2, 24, 27) == expected
    expected = [r.count for r in census.sequence(8, 5, 6, vary="k")]
    assert _split_counts(monkeypatch, workers, 8, 5, 6, vary="k") == expected


@pytest.mark.parametrize("fault", ["dropped", "repeated"])
def test_weight_sum_check_catches_a_wrong_split(monkeypatch, fault):
    # One root edge of the child's share is left out, or summed by the
    # parent as well; the children follow the same faulty plan.
    deal = split._Plan.deal

    def faulty(plan, n, k):
        shares = deal(plan, n, k)
        if shares is not None:
            edge = min(shares[1])
            if fault == "dropped":
                shares[1].discard(edge)
            else:
                shares[0].add(edge)
        return shares

    monkeypatch.setattr(split._Plan, "deal", faulty)
    with pytest.raises(ArithmeticError, match="weights"):
        _split_counts(monkeypatch, 2, 2, 26, 26)


def test_no_term_heavy_enough_means_no_fork(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(split, "_usable_cpus", lambda: 4)
    for argv in (("count", "--n", "25", "--k", "2"),
                 ("sequence", "--k", "2", "--from", "0", "--to", "25"),
                 ("sequence", "--vary", "k", "--n", "8", "--from", "0", "--to", "5"),
                 ("count", "--n", "30", "--k", "2", "--variant", "harrison-gcd")):
        assert cli.entry_point([*argv, "--jobs", "4"]) == 0


def test_jobs_is_capped_at_the_usable_cpus(monkeypatch):
    # Counted by a stand-in for os.fork: no process starts. Each stand-in
    # child is a pid that never writes, so the parent finds its pipe closed
    # and must still kill and reap every one of them.
    forks, killed, reaped = [], [], []

    def fork():
        forks.append(10**9 + len(forks))
        return forks[-1]

    monkeypatch.setattr(split, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
    monkeypatch.setattr(os, "waitpid", lambda pid, options: reaped.append(pid) or (pid, 0))
    with pytest.raises(ChildProcessError, match="worker 1"):
        cli.entry_point(["count", "--n", "30", "--k", "2", "--jobs", "64"])
    assert len(forks) == 3
    assert killed == reaped == forks


# Runs the CLI with os.fork wrapped and two usable CPUs: the parent writes
# each child's pid to stderr, and with FAULT set the child's walk raises.
# At FAULT=slow the child also sleeps before it prints its traceback.
_FORK_REPORTER = """
import os, sys, time, traceback
from magma_census import census, cli, split

split._usable_cpus = lambda: 2
real_fork = os.fork

def fork():
    pid = real_fork()
    if pid:
        # One write, so that under PYTHONUNBUFFERED the line cannot be cut
        # by a child's traceback.
        sys.stderr.write(f"child {pid}\\n")
        sys.stderr.flush()
    elif os.environ.get("FAULT"):
        def broken(*args):
            raise RuntimeError("injected fault")
        census._root_sums = broken
        if os.environ["FAULT"] == "slow":
            print_exc = traceback.print_exc
            traceback.print_exc = lambda: time.sleep(0.3) or print_exc()
    return pid

os.fork = fork
sys.exit(cli.entry_point(sys.argv[1:]))
"""


def _children(stderr):
    return [int(line.split()[1]) for line in stderr.splitlines() if line.startswith("child ")]


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_a_failed_child_ends_the_command_with_a_traceback():
    _assert_the_child_traceback_is_printed(dict(os.environ, FAULT="1"))


def test_a_slow_child_traceback_is_printed_before_the_parent_reads_its_end():
    # The child's pipe stays open until it exits, so the parent cannot read
    # end of file, and kill the child, while the traceback is on its way.
    _assert_the_child_traceback_is_printed(dict(os.environ, FAULT="slow"))


def _assert_the_child_traceback_is_printed(env):
    r = subprocess.run(
        [sys.executable, "-c", _FORK_REPORTER, "sequence", "--k", "2", "--from", "24",
         "--to", "28", "--jobs", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode not in (0, 2, 3), r.stderr
    assert "RuntimeError: injected fault" in r.stderr
    assert "ChildProcessError" in r.stderr
    # The terms before the first split one were printed.
    assert r.stdout == "".join(f"{c.count}\n" for c in census.sequence(2, 24, 25))
    children = _children(r.stderr)
    assert len(children) == 1
    assert all(_gone(pid) for pid in children)


def test_closed_stdout_kills_and_reaps_the_children():
    # `sequence ... --jobs 2 | head -1`: the child has minutes of work left
    # on the large terms when the reader leaves, so only a kill ends it in
    # time.
    p = subprocess.Popen(
        [sys.executable, "-c", _FORK_REPORTER, "sequence", "--k", "2", "--from", "0",
         "--to", "60", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([p.stdout], [], [], 60)
        assert ready
        assert p.stdout.readline() == "1\n"
        p.stdout.close()
        status = p.wait(timeout=60)
        stderr = p.stderr.read()
    finally:
        p.kill()
        p.wait(timeout=30)
        p.stderr.close()
    assert status == 141 == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in stderr
    children = _children(stderr)
    assert len(children) == 1
    assert all(_gone(pid) for pid in children)


def test_sigterm_to_the_parent_kills_and_reaps_the_children():
    # `kill PID` reaches the parent alone, and the child has minutes of work
    # left on the large terms, so it must be the parent that ends it.
    p = subprocess.Popen(
        [sys.executable, "-c", _FORK_REPORTER, "sequence", "--k", "2", "--from", "0",
         "--to", "60", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([p.stdout], [], [], 60)
        assert ready
        assert p.stdout.readline() == "1\n"
        p.terminate()
        status = p.wait(timeout=60)
        stderr = p.stderr.read()
    finally:
        p.kill()
        p.wait(timeout=30)
        p.stdout.close()
        p.stderr.close()
    assert status == 128 + signal.SIGTERM
    assert "Traceback" not in stderr
    children = _children(stderr)
    assert len(children) == 1
    assert all(_gone(pid) for pid in children)
