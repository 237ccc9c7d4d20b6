"""The process split behind `count` and `sequence` at --jobs above 1.

The census walk's root edges (r, c) head independent subtrees, each
returning a partial sum and a partial weight sum (census._root_sums). This
module deals the root edges of every term heavy enough to pay for a fork
over up to --jobs processes, this one and children made with one bare
os.fork when the iteration starts. Each worker sums the subtrees below
its own edges with the serial walk, and a child sends its (sum, weight
sum) through a pipe, in hex, one line per heavy term. No pool, no
thread, and no import of concurrent.futures or multiprocessing: this
module is loaded only by a command given --jobs above 1, so a serial run
compiles and imports nothing of it.

A term's cost is estimated from its input: the leaves of its walk, p(n),
each scaled by the size of the result (about n^k log2 n bits), in units
of a k = 2 leaf. A term below SPLIT_WORK is counted whole by the parent.
A heavier one has its root edges dealt longest first to the least loaded
worker, an edge's cost being the leaves below it: the partitions of what
it leaves of n into parts > r, read off a small table (_Plan). The
parent adds the partial sums and runs census's weights check before the
one division, so a root edge dropped or dealt to two workers raises, as
a missed cycle type does.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Iterator

from . import census

# The least estimated work (in k = 2 leaves, see _Plan) that pays for
# splitting a term's walk. Measured as one `count --jobs 2` process against
# `--jobs 1`, 20 alternating runs each (2 vCPUs, CPython 3.11), terms under
# the bound split by lowering it in a copy: the split broke even at (26,2)
# (work 2,459), (20,3) (1,325), (13,4) (1,152) and (9,5) (1,009), and won
# at (29,2), (36,2), (22,3) (3,106), (14,4) (2,825) and (16,4).
SPLIT_WORK = 2_000
# The result has about n^k log2 n bits. Per leaf, the powers and products
# cost about 1 + (bits / 2^15)^2 k = 2 leaves. Against in-process timings
# of whole walks from (12,3) to (7,8) that factor reads from 4.4x low (at
# (5,6), far under the bound) to 2.6x high (at (10,6), far over it); near
# the bound, 1.2x to 2x low, so a term there splits a little later than it
# could. At k = 2 (n <= 50) it stays under 1.2.
_BITS_SCALE_LOG2 = 15


def _leaf_work(n: int, k: int) -> float:
    """Estimated work per leaf of the walk at (n, k), in k = 2 leaves."""
    if n < 2:
        return 1.0
    bits_log2 = k * math.log2(n) + math.log2(math.log2(n))
    return 1.0 + 4.0 ** min(bits_log2 - _BITS_SCALE_LOG2, 64)


class _Plan:
    """How a split sequence deals its terms over workers 0..J - 1, worker
    0 being the parent: one step per term, in order, the same in every
    process, so each can follow it alone. The loads carry over from term
    to term, the parent's light terms counted.
    """

    def __init__(self, workers: int):
        self.loads = [0.0] * workers
        # above[m][r], r < m, counts the partitions of m into parts > r;
        # rows are added as larger n come up.
        self.above = [[]]

    def leaves(self, m: int, r: int) -> int:
        """Partitions of m into parts > r; p(m) at r = 0."""
        above = self.above
        while len(above) <= m:
            # A partition of size into parts > low has no part low + 1 (its
            # parts are > low + 1), or it has one, and the rest, of
            # size - low - 1, has parts > low.
            size = len(above)
            row = [0] * (size + 1)
            for low in range(size - 1, -1, -1):
                rest = size - low - 1
                row[low] = row[low + 1] + (
                    1 if rest == 0 else above[rest][low] if low < rest else 0
                )
            above.append(row[:size])
        if m == 0:
            return 1
        return above[m][r] if r < m else 0

    def work(self, n: int, k: int) -> float:
        """The estimated work of the term (n, k), in k = 2 leaves."""
        return self.leaves(n, 0) * _leaf_work(n, k)

    def deal(self, n: int, k: int) -> list[set] | None:
        """The next term's root edges, one set per worker, or None when
        the term is too light to split and the parent counts it whole."""
        loads = self.loads
        work = self.work(n, k)
        if work < SPLIT_WORK:
            loads[0] += work
            return None
        scale = _leaf_work(n, k)
        edges = sorted(
            ((self.leaves(n - r * c, r), r, c)
             for r in range(1, n + 1) for c in range(1, n // r + 1)),
            reverse=True,
        )
        shares = [set() for _ in loads]
        for cost, r, c in edges:
            if not cost:
                break
            worker = loads.index(min(loads))
            loads[worker] += cost * scale
            shares[worker].add((r, c))
        return shares


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sequence(
    fixed: int, lo: int, hi: int, variant: str = census.VARIANT_CORRECT, vary: str = "n",
    *, jobs: int,
) -> Iterator[census.CensusResult]:
    """census.sequence(fixed, lo, hi, variant, vary): the same results in
    the same order, with the heavier terms' walks split over J = min(jobs,
    usable CPUs) workers.

    Each result is yielded as soon as every part of it is in, and the
    light terms are counted whole here while the children start on the
    heavy ones. When nothing would fork (J < 2, the gcd variant, which has
    no walk, no os.fork, or no term reaching SPLIT_WORK) this returns
    census.sequence itself. A child that fails ends the iteration with
    ChildProcessError. The children are reaped when the iterator ends or
    is closed, and killed first if results are still unread. While they
    live, a SIGTERM (left at its default action by the caller) raises
    SystemExit(143) here, so it ends them too. The range is checked at
    the call.
    """
    shapes = census._shapes(fixed, lo, hi, vary)
    workers = min(jobs, _usable_cpus()) if hasattr(os, "fork") else 1
    plan = _Plan(workers)
    # The scan stops at the first heavy term, so the leaf table it builds
    # goes no further than that term's n.
    if (workers < 2 or variant != census.VARIANT_CORRECT
            or not any(plan.work(n, k) >= SPLIT_WORK for n, k in shapes)):
        return census.sequence(fixed, lo, hi, variant, vary)
    return _split_counts(census._shapes(fixed, lo, hi, vary), plan)


def _split_counts(shapes, plan: _Plan) -> Iterator[census.CensusResult]:
    import gc
    import signal

    # Anything still buffered would be written twice, once by each process.
    sys.stdout.flush()
    # While the children live, a collection in any process would write to
    # every object it tracks, copying each shared page.
    gc.freeze()
    # A SIGTERM (kill, a supervisor, a cancelled job) would end this process
    # before any finally ran and leave the children at work. While they
    # live it raises SystemExit instead, so they are killed and reaped as on
    # any other error.
    on_term = signal.getsignal(signal.SIGTERM)
    if on_term == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _terminate)
    parent, pids, readers = os.getpid(), [], []
    try:
        for worker in range(1, len(plan.loads)):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(shapes, plan, worker, write_end, readers, parent)
            finally:
                os.close(write_end)
            pids.append(pid)
        for n, k in shapes:
            shares = plan.deal(n, k)
            if shares is None:
                yield census.count_k_magmas(n, k)
                continue
            total, weights = census._root_sums(n, k, shares[0])
            for worker, reader in enumerate(readers, start=1):
                line = reader.readline()
                if not line:
                    raise ChildProcessError(
                        f"worker {worker} ended without its share of n={n} k={k}"
                    )
                part, weight = line.split()
                total += int(part, 16)
                weights += int(weight, 16)
            yield census._census_result(census.CensusQuery(n, k), total, weights)
    except BaseException:
        # Results are still unread (an error, a closed stdout, Ctrl-C, a
        # SIGTERM, or the caller closing this iterator): stop the children
        # first.
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if on_term == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, on_term)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        for reader in readers:
            reader.close()
        gc.unfreeze()
    if any(statuses):
        raise ChildProcessError(f"worker wait statuses {statuses}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _worker(shapes, plan: _Plan, worker: int, write_end: int, readers: list, parent: int):
    # A child's whole life. It leaves by os._exit, never by returning or
    # raising, so nothing of the parent's (a caller's finally, an atexit
    # hook, a test runner) runs twice. If the parent is gone (a SIGKILL
    # cannot be caught), the child stops at its next term, or at its next
    # write, quietly: no one is left to read it. The write end is never
    # closed here: os._exit closes it, so the parent cannot read end of file,
    # and kill this child, while its traceback is still being printed.
    status = 1
    try:
        import signal

        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for reader in readers:
            reader.close()
        out = open(write_end, "wb")
        for n, k in shapes:
            shares = plan.deal(n, k)
            if shares is not None:
                if os.getppid() != parent:
                    break
                out.write(b"%x %x\n" % census._root_sums(n, k, shares[worker]))
                out.flush()
        status = 0
    except BrokenPipeError:
        pass
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)
