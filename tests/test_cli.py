"""End-to-end runs of the installed command line, checked byte for byte."""

import hashlib
import importlib.util
import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

from magma_census import census, cli, split
from magma_census.census import count_via_cycle_index


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "magma_census", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _default_digit_limit_env():
    # The interpreter's default str() digit limit, whatever the caller's
    # environment says, so a lifted limit cannot hide a conversion defect.
    return {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}


def _unlimited_str(value: int) -> str:
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def test_count_plain():
    r = run_cli("count", "--n", "3", "--k", "2")
    assert r.returncode == 0
    assert r.stdout == "3330\n"
    assert r.stderr == ""


def test_count_harrison():
    r = run_cli("count", "--n", "2", "--k", "3", "--variant", "harrison-gcd")
    assert r.returncode == 0
    assert r.stdout == "130\n"


def test_count_empty_set_nullary():
    r = run_cli("count", "--n", "0", "--k", "0")
    assert r.returncode == 0
    assert r.stdout == "0\n"


def test_count_json():
    r = run_cli("count", "--n", "4", "--k", "2", "--format", "json")
    assert r.returncode == 0
    assert r.stdout == '{"n": 4, "k": 2, "variant": "correct", "count": "178981952"}\n'
    payload = json.loads(r.stdout)
    assert isinstance(payload["count"], str)


def test_count_permutation_method():
    r = run_cli("count", "--n", "3", "--k", "2", "--method", "permutation")
    assert r.returncode == 0
    assert r.stdout == "3330\n"


def test_sequence_bfile():
    r = run_cli("sequence", "--k", "1", "--from", "0", "--to", "6", "--format", "bfile")
    assert r.returncode == 0
    assert r.stdout == "0 1\n1 1\n2 3\n3 7\n4 19\n5 47\n6 130\n"


def test_sequence_plain():
    r = run_cli("sequence", "--k", "2", "--from", "0", "--to", "2")
    assert r.returncode == 0
    assert r.stdout == "1\n1\n10\n"


def test_sequence_nullary():
    r = run_cli("sequence", "--k", "0", "--from", "0", "--to", "4")
    assert r.returncode == 0
    assert r.stdout == "0\n1\n1\n1\n1\n"


def test_sequence_json():
    r = run_cli("sequence", "--k", "2", "--from", "2", "--to", "3", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload == [
        {"n": 2, "k": 2, "variant": "correct", "count": "10"},
        {"n": 3, "k": 2, "variant": "correct", "count": "3330"},
    ]


def test_sequence_vary_k():
    r = run_cli("sequence", "--vary", "k", "--n", "2", "--from", "1", "--to", "5")
    assert r.returncode == 0
    assert r.stdout == "3\n10\n136\n32896\n2147516416\n"


def test_sequence_vary_k_bfile_indexes_by_k():
    r = run_cli(
        "sequence", "--vary", "k", "--n", "2", "--from", "1", "--to", "3",
        "--format", "bfile",
    )
    assert r.returncode == 0
    assert r.stdout == "1 3\n2 10\n3 136\n"


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_sequence_bfile_matches_reference_digests(capsys, monkeypatch):
    # The benchmark's `sequence` runs: k = 2 over its whole n-span and each
    # `--vary k` range, every bfile line against its SHA-256 in
    # perfbench/reference.json (read, never written). In-process, as one
    # interpreter start-up per run would dominate. The workloads module is
    # registered in sys.modules for this test only; its dataclasses look
    # their module up there.
    spec = importlib.util.spec_from_file_location("workloads", _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = json.loads((_PERFBENCH / "reference.json").read_text())["sequence"]
    k = workloads.SEQUENCE_K
    runs = [(["--k", str(k)], workloads.SEQUENCE_SPAN, lambda i: f"n:{i},{k}")]
    runs += [(["--vary", "k", "--n", str(n)], span, lambda i, n=n: f"k:{n},{i}")
             for n, span in sorted(workloads.VARY_K_RANGES.items())]
    checked = 0
    for flags, (lo, hi), key in runs:
        argv = ["sequence", *flags, "--from", str(lo), "--to", str(hi), "--format", "bfile"]
        assert cli.entry_point(argv) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert len(lines) == hi - lo + 1, argv
        for i, line in zip(range(lo, hi + 1), lines):
            assert hashlib.sha256(line.encode()).hexdigest() == reference[key(i)], key(i)
            checked += 1
    assert checked == len(reference) == 56


def test_cycle_index_natural():
    r = run_cli("cycle-index", "--n", "3")
    assert r.returncode == 0
    assert r.stdout == "1/6*t1^3 + 1/2*t1*t2 + 1/3*t3\n"


def test_cycle_index_induced():
    r = run_cli("cycle-index", "--n", "3", "--power", "2")
    assert r.returncode == 0
    assert r.stdout == "1/6*t1^9 + 1/2*t1*t2^4 + 1/3*t3^3\n"


def test_cycle_index_empty():
    r = run_cli("cycle-index", "--n", "0")
    assert r.returncode == 0
    assert r.stdout == "1\n"


def test_cycle_index_json():
    r = run_cli("cycle-index", "--n", "2", "--power", "2", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["terms"][0]["coefficient"] == "1/2"
    assert payload["terms"][0]["origin"] == [2, 0]


# SHA-256 over the stdout of every `cycle-index` run below, in that order.
_CYCLE_INDEX_DIGEST = "62f63cc1f14c886809fcc4db84d611a669dff8c4e5f75c9f0ae36e12852552b8"


def test_cycle_index_stdout_digest(capsys):
    # Every n <= 10, natural and induced to powers 0..3, in both formats;
    # in-process, since 110 interpreter start-ups would dominate the run.
    digest = hashlib.sha256()
    for n in range(0, 11):
        for power in (None, 0, 1, 2, 3):
            for fmt in ("plain", "json"):
                argv = ["cycle-index", "--n", str(n), "--format", fmt]
                if power is not None:
                    argv += ["--power", str(power)]
                assert cli.entry_point(argv) == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _CYCLE_INDEX_DIGEST


def test_verify_burnside_suite():
    r = run_cli("verify", "--suite", "burnside")
    assert r.returncode == 0
    assert r.stdout == "burnside: PASS\n  31 (n, k) pairs under the cap\n"


def test_verify_structural_suite():
    r = run_cli("verify", "--suite", "structural")
    assert r.returncode == 0
    assert r.stdout == "structural: PASS\n  268 (cycle type, k) pairs\n"


def test_verify_times_each_suite_on_stderr():
    # One line of elapsed seconds per suite, in run order, on stderr only;
    # stdout holds the verdicts and notes alone.
    r = run_cli("verify", "--suite", "variant", "--suite", "cross-method")
    assert r.returncode == 0
    assert r.stdout == (
        "variant: PASS\n  first divergence at n=2 k=3: 130 != 136\n"
        "cross-method: PASS\n  49 (n, k, variant) triples, n <= 6\n"
    )
    assert re.fullmatch(r"variant: \d+\.\d{3} s\ncross-method: \d+\.\d{3} s\n", r.stderr)


def test_verify_runs_a_repeated_suite_once():
    # In the order first named; the repeats add no verdict and no timing.
    r = run_cli("verify", "--suite", "variant", "--suite", "structural",
                "--suite", "variant", "--suite", "structural")
    assert r.returncode == 0
    assert r.stdout == (
        "variant: PASS\n  first divergence at n=2 k=3: 130 != 136\n"
        "structural: PASS\n  268 (cycle type, k) pairs\n"
    )
    assert re.fullmatch(r"variant: \d+\.\d{3} s\nstructural: \d+\.\d{3} s\n", r.stderr)


def test_verify_variant_suite():
    r = run_cli("verify", "--suite", "variant")
    assert r.returncode == 0
    assert r.stdout == "variant: PASS\n  first divergence at n=2 k=3: 130 != 136\n"


def test_verify_cycle_index_suite():
    r = run_cli("verify", "--suite", "cycle-index")
    assert r.returncode == 0
    assert r.stdout == (
        "cycle-index: PASS\n"
        "  direct vs recursive Z_n at n <= 25, induced-index bound at n <= 9\n"
    )


@pytest.mark.parametrize("n", [5, 20])
def test_verify_cycle_index_suite_reports_a_perturbed_recursion(monkeypatch, n):
    # One entry of N_n off by one: the integer tables differ at n, and at
    # n <= 9 the whole polynomials too, with one line either way.
    from magma_census import cycle_index

    recursive_counts = cycle_index.recursive_counts

    def perturbed(top):
        tables = recursive_counts(top)
        if top >= n:
            key = next(iter(tables[n]))
            tables[n][key] += 1
        return tables

    monkeypatch.setattr(cycle_index, "recursive_counts", perturbed)
    failures, _ = cli._suite_cycle_index()
    assert failures == [f"n={n}: recursive cycle index differs from direct"]


@pytest.mark.parametrize("suite, route, at, line", [
    ("burnside", "count_k_magmas", lambda n, k: (n, k) == (2, 2),
     "n=2 k=2: bruteforce 10, formula 11"),
    ("structural", "fixed_point_count", lambda j, k: (j.j, k) == ((1, 1, 0), 2),
     "n=3 k=2 j=(1, 1, 0): structural 81, closed form 82"),
    ("cross-method", "count_via_cycle_index",
     lambda n, k, variant: (n, k, variant) == (3, 2, census.VARIANT_CORRECT),
     "n=3 k=2 variant=correct: partition 3330, permutation 3330, cycle-index 3331"),
], ids=["burnside", "structural", "cross-method"])
def test_verify_suites_report_one_route_off_by_one(monkeypatch, suite, route, at, line):
    # In-process: one census route reads one higher at one case, and the
    # suite names that case, every route and its value, once.
    original = getattr(census, route)

    def perturbed(*args):
        value = original(*args)
        if not at(*args):
            return value
        if isinstance(value, int):
            return value + 1
        return value._replace(count=value.count + 1)

    monkeypatch.setattr(census, route, perturbed)
    failures, _ = cli._SUITE_RUNNERS[suite]()
    assert failures == [line]


def test_verify_cross_method_reports_its_coverage():
    # A PASS says what it covered.
    r = run_cli("verify", "--suite", "cross-method")
    assert r.returncode == 0
    assert r.stdout == "cross-method: PASS\n  49 (n, k, variant) triples, n <= 6\n"


_USAGE_ERRORS = [
    ("count", "--n", "-1", "--k", "2"),
    ("count", "--n", "2"),
    ("sequence", "--from", "0", "--to", "3"),
    ("sequence", "--k", "2", "--from", "3", "--to", "1"),
    ("count", "--n", "2", "--k", "2", "--variant", "wrong"),
    ("count", "--n", "2", "--k", "2", "--format", "bfile"),
    ("count", "--n", "2", "--k", "0", "--variant", "harrison-gcd"),
    # The cycle-index route is a library cross-check, not a count method.
    ("count", "--n", "3", "--k", "2", "--method", "cycle-index"),
    ("verify", "--format", "json"),
    ("verify", "--n-max", "-1"),
    ("sequence", "--k", "2", "--from", "0", "--to", "3", "--jobs", "0"),
    ("cycle-index", "--n", "3", "--power", "-1"),
    ("verify", "--suite", "variant", "--jobs", "0"),
]

_ARGUMENT_PROBLEMS = [
    ("count", "--n", "2", "--k", "2", "--jobs", "0"),
    ("count", "--n", "2", "--k", "2", "--max-cells", "0"),
    ("count", "--n", "2", "--k", "2", "--seed", "5"),
    ("sequence", "--k", "2", "--from", "0", "--to", "3", "--max-cells", "9"),
    ("verify", "--suite", "variant", "--max-cells", "0"),
    ("verify", "--suite", "cross-method", "--perm-guard", "-1"),
    ("count", "--n", "0", "--k", "2", "--method", "permutation",
     "--perm-guard", "-1"),
    ("sequence", "--k", "0", "--from", "0", "--to", "3", "--variant", "harrison-gcd"),
    ("sequence", "--vary", "k", "--n", "2", "--from", "0", "--to", "3",
     "--variant", "harrison-gcd"),
    # sequence reads only the coordinate flag --vary does not name.
    ("sequence", "--k", "2", "--n", "7", "--from", "0", "--to", "2"),
    ("sequence", "--vary", "k", "--n", "2", "--k", "9", "--from", "1", "--to", "3"),
    ("count", "--n", "3", "--k", "2", "--perm-guard", "0"),
    # verify runs fixed grids and the permutation guard is a constant; these
    # flags were once read, and with a valid value the run went ahead.
    ("verify", "--suite", "cross-method", "--n-max", "0"),
    ("verify", "--suite", "variant", "--seed", "5"),
    ("count", "--n", "3", "--k", "2", "--method", "permutation", "--perm-guard", "8"),
]


@pytest.mark.parametrize(
    "command",
    [[], ["count"], ["sequence"], ["cycle-index"], ["verify"]],
    ids=lambda command: " ".join(command) or "top-level",
)
def test_help_exits_0_with_the_commands_usage(command, capsys):
    # In-process: the top-level parser and each command print their own
    # usage on stdout and exit 0 before any work.
    with pytest.raises(SystemExit) as e:
        cli.entry_point([*command, "--help"])
    assert e.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: magma-census", *command, ""]))
    assert err == ""


def test_usage_errors_exit_2():
    for args in _USAGE_ERRORS:
        assert run_cli(*args).returncode == 2, args


def test_guard_violations_exit_3():
    r = run_cli("count", "--n", "9", "--k", "2", "--method", "permutation")
    assert r.returncode == 3
    assert r.stdout == ""
    assert "guard" in r.stderr


def test_self_refuting_variant_exit_1():
    r = run_cli("count", "--n", "7", "--k", "3", "--variant", "harrison-gcd")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "non-integral" in r.stderr


def test_jobs_env_is_not_read():
    # Any value, valid as --jobs or not, leaves the run alone.
    for value in ("2", "two", "0"):
        env = dict(os.environ, MAGMA_CENSUS_JOBS=value)
        r = run_cli("count", "--n", "4", "--k", "2", env=env)
        assert r.returncode == 0, value
        assert r.stdout == "178981952\n", value


def test_identical_flags_identical_bytes():
    a = run_cli("sequence", "--k", "2", "--from", "0", "--to", "4")
    b = run_cli("sequence", "--k", "2", "--from", "0", "--to", "4")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_cli_import_starts_no_pool_machinery():
    # Neither importing the CLI, nor running the brute-force oracle, nor a
    # split sequence (one bare os.fork) loads pool machinery, and --jobs
    # changes no byte.
    pools = "('concurrent.futures', 'multiprocessing')"
    code = (
        "import sys, magma_census.cli; "
        f"print(sorted(m for m in {pools} if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
    outputs = []
    for jobs in ("1", "2"):
        code = (
            "import sys\n"
            "from magma_census import cli\n"
            "status = cli.entry_point(['verify', '--suite', 'burnside', "
            f"'--jobs', '{jobs}'])\n"
            f"loaded = sorted(m for m in {pools} if m in sys.modules)\n"
            "print(status, loaded, file=sys.stderr)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert re.fullmatch(r"burnside: \d+\.\d{3} s\n0 \[\]\n", r.stderr), (jobs, r.stderr)
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("burnside: PASS\n")
    code = (
        "import os, sys\n"
        "from magma_census import cli\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "status = cli.entry_point(['sequence', '--k', '2', '--from', '25', '--to', "
        "'27', '--jobs', '2'])\n"
        f"loaded = sorted(m for m in {pools} if m in sys.modules)\n"
        "print(status, len(forks), loaded, file=sys.stderr)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stderr == f"0 {min(2, split._usable_cpus()) - 1} []\n"
    assert r.stdout == "".join(f"{c.count}\n" for c in census.sequence(2, 25, 27))


# What a count or a sequence has no use for; the interpreter's own start-up
# (site hooks, say) may load the standard-library ones before any of ours.
_NOT_FOR_COUNTS = (
    "magma_census.oracle",
    "magma_census.cycle_index",
    "fractions",
    "random",
    "json",
    "decimal",
    "dataclasses",
    "inspect",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3", "--k", "2"),
        ("sequence", "--k", "2", "--from", "0", "--to", "4", "--format", "bfile"),
        ("count", "--n", "2", "--k", "3", "--variant", "harrison-gcd"),
    ],
)
def test_count_loads_only_what_it_runs(argv):
    code = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['magma_census', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('magma_census', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert e.code in (None, 0), e.code\n"
        f"print(sorted(m for m in {_NOT_FOR_COUNTS!r} "
        "if m in sys.modules and m not in before))\n"
        "print(sorted(m for m in sys.modules if m.startswith('magma_census')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[-2] == "[]"
    assert lines[-1] == str(
        ["magma_census", "magma_census.arith", "magma_census.census", "magma_census.cli"]
    )


def test_cycle_index_suite_loads_no_census():
    # The census is imported by the commands and suites that count, so the
    # cycle-index suite's process compiles only the cycle index and arith.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['magma_census', 'verify', '--suite', 'cycle-index']\n"
        "try:\n"
        "    runpy.run_module('magma_census', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert e.code in (None, 0), e.code\n"
        "print(sorted(m for m in sys.modules if m.startswith('magma_census')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == str(
        ["magma_census", "magma_census.arith", "magma_census.cli", "magma_census.cycle_index"]
    )


# Every name the package exports, and its version.
_PACKAGE_EXPORTS = (
    "CycleType", "Perm", "all_perms", "cycle_type_count", "cycle_type_of",
    "enumerate_cycle_types", "realize_cycle_type",
    "CensusQuery", "CensusResult", "GuardError",
    "VARIANT_CORRECT", "VARIANT_HARRISON", "count_k_magmas",
    "count_via_cycle_index", "count_via_permutation_sum", "fixed_point_count",
    "sequence", "weighted_divisor_sum",
    "CycleIndexPoly", "Monomial", "cycle_index_direct", "cycle_index_recursive",
    "induce", "max_indeterminate_index", "substitute_per_monomial",
    "cell_permutation", "count_orbits_bruteforce", "fixed_tables_structural",
    "__version__",
)

# Names that only the tests run (tests/witnesses.py) or that nothing runs.
_NOT_IN_THE_PACKAGE = (
    "OpTable", "encode_cell", "decode_cell", "act", "all_tables", "canonical_form",
    "is_automorphism", "fixed_tables_enumerated", "orbit_and_stabilizer_sizes",
    "orbit_stabilizer_check", "apply_tuple", "divisors", "sequence_in_k",
    "METHODS", "METHOD_CYCLE_INDEX",
)


def test_package_exports_still_resolve():
    # In a fresh interpreter, so that each name resolves lazily.
    code = (
        f"from magma_census import {', '.join(_PACKAGE_EXPORTS)}\n"
        "import magma_census\n"
        "from magma_census import arith, census, cycle_index, oracle\n"
        "assert census.count_k_magmas is magma_census.count_k_magmas\n"
        "assert cycle_index.induce is magma_census.induce\n"
        "assert set(magma_census.__all__) <= set(dir(magma_census))\n"
        "try:\n"
        "    from magma_census import no_such_name\n"
        "except ImportError:\n"
        "    print('ok')\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"


def test_package_exports_exactly_what_its_callers_run():
    import magma_census
    from magma_census import arith, census, cycle_index, oracle

    assert magma_census.__all__ == sorted(set(_PACKAGE_EXPORTS) - {"__version__"})
    assert len(magma_census.__all__) == 28
    for module in (magma_census, arith, census, cycle_index, oracle, cli):
        for name in _NOT_IN_THE_PACKAGE:
            assert not hasattr(module, name), (module.__name__, name)


def test_one_guard_exception():
    # The census, the oracle and the command line share one class, and the
    # oracle still loads nothing of the census.
    from magma_census import arith, oracle

    assert census.GuardError is oracle.GuardError is arith.GuardError
    code = (
        "import sys, magma_census.oracle\n"
        "print('magma_census.census' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_count_above_str_digit_limit_plain_and_json():
    expected = _unlimited_str(count_via_cycle_index(16, 3).count)
    assert len(expected) > 4300
    env = _default_digit_limit_env()
    r = run_cli("count", "--n", "16", "--k", "3", env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected + "\n"
    r = run_cli("count", "--n", "16", "--k", "3", "--format", "json", env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        "n": 16, "k": 3, "variant": "correct", "count": expected,
    }


def test_sequence_above_str_digit_limit_bfile():
    expected = "".join(
        f"{n} {_unlimited_str(count_via_cycle_index(n, 3).count)}\n"
        for n in (14, 15, 16)
    )
    r = run_cli(
        "sequence", "--k", "3", "--from", "14", "--to", "16", "--format", "bfile",
        env=_default_digit_limit_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected


def test_decimal_string_matches_str():
    values = [0, 7, -12, 10**4300 - 1, 10**4300, -(10**4300) - 1, 2**14280, 2**14281]
    values += [3**60000, -(7**50001), 10**40000 + 1]
    for value in values:
        assert cli.decimal_string(value) == _unlimited_str(value)


def test_sequence_streams_lines():
    # n = 60 alone takes minutes; the small counts must arrive before it.
    p = subprocess.Popen(
        [sys.executable, "-m", "magma_census", "sequence", "--k", "2",
         "--from", "0", "--to", "60", "--format", "bfile"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        lines = []
        while len(lines) < 4:
            ready, _, _ = select.select([p.stdout], [], [], 30)
            assert ready, f"no line within 30 s after {lines}"
            lines.append(p.stdout.readline())
        assert lines == ["0 1\n", "1 1\n", "2 10\n", "3 3330\n"]
    finally:
        p.kill()
        p.wait(timeout=30)
        p.stdout.close()


def test_closed_stdout_is_not_a_failure():
    # `sequence ... | head -2`: the reader leaves after two lines. That is
    # neither a failed verification (1) nor a usage error (2), and no
    # traceback is printed.
    p = subprocess.Popen(
        [sys.executable, "-m", "magma_census", "sequence", "--k", "2",
         "--from", "0", "--to", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert [p.stdout.readline(), p.stdout.readline()] == ["1\n", "1\n"]
        p.stdout.close()
        status = p.wait(timeout=120)
        stderr = p.stderr.read()
    finally:
        p.kill()
        p.wait(timeout=30)
        p.stdout.close()
        p.stderr.close()
    assert "Traceback" not in stderr
    assert status == 141 == cli.EXIT_BROKEN_PIPE


def test_argument_problems_exit_2_before_work():
    for args in _ARGUMENT_PROBLEMS:
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stdout == "", args


@pytest.mark.parametrize("args", _USAGE_ERRORS + _ARGUMENT_PROBLEMS, ids=" ".join)
def test_usage_errors_print_the_commands_usage(args, capsys):
    # In-process, so a check that does not fire runs the work and fails here.
    with pytest.raises(SystemExit) as e:
        cli.entry_point(list(args))
    assert e.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: magma-census {args[0]} ")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(census, "count_k_magmas", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.entry_point(["count", "--n", "3", "--k", "2", "--jobs", "1"])


def test_internal_arithmetic_fault_is_not_a_refuted_count(monkeypatch):
    # Exit 1 is for a sum that refutes itself (a bare ArithmeticError); an
    # OverflowError, say from math.factorial at an n past a C long, is an
    # internal fault and keeps its traceback.
    def broken(*args, **kwargs):
        raise OverflowError("internal fault")

    monkeypatch.setattr(census, "count_k_magmas", broken)
    with pytest.raises(OverflowError, match="internal fault"):
        cli.entry_point(["count", "--n", "3", "--k", "2"])
