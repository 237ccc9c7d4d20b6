"""End-to-end runs of the installed command line, checked byte for byte."""

import json
import os
import select
import subprocess
import sys

import pytest

from magma_census import census, cli
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


def test_verify_variant_suite():
    r = run_cli("verify", "--suite", "variant")
    assert r.returncode == 0
    assert r.stdout == "variant: PASS\n  first divergence at n=2 k=3: 130 != 136\n"


def test_verify_cycle_index_suite():
    r = run_cli("verify", "--suite", "cycle-index")
    assert r.returncode == 0
    assert r.stdout == "cycle-index: PASS\n"


def test_usage_errors_exit_2():
    assert run_cli("count", "--n", "-1", "--k", "2").returncode == 2
    assert run_cli("count", "--n", "2").returncode == 2
    assert run_cli("sequence", "--from", "0", "--to", "3").returncode == 2
    assert run_cli("sequence", "--k", "2", "--from", "3", "--to", "1").returncode == 2
    assert run_cli("count", "--n", "2", "--k", "2", "--variant", "wrong").returncode == 2
    assert run_cli("count", "--n", "2", "--k", "2", "--format", "bfile").returncode == 2
    assert run_cli("count", "--n", "2", "--k", "0", "--variant", "harrison-gcd").returncode == 2
    assert run_cli("verify", "--format", "json").returncode == 2
    assert run_cli("verify", "--n-max", "-1").returncode == 2


def test_guard_violations_exit_3():
    r = run_cli("count", "--n", "9", "--k", "2", "--method", "permutation")
    assert r.returncode == 3
    assert r.stdout == ""
    assert "guard" in r.stderr
    r = run_cli("count", "--n", "6", "--k", "2", "--method", "permutation",
                "--perm-guard", "5")
    assert r.returncode == 3


def test_self_refuting_variant_exit_1():
    r = run_cli("count", "--n", "7", "--k", "3", "--variant", "harrison-gcd")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "non-integral" in r.stderr


def test_jobs_env_fallback():
    import os

    env = dict(os.environ, MAGMA_CENSUS_JOBS="2")
    r = run_cli("count", "--n", "4", "--k", "2", env=env)
    assert r.returncode == 0
    assert r.stdout == "178981952\n"


def test_identical_flags_identical_bytes():
    a = run_cli("sequence", "--k", "2", "--from", "0", "--to", "4")
    b = run_cli("sequence", "--k", "2", "--from", "0", "--to", "4")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_cli_import_starts_no_pool_machinery():
    # Process pools are a verify-only cost; importing them at startup
    # slows every command, including the ones that never shard.
    code = (
        "import sys, magma_census.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


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
    cases = [
        ("count", "--n", "2", "--k", "2", "--jobs", "0"),
        ("count", "--n", "2", "--k", "2", "--max-cells", "0"),
        ("verify", "--suite", "variant", "--max-cells", "0"),
        ("sequence", "--k", "0", "--from", "0", "--to", "3", "--variant", "harrison-gcd"),
        ("sequence", "--vary", "k", "--n", "2", "--from", "0", "--to", "3",
         "--variant", "harrison-gcd"),
    ]
    for args in cases:
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stdout == "", args
    for bad in ("two", "0"):
        env = dict(os.environ, MAGMA_CENSUS_JOBS=bad)
        r = run_cli("count", "--n", "2", "--k", "2", env=env)
        assert r.returncode == 2, bad
        assert "MAGMA_CENSUS_JOBS" in r.stderr


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(census, "count_k_magmas", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.entry_point(["count", "--n", "3", "--k", "2", "--jobs", "1"])
