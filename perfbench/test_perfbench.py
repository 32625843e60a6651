"""Self-tests of the benchmark: its checkers flag corrupted outputs, and the
tracing wrappers exist only during a traced run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import gc
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_topolab()
import topolab  # noqa: E402
from topolab import cli_io, core_space  # noqa: E402


@pytest.fixture
def queries(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOLAB_CAP", workloads.QUERY_CAP)
    return workloads.make_inputs(7, str(tmp_path))[:36]


def _bindings():
    """Every binding tracing could replace, by identity."""
    out = {}
    for m in tracing._modules():
        for attr, value in vars(m).items():
            out[(m.__name__, attr)] = value
    out[("FiniteSpace", "__init__")] = core_space.FiniteSpace.__init__
    return out


def _is_installed() -> bool:
    """True when any topolab namespace binds a tracing wrapper."""
    for m in tracing._modules():
        for value in vars(m).values():
            items = value if isinstance(value, tuple) else (value,)
            if any(hasattr(v, "__perfbench_span__") for v in items):
                return True
            if isinstance(value, type) and hasattr(value.__init__, "__perfbench_span__"):
                return True
    return False


def _same(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_checker_flags_every_corrupted_query_output(queries):
    kinds = set()
    for query in queries:
        code, out, _ = run.run_query(cli_io.main, query)
        assert workloads.check_query(query, code, out) is None, query.argv
        bad = workloads.mutate_output(query, out)
        assert bad != out
        assert workloads.check_query(query, code, bad) is not None, query.argv
        assert workloads.check_query(query, 3, out) is not None
        kinds.add((query.argv[0], "--json" in query.argv))
    assert len(kinds) == 8  # four commands, plain and --json


def test_a_failing_json_query_is_counted_not_raised(queries, tmp_path):
    good = next(q for q in queries if "--json" in q.argv)
    missing = workloads.Query(
        [good.argv[0], str(tmp_path / "missing.space"), *good.argv[2:]], good.doc, good.n_opens)
    result = run.run_queries([missing, good], seconds=0.0)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert len(result["reasons"]) == 1 and "exit code" in result["reasons"][0]


def test_open_count_matches_the_listed_upper_sets():
    rng = random.Random(5)
    for n in (1, 4, 7, 9):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.0, 1 / 8, 1 / 2):
            edges = [pair for pair in pairs if rng.random() < p]
            want = len(workloads._upper_sets(workloads._closure_rows(n, edges)))
            assert workloads._count_opens(n, edges) == want


def test_tail_percentile_leaves_ten_queries_of_a_pass_beyond_it():
    for size in (216, 432, 500, 756):
        pct = run.tail_percentile(size)
        ranks = list(range(size))
        assert size - 1 - run.percentile(ranks, pct) >= run.TAIL_BEYOND
        assert size - 1 - run.percentile(ranks, pct + 1) < run.TAIL_BEYOND


def test_checker_flags_a_verify_report_with_one_failed_check():
    report = run.report_dict(topolab.verify(topolab.VerifyConfig(seed=3, samples=10)))
    assert workloads.verify_count_violations(report) == []
    broken = copy.deepcopy(report)
    suite = next(s for s in broken["suites"] if s["name"] == "closure_formula")
    suite["passed"] -= 1
    suite["failed"] += 1
    broken["ok"] = False
    assert workloads.verify_count_violations(broken)
    short = copy.deepcopy(report)
    short["suites"][0]["passed"] -= 1  # a lost check, though none failed
    assert workloads.verify_count_violations(short)


def _spy_installed(monkeypatch) -> list[bool]:
    """Record, at each query, whether any tracing wrapper is bound."""
    seen = []
    original = run.run_query

    def spy(main, query):
        seen.append(_is_installed())
        return original(main, query)

    monkeypatch.setattr(run, "run_query", spy)
    return seen


def test_untraced_run_installs_no_wrappers(queries, monkeypatch):
    before = _bindings()
    seen = _spy_installed(monkeypatch)
    result = run.run_queries(queries, seconds=0.0)
    assert result["failed"] == 0 and not result["reasons"]
    assert seen and not any(seen)
    assert _same(before, _bindings())
    for key in ("run_s", "op_p50_ms", "op_tail_ms"):
        value, _ = result["metrics"][key]
        assert value == pytest.approx(result["raw"][key] * result["speed_scale"])


def test_speed_probe_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert run.speed_probe() > 0 and gc.isenabled()
    gc.disable()
    try:
        run.speed_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_traced_run_wraps_then_restores_every_name(queries, monkeypatch):
    before = _bindings()
    seen = _spy_installed(monkeypatch)
    tracer = tracing.Tracer()
    result = run.run_queries(queries, seconds=0.0, tracer=tracer)
    assert result["failed"] == 0 and not result["reasons"]
    n = len(queries)
    assert seen == [False, True] * n  # each query untraced, then traced
    assert result["layers"]["cli_io.calls"] >= n
    assert not _is_installed()
    assert _same(before, _bindings())


def test_tracer_wraps_every_binding_of_a_function():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (topolab.reflect, cli_io.reflect, topolab.FiniteSpace.__init__,
                   *cli_io.SUITES):
            assert hasattr(fn, "__perfbench_span__")
        assert _is_installed()
    finally:
        tracer.uninstall()
    assert not _is_installed()
