"""Tests for the benchmark harness itself (not for slicekit).

Run from the repository root: python3 -m pytest bench/tests -q
"""

import signal
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import slicekit  # noqa: E402
from slicekit import counting, instance, report  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402
from workloads import SCALED, WORKLOADS, Op  # noqa: E402
from yardstick import MIN_CHUNKS, LoopYardstick, StartYardstick  # noqa: E402


def _inputs(name, seed):
    inputs = WORKLOADS[name].prepare(seed, 20)
    return [(op.label, repr(op.arg)) for op in inputs.ops], inputs.documents


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


def test_count_sweep_seed_changes_points():
    first, _ = _inputs("count-sweep", 1)
    second, _ = _inputs("count-sweep", 2)
    assert first != second
    assert len({label for label, _ in first}) == len(first)  # no query repeats


def test_every_wrapper_removed_after_trace():
    assert installed_wrappers() == []
    with Tracer(layers.OBSERVERS):
        wrapped = installed_wrappers()
        # the same function is wrapped where it is defined and where it is imported
        assert "slicekit.spectral.spectral_radius" in wrapped
        assert "slicekit.analysis.spectral_radius" in wrapped
        assert "slicekit.spectral_radius" in wrapped
        report.build_report(instance.parse_instance(SCALED["l4"]))
    assert installed_wrappers() == []
    assert slicekit.analysis.spectral_radius is slicekit.spectral.spectral_radius


def test_wrappers_removed_when_an_op_raises():
    with pytest.raises(slicekit.errors.OutOfRange):
        with Tracer():
            counting.exact_card(instance.parse_instance(SCALED["span9"]), Fraction(99))
    assert installed_wrappers() == []


def test_trace_counts_match_profiler():
    """Wrapper call counts equal the calls an independent profiler sees on
    the original functions, so no import site escapes the tracer."""
    text = SCALED["span9"]
    with Tracer() as tracer:
        report.build_report(instance.parse_instance(text))
    traced = {k: s.calls for k, s in tracer.stats.items() if s.calls}
    codes = {}
    for key in traced:
        module, name = key.split(".")
        codes[getattr(getattr(slicekit, module), name).__code__] = key
    profiled = dict.fromkeys(traced, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        report.build_report(instance.parse_instance(text))
    finally:
        sys.setprofile(None)
    assert traced == profiled
    assert traced["analysis.dim_u1"] == 7


def test_self_time_excludes_children():
    with Tracer() as tracer:
        report.build_report(instance.parse_instance(SCALED["l4"]))
    top = tracer.stats["report.build_report"]
    assert top.calls == 1
    assert 0 < top.self_time < top.total
    # children are charged with their bookkeeping too, so the self times
    # add up to slightly less than the outermost span
    assert 0.95 * top.total < sum(s.self_time for s in tracer.stats.values()) <= top.total


def test_check_flags_corrupted_count():
    sweep = WORKLOADS["count-sweep"]
    inst = instance.parse_instance(SCALED["span9"])
    x = Fraction(131, 270)
    result = counting.exact_card(inst, x)
    op = Op("span9 131/270", (inst, x))
    assert result.verdict == "Finite" and sweep.check(op, result) == []
    assert sweep.check(op, replace(result, count=result.count + 1))
    corrupted = replace(
        result, certificate=replace(result.certificate, cardinality_before=result.count - 1)
    )
    assert sweep.check(op, corrupted)


def test_check_flags_corrupted_report():
    analyze = WORKLOADS["analyze-scaled"]
    op = Op("l4", SCALED["l4"])
    result = report.build_report(instance.parse_instance(op.arg))
    assert analyze.check(op, result) == []
    result["data"]["ur"]["1"]["witness"]["verified"] = False
    assert analyze.check(op, result)


def test_check_flags_bad_cli_output():
    cli = WORKLOADS["cli-bundled"]
    op = Op("count cantor_diff 1/3", ())
    good = '{"count": 3, "depth_reached": 2, "verdict": "Finite", "x": "1/3"}'
    assert cli.check(op, (0, good, "")) == []
    assert cli.check(op, (0, good.replace("3,", "4,", 1), ""))
    assert cli.check(op, (1, good, "boom"))
    assert cli.check(op, (0, "not json", ""))


def _timed_sleeps(yard, seconds):
    spans = []
    with yard:
        for s in seconds:
            t0 = time.perf_counter()
            time.sleep(s)
            spans.append((t0, time.perf_counter()))
            yard.between_ops()
    return spans


def test_loop_yardstick_scales_every_op():
    previous = signal.getsignal(signal.SIGALRM)
    yard = LoopYardstick()
    spans = _timed_sleeps(yard, (0.0, 0.001, 0.4, 0.0))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # the long op holds enough chunks of its own; the short ones borrow
    start, end = spans[2]
    assert sum(start <= t < end for t in yard.starts) >= MIN_CHUNKS
    scales = yard.scales(spans)
    assert len(scales) == len(spans)
    assert all(0 < s < 100 for s in scales)


def test_start_yardstick_samples_between_ops():
    yard = StartYardstick()
    spans = _timed_sleeps(yard, (0.01, 0.01))
    assert len(yard.seconds) >= 3  # before the first op and after each
    scales = yard.scales(spans)
    assert len(scales) == 2 and all(0 < s < 100 for s in scales)
