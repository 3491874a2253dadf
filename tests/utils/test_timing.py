"""Tests for the stopwatch utilities."""

from repro.utils.timing import Stopwatch, timed


def test_stopwatch_accumulates_spans():
    watch = Stopwatch()
    with watch.span("work"):
        sum(range(10000))
    with watch.span("work"):
        sum(range(10000))
    assert watch.counts["work"] == 2
    assert watch.total("work") >= 0.0


def test_stopwatch_unknown_span_is_zero():
    assert Stopwatch().total("nothing") == 0.0


def test_stopwatch_grand_total_and_reset():
    watch = Stopwatch()
    with watch.span("a"):
        pass
    with watch.span("b"):
        pass
    assert sum(watch.totals.values()) == watch.total("a") + watch.total("b")
    watch.reset()
    assert sum(watch.totals.values()) == 0.0
    assert watch.counts == {}


def test_stopwatch_records_even_on_exception():
    watch = Stopwatch()
    try:
        with watch.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    assert watch.counts["boom"] == 1


def test_timed_returns_result_and_duration():
    result, seconds = timed(lambda x: x * 2, 21)
    assert result == 42
    assert seconds >= 0.0
