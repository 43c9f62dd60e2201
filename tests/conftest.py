"""Fixtures shared by the test modules."""

import sys
import tracemalloc

import pytest


@pytest.fixture
def traced_growth():
    """``measure(call, warm_up)``: the result of ``call()`` and the peak of
    the memory it held, above what was held when it started, by
    ``tracemalloc``: what the call still holds when it returns counts too.

    ``warm_up()`` runs first, untraced, under a no-op profile hook; it
    should run the same functions as ``call`` on a small input.  tracemalloc
    looks up the source line of every allocation it traces.  On CPython 3.11
    that lookup decodes the code object's line-number data from the start,
    unless a profile hook has already left a line table on the code object;
    with the tables in place the traced call runs several times faster and
    is otherwise unchanged."""

    def measure(call, warm_up):
        sys.setprofile(lambda *args: None)
        try:
            warm_up()
        finally:
            sys.setprofile(None)
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
