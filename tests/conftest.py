import gc

import pytest

from mosim import SceneConfig, builtin_lexicon

CORPUS = [
    "the ball rolled",
    "the ball rolled to the wall",
    "the ball rolled from the wall",
    "the ball slid",
    "the ball slid to the wall",
    "the ball bounced",
    "the bird flew",
    "the bird flew to the wall",
    "the ball moved",
    "the ball moved to the wall",
    "the ball arrived at the wall",
    "the ball left",
]


@pytest.fixture(scope="session")
def lex():
    return builtin_lexicon()


@pytest.fixture()
def cfg():
    return SceneConfig(seed=0)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test; put back as it was after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture()
def cycles_left_by():
    """``cycles_left_by(run, error=None)``: what the cyclic collector frees after ``run()``.

    ``run`` is called twice with the collector off, so the first call can import
    modules and fill caches; the count is that of the second, its result (or
    the ``error`` it must raise) dropped.  Reference counting frees everything
    a run leaves that holds no reference cycle, so 0 means the run made none.
    """
    def count(run, error=None):
        was = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                gc.collect()
                raised = False
                try:
                    run()
                except Exception as exc:
                    if error is None or not isinstance(exc, error):
                        raise
                    raised = True
                assert raised == (error is not None)
                found = gc.collect()
            return found
        finally:
            if was:
                gc.enable()
    return count
