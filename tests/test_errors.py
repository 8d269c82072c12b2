import inspect
import pickle

import numpy as np
import pytest

from diffdistill import errors
from diffdistill.diffusion import DiffusionResult
from diffdistill.errors import (
    DegenerateGraph,
    DiffDistillError,
    InsufficientClasses,
    KTooLarge,
    NoValidPairs,
    NotConverged,
    RankDeficient,
    SingularSystem,
    UndefinedDensity,
    ZeroNormRow,
)

CASES = [
    ZeroNormRow(3, 1.5e-13),
    ZeroNormRow(0),
    DegenerateGraph(np.array([2, 5])),
    DegenerateGraph([1], "custom message"),
    NotConverged(DiffusionResult(np.arange(4.0).reshape(2, 2), 7), 1e-10),
    SingularSystem("(I - omega S) solve failed"),
    InsufficientClasses("need 4 classes"),
    NoValidPairs("no pairs"),
    KTooLarge("K=9 needs 10 samples"),
    UndefinedDensity("need at least 2 classes"),
    RankDeficient("retained spectrum sums to 0"),
    DiffDistillError("gradient check failed"),
]


def test_every_library_error_has_a_pickle_case():
    library = {
        obj for obj in vars(errors).values() if inspect.isclass(obj) and issubclass(obj, DiffDistillError)
    }
    assert library == {type(exc) for exc in CASES}


@pytest.mark.parametrize("exc", CASES, ids=lambda exc: type(exc).__name__)
def test_library_error_round_trips_through_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    for name in ("row", "norm", "rows"):
        assert getattr(back, name, None) == getattr(exc, name, None)
    if isinstance(exc, NotConverged):
        assert np.array_equal(back.result.matrix, exc.result.matrix)
        assert back.result.iterations == 7
