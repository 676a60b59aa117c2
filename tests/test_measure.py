import numpy as np
import pytest

from nbdirichlet.errors import BadWeight, EmptySpace, SpaceMismatch
from nbdirichlet.flow import prox_step
from nbdirichlet.forms import make_form
from nbdirichlet.measure import MeasureSpace, make_field


def test_make_space_examples():
    s = MeasureSpace([1.0])
    assert s.n == 1 and s.weights[0] == 1.0
    s = MeasureSpace([1, 1, 1])
    assert s.n == 3 and np.array_equal(s.weights, [1, 1, 1])
    s = MeasureSpace([0.5, 2.0])
    assert np.array_equal(s.weights, [0.5, 2.0])


def test_make_space_errors():
    with pytest.raises(EmptySpace):
        MeasureSpace([])
    with pytest.raises(BadWeight):
        MeasureSpace([1.0, 0.0])
    with pytest.raises(BadWeight):
        MeasureSpace([1.0, -2.0])
    with pytest.raises(BadWeight):
        MeasureSpace([1.0, np.inf])
    # the entries are read as a field's are: a bool, a string or None is no weight
    for weights in ([True, "2"], [1.0, True], [1.0, "2"], [1.0, None], np.array([True, True]),
                    np.array(["1", "2"]), [1.0, [2.0]], [1.0, 10**400]):
        with pytest.raises(BadWeight):
            MeasureSpace(weights)
    assert np.array_equal(MeasureSpace([np.int64(1), np.float64(2.5), 3]).weights, [1.0, 2.5, 3.0])


def test_space_mismatch():
    s = MeasureSpace([1.0, 1.0])
    for values in ([0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], np.zeros((2, 1)), 5.0):
        with pytest.raises(SpaceMismatch):
            make_field(s, values)
    form = make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})
    elsewhere = make_field(MeasureSpace([1.0, 2.0]), [0.0, 0.0])
    with pytest.raises(SpaceMismatch, match="the form's space"):
        prox_step(form, elsewhere, 0.5)


def test_fields_are_immutable():
    f = make_field(MeasureSpace([1.0]), [2.0])
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(AttributeError):
        f.values = np.zeros(1)


def test_field_values_are_real_numbers():
    s = MeasureSpace([1.0, 1.0, 1.0])
    for values in (
        ["1", True, "-0.5"],  # numpy reads this as [1, 1, -0.5]
        [1.0, True, 0.5],  # and a bool in a float list as 1.0
        [1.0, np.True_, 0.5],
        np.array([True, False, True]),
        [1.0, None, 0.5],
        [1.0, "2", 0.5],
        np.array(["1", "2", "3"]),
        np.array([1.0, 2.0, 3.0]) + 1j,
        [1.0, [2.0], 0.5],
    ):
        with pytest.raises(ValueError, match="real number"):
            make_field(s, values)
    for values in ([1.0, np.nan, 0.5], np.array([1.0, np.inf, 0.5]), [10**400, 0, 1], [-(10**400), 0, 1]):
        with pytest.raises(ValueError, match="finite"):
            make_field(s, values)


def test_field_takes_ints_and_floats():
    s = MeasureSpace([1.0, 1.0, 1.0])
    for values in ([1, 2.5, -3], (1, 2.5, -3), [np.int64(1), np.float64(2.5), -3],
                   np.array([1.0, 2.5, -3.0]), np.array([1.0, 2.5, -3.0], dtype=np.float32)):
        f = make_field(s, values)
        assert f.values.dtype == float and np.array_equal(f.values, [1.0, 2.5, -3.0])
    ints = make_field(s, np.array([4, 0, -2]))
    assert ints.values.dtype == float and np.array_equal(ints.values, [4.0, 0.0, -2.0])
    source = np.array([1.0, 2.0, 3.0])
    f = make_field(s, source)
    source[0] = 9.0  # a float array is copied, not kept
    assert f.values[0] == 1.0 and not f.values.flags.writeable
