"""The one batch form of every public route that takes a batch: a number
gives Python floats, a non-empty 1-D sequence gives float64 arrays of its
length in input order, and each entry has the bits of its one-number call.
A route with an error estimate returns an ``Evaluation`` in both forms."""

import numpy as np
import pytest

from ballgrad import phi, specfun
from ballgrad.errors import Evaluation
from ballgrad.specfun import HypergeometricInput

# each route as a function of its one batched variable, and points of that
# variable: unsorted, with a duplicate, and reaching the branches the route
# takes (both sides of a threshold, head degrees, negative 2F1 arguments)
ROUTES = {
    "phi_one_sided": (lambda r: phi.phi_one_sided(4, r), [0.9, 0.0, 0.5, 1.0, 0.5]),
    "phi_series": (lambda r: phi.phi_series(4, r), [0.9, 0.0, 0.5, 0.3, 0.5]),
    "phi_second_closed": (lambda r: phi.phi_second_closed(4, r), [0.9, 0.002, 0.5, 1.0, 0.5]),
    "phi_second_series": (lambda r: phi.phi_second_series(4, r), [0.9, 0.0, 0.5, 0.3, 0.5]),
    "phi_second_fd": (lambda r: phi.phi_second_fd(4, r), [0.9, 0.0, 0.5, 0.999, 0.5]),
    "phi_second": (lambda r: phi.phi_second(4, r), [0.9, 0.0, 0.5, 1.0, phi.SECOND_CLOSED_RHO_MIN, 0.5]),
    "psi": (lambda t: phi.psi(5, t), [0.9, 0.0, 0.5, 1.0, 0.5]),
    "technical_gap": (lambda t: phi.technical_gap(5, t), [0.9, 0.0, 0.5, 1.0, 0.5]),
    "profile_hyp2f1": (lambda z: specfun.profile_hyp2f1(5, z), [0.9, 0.0, 0.5, 0.95, 0.5]),
    "hyp2f1": (lambda z: specfun.hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, z)), [0.5, -2.0, 0.0, 0.25, 0.5]),
    "abs_kernel_coefficient/points": (lambda s: specfun.abs_kernel_coefficient(1.5, 3, s), [0.4, -0.8, 0.0, 0.4]),
    "abs_kernel_coefficient/degrees": (lambda k: specfun.abs_kernel_coefficient(1.5, k, 0.3), [5, 0, 1, 2, 5]),
    "gegenbauer_weighted_derivative": (
        lambda x: specfun.gegenbauer_weighted_derivative(2.0, 4, x),
        [0.4, -0.8, 0.0, 0.4],
    ),
}


def _parts(result):
    """The value and, where the route has one, the estimate of a result."""
    return (result.value, result.error_estimate) if isinstance(result, Evaluation) else (result,)


@pytest.mark.parametrize("name", ROUTES)
def test_a_sequence_gives_arrays_whose_entries_have_the_bits_of_their_number_calls(name):
    route, points = ROUTES[name]
    batch = _parts(route(points))
    for part in batch:
        assert type(part) is np.ndarray and part.dtype == np.float64 and part.shape == (len(points),)
    for i, x in enumerate(points):
        one = _parts(route(x))
        assert len(one) == len(batch) and all(type(v) is float for v in one), x
        expected = np.array(one).tobytes()
        assert np.array([part[i] for part in batch]).tobytes() == expected, x
        alone = _parts(route([x]))
        assert all(type(part) is np.ndarray and part.shape == (1,) for part in alone), x
        assert np.concatenate(alone).tobytes() == expected, x
