import numpy as np
import pytest

from opuczeros import QuadratureError
from opuczeros._quad import adaptive_gl, adaptive_gl_2d


def test_non_finite_1d_estimate_raises():
    with np.errstate(all="ignore"), pytest.raises(QuadratureError):
        adaptive_gl(lambda x: 1 / x, 0, 1)


def test_non_finite_2d_estimate_raises():
    with np.errstate(all="ignore"), pytest.raises(QuadratureError):
        adaptive_gl_2d(lambda x, y: 1 / (x * x + y * y), (0, 1), (0, 1))


def test_unsplittable_panel_raises():
    # one ulp wide: the midpoint rounds onto an endpoint before convergence
    with np.errstate(all="ignore"), pytest.raises(QuadratureError):
        adaptive_gl(lambda x: 1 / (x - 1 + 1e-300), 1.0, np.nextafter(1.0, 2.0),
                    tol=1e-12)

