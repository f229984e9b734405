import os

import numpy as np
import pytest
from hypothesis import settings

import crystalflex as cf

# HYPOTHESIS_PROFILE=ci makes the property tests draw the same examples on
# every run and print the blob that replays a failure; the default profile
# draws at random.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def square_grid():
    return cf.builtin_framework("square_grid")


@pytest.fixture
def kagome():
    return cf.builtin_framework("kagome")


@pytest.fixture
def hexahedron():
    return cf.builtin_framework("hexahedron")


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(params=["square_grid", "kagome", "hexahedron"])
def any_builtin(request):
    return cf.builtin_framework(request.param)
