import importlib.util
import os
import sys

import pytest

from gcsdiag import complete_rank2, initial_diagram, parse_seed_file

SEED_DIR = os.path.join(os.path.dirname(__file__), "..", "seeds")
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def load_perfbench(name):
    """perfbench/<name>.py as the module `name`, which is how its siblings import it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, name + ".py"))
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod
        spec.loader.exec_module(mod)
    return sys.modules[name]


def load_seed(name):
    with open(os.path.join(SEED_DIR, name), "r", encoding="utf-8") as fh:
        return parse_seed_file(fh.read())


@pytest.fixture(scope="session")
def g31():
    return load_seed("g31.seed")


@pytest.fixture(scope="session")
def a2():
    return load_seed("a2.seed")


@pytest.fixture(scope="session")
def kronecker():
    return load_seed("kronecker22.seed")


@pytest.fixture(scope="session")
def g31_diag8(g31):
    fixed, seed = g31
    return complete_rank2(initial_diagram(fixed, seed, 8))


@pytest.fixture(scope="session")
def g31_diag9(g31):
    fixed, seed = g31
    return complete_rank2(initial_diagram(fixed, seed, 9))


@pytest.fixture(scope="session")
def a2_diag6(a2):
    fixed, seed = a2
    return complete_rank2(initial_diagram(fixed, seed, 6))
