import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

from fibrecount.verify import (bilinear_instance, demo_instance,
                               four_squares_instance)


@pytest.fixture(scope="session")
def demo():
    return demo_instance()


@pytest.fixture(scope="session")
def four_squares():
    return four_squares_instance()


@pytest.fixture(scope="session")
def bilinear():
    return bilinear_instance()


@pytest.fixture(scope="session")
def linked():
    """four_squares' f2 with an f1 whose cross terms chain all four
    variables into one block: every layer keeps its direct path."""
    from fibrecount.forms import Form, Instance

    def exps(*idx):
        e = [0] * 4
        for i in idx:
            e[i] += 1
        return tuple(e)

    f1 = Form(4, 2, tuple((1, exps(i, i)) for i in range(4))
              + tuple((1, exps(i, i + 1)) for i in range(3)))
    f2 = Form(4, 2, tuple((1 if i < 2 else -1, exps(i, i)) for i in range(4)))
    return Instance(f1=f1, f2=f2, n=4, d=2, label="linked")


@pytest.fixture(scope="session")
def cone():
    """f1 = x0^2 + x1^2 vanishes on the line x0 = x1 = 0, which f2 = 0
    contains, so stationary phase refines the classes near it beyond N."""
    from fibrecount.forms import Form, Instance

    return Instance(f1=Form(3, 2, ((1, (2, 0, 0)), (1, (0, 2, 0)))),
                    f2=Form(3, 2, ((1, (1, 0, 1)), (1, (0, 2, 0)))),
                    n=3, d=2, label="cone")


@pytest.fixture(scope="session")
def quartic():
    """A non-separable d = 4 instance in three variables: the class of 0
    recurses from level m to m - 4."""
    from fibrecount.forms import Form, Instance

    def form(*monos):
        return Form(3, 4, tuple((c, e) for c, e in monos))

    return Instance(f1=form((1, (4, 0, 0)), (2, (0, 4, 0)), (3, (0, 0, 4)),
                            (1, (2, 1, 1))),
                    f2=form((1, (4, 0, 0)), (-1, (0, 4, 0)), (2, (1, 3, 0)),
                            (-3, (0, 0, 4))),
                    n=3, d=4, label="quartic")
