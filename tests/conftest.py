import pytest

from navgeo.scenarios import builtin, builtin_names


@pytest.fixture(scope="session")
def scenarios():
    return {name: builtin(name) for name in builtin_names()}


def _fixture_for(name):
    @pytest.fixture(scope="session")
    def fx(scenarios):
        return scenarios[name]
    return fx


funk_ball = _fixture_for("funk_ball")
rotation_disk = _fixture_for("rotation_disk")
zero_wind = _fixture_for("zero_wind")
constant_wind = _fixture_for("constant_wind")
sphere_cap = _fixture_for("sphere_cap")
conformal_flat = _fixture_for("conformal_flat")
annulus = _fixture_for("annulus_constant_length")
