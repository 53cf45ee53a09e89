import numpy as np
import pytest

from riccilab import (
    FlowConfig,
    build_model,
    flat_torus_model,
    heisenberg_model,
    integrate,
    normalize_to_unit_volume,
    reference_metric,
    sphere_circle_model,
)


@pytest.fixture(scope="session")
def s3_model():
    return build_model({"kind": "product_of_space_forms",
                        "factors": [["sphere", 3, 1.0]]})


@pytest.fixture(scope="session")
def torus_model():
    return flat_torus_model(dim=3, covolume=1.0)


@pytest.fixture(scope="session")
def heis_model():
    return heisenberg_model()


@pytest.fixture(scope="session")
def prod_model():
    return sphere_circle_model(3, circle_radius=0.5)


@pytest.fixture(scope="session")
def s3_traj(s3_model):
    return integrate(s3_model, reference_metric(s3_model),
                     FlowConfig(t_end=0.2, record_every=0.2 / 512))


@pytest.fixture(scope="session")
def torus_traj(torus_model):
    return integrate(torus_model, reference_metric(torus_model),
                     FlowConfig(t_end=0.5, record_every=0.5 / 64))


@pytest.fixture(scope="session")
def heis_traj(heis_model):
    return integrate(heis_model, reference_metric(heis_model),
                     FlowConfig(t_end=0.5, record_every=0.5 / 512))


@pytest.fixture(scope="session")
def prod_traj(prod_model):
    return integrate(prod_model, reference_metric(prod_model),
                     FlowConfig(t_end=0.1, record_every=0.1 / 512))


@pytest.fixture(scope="session")
def tiny_sphere_traj():
    # |Rm| ~ 3.5e160 squares past the largest float, and |Rm|^2 vol is finite
    model = build_model({"kind": "product_of_space_forms",
                         "factors": [["sphere", 3, 1e-80], ["circle", 1, 0.5]]})
    return integrate(model, reference_metric(model), FlowConfig(t_end=1e-161))


@pytest.fixture(scope="session")
def almost_flat_heis_traj(heis_model):
    # fiber shrunk to delta = 0.05 and volume normalized: the smallness
    # hypothesis holds under default primitives, horizon T0 = 1
    g0 = np.diag([1.0, 1.0, 0.05 ** 2])
    g0 = normalize_to_unit_volume(heis_model, g0)
    return integrate(heis_model, g0, FlowConfig(t_end=1.0, record_every=1.0 / 512))
