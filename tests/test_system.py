import numpy as np
import pytest

from semicontract.expr import parse_expr
from semicontract.system import (
    Box,
    ConfigError,
    SwitchedSystem,
    eval_field,
    eval_jacobian,
    load_config,
    make_mode,
    sample_domain,
)
from semicontract.testdata import bundled_config_path


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


def finite_difference_jacobian(mode, x, h=1e-5):
    n = len(x)
    jac = np.zeros((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        jac[:, j] = (eval_field(mode, x + step) - eval_field(mode, x - step)) / (2 * h)
    return jac


def test_bundled_config_loads(bundle):
    assert bundle.system.dimension == 2
    assert [m.id for m in bundle.system.modes] == [1, 2]
    assert [s.name for s in bundle.subspaces] == ["diag", "antidiag"]
    assert len(bundle.certificates) == 2
    assert set(bundle.certificates[0].weights) == {1, 2}
    assert bundle.certificates[0].beta_stable == pytest.approx(1.6084)
    assert bundle.certificates[0].eta_stable == pytest.approx(1.5)


def test_mode1_field_at_origin(bundle):
    # cos(0) = 1 makes the field the sum of the coupling columns
    f = eval_field(bundle.system.mode(1), np.zeros(2))
    expected = np.array([-0.9, 0.5]) / np.sqrt(2.0)
    assert np.allclose(f, expected, atol=1e-12)


def test_mode_jacobians_at_origin(bundle):
    # sin(0) = 0 kills the nonlinear contribution
    j1 = eval_jacobian(bundle.system.mode(1), np.zeros(2))
    j2 = eval_jacobian(bundle.system.mode(2), np.zeros(2))
    assert np.allclose(j1, [[-0.75, -1.25], [-1.25, -0.75]], atol=1e-12)
    assert np.allclose(j2, [[-0.75, 1.25], [1.25, -0.75]], atol=1e-12)


def test_linear_mode_jacobian_constant():
    mode = make_mode(1, [parse_expr("-x1 + 2*x2", 2), parse_expr("x1 - 3*x2", 2)])
    ja = eval_jacobian(mode, np.zeros(2))
    jb = eval_jacobian(mode, np.array([4.0, -7.0]))
    assert np.allclose(ja, jb)
    assert np.allclose(ja, [[-1.0, 2.0], [1.0, -3.0]])


def test_symbolic_jacobian_matches_finite_differences(bundle):
    rng = np.random.default_rng(123)
    for mode in bundle.system.modes:
        for _ in range(100):
            x = rng.uniform(-5, 5, size=2)
            sym = eval_jacobian(mode, x)
            fd = finite_difference_jacobian(mode, x)
            scale = np.maximum(1.0, np.abs(sym))
            assert np.all(np.abs(sym - fd) / scale <= 1e-6)


def test_batch_jacobian_matches_pointwise(bundle):
    mode = bundle.system.mode(1)
    pts = np.random.default_rng(5).uniform(-5, 5, size=(17, 2))
    batch = eval_jacobian(mode, pts)
    assert batch.shape == (17, 2, 2)
    for k in range(17):
        assert np.allclose(batch[k], eval_jacobian(mode, pts[k]))


def test_grid_sampling_3_per_axis(bundle):
    samples = sample_domain(bundle.system, grid_per_axis=3)
    assert len(samples) == 9
    pts = samples.points
    assert any(np.allclose(p, [0.0, 0.0]) for p in pts)
    for corner in ([-5, -5], [-5, 5], [5, -5], [5, 5]):
        assert any(np.allclose(p, corner) for p in pts)


def test_grid_sampling_2_gives_corners(bundle):
    samples = sample_domain(bundle.system, grid_per_axis=2)
    assert len(samples) == 4
    assert {tuple(p) for p in samples.points} == {(-5, -5), (-5, 5), (5, -5), (5, 5)}


def test_random_sampling_reproducible(bundle):
    a = sample_domain(bundle.system, random_count=50, seed=99)
    b = sample_domain(bundle.system, random_count=50, seed=99)
    assert np.array_equal(a.points, b.points)
    assert bundle.system.domain.contains(a.points)


def test_box_first_outside_finds_the_first_point_out(bundle):
    box = bundle.system.domain
    points = np.array([[0.0, 0.0], [5.0, -5.0], [5.1, 0.0], [0.0, np.nan], [9.0, 9.0]])
    assert box.first_outside(points) == 2
    assert box.first_outside(points[[0, 1, 3]]) == 2  # nan is outside
    assert box.first_outside(points[:2]) is None and box.contains(points[:2])
    assert box.first_outside(points[2:3], slack=0.2) is None


def test_empty_sampling_request_rejected(bundle):
    with pytest.raises(ValueError):
        sample_domain(bundle.system, grid_per_axis=1, random_count=0)


def test_mode_ids_must_be_contiguous():
    mode = make_mode(2, [parse_expr("-x1", 1)])
    with pytest.raises(ValueError):
        SwitchedSystem(1, (mode,), Box((-1.0,), (1.0,)))


def test_config_errors():
    with pytest.raises(ConfigError):
        load_config("{not json")
    with pytest.raises(ConfigError):
        load_config({"dimension": 2, "domain": [[-1, 1], [-1, 1]], "modes": [{"id": 1, "field": ["x1"]}]})
    with pytest.raises(ConfigError):
        load_config(
            {
                "dimension": 1,
                "domain": [[-1, 1]],
                "modes": [{"id": 1, "field": ["-x1"]}],
                "subspaces": [{"name": "bad", "span": [[1.0, 0.0]]}],
            }
        )


def test_negative_eta_convention_taken_as_magnitude():
    bundle = load_config(
        {
            "dimension": 1,
            "domain": [[-1, 1]],
            "modes": [{"id": 1, "field": ["-x1"]}],
            "certificates": [{"subspace": "s", "P": {"1": [[1.0]]}, "eta_S": -1.5}],
        }
    )
    assert bundle.certificates[0].eta_stable == pytest.approx(1.5)
