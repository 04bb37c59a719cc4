import pytest

from flipdist.errors import InfeasibleSpec
from flipdist.generate import (
    GenSpec,
    SHAPES,
    generate_instance,
)
from flipdist.triangulation import validate
from helpers import generate_pair


def test_spec_validation():
    with pytest.raises(InfeasibleSpec):
        GenSpec(seed=1, n_points=5, shape="nonsense")
    with pytest.raises(InfeasibleSpec):
        GenSpec(seed=1, n_points=5, shape="with_holes", holes=0)
    with pytest.raises(InfeasibleSpec):
        GenSpec(seed=1, n_points=5, shape="convex_gon", holes=1)
    with pytest.raises(InfeasibleSpec):
        generate_instance(GenSpec(seed=1, n_points=5, shape="with_holes", holes=1))
    with pytest.raises(InfeasibleSpec, match="interior_points must be >= 0"):
        GenSpec(seed=1, n_points=6, interior_points=-2)


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_instances_valid(shape):
    for seed in range(5):
        holes = 1 if shape == "with_holes" else 0
        n = 7 if shape == "with_holes" else 6
        inst = generate_instance(
            GenSpec(seed=seed, n_points=n, shape=shape, holes=holes)
        )
        assert inst.validate() == []
        assert inst.n == n
        assert inst.h == holes


def test_generation_deterministic():
    spec = GenSpec(seed=42, n_points=9, shape="random_simple_border")
    a = generate_instance(spec)
    b = generate_instance(spec)
    assert a == b
    c = generate_instance(GenSpec(seed=43, n_points=9, shape="random_simple_border"))
    assert a != c


def test_interior_points():
    inst = generate_instance(
        GenSpec(seed=3, n_points=8, shape="convex_gon", interior_points=2)
    )
    assert inst.validate() == []
    assert inst.n == 8
    assert inst.n_b == 6


def test_pair_same_instance_and_valid():
    t1, t2 = generate_pair(GenSpec(seed=12, n_points=10), 77)
    assert t1.instance == t2.instance
    assert validate(t1) == []
    assert validate(t2) == []


def test_pair_deterministic():
    a1, a2 = generate_pair(GenSpec(seed=12, n_points=8), 77)
    b1, b2 = generate_pair(GenSpec(seed=12, n_points=8), 77)
    assert a1.edges == b1.edges
    assert a2.edges == b2.edges


def test_two_holes():
    inst = generate_instance(
        GenSpec(seed=4, n_points=11, shape="with_holes", holes=2)
    )
    assert inst.validate() == []
    assert inst.h == 2
    assert len(inst.border) == 3
