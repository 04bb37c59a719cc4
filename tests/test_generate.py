import hashlib

import pytest

from flipdist.errors import InfeasibleSpec
from flipdist.formats import serialize_instance
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


# SHA-256 of serialize_instance(generate_instance(spec)) for (seed, n_points,
# shape, holes, interior_points): every shape, h = 1-3, interior points, n up
# to 64, and the fixed convex pairs of perfbench's morph_large.  A change to
# the generator must accept and reject the same draws, so the bytes of every
# spec stay the same.
_PINNED = (
    (1, 3, "convex_gon", 0, 0,
     "6ac46263b7da4b1a2ceadd4381c6b0139ee7e18d53f6547e8390e5bab905ade8"),
    (2, 10, "convex_gon", 0, 0,
     "324c9663644bcc331a64bf607a424bf2fd6d75b09dc42e899c22c65272f6ed06"),
    (3, 16, "convex_gon", 0, 4,
     "887a038a88a744591b355ff7a3ce756778b35dc9e23d2371ef60a17fd4bbc949"),
    (4, 64, "convex_gon", 0, 0,
     "f8160ed0eac363095e6f2cb60bd58ac8db6c778042483686c0acda215abcb7da"),
    (1, 6, "random_simple_border", 0, 0,
     "2c14817b18d68b9554648b22c3652e2cfc02c62a45c89ad039f8e99f5d0adc71"),
    (2, 14, "random_simple_border", 0, 2,
     "ba5cd42f3e3ff1221838d8f8d1b5d52066c1208257d116b5ee9945fa61c4445c"),
    (3, 24, "random_simple_border", 0, 0,
     "26218c8fd9255f818c55e6f91af76849c2e7420c0cd1412adba460c4a2ce9d5a"),
    (4, 40, "random_simple_border", 0, 8,
     "895f19abc1d108140f2fa27381f1a0bb8c33b200c1492690007fdf61461c5540"),
    (1, 7, "with_holes", 1, 0,
     "92406cb6a22b895eaf740c021f5cdd70cb48cb2b9c8164389c47e7af7277f45d"),
    (2, 12, "with_holes", 1, 2,
     "8c7f6131371a9bbcb95656705138150339fb0e90a8cb35d27981e2633a462ab6"),
    (3, 21, "with_holes", 2, 1,
     "640c40b11a153f662ce96ed8e25d87ea76c10e42aee45a70ab301a1d343da774"),
    (4, 30, "with_holes", 2, 6,
     "0ac21b2a335b0ed722bbfc2f6e788e6609aaf2490d8da1d9d42d574eadcd142a"),
    (5, 24, "with_holes", 3, 1,
     "a811ddf10d921f6fc3ff3d4b839e6ac71b2c266f86720a358e16ec78b9f526cf"),
    (6, 48, "with_holes", 3, 10,
     "47213b444cdce421f36a24318e4a9a20663871aec31449d6d509d432493ff19f"),
    (7, 64, "with_holes", 3, 16,
     "600d19596ca555153954e933f3e2c55a03898eedd42d09f21a7eff7a6b5bb5cb"),
    (8, 22, "convex_gon", 0, 5,
     "4b5a020f73feeb2f79101156cdc37f1b894cf557c0fde1228496b1979fd487a3"),
    (9, 30, "random_simple_border", 0, 6,
     "235b893723e92cdaebef17c413504ea622a8e2492811c2fbb60b4cc6854ff307"),
    (10, 20, "with_holes", 1, 4,
     "bc15d127f276f970fec34ba8310c9d536bd41cf214a1b1484b13be5fbc88d404"),
    (11, 12, "convex_gon", 0, 3,
     "48d25085807cf958d8f3238f4cf5723f90e824b30d192400aeb9d85b6884f2a3"),
    (12, 9, "random_simple_border", 0, 0,
     "db2f24d18cbead39d6f5e6f077d19646110083d4ffcedc7da413a45ec6ff7622"),
    (4006, 40, "convex_gon", 0, 10,
     "3629c03858aaa158eef9e63e15c10ab110db10552ff0d4c04cf7f7c72c0e57b6"),
    (4011, 40, "convex_gon", 0, 10,
     "41742d9e478b1982f427d4f8f3b9e6bf6bee217ef1440b98e04be2e0a1996ac7"),
    (4806, 48, "convex_gon", 0, 12,
     "116cf3c7c4e16d179049e012af79fad476eb5fff9f8035beff1f5fedaeb5adfd"),
    (4807, 48, "convex_gon", 0, 12,
     "33425dd6442077ff01e1cceabf3e7c3f030f7124a5c70fc7c74d35fb8d63abf1"),
    (5608, 56, "convex_gon", 0, 14,
     "27dc303b77f8ac19bcc2a06c1f8a7a5e0c0e6a29492b6b79b9695a709cd51bc3"),
    (5611, 56, "convex_gon", 0, 14,
     "571111f8a88d30950618f3496bc5f3c2b254c9b103a84032276117e1ea02e34a"),
    (6006, 60, "convex_gon", 0, 15,
     "acb639179e6c153c3c2d1a3a74e9c41e600af4bf7733079db0eef70a21f964fb"),
    (6008, 60, "convex_gon", 0, 15,
     "c298d6784cbef987900d0c38b1273bd4baf4f8b38689005e9920d15f9e7b9f31"),
    (6403, 64, "convex_gon", 0, 16,
     "1b9f2e2e14aae189c7e9a8bf533b42cfa2f87f1925659379ed83cc32138cd511"),
    (6404, 64, "convex_gon", 0, 16,
     "c89cd685c83521d49c5b7c4842f2b939c5773441657beeab6e0e69ab99e40e8d"),
)


@pytest.mark.parametrize("seed, n, shape, holes, interior, digest", _PINNED)
def test_generated_bytes_are_pinned(seed, n, shape, holes, interior, digest):
    spec = GenSpec(
        seed=seed, n_points=n, shape=shape, holes=holes, interior_points=interior
    )
    data = serialize_instance(generate_instance(spec))
    assert hashlib.sha256(data).hexdigest() == digest
