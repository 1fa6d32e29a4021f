"""Unit tests for deterministic named RNG streams."""

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "faults") == derive_seed(7, "faults")

    def test_varies_with_name(self):
        assert derive_seed(7, "faults") != derive_seed(7, "placement")

    def test_varies_with_root(self):
        assert derive_seed(7, "faults") != derive_seed(8, "faults")

    def test_is_64_bit(self):
        seed = derive_seed(123456789, "some-long-stream-name")
        assert 0 <= seed < 2**64


class TestRngRegistry:
    def test_same_name_returns_same_generator(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        reg1 = RngRegistry(5)
        a_first = reg1.stream("a").uniform()
        reg1.stream("b")

        reg2 = RngRegistry(5)
        reg2.stream("b")  # create b first this time
        a_second = reg2.stream("a").uniform()
        assert a_first == a_second

    def test_different_roots_different_draws(self):
        a = RngRegistry(1).stream("s").uniform()
        b = RngRegistry(2).stream("s").uniform()
        assert a != b

