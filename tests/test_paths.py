import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Path, chebyshev, concatenate, straight_path


class TestPath:
    def test_length(self):
        p = Path(1, ((0, 0), (1, 0), (1, 1)))
        assert p.length == 2

    def test_zero_steps_allowed(self):
        Path(1, ((0, 0), (0, 0), (1, 1)))

    def test_too_long_step(self):
        with pytest.raises(ValueError):
            Path(1, ((0, 0), (2, 0)))

    def test_off_grid_node(self):
        with pytest.raises(ValueError):
            Path(2, ((0, 0), (1, 0)))

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            Path(1, ())


class TestConcatenate:
    def test_trivial(self):
        p = Path(1, ((3, 4),))
        assert concatenate(p, p) == p

    def test_two_steps(self):
        p0 = Path(1, ((0, 0), (1, 0)))
        p1 = Path(1, ((1, 0), (1, 1)))
        assert concatenate(p0, p1).nodes == ((0, 0), (1, 0), (1, 1))

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            concatenate(Path(1, ((0, 0),)), Path(1, ((1, 1),)))

    def test_lengths_add_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(50):
            spacing = rng.choice((1, 2))
            nodes0 = [(0, 0)]
            for _ in range(rng.randrange(5)):
                nodes0.append(tuple(
                    c + spacing * rng.randint(-1, 1) for c in nodes0[-1]))
            nodes1 = [nodes0[-1]]
            for _ in range(rng.randrange(5)):
                nodes1.append(tuple(
                    c + spacing * rng.randint(-1, 1) for c in nodes1[-1]))
            p0, p1 = Path(spacing, tuple(nodes0)), Path(spacing, tuple(nodes1))
            assert concatenate(p0, p1).length == p0.length + p1.length


points2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
points3 = st.tuples(*([st.integers(-4, 4)] * 3))


class TestStraightPath:
    def test_degenerate(self):
        assert straight_path((0, 0), (0, 0), 1).nodes == ((0, 0),)

    def test_worked_example(self):
        # node 1 rounds 1/3 down, node 2 rounds 2/3 up
        path = straight_path((0, 0), (3, 1), 1)
        assert path.nodes == ((0, 0), (1, 0), (2, 1), (3, 1))

    def test_off_grid(self):
        with pytest.raises(ValueError):
            straight_path((1, 0), (4, 0), 2)

    @given(x=points2, z=points2, spacing=st.sampled_from((1, 3)))
    def test_exact_distances_to_endpoints(self, x, z, spacing):
        x = tuple(c * spacing for c in x)
        z = tuple(c * spacing for c in z)
        path = straight_path(x, z, spacing)
        k = chebyshev(x, z) // spacing
        assert path.length == k
        assert path.start == x and path.end == z
        for step, node in enumerate(path.nodes):
            assert chebyshev(node, x) == step * spacing
            assert chebyshev(node, z) == (k - step) * spacing

    @given(x=points3, z=points3)
    def test_steps_have_exact_size(self, x, z):
        path = straight_path(x, z, 1)
        for a, b in zip(path.nodes, path.nodes[1:]):
            assert chebyshev(a, b) == 1

    @given(x=points2, z=points2, y=points2)
    def test_box_confinement(self, x, z, y):
        bound = max(chebyshev(x, y), chebyshev(y, z))
        for node in straight_path(x, z, 1).nodes:
            assert chebyshev(node, y) <= bound

    @given(x=points2, z=points2)
    def test_reverse_is_valid_path_of_equal_length(self, x, z):
        forward = straight_path(x, z, 1)
        reverse = Path(1, tuple(reversed(forward.nodes)))
        assert reverse.length == forward.length
        assert reverse.start == z and reverse.end == x
