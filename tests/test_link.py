import marshal

import pytest

from wblinks import (
    BlowupVariety,
    DivContraction,
    Fibration,
    Link,
    Rejected,
    build_link,
    end_model,
    interior_walls,
    display_orientation,
    is_terminal_cqs,
    is_terminal_wps,
)
from wblinks.link import _link_fields, _link_from_fields
from reference import wall_flip_weights


@pytest.mark.parametrize("weights, end", [
    ((1, 2, 5, 17), DivContraction),
    ((1, 1, 1, 2), DivContraction),
    ((2, 3, 5, 5), Fibration),
])
def test_link_fields_round_trip_through_marshal(weights, end):
    """A forked scan sends each link as its fields; the parent rebuilds the same link."""
    link = build_link(weights, 4)
    assert type(link.end) is end
    data = marshal.dumps(_link_fields(link))
    assert _link_from_fields(marshal.loads(data)) == link


def test_interior_walls():
    assert interior_walls(BlowupVariety(3, (1, 2, 3))) == [1]
    assert interior_walls(BlowupVariety(4, (2, 3, 5, 5))) == [2, 3]
    assert interior_walls(BlowupVariety(4, (1, 1, 1, 2))) == []
    assert interior_walls(BlowupVariety(3, (1, 1, 1))) == []


class TestWallFlipWeights:
    def test_generic_triple(self):
        T = BlowupVariety(3, (1, 2, 3))
        assert wall_flip_weights(T, 1) == (-1, -1, 1, 2)

    def test_strictly_increasing_quadruple(self):
        # (a,b,c,d) strict at v=a gives {-1,-a,b-a,c-a,d-a}
        T = BlowupVariety(4, (2, 3, 5, 7))
        assert wall_flip_weights(T, 2) == tuple(sorted([-1, -2, 1, 3, 5]))
        assert wall_flip_weights(T, 3) == tuple(sorted([-1, -3, -1, 2, 4]))

    def test_repeated_wall_value_leaves_zero(self):
        T = BlowupVariety(4, (1, 1, 2, 2))
        assert wall_flip_weights(T, 1) == (-1, -1, 0, 1, 1)

    def test_not_a_wall(self):
        with pytest.raises(ValueError):
            wall_flip_weights(BlowupVariety(3, (1, 2, 3)), 2)

    def test_display_orientation(self):
        assert display_orientation((-1, -1, 1, 2)) == (1, 1, -1, -2)
        assert display_orientation((-1, -1, 1, 4)) == (1, 1, -1, -4)


class TestEndModel:
    def test_divisorial_contraction_family(self):
        # (1,1,2,d) contracts to P(1,d,d-1,d-1,d-2) at a point
        for d in range(3, 7):
            end = end_model(BlowupVariety(4, (1, 1, 2, d)))
            assert isinstance(end, DivContraction)
            assert end.target_weights == tuple(sorted([1, d, d - 1, d - 1, d - 2]))
            assert end.center_dim == 0
            assert end.center_index == d - 2

    def test_fibration(self):
        end = end_model(BlowupVariety(4, (2, 3, 5, 5)))
        assert end == Fibration(base_dim=1, fiber_weights=(1, 2, 3, 5))

    def test_contraction_to_plane(self):
        end = end_model(BlowupVariety(4, (1, 1, 1, 2)))
        assert isinstance(end, DivContraction)
        assert end.target_weights == (1, 1, 1, 1, 2)
        assert end.center_dim == 2
        assert end.center_index == 1

    def test_ordinary_blowup_is_conic_bundle(self):
        end = end_model(BlowupVariety(3, (1, 1, 1)))
        assert end == Fibration(base_dim=2, fiber_weights=(1, 1))


class TestBuildLink:
    def test_123(self):
        res = build_link([1, 2, 3], 3)
        assert isinstance(res, Link)
        assert len(res.steps) == 1
        assert res.steps[0].wall == 1
        assert res.steps[0].flip_weights == (-1, -1, 1, 2)
        assert res.end == DivContraction(
            target_weights=(1, 1, 2, 3), center_dim=0, center_index=1
        )

    def test_125(self):
        res = build_link([1, 2, 5], 3)
        assert isinstance(res, Link)
        assert res.steps[0].flip_weights == (-1, -1, 1, 4)
        assert res.end == DivContraction(
            target_weights=(1, 3, 4, 5), center_dim=0, center_index=3
        )

    def test_134_rejected_at_wall(self):
        res = build_link([1, 3, 4], 3)
        assert res == Rejected(
            stage="wall_not_terminal", wall=1, detail="flip_weights=(-1, -1, 2, 3)"
        )

    def test_1122_flop_then_fibration(self):
        res = build_link([1, 1, 2, 2], 4)
        assert isinstance(res, Link)
        assert [s.wall for s in res.steps] == [1]
        assert res.steps[0].flip_weights == (-1, -1, 0, 1, 1)
        assert res.end == Fibration(base_dim=1, fiber_weights=(1, 1, 1, 2))

    def test_2355_two_flips_then_fibration(self):
        res = build_link([2, 3, 5, 5], 4)
        assert isinstance(res, Link)
        assert [s.wall for s in res.steps] == [2, 3]
        assert res.steps[0].flip_weights == tuple(sorted([-1, -2, 1, 3, 3]))
        assert res.steps[1].flip_weights == tuple(sorted([-1, -3, -1, 2, 2]))
        assert res.end == Fibration(base_dim=1, fiber_weights=(1, 2, 3, 5))

    def test_1125_contraction(self):
        res = build_link([1, 1, 2, 5], 4)
        assert isinstance(res, Link)
        assert res.end == DivContraction(
            target_weights=(1, 3, 4, 4, 5), center_dim=0, center_index=3
        )

    def test_rejections_are_stable(self):
        for ws, dim in [([1, 3, 4], 3), ([2, 3, 5], 3), ([1, 1, 2, 7], 4)]:
            first = build_link(ws, dim)
            assert isinstance(first, Rejected)
            for _ in range(3):
                assert build_link(ws, dim) == first

    def test_permutation_invariant(self):
        assert build_link([5, 2, 1], 3) == build_link([1, 2, 5], 3)
        assert build_link([5, 3, 5, 2], 4) == build_link([2, 3, 5, 5], 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_link((1, 2, 5.5), 3),
        lambda: is_terminal_cqs([2.7, 1, 1], 5),
        lambda: is_terminal_cqs([2, 1, 1], 5.9),
        lambda: is_terminal_wps(["3", 2]),
        lambda: BlowupVariety(3.0, (1, 2, 3)),
    ],
    ids=["link-weight", "cqs-weight", "cqs-index", "wps-string", "blowup-dim"],
)
def test_non_integers_raise_type_error(call):
    """Weights, indices and dims are never truncated or parsed into integers."""
    with pytest.raises(TypeError):
        call()
