import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestgen import templates

import scalar_reference as ref

# the tube arguments of every built-in library preset
PRESET_TUBES = {
    "tiny": [(0.05, 0.02, 1.0, 6, 2, 0.0, "trunk"), (0.035, 0.012, 1.0, 5, 2, 20.0, "branch"),
             (0.022, 0.008, 1.0, 4, 1, 28.0, "sub_branch")],
    "normal": [(0.05, 0.02, 1.0, 12, 8, 0.0, "trunk"), (0.035, 0.012, 1.0, 10, 6, 22.0, "branch"),
               (0.022, 0.008, 1.0, 8, 4, 30.0, "sub_branch")],
    "fine": [(0.05, 0.02, 1.0, 50, 99, 0.0, "trunk"), (0.035, 0.012, 1.0, 24, 20, 22.0, "branch"),
             (0.022, 0.008, 1.0, 16, 12, 30.0, "sub_branch")],
}


def assert_same_tube(args):
    mesh, expected = templates.tapered_tube(*args), ref.tapered_tube(*args)
    assert mesh.name == expected.name
    assert mesh.facets.shape == expected.facets.shape
    assert mesh.facets.tobytes() == expected.facets.tobytes()


@pytest.mark.parametrize("detail", sorted(PRESET_TUBES))
def test_library_tubes_match_scalar_reference(detail):
    lib = templates.default_library(detail)
    for args in PRESET_TUBES[detail]:
        assert_same_tube(args)
        assert lib.template(args[-1]).facets.tobytes() == ref.tapered_tube(*args).facets.tobytes()


@given(base=st.floats(1e-3, 10.0), tip=st.floats(0.0, 10.0), height=st.floats(1e-2, 100.0),
       segments=st.integers(3, 64), rings=st.integers(1, 40),
       bend=st.sampled_from([-0.0, 0.0, -45.0, 180.0, 360.0, 725.0]) | st.floats(-1080.0, 1080.0))
@example(base=0.05, tip=0.02, height=1.0, segments=7, rings=3, bend=-0.0)
@example(base=0.05, tip=0.02, height=1.0, segments=3, rings=1, bend=-45.0)
@settings(max_examples=80, deadline=None)
def test_tube_matches_scalar_reference(base, tip, height, segments, rings, bend):
    assert_same_tube((base, tip, height, segments, rings, bend, "tube"))
    triangles = 2 * segments * rings + 2 * segments
    assert len(templates.tapered_tube(base, tip, height, segments, rings, bend)) == triangles


@pytest.mark.parametrize("segments, rings", [(2, 1), (3, 0)])
def test_tube_refuses_too_few_segments_or_rings(segments, rings):
    with pytest.raises(ValueError, match="at least 3 segments and 1 ring"):
        templates.tapered_tube(0.05, 0.02, 1.0, segments, rings)
