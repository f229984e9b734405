import pytest

import crystalflex as cf


def test_kagome_three_by_three_counts(kagome):
    svg = cf.render_svg(kagome, [(0, 3), (0, 3)])
    assert svg.count("<line") == 54
    assert svg.count("<circle") == 27
    assert svg.count("<polygon") == 1


def test_square_grid_single_cell(square_grid):
    svg = cf.render_svg(square_grid, [(0, 1), (0, 1)])
    assert svg.count("<circle") == 1
    assert svg.count("<line") == 2
    # both bars leave the cell, so no internal segments
    assert svg.count('class="edge"') == 0
    assert svg.count('class="edge dangling"') == 2


def test_three_dimensional_framework_rejected(hexahedron):
    with pytest.raises(ValueError, match="2-dimensional"):
        cf.render_svg(hexahedron, [(0, 1), (0, 1)])


def test_output_is_deterministic(kagome):
    a = cf.render_svg(kagome, [(0, 2), (0, 2)])
    b = cf.render_svg(kagome, [(0, 2), (0, 2)])
    assert a == b


def test_empty_range_rejected(kagome):
    with pytest.raises(ValueError, match="empty"):
        cf.render_svg(kagome, [(0, 0), (0, 1)])


def test_wrong_range_count_rejected(kagome):
    with pytest.raises(ValueError, match="need 2 cell ranges, got 1"):
        cf.render_svg(kagome, [(0, 1)])


def test_internal_count_matches_fragment(kagome):
    svg = cf.render_svg(kagome, [(0, 3), (0, 3)])
    frag = cf.fragment(kagome, [(0, 3), (0, 3)])
    assert svg.count('class="edge"') == len(frag.edges)


def test_is_valid_xml(kagome):
    import xml.etree.ElementTree as ET

    root = ET.fromstring(cf.render_svg(kagome, [(0, 2), (0, 2)]))
    assert root.tag.endswith("svg")
