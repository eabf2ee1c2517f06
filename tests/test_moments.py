import math

import numpy as np
import pytest

from psdcomplete import (
    DegeneratePolygon,
    IndexUndefined,
    InputError,
    LatticePolygon,
    MomentOperator,
    NotSymmetric,
    boundary_lattice_points,
    moment_basis,
    moment_representable,
    point_evaluation_vector,
    toric_gl_index,
    toric_hankel_lower_bound,
)


def dilated_triangle(d):
    return LatticePolygon(((0, 0), (d, 0), (0, d)))


def rectangle(a, b):
    return LatticePolygon(((0, 0), (a, 0), (a, b), (0, b)))


def brute_boundary_count(vertices):
    """Scan the bounding box and count lattice points lying on some edge."""
    vs = list(vertices)
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    count = 0
    for px in range(min(xs), max(xs) + 1):
        for py in range(min(ys), max(ys) + 1):
            on = False
            for i in range(len(vs)):
                ax, ay = vs[i]
                bx, by = vs[(i + 1) % len(vs)]
                cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
                if cross != 0:
                    continue
                if min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by):
                    on = True
                    break
            if on:
                count += 1
    return count


def convex_hull(points):
    """Monotone chain returning strictly convex hull vertices, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def test_polygon_validation():
    with pytest.raises(DegeneratePolygon):
        LatticePolygon(((0, 0), (1, 0)))
    with pytest.raises(DegeneratePolygon):
        LatticePolygon(((0.5, 0), (1, 0), (0, 1)))
    with pytest.raises(DegeneratePolygon):
        LatticePolygon(((0, 0), (1, 0), (1, 0), (0, 1)))
    # clockwise order turns right
    with pytest.raises(DegeneratePolygon):
        LatticePolygon(((0, 0), (0, 1), (1, 0)))
    # collinear middle vertex
    with pytest.raises(DegeneratePolygon):
        LatticePolygon(((0, 0), (1, 0), (2, 0), (0, 2)))
    # pentagram: every turn is strictly left but the path winds twice
    with pytest.raises(DegeneratePolygon):
        LatticePolygon(((3, 0), (-2, 2), (1, -3), (1, 3), (-2, -2)))


def test_boundary_counts_frozen():
    for d in range(1, 11):
        assert boundary_lattice_points(dilated_triangle(d)) == 3 * d
    for a in range(1, 6):
        for b in range(1, 6):
            assert boundary_lattice_points(rectangle(a, b)) == 2 * a + 2 * b
    # interior lattice structure is irrelevant, only edges count
    skew = LatticePolygon(((0, 0), (4, 1), (3, 5)))
    assert boundary_lattice_points(skew) == brute_boundary_count(skew.vertices)


def test_boundary_count_matches_brute_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        pts = [tuple(int(v) for v in rng.integers(-6, 7, size=2)) for _ in range(8)]
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        poly = LatticePolygon(tuple(hull))
        assert boundary_lattice_points(poly) == brute_boundary_count(poly.vertices)
        checked += 1


def test_boundary_count_invariances():
    base = LatticePolygon(((0, 0), (3, 1), (2, 4), (-1, 3)))
    b = boundary_lattice_points(base)
    shifted = LatticePolygon(tuple((x + 7, y - 5) for x, y in base.vertices))
    assert boundary_lattice_points(shifted) == b
    sheared = LatticePolygon(tuple((x + y, y) for x, y in base.vertices))
    assert boundary_lattice_points(sheared) == b
    # the eight symmetries of the lattice; reflections reverse orientation,
    # so their vertex sequences are flipped to stay counterclockwise
    symmetries = [
        (lambda x, y: (x, y), False),
        (lambda x, y: (-y, x), False),
        (lambda x, y: (-x, -y), False),
        (lambda x, y: (y, -x), False),
        (lambda x, y: (y, x), True),
        (lambda x, y: (-x, y), True),
        (lambda x, y: (x, -y), True),
        (lambda x, y: (-y, -x), True),
    ]
    for mapping, flip in symmetries:
        vs = tuple(mapping(x, y) for x, y in base.vertices)
        if flip:
            vs = tuple(reversed(vs))
        assert boundary_lattice_points(LatticePolygon(vs)) == b


def test_toric_indices():
    for d in range(2, 8):
        p = dilated_triangle(d)
        assert toric_gl_index(p) == 3 * d - 3
        assert toric_hankel_lower_bound(p) == 3 * d - 2
    assert toric_gl_index(rectangle(2, 3)) == 7
    assert toric_hankel_lower_bound(rectangle(2, 3)) == 8
    unit = dilated_triangle(1)
    with pytest.raises(IndexUndefined):
        toric_gl_index(unit)
    with pytest.raises(IndexUndefined):
        toric_hankel_lower_bound(unit)


def test_moment_basis_order_and_size():
    assert moment_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert moment_basis(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    ]
    for n in range(1, 5):
        for d in range(1, 5):
            basis = moment_basis(n, d)
            assert len(basis) == math.comb(n + d - 1, d)
            assert all(sum(e) == d for e in basis)
            assert basis == sorted(basis, reverse=True)
    with pytest.raises(InputError):
        moment_basis(0, 2)


def test_point_evaluation_vector():
    v = point_evaluation_vector((2.0, 3.0), 2)
    assert np.allclose(v, [4.0, 6.0, 9.0])
    v = point_evaluation_vector((1.0, 2.0, -1.0), 2)
    # basis (2,0,0),(1,1,0),(1,0,1),(0,2,0),(0,1,1),(0,0,2)
    assert np.allclose(v, [1.0, 2.0, -1.0, 4.0, -2.0, 1.0])


def test_moment_operator_validation():
    with pytest.raises(InputError):
        MomentOperator(np.eye(5), num_vars=3, degree=2)
    with pytest.raises(NotSymmetric):
        MomentOperator(np.triu(np.ones((6, 6))), num_vars=3, degree=2)
    op = MomentOperator(np.eye(6), num_vars=3, degree=2)
    assert op.matrix.shape == (6, 6)


def atomic_operator(rng, num_atoms, num_vars=3, degree=2):
    size = math.comb(num_vars + degree - 1, degree)
    mat = np.zeros((size, size))
    for _ in range(num_atoms):
        pt = rng.uniform(-2.0, 2.0, size=num_vars)
        v = point_evaluation_vector(pt, degree)
        mat += rng.uniform(0.2, 2.0) * np.outer(v, v)
    return MomentOperator(mat, num_vars=num_vars, degree=degree)


def test_moment_representable_atoms():
    rng = np.random.default_rng(11)
    bound = toric_hankel_lower_bound(dilated_triangle(2))
    for atoms in (1, 2, 3):
        for _ in range(25):
            op = atomic_operator(rng, atoms)
            assert moment_representable(op, bound) == "representable"


def test_moment_representable_monotone_in_bound():
    rng = np.random.default_rng(13)
    ops = [atomic_operator(rng, atoms) for atoms in (1, 2, 3, 5)]
    ops.append(MomentOperator(np.eye(6), 3, 2))
    for op in ops:
        verdicts = [moment_representable(op, bound) for bound in range(2, 9)]
        if "representable" in verdicts:
            first = verdicts.index("representable")
            assert all(v == "representable" for v in verdicts[first:])


def test_moment_representable_other_verdicts():
    bound = toric_hankel_lower_bound(dilated_triangle(2))
    assert moment_representable(MomentOperator(np.eye(6), 3, 2), bound) == "indeterminate"
    flipped = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    assert moment_representable(MomentOperator(flipped, 3, 2), bound) == "not_psd"
    # a tiny negative eigenvalue within tolerance is not flagged
    dented = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, -1e-13])
    assert moment_representable(MomentOperator(dented, 3, 2), bound) == "representable"
    with pytest.raises(InputError):
        moment_representable(MomentOperator(np.eye(6), 3, 2), 1)
    with pytest.raises(InputError):
        moment_representable(MomentOperator(np.eye(6), 3, 2), 4.0)
