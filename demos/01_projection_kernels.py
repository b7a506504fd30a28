"""The projection kernel: halfspaces, polyhedra, and the KKT certificate.

Run:  python demos/01_projection_kernels.py
"""

from epscut import CutPolyhedron, check_variational_inequality, project_polyhedron

# A polyhedron {x : A x <= b} is given by its (k, n) normal matrix A and its
# k offsets b. A halfspace {x : <a, x> <= b} is the one-row case: points
# inside are fixed, points outside land on the bounding hyperplane, at
# x - (<a, x> - b) / ||a||^2 * a.
h = CutPolyhedron([[1.0, 0.0]], [1.0])   # x1 <= 1
print("project (2,0) onto {x1 <= 1}:   ", project_polyhedron([2.0, 0.0], h).point)
print("project (0.5,0.5) (interior):   ", project_polyhedron([0.5, 0.5], h).point)

# With more rows the projection is an exact small dense QP solved by a dual
# active-set method; the result carries the active constraints and their
# nonnegative multipliers.
P = CutPolyhedron(
    [[1.0, 0.0],    # x1 <= 0
     [0.0, 1.0]],   # x2 <= 0
    [0.0, 0.0],
)
res = project_polyhedron([1.0, 1.0], P)
print("\nproject (1,1) onto the negative quadrant:")
print("  point      ", res.point)
print("  active set ", res.active_set)
print("  multipliers", res.multipliers)

# KKT reconstruction: x0 - point = sum of multipliers * normals.
recon = res.point + sum(
    lam * P.normals[j] for j, lam in zip(res.active_set, res.multipliers)
)
print("  reconstructed x0:", recon)

# The projection x1 of x0 satisfies <x0 - x1, y - x1> <= 0 for every
# feasible y. The checker samples feasible points and reports the worst
# inner product (nonpositive means the property held on every sample).
report = check_variational_inequality([1.0, 1.0], res, P, samples=500, seed=0)
print("\nvariational inequality over 500 sampled feasible points:")
print("  max <x0-x1, y-x1> =", report.max_violation)
