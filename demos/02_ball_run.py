"""Solving f(x) = ||x||^2 - 1 <= 0 from (2, 0), with and without the shift.

Run:  python demos/02_ball_run.py
"""

from epscut import (
    BallProblem,
    EpsilonSchedule,
    SolveOptions,
    solve,
)

problem = BallProblem([0.0, 0.0], 1.0)
opts = SolveOptions(
    schedule=EpsilonSchedule.harmonic(eps0=0.1, p=1.0),
    record_sublevel_distance=True,
)

# The shifted run: each cut demands f(x_i) + <s, x - x_i> <= -eps_i, with
# eps_i = 0.1/(i+1) shrinking slower than any geometric sequence. The first
# iterate with f <= 0 ends the run.
trace = solve(problem, [2.0, 0.0], opts)
print(f"shifted run: {trace.status.value} at i={trace.status_iteration}, "
      f"f={trace.final_f:.6g}\n")
print(f"{'i':>3} {'eps_i':>10} {'f(x_i)':>12} {'step':>10} {'d(x_i,S_eps)':>13}")
for r in trace.rows:
    print(f"{r.i:>3} {r.eps_i:>10.5f} {r.f_xi:>12.6f} "
          f"{r.step_norm:>10.6f} {r.dist_sublevel:>13.6g}")

# The zero-shift baseline uses the plain linearization cut
# f(x_i) + <s, x - x_i> <= 0: a constant schedule of zero shifts. On a
# strictly convex instance its cut boundary stays strictly outside the
# sublevel set. In floating point the iterates stop moving just outside the
# boundary: from (2, 0) the run stops at i = 5 with f = 2.2e-15, lies inside
# its own cut from then on, repeats that row and ends MaxIterExceeded.
baseline = solve(
    problem, [2.0, 0.0],
    SolveOptions(schedule=EpsilonSchedule.constant_for_testing(0.0), max_iter=1000,
                 record_sublevel_distance=True),
)
worst = min(r.f_xi for r in baseline.rows)
print(f"\nzero-shift baseline: {baseline.status.value} after "
      f"{len(baseline.rows) - 1} iterations; min f over the run = {worst:.3e}"
      " (never feasible)")
