"""Walk through the two-phase growth scenario with closed forms only.

Phase 1: a level driven externally at annual factor R until it reaches
the driver's capability I.  Phase 2: self-referential hyperbolic growth
dA/dt = k*A**2 from that level, which hits a finite-time pole.  All
numbers here come from the closed-form module; nothing is integrated.
"""

import math

from blowuplab import (
    calibrate_k,
    exp_phase_solution,
    hyperbolic_blowup_time,
    hyperbolic_solution,
    loglaw_solution,
    phase1_duration,
    powerlaw_blowup_time,
    total_singularity_time,
)

R = 1.5872
I = 100.0


def main() -> None:
    k = calibrate_k(R, I)
    t1 = phase1_duration(R, I)
    t2 = hyperbolic_blowup_time(k, I).t_star
    t_s = total_singularity_time(R, I)

    print(f"inputs: annual growth factor R = {R}, capability ratio I = {I:g}")
    print(f"calibrated coefficient k = ln(R)/I = {k:.8f}")
    print(f"phase 1 (exponential) lasts t1 = ln(I)/ln(R) = {t1:.4f} periods")
    print(f"phase 2 (hyperbolic) adds t2 = 1/(k*I) = {t2:.4f} periods")
    print(f"total time to the singularity: t_s = t1 + t2 = {t_s:.4f}")
    print()

    print("phase 1 checkpoints (A = R**t):")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * t1
        print(f"  t = {t:7.3f}   A = {exp_phase_solution(k, I, t):10.3f}")
    print()

    print("phase 2 checkpoints (A = I / (1 - k*I*t), clock restarted):")
    for frac in (0.0, 0.5, 0.9, 0.99, 0.999):
        t = frac * t2
        print(f"  t = {t:7.4f}   A = {hyperbolic_solution(k, I, t):14.1f}")
    print()

    print("how the exponent changes the story (k = 0.01, I = 100):")
    for n in (1.0001, 1.5, 2.0, 3.0, 10.0):
        t_star = powerlaw_blowup_time(0.01, 100.0, n).t_star
        print(f"  dA/dt = k*A^{n:<6g} blows up at t* = {t_star:.4g}")
    print("  dA/dt = k*ln(A)*A never does: A(t) = exp(exp(k*t)) stays finite")
    print(f"    for every finite t, e.g. A(50) = "
          f"{loglaw_solution(0.0, 0.02, 50.0):.3f} from A(0) = {math.e:.3f}")


if __name__ == "__main__":
    main()
