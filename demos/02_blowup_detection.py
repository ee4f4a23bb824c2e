"""Show the adaptive integrator finding a pole it can never reach.

A finite-time blow-up cannot be integrated through.  ``integrate``
stops where the level crosses a threshold; ``estimate_blowup_time``
steps on a log-level clock, on which the pole sits at infinity, and
reads the time the rest of the climb adds from the shrinking time each
decade of the clock takes, then brackets the asymptote and reports an
estimate with its method.
"""

import numpy as np

from blowuplab import (
    IntegrationOptions,
    VectorField,
    estimate_blowup_time,
    integrate,
    parse,
    to_field,
)


def scalar_field(fn):
    return VectorField(
        dimension=1,
        rate=lambda s: np.atleast_1d(np.asarray(fn(s[0]), dtype=float)),
        names=("A",))


def show(event, exact):
    print(f"  bracket   [{event.t_low:.9f}, {event.t_high:.9f}]")
    print(f"  estimate  {event.estimate:.9f}   (method: {event.method})")
    print(f"  exact     {exact:.9f}   |error| = {abs(event.estimate - exact):.2e}")


def main() -> None:
    print("hyperbolic law dA/dt = 0.01*A^2 from A0 = 1 (pole at t = 100):")
    field = scalar_field(lambda a: 0.01 * a * a)
    trajectory = integrate(field, [1.0], 150.0)
    print(f"  integration stops at t = {trajectory.times[-1]:.6f} with "
          f"A = {trajectory.states[-1, 0]:.3e}")
    show(estimate_blowup_time(field, [1.0], 150.0), 100.0)
    print()

    print("cubic law dA/dt = A^3 from A0 = 1 (pole at t = 0.5):")
    print("  each decade of A takes a hundredth of the time the one before,")
    print("  so the time left rounds to 0 after a few decades of the clock:")
    show(estimate_blowup_time(scalar_field(lambda a: a ** 3), [1.0], 2.0), 0.5)
    print()

    print("the same works for systems written in the little equation language:")
    field = to_field(parse("dY = k1*Y*A; dA = k2*Y*A"), {"k1": 0.05, "k2": 0.1})
    event = estimate_blowup_time(field, [0.5, 1.0], 30.0)
    print("  dY = k1*Y*A; dA = k2*Y*A with k1=0.05, k2=0.1, Y0=0.5, A0=1")
    show(event, 20.0)
    print()

    print("and a law that crosses the threshold without a pole is not fooled:")
    event = estimate_blowup_time(scalar_field(lambda a: a), [1.0], 60.0)
    print(f"  dA/dt = A reaches 1e9 around t = 20.7; "
          f"estimate_blowup_time returns {event!r}")


if __name__ == "__main__":
    main()
