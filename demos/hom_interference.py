"""Hong-Ou-Mandel interference read off the Stokes-space MGF.

Two single photons meeting at a beam splitter bunch: the coincidence
rate vanishes and both photons leave through the same port.  In the
Stokes picture the same physics shows up twice over:

* the moment-generating function M(t e; 0) at t = 1 vanishes at the
  poles e = (0, 0, +-1) and peaks at 2 on the equator (a torus-shaped
  surface with a node on the polar axis), and
* the second-order moment matrix determinant turns negative once the
  probe amplitude t passes sqrt(2), certifying that no classical mixture
  of coherent beams reproduces the statistics.

Run:  python3 demos/hom_interference.py
Writes hom_determinant.csv (t, determinant at a balanced splitter).
"""

import csv
import math

import numpy as np

from stokespace import (
    HomInputSpec,
    MgfQuery,
    direction_to_beamsplitter,
    joint_photon_distribution,
    make_state,
    mgf,
    second_order_det,
)


def main():
    state = make_state(HomInputSpec(), cutoff=2)

    print("== photon bunching at a balanced splitter ==")
    balanced = direction_to_beamsplitter((1.0, 0.0, 0.0))
    dist = joint_photon_distribution(state, balanced)
    for (na, nb), p in [((1, 1), dist.p[1, 1]), ((2, 0), dist.p[2, 0]),
                        ((0, 2), dist.p[0, 2])]:
        print(f"  p({na},{nb}) = {p:.6f}")
    print("  coincidences vanish; both photons exit one port.\n")

    print("== MGF surface M(e; 0) at t = 1: node on the polar axis ==")
    for ez in (1.0, 0.7, 0.0, -0.7, -1.0):
        e = (math.sqrt(1.0 - ez * ez), 0.0, ez)
        d = direction_to_beamsplitter(e)
        val = mgf(state, MgfQuery(d, 1.0, 0.0)).real
        print(f"  e_z = {ez:+.1f}:  M = {val:.6f}   (2 - 2 e_z^2 = {2 - 2 * ez * ez:.6f})")
    print()

    print("== moment-matrix determinant vs probe amplitude ==")
    print("  balanced splitter, points (t, 0) and (0, 0); negative values")
    print("  are impossible for classical light")
    ts = np.linspace(0.0, 2.5, 26)
    dets = second_order_det(dist, balanced, ts, 0.0, 0.0, 0.0)  # one kernel sum
    for t in (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0):
        det = second_order_det(dist, balanced, t, 0.0, 0.0, 0.0)
        tag = "nonclassical" if det < -1e-9 else "inconclusive"
        print(f"  t = {t:.4f}:  det = {det:+.6f}  ({tag})")
    print("  the sign flips exactly at t = sqrt(2) ~ 1.4142")

    with open("hom_determinant.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "determinant"])
        for t, det in zip(ts, dets):
            w.writerow([f"{t:.10g}", f"{det:.10g}"])
    print("\nwrote hom_determinant.csv")


if __name__ == "__main__":
    main()
