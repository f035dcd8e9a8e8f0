"""Survey of essential-nonclassicality criteria across benchmark states.

A two-mode state is essentially classical when its phase-averaged P
function over the Stokes vector is a probability density.  Negativity
of any of the moment-based witnesses below rules that out using only
photon statistics behind a beam splitter:

* normally ordered variances of e.S and of the total photon number,
* the determinant of the normally ordered photon-number covariance,
* determinants of 2x2 moment-generating-function matrices,
* the characteristic function bound |Phi(k)| <= Phi(0).

Coherent light passes every test (values pinned at zero); the
two-photon state |1,1> and the two-mode squeezed vacuum each fail
several.  A transmittance scan shows where the |1,1> determinant
witness switches on.

Run:  python3 demos/nonclassicality_scan.py
Writes transmittance_scan.csv (|T|^2, determinant for |1,1> at t = 2).
"""

import csv
import math

import numpy as np

from stokespace import (
    CoherentSpec,
    HomInputSpec,
    TmsvSpec,
    auto_cutoff,
    char_fn_criterion,
    cross_correlation_det,
    direction_from_tr,
    direction_to_beamsplitter,
    make_state,
    second_order_det,
    variance_criteria,
    verdict,
)


def battery(label, state, direction, probe):
    # probe = (t, tau, t2, tau2); unbounded states need |t| <= tau for the
    # moment-matrix sums to exist, so each state carries its own probe
    var = variance_criteria(state, direction)
    det = second_order_det(state, direction, *probe)
    cf = char_fn_criterion(state, direction)  # |k| = 1 along the axis
    print(f"  {label}")
    print(f"    var(e.S)        = {var.var_stokes:+.6f}")
    print(f"    var(N)          = {var.var_number:+.6f}")
    print(f"    matrix det      = {det:+.6f}   probe {probe}")
    print(f"    char fn bound   = {cf:+.6f}  [{verdict(cf)}]")
    # det cov(N, e.S) = 4 det cov(n_a, n_b) is the same witness
    print(f"    photon-photon   = {cross_correlation_det(state, direction):+.6f}")


def main():
    x_axis = direction_to_beamsplitter((1.0, 0.0, 0.0))
    z_axis = direction_to_beamsplitter((0.0, 0.0, 1.0))

    print("== criteria battery (negative value = nonclassical) ==")
    sharp = (math.sqrt(3.0), 0.0, 0.0, 0.0)  # fine for the bounded |1,1>
    damped = (-0.25, 0.25, 0.25, 0.25)  # photon-pair probe, always exists
    coh = make_state(CoherentSpec(1.0, 0.5), cutoff=30)
    battery("coherent(1.0, 0.5), x axis", coh, x_axis, damped)
    hom = make_state(HomInputSpec(), cutoff=2)
    battery("|1,1>, x axis", hom, x_axis, sharp)
    battery("|1,1>, z axis", hom, z_axis, sharp)
    # tight truncation: the characteristic-function probe amplifies the
    # Fock tail p(n, n) ~ 4^-n by (1 + k^2)^n = 2^n, so its error is about
    # the square root of the leakage; ask for leakage below 1e-20
    tmsv_spec = TmsvSpec(xi=math.atanh(0.5))
    tmsv = make_state(tmsv_spec, cutoff=auto_cutoff(tmsv_spec, bound=1e-20))
    battery("squeezed vacuum (tanh xi = 0.5), z axis", tmsv, z_axis, damped)
    print()

    print("== |1,1> determinant vs splitter transmittance at t = 2 ==")
    rows = []
    for trans in np.linspace(0.0, 1.0, 21):
        d = direction_from_tr(math.sqrt(float(trans)), math.sqrt(1.0 - float(trans)))
        det = second_order_det(hom, d, 2.0, 0.0, 0.0, 0.0)
        rows.append((float(trans), det))
    worst = min(rows, key=lambda r: r[1])
    for trans, det in rows[::5]:
        print(f"  |T|^2 = {trans:.2f}:  det = {det:+.4f}")
    print(f"  deepest violation at |T|^2 = {worst[0]:.2f} (det = {worst[1]:+.4f})")

    with open("transmittance_scan.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["transmittance", "determinant"])
        for trans, det in rows:
            w.writerow([f"{trans:.10g}", f"{det:.10g}"])
    print("\nwrote transmittance_scan.csv")


if __name__ == "__main__":
    main()
