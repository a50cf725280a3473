"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible under pytest -s or in
the captured output of a failure) and asserts both the bound and the
stated runtime budget.
"""

import math
import random
import time
from fractions import Fraction

from soficlab.algebra import psl2_order
from soficlab.f3vectors import (
    ap_unindex,
    disjointness_check_ap_shift,
    invariant_closure_dim,
    sp_count_exact,
    sp_mask,
    sp_shift_diff_exact,
    v2_vector,
    v_vector,
)
from soficlab.groups import bfs_closure_order, verify_surjectivity
from soficlab.spectral import lambda2_estimate, cycle_graph, tau_family_lambda2
from soficlab.suites import (
    suite_covers,
    suite_induction,
    suite_four_conditions,
    suite_partition,
    suite_soficity,
)

from conftest import coords_matrix

PRIMES = (7, 13, 19, 31, 37)

# canonical_json() digests of the suite reports at the seeds below; the
# constants the suites run with must reproduce them byte for byte
REPORT_DIGESTS = {
    "four-conditions": "fce352771b7e73e22a26b2f0fb2be7274ea190846fe9b243cd3c8bc415096abd",
    "soficity": "49b5ca17e3babc1515395427c3b09c4802a7031b7657837184f0b76670734a99",
    "covers": "d0e10a0c2e8c9a4ae664b9561db6c3cb2e02186cde0d6d3af2714ab90454375f",
    "induction": "20fddd2275e4682e2604f19b14b9492ea940465c6da4cbb4d6026af32b67481a",
    "partition": "fa97ca1093bf850892a04137600e83e4b94987ea66b7dc4b5a8de8db7b4a8b50",
}


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, detail


def _budget(num, elapsed, budget_s):
    ok = elapsed < budget_s
    print(f"[criterion {num:02d}] runtime {elapsed:.1f}s (budget {budget_s}s)")
    assert ok, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_exact_subset_bounds():
    t0 = time.monotonic()
    exhaustive = int(sp_mask(coords_matrix(7), 7).sum())
    ok = sp_count_exact(7) == exhaustive
    ratios = {p: Fraction(sp_count_exact(p), 3**p) for p in PRIMES}
    ok &= all(Fraction(1, 243) <= r <= Fraction(1, 3) for r in ratios.values())
    _line(1, ok, f"|S| exact== exhaustive {exhaustive} at p=7; ratios in "
                 f"[1/243, 1/3] at p={PRIMES}")
    _budget(1, time.monotonic() - t0, 5)


def test_criterion_02_boundary_decay():
    t0 = time.monotonic()
    ratios = [Fraction(sp_shift_diff_exact(v_vector(p)), 3**p) for p in PRIMES]
    c = max(float(r) * math.sqrt(p) for r, p in zip(ratios, PRIMES))
    fits = all(float(r) <= c / math.sqrt(p) + 1e-15 for r, p in zip(ratios, PRIMES))
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    _line(2, fits and decreasing,
          f"shift ratios decrease {[float(r) for r in ratios]} with C={c:.3f}")
    _budget(2, time.monotonic() - t0, 10)


def test_criterion_03_shift_disjointness():
    t0 = time.monotonic()
    _line(3, disjointness_check_ap_shift(7), "slab shift at p=7 is disjoint")
    _budget(3, time.monotonic() - t0, 1)


def test_criterion_04_four_condition_suite():
    t0 = time.monotonic()
    rep = suite_four_conditions(p=7)
    detail = "; ".join(f"{c['name']}={c['value']}" for c in rep.checks)
    _line(4, rep.all_pass, detail)
    assert rep.digest() == REPORT_DIGESTS["four-conditions"]
    _budget(4, time.monotonic() - t0, 120)


def test_criterion_05_displacement_suite():
    t0 = time.monotonic()
    rep = suite_soficity(p=7, seed=1)
    detail = "; ".join(f"{c['name']}={c['value']}" for c in rep.checks)
    _line(5, rep.all_pass, detail)
    assert rep.digest() == REPORT_DIGESTS["soficity"]
    _budget(5, time.monotonic() - t0, 120)


def test_criterion_06_invariant_closure():
    t0 = time.monotonic()
    rng = random.Random(6)
    dims = {invariant_closure_dim(ap_unindex(rng.randrange(1, 3**7), 7))
            for _ in range(100)}
    dims |= {invariant_closure_dim(v) for v in
             (v_vector(7), v2_vector(7))}
    _line(6, dims == {7}, f"closure dimensions {sorted(dims)} == [7]")
    _budget(6, time.monotonic() - t0, 10)


def test_criterion_07_surjectivity_certificates(family7):
    t0 = time.monotonic()
    eta = family7["eta"]
    closure = bfs_closure_order([eta.image("a1"), eta.image("a2")],
                                order_bound=110_880)
    ok = closure == 110_880 == psl2_order(7) * psl2_order(11)
    certs = {}
    for name in ("phi", "rho", "phi_tilde", "rho_tilde"):
        certs[name] = verify_surjectivity(family7[name], family7).ok
    ok &= all(certs.values())
    _line(7, ok, f"paired closure {closure}; certificates {certs}")
    _budget(7, time.monotonic() - t0, 60)


def test_criterion_08_spectral_dichotomy(family7):
    t0 = time.monotonic()
    est_cycle = lambda2_estimate(cycle_graph(100), iterations=100_000,
                                 tolerance=1e-10, seed=2)
    circulant_ok = abs(est_cycle.lambda2 - math.cos(2 * math.pi / 100)) <= 1e-6

    from soficlab.groups import build_hom_specs

    # representation pairs; the p = 13 value is the converged flat one
    est = {p: tau_family_lambda2(family7 if p == 7 else build_hom_specs(p, 5, 3), seed=2)
           for p in (7, 13, 19)}
    gap7, gap13 = est[7].gap, est[13].gap
    expander_ok = (all(e.converged and e.residual <= 1e-8 and e.gap > 0
                       for e in est.values())
                   and abs(est[13].lambda2 - 0.927318839859232) <= 1e-9
                   and gap13 >= gap7 / 2)

    diffs = [sp_shift_diff_exact(v_vector(p)) for p in PRIMES]
    c = max(d / 3**p * math.sqrt(p) for d, p in zip(diffs, PRIMES))
    witness_ratios = [Fraction(d, sp_count_exact(p)) for d, p in zip(diffs, PRIMES)]
    shrink_ok = all(
        float(r) <= 243 * c / math.sqrt(p) for r, p in zip(witness_ratios, PRIMES)
    ) and all(a > b for a, b in zip(witness_ratios, witness_ratios[1:]))

    _line(8, circulant_ok and expander_ok and shrink_ok,
          f"circulant |err|<=1e-6; pair gaps "
          f"{', '.join(f'p{p}={e.gap:.4f} ({e.residual:.1e})' for p, e in est.items())}; "
          f"witness ratios decrease "
          f"{[round(float(r), 3) for r in witness_ratios]}")
    _budget(8, time.monotonic() - t0, 300)


def test_criterion_09_cover_suite():
    t0 = time.monotonic()
    rep = suite_covers(seed=42)
    _line(9, rep.all_pass,
          "; ".join(f"{c['name']}={c['value']}" for c in rep.checks))
    assert rep.digest() == REPORT_DIGESTS["covers"]
    _budget(9, time.monotonic() - t0, 60)


def test_criterion_10_induction_suite():
    t0 = time.monotonic()
    rep = suite_induction(seed=5)
    _line(10, rep.all_pass,
          "; ".join(f"{c['name']}={c['value']}" for c in rep.checks))
    assert rep.digest() == REPORT_DIGESTS["induction"]
    _budget(10, time.monotonic() - t0, 60)


def test_criterion_11_partition_suite():
    t0 = time.monotonic()
    rep = suite_partition(seed=3)
    _line(11, rep.all_pass,
          "; ".join(f"{c['name']}={c['value']}" for c in rep.checks))
    assert rep.digest() == REPORT_DIGESTS["partition"]
    _budget(11, time.monotonic() - t0, 180)


def test_criterion_12_deterministic_reports():
    t0 = time.monotonic()
    first = suite_covers(seed=42)
    second = suite_covers(seed=42)
    identical = first.canonical_json() == second.canonical_json()
    digests = (first.digest(), second.digest())
    _line(12, identical and digests[0] == digests[1],
          f"canonical report digest {digests[0][:16]} reproduced")
    _budget(12, time.monotonic() - t0, 60)
