"""Acceptance suite: every exit criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test measures its own runtime against the stated budget.

Criterion 1 pins the target value 0.367569 +- 1e-6 for the collision model at
gamma=1, dt=0.01, t=1.  The implemented map reproduces its closed form
cos^200(0.1) = 0.3672652 to machine precision, which sits 6.14e-4 (not the
pinned 3.5e-4) from e^-1, so that criterion fails as specified rather than
being loosened; see the assertion message for the full arithmetic.
"""

import math
import time

import numpy as np

from timebins.chain import init_chain, step_chain
from timebins.channel import (
    DensityMatrix,
    apply_channel,
    extract_kraus,
    iterate_channel,
)
from timebins.lindblad import analytic_oracle
from timebins.microscopic import (
    FrequencyGrid,
    build_microscopic,
    evolve_microscopic,
    fit_decay_rate,
)
from timebins.model import (
    CoarseParams,
    coarse_map,
    dephasing_variant,
    expansion_report,
    ordering_residual,
    truncated_oscillator,
    two_level_system,
)
from timebins.operators import expm
from timebins.experiments import fit_order

from oracle import (
    Operator,
    basis_state,
    dagger,
    factorization_report,
    identity,
    partial_trace,
)

EXCITED = DensityMatrix.pure([0.0, 1.0])
PLUS = DensityMatrix.pure([1.0, 1.0])


def tls_family(gamma=1.0, dt=0.01, n_max=2, dephasing=False):
    system = two_level_system()
    if dephasing:
        system = dephasing_variant(system)
    u = coarse_map(system, CoarseParams(gamma, dt, n_max))
    return extract_kraus(u, 2, n_max, dt)


def report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail}) [{elapsed:.2f}s/{budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_spontaneous_emission_decay():
    start = time.perf_counter()
    series = iterate_channel(tls_family(), EXCITED, 100)
    value = float(series[-1][1, 1].real)
    elapsed = time.perf_counter() - start

    oracle = math.cos(0.1) ** 200
    analytic = math.exp(-1.0)
    pinned_ok = abs(value - 0.367569) <= 1e-6
    analytic_ok = abs(value - analytic) <= 3.5e-4
    detail = (
        f"rho_ee={value:.7f}, closed form cos^200(0.1)={oracle:.7f}, "
        f"required 0.367569+-1e-06 and |rho_ee-e^-1|<=3.5e-04, "
        f"actual |rho_ee-e^-1|={abs(value - analytic):.3e}"
    )
    report(1, "spontaneous-emission decay", pinned_ok and analytic_ok, detail, elapsed, 1.0)

    # determinism and agreement with the stated closed-form oracle
    assert abs(value - oracle) <= 1e-12
    assert pinned_ok, (
        f"pinned target 0.367569+-1e-06 is not met: the map's own closed form "
        f"gives cos^200(0.1) = {oracle:.10f} and the implementation returns "
        f"{value:.10f}; the pinned number is inconsistent with the map it pins"
    )
    assert analytic_ok, (
        f"|rho_ee - e^-1| = {abs(value - analytic):.3e} > 3.5e-4; the exact "
        f"first-order defect at gamma dt = 0.01 is e^-1/6 * gamma t dt ~ 6.1e-4"
    )


def test_criterion_2_collision_to_lindblad_convergence():
    start = time.perf_counter()
    rows = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        family = tls_family(dt=dt)
        steps = round(5.0 / dt)
        series = iterate_channel(family, EXCITED, steps)
        err = 0.0
        for k in range(1, steps + 1):
            ref = analytic_oracle("spontaneous", 1.0, [k * dt], EXCITED)[0]
            err = max(err, float(np.max(np.abs(series[k] - ref))))
        rows.append((dt, err))
    order = fit_order(rows)
    elapsed = time.perf_counter() - start

    ok = abs(order - 1.0) <= 0.15
    report(2, "collision->lindblad convergence", ok, f"fitted_order={order:.4f}", elapsed, 5.0)
    assert ok


def test_criterion_3_kraus_expansion_orders():
    start = time.perf_counter()
    system = two_level_system()
    r1_rows = []
    r2_max = 0.0
    defect_max = 0.0
    for dt in (0.04, 0.02, 0.01, 0.005):
        family = tls_family(dt=dt, n_max=2)
        _, r1, r2 = expansion_report(family, system, 1.0)
        r1_rows.append((dt, r1))
        r2_max = max(r2_max, r2)
        defect_max = max(defect_max, family.completeness_defect)
    r1_order = fit_order(r1_rows)
    elapsed = time.perf_counter() - start

    ok = r1_order >= 1.4 and r2_max <= 1e-13 and defect_max <= 1e-12
    detail = f"r1_order={r1_order:.4f}, r2_max={r2_max:.3g}, defect_max={defect_max:.3g}"
    report(3, "kraus expansion orders", ok, detail, elapsed, 1.0)
    assert r1_order >= 1.4
    assert r2_max <= 1e-13
    assert defect_max <= 1e-12


def test_criterion_4_markov_recursion_and_entanglement():
    start = time.perf_counter()
    dt = math.log(2.0) / 6.0  # collision six lands exactly at gamma t = ln 2
    system = two_level_system()
    u = coarse_map(system, CoarseParams(1.0, dt, 1))
    family = extract_kraus(u, 2, 1, dt)
    state = init_chain(basis_state(2, 1), 12, 1)

    defect_max = 0.0
    entropies = []
    for _ in range(12):
        state = step_chain(state, u)
        rep = factorization_report(state, family, EXCITED)
        defect_max = max(defect_max, rep.markov_defect)
        entropies.append(rep.entropy)
    peak = max(entropies)
    elapsed = time.perf_counter() - start

    ok = defect_max <= 1e-10 and abs(peak - 0.6931) <= 2e-3
    detail = f"markov_defect_max={defect_max:.3g}, entropy_peak={peak:.6f}"
    report(4, "markov recursion / factorization", ok, detail, elapsed, 5.0)
    assert defect_max <= 1e-10
    assert abs(peak - 0.6931) <= 2e-3
    assert entropies.index(peak) == 5  # gamma t = ln 2


def test_criterion_5_microscopic_oracle():
    start = time.perf_counter()
    times = np.linspace(0.0, 2.5, 501)
    survival = evolve_microscopic(build_microscopic(FrequencyGrid(1601, 20.0), 1.0), times)
    rate = -fit_decay_rate(times, survival, window=(0.5, 2.5))
    elapsed = time.perf_counter() - start

    rel_err = abs(rate - 1.0)
    ok = rel_err <= 0.03
    detail = f"fitted_rate={rate:.5f}, rel_err={rel_err:.4f}"
    report(5, "microscopic decay-rate oracle", ok, detail, elapsed, 30.0)
    assert ok


def test_criterion_6_dephasing_variant():
    start = time.perf_counter()
    family = tls_family(dephasing=True)
    series = iterate_channel(family, PLUS, 100)
    pop_drift = max(
        float(np.max(np.abs(np.diag(dm) - np.diag(PLUS.matrix))))
        for dm in series
    )
    coherence = abs(series[-1][1, 0])
    elapsed = time.perf_counter() - start

    ok = pop_drift <= 1e-12 and abs(coherence - 0.303265) <= 5e-4
    detail = f"population_drift={pop_drift:.3g}, abs_rho_eg={coherence:.6f}"
    report(6, "dephasing variant", ok, detail, elapsed, 5.0)
    assert pop_drift <= 1e-12
    assert abs(coherence - 0.303265) <= 5e-4


def test_criterion_7_property_battery():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    checked = 0
    for i in range(110):
        # random collision channel on a random small system
        kind = i % 4
        omega0 = float(rng.uniform(-1.5, 1.5))
        if kind == 0:
            system = two_level_system(omega0, 0.0)
        elif kind == 1:
            system = two_level_system(omega0, float(rng.uniform(-1, 1)))
        elif kind == 2:
            system = dephasing_variant(two_level_system(omega0, 0.0))
        else:
            system = truncated_oscillator(3, omega0)
        gamma = float(rng.uniform(0.05, 2.0))
        dt = float(rng.uniform(0.002, 0.2))
        params = CoarseParams(gamma, dt, 2)
        family = extract_kraus(coarse_map(system, params), system.dim, 2, dt)

        m = rng.standard_normal((system.dim, system.dim))
        m = m + 1j * rng.standard_normal(m.shape)
        rho_in = m @ m.conj().T
        rho_in /= np.trace(rho_in).real
        rho = apply_channel(family, DensityMatrix(rho_in))

        # trace preservation
        assert abs(np.trace(rho.matrix).real - 1.0) <= family.completeness_defect + 1e-12
        # positivity
        assert float(np.linalg.eigvalsh(rho.matrix)[0]) >= -1e-10
        # Hermiticity
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) == 0.0

        # expm unitarity on a fresh anti-Hermitian generator
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = Operator(expm(g - g.conj().T), (n,))
        assert np.max(np.abs((dagger(u) @ u - identity((n,))).data)) <= 1e-12

        # partial trace preserves the trace
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = Operator(a, (2, 3))
        keep = int(rng.integers(0, 2))
        assert abs(np.trace(partial_trace(op, keep).data) - np.trace(op.data)) <= 1e-12 * 6
        checked += 1
    elapsed = time.perf_counter() - start

    ok = checked >= 100
    report(7, "randomized property battery", ok, f"instances={checked} per property", elapsed, 10.0)
    assert ok


def test_criterion_8_ordering_residual_orders():
    start = time.perf_counter()
    dts = (0.1, 0.05, 0.025, 0.0125)

    driven = two_level_system(0.0, 1.0)
    driven_rows = [
        (dt, ordering_residual(driven, CoarseParams(1.0, dt, 2), 8)) for dt in dts
    ]
    driven_order = fit_order(driven_rows)

    free = two_level_system()
    free_rows = [
        (dt, ordering_residual(free, CoarseParams(1.0, dt, 2), 8)) for dt in dts
    ]
    free_order = fit_order(free_rows)
    elapsed = time.perf_counter() - start

    ok = driven_order >= 1.4 and free_order >= 1.9
    detail = f"driven_order={driven_order:.4f}, undriven_order={free_order:.4f}"
    report(8, "time-ordering residual orders", ok, detail, elapsed, 5.0)
    assert driven_order >= 1.4
    assert free_order >= 1.9
