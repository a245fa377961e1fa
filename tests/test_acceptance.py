"""Acceptance suite: one test, one pass/fail line, per shipped claim.

The tuning campaign (all four benchmark cases, seeds 1 through 5, full
swarm settings) runs once per session and is shared by every criterion
that grades tuning outcomes. Criteria that need no tuning (the
reconstruction identity, operator fidelity, reproducibility) run
standalone.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg as sla

from fritpid.benchlab import CASE_NAMES, builtin_case, co_simulate, reference_targets, tune_case
from fritpid.cli import main as cli_main
from fritpid.folib import (
    OUSTALOUP_W_B,
    OUSTALOUP_W_H,
    ControllerKind,
    ControllerTemplate,
    oustaloup,
    realize,
)
from fritpid.l1_idfrit import (
    ExperimentRecord,
    fictitious_reference,
    reconstruct_output,
    toeplitz_solve,
)
from fritpid.lti_core import DiscreteTf, Signal

from .strategies import increments

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def campaign():
    """Best-of-five tuning results for every benchmark case."""
    return {
        name: tune_case(replace(builtin_case(name), seeds=SEEDS)) for name in CASE_NAMES
    }


def test_criterion1_initial_loss_reproduction(campaign):
    """J(theta0) matches the reference value within 1% on every case."""
    failures = []
    for name in CASE_NAMES:
        want = reference_targets(name).j_theta0
        got = campaign[name].j_theta0
        rel = abs(got - want) / want
        line = f"{name}: J(theta0)={got:.4f} reference={want:.4f} rel={rel:.2e}"
        if rel > 0.01:
            failures.append(line)
    assert not failures, "initial loss off by more than 1%:\n" + "\n".join(failures)


def test_criterion2_tuned_loss_bands(campaign):
    """Best-of-five J(theta*) lands inside the per-case acceptance band."""
    failures = []
    for name in CASE_NAMES:
        t = reference_targets(name)
        got = campaign[name].j_star
        line = f"{name}: J(theta*)={got:.6f} band=[{t.j_star_min}, {t.j_star_max}]"
        if not (t.j_star_min <= got <= t.j_star_max):
            failures.append(line)
    assert not failures, "tuned loss out of band:\n" + "\n".join(failures)


def test_criterion3_fractional_beats_integer_order(campaign):
    """On the shared oscillatory plant the FOPID loss beats the IOPID loss."""
    j_fo = campaign["example3_fo"].j_star
    j_io = campaign["example3_io"].j_star
    assert j_fo < j_io, f"expected FOPID < IOPID, got {j_fo:.6f} >= {j_io:.6f}"


def test_criterion4_tuned_loops_are_strictly_stable(campaign):
    """Every tuned closed loop keeps all pole magnitudes below 1 - 1e-6.

    The margin is 1 - max|pole| of the loop built from the true plant
    and the tuned controller, so the criterion demands margin > 1e-6.
    """
    failures = []
    for name in CASE_NAMES:
        rep = campaign[name].validation
        margin = 1.0 - rep.max_pole_magnitude
        line = (
            f"{name}: margin={margin:.3e} (max|pole|={rep.max_pole_magnitude:.9f}, "
            f"stable flag={rep.stable})"
        )
        if not margin > 1e-6:
            failures.append(line)
    assert not failures, (
        "tuned loops thinner than the 1e-6 stability margin:\n" + "\n".join(failures)
    )


def _random_stable_plant(rng, ts):
    # positive numerators and a normalized dc gain keep a fair share of
    # the random loops stable, so the rejection sampler below terminates
    order = int(rng.integers(1, 4))
    poles = []
    while len(poles) < order:
        if order - len(poles) >= 2 and rng.random() < 0.5:
            radius = rng.uniform(0.1, 0.85)
            angle = rng.uniform(0.1, np.pi - 0.1)
            p = radius * np.exp(1j * angle)
            poles.extend([p, np.conj(p)])
        else:
            poles.append(complex(rng.uniform(-0.85, 0.85)))
    den = np.real(np.poly(poles))
    num = rng.uniform(0.1, 1.0, size=order)
    num *= rng.uniform(0.5, 2.0) * np.sum(den) / np.sum(num)
    return DiscreteTf(num, den, ts)


def _random_pid_theta(rng):
    # the derivative term's bilinear image carries a pole at z = -1, so
    # large kd destabilizes most loops; keep it small and often zero
    kd = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.04)
    return np.array([rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.3), kd])


def test_criterion5_reconstruction_identity():
    """The data-driven loop reconstruction is the true loop response.

    Part one: 100 randomized (plant, theta0, theta) triples where the
    output predicted from the single data record alone matches a direct
    closed-loop simulation of the candidate within 1e-6 relative.
    Part two: the Toeplitz solver agrees with a dense lower-triangular
    solve within 1e-10 on systems up to N = 50.
    """
    ts = 0.1
    template = ControllerTemplate(ControllerKind.IOPID, ts)
    rng = np.random.default_rng(0)
    n = 120
    accepted = 0
    attempts = 0
    worst = 0.0
    while accepted < 100:
        attempts += 1
        assert attempts < 2000, "triple generation stalled"
        plant = _random_stable_plant(rng, ts)
        theta0 = _random_pid_theta(rng)
        theta = _random_pid_theta(rng)
        r0 = Signal(np.ones(n), ts)
        y0, u0 = co_simulate(plant, realize(theta0, template), r0)
        if np.max(np.abs(y0.samples)) > 1e6:
            continue  # data loop blew up; no usable record
        c = realize(theta, template)
        y_true, _ = co_simulate(plant, c, r0)
        scale = max(1.0, np.max(np.abs(y_true.samples)))
        if scale > 1e6:
            continue  # candidate loop too violent to compare at 1e-6
        data = ExperimentRecord(r0=r0, u0=u0, y0=y0)
        rt = fictitious_reference(c, data)
        t = toeplitz_solve(rt.samples, y0.samples)
        y_rec = reconstruct_output(increments(r0.samples), t)
        dev = np.max(np.abs(y_rec - y_true.samples)) / scale
        worst = max(worst, dev)
        assert dev <= 1e-6, (
            f"reconstruction off by {dev:.3e} (relative) on triple {accepted}"
        )
        accepted += 1
    assert accepted == 100, f"only {accepted} triples accepted"

    for k in range(20):
        m = int(rng.integers(5, 51))
        col = np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-0.5, 0.5, m - 1)])
        rhs = rng.standard_normal(m)
        t_fast = toeplitz_solve(col, rhs)
        t_dense = sla.solve_triangular(sla.toeplitz(col, np.zeros(m)), rhs, lower=True)
        scale = max(1.0, np.max(np.abs(t_dense)))
        assert np.max(np.abs(t_fast - t_dense)) <= 1e-10 * scale, f"system {k}"


def test_criterion6_stability_bound_never_violated(campaign):
    """No clean loss evaluation in any tuning run violates the l1 bound."""
    lines = []
    total_checks = 0
    total_violations = 0
    for name in CASE_NAMES:
        res = campaign[name]
        total_checks += res.bound_checks
        total_violations += res.bound_violations
        lines.append(f"{name}: {res.bound_violations} violations in {res.bound_checks} checks")
    assert total_checks > 0
    assert total_violations == 0, "stability bound violated:\n" + "\n".join(lines)


def test_criterion7_fractional_operator_fidelity(campaign):
    """Operator fit within 1 dB and 2 degrees over the working band, and
    the tuned fractional loop tracks no worse than the integer one.

    The band is [10*w_b, w_h/10]; the fit is graded against (jw)**alpha
    for alpha in {0.2, 0.5, 0.8, 1.3, 1.7} at the fixed filter order.
    """
    w = np.logspace(np.log10(10.0 * OUSTALOUP_W_B), np.log10(OUSTALOUP_W_H / 10.0), 600)
    failures = []
    for alpha in (0.2, 0.5, 0.8, 1.3, 1.7):
        g = oustaloup(alpha)
        s = 1j * w
        h = np.polyval(g.num.as_array(), s) / np.polyval(g.den.as_array(), s)
        ideal = s**alpha
        mag_err = np.max(np.abs(20.0 * np.log10(np.abs(h) / np.abs(ideal))))
        phase_err = np.max(
            np.abs(np.unwrap(np.angle(h)) - np.angle(ideal))
        ) * 180.0 / np.pi
        line = f"alpha={alpha}: mag={mag_err:.4f} dB phase={phase_err:.4f} deg"
        if mag_err > 1.0 or phase_err > 2.0:
            failures.append(line)

    track_fo = campaign["example3_fo"].validation.tracking_error_l1
    track_io = campaign["example3_io"].validation.tracking_error_l1
    if not track_fo <= track_io:
        failures.append(f"tracking order: fo={track_fo:.6f} > io={track_io:.6f}")

    assert not failures, (
        "operator fidelity out of tolerance (limits: 1 dB, 2 deg):\n"
        + "\n".join(failures)
    )


def test_diagnostic_operator_fidelity_two_guard_decades():
    """Context for the criterion above: with two guard decades on each
    side of the band the same filter meets both limits with a wide
    margin. The shortfall is confined to the outer guard decade, where
    eleven sections over nine decades are intrinsically too sparse.
    """
    w = np.logspace(np.log10(100.0 * OUSTALOUP_W_B), np.log10(OUSTALOUP_W_H / 100.0), 600)
    for alpha in (0.2, 0.5, 0.8, 1.3, 1.7):
        g = oustaloup(alpha)
        s = 1j * w
        h = np.polyval(g.num.as_array(), s) / np.polyval(g.den.as_array(), s)
        ideal = s**alpha
        mag_err = np.max(np.abs(20.0 * np.log10(np.abs(h) / np.abs(ideal))))
        phase_err = np.max(
            np.abs(np.unwrap(np.angle(h)) - np.angle(ideal))
        ) * 180.0 / np.pi
        assert mag_err <= 1.0, f"alpha={alpha}: {mag_err:.4f} dB"
        assert phase_err <= 2.0, f"alpha={alpha}: {phase_err:.4f} deg"


def test_criterion8_reproduce_is_byte_deterministic(tmp_path, monkeypatch):
    """Repeated reproduce runs with one seed write identical summaries, and
    both ways of sharing out the work write identical artifacts in one
    process and in two: five seeds split by seed, one seed by particle."""
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = cli_main(
            ["reproduce", "example3_io", "--seeds", "2", "--out-dir", str(out)]
        )
        assert code == 0
    bytes_a = (a / "example3_io" / "summary.json").read_bytes()
    bytes_b = (b / "example3_io" / "summary.json").read_bytes()
    assert bytes_a == bytes_b

    for name, seeds in (("example3_io", "1..5"), ("example3_fo", "1")):
        artifacts = {}
        for cpus in (1, 2):
            # the work spreads over one process per CPU of the CPU set
            monkeypatch.setattr(
                "os.sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False
            )
            out = tmp_path / f"{name}-cpus{cpus}"
            code = cli_main(["reproduce", name, "--seeds", seeds, "--out-dir", str(out)])
            assert code == 0
            artifacts[cpus] = {p.name: p.read_bytes() for p in (out / name).iterdir()}
        assert sorted(artifacts[1]) == sorted(artifacts[2])
        different = [f for f in artifacts[1] if artifacts[1][f] != artifacts[2][f]]
        assert not different, f"{name} artifacts differ between one and two processes: {different}"
