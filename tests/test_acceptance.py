"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Note: the literal half-sum relation H_a(f,g) = P1_{2,a}(f,g)/2 + P2_{2,a}(g,f)/2
is false off the band: phi_alpha is odd, so both right-hand components equal
(f + H_a(f,g))/2 and the residual is exactly max((|f-g| - alpha)^+)/2. The
runtime check identity_halfsum is therefore red by design, and
test_criterion7_halfsum_identity pins its violation to that closed-form gap.
The true relation is covered by the midpoint law below.
"""

import json
import time
from functools import cache

import numpy as np
import pytest

from nbdirichlet.catalog import instance_catalog
from nbdirichlet.cli import run
from nbdirichlet.contraction import make_phi, recompose, decompose, classify
from nbdirichlet.flow import FlowConfig, evolve, prox_step
from nbdirichlet.forms import eval_form, make_form
from nbdirichlet.lattice_ops import h_alpha, project_band
from nbdirichlet.measure import MeasureSpace, linf_norm, make_field
from nbdirichlet.samplers import (
    SuiteConfig,
    check_rng,
    sample_envelope_contraction,
    sample_f_k,
    sample_g_composition,
)
from nbdirichlet.verifier import (
    check_criteria,
    check_identities,
    check_normal_contraction,
    counterexample_demo,
    replay,
    run_proof_chain,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@cache
def shipped_instances():
    return {label: make_form(d) for label, d in instance_catalog(20250809).items()}


SYMMETRIC = (
    "graph_quadratic_20",
    "nonlocal_z2",
    "nonlocal_z4",
    "nonlocal_abs",
    "grid_abs_p1",
    "grid_abs_p2",
    "grid_abs_p4",
    "grid_finsler",
)


def test_criterion1_decomposition_roundtrip():
    rng = np.random.default_rng(1)
    grid = np.linspace(-20.0, 20.0, 10_000)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(0, 16))
        bps = np.sort(rng.uniform(-10.0, 10.0, k))
        while np.any(np.diff(bps) <= 0.0):
            bps = np.sort(rng.uniform(-10.0, 10.0, k))
        phi = make_phi(bps)
        factors, residual = decompose(phi, validate=False)
        assert len(factors) == k // 2
        assert all(classify(f).kind == "F" and classify(f).k == 2 for f in factors)
        err = float(np.max(np.abs(recompose(factors, residual)(grid) - phi(grid))))
        worst = max(worst, err)
    elapsed = time.time() - t0
    report("1 (decomposition round-trip)", worst <= 1e-9 and elapsed < 10,
           f"worst error {worst:.3e}, {elapsed:.1f} s for 1000 contractions")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion2_envelope_convergence():
    from nbdirichlet.contraction import envelope

    rng = check_rng(2, "envelope-acceptance")
    worst_excess = -np.inf
    worst_below = 0.0
    for _ in range(20):
        # the families of sample_contraction, with breakpoints in [-4, 4]
        draw = rng.random()
        if draw < 0.5:
            phi = sample_f_k(rng, 8, 4.0)
        elif draw < 0.8:
            phi = sample_g_composition(rng, 3, 4.0)
        else:
            phi = sample_envelope_contraction(rng, 9, 4.0)
        for n in range(2, 9):
            step = 2.0 ** (-n)
            ys = np.arange(-4.0, 4.0 + step / 2, step)
            samples = list(zip(ys, phi(ys)))
            approx = envelope(samples, 4.0)
            xs = np.unique(
                np.concatenate(
                    [
                        np.linspace(-4.0, 4.0, 4001),
                        [b for b in phi.breakpoints if -4 <= b <= 4],
                        [b for b in approx.breakpoints if -4 <= b <= 4],
                    ]
                )
            )
            gap = approx(xs) - phi(xs)
            worst_below = min(worst_below, float(np.min(gap)))
            worst_excess = max(worst_excess, float(np.max(gap)) - 2.0 * step)
    ok = worst_excess <= 0.0 and worst_below >= -1e-12
    report("2 (envelope convergence)", ok,
           f"max excess over 2*2^-n bound {worst_excess:.3e}, min one-sided gap {worst_below:.3e}")
    assert worst_excess <= 0.0, "envelope exceeded the 2*2^-n uniform bound"
    assert worst_below >= -1e-12, "envelope dipped below the sampled contraction"


def test_criterion3_dirichlet_criteria_all_instances():
    cfg = SuiteConfig(n_samples=500, seed=3)
    t0 = time.time()
    worst = {}
    for label, form in shipped_instances().items():
        for res in check_criteria(form, cfg):
            if res.name == "symmetry":
                continue
            worst[(label, res.name)] = res.worst_violation
            assert res.worst_violation <= 1e-9, (label, res.name, res.worst_violation)
    elapsed = time.time() - t0
    top = max(worst.values())
    report("3 (Dirichlet criteria)", top <= 1e-9 and elapsed < 60,
           f"worst violation {top:.3e} across {len(worst)} instance/criterion pairs, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion4_normal_contraction_positive_direction():
    cfg = SuiteConfig(n_samples=200, seed=4)
    worst = {}
    for label in SYMMETRIC:
        res = check_normal_contraction(shipped_instances()[label], cfg)
        worst[label] = res.worst_violation
        assert res.passed, (label, res.worst_violation)
    top = max(worst.values())
    report("4 (normal contraction, positive direction)", top <= 1e-9,
           f"worst E(phi o f) - E(f) = {top:.3e} over {len(SYMMETRIC)} symmetric instances")
    assert top <= 1e-9


def test_criterion5_necessity_counterexample(tmp_path):
    form = shipped_instances()["grid_max_positive_part"]
    cfg = SuiteConfig(n_samples=200, seed=5)
    sym = next(c for c in check_criteria(form, cfg) if c.name == "symmetry")
    contraction = check_normal_contraction(form, cfg)
    demo = counterexample_demo()
    f = make_field(form.space, -np.arange(11) / 10.0)
    e_f = eval_form(form, f)
    e_neg = eval_form(form, -f)
    exit_code = run(["demo", "counterexample", "--output", str(tmp_path / "ce.json")])
    ok = (
        not sym.passed
        and not contraction.passed
        and e_f == 0.0
        and abs(e_neg - 1.0) <= 1e-12
        and demo.worst_violation == pytest.approx(1.0, abs=1e-12)
        and exit_code == 1
    )
    report("5 (necessity, counterexample)", ok,
           f"E(f)={e_f}, E(-f)={e_neg}, demo exit {exit_code}")
    assert ok


def test_criterion6_proof_chain_displays():
    cfg = SuiteConfig(n_samples=200, seed=6)
    stated = (
        "proof_fold1_lattice_split",
        "proof_fold1_clamp_chain",
        "proof_fold2_onesided_clamp_split",
        "proof_fold2_onesided_clamp_chain",
        "proof_fold2_onesided_lattice_split",
        "proof_fold2_straddle_clamp_split",
    )
    worst = -np.inf
    for label in SYMMETRIC:
        form = shipped_instances()[label]
        results = {r.name: r for r in run_proof_chain(form, cfg)}
        for name in stated:
            worst = max(worst, results[name].worst_violation)
            assert results[name].worst_violation <= 1e-9, (label, name)
    report("6 (proof-chain inequalities)", worst <= 1e-9,
           f"worst display violation {worst:.3e} over {len(SYMMETRIC)} symmetric instances")


@cache
def identity_results():
    cfg = SuiteConfig(n_samples=1000, seed=7)
    return {r.name: r for r in check_identities(cfg)}


def test_criterion7_twist_condition():
    res = identity_results()["identity_twist"]
    report("7 (twist condition)", res.passed, f"worst residual {res.worst_violation:.3e}")
    assert res.passed and res.worst_violation <= 1e-12


def test_criterion7_midpoint_law():
    res = identity_results()["identity_midpoint"]
    report("7 (midpoint law)", res.passed, f"worst residual {res.worst_violation:.3e}")
    assert res.passed and res.worst_violation <= 1e-12


def test_criterion7_projection_oracle_agreement():
    res = identity_results()["identity_projection_oracle"]
    report("7 (projection vs oracle)", res.passed, f"worst residual {res.worst_violation:.3e}")
    assert res.passed and res.worst_violation <= 1e-12


def test_criterion7_halfsum_identity():
    # The literal relation is false off the band, so identity_halfsum is red.
    # Its residual must equal the closed-form gap max((|f-g| - alpha)^+)/2 on
    # its own witness, the gap must be positive, the witness must replay
    # exactly, and the half-sum must equal (f + H_a(f,g))/2 there.
    res = identity_results()["identity_halfsum"]
    w = res.witness
    f, g, alpha = np.asarray(w["f"]), np.asarray(w["g"]), w["alpha"]
    gap = 0.5 * float(np.max(np.maximum(np.abs(f - g) - alpha, 0.0)))

    space = MeasureSpace(w["weights"])
    ff, gg = make_field(space, f), make_field(space, g)
    h = h_alpha(ff, gg, alpha).values
    p1 = project_band(ff, gg, alpha)[0].values
    p2 = project_band(gg, ff, alpha)[1].values
    midpoint_err = float(np.max(np.abs(0.5 * p1 + 0.5 * p2 - 0.5 * (f + h))))
    gap_err = abs(res.worst_violation - gap)
    replayed = replay(w)

    ok = (
        not res.passed
        and gap_err <= 1e-12
        and gap > 0.0
        and replayed == res.worst_violation
        and midpoint_err <= 1e-12
    )
    report("7 (half-sum identity)", ok,
           f"worst residual {res.worst_violation:.3e}, closed-form gap {gap:.3e}, "
           f"half-sum vs (f + H)/2 {midpoint_err:.3e}")
    assert not res.passed, "identity_halfsum passed, but the relation is false off the band"
    assert gap_err <= 1e-12, (
        f"worst residual {res.worst_violation!r} differs from the closed-form "
        f"gap max((|f-g| - alpha)^+)/2 = {gap!r} by {gap_err:.3e}"
    )
    assert gap > 0.0, "the witness lies inside the band"
    assert replayed == res.worst_violation, (replayed, res.worst_violation)
    assert midpoint_err <= 1e-12, midpoint_err


def test_criterion8_flow_suite():
    t0 = time.time()
    instances = shipped_instances()
    slack = 10 * 1e-9
    cfg = FlowConfig(tau=0.01, n_steps=100, inner_tol=1e-9)

    graph = instances["graph_quadratic_20"]
    M = np.diag(graph.space.weights)
    resolvent = np.linalg.solve(M + cfg.tau * graph.laplacian(), M)

    worst_order = 0.0
    worst_contract = 0.0
    worst_oracle = 0.0
    worst_energy_rise = 0.0
    rng = np.random.default_rng(8)
    for label in ("graph_quadratic_20", "nonlocal_z4"):
        form = instances[label]
        n = form.space.n
        for _ in range(10):  # 10 ordered pairs -> 20 trajectories per form
            f_vals = rng.uniform(-2.0, 2.0, n)
            g_vals = f_vals + rng.uniform(0.0, 2.0, n)
            tf = evolve(form, make_field(form.space, f_vals), cfg)
            tg = evolve(form, make_field(form.space, g_vals), cfg)
            for trace in (tf, tg):
                worst_energy_rise = max(worst_energy_rise, float(np.max(np.diff(trace.energies))))
            bound = linf_norm(tf.states[0] - tg.states[0])
            for sf, sg in zip(tf.states, tg.states):
                worst_order = max(worst_order, float(np.max(sf.values - sg.values)))
                worst_contract = max(worst_contract, linf_norm(sf - sg) - bound)
            if label == "graph_quadratic_20":
                for trace in (tf, tg):
                    for prev, cur in zip(trace.states, trace.states[1:]):
                        expected = resolvent @ prev.values
                        worst_oracle = max(worst_oracle, float(np.max(np.abs(cur.values - expected))))

    two_node = make_form({"kind": "graph_quadratic", "nodes": 2, "edges": [[0, 1, 1.0]]})
    v = prox_step(two_node, make_field(two_node.space, [1.0, 0.0]), 0.5)
    two_node_err = float(np.max(np.abs(v.values - [0.75, 0.25])))

    elapsed = time.time() - t0
    ok = (
        worst_energy_rise <= 1e-10
        and worst_order <= slack
        and worst_contract <= slack
        and worst_oracle <= 1e-8
        and two_node_err <= 1e-12
        and elapsed < 120.0
    )
    report("8 (flow suite)", ok,
           f"energy rise {worst_energy_rise:.2e}, order {worst_order:.2e}, "
           f"contraction {worst_contract:.2e}, resolvent gap {worst_oracle:.2e}, "
           f"2-node error {two_node_err:.2e}, {elapsed:.1f} s")
    assert worst_energy_rise <= 1e-10
    assert worst_order <= slack
    assert worst_contract <= slack
    assert worst_oracle <= 1e-8
    assert two_node_err <= 1e-12
    assert elapsed < 120.0


def test_criterion9_determinism(tmp_path):
    config = {
        "seed": 123,
        "forms": [
            {
                "kind": "graph_quadratic",
                "nodes": 6,
                "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [3, 4, 1.0], [4, 5, 0.3]],
            }
        ],
        "suite": {"n_samples": 100},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = run(["verify", str(cfg_path), "--output", str(a)])
    code_b = run(["verify", str(cfg_path), "--output", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report("9 (determinism)", identical and code_a == code_b,
           f"reports byte-identical: {identical}, exit codes {code_a}/{code_b}")
    assert identical
    assert code_a == code_b
