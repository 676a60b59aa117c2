import inspect

import numpy as np
import pytest

from nbdirichlet.contraction import PLFunction, decompose, make_phi
from nbdirichlet.errors import PreconditionFailed, SpaceMismatch
from nbdirichlet.forms import make_form
from nbdirichlet.measure import make_field
from nbdirichlet.samplers import SuiteConfig, check_rng, sample_contraction
from nbdirichlet.verifier import (
    CRITERIA_NAMES,
    IDENTITY_NAMES,
    PROOF_NAMES,
    check_criteria,
    check_identities,
    check_normal_contraction,
    counterexample_demo,
    replay,
    run_proof_chain,
    verify_form,
)

CFG = SuiteConfig(n_samples=150, seed=0)


def graph_form():
    return make_form(
        {
            "kind": "graph_quadratic",
            "nodes": 6,
            "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [3, 4, 1.0], [4, 5, 0.3], [0, 5, 0.7]],
        }
    )


def maxpos_form():
    return make_form(
        {"kind": "local_grid_1d", "nodes": 11, "h": 0.1, "integrand": {"name": "max_positive_part"}}
    )


def nonlocal_form(p):
    rng = np.random.default_rng(42)
    K = rng.uniform(0, 1, (7, 7))
    np.fill_diagonal(K, 0)
    return make_form(
        {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": p}}
    )


def test_criteria_graph_all_pass():
    results = check_criteria(graph_form(), CFG)
    assert [r.name for r in results] == list(CRITERIA_NAMES)
    assert all(r.passed for r in results)
    assert all(r.n_tested == CFG.n_samples for r in results)


def test_criteria_maxpos_fails_only_symmetry():
    results = {r.name: r for r in check_criteria(maxpos_form(), CFG)}
    assert results["minmax"].passed
    assert results["clamp"].passed
    assert results["order_projection"].passed
    assert results["band_projection"].passed
    assert not results["symmetry"].passed
    assert results["symmetry"].worst_violation > 0.1


def test_criteria_nonlocal_quartic_pass():
    assert all(r.passed for r in check_criteria(nonlocal_form(4), CFG))


def test_normal_contraction_graph_passes():
    r = check_normal_contraction(graph_form(), CFG)
    assert r.passed and r.worst_violation <= 1e-9


def test_normal_contraction_maxpos_fails_at_minus_id():
    r = check_normal_contraction(maxpos_form(), CFG)
    assert not r.passed
    # -id is forced first into the sample set, and a ramp witnesses it
    assert r.worst_violation > 0.1


def test_identity_and_zero_violation_of_id():
    form = maxpos_form()
    cfg = SuiteConfig(n_samples=1, seed=0)  # only the forced -id sample
    r = check_normal_contraction(form, cfg)
    assert r.witness["phi"]["slopes"] == [-1.0]
    f = np.array(r.witness["f"])
    assert r.worst_violation == abs(form.energy_of_values(f) - form.energy_of_values(-f)) > 0.0
    # id moves neither f nor -f
    identity = {**r.witness, "phi": {"breakpoints": [], "slopes": [1.0], "anchor": 0.0}}
    assert replay(identity) == 0.0


def test_minus_id_raises_the_energy_of_an_increasing_ramp():
    # E(-f) - E(f) = f_0 - f_10 < 0 on the ramp f_i = i/10, but E(f) - E(-f)
    # is its negative: -id is tested on f and on -f, so either direction of
    # the asymmetry is red
    witness = {
        "check": "normal_contraction",
        "form": maxpos_form().descriptor(),
        "phi": {"breakpoints": [], "slopes": [-1.0], "anchor": 0.0},
        "f": (np.arange(11) / 10.0).tolist(),
    }
    assert replay(witness) > 0.0


def test_proof_chain_graph_every_display_passes():
    form = graph_form()
    results = run_proof_chain(form, CFG)
    assert [r.name for r in results] == list(PROOF_NAMES)
    assert all(r.passed for r in results)


def test_proof_chain_nonlocal_abs_passes():
    results = run_proof_chain(nonlocal_form(1), CFG)
    assert all(r.passed for r in results)


def test_proof_chain_rejects_asymmetric_form():
    with pytest.raises(PreconditionFailed):
        run_proof_chain(maxpos_form(), CFG)


def test_proof_chain_x_zero_included():
    form = graph_form()
    results = {r.name: r for r in run_proof_chain(form, CFG)}
    # the first one-cusp sample is pinned to x = 0 and still satisfies the display
    assert results["proof_fold1_lattice_split"].passed


def test_identities():
    results = {r.name: r for r in check_identities(CFG)}
    assert set(results) == set(IDENTITY_NAMES)
    assert not results["identity_halfsum"].passed  # false off the band, by algebra
    assert results["identity_halfsum"].worst_violation > 0.01
    assert results["identity_twist"].passed
    assert results["identity_midpoint"].passed
    assert results["identity_projection_oracle"].passed


def test_counterexample_demo():
    r = counterexample_demo()
    assert not r.passed
    assert r.worst_violation == 1.0
    assert r.witness["energy_f"] == 0.0
    assert r.witness["energy_neg_f"] == 1.0
    assert replay(r.witness) == r.worst_violation
    # symmetrized integrand: same grid with |v| passes the contraction check
    sym = make_form(
        {"kind": "local_grid_1d", "nodes": 11, "h": 0.1, "integrand": {"name": "abs_power", "p": 1}}
    )
    assert check_normal_contraction(sym, CFG).passed


def test_replay_reproduces_every_check_bit_for_bit():
    form = graph_form()
    results = check_criteria(form, CFG)
    results.append(check_normal_contraction(form, CFG))
    results += run_proof_chain(form, CFG, results[: len(CRITERIA_NAMES)])
    results += check_identities(CFG)
    for r in results:
        assert replay(r.witness) == r.worst_violation, r.name


def test_replay_checks_witness_fields_against_the_space():
    identity = check_identities(CFG)[0].witness
    form_check = check_normal_contraction(graph_form(), CFG).witness
    for w in (identity, form_check):
        with pytest.raises(SpaceMismatch):
            replay(dict(w, f=w["f"][:1]))
        with pytest.raises(SpaceMismatch):
            replay(dict(w, f=w["f"] + [0.0]))
        with pytest.raises(ValueError):
            replay(dict(w, f=[float("nan")] + w["f"][1:]))
    with pytest.raises(SpaceMismatch):
        replay(dict(identity, g=identity["g"][:-1]))
    with pytest.raises(ValueError, match="real number"):
        replay(dict(identity, alpha=[identity["alpha"]] * 2))


def test_replay_takes_only_finite_numbers():
    # float() reads "0.5" and True, and NaN runs into the kernels; none of
    # them is a sampled parameter
    form = graph_form()
    criteria = check_criteria(form, CFG)
    clamp = next(r.witness for r in criteria if r.name == "clamp")
    fold1 = next(
        r.witness for r in run_proof_chain(form, CFG, criteria) if r.name == "proof_fold1_conclusion"
    )
    for w, key in ((clamp, "alpha"), (fold1, "x")):
        assert isinstance(w[key], float)
        for bad in ("0.5", True, False, None, [0.5]):
            with pytest.raises(ValueError, match="real number"):
                replay(dict(w, **{key: bad}))
        for bad in (float("nan"), float("inf"), -float("inf"), 10**400):
            with pytest.raises(ValueError, match="finite"):
                replay(dict(w, **{key: bad}))
        assert replay(dict(w, **{key: np.float64(w[key])})) == replay(w)
    for bad in (True, "1.0", None):
        with pytest.raises(ValueError, match="real number"):
            replay(dict(clamp, f=[bad] + clamp["f"][1:]))
    contraction = check_normal_contraction(form, CFG).witness
    phi = contraction["phi"]
    for key, bad in (
        ("anchor", True),
        ("anchor", "0"),
        ("slopes", [True] * len(phi["slopes"])),
        ("breakpoints", [str(b) for b in phi["breakpoints"]]),
    ):
        with pytest.raises(ValueError, match="real number"):
            replay(dict(contraction, phi=dict(phi, **{key: bad})))


def test_replay_names_a_missing_or_malformed_key():
    form = graph_form()
    contraction = check_normal_contraction(form, CFG).witness
    phi = contraction["phi"]
    for witness, message in (
        ({k: v for k, v in contraction.items() if k != "check"}, "witness has no entry 'check'"),
        ({k: v for k, v in contraction.items() if k != "f"}, "witness has no entry 'f'"),
        ({k: v for k, v in contraction.items() if k != "form"}, "witness has no entry 'form'"),
        (dict(contraction, phi={k: v for k, v in phi.items() if k != "anchor"}),
         "phi has no entry 'anchor'"),
        (dict(contraction, phi=[phi["breakpoints"], phi["slopes"], phi["anchor"]]),
         "phi is not a mapping, got list"),
        (dict(contraction, phi=dict(phi, breakpoints=0.5)),
         "phi breakpoints must be a list of real numbers, got 0.5"),
        (dict(contraction, phi=dict(phi, slopes=None)),
         "phi slopes must be a list of real numbers, got None"),
        ([contraction], "witness is not a mapping, got list"),
    ):
        with pytest.raises(ValueError, match=message):
            replay(witness)


def test_replay_takes_the_radii_of_the_lattice_operators():
    # a clamp witness runs the clamp h_alpha, which refuses a negative radius
    clamp = next(r.witness for r in check_criteria(graph_form(), CFG) if r.name == "clamp")
    for name in ("clamp", "band_projection"):
        with pytest.raises(ValueError, match="alpha"):
            replay(dict(clamp, check=name, alpha=-1.0))


def test_checks_are_deterministic_and_order_independent():
    form = graph_form()
    a = check_normal_contraction(form, CFG)
    _ = check_criteria(form, CFG)  # unrelated work in between
    b = check_normal_contraction(form, CFG)
    assert a == b


def test_decomposition_chain_consistency():
    # applying the factors one at a time never increases a symmetric energy,
    # and lands on the same bound as applying the contraction directly
    form = graph_form()
    rng = check_rng(3, "chain")
    for _ in range(40):
        phi = PLFunction(*sample_contraction(rng))
        if phi != make_phi(phi.breakpoints):
            continue
        factors, residual = decompose(phi)
        f = make_field(form.space, rng.uniform(-3, 3, form.space.n))
        chain = f
        energies = [form.energy_of_values(chain.values)]
        for fac in reversed(factors):  # factors[-1] is applied first
            chain = make_field(form.space, fac(chain.values))
            energies.append(form.energy_of_values(chain.values))
        chain = make_field(form.space, residual(chain.values))
        energies.append(form.energy_of_values(chain.values))
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
        direct = form.energy_of_values(make_field(form.space, phi(f.values)).values)
        assert direct == pytest.approx(energies[-1], abs=1e-9)


def test_check_keys_are_read_once(monkeypatch):
    # a check's witness keys come from its kernel's signature
    form = graph_form()
    cfg = SuiteConfig(n_samples=5, seed=0)
    verify_form(form, cfg)
    calls = []
    signature = inspect.signature
    monkeypatch.setattr(inspect, "signature", lambda fn, **kw: calls.append(fn) or signature(fn, **kw))
    verify_form(form, cfg)
    assert calls == []


def test_non_finite_samples_fail_and_replay():
    # psi = |z|^2000 overflows on most sampled differences
    form = make_form(
        {"kind": "nonlocal_psi", "kernel": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
         "psi": {"name": "power", "p": 2000}}
    )
    cfg = SuiteConfig(n_samples=200, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        results = check_criteria(form, cfg) + [check_normal_contraction(form, cfg)]
        replayed = [replay(r.witness) for r in results]
    assert [r.name for r in results] == [*CRITERIA_NAMES, "normal_contraction"]
    for r, again in zip(results, replayed):
        assert not r.passed, r.name
        assert not np.isfinite(r.worst_violation), r.name
        assert again == r.worst_violation or (np.isnan(again) and np.isnan(r.worst_violation))


def test_check_rng_separates_seeds_beyond_32_bits():
    # the stream of a seed below 2^32 is the one it has always been
    draws = check_rng(5, "symmetry").integers(0, 2**63, 3).tolist()
    assert draws == [2853601389459499137, 2268093652274537357, 2723142066091341814]
    assert check_rng(5 + 2**32, "symmetry").integers(0, 2**63, 3).tolist() != draws
    with pytest.raises(ValueError):
        check_rng(-3, "symmetry")
