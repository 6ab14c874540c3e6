"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is fixed here; nothing is calibrated
at run time.
"""

from dataclasses import replace
import itertools
import math
import time

import numpy as np
import pytest

from irsa_rl.agent import LearningParams, QTable
from irsa_rl.core import (
    BASELINE_IRSA,
    simulate_frame,
    simulate_slotted_aloha,
    slotted_aloha_throughput,
)
from irsa_rl.env import TrainConfig, train
from irsa_rl.harness import (
    CONVERGENCE,
    SweepSpec,
    convergence_report,
    epsilon_convergence_time,
    run_sweep,
    waterfall_suite,
)
from irsa_rl.virtual import batch_update, enumerate_class, transform

from oracles import (
    class_size_bound,
    enumerate_frames,
    sequential_batch_oracle,
    stopping_set_decode,
    stopping_set_decode_fast,
    subset_masks,
)

SEED = 20260810


def report(criterion, name, passed=True):
    print(f"\nACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'}")


# -------------------------------------------------------------------------
# 1. Analytic baseline: simulated pure slotted ALOHA vs G e^{-G} at N=1000.
# -------------------------------------------------------------------------


def test_criterion_1_analytic_baseline():
    n_slots, frames = 1000, 100_000
    rng = np.random.default_rng(SEED)
    for load in (0.2, 0.5, 1.0):
        start = time.monotonic()
        m = round(load * n_slots)
        counts = simulate_slotted_aloha(m, n_slots, frames, rng)
        elapsed = time.monotonic() - start
        simulated = counts.mean() / n_slots
        analytic = slotted_aloha_throughput(load)
        rel_error = abs(simulated - analytic) / analytic
        assert rel_error <= 0.02, f"G={load}: {simulated} vs {analytic}"
        assert elapsed < 60.0, f"G={load} took {elapsed:.1f}s"
    report(1, "analytic slotted-ALOHA baseline")


# -------------------------------------------------------------------------
# 2. SIC oracle equivalence: exhaustive small frames + 1e5 random frames.
# -------------------------------------------------------------------------


def test_criterion_2_sic_oracle_equivalence():
    mismatches = 0
    for n_users in range(1, 5):
        for n_slots in range(1, 5):
            for bursts in enumerate_frames(n_users, n_slots):
                got = simulate_frame(bursts).decoded
                want = stopping_set_decode(bursts, n_slots)
                mismatches += got != want
    assert mismatches == 0

    rng = np.random.default_rng(SEED + 1)
    masks = {m: subset_masks(m) for m in range(1, 7)}
    for _ in range(100_000):
        n_users = int(rng.integers(1, 7))
        n_slots = int(rng.integers(1, 9))
        incidence = np.zeros((n_users, n_slots), dtype=np.int64)
        bursts = {}
        for u in range(n_users):
            l = int(rng.integers(1, n_slots + 1))
            slots = rng.choice(n_slots, size=l, replace=False)
            incidence[u, slots] = 1
            bursts[u] = frozenset(int(s) for s in slots)
        got = simulate_frame(bursts).decoded
        decoded_flags = stopping_set_decode_fast(incidence, masks[n_users])
        want = {u for u in range(n_users) if decoded_flags[u]}
        mismatches += got != want
    assert mismatches == 0
    report(2, "SIC decoder vs brute-force oracle, zero mismatches")


# -------------------------------------------------------------------------
# 3. Virtual-experience exactness vs sequential per-member updates.
# -------------------------------------------------------------------------


def _tables_equal(q1, q2, tol=1e-12):
    items1, items2 = sorted(q1.items()), sorted(q2.items())
    if len(items1) != len(items2):
        return False
    for (h1, a1, v1, n1), (h2, a2, v2, n2) in zip(items1, items2):
        if (h1, a1, n1) != (h2, a2, n2) or abs(v1 - v2) > tol:
            return False
    return True


def test_criterion_3_virtual_experience_exactness():
    # exhaustive: every (B, w) with B <= 3, w in {2, 3}; every history,
    # action and feasible observed difference
    for B, w in itertools.product((1, 2, 3), (2, 3)):
        params = LearningParams(B=B, w=w, d=3)
        for h in itertools.product(range(B + 1), repeat=w):
            for a in (1, 2, 3):
                for c_next in range(-B, B + 1):
                    succ = h[-1] - c_next
                    if not 0 <= succ <= B:
                        continue
                    h_next = h[1:] + (succ,)
                    q1, q2 = QTable(params.d), QTable(params.d)
                    batch_update(q1, h, a, float(-succ), h_next, params)
                    sequential_batch_oracle(q2, h, a, h_next, params)
                    assert _tables_equal(q1, q2)
                    key = transform(h)
                    assert len(enumerate_class(key, B, w)) <= class_size_bound(key, B)

    # fuzz: 1e4 random transitions applied to evolving tables
    rng = np.random.default_rng(SEED + 2)
    params = LearningParams(B=5, w=4, d=4)
    q1, q2 = QTable(params.d), QTable(params.d)
    applied = 0
    while applied < 10_000:
        h = tuple(int(x) for x in rng.integers(0, 6, 4))
        a = int(rng.integers(1, 5))
        c_next = int(rng.integers(-5, 6))
        succ = h[-1] - c_next
        if not 0 <= succ <= 5:
            continue
        h_next = h[1:] + (succ,)
        batch_update(q1, h, a, float(-succ), h_next, params)
        sequential_batch_oracle(q2, h, a, h_next, params)
        key = transform(h)
        assert len(enumerate_class(key, 5, 4)) <= class_size_bound(key, 5)
        applied += 1
    assert _tables_equal(q1, q2)
    report(3, "batch updates identical to sequential member updates")


# -------------------------------------------------------------------------
# 4. Protocol ordering: trained policies vs the reference distribution.
# -------------------------------------------------------------------------


def test_criterion_4_protocol_ordering():
    start = time.monotonic()
    loads = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 0.9, 1.0)
    spec = SweepSpec(
        loads=loads,
        variants=("vanilla_irsa", "dec_rl"),
        repetitions=20,
        trials=250,
        level=0.975,
    )
    rows = {
        (r.variant, r.load): r for r in run_sweep(spec, TrainConfig(seed=SEED))
    }
    for load in loads:
        dec = rows[("dec_rl", load)]
        van = rows[("vanilla_irsa", load)]
        if load <= 0.6:
            assert dec.mean >= van.mean - 0.02, (
                f"G={load}: dec {dec.mean:.4f} van {van.mean:.4f}"
            )
        else:
            assert dec.ci_low > van.ci_high, (
                f"G={load}: dec CI [{dec.ci_low:.4f},{dec.ci_high:.4f}] "
                f"van CI [{van.ci_low:.4f},{van.ci_high:.4f}]"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(4, f"learned ordering over reference IRSA ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 5. Convergence speed at light loads (in-episode iterations).
# -------------------------------------------------------------------------


def test_criterion_5_light_load_convergence():
    for load, limit in ((0.2, 10), (0.4, 15)):
        traces = []
        for rep in range(10):
            cfg = TrainConfig(load=load, seed=SEED + 100 + rep)
            _, record = train(cfg)
            traces.append(record.episode_trace(24))
        averaged = np.mean(traces, axis=0)
        idx = epsilon_convergence_time(averaged, 0.5)
        assert idx is not None and idx <= limit, f"G={load}: idx {idx}"
    report(5, "mean-reward trace settles fast at light loads")


# -------------------------------------------------------------------------
# 6. Virtual-experience speedup of epsilon-convergence.
# -------------------------------------------------------------------------


def test_criterion_6_virtual_experience_speedup():
    for load in (0.6, 0.7):
        spec = SweepSpec(loads=(load,), repetitions=40, level=0.95)
        res = {}
        for virtual in (False, True):
            res[virtual] = convergence_report(
                spec,
                replace(CONVERGENCE, seed=SEED, virtual_experience=virtual),
                bootstrap=100,
            )[0]
        vanilla, with_ve = res[False]["time_iters"], res[True]["time_iters"]
        assert with_ve <= 0.5 * vanilla, (
            f"G={load}: virtual {with_ve} vs vanilla {vanilla} "
            f"(vanilla 95% CI [{res[False]['ci_low']:.0f},{res[False]['ci_high']:.0f}], "
            f"virtual [{res[True]['ci_low']:.0f},{res[True]['ci_high']:.0f}])"
        )
    report(6, "virtual experience at least halves convergence time")


# -------------------------------------------------------------------------
# 7. Waterfall behaviour.
# -------------------------------------------------------------------------


def test_criterion_7_waterfall():
    spec = SweepSpec(
        loads=(0.8, 1.0), variants=("vanilla_irsa",), repetitions=20, trials=250
    )
    rows = {r.load: r for r in run_sweep(spec, TrainConfig(seed=SEED + 5))}
    assert rows[1.0].ci_high < rows[0.8].ci_low  # waterfall onset

    loads = (0.3, 0.7, 0.8, 0.9, 1.0)
    table = waterfall_suite(
        SweepSpec(loads=loads, repetitions=20, trials=250), TrainConfig(seed=SEED + 6)
    )
    by = {(r["scheme"], r["load"]): r for r in table}
    for load in loads:
        envelope = by[("envelope", load)]
        for scheme in ("random_strategy", "dec_rl_low", "dec_rl_high"):
            assert envelope["mean"] >= by[(scheme, load)]["mean"] - 1e-12
        if load > 0.6:
            assert envelope["mean"] >= by[("random_strategy", load)]["mean"] - 1e-12
    # at light load even the random strategy is adequate (CIs overlap)
    rnd, low = by[("random_strategy", 0.3)], by[("dec_rl_low", 0.3)]
    assert rnd["ci_high"] >= low["ci_low"]
    # tuned heavy-load learner beats blind uniform play where it matters
    assert (
        by[("dec_rl_high", 0.9)]["mean"] > by[("random_strategy", 0.9)]["mean"]
    )
    report(7, "waterfall onset and per-load winners")


# -------------------------------------------------------------------------
# 8. Property suites (spot checks; the full suites live in the other files).
# -------------------------------------------------------------------------


def test_criterion_8_property_suites():
    from irsa_rl.agent import extract_policy
    from irsa_rl.core import place_replicas

    rng = np.random.default_rng(SEED + 7)

    # permutation invariance of the decoder
    for _ in range(100):
        n_users, n_slots = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        bursts = {
            u: place_replicas(int(rng.integers(1, n_slots + 1)), n_slots, rng)
            for u in range(n_users)
        }
        base = simulate_frame(bursts).decoded
        perm = rng.permutation(n_users)
        relabeled = {int(perm[u]): s for u, s in bursts.items()}
        got = simulate_frame(relabeled).decoded
        assert got == {int(perm[u]) for u in base}

    # determinism, Q-value bounds, and extraction normalization after training
    cfg = TrainConfig(load=0.8, episodes=15, seed=SEED + 8)
    nodes1, rec1 = train(cfg)
    nodes2, rec2 = train(cfg)
    assert rec1.mean_reward == rec2.mean_reward
    bound = cfg.params.B / (1 - cfg.params.gamma)
    for n in nodes1:
        for _, _, value, _ in n.q.items():
            assert -bound <= value <= 0.0
        if len(n.q):
            pol = extract_policy(n.q)
            assert abs(sum(pol.coeffs) - 1.0) < 1e-9

    # buffer conservation under the driver
    from irsa_rl.env import ArrivalModel, NodeState, step_frame
    from irsa_rl.agent import initial_history

    params = LearningParams(B=3)
    cfg = TrainConfig(
        load=1.0, params=params, arrivals=ArrivalModel("bernoulli", 0.7)
    )
    nodes = [
        NodeState(buffer=2, history=initial_history(2, params.w), q=QTable(params.d))
        for _ in range(cfg.m)
    ]
    rng2 = np.random.default_rng(SEED + 9)
    for _ in range(50):
        before = [n.buffer for n in nodes]
        res = step_frame(nodes, cfg, rng2)
        gained = sum(n.buffer for n in nodes) - sum(before)
        arrived = gained + res.decoded + res.dropped
        assert 0 <= arrived <= len(nodes)
    report(8, "module invariants and properties")
