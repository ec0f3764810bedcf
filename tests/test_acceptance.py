"""Release acceptance gate: one test per shipping criterion.

Every test prints a single pass/fail line with the measured value (visible
with ``-rA`` or ``-s``).  Module suites cover the fine-grained behaviour;
these checks pin the end-to-end contracts: allocator exactness, gradient
correctness, metric identities, search quality, sampling laws, learning
margins at desk scale, decision speed, oracle ratios and bit determinism.
The desk-scale training run backing the last four is session-scoped.
"""

import time

import numpy as np
import pytest
import scipy.stats as sps

from edgesched.agent import policy_loss_grads
from edgesched.allocator import Evaluator, allocate_frequencies
from edgesched.annealing import AnnealConfig, BudgetState, adapt_budget
from edgesched.autoencoder import (AutoencoderConfig, ChannelCompressor,
                                   reconstruction_loss_grads)
from edgesched.bench import asa_only, exhaustive_best, run_benchmark
from edgesched.cli import main as cli_main
from edgesched.config import config_from_dict
from edgesched.experiment import (bench_experiment, nrr_samples,
                                  train_experiment)
from edgesched.mec import OffloadDecision, random_scenario, sample_channel_state
from edgesched.neural import Network, mlp_specs
from edgesched.replay import ReplayBuffer, ReplayConfig

from reference import allocate_frequencies_oracle, window_rewards
from test_neural import fd_gradients
from test_replay import make_transition


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _desk_profile_scenario(n, m, rng_seed):
    # same texture as the shipped desk defaults, capacity scaled with N
    return random_scenario(n, m, rng_seed=rng_seed, weights=(0.5, 2.0),
                           cycles=(2e8, 4e9), f_local_max=2.5e8,
                           f_mec_max=4e9 * n / 10)


@pytest.fixture(scope="session")
def desk_run():
    """The 3000-epoch desk-scale training shared by criteria 8 to 10."""
    cfg = config_from_dict({
        "seed": 7,
        "drl": {"t_drl": 3000, "weight_shift_epoch": 1500},
    })
    t0 = time.perf_counter()
    artifacts = train_experiment(cfg)
    return cfg, artifacts, time.perf_counter() - t0


def test_01_allocator_matches_convex_oracle():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 6))
        scen = _desk_profile_scenario(n, m, int(rng.integers(1 << 31)))
        decision = OffloadDecision(assign=rng.integers(0, m + 1, size=n),
                                   n_mecs=m)
        closed = allocate_frequencies(decision, scen)
        numeric = allocate_frequencies_oracle(decision, scen)
        dev = np.abs(closed - numeric) / np.maximum(numeric, 1.0)
        worst = max(worst, float(dev.max()))
        for j in range(1, m + 1):
            members = decision.assign == j
            if members.any():
                total = closed[members].sum()
                assert total == pytest.approx(scen.mecs[j - 1].f_max,
                                              rel=1e-9)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(1, "closed-form frequencies match numeric oracle", ok,
            f"max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_02_loss_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0

    def rel_dev(analytic, numeric):
        return float(np.abs(analytic - numeric).max()
                     / max(np.abs(numeric).max(), 1e-12))

    for seed in range(3):
        net = Network(mlp_specs([6, 4, 6]), rng=np.random.default_rng(seed))
        batch = np.random.default_rng(100 + seed).uniform(0.2, 0.8, size=(3, 6))
        _, grads = reconstruction_loss_grads(net, batch, 3, 2, 0.5, 0.08)
        numeric = fd_gradients(
            net, batch,
            lambda _y: reconstruction_loss_grads(net, batch, 3, 2, 0.5, 0.08)[0])
        worst = max(worst, rel_dev(grads, numeric))

    for seed in range(3):
        net = Network(mlp_specs([5, 8, 6]), rng=np.random.default_rng(50 + seed))
        states = np.random.default_rng(200 + seed).normal(size=(4, 5))
        targets = (np.random.default_rng(300 + seed)
                   .integers(0, 2, size=(4, 6)).astype(float))
        _, grads = policy_loss_grads(net, states, targets, 0.02)
        numeric = fd_gradients(
            net, states,
            lambda _y: policy_loss_grads(net, states, targets, 0.02)[0])
        worst = max(worst, rel_dev(grads, numeric))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(2, "analytic gradients match finite differences", ok,
            f"max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_03_reward_is_reciprocal_latency(tmp_path):
    cfg = config_from_dict({
        "seed": 5,
        "scenario": {"n_ues": 4, "n_mecs": 2},
        "sae": {"t_sae": 30, "pretrain_samples": 40},
        "drl": {"t_drl": 20, "phi": 5},
        "asa": {"t_sa_init": 4},
        "bench": {"n_channels": 5, "asa_budget": 25},
    })
    artifacts = train_experiment(cfg, tmp_path)
    report = bench_experiment(cfg, tmp_path, artifacts=artifacts)

    worst = 0.0
    for row in artifacts.result.logs:
        worst = max(worst, abs(row.reward * row.latency - 1.0))
    for stat in report.stats:
        worst = max(worst, abs(stat.reward * stat.latency_s - 1.0))
    # the written files must carry the same identity
    for name, rcol, lcol in (("epochs.csv", 1, 2), ("bench.csv", 4, 3)):
        lines = (tmp_path / name).read_text().splitlines()[1:]
        for line in lines:
            parts = line.split(",")
            worst = max(worst, abs(float(parts[rcol]) * float(parts[lcol]) - 1.0))
    ok = worst < 1e-9
    _report(3, "reward equals reciprocal latency in all reports", ok,
            f"max |r*l - 1| = {worst:.2e}")


def test_04_compression_ratio_table():
    expected = {1: 0.0, 2: 0.5, 3: 0.67, 4: 0.75, 5: 0.80}
    got = {}
    for m in range(1, 6):
        comp = ChannelCompressor(
            AutoencoderConfig(out_dim=30), 30, m,
            rng=np.random.default_rng(0))
        assert comp.out_dim == 30
        got[m] = round(comp.compression_ratio(), 2)
    ok = got == expected
    _report(4, "compression ratios for 1..5 servers", ok, f"{got}")


def test_05_annealer_finds_toy_optima():
    t0 = time.perf_counter()
    wins = {}
    for n in (3, 6):
        wins[n] = 0
        for run in range(100):
            # compact cell at reference capacities; spread weights keep the
            # objective landscape non-trivial without congestion traps
            scen = random_scenario(n, 2, rng_seed=1000 + run,
                                   weights=(0.5, 2.0), area_m=30.0)
            channel = sample_channel_state(scen, 1, 1000 + run)
            result = asa_only(scen, channel, AnnealConfig(), 200,
                              np.random.default_rng(run))
            _, f_opt = exhaustive_best(scen, channel)
            if result.objective <= f_opt * (1.0 + 1e-9):
                wins[n] += 1
    elapsed = time.perf_counter() - t0
    ok = all(w >= 95 for w in wins.values()) and elapsed < 120.0
    _report(5, "annealer hits exhaustive optimum with budget 200", ok,
            f"wins {wins[3]}/100 and {wins[6]}/100, {elapsed:.1f}s")


def test_06_priority_sampling_law():
    t0 = time.perf_counter()
    buf = ReplayBuffer(ReplayConfig(tau=1.0))
    buf.append(*make_transition(0))
    buf.append(*make_transition(1))
    buf._priorities[0] = 1.0
    buf._priorities[1] = 3.0
    _, _, idx = buf.sample(100_000, np.random.default_rng(0))
    freq = np.bincount(idx, minlength=2) / idx.size
    sharp_ok = (abs(freq[0] - 0.25) <= 0.01 and abs(freq[1] - 0.75) <= 0.01)

    flat = ReplayBuffer(ReplayConfig(tau=0.0))
    for e in range(5):
        flat.append(*make_transition(e))
        flat._priorities[e] = float(1 + 100 * e)
    _, _, idx = flat.sample(100_000, np.random.default_rng(1))
    _, p_value = sps.chisquare(np.bincount(idx, minlength=5))
    elapsed = time.perf_counter() - t0
    ok = sharp_ok and p_value > 0.01 and elapsed < 30.0
    _report(6, "priority sampling frequencies and uniform collapse", ok,
            f"freq {freq[0]:.3f}/{freq[1]:.3f}, chi2 p={p_value:.3f}, "
            f"{elapsed:.1f}s")


def test_07_budget_decays_in_19_events():
    state = BudgetState(20)
    events = 0
    seen = []
    while state.budget > 1 and events < 50:
        state = adapt_budget(state, 0.0)
        events += 1
        seen.append(state.budget)
    stays = [adapt_budget(state, 0.0).budget for _ in range(3)]
    ok = events == 19 and seen == list(range(19, 0, -1)) and stays == [1, 1, 1]
    _report(7, "iteration budget decays 20 to 1 in exactly 19 events", ok,
            f"events={events}, tail stays at {set(stays)}")


def test_08_desk_scale_margins(desk_run):
    cfg, art, elapsed = desk_run
    rewards = window_rewards(art.result.logs, art.result.scenario_final,
                             art.seeds.channel, 500,
                             np.random.default_rng(123))
    over_greedy = rewards["policy"] / rewards["greedy"]
    over_random = rewards["policy"] / rewards["random"]
    ok = over_greedy >= 1.10 and over_random >= 1.40 and elapsed < 900.0
    _report(8, "desk-scale margins over greedy and random", ok,
            f"greedy +{(over_greedy - 1) * 100:.1f}%, "
            f"random +{(over_random - 1) * 100:.1f}%, train {elapsed:.0f}s")


def test_09_policy_decision_speedup(desk_run):
    cfg, art, _ = desk_run
    report = run_benchmark(art.scenario, art.result.policy, art.compressor,
                           cfg.asa, n_channels=50, asa_budget=200,
                           rng=np.random.default_rng(art.seeds.bench),
                           channel_seed=art.seeds.channel)
    t_policy = report.by_name("policy").decision_time_s
    t_asa = report.by_name("asa").decision_time_s
    ratio = t_asa / t_policy
    ok = ratio >= 5.0
    _report(9, "policy decides at least 5x faster than search-only", ok,
            f"median {t_policy * 1e3:.2f}ms vs {t_asa * 1e3:.1f}ms, "
            f"{ratio:.1f}x")


def test_10_nrr_floor_and_shift_recovery(desk_run):
    cfg, art, _ = desk_run
    pre, post = nrr_samples(art.result, art.scenario, art.seeds, 100)
    best = max(pre + post)
    f_avg, s_avg = float(np.mean(pre)), float(np.mean(post))
    ok = best >= 0.95 and s_avg >= f_avg
    _report(10, "oracle-relative reward floor and post-shift recovery", ok,
            f"best {best:.4f}, first-half avg {f_avg:.4f}, "
            f"second-half avg {s_avg:.4f}")


def test_11_train_runs_byte_identical(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "seed: 7\n"
        "sae: {t_sae: 100, pretrain_samples: 200}\n"
        "drl: {t_drl: 150}\n")
    for sub in ("a", "b"):
        rc = cli_main(["train", "--config", str(cfg), "--out",
                       str(tmp_path / sub), "--quiet"])
        assert rc == 0
    bytes_a = (tmp_path / "a" / "epochs.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "epochs.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _report(11, "repeated training is byte-identical", ok,
            f"{len(bytes_a)} bytes compared")
