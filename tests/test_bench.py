from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.agent import SeedBundle
from edgesched.allocator import Evaluator
from edgesched import bench
from edgesched.annealing import AnnealConfig, SearchResult
from edgesched.autoencoder import AutoencoderConfig, ChannelCompressor
from edgesched.bench import (BENCH_EPOCH_BASE, NODE_LIMIT, BenchReport,
                             PsoConfig, StrategyStats, asa_only, exact_oracle,
                             exhaustive_best, format_report, greedy_baseline,
                             nrr, random_baseline, run_benchmark,
                             write_bench_csv)
from edgesched.config import ExperimentConfig, build_scenario
from edgesched.experiment import write_table_csv
from edgesched.mec import (MecSpec, OffloadDecision, RadioParams, Scenario,
                           Task, UeSpec, local_capacity, random_scenario,
                           reweighted, sample_channel_state)
from edgesched.neural import Network, mlp_specs

from reference import exact_oracle_numpy, greedy_baseline_loop, window_rewards


# the fields of Scenario.arrays that only greedy's first round reads
GREEDY_START = ("nearest", "gain_index", "local_time", "server_time")


def toy(n=4, m=2, seed=0, **kw):
    kw.setdefault("weights", (0.5, 2.0))
    scen = random_scenario(n, m, rng_seed=seed, **kw)
    return scen, sample_channel_state(scen, 1)


class TestGreedy:
    def test_all_offload_when_capacity_ample(self):
        # huge MEC budget, slow local CPUs: greedy keeps everyone remote,
        # each UE on its nearest server
        scen, ch = toy(f_mec_max=1e12, f_local_max=1e8)
        dec = greedy_baseline(scen, ch)
        assert np.all(dec.assign > 0)
        np.testing.assert_array_equal(dec.assign,
                                      scen.arrays.distances.argmin(axis=1) + 1)

    def test_sheds_load_when_server_weak(self):
        # tiny MEC budget, decent local CPUs: at least one UE must fall back
        scen, ch = toy(f_mec_max=5e8, f_local_max=1e9)
        dec = greedy_baseline(scen, ch)
        assert np.any(dec.assign == 0)

    def test_hand_example_single_ue(self):
        # one UE next to one MEC: remote easily wins with a fat server
        ue = UeSpec(position=(10.0, 10.0), task=Task(8e5, 1e9),
                    f_local_max=5e8)
        scen = Scenario(ues=(ue,), mecs=(MecSpec(position=(12.0, 10.0),
                                                 f_max=1e10),),
                        radio=RadioParams(noise_w=3e-9))
        ch = sample_channel_state(scen, 1)
        dec = greedy_baseline(scen, ch)
        ev = Evaluator(scen, ch)
        remote = ev.cost[0, 1] / ue.weight + ue.task.cycles / 1e10
        local = ue.task.cycles / local_capacity(ue)
        assert (dec.assign[0] == 1) == (remote <= local)


    # (N, M, MEC budget, task cycles, UEs moved local over the draws): the
    # default desk scenario moves none, the weaker budgets several per MEC
    # and draw, and equal cycles make every move a tie.  A draw that moves
    # none returns on the first round, from the scenario's cached start;
    # the others go on into the rounds, so both branches are covered.
    @pytest.mark.parametrize("n, m, f_mec, cycles, moves", [
        (10, 2, 4e9, None, 0), (10, 2, 1e9, None, 240),
        (30, 5, 1e9, None, 902), (50, 3, 6e8, None, 2640),
        (12, 1, 3e8, None, 662), (12, 2, 1e9, 1e9, 360)])
    def test_matches_per_mec_loop(self, n, m, f_mec, cycles, moves):
        cfg = ExperimentConfig().scenario
        cfg = replace(cfg, n_ues=n, n_mecs=m, f_mec_max=f_mec,
                      cycles=cycles or cfg.cycles)
        scen = build_scenario(cfg, fallback_seed=1)
        moved = first_round = 0
        for e in range(1, 61):
            ch = sample_channel_state(scen, e)
            ref = greedy_baseline_loop(scen, ch)
            np.testing.assert_array_equal(greedy_baseline(scen, ch).assign,
                                          ref)
            moved += int((ref == 0).sum())
            # a round moves a UE local for good, so only a draw that
            # returns on the first round keeps the nearest placement
            first_round += np.array_equal(ref, scen.arrays.nearest)
        assert moved == moves
        assert first_round == (60 if moves == 0 else 0)

    def test_start_is_kept_read_only(self):
        scen, _ = toy(n=12, m=3, seed=2)
        arr = scen.arrays
        gains = np.arange(12 * 3, dtype=float).reshape(12, 3)
        np.testing.assert_array_equal(gains.take(arr.gain_index),
                                      gains[np.arange(12), arr.nearest - 1])
        assert scen.arrays is arr
        assert not any(getattr(arr, f).flags.writeable for f in GREEDY_START)

    def test_mutating_a_placement_leaves_the_next_unchanged(self):
        for f_mec in (1e12, 5e8):   # returns on the first round, or later
            scen, ch = toy(n=8, f_mec_max=f_mec, f_local_max=1e9)
            first = greedy_baseline(scen, ch).assign
            expect = first.copy()
            first[:] = 0 if first.all() else 1
            np.testing.assert_array_equal(greedy_baseline(scen, ch).assign,
                                          expect)

    def test_reweighted_copy_builds_its_own_start(self):
        scen, ch = toy(n=8)
        arr = scen.arrays
        copy = reweighted(scen, np.random.default_rng(1))
        assert "arrays" not in vars(copy)
        assert copy.arrays is not arr
        # weights enter neither the start nor the placement
        for f in GREEDY_START:
            assert getattr(copy.arrays, f) is not getattr(arr, f)
            np.testing.assert_array_equal(getattr(copy.arrays, f),
                                          getattr(arr, f))
        np.testing.assert_array_equal(greedy_baseline(copy, ch).assign,
                                      greedy_baseline(scen, ch).assign)


class TestRandom:
    def test_uniform_over_choices(self):
        scen, ch = toy(n=1, m=2)
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        trials = 30_000
        for _ in range(trials):
            counts[random_baseline(scen, ch, rng).assign[0]] += 1
        np.testing.assert_allclose(counts / trials, [1 / 3] * 3, atol=0.01)


class TestOracles:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 3),
           f_mec=st.sampled_from([2e9, 1e10, 5e10]),
           seed=st.integers(0, 10_000))
    def test_matches_exhaustive(self, n, m, f_mec, seed):
        # at most 4^8 placements; weak and strong servers both
        scen, ch = toy(n=n, m=m, seed=seed, f_mec_max=f_mec)
        ev = Evaluator(scen, ch)
        _, f_opt = exhaustive_best(scen, ch)
        start = np.random.default_rng(seed).integers(0, m + 1, size=n)
        res = exact_oracle(ev, start)
        assert res.exact
        assert res.latency == pytest.approx(f_opt, rel=1e-12)

    @pytest.mark.parametrize("node_limit", [0, 5, NODE_LIMIT])
    def test_never_worse_than_incumbent(self, node_limit, monkeypatch):
        monkeypatch.setattr(bench, "NODE_LIMIT", node_limit)
        scen, ch = toy(n=12, m=3, seed=13)
        ev = Evaluator(scen, ch)
        for start in (greedy_baseline(scen, ch).assign,
                      asa_only(scen, ch, AnnealConfig(), 100,
                               np.random.default_rng(2)).decision.assign):
            res = exact_oracle(ev, start)
            assert res.latency <= ev.latency_of(start)
            assert res.nodes <= node_limit

    def test_latency_is_latency_of_its_placement(self):
        scen, ch = toy(n=9, m=2, seed=14)
        ev = Evaluator(scen, ch)
        res = exact_oracle(ev, np.zeros(9, dtype=int))
        assert res.latency == ev.latency_of(res.decision.assign)
        assert res.decision.n_mecs == 2

    def test_draws_nothing_from_rng(self):
        scen, _ = toy(n=6, seed=15)
        kw = dict(n_channels=4, asa_budget=20, channel_seed=scen.rng_seed)
        plain, oracle = np.random.default_rng(4), np.random.default_rng(4)
        a = run_benchmark(scen, None, None, AnnealConfig(), rng=plain, **kw)
        b = run_benchmark(scen, None, None, AnnealConfig(), rng=oracle,
                          pso_cfg=PsoConfig(), **kw)
        assert plain.bit_generator.state == oracle.bit_generator.state
        for sa, sb in zip(a.stats, b.stats):
            assert sa.latency_s == sb.latency_s

    def test_proves_every_default_desk_draw(self):
        scen = build_scenario(ExperimentConfig().scenario, fallback_seed=1)
        assert (scen.n_ues, scen.n_mecs) == (10, 2)
        for k in range(200):
            ch = sample_channel_state(scen, BENCH_EPOCH_BASE + k, 1)
            res = exact_oracle(Evaluator(scen, ch),
                               greedy_baseline(scen, ch).assign)
            assert res.exact and res.nodes < NODE_LIMIT

    def test_node_limited_at_wide_scale_beats_asa(self):
        scen = random_scenario(30, 5, rng_seed=1)
        ch = sample_channel_state(scen, 100)
        ev = Evaluator(scen, ch)
        asa = asa_only(scen, ch, AnnealConfig(), 200, np.random.default_rng(3),
                       evaluator=ev)
        res = exact_oracle(ev, greedy_baseline(scen, ch).assign)
        assert not res.exact and res.nodes == NODE_LIMIT
        assert res.latency < asa.objective

    @pytest.mark.parametrize("incumbent", [
        np.zeros(9, dtype=int), np.zeros(11, dtype=int), np.full(10, 3),
        np.array([-1] + [0] * 9), np.full(10, 1.7)],
        ids=["short", "long", "above-m", "negative", "fractional"])
    def test_rejects_malformed_incumbent(self, incumbent):
        scen, ch = toy(n=10, m=2, seed=16)
        with pytest.raises(ValueError, match="incumbent"):
            exact_oracle(Evaluator(scen, ch), incumbent)

    def test_exhaustive_small_space(self):
        scen, ch = toy(n=2, m=1, seed=3)
        ev = Evaluator(scen, ch)
        best, f_opt = exhaustive_best(scen, ch)
        brute = min(ev.latency_of(np.array([a, b]))
                    for a in range(2) for b in range(2))
        assert f_opt == pytest.approx(brute, rel=1e-12)
        assert ev.latency_of(best) == pytest.approx(f_opt, rel=1e-12)

    def test_exhaustive_rejects_large_space(self):
        scen, ch = toy(n=30, m=2)
        with pytest.raises(ValueError):
            exhaustive_best(scen, ch)

    def test_asa_only_uses_budget(self):
        scen, ch = toy(seed=4)
        res = asa_only(scen, ch, AnnealConfig(), 37, np.random.default_rng(0))
        assert len(res.trace) == 38


class TestOracleMatchesNumpy:
    """The Python-float search returns the placements and latencies of the
    whole-array numpy search it replaced."""

    @staticmethod
    def assert_same(ev, start):
        got, ref = exact_oracle(ev, start), exact_oracle_numpy(ev, start)
        np.testing.assert_array_equal(got.decision.assign, ref.decision.assign)
        assert got.latency == ref.latency
        assert got.exact == ref.exact
        return got

    def test_default_desk_draws(self):
        scen = build_scenario(ExperimentConfig().scenario, fallback_seed=1)
        for k in range(60):
            ch = sample_channel_state(scen, BENCH_EPOCH_BASE + k, 1)
            start = (greedy_baseline(scen, ch).assign if k % 2 else
                     np.random.default_rng(k).integers(0, 3, size=10))
            assert self.assert_same(Evaluator(scen, ch), start).exact

    def test_ten_by_three_draws(self):
        cfg = replace(ExperimentConfig().scenario, n_mecs=3)
        scen = build_scenario(cfg, fallback_seed=1)
        for k in range(12):
            ch = sample_channel_state(scen, BENCH_EPOCH_BASE + k, 1)
            assert self.assert_same(Evaluator(scen, ch),
                                    greedy_baseline(scen, ch).assign).exact

    def test_node_limited_wide_draw(self, monkeypatch):
        monkeypatch.setattr(bench, "NODE_LIMIT", 200)
        scen = random_scenario(30, 5, rng_seed=1)
        ch = sample_channel_state(scen, 100)
        ev = Evaluator(scen, ch)
        res = self.assert_same(ev, greedy_baseline(scen, ch).assign)
        assert not res.exact and res.nodes == 200


def test_result_classes_have_no_instance_dict():
    scen, ch = toy(n=6, seed=17)
    ev = Evaluator(scen, ch)
    results = (ch, OffloadDecision(assign=np.zeros(6, dtype=int), n_mecs=2),
               asa_only(scen, ch, AnnealConfig(), 20, np.random.default_rng(1),
                        evaluator=ev),
               exact_oracle(ev, np.zeros(6, dtype=int)))
    assert [type(r).__name__ for r in results] == [
        "ChannelState", "OffloadDecision", "SearchResult", "OracleResult"]
    for r in results:
        assert not hasattr(r, "__dict__")


class TestNrr:
    def test_plain_ratio(self):
        assert nrr(0.5, 1.0) == 0.5
        assert nrr(1.0, 1.0) == 1.0

    def test_above_one_raises(self):
        with pytest.raises(ValueError, match="above 1"):
            nrr(1.2, 1.0)

    def test_oracle_reward_must_be_positive(self):
        with pytest.raises(ValueError):
            nrr(0.5, 0.0)


class TestRunBenchmark:
    def test_baselines_only(self):
        scen, _ = toy(seed=5)
        rep = run_benchmark(scen, None, None, AnnealConfig(), n_channels=4,
                            asa_budget=30, rng=np.random.default_rng(0),
                            channel_seed=scen.rng_seed)
        names = [s.name for s in rep.stats]
        assert names == ["greedy", "random", "asa"]
        assert rep.n_channels == 4
        with pytest.raises(KeyError):
            rep.by_name("policy")

    @pytest.mark.parametrize("given", ["policy", "compressor"])
    def test_policy_needs_its_compressor(self, given):
        scen, _ = toy(seed=5)
        comp = ChannelCompressor(AutoencoderConfig(), 4, 2,
                                 rng=np.random.default_rng(0))
        policy = Network(mlp_specs([comp.out_dim, 12]),
                         rng=np.random.default_rng(0))
        args = (policy, None) if given == "policy" else (None, comp)
        missing = "compressor" if given == "policy" else "policy"
        with pytest.raises(ValueError, match=f"needs the {missing} too"):
            run_benchmark(scen, *args, AnnealConfig(), n_channels=1)

    def test_reward_is_reciprocal_mean_latency(self):
        scen, _ = toy(seed=6)
        rep = run_benchmark(scen, None, None, AnnealConfig(), n_channels=5,
                            asa_budget=20, rng=np.random.default_rng(1),
                            channel_seed=scen.rng_seed)
        for s in rep.stats:
            assert s.reward == pytest.approx(1.0 / s.latency_s, rel=1e-12)

    def test_asa_dominates_random(self):
        scen, _ = toy(n=6, seed=7)
        rep = run_benchmark(scen, None, None, AnnealConfig(), n_channels=6,
                            asa_budget=150, rng=np.random.default_rng(2),
                            channel_seed=scen.rng_seed)
        assert rep.by_name("asa").latency_s < rep.by_name("random").latency_s

    def test_oracle_attaches_nrr(self):
        scen, _ = toy(seed=8)
        rep = run_benchmark(scen, None, None, AnnealConfig(), n_channels=3,
                            asa_budget=60, rng=np.random.default_rng(3),
                            pso_cfg=PsoConfig(),
                            channel_seed=scen.rng_seed)
        assert [s.name for s in rep.stats] == ["greedy", "random", "asa",
                                               "oracle"]
        for s in rep.stats[:-1]:
            assert s.nrr_mean is not None and 0.0 <= s.nrr_mean <= 1.0
            assert s.nrr_best is not None and s.nrr_best >= s.nrr_mean - 1e-12
        assert rep.by_name("oracle").nrr_mean is None

    def test_draws_are_shared_and_reproducible(self):
        scen, _ = toy(seed=9)
        kw = dict(n_channels=3, asa_budget=25, channel_seed=scen.rng_seed)
        a = run_benchmark(scen, None, None, AnnealConfig(),
                          rng=np.random.default_rng(5), **kw)
        b = run_benchmark(scen, None, None, AnnealConfig(),
                          rng=np.random.default_rng(5), **kw)
        for sa, sb in zip(a.stats, b.stats):
            assert sa.latency_s == sb.latency_s

    def test_bench_epochs_disjoint_from_training(self):
        assert BENCH_EPOCH_BASE > 1_000_000



class TestBenchmarkRows:
    """Each row's placements, captured through the module-level names a
    tracer wraps, against what ``run_benchmark`` reports for them."""

    ROWS = (("policy", "decide"), ("greedy", "greedy_baseline"),
            ("random", "random_baseline"), ("asa", "asa_only"),
            ("oracle", "pso_oracle"))

    def capture(self, monkeypatch, draws):
        """Per draw, each row's (args, result), in call order."""
        def keep(name, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if name == "draw":
                    draws.append({"channel": out, "calls": []})
                else:
                    draws[-1]["calls"].append((name, args, out))
                return out
            return wrapped

        for name, attr in (("draw", "sample_channel_state"), *self.ROWS):
            monkeypatch.setattr(bench, attr, keep(name, getattr(bench, attr)))

    @staticmethod
    def placement(name, out):
        if name == "asa":
            return out.decision
        return out[0] if name == "oracle" else out

    @pytest.mark.parametrize("with_policy", [False, True])
    def test_each_row_is_scored_by_latency_of(self, monkeypatch, with_policy):
        scen, _ = toy(n=5, seed=12)
        policy = comp = None
        if with_policy:
            rng = np.random.default_rng(0)
            comp = ChannelCompressor(AutoencoderConfig(), 5, 2, rng=rng)
            comp.pretrain([sample_channel_state(scen, e).gains
                           for e in range(1, 20)], rng)
            policy = Network(mlp_specs([comp.out_dim, 15]), rng=rng)
        draws = []
        self.capture(monkeypatch, draws)
        rep = run_benchmark(scen, policy, comp, AnnealConfig(), n_channels=6,
                            asa_budget=40, rng=np.random.default_rng(4),
                            pso_cfg=PsoConfig(), channel_seed=scen.rng_seed)
        names = [name for name, _ in self.ROWS][0 if with_policy else 1:]
        assert [s.name for s in rep.stats] == names
        lat = {name: [] for name in names}
        for draw in draws:
            assert [name for name, _, _ in draw["calls"]] == names
            ev = Evaluator(scen, draw["channel"])
            placed = {}
            for name, args, out in draw["calls"]:
                if name == "oracle":
                    # started from the draw's best so far, first on ties
                    first = min(placed, key=lambda k: lat[k][-1])
                    assert args[1] is placed[first].assign
                placed[name] = self.placement(name, out)
                lat[name].append(ev.latency_of(placed[name].assign))
                if name == "asa":
                    assert lat[name][-1] == out.objective
        for s in rep.stats:
            assert s.latency_s == float(np.mean(lat[s.name]))

    def test_oracle_starts_from_the_first_of_tied_rows(self, monkeypatch):
        scen, _ = toy(n=5, seed=13)
        greedy = bench.greedy_baseline

        def same_as_greedy(scenario, channel, *args, **kwargs):
            dec = greedy(scenario, channel)
            return OffloadDecision(assign=dec.assign.copy(), n_mecs=dec.n_mecs)

        def asa_as_greedy(scenario, channel, *args, evaluator, **kwargs):
            # the asa row reports its search's objective, so it is exact
            dec = same_as_greedy(scenario, channel)
            return SearchResult(decision=dec,
                                objective=evaluator.latency_of(dec.assign),
                                improvements=(), steps=0)

        monkeypatch.setattr(bench, "random_baseline", same_as_greedy)
        monkeypatch.setattr(bench, "asa_only", asa_as_greedy)
        draws = []
        self.capture(monkeypatch, draws)
        run_benchmark(scen, None, None, AnnealConfig(), n_channels=3,
                      asa_budget=10, pso_cfg=PsoConfig(),
                      channel_seed=scen.rng_seed)
        for draw in draws:
            calls = {name: (args, out) for name, args, out in draw["calls"]}
            assert calls["oracle"][0][1] is calls["greedy"][1].assign

class TestReporting:
    def make_report(self):
        scen, _ = toy(seed=10)
        return run_benchmark(scen, None, None, AnnealConfig(), n_channels=3,
                             asa_budget=20, rng=np.random.default_rng(0),
                             channel_seed=scen.rng_seed)

    def test_csv_schema(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "bench.csv"
        write_bench_csv(rep, p)
        lines = p.read_text().splitlines()
        assert lines[0] == ("strategy,decision_time_s,decision_time_mean_s,"
                            "latency_s,reward,mean_draw_reward,nrr_mean,"
                            "nrr_best")
        assert len(lines) == 4
        row = lines[1].split(",")
        assert row[0] == "greedy"
        assert float(row[3]) == rep.by_name("greedy").latency_s

    def test_csv_text_is_pinned(self, tmp_path):
        """Every table writes its cells by one rule: None empty, a float
        (numpy's too) by ``repr(float(v))``, anything else by ``str``."""
        rep = BenchReport(stats=[
            StrategyStats(name="greedy", latency_s=np.float64(0.25),
                          reward=4.0, decision_time_s=1.5e-05,
                          decision_time_mean_s=np.float64(2e-05),
                          mean_draw_reward=4.1),
            StrategyStats(name="asa", latency_s=0.2, reward=np.float64(5.0),
                          decision_time_s=0.001, decision_time_mean_s=0.001,
                          mean_draw_reward=5.0, nrr_mean=np.float64(0.9),
                          nrr_best=1.0)], n_channels=2)
        write_bench_csv(rep, tmp_path / "bench.csv")
        assert (tmp_path / "bench.csv").read_bytes() == (
            b"strategy,decision_time_s,decision_time_mean_s,latency_s,reward,"
            b"mean_draw_reward,nrr_mean,nrr_best\r\n"
            b"greedy,1.5e-05,2e-05,0.25,4.0,4.1,,\r\n"
            b"asa,0.001,0.001,0.2,5.0,5.0,0.9,1.0\r\n")
        write_table_csv([{"m": 2, "accuracy": np.float64(0.9),
                          "compression_ratio": 0.5, "f_best": 1.0,
                          "f_avg": np.float64(0.95), "s_best": float("nan"),
                          "s_avg": np.float64("nan")}],
                        tmp_path / "table3.csv")
        assert (tmp_path / "table3.csv").read_bytes() == (
            b"m,accuracy,compression_ratio,f_best,f_avg,s_best,s_avg\r\n"
            b"2,0.9,0.5,1.0,0.95,nan,nan\r\n")

    def test_format_report_lists_all(self):
        rep = self.make_report()
        text = format_report(rep)
        for name in ("greedy", "random", "asa"):
            assert name in text


class TestWindowRewards:
    def test_policy_side_uses_logged_rewards(self):
        from edgesched.agent import EpochLog

        scen, _ = toy(seed=11)
        logs = [EpochLog(epoch=e, reward=float(e), latency=1.0 / e, loss=None,
                         delta_loss=None, t_sa=1, asa_best_objective=1.0,
                         buffer_size=1, mean_priority=1.0, evictions=0,
                         preserve_hits=0, decision_ms=0.0, asa_ms=0.0,
                         decision=np.zeros(4, dtype=int))
                for e in range(1, 11)]
        out = window_rewards(logs, scen, channel_seed=scen.rng_seed, window=4,
                             rng=np.random.default_rng(0))
        assert out["policy"] == pytest.approx(np.mean([7, 8, 9, 10]))
        assert set(out) == {"policy", "greedy", "random"}
        assert out["greedy"] > 0 and out["random"] > 0
