import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesched import agent, annealing, replay
from edgesched.allocator import Evaluator
from edgesched.annealing import (EPSILON, T_SA_MAX, AnnealConfig,
                                 BudgetState, SearchResult, adapt_budget,
                                 keep_table, mutate, search)
from edgesched.bench import BENCH_EPOCH_BASE, asa_only, exhaustive_best
from edgesched.config import ExperimentConfig
from edgesched.experiment import train_experiment
from edgesched.mec import (ChannelState, OffloadDecision, random_scenario,
                           sample_channel_state)
from edgesched.replay import ReplayConfig

from reference import mutation_probs
from test_agent import identity_compressor


def toy(n=4, m=2, seed=0):
    scen = random_scenario(n, m, rng_seed=seed, weights=(0.5, 2.0))
    return scen, sample_channel_state(scen, 1)


def draw_blocks(rng, n, m, budget):
    """The four blocks one ``search`` call draws, in its order."""
    return (rng.random((budget, n)), rng.integers(0, m + 1, (budget, n)),
            rng.integers(0, n * m, budget), rng.random(budget))


def reference_mutation(current, gains, u, vals, pick):
    """The candidate one row of the blocks makes from ``current``, gene by
    gene: redrawn where ``u`` beats ``mutation_probs``, else the forced
    change."""
    cand = current.copy()
    redraw = u > mutation_probs(current, gains)
    cand[redraw] = vals[redraw]
    if np.array_equal(cand, current):
        k, shift = divmod(int(pick), gains.shape[1])
        cand[k] = shift if shift < current[k] else shift + 1
    return cand


def reference_search(initial, scenario, channel, cfg, state, rng,
                     evaluator=None):
    """The annealing chain on ``search``'s four blocks, step by step: every
    candidate is built by ``reference_mutation`` and scored with
    ``latency_of``, and every acceptance uses the exact difference.

    Returns the result and, beside it, the best objective after every
    iteration as a list."""
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    m = ev.m
    keep_u, redraws, picks, boltzmann = draw_blocks(rng, ev.n, m,
                                                    state.budget)
    current = initial.assign.copy()
    f_cur = ev.latency_of(current)
    best, f_best = current.copy(), f_cur
    temperature = cfg.t0
    trace, improvements = [f_best], [(0, f_best)]
    for t in range(state.budget):
        cand = reference_mutation(current, channel.gains, keep_u[t],
                                  redraws[t], picks[t])
        f_cand = ev.latency_of(cand)
        if f_cand < f_best:
            best, f_best = cand.copy(), f_cand
            improvements.append((t + 1, f_best))
        delta = f_cand - f_cur
        if delta <= 0 or math.exp(-delta / temperature) > boltzmann[t]:
            current, f_cur = cand, f_cand
        temperature *= cfg.phi_cool
        trace.append(f_best)
    return SearchResult(decision=OffloadDecision(assign=best, n_mecs=m),
                        objective=f_best, improvements=tuple(improvements),
                        steps=state.budget), trace


# module constants that hold a search to one scorer, whatever the density:
# the loop with a run past every budget, so it never hands over, or windows
# from the start
SCORER_ONLY = {"_loop_search": {"BATCH_DENSITY": math.inf, "COLD_RUN": 10**9},
               "_batch_search": {"BATCH_DENSITY": 0.0}}
SCORERS = tuple(SCORER_ONLY)
# a chain that starts on the loop and hands over after 1 rejection, or after
# a middle run with short windows
HAND_OVERS = {"run-1": {"COLD_RUN": 1},
              "run-5-window-4": {"COLD_RUN": 5, "BATCH_WINDOW": 4}}


def patched_search(**constants):
    """``search`` with the ``annealing`` module constants set for the call."""
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(annealing, name, value)
            return search(*args, **kwargs)
    return run


def scorer_search(name):
    """``search`` on one scorer, whatever the density."""
    return patched_search(**SCORER_ONLY[name])


def hand_over_search(name):
    """``search`` started on the loop, with one of the ``HAND_OVERS``."""
    return patched_search(BATCH_DENSITY=math.inf, **HAND_OVERS[name])


def record_hand_overs(monkeypatch):
    """The start iteration of every ``_batch_search`` call, as made."""
    starts = []
    batch_search = annealing._batch_search

    def recorded(ev, keep, cfg, blocks, start, *args, **kwargs):
        starts.append(start)
        return batch_search(ev, keep, cfg, blocks, start, *args, **kwargs)
    monkeypatch.setattr(annealing, "_batch_search", recorded)
    return starts


def assert_same_result(got, ref, ref_trace):
    np.testing.assert_array_equal(got.decision.assign, ref.decision.assign)
    assert got.decision.assign.dtype == ref.decision.assign.dtype
    assert got.objective == ref.objective
    assert got.trace == tuple(ref_trace)
    assert got.improvements == ref.improvements


def mutate_rows(assign, gains, rng, rows):
    """``rows`` candidates from ``assign``: the kernel on block rows drawn as
    ``search`` draws them."""
    n, m = gains.shape
    keep_u, redraws, picks, _ = draw_blocks(rng, n, m, rows)
    keep_a = keep_table(gains)[np.arange(n), assign]
    return mutate(assign, keep_a, keep_u, redraws, picks, m)


class TestMutation:
    def test_keep_probability_values(self):
        gains = np.array([[3.0, 1.0], [1.0, 1.0]])
        assign = np.array([1, 0])
        probs = mutation_probs(assign, gains)
        assert probs[0] == pytest.approx(0.75)  # strong channel, sticky
        assert probs[1] == pytest.approx(1.0 / 3.0)  # local: neutral

    def test_keep_probability_weak_channel(self):
        gains = np.array([[1.0, 9.0]])
        probs = mutation_probs(np.array([1]), gains)
        assert probs[0] == pytest.approx(0.1)

    def test_mutate_always_differs(self):
        rng = np.random.default_rng(0)
        gains = np.full((5, 2), 1.0)
        assign = np.array([0, 1, 2, 1, 0])
        for cand in mutate_rows(assign, gains, rng, 300):
            assert not np.array_equal(cand, assign)
            assert np.all((cand >= 0) & (cand <= 2))

    def test_forced_change_single_gene(self):
        # keep probability ~1 for the only gene: redraw almost never fires,
        # so the forced-change path must produce a different value
        gains = np.array([[1e9, 1.0]])
        rng = np.random.default_rng(1)
        cands = mutate_rows(np.array([1]), gains, rng, 200)
        assert (cands[:, 0] != 1).all()
        assert set(cands[:, 0].tolist()) == {0, 2}

    def test_sticky_gene_kept_more_often(self):
        # the forced-change fallback also hits sticky genes, so the kept
        # fraction sits below the raw keep probability; the ordering is what
        # matters
        rng = np.random.default_rng(2)
        gains = np.array([[99.0, 1.0], [1.0, 99.0]])
        assign = np.array([1, 1])  # gene 0 sticky, gene 1 badly placed
        trials = 4000
        cands = mutate_rows(assign, gains, rng, trials)
        kept0, kept1 = (cands == 1).sum(axis=0)
        assert kept0 / trials > 0.75
        assert kept1 / trials < 0.3
        assert kept0 > 2 * kept1

    @given(n=st.integers(1, 12), m=st.integers(1, 5),
           rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(n=1, m=3, rows=20, seed=0)
    @example(n=6, m=1, rows=20, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_the_reference_rule(self, n, m, rows, seed):
        """Row for row, the kernel builds ``reference_mutation``'s
        candidate, also on rows where no gene is redrawn."""
        rng = np.random.default_rng(seed)
        gains = rng.lognormal(sigma=3.0, size=(n, m))
        assign = rng.integers(0, m + 1, n)
        keep_u, redraws, picks, _ = draw_blocks(rng, n, m, rows)
        keep_u[rng.random(rows) < 0.3] = 0.0  # rows that keep every gene
        start = assign.copy()
        cands = mutate(assign, keep_table(gains)[np.arange(n), assign],
                       keep_u, redraws, picks, m)
        np.testing.assert_array_equal(assign, start)
        assert cands.shape == (rows, n) and cands.dtype == assign.dtype
        for r in range(rows):
            np.testing.assert_array_equal(
                cands[r], reference_mutation(assign, gains, keep_u[r],
                                             redraws[r], picks[r]))


class TestBudget:
    def test_grow_on_fast_learning(self):
        assert EPSILON == 0.02
        assert adapt_budget(BudgetState(5), 0.02).budget == 6
        assert adapt_budget(BudgetState(5), 1.0).budget == 6

    def test_shrink_on_plateau(self):
        assert adapt_budget(BudgetState(5), 0.019).budget == 4
        assert adapt_budget(BudgetState(5), 0.0).budget == 4

    def test_floor_at_one(self):
        assert adapt_budget(BudgetState(1), 0.0).budget == 1

    def test_cap_at_max(self):
        assert T_SA_MAX == 100
        assert adapt_budget(BudgetState(99), 5.0).budget == 100
        assert adapt_budget(BudgetState(100), 5.0).budget == 100

    def test_deterministic_decay_sequence(self):
        # from 20 with a flat loss: exactly 19 shrink events reach 1
        state = BudgetState(20)
        steps = 0
        while state.budget > 1:
            state = adapt_budget(state, 0.0)
            steps += 1
        assert steps == 19


class TestSearch:
    def test_never_worse_than_initial(self):
        scen, ch = toy()
        ev = Evaluator(scen, ch)
        rng = np.random.default_rng(5)
        for trial in range(20):
            assign = rng.integers(0, 3, size=4)
            initial = OffloadDecision(assign=assign, n_mecs=2)
            res = search(initial, scen, ch, AnnealConfig(), BudgetState(10),
                         rng, evaluator=ev)
            assert res.objective <= ev.latency_of(assign) + 1e-12

    def test_objective_matches_decision(self):
        scen, ch = toy(seed=6)
        ev = Evaluator(scen, ch)
        rng = np.random.default_rng(6)
        initial = OffloadDecision(assign=np.zeros(4, dtype=int), n_mecs=2)
        res = search(initial, scen, ch, AnnealConfig(), BudgetState(30), rng)
        assert res.objective == pytest.approx(
            ev.latency_of(res.decision.assign), rel=1e-12)

    def test_trace_monotone_and_sized(self):
        scen, ch = toy(seed=7)
        rng = np.random.default_rng(7)
        initial = OffloadDecision(assign=np.zeros(4, dtype=int), n_mecs=2)
        res = search(initial, scen, ch, AnnealConfig(), BudgetState(25), rng)
        assert len(res.trace) == 26
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))

    def test_result_keeps_one_entry_per_improvement(self):
        scen, ch = toy(n=10, m=2, seed=11)
        initial = OffloadDecision(assign=np.zeros(10, dtype=int), n_mecs=2)
        res = search(initial, scen, ch, AnnealConfig(), BudgetState(200),
                     np.random.default_rng(11))
        trace = res.trace
        drops = [t for t in range(1, 201) if trace[t] < trace[t - 1]]
        assert res.steps == 200 and len(trace) == 201 and drops
        assert res.improvements == ((0, trace[0]),
                                    *((t, trace[t]) for t in drops))

    def test_finds_toy_optimum_with_budget(self):
        hits = 0
        for trial in range(30):
            scen, ch = toy(n=3, m=2, seed=100 + trial)
            _, f_opt = exhaustive_best(scen, ch)
            rng = np.random.default_rng(trial)
            initial = OffloadDecision(
                assign=rng.integers(0, 3, size=3), n_mecs=2)
            res = search(initial, scen, ch, AnnealConfig(), BudgetState(100),
                         rng)
            hits += abs(res.objective - f_opt) < 1e-9
        assert hits >= 29

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(t0=0.0)
        with pytest.raises(ValueError):
            AnnealConfig(phi_cool=1.5)
        with pytest.raises(ValueError):
            AnnealConfig(t_sa_init=0)
        assert AnnealConfig(t_sa_init=T_SA_MAX).t_sa_init == T_SA_MAX
        with pytest.raises(ValueError, match="t_sa_init"):
            AnnealConfig(t_sa_init=T_SA_MAX + 1)


def instance(n, m, seed, clones):
    """A scenario, channel, evaluator and start point drawn from ``seed``."""
    meta = np.random.default_rng(seed)
    scen = random_scenario(n, m, rng_seed=seed % 1000, weights=(0.5, 2.0))
    ch = sample_channel_state(scen, int(meta.integers(1, 100)))
    if clones:
        # identical UEs on identical channels: many placements tie exactly,
        # so moves sit right at the acceptance threshold
        scen = dataclasses.replace(scen, ues=(scen.ues[0],) * n)
        ch = ChannelState(gains=np.tile(ch.gains[0], (n, 1)))
    initial = OffloadDecision(assign=meta.integers(0, m + 1, size=n),
                              n_mecs=m)
    return scen, ch, Evaluator(scen, ch), initial


# the draws every check against ``reference_search`` takes
reference_cases = given(
    n=st.integers(1, 30), m=st.integers(1, 5), budget=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1), t0=st.sampled_from([1e-3, 1.0, 100.0]),
    phi=st.sampled_from([0.8, 0.95, 1.0]))


class TestSearchMatchesReference:
    """``search`` is the step-by-step chain on the same four blocks, bit for
    bit, wherever no two placements tie exactly."""

    @staticmethod
    def check_matches_reference(run, n, m, budget, seed, t0, phi):
        scen, ch, ev, initial = instance(n, m, seed, clones=False)
        cfg, state = AnnealConfig(t0=t0, phi_cool=phi), BudgetState(budget)
        rng_ref = np.random.default_rng(seed)
        rng_new = np.random.default_rng(seed)
        ref, ref_trace = reference_search(initial, scen, ch, cfg, state,
                                          rng_ref, evaluator=ev)
        got = run(initial, scen, ch, cfg, state, rng_new, evaluator=ev)
        assert_same_result(got, ref, ref_trace)
        assert rng_new.random() == rng_ref.random()

    @reference_cases
    @settings(max_examples=60, deadline=None)
    def test_same_result_and_stream(self, n, m, budget, seed, t0, phi):
        self.check_matches_reference(search, n, m, budget, seed, t0, phi)

    @pytest.mark.parametrize("scorer", SCORERS)
    @reference_cases
    @settings(max_examples=60, deadline=None)
    def test_each_scorer_same_result_and_stream(self, scorer, n, m, budget,
                                                seed, t0, phi):
        """Both scorers, whichever the density rule would pick."""
        self.check_matches_reference(scorer_search(scorer), n, m, budget,
                                     seed, t0, phi)

    @pytest.mark.parametrize("hand_over", HAND_OVERS)
    @reference_cases
    @settings(max_examples=60, deadline=None)
    def test_hand_over_same_result_and_stream(self, hand_over, n, m, budget,
                                              seed, t0, phi):
        """A loop chain that hands over to windows, whenever it does."""
        self.check_matches_reference(hand_over_search(hand_over), n, m,
                                     budget, seed, t0, phi)

    @pytest.mark.parametrize("hand_over", HAND_OVERS)
    def test_hand_overs_happen(self, monkeypatch, hand_over):
        """The hand-over cases above do hand over, at their run lengths."""
        starts = record_hand_overs(monkeypatch)
        for seed in range(20):
            scen, ch, ev, initial = instance(10, 3, seed, clones=False)
            hand_over_search(hand_over)(
                initial, scen, ch, AnnealConfig(), BudgetState(80),
                np.random.default_rng(seed), evaluator=ev)
        run = HAND_OVERS[hand_over]["COLD_RUN"]
        assert len(starts) >= 10 and min(starts) >= run

    def test_exact_ties(self):
        """Where placements tie, ``search`` keeps its contract instead."""
        for seed in range(60):
            n, m, budget = 4 + seed % 7, 2 + seed % 2, 120
            scen, ch, ev, initial = instance(n, m, seed, clones=True)
            runs = []
            for _ in range(2):
                rng = np.random.default_rng(seed)
                res = search(initial, scen, ch, AnnealConfig(),
                             BudgetState(budget), rng, evaluator=ev)
                runs.append((res.decision.assign.tolist(), res.objective,
                             res.trace, rng.random()))
            assert runs[0] == runs[1]
            blocks = np.random.default_rng(seed)
            draw_blocks(blocks, n, m, budget)
            assert runs[0][3] == blocks.random()
            assert res.objective == ev.latency_of(res.decision.assign)
            assert res.objective <= ev.latency_of(initial.assign)
            assert len(res.trace) == budget + 1
            assert res.trace[0] == ev.latency_of(initial.assign)
            assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
            assert res.trace[-1] == res.objective
            # the batch scorer accepts on exact latencies, as the chain does
            ref, ref_trace = reference_search(
                initial, scen, ch, AnnealConfig(), BudgetState(budget),
                np.random.default_rng(seed), evaluator=ev)
            got = scorer_search("_batch_search")(
                initial, scen, ch, AnnealConfig(), BudgetState(budget),
                np.random.default_rng(seed), evaluator=ev)
            assert_same_result(got, ref, ref_trace)

    @given(n=st.integers(1, 4), m=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_keep_table_is_mutation_probs(self, n, m, seed):
        gains = np.random.default_rng(seed).lognormal(sigma=3.0, size=(n, m))
        table = keep_table(gains)
        for placement in itertools.product(range(m + 1), repeat=n):
            assign = np.array(placement)
            np.testing.assert_array_equal(table[np.arange(n), assign],
                                          mutation_probs(assign, gains))

    def test_agent_run_epochs_csv_unchanged(self, monkeypatch, tmp_path):
        # a small buffer and batch, so the run evicts and trains on repeats
        monkeypatch.setattr(replay, "CAPACITY", 128)
        monkeypatch.setattr(agent, "BATCH", 16)

        def desk_run(path):
            n, m = 10, 2
            scen = random_scenario(n, m, rng_seed=3, weights=(0.5, 2.0))
            cfg = agent.AgentConfig(hidden=[32], t_drl=300, phi=10)
            res = agent.run(scen, identity_compressor(n, m), cfg,
                            AnnealConfig(), ReplayConfig(),
                            agent.SeedBundle.from_master(1))
            agent.write_epoch_csv(res.logs, path)
            return path.read_bytes()

        fast = desk_run(tmp_path / "search.csv")
        monkeypatch.setattr(agent, "_anneal_search",
                            lambda *a, **k: reference_search(*a, **k)[0])
        assert desk_run(tmp_path / "reference.csv") == fast


class TestScorers:
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_result_owns_its_placement(self, scorer):
        """A result holds no view of a candidate block or of its start."""
        run = scorer_search(scorer)
        for seed in range(10):
            scen, ch, ev, initial = instance(30, 5, seed, clones=False)
            start = OffloadDecision(assign=np.vstack([initial.assign] * 2)[0],
                                    n_mecs=5)
            assert not start.assign.flags.owndata
            res = run(start, scen, ch, AnnealConfig(), BudgetState(100),
                      np.random.default_rng(seed), evaluator=ev)
            assert res.decision.assign.flags.owndata
        # a start no move beats comes back as a copy
        scen, ch = toy(n=2, m=1, seed=3)
        optimum = OffloadDecision(assign=exhaustive_best(scen, ch)[0],
                                  n_mecs=1)
        res = run(optimum, scen, ch, AnnealConfig(), BudgetState(5),
                  np.random.default_rng(3))
        assert len(res.improvements) == 1
        assert res.decision.assign.flags.owndata
        assert not np.shares_memory(res.decision.assign, optimum.assign)

    def test_handed_over_result_owns_its_placement(self, monkeypatch):
        """A result that handed over holds no view of a window either."""
        starts = record_hand_overs(monkeypatch)
        run = hand_over_search("run-1")
        for seed in range(10):
            scen, ch, ev, initial = instance(30, 5, seed, clones=False)
            res = run(initial, scen, ch, AnnealConfig(), BudgetState(100),
                      np.random.default_rng(seed), evaluator=ev)
            assert starts[-1] > 0 and len(starts) == seed + 1
            assert res.decision.assign.flags.owndata
            assert not np.shares_memory(res.decision.assign, initial.assign)

    def test_one_mutate_call_per_window(self, monkeypatch):
        """A dense search builds each window it scores in one
        ``annealing.mutate`` call, made through the module attribute."""
        built, scored = [], []
        kernel, latencies = annealing.mutate, Evaluator.latencies
        monkeypatch.setattr(annealing, "mutate",
                            lambda *a: built.append(kernel(*a)) or built[-1])
        monkeypatch.setattr(Evaluator, "latencies",
                            lambda ev, c: scored.append(c) or latencies(ev, c))
        for seed in range(5):
            scen, ch, ev, initial = instance(30, 5, seed, clones=False)
            search(initial, scen, ch, AnnealConfig(), BudgetState(200),
                   np.random.default_rng(seed), evaluator=ev)
        assert len(built) == len(scored) > 5
        assert all(b is c for b, c in zip(built, scored))

    @staticmethod
    def count_calls(monkeypatch):
        calls = dict.fromkeys(SCORERS, 0)
        for name in SCORERS:
            def counted(*a, _name=name, _scorer=getattr(annealing, name),
                        **k):
                calls[_name] += 1
                return _scorer(*a, **k)
            monkeypatch.setattr(annealing, name, counted)
        return calls

    def test_default_desk_run_takes_the_loop(self, monkeypatch, tmp_path):
        """Every default desk search starts on the loop; the windows take
        over only the chains that go cold with a window's worth left."""
        calls = self.count_calls(monkeypatch)
        cfg = ExperimentConfig(out=str(tmp_path))
        train_experiment(cfg, tmp_path)
        assert calls == {"_loop_search": cfg.drl.t_drl,
                         "_batch_search": 5}  # the hand-overs

    def test_wide_asa_200_takes_the_batch_scorer(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        scen = random_scenario(30, 5, rng_seed=1)
        for k in range(20):
            ch = sample_channel_state(scen, BENCH_EPOCH_BASE + k, 1)
            asa_only(scen, ch, AnnealConfig(), 200, np.random.default_rng(k))
        assert calls == {"_loop_search": 0, "_batch_search": 20}
