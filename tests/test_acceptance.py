"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and runtime budget and prints one pass/fail line.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oplora import optim
from oplora.bench.aggregate import AGG_HEADER
from oplora.bench.config import ExperimentConfig
from oplora.bench.runner import RUN_HEADER, read_run_csv, run_experiment
from oplora.instrument import counters
from oplora.lorsum import lorsum
from oplora.lowrank import (FactorPair, product_distance_to_dense,
                            truncated_svd)
from oplora.nets import (LinearTask, LoraLinear, MlpTask, factor_grads,
                         init_adapter_random, linear_task_grad,
                         linear_task_grad_dense, make_linear_target,
                         make_mlp_dataset, make_mlp_layers,
                         mlp_forward_backward, sample_batch)

from helpers import (assert_alloc_linear_in_side, copy_pair,
                     gradient_layer, linear_task_loss, lorsum_half_steps,
                     materialize, mlp_loss, pad_rank, reset_counters,
                     state_scalar_count)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def seeded(*keys):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


@contextmanager
def criterion(num, desc, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} FAIL ({desc})")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"
    print(f"[acceptance] criterion {num:02d} PASS ({desc}) [{elapsed:.1f}s]")


def gapped_terms(g, d_out, d_in, term_ranks, head, tail):
    """Random thin-term sum whose materialization has the given spectrum."""
    sigma = np.concatenate([head, tail])
    total = sigma.size
    qa, _ = np.linalg.qr(g.standard_normal((d_out, total)))
    qb, _ = np.linalg.qr(g.standard_normal((d_in, total)))
    mix = np.eye(total) + 0.3 * g.standard_normal((total, total)) / np.sqrt(total)
    left_all = qa @ mix
    right_all = qb @ (np.linalg.inv(mix) @ np.diag(sigma)).T
    terms, start = [], 0
    for r in term_ranks:
        sl = slice(start, start + r)
        terms.append((1.0, left_all[:, sl], right_all[:, sl]))
        start += r
    return terms


def test_criterion_01_eckart_young_oracle():
    with criterion(1, "best rank-r factorization is never beaten", 10.0):
        g = seeded(1)
        for _ in range(100):
            w = g.standard_normal((30, 20))
            best = np.linalg.norm(materialize(truncated_svd(w, 5)) - w)
            for _ in range(10):
                cand = FactorPair(g.standard_normal((30, 5)),
                                  g.standard_normal((20, 5)))
                assert np.linalg.norm(materialize(cand) - w) >= best - 1e-9
            # perturbed-oracle adversaries
            oracle = truncated_svd(w, 5)
            for scale in (1e-3, 1e-1):
                cand = FactorPair(oracle.u + scale * g.standard_normal((30, 5)),
                                  oracle.v + scale * g.standard_normal((20, 5)))
                assert np.linalg.norm(materialize(cand) - w) >= best - 1e-9


def test_criterion_02_lorsum_tracks_truncated_svd():
    with criterion(2, "alternating updates converge to the rank-8 oracle", 30.0):
        g = seeded(2)
        ks = (1, 2, 4, 8, 16, 32)
        for _ in range(50):
            head = np.sort(2.4 + 1.6 * g.random(8))[::-1]
            head[-1] = 2.4
            tail = np.sort(0.4 + 0.8 * g.random(4))[::-1]
            tail[0] = 1.2  # spectrum gap at rank 8 is exactly 2
            raw = gapped_terms(g, 60, 40, [4, 4, 4], head, tail)
            anchor = pad_rank(FactorPair(raw[0][1], raw[0][2]), 8, g)
            terms = [(1.0, anchor.u, anchor.v)] + raw[1:]
            target = materialize(terms)
            oracle = materialize(truncated_svd(target, 8))
            norm = np.linalg.norm(target)
            errs = []
            for k in ks:
                out = lorsum(terms, num_iters=k)
                errs.append(np.linalg.norm(materialize(out) - oracle) / norm)
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-10
            assert errs[-1] < 1e-6
        # work grows linearly in the iteration count
        raw = gapped_terms(g, 60, 40, [4, 4, 4],
                           np.linspace(4.0, 2.4, 8), np.linspace(1.2, 0.5, 4))
        anchor = pad_rank(FactorPair(raw[0][1], raw[0][2]), 8, g)
        terms = [(1.0, anchor.u, anchor.v)] + raw[1:]
        flops = []
        for k in ks:
            reset_counters()
            lorsum(terms, num_iters=k)
            flops.append(counters().flops)
        slope = np.polyfit(np.log(ks), np.log(flops), 1)[0]
        assert abs(slope - 1.0) <= 0.1


def test_criterion_03_one_step_recovers_preconditioned_lora():
    with criterion(3, "one simultaneous step equals preconditioned updates", 5.0):
        for inst in range(20):
            g = seeded(3, inst)
            qu, _ = np.linalg.qr(g.standard_normal((14, 4)))
            qv, _ = np.linalg.qr(g.standard_normal((10, 4)))
            pair = FactorPair(qu * (1 + 0.2 * g.uniform(-1, 1, 4)),
                              qv * (1 + 0.2 * g.uniform(-1, 1, 4)))
            x = g.standard_normal((6, 10))
            s = g.standard_normal((6, 14))
            eta = 0.3
            for lam in (1e-6, 1e-9, 1e-12):
                layer_a = LoraLinear(None, copy_pair(pair))
                layer_a.captured_x, layer_a.captured_s = x, s
                state = optim.OploraState(
                    optim.OploraConfig(eta=eta, lam=lam, num_iters=1,
                                       mode="simultaneous"),
                    init_seed=0)
                out = optim.oplora_step(layer_a, state)
                layer_b = LoraLinear(None, copy_pair(pair))
                layer_b.captured_x, layer_b.captured_s = x, s
                ref = optim.prec_lora_step(layer_b, eta, lam * eta)
                update = max(np.linalg.norm(ref.u - pair.u),
                             np.linalg.norm(ref.v - pair.v))
                dev = max(np.max(np.abs(out.u - ref.u)),
                          np.max(np.abs(out.v - ref.v)))
                assert dev <= 10.0 * lam * update + 1e-13


def test_criterion_04_subspace_iteration_identities():
    with criterion(4, "half-step products are metric projections", 5.0):
        for inst in range(20):
            g = seeded(4, inst)
            pair = FactorPair(g.standard_normal((15, 3)),
                              g.standard_normal((11, 3)))
            extra = FactorPair(g.standard_normal((15, 4)),
                               g.standard_normal((11, 4)))
            terms = [(1.0, pair.u, pair.v), (0.8, extra.u, extra.v)]
            target = materialize(terms)
            norm = np.linalg.norm(target)
            with lorsum_half_steps() as trace:
                lorsum(terms, num_iters=3)
            assert len(trace) == 2 * 3
            for entry in trace:
                u, v = entry["u"], entry["v"]
                prod = u @ v.T
                if entry["side"] == "V":
                    proj = u @ np.linalg.solve(u.T @ u, u.T @ target)
                else:
                    proj = (target @ v) @ np.linalg.inv(v.T @ v) @ v.T
                assert np.linalg.norm(prod - proj) <= 1e-8 * norm


def _run_reference_projection(target, init, eta, alpha, steps,
                              batch_rng=None, batch_size=None):
    task = LinearTask(target)
    pair, momentum = init, np.zeros(target.shape)
    iterates = []
    for _ in range(steps):
        idx = sample_batch(task.d_in, batch_size, batch_rng)
        grad, _ = linear_task_grad_dense(task, materialize(pair), idx)
        pair = optim.svdlora_step(gradient_layer(pair, grad), momentum, eta,
                                  alpha)
        iterates.append(materialize(pair))
    _, final_loss = linear_task_grad_dense(task, materialize(pair),
                                           np.arange(target.shape[1]))
    return iterates, final_loss


def _run_alternating(target, init, cfg_kw, steps, seed,
                     batch_size=None):
    task = LinearTask(target)
    batch_rng = seeded(seed, 2)
    layer = LoraLinear(None, copy_pair(init))
    state = optim.OploraState(optim.OploraConfig(**cfg_kw), init_seed=seed)
    iterates = []
    for _ in range(steps):
        linear_task_grad(task, layer,
                         sample_batch(task.d_in, batch_size, batch_rng))
        optim.oplora_step(layer, state)
        iterates.append(copy_pair(layer.adapter))
    final_loss = linear_task_loss(task, layer.adapter)
    return iterates, final_loss


def test_criterion_05_iteration_count_closes_gap_deterministic():
    with criterion(5, "full-batch gap to the projection reference shrinks "
                      "with K", 60.0):
        d_out, d_in, r, eta, steps = 120, 40, 8, 0.5, 20
        target = make_linear_target(d_out, d_in, seeded(7, 0))
        init = init_adapter_random(d_out, d_in, r, seeded(7, 1))
        ref_iterates, ref_final = _run_reference_projection(
            target, init, eta, 0.0, steps)
        mean_dists = {}
        finals = {}
        for k in (1, 2, 8):
            iterates, final = _run_alternating(
                target, init,
                dict(eta=eta, alpha=0.0, lam=1e-3, num_iters=k), steps,
                seed=0)
            dists = [product_distance_to_dense(p, w)
                     for p, w in zip(iterates, ref_iterates)]
            mean_dists[k] = float(np.mean(dists))
            finals[k] = final
        assert mean_dists[2] <= mean_dists[1] + 1e-10
        assert mean_dists[8] <= mean_dists[2] + 1e-10
        assert abs(finals[8] - ref_final) <= 0.05 * ref_final


def test_criterion_06_momentum_rank_closes_gap_minibatch():
    with criterion(6, "minibatch gap shrinks with the momentum rank", 120.0):
        d_out, d_in, r = 120, 40, 8
        eta, alpha, steps, bs = 0.1, 0.75, 200, 16
        seeds = [0, 1, 2, 3, 4]
        target = make_linear_target(d_out, d_in, seeded(7, 0))
        init = init_adapter_random(d_out, d_in, r, seeded(7, 1))
        ref_final = {}
        for seed in seeds:
            _, ref_final[seed] = _run_reference_projection(
                target, init, eta, alpha, steps,
                batch_rng=seeded(seed, 2), batch_size=bs)
        median_gap = {}
        for m_rank in (8, 16, 32):
            gaps = []
            for seed in seeds:
                _, final = _run_alternating(
                    target, init,
                    dict(eta=eta, alpha=alpha, lam=1e-3, num_iters=2,
                         momentum_rank=m_rank),
                    steps, seed=seed, batch_size=bs)
                gaps.append(abs(final - ref_final[seed]))
            median_gap[m_rank] = float(np.median(gaps))
        assert median_gap[16] <= median_gap[8] + 1e-10
        assert median_gap[32] <= median_gap[16] + 1e-10


def test_criterion_07_momentum_geometric_series():
    with criterion(7, "low-rank momentum matches the geometric series", 5.0):
        g = seeded(8)
        d_out, d_in, r = 16, 12, 3
        gl = g.standard_normal((d_out, r))
        gr = g.standard_normal((d_in, r))
        grad = gl @ gr.T
        state = optim.OploraState(
            optim.OploraConfig(eta=0.1, alpha=0.5, momentum_rank=r,
                               num_iters=1), init_seed=0)
        momentum = optim._init_momentum(d_out, d_in, r, 0)
        expected = np.zeros((d_out, d_in))
        for _ in range(20):
            momentum = optim.momentum_update_lor(state, momentum, gl, gr)
            expected = 0.5 * expected + grad
            got = materialize(momentum)
            assert np.linalg.norm(got - expected) \
                <= 1e-6 * np.linalg.norm(expected)


def test_criterion_08_gradient_correctness():
    with criterion(8, "finite differences validate all factor gradients",
                   30.0):
        h, tol = 1e-6, 1e-5

        def check(grad, fd_fn, param):
            fd = np.zeros_like(grad)
            for i in range(grad.shape[0]):
                for j in range(grad.shape[1]):
                    orig = param[i, j]
                    param[i, j] = orig + h
                    up = fd_fn()
                    param[i, j] = orig - h
                    dn = fd_fn()
                    param[i, j] = orig
                    fd[i, j] = (up - dn) / (2 * h)
            assert np.linalg.norm(fd - grad) \
                <= tol * max(1.0, np.linalg.norm(grad))

        for point in range(10):
            g = seeded(9, point)
            target = make_linear_target(8, 6, g)
            task = LinearTask(target)
            pair = init_adapter_random(8, 6, 3, g)
            layer = LoraLinear(None, pair)
            linear_task_grad(task, layer, np.arange(6))
            g_u, g_v = factor_grads(layer)
            check(g_u, lambda: linear_task_loss(task, pair), pair.u)
            check(g_v, lambda: linear_task_loss(task, pair), pair.v)

        task = MlpTask([6, 8, 5, 4], nonlinearity="tanh",
                       loss="cross_entropy", n_samples=10)
        for point in range(10):
            g = seeded(10, point)
            x, y = make_mlp_dataset(task, g)
            layers = make_mlp_layers(task, 2, g)
            for layer in layers:
                layer.adapter = FactorPair(
                    layer.adapter.u,
                    0.3 * g.standard_normal(layer.adapter.v.shape))
            mlp_forward_backward(task, layers, x, y)
            grads = [factor_grads(layer) for layer in layers]
            for layer, (g_u, g_v) in zip(layers, grads):
                check(g_u, lambda: mlp_loss(task, layers, x, y),
                      layer.adapter.u)
                check(g_v, lambda: mlp_loss(task, layers, x, y),
                      layer.adapter.v)


def test_criterion_09_memory_contract():
    with criterion(9, "state budgets hold and hot paths never densify",
                   30.0):
        d_out, d_in, r, bs, steps = 120, 40, 8, 16, 200
        adapter_params = (d_out + d_in) * r

        def captured_steps(state, d_out, d_in, n_steps):
            """Sets the task up at one shape, then yields one optimizer
            step per batch."""
            target = make_linear_target(d_out, d_in, seeded(7, 0))
            task = LinearTask(target)
            layer = LoraLinear(
                None, init_adapter_random(d_out, d_in, r, seeded(7, 1)))
            batch_rng = seeded(0, 2)

            def steps():
                for _ in range(n_steps):
                    linear_task_grad(task, layer,
                                     sample_batch(d_in, bs, batch_rng))
                    yield lambda: optim.oplora_step(layer, state)
            return steps()

        def run(hyper):
            state = optim.OploraState(hyper, init_seed=0)
            calls = captured_steps(state, d_out, d_in, steps)
            reset_counters()
            for step in calls:
                step()
            assert counters().peak_alloc < d_out * d_in
            # measured bytes: a step's peak grows linearly in the side,
            # d_in = d_out / 3 as above
            assert_alloc_linear_in_side(lambda side: captured_steps(
                optim.OploraState(hyper, init_seed=0), side, side // 3, 10))
            return state

        # momentum only: persistent state within 2x the adapter size
        state = run(optim.OploraConfig(eta=0.1, alpha=0.75, lam=1e-3,
                                       num_iters=2, momentum_rank=2 * r))
        assert state_scalar_count(state) <= 2 * adapter_params

        # momentum + metric scaling: within 4x
        state = run(optim.OploraConfig(eta=0.1, alpha=0.75, lam=1e-3,
                                       num_iters=2, beta=0.95, delta=1.0,
                                       momentum_rank=2 * r, metric_rank=r))
        assert state_scalar_count(state) <= 4 * adapter_params


def test_criterion_10_harness_determinism_and_full_scale_preset(tmp_path):
    with criterion(10, "deterministic CSVs and the full-scale preset", 600.0):
        assert RUN_HEADER == "step,loss,oracle_gap,flops,wall_ms"
        doc = {
            "schema_version": 1,
            "task": {"kind": "linear", "d_out": 60, "d_in": 24, "seed": 5,
                     "init": "random"},
            "method": "oplora", "rank": 4, "k": 2, "eta": 0.5, "alpha": 0.5,
            "lambda": 1e-3, "steps": 25, "seeds": [3],
            "batch": {"mode": "minibatch", "size": 8},
            "out_dir": str(tmp_path / "det_a"), "timing": False,
        }
        run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        doc["out_dir"] = str(tmp_path / "det_b")
        run_experiment(ExperimentConfig.from_dict(doc), quiet=True)
        name = "oplora_eta0.5_seed3.csv"
        bytes_a = (tmp_path / "det_a" / name).read_bytes()
        assert bytes_a == (tmp_path / "det_b" / name).read_bytes()
        assert bytes_a.decode().splitlines()[0] == RUN_HEADER

        # full-scale preset: 600 x 200 columns, batch 64, eta 0.1,
        # momentum 0.75, 5 seeds
        cfg = ExperimentConfig.from_json(
            str(CONFIG_DIR / "full_scale_linear_minibatch.json"))
        assert cfg.task.d_out == 600 and cfg.task.d_in == 200
        assert cfg.batch.size == 64 and cfg.eta == 0.1 and cfg.alpha == 0.75
        assert len(cfg.seeds) == 5
        cfg.out_dir = str(tmp_path / "full_scale")
        manifest = run_experiment(cfg, quiet=True)
        assert all(r["status"] == "ok" for r in manifest["runs"])
        agg_path = tmp_path / "full_scale" / "agg_svdlora_eta0.1.csv"
        lines = agg_path.read_text().splitlines()
        assert lines[0] == AGG_HEADER
        assert len(lines) == cfg.steps + 1
        med = np.array([float(line.split(",")[1]) for line in lines[1:]])
        blocks = med[:100].reshape(10, 10).mean(axis=1)
        # monotone trend: no block-mean rebound beyond 5% of the total
        # descent (the iterate wanders in a stochastic steady state once
        # it reaches the rank floor)
        slack = 0.05 * (med[0] - med[99])
        assert med[99] < med[0]
        assert all(b <= a + slack for a, b in zip(blocks, blocks[1:]))
        for entry in manifest["runs"]:
            records = read_run_csv(os.path.join(cfg.out_dir, entry["csv"]))
            assert len(records) == cfg.steps
            assert all(np.isfinite(r.loss) for r in records)
