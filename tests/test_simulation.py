"""Tests for the VAR simulator and the Monte Carlo calibration layer."""

import dataclasses
import io
import itertools
import re

import numpy as np
import pytest

import oracles
import spectest.simulation
import spectest.spectral
from spectest.divergence import J, chernoff
from spectest.errors import BandwidthTooLarge, NonStationary
from spectest.hypotheses import EdgeSet, GraphicalModel, IndependenceModel, SeparableModel
from spectest.inference import StatisticVariant, run_many
from spectest.simulation import (
    McConfig,
    VarOneProcess,
    _collect,
    _run_block,
    _simulate_stack,
    _summarize,
    benchmark_process,
    config_manifest,
    null_summary,
    power_rows,
    replication_seed,
    simulate_var1,
    size_adjusted_power,
    summary_rows,
    write_summary_csv,
)

FULL = StatisticVariant(form="full")
QUAD = StatisticVariant(form="quadratic")
BLOCK = StatisticVariant(form="block")


def small_config(phi=0.0, seed=42, reps=120, variants=(FULL,)):
    return McConfig(
        process=benchmark_process(phi),
        n=101,
        bandwidth=16,
        model=IndependenceModel(),
        variants=variants,
        replications=reps,
        seed=seed,
        burn_in=100,
    )


def test_benchmark_process_layout():
    proc = benchmark_process(0.3)
    expected = np.array([[0.7, 0.3, 0.0], [0.0, -0.5, 0.3], [0.0, 0.0, 0.6]])
    assert np.array_equal(proc.a, expected)
    assert proc.r == 3


def test_benchmark_eigenvalues_fixed_for_any_coupling():
    # triangular design: coupling strength never moves the spectrum
    for phi in (0.0, 0.2, 5.0, -40.0):
        eigs = np.sort(np.linalg.eigvals(benchmark_process(phi).a).real)
        assert np.allclose(eigs, [-0.5, 0.6, 0.7], atol=1e-12)
        assert benchmark_process(phi).spectral_radius == pytest.approx(0.7, abs=1e-12)


def test_process_rejects_unstable_matrix():
    with pytest.raises(NonStationary):
        VarOneProcess(a=np.eye(2))
    with pytest.raises(NonStationary):
        VarOneProcess(a=np.array([[0.5, 0.0], [0.0, 1.2]]))


def test_process_validates_innovation_cov():
    with pytest.raises(ValueError):
        VarOneProcess(a=0.5 * np.eye(2), innovation_cov=np.diag([1.0, -1.0]))


def test_simulate_zero_matrix_reproduces_innovations():
    proc = VarOneProcess(a=np.zeros((3, 3)))
    out = simulate_var1(proc, 50, burn_in=10, seed=123)
    direct = np.random.default_rng(123).standard_normal((60, 3))[10:]
    assert np.array_equal(out, direct)


def test_simulate_is_deterministic_per_seed():
    proc = benchmark_process(0.2)
    a = simulate_var1(proc, 64, burn_in=50, seed=7)
    b = simulate_var1(proc, 64, burn_in=50, seed=7)
    c = simulate_var1(proc, 64, burn_in=50, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64, 3)


def test_simulate_recovers_ar_coefficient():
    proc = benchmark_process(0.0)
    z = simulate_var1(proc, 20000, seed=31)
    x = z[:, 0]
    slope = np.dot(x[1:], x[:-1]) / np.dot(x[:-1], x[:-1])
    assert slope == pytest.approx(0.7, abs=0.02)
    y = z[:, 1]
    assert np.dot(y[1:], y[:-1]) / np.dot(y[:-1], y[:-1]) == pytest.approx(-0.5, abs=0.02)


def test_simulate_rejects_tiny_samples():
    with pytest.raises(ValueError):
        simulate_var1(benchmark_process(0.0), 4)


def test_replication_seeds_are_stable_and_distinct():
    s0 = replication_seed(99, 0)
    s0_again = replication_seed(99, 0)
    s1 = replication_seed(99, 1)
    assert np.random.default_rng(s0).integers(1 << 30) == np.random.default_rng(s0_again).integers(1 << 30)
    assert np.random.default_rng(s0).integers(1 << 30) != np.random.default_rng(s1).integers(1 << 30)


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        small_config(reps=120).__class__(
            process=benchmark_process(0.0),
            n=101,
            bandwidth=15,
            model=IndependenceModel(),
            variants=(FULL,),
            replications=120,
            seed=0,
        )
    cfg = small_config()
    assert cfg.labels == ("full-kl",)


def test_summarize_moment_conventions():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    s = _summarize(values, np.zeros(4, dtype=bool), 0.05)
    assert s.mean == pytest.approx(2.5)
    assert s.variance == pytest.approx(5.0 / 3.0)  # 1/(N-1)
    assert s.skewness == pytest.approx(0.0, abs=1e-14)
    assert s.kurtosis == pytest.approx(1.64)  # non-excess, 1/N central moments
    assert s.q95 == pytest.approx(np.quantile(values, 0.95))
    assert s.rejection_rate == pytest.approx(0.75)  # 2, 3, 4 clear 1.6449
    assert s.replications == 4
    tight = _summarize(np.array([0.0, 1.0, 1.6, 1.7]), np.zeros(4, dtype=bool), 0.05)
    assert tight.rejection_rate == pytest.approx(0.25)  # only 1.7 clears


def test_summarize_counts_forced_rejections():
    values = np.array([0.0, 0.0, 5.0, 0.0])
    forced = np.array([True, False, False, False])
    s = _summarize(values, forced, 0.05)
    assert s.rejection_rate == pytest.approx(0.5)


def test_null_summary_runs_and_is_reproducible():
    cfg = small_config(reps=120)
    out1 = null_summary(cfg)
    out2 = null_summary(cfg)
    s1, s2 = out1["full-kl"], out2["full-kl"]
    assert s1.mean == s2.mean
    assert s1.q95 == s2.q95
    assert 0.0 <= s1.rejection_rate <= 0.3
    assert abs(s1.mean) < 0.6
    assert s1.replications == 120


def test_thread_count_does_not_change_results():
    cfg = small_config(reps=120)
    serial = null_summary(cfg, threads=1)
    parallel = null_summary(cfg, threads=2)
    assert serial["full-kl"].mean == parallel["full-kl"].mean
    assert serial["full-kl"].variance == parallel["full-kl"].variance
    assert serial["full-kl"].rejection_rate == parallel["full-kl"].rejection_rate


def test_replication_floor_enforced():
    with pytest.raises(ValueError):
        null_summary(small_config(reps=50))


def test_size_adjusted_power_self_calibrates():
    # same law under "null" and "alternative": power sits near alpha
    null_cfg = small_config(seed=1, reps=200)
    alt_cfg = small_config(seed=2, reps=200)
    power = size_adjusted_power(null_cfg, alt_cfg)
    assert abs(power["full-kl"] - 0.05) < 0.05


def test_size_adjusted_power_detects_coupling():
    null_cfg = small_config(seed=3, reps=150)
    alt_cfg = McConfig(
        process=benchmark_process(0.6),
        n=101,
        bandwidth=16,
        model=IndependenceModel(),
        variants=(FULL,),
        replications=150,
        seed=4,
        burn_in=100,
    )
    power = size_adjusted_power(null_cfg, alt_cfg)
    assert power["full-kl"] > 0.5


def test_size_adjusted_power_requires_matching_designs():
    with pytest.raises(ValueError):
        size_adjusted_power(small_config(), small_config(variants=(QUAD,)))


def test_summary_rows_and_csv_schema():
    cfg = small_config(reps=120, variants=(FULL, QUAD, BLOCK))
    summaries = null_summary(cfg)
    rows = summary_rows(cfg, summaries)
    assert [row["variant"] for row in rows] == ["full", "quadratic", "block"]
    assert list(rows[0].keys()) == [
        "variant", "n", "m", "stat", "mean", "var", "skew", "kurt", "q95", "size",
    ]
    assert rows[0]["n"] == 101
    assert rows[0]["m"] == 16
    assert rows[0]["stat"] == "kl"
    assert rows[1]["stat"] == "quadratic"

    buf = io.StringIO()
    write_summary_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "variant,n,m,stat,mean,var,skew,kurt,q95,size"
    assert len(lines) == 4

    # floats are written with .6g, everything else as str; rows end in a bare newline
    table = [
        {"variant": "full", "n": 101, "m": "cvll", "stat": "chernoff(0.3)", "mean": 0.123456789,
         "var": 2.0, "skew": -1.5e-07, "kurt": 3, "q95": 1234567.0, "size": 0.05},
        {"variant": "quadratic", "n": 101, "m": 16, "stat": "quadratic", "mean": -0.0,
         "var": 1.0000004, "skew": 0.5, "kurt": 2.999999, "q95": 1e-300, "size": 0.0},
    ]
    buf = io.StringIO()
    write_summary_csv(table, buf)
    assert buf.getvalue() == (
        "variant,n,m,stat,mean,var,skew,kurt,q95,size\n"
        "full,101,cvll,chernoff(0.3),0.123457,2,-1.5e-07,3,1.23457e+06,0.05\n"
        "quadratic,101,16,quadratic,-0,1,0.5,3,1e-300,0\n"
    )
    buf = io.StringIO()
    write_summary_csv([], buf)
    assert buf.getvalue() == ""


def test_power_rows_schema():
    cfg = small_config(reps=120)
    rows = power_rows(cfg, {"full-kl": 0.42})
    assert rows[0]["power"] == 0.42
    assert rows[0]["mean"] == ""
    assert list(rows[0].keys())[-1] == "power"

    chernoff_full = StatisticVariant(form="full", kind=chernoff(0.3))
    cfg = McConfig(process=benchmark_process(0.0), n=101, bandwidth="cvll", model=IndependenceModel(),
                   variants=(chernoff_full, BLOCK), replications=120, seed=0)
    buf = io.StringIO()
    write_summary_csv(power_rows(cfg, {"full-chernoff(0.3)": 5 / 12, "block-kl": 1.0}), buf)
    assert buf.getvalue() == (
        "variant,n,m,stat,mean,var,skew,kurt,q95,power\n"
        "full,101,cvll,chernoff(0.3),,,,,,0.416667\n"
        "block,101,cvll,kl,,,,,,1\n"
    )


def test_config_manifest_hash_tracks_content():
    cfg_a = small_config(seed=5)
    cfg_b = small_config(seed=5)
    cfg_c = small_config(seed=6)
    m_a = config_manifest(cfg_a, "simulate-null")
    m_b = config_manifest(cfg_b, "simulate-null")
    m_c = config_manifest(cfg_c, "simulate-null")
    assert set(m_a) == {"config", "seed", "content_hash"}
    assert m_a["content_hash"] == m_b["content_hash"]
    assert m_a["content_hash"] != m_c["content_hash"]
    assert m_a["seed"] == 5
    assert m_a["config"]["command"] == "simulate-null"
    # a graphical null records its edges (1-based) and series count, a process its innovation covariance
    cov = np.diag([1.0, 2.0, 0.5])
    graphical = dataclasses.replace(cfg_a, process=VarOneProcess(cfg_a.process.a, innovation_cov=cov),
                                    model=GraphicalModel(EdgeSet.from_pairs(3, [(2, 1), (0, 1)])))
    m_g = config_manifest(graphical, "simulate-null")
    assert m_g["config"]["model"] == {"name": "graphical", "edges": [[1, 2], [2, 3]], "r": 3}
    assert m_g["config"]["process"]["innovation_cov"] == cov.tolist()
    assert m_a["config"]["process"]["innovation_cov"] is None
    unit = dataclasses.replace(graphical, process=cfg_a.process)
    assert len({m_a["content_hash"], m_g["content_hash"], config_manifest(unit, "simulate-null")["content_hash"]}) == 3


def test_config_manifest_records_every_config_field():
    # a field the manifest leaves out would also be left out of content_hash
    fields = {field.name for field in dataclasses.fields(McConfig)}
    assert fields <= set(config_manifest(small_config(), "simulate-null")["config"])


def test_config_manifest_takes_a_numpy_integer_span():
    cfg = McConfig(process=benchmark_process(0.0), n=101, bandwidth=np.int64(16), model=IndependenceModel(),
                   variants=(FULL,), replications=120, seed=0)
    assert type(cfg.bandwidth) is int
    same = McConfig(process=benchmark_process(0.0), n=101, bandwidth=16, model=IndependenceModel(),
                    variants=(FULL,), replications=120, seed=0)
    assert config_manifest(cfg, "simulate-null") == config_manifest(same, "simulate-null")


def test_mcconfig_validates_the_design_before_any_draw():
    def config(**changes):
        fields = dict(process=benchmark_process(0.0), n=101, bandwidth=16, model=IndependenceModel(),
                      variants=(FULL,), replications=120, seed=0)
        fields.update(changes)
        return McConfig(**fields)

    with pytest.raises(ValueError, match="need n >= 8, got 6"):
        config(n=6, bandwidth="cvll")
    with pytest.raises(ValueError, match="burn_in must be nonnegative, got -1"):
        config(burn_in=-1)
    with pytest.raises(BandwidthTooLarge, match="span m = 60 must satisfy m < n/2 = 50.5"):
        config(bandwidth=60)
    with pytest.raises(ValueError, match="span m must be even and >= 2, got 0"):
        config(bandwidth=0)
    with pytest.raises(ValueError, match="span m must be even and >= 2, got 7"):
        config(bandwidth=7)
    five = VarOneProcess(a=0.5 * np.eye(5))
    with pytest.raises(ValueError, match="span m = 2 too small for dimension r = 5; need m \\+ 1 >= r"):
        config(process=five, bandwidth=2)
    assert config(process=five, bandwidth=4).n == 101
    for alpha in (1.5, 0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"alpha_level must lie in \(0, 1\), got "):
            config(alpha_level=alpha)
    assert config(alpha_level=0.01).alpha_level == 0.01


def ramp(lam):
    return 1.0 + lam


EDGES = EdgeSet.from_pairs(3, [(0, 1), (1, 2)])
ALL_FORMS = (FULL, QUAD, BLOCK, StatisticVariant(form="full", kind=J), StatisticVariant("weighted", phi=ramp))
BATCH_CONFIGS = {
    "independence": dict(model=IndependenceModel(), bandwidth=8),
    "separable": dict(model=SeparableModel(), bandwidth=8),
    "graphical": dict(model=GraphicalModel(EDGES), bandwidth=8),
    "cvll": dict(model=IndependenceModel(), bandwidth="cvll"),
    # innovations in units of 1e-155: spans are selected on the equilibrated samples, as run_many selects them
    "cvll-tiny-units": dict(model=IndependenceModel(), bandwidth="cvll", process=VarOneProcess(
        benchmark_process(0.3).a, innovation_cov=1e-310 * np.eye(3))),
}


def batch_config(name, reps=20, phi=0.3, seed=91):
    fields = dict(process=benchmark_process(phi), n=64, variants=ALL_FORMS, replications=reps, seed=seed,
                  burn_in=150)
    return McConfig(**{**fields, **BATCH_CONFIGS[name]})


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_collect_is_invariant_to_chunk_size_and_threads(name, monkeypatch):
    config = batch_config(name)
    per_replication = config.n * config.process.r**2
    runs = {"default": _collect(config, threads=1), "threads=2": _collect(config, threads=2)}
    for size in (1, 7):
        monkeypatch.setattr(spectest.simulation, "_CHUNK_ELEMENTS", size * per_replication)
        runs[f"chunk {size}"] = _collect(config, threads=1)
    # a chunk's CVLL spans are selected in one stacked call, here eliminated one span at a time
    monkeypatch.setattr(spectest.spectral, "_CVLL_BLOCK_ELEMENTS", 1)
    runs["chunk 7, one span per CVLL block"] = _collect(config, threads=1)
    for label in config.labels:
        values, forced = runs["default"][label]
        assert values.shape == (config.replications,)
        for run in runs.values():
            assert np.array_equal(run[label][0], values)
            assert np.array_equal(run[label][1], forced)


def test_mcconfig_rejects_a_non_integral_span():
    # a span that is not an integer raises, naming it, instead of running its truncation
    for bandwidth in (30.7, 30.0, "CVLL"):
        with pytest.raises(ValueError, match=re.escape(f"span m must be an integer, got {bandwidth!r}")):
            McConfig(process=benchmark_process(0.0), n=101, bandwidth=bandwidth, model=IndependenceModel(),
                      variants=(FULL,), replications=120, seed=0)


def test_collect_prefix_does_not_depend_on_the_replication_count():
    short = _collect(batch_config("independence", reps=100), threads=1)
    long = _collect(batch_config("independence", reps=120), threads=1)
    for label, (values, forced) in short.items():
        assert np.array_equal(long[label][0][:100], values)
        assert np.array_equal(long[label][1][:100], forced)


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_batched_replications_match_the_serial_oracle(name):
    config = batch_config(name, reps=12)
    batched = _run_block(config, range(config.replications))
    assert list(batched) == list(config.labels)
    for k, want in enumerate(oracles.replications(config)):
        sample = simulate_var1(config.process, config.n, burn_in=config.burn_in,
                               seed=replication_seed(config.seed, k))
        direct = run_many(sample, config.model, config.bandwidth, config.variants)
        assert list(want) == list(direct) == list(config.labels)
        for label, (values, forced) in batched.items():
            # the bench regenerates replications this way, so they must be the study's bits
            assert values[k] == direct[label].standardized
            assert forced[k] == direct[label].forced_reject == want[label].forced_reject
            assert direct[label].m == want[label].m
            assert direct[label].nonpd_count == want[label].nonpd_count
            assert direct[label].raw == pytest.approx(want[label].raw, rel=1e-12)
            # standardized values are centred, so near zero only an absolute bound means anything
            assert values[k] == pytest.approx(want[label].standardized, rel=1e-12, abs=1e-12)


def test_simulator_matches_the_serial_recursion():
    correlated = VarOneProcess(a=benchmark_process(0.4).a, innovation_cov=np.array(
        [[1.0, 0.3, 0.1], [0.3, 2.0, -0.4], [0.1, -0.4, 0.5]]))
    seeds = [replication_seed(17, k) for k in range(30)]
    # burn-in 0 checks the stationary start itself; 200 steps wash any start out to the last bit
    for process, burn_in in itertools.product((benchmark_process(0.4), correlated), (0, 200)):
        stack = _simulate_stack(process, 64, burn_in, seeds)
        assert stack.shape == (30, 64, 3) and stack.flags.c_contiguous
        for seed, got in zip(seeds, stack):
            assert np.array_equal(got, oracles.simulate_var1(process, 64, burn_in, seed))
        for seed in range(5):
            got = simulate_var1(process, 64, burn_in=burn_in, seed=seed)
            assert np.array_equal(got, oracles.simulate_var1(process, 64, burn_in, seed))


STATIONARY_PROCESSES = {
    "benchmark": benchmark_process(0.4),
    "correlated 2-series": VarOneProcess(a=np.array([[0.5, 0.4], [-0.3, 0.8]]),
                                         innovation_cov=np.array([[1.0, 0.6], [0.6, 2.0]])),
    "near unit root": VarOneProcess(a=np.array([[0.99, 0.5], [0.0, -0.9]])),  # spectral radius 0.99
}


@pytest.mark.parametrize("name", sorted(STATIONARY_PROCESSES))
def test_paths_start_from_the_stationary_law(name):
    process = STATIONARY_PROCESSES[name]
    sigma = np.eye(process.r) if process.innovation_cov is None else process.innovation_cov
    gamma = process.stationary_cov
    lyapunov = process.a @ gamma @ process.a.T + sigma
    assert np.linalg.norm(gamma - lyapunov) <= 1e-12 * np.linalg.norm(gamma)
    stack = _simulate_stack(process, 16, 0, [replication_seed(5, k) for k in range(20_000)])
    assert np.all(np.isfinite(stack))
    for t in (0, 15):  # Z_0 and Z_{n-1}
        sample_cov = stack[:, t].T @ stack[:, t] / len(stack)
        assert np.linalg.norm(sample_cov - gamma) <= 0.05 * np.linalg.norm(gamma)



@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_collect_is_invariant_to_block_and_chunk_splits(name, monkeypatch):
    config = batch_config(name)
    default = _collect(config, threads=1)
    monkeypatch.setattr(spectest.simulation, "_CHUNK_ELEMENTS", 3 * config.n * config.process.r**2)
    for block in (1, 7, config.replications):
        path = block * (config.burn_in + config.n) * config.process.r
        monkeypatch.setattr(spectest.simulation, "_BLOCK_ELEMENTS", path)
        for threads in (1, 2):
            run = _collect(config, threads=threads)
            for label, (values, forced) in default.items():
                assert np.array_equal(run[label][0], values)
                assert np.array_equal(run[label][1], forced)


SIMULATION_ERRORS = {
    "coefficients not square": (lambda: VarOneProcess(a=np.zeros((2, 3))),
                                "coefficient matrix must be square, got shape (2, 3)"),
    "innovation shape": (lambda: VarOneProcess(a=0.5 * np.eye(2), innovation_cov=np.eye(3)),
                         "innovation covariance must match the coefficient matrix"),
    "no replications": (lambda: small_config(reps=0), "replications must be positive"),
    "no variants": (lambda: small_config(variants=()), "at least one statistic variant is required"),
    "no threads": (lambda: _collect(small_config(), threads=0), "threads must be >= 1"),
    "power across n": (lambda: size_adjusted_power(small_config(), dataclasses.replace(small_config(), n=120)),
                       "configurations must share n and the bandwidth rule"),
    "power across spans": (lambda: size_adjusted_power(small_config(), dataclasses.replace(small_config(),
                                                                                          bandwidth="cvll")),
                           "configurations must share n and the bandwidth rule"),
    "power below 100 replications": (lambda: size_adjusted_power(small_config(), small_config(reps=99)),
                                     "summary outputs need at least 100 replications"),
}


@pytest.mark.parametrize("name", sorted(SIMULATION_ERRORS))
def test_simulation_errors(name):
    call, message = SIMULATION_ERRORS[name]
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError and str(caught.value) == message
