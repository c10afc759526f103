import numpy as np
import pytest
from scipy.stats import chi2

from gpcal import FitError, NumericalError, Prior1D, PriorSpec, mcmc_sample


def wide_prior(d=2, half=10.0):
    return PriorSpec([Prior1D.uniform(-half, half) for _ in range(d)],
                     nominal=np.zeros(d))


def test_standard_gaussian_target_moments():
    target = lambda th: -0.5 * np.sum(np.asarray(th) ** 2, axis=-1)
    chain = mcmc_sample(target, wide_prior(), n_samples=50_000, n_burn=5_000,
                        seed=7)
    kept = chain.post_burn
    assert kept.shape == (50_000, 2)
    assert np.max(np.abs(kept.mean(axis=0))) < 0.1
    cov = np.cov(kept.T)
    assert np.max(np.abs(cov - np.eye(2))) < 0.15
    assert 0.15 <= chain.accept_rate <= 0.5


def test_flat_target_recovers_uniform_prior():
    prior = PriorSpec([Prior1D.uniform(0.0, 1.0), Prior1D.uniform(-2.0, 2.0)],
                      nominal=[0.5, 0.0])
    chain = mcmc_sample(prior.log_prior, prior, n_samples=4_000, n_burn=1_000,
                        seed=3, thin=10)
    kept = chain.post_burn
    assert kept.shape[0] == 4_000
    # chi-square goodness of fit against uniform marginals at the 1% level
    for j, (lo, hi) in enumerate([(0.0, 1.0), (-2.0, 2.0)]):
        counts, _ = np.histogram(kept[:, j], bins=10, range=(lo, hi))
        expected = kept.shape[0] / 10.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, df=9)
    # every sample inside the prior support
    assert np.all((kept[:, 0] >= 0.0) & (kept[:, 0] <= 1.0))
    assert np.all((kept[:, 1] >= -2.0) & (kept[:, 1] <= 2.0))


def test_chain_determinism():
    target = lambda th: -0.5 * np.sum(np.asarray(th) ** 2, axis=-1)
    a = mcmc_sample(target, wide_prior(), n_samples=2_000, seed=42)
    b = mcmc_sample(target, wide_prior(), n_samples=2_000, seed=42)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.log_post, b.log_post)
    assert a.accept_rate == b.accept_rate
    c = mcmc_sample(target, wide_prior(), n_samples=2_000, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_correlated_target_adaptation():
    cov = np.array([[1.0, 0.85], [0.85, 1.0]])
    prec = np.linalg.inv(cov)
    target = lambda th: -0.5 * np.sum((np.asarray(th) @ prec) * th, axis=-1)
    chain = mcmc_sample(target, wide_prior(), n_samples=30_000, n_burn=6_000,
                        seed=11)
    got = np.cov(chain.post_burn.T)
    assert np.max(np.abs(got - cov)) < 0.15
    assert 0.15 <= chain.accept_rate <= 0.5


def test_initial_point_outside_support_rejected():
    prior = wide_prior()
    target = lambda th: np.full(len(th), -np.inf)
    with pytest.raises(NumericalError):
        mcmc_sample(target, prior, n_samples=100, seed=0)


def test_burn_in_default_is_twenty_percent():
    target = lambda th: -0.5 * np.sum(np.asarray(th) ** 2, axis=-1)
    chain = mcmc_sample(target, wide_prior(), n_samples=1_000, seed=1)
    assert chain.n_burn == 200
    assert chain.samples.shape[0] == 1_200


def test_chain_summary_and_csv(tmp_path):
    target = lambda th: -0.5 * np.sum(np.asarray(th) ** 2, axis=-1)
    chain = mcmc_sample(target, wide_prior(), n_samples=500, seed=5,
                        param_names=("a", "b"))
    s = chain.summary()
    assert set(s["parameters"]) == {"a", "b"}
    assert s["n_samples"] == 500
    path = tmp_path / "chain.csv"
    chain.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 501
    # byte-identical across repeated saves of the same chain
    chain.save_csv(tmp_path / "chain2.csv")
    assert (tmp_path / "chain2.csv").read_bytes() == path.read_bytes()


def test_bad_arguments():
    target = lambda th: np.zeros(len(th))
    with pytest.raises(FitError):
        mcmc_sample(target, wide_prior(), n_samples=0, seed=0)
    with pytest.raises(FitError):
        mcmc_sample(target, wide_prior(), n_samples=10, thin=0, seed=0)


def test_negative_burn_in_rejected():
    target = lambda th: np.zeros(len(th))
    with pytest.raises(FitError, match="n_burn must be >= 0, got -30"):
        mcmc_sample(target, wide_prior(), n_samples=100, n_burn=-30, seed=0)
    assert mcmc_sample(target, wide_prior(), n_samples=10, n_burn=0, seed=0).n_burn == 0


# ------------------------------------------ speculative batched evaluation

def sequential_mcmc(log_posterior, prior, n_samples, n_burn=None, seed=0,
                    thin=1):
    """The one-proposal-per-call adaptive Metropolis loop, kept literally as
    the oracle of ``mcmc_sample``'s batched loop: ``(samples, log_post,
    accept_rate)``. Each call of the stack target is a stack of one."""
    import math
    from gpcal.mcmc import ADAPT_EVERY, TARGET_ACCEPT
    d = prior.dim
    if n_burn is None:
        n_burn = max(1, int(0.2 * n_samples))
    total = n_burn + n_samples * thin

    rng = np.random.default_rng(seed)
    x = np.asarray(prior.nominal, dtype=float).copy()
    lp = float(log_posterior(x[None])[0])
    if not math.isfinite(lp):
        raise NumericalError("log posterior is not finite at the initial point")

    base_cov = np.diag((prior.stds / 10.0) ** 2)
    L = np.linalg.cholesky(base_cov)
    scale = 1.0
    min_history = max(200, 20 * d)

    samples = np.empty((total, d))
    log_post = np.empty(total)
    accepted = np.zeros(total, dtype=bool)
    window_acc = 0

    for t in range(total):
        z = rng.standard_normal(d)
        u = rng.uniform()
        prop = x + scale * (L @ z)
        lp_prop = float(log_posterior(prop[None])[0])
        if math.log(u) < lp_prop - lp:
            x, lp = prop, lp_prop
            accepted[t] = True
            window_acc += 1
        samples[t] = x
        log_post[t] = lp

        if t + 1 < n_burn and (t + 1) % ADAPT_EVERY == 0:
            rate = window_acc / ADAPT_EVERY
            window_acc = 0
            scale *= math.exp(2.0 * (rate - TARGET_ACCEPT))
            if t + 1 >= min_history:
                emp = np.cov(samples[:t + 1].T).reshape(d, d)
                emp = (2.38 ** 2 / d) * emp + 1e-12 * np.eye(d)
                try:
                    L = np.linalg.cholesky(emp)
                    scale = 1.0
                except np.linalg.LinAlgError:
                    pass

    post_rate = float(np.mean(accepted[n_burn:]))
    if post_rate < 0.01:
        raise FitError(
            f"MCMC acceptance rate collapsed to {post_rate:.4f} after "
            "adaptation; the posterior is likely degenerate or the proposal "
            "scale failed to adapt")
    return samples, log_post, post_rate


class Vectorized:
    """A stack target whose stack is a loop over a one-theta function; it
    records the size of every call and every row it evaluates."""

    def __init__(self, scalar):
        self.scalar = scalar
        self.sizes = []
        self.rows = []

    def __call__(self, theta):
        theta = np.asarray(theta)
        assert theta.ndim == 2
        self.sizes.append(len(theta))
        self.rows.extend(t.copy() for t in theta)
        return np.array([self.scalar(t) for t in theta])


def correlated_target(th):
    prec = np.linalg.inv(np.array([[1.0, 0.85], [0.85, 1.0]]))
    return -0.5 * float(np.asarray(th) @ prec @ np.asarray(th))


def boxed_target(th):
    # a support narrower than the prior's: proposals outside it are -inf
    th = np.asarray(th)
    return -0.5 * float(th @ th) if np.all(np.abs(th) < 0.7) else -np.inf


def assert_same_chain(chain, want):
    samples, log_post, rate = want
    assert np.array_equal(chain.samples, samples)
    assert np.array_equal(chain.log_post, log_post)
    assert chain.accept_rate == rate


def batches(chain):
    """``(size, slot of the acceptance or None)`` of each batch the batching
    rule gives ``chain``: up to PREFETCH slots, ending at the first
    acceptance, before each burn-in adaptation and at the end."""
    from gpcal.mcmc import ADAPT_EVERY, PREFETCH
    total = chain.samples.shape[0]
    before = np.vstack([wide_prior().nominal, chain.samples[:-1]])
    moved = np.any(chain.samples != before, axis=1)
    out = []
    t = 0
    while t < total:
        stop = min(total, t + PREFETCH)
        boundary = (t // ADAPT_EVERY + 1) * ADAPT_EVERY
        if boundary < chain.n_burn:
            stop = min(stop, boundary)
        hits = np.flatnonzero(moved[t:stop])
        out.append((stop - t, int(hits[0]) if hits.size else None))
        t += hits[0] + 1 if hits.size else stop - t
    return out


@pytest.mark.parametrize("target", [correlated_target, boxed_target],
                         ids=["correlated", "outside-the-support"])
@pytest.mark.parametrize("n_burn,thin", [(None, 1), (333, 3), (0, 2)])
def test_batched_chain_is_the_sequential_chain(target, n_burn, thin):
    from gpcal.mcmc import PREFETCH
    want = sequential_mcmc(Vectorized(target), wide_prior(), 1_500,
                           n_burn=n_burn, seed=4, thin=thin)
    vec = Vectorized(target)
    chain = mcmc_sample(vec, wide_prior(), 1_500, n_burn=n_burn, seed=4,
                        thin=thin)
    assert_same_chain(chain, want)
    ends = batches(chain)
    # the initial point, then one call per batch
    assert vec.sizes == [1] + [size for size, _ in ends]
    assert max(vec.sizes) == PREFETCH and len(vec.sizes) < chain.samples.shape[0]
    # an acceptance in a full batch's last slot, and a batch with rows after
    # its acceptance, both happened
    assert (PREFETCH, PREFETCH - 1) in ends
    assert any(hit is not None and hit < size - 1 for size, hit in ends)
    if target is boxed_target:
        assert any(not np.all(np.abs(r) < 0.7) for r in vec.rows)


def test_batched_chain_raises_the_acceptance_collapse_as_the_sequential_one():
    start = wide_prior().nominal

    def spike(th):                               # finite at the start only
        return 0.0 if np.array_equal(th, start) else -np.inf
    with pytest.raises(FitError) as want:
        sequential_mcmc(Vectorized(spike), wide_prior(), 300, seed=2)
    with pytest.raises(FitError) as got:
        mcmc_sample(Vectorized(spike), wide_prior(), 300, seed=2)
    assert str(got.value) == str(want.value)


class Poisoned(Vectorized):
    """``Vectorized``, raising on a stack that holds one given row."""

    def __init__(self, scalar, bad):
        super().__init__(scalar)
        self.bad = bad

    def __call__(self, theta):
        theta = np.asarray(theta)
        if any(np.array_equal(t, self.bad) for t in theta):
            raise ValueError(f"poisoned row {self.bad.tolist()}")
        return super().__call__(theta)


def test_an_error_in_a_slot_the_chain_does_not_reach_is_not_raised():
    want = sequential_mcmc(Vectorized(correlated_target), wide_prior(), 400, seed=9)
    vec = Vectorized(correlated_target)
    mcmc_sample(vec, wide_prior(), 400, seed=9)
    reached = Vectorized(correlated_target)
    sequential_mcmc(reached, wide_prior(), 400, seed=9)
    # a row evaluated speculatively after an acceptance and never reached
    unreached = [r for r in vec.rows
                 if not any(np.array_equal(r, s) for s in reached.rows)]
    assert unreached
    chain = mcmc_sample(Poisoned(correlated_target, unreached[len(unreached) // 2]),
                        wide_prior(), 400, seed=9)
    assert_same_chain(chain, want)


def test_an_error_in_a_slot_the_chain_reaches_is_the_single_call_error():
    reached = Vectorized(correlated_target)
    sequential_mcmc(reached, wide_prior(), 400, seed=9)
    bad = reached.rows[123]
    with pytest.raises(ValueError) as want:
        sequential_mcmc(Poisoned(correlated_target, bad), wide_prior(), 400, seed=9)
    with pytest.raises(ValueError) as got:
        mcmc_sample(Poisoned(correlated_target, bad), wide_prior(), 400, seed=9)
    assert str(got.value) == str(want.value) == f"poisoned row {bad.tolist()}"


def test_a_stack_only_target_runs_with_the_initial_point_as_a_stack_of_one():
    shapes = []

    def stack_only(theta):
        theta = np.asarray(theta)
        if theta.ndim != 2:
            raise TypeError(f"a stack target got shape {theta.shape}")
        shapes.append(theta.shape)
        return -0.5 * np.sum(theta ** 2, axis=-1)
    chain = mcmc_sample(stack_only, wide_prior(), n_samples=300, seed=3)
    assert chain.samples.shape == (360, 2)
    assert shapes[0] == (1, 2)
    assert chain.log_post[0] <= 0.0 and np.isfinite(chain.log_post).all()
