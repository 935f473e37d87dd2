import numpy as np


def random_instance(seed: int, n: int, r: int, sparse: int | None = None,
                    noise: float = 0.5):
    """Gaussian feature table with a linear target over a random subset."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, r))
    k = sparse if sparse is not None else r
    support = rng.choice(r, size=k, replace=False)
    beta = rng.normal(size=k) * 2.0
    y = x[:, support] @ beta + rng.normal() + noise * rng.normal(size=n)
    return x, y, np.sort(support + 1)


def assert_residuals_orthogonal(design: np.ndarray, residuals: np.ndarray,
                                target: np.ndarray, tol: float = 1e-8):
    """A least-squares residual is orthogonal to every design column."""
    bound = tol * np.linalg.norm(design) * np.linalg.norm(target)
    worst = float(np.abs(design.T @ residuals).max())
    assert worst <= bound, f"residual orthogonality violated: {worst:g} > {bound:g}"
