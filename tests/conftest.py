import numpy as np
from hypothesis import strategies as st

from varsel import make_dataset

EPS = np.finfo(float).eps


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


def orthogonal_direction(rng, x, columns):
    """Unit vector orthogonal to the ones vector and the given columns."""
    basis, _ = np.linalg.qr(np.column_stack([np.ones(len(x)), x[:, columns]]))
    u = rng.normal(size=len(x))
    u -= basis @ (basis.T @ u)
    u -= basis @ (basis.T @ u)
    return u / np.linalg.norm(u)


def near_duplicate_table(seed, ratio, n=40, r=6):
    """Column 2 is column 1 plus a component orthogonal to [1, x1] whose
    norm is ``ratio`` times the column's; the target carries noise, so no
    cost is near zero."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, r))
    x[:, 1] = x[:, 0] + ratio * np.linalg.norm(x[:, 0]) * orthogonal_direction(
        rng, x, [0])
    y = x @ rng.normal(size=r) + 1.0 + 0.5 * rng.normal(size=n)
    return make_dataset(x, y)


def cost_tolerance(dataset, design, p, alpha):
    """Relative 1e-9, widened to what the SVD reference itself resolves.

    A least-squares residual is determined to about eps * (1 + 2 kappa)
    * ||y|| (Golub & Van Loan, Thm 5.3.1), and the cost magnifies a
    relative residual error by up to max(alpha, alpha / p).  A column
    scaled by 1e5 with p = 0.5, alpha = 2 already puts the SVD path 1.4e-9
    off a 50-digit solve that the kernel matched exactly."""
    sv = np.linalg.svd(design, compute_uv=False)
    y = dataset.target
    residual = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    spread = (EPS * (1.0 + 2.0 * sv[0] / sv[-1]) * np.linalg.norm(y)
              / np.linalg.norm(residual) * max(alpha, alpha / p))
    return max(1e-9, 10.0 * spread)


def unit_orthogonal_to(rng, columns):
    """Unit vector orthogonal to the ones vector and the given columns."""
    n = len(columns[0])
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n)] + columns))
    u = rng.normal(size=n)
    u -= basis @ (basis.T @ u)
    u -= basis @ (basis.T @ u)
    return u / np.linalg.norm(u)


@st.composite
def awkward_tables(draw):
    """Gaussian columns plus at least one of: a near duplicate of column 1,
    a zero column, an exact duplicate, and a column whose component
    orthogonal to the others is 1e-10..1e-8 of its norm (kept by the SVD
    rank rule, dropped by the Gram-Schmidt scan of the backward methods);
    columns in a drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plain = draw(st.integers(1, 4))
    n = draw(st.integers(plain + 8, 30))
    columns = [rng.normal(size=n) for _ in range(plain)]
    kinds = draw(st.lists(
        st.sampled_from(["near", "zero", "duplicate", "between"]),
        min_size=1, max_size=3,
    ))
    base = columns[0]
    scale = np.linalg.norm(base)
    extra = []
    for kind in kinds:
        if kind == "zero":
            extra.append(np.zeros(n))
        elif kind == "duplicate":
            extra.append(base.copy())
        else:
            exponent = (draw(st.floats(-7.0, -3.0)) if kind == "near"
                        else draw(st.floats(-9.9, -8.1)))
            u = unit_orthogonal_to(rng, columns)
            extra.append(base + 10.0**exponent * scale * u)
    x = np.column_stack(columns + extra)
    x = x[:, draw(st.permutations(range(x.shape[1])))]
    y = np.column_stack(columns) @ rng.normal(size=plain) + 0.5 * rng.normal(size=n)
    return make_dataset(x, y)
