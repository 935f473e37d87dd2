import numpy as np
from hypothesis import strategies as st

from varsel import make_dataset


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
