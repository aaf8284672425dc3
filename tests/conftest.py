import json

import numpy as np
import pytest

from triadops import BipartiteOperator, canonical

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # the same examples on every run, and no example database written
    settings.register_profile(
        "tier1", derandomize=True, deadline=None, max_examples=40, database=None
    )
    settings.load_profile("tier1")


def factorizations(monkeypatch, names=("svd", "eigvalsh")):
    """The (routine, compute_uv, shape, bytes) of each later call to the
    ``np.linalg`` routines ``names``."""
    seen = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            key = np.ascontiguousarray(a)
            seen.append((name, kwargs.get("compute_uv"), key.shape, key.tobytes()))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return seen


def random_operator(rng, k, m=None):
    m = k if m is None else m
    n = k * m
    mat = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return BipartiteOperator(mat, k, m)


def random_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (h + h.conj().T)


def random_psd_local(rng, k, rank=None):
    rank = k if rank is None else rank
    g = (rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))) / np.sqrt(2)
    return g @ g.conj().T


def random_pd_local(rng, k):
    return random_psd_local(rng, k) + 0.3 * np.eye(k)


def haar_unitary(rng, k):
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_congruence(op: BipartiteOperator, rng, right: str) -> BipartiteOperator:
    """op under Haar V (x) V, V (x) conj(V) or V (x) W (right = "V", "Vbar", "W"), not re-Hermitized."""
    u = haar_unitary(rng, op.dim_a)
    v = {"V": lambda: u, "Vbar": u.conj, "W": lambda: haar_unitary(rng, op.dim_a)}[right]()
    big = np.kron(u, v)
    return BipartiteOperator(big @ op.mat @ big.conj().T, op.dim_a, op.dim_b)


def local_scale(op: BipartiteOperator, s: np.ndarray, t: np.ndarray) -> BipartiteOperator:
    """(s (x) t) op (s (x) t)^*, trace-normalized."""
    big = np.kron(s, t)
    out = big @ op.mat @ big.conj().T
    out = 0.5 * (out + out.conj().T)
    return BipartiteOperator(out / np.trace(out).real, op.dim_a, op.dim_b)


def rewrite_goldens(path, cases, describe=None):
    """Write ``cases`` to the golden file ``path`` and print the names of the
    cases whose golden changed, was added or was removed.  ``describe(old,
    new)``, if given, returns a line printed under each changed case.
    """
    old = json.loads(path.read_text()) if path.exists() else {}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(cases, indent=1) + "\n")
    for name in cases:
        if name not in old:
            print(f"added: {name}")
        elif old[name] != cases[name]:
            print(f"changed: {name}")
            if describe is not None:
                print(f"  {describe(old[name], cases[name])}")
    for name in old:
        if name not in cases:
            print(f"removed: {name}")
    print(f"wrote {len(cases)} cases to {path}")


@pytest.fixture
def bell2():
    return canonical("bell", 2)


@pytest.fixture
def classical_diag2():
    return canonical("classical_diag", 2)


@pytest.fixture
def identity_plus_u2():
    return canonical("identity_plus_u", 2)
