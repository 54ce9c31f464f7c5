import io

import numpy as np
import pytest

from logsift import EncoderWeights, HashingProvider
from logsift.synthetic import generate_corpus
from logsift.training import PairDataset

PROVIDER_DIM = 512

# pass/fail lines recorded by the acceptance suite, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def provider():
    return HashingProvider(dim=PROVIDER_DIM)


@pytest.fixture(scope="session")
def identity_weights():
    return EncoderWeights.identity_init(PROVIDER_DIM)


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(n_templates=10, logs_per_template=100, seed=7)


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def stack_pairs(triples):
    """A PairDataset of (left, right, label) triples: the lefts, then the
    rights, stacked into one matrix, so pair k compares rows k and m + k."""
    lefts, rights, labels = zip(*triples)
    m = len(labels)
    return PairDataset(np.concatenate([lefts, rights]),
                       np.column_stack([np.arange(m), np.arange(m, 2 * m)]),
                       np.array(labels))


def make_two_family_pairs(n=120, seed=0):
    """Separable pair dataset: both families share a dominant common
    component (so raw cosine similarity is uninformative) plus a small
    family-specific offset the encoder must learn to amplify."""
    rng = np.random.default_rng(seed)
    common = np.ones(9)
    common[8] = 0.05
    offset_a = np.zeros(9)
    offset_a[0] = 0.5
    offset_b = np.zeros(9)
    offset_b[4] = 0.5
    a = common + offset_a + 0.05 * rng.normal(size=(n, 9))
    b = common + offset_b + 0.05 * rng.normal(size=(n, 9))
    pairs = []
    for i in range(0, n, 2):
        pairs.append((a[i], a[i + 1], 1.0))
        pairs.append((b[i], b[i + 1], 1.0))
    for i in range(n):
        pairs.append((a[i], b[i], 0.0))
    return stack_pairs(pairs)


def random_layers(rng, h, d_in, e):
    """Two random affine layers, w1 (h, d_in), b1 (h,), w2 (e, h) and b2 (e,),
    drawn from `rng` in that order."""
    return (rng.normal(size=(h, d_in)), rng.normal(size=h),
            rng.normal(size=(e, h)), rng.normal(size=e))


def identity_layers(provider_dim):
    """Two affine layers that make the identity map: w1 passes the fused
    (D+1)-vector through, and w2 drops its word-count column."""
    d_in = provider_dim + 1
    return np.eye(d_in), np.zeros(d_in), np.eye(provider_dim, d_in), np.zeros(provider_dim)


def layers_map(w1, b1, w2, b2):
    """The one map two affine layers make: matrix w2 @ w1, bias w2 @ b1 + b2."""
    return EncoderWeights(w2 @ w1, w2 @ b1 + b2)


def rewrite(path, **changes):
    """Rewrite the snapshot at `path` with `changes` to its arrays, as
    `np.savez` writes them (pickling object arrays); a change to None drops
    that array."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    arrays.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{name: array for name, array in arrays.items() if array is not None})


def npy_bytes(array, allow_pickle=False):
    """The bytes `np.save` writes for `array`."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npy_header(shape):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


# a 1 x 2 map and its bias, packed as a .npy weights file holds them
_PACKED = np.array([[1.0, 0.0, 0.5]])
_NPY = npy_bytes(_PACKED)
# .npy weights files that hold no whole, finite map, by what is wrong
MALFORMED_NPY_WEIGHTS = {
    "magic-only": _NPY[:6],
    "truncated": _NPY[:-4],
    "garbled-header": _NPY.replace(b"'fortran_order'", b"'fortran_order?", 1),
    "object-array": npy_bytes(np.array([[1.0, None, 0.5]], dtype=object), allow_pickle=True),
    "float32": npy_bytes(_PACKED.astype("<f4")),
    "big-endian": npy_bytes(_PACKED.astype(">f8")),
    "1-d": npy_bytes(_PACKED[0]),
    "one-column": npy_bytes(_PACKED[:, :1]),
    "no-rows": npy_bytes(np.zeros((0, 3))),
    "nan-entry": npy_bytes(np.array([[1.0, np.nan, 0.5]])),  # the word-count column
    "inf-word-count": npy_bytes(np.array([[1.0, -np.inf, 0.5]])),
    "nan-bias": npy_bytes(np.array([[1.0, 0.0, np.nan]])),
    "inf-bias": npy_bytes(np.array([[1.0, 0.0, np.inf]])),
    # 8e18 bytes: no allocator can give them, so nothing is allocated
    "header-claims-exabytes": _npy_header((10 ** 9, 10 ** 9)) + _NPY[-24:],
}
