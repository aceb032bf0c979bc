import importlib.util
import random
import shlex
import shutil
import subprocess
import sysconfig
from array import array
from pathlib import Path

import pytest

from contregen import _kernels
from contregen._kernels import fallback

from oracles import lcs_len

try:
    from contregen._kernels import _core
except ImportError:
    _core = None

_CORE_SOURCE = Path(_kernels.__file__).with_name("_core.c")
K1, B = 1.2, 0.75


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernels, built from ``_core.c`` into a temporary directory.

    Built with the interpreter's own compile and link flags plus the flags
    setup.py adds, and loaded from there without touching ``sys.modules``, so
    no extension lands in the source tree to switch the active backend.
    """
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    include = sysconfig.get_paths()["include"]
    if not link or shutil.which(link[0]) is None:
        pytest.skip("no C compiler to build the compiled kernels")
    if not Path(include, "Python.h").is_file():
        pytest.skip("no Python.h to build the compiled kernels")
    out = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*link, *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
           *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-O2", "-ffp-contract=off", f"-I{include}", str(_CORE_SOURCE), "-o", str(out)]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_core", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _norms(doc_lens, avgdl):
    return array("d", [K1 * (1.0 - B + B * (dl / avgdl)) for dl in doc_lens])


def _random_case(rng):
    docs = rng.randint(1, 60)
    doc_lens = [rng.randint(1, 120) for _ in range(docs)]
    doc_norms = _norms(doc_lens, sum(doc_lens) / docs)
    chosen = sorted(rng.sample(range(docs), rng.randint(1, docs)))
    doc_idx = array("i", chosen)
    tfs = array("i", [rng.randint(1, 9) for _ in chosen])
    idf = rng.uniform(0.01, 8.0)
    return doc_norms, doc_idx, tfs, idf


def test_backend_constant_matches_import():
    assert _kernels.BACKEND in ("compiled", "pure")
    if _core is not None:
        assert _kernels.BACKEND == "compiled"
        assert _kernels.bm25_accumulate is _core.bm25_accumulate
    else:
        assert _kernels.BACKEND == "pure"
        assert _kernels.bm25_accumulate is fallback.bm25_accumulate


def test_bm25_accumulate_compiled_bitwise_equals_pure(compiled):
    rng = random.Random(20240817)
    for _ in range(100):
        doc_norms, doc_idx, tfs, idf = _random_case(rng)
        docs = len(doc_norms)
        a = array("d", [0.0]) * docs
        b = array("d", [0.0]) * docs
        # accumulate several terms so rounding differences would compound
        for _term in range(rng.randint(1, 5)):
            compiled.bm25_accumulate(a, doc_idx, tfs, doc_norms, idf, K1)
            fallback.bm25_accumulate(b, doc_idx, tfs, doc_norms, idf, K1)
        assert a.tobytes() == b.tobytes()
    for _ in range(100):
        left = array("i", [rng.randrange(6) for _ in range(rng.randint(0, 30))])
        right = array("i", [rng.randrange(6) for _ in range(rng.randint(0, 30))])
        assert compiled.lcs_length(left, right) == fallback.lcs_length(left, right)


def test_compiled_kernels_reject_bad_buffers(compiled):
    scores = array("d", [0.0, 0.0])
    norms = array("d", [1.0, 1.0])
    one = array("i", [1])
    for bad in (2, -1):
        with pytest.raises(IndexError):
            compiled.bm25_accumulate(scores, array("i", [bad]), one, norms, 1.0, K1)
    with pytest.raises(IndexError):  # doc_norms shorter than scores
        compiled.bm25_accumulate(scores, array("i", [1]), one, norms[:1], 1.0, K1)
    assert scores.tobytes() == array("d", [0.0, 0.0]).tobytes()
    with pytest.raises(ValueError):
        compiled.bm25_accumulate(scores, array("i", [0, 1]), one, norms, 1.0, K1)
    with pytest.raises(TypeError):  # wrong item type
        compiled.bm25_accumulate(scores, array("l", [0]), one, norms, 1.0, K1)
    with pytest.raises(BufferError):  # read-only scores
        compiled.bm25_accumulate(bytes(16), array("i", [0]), one, norms, 1.0, K1)
    with pytest.raises(TypeError):
        compiled.lcs_length(array("d", [1.0]), one)


def test_bm25_accumulate_matches_direct_formula():
    doc_lens = [10, 20, 30]
    avgdl = 20.0
    scores = array("d", [0.0, 0.0, 0.0])
    fallback.bm25_accumulate(scores, array("i", [0, 2]), array("i", [3, 1]),
                             _norms(doc_lens, avgdl), 1.5, K1)
    expect0 = 1.5 * ((3 * (K1 + 1.0)) / (3 + K1 * (1.0 - B + B * (10 / avgdl))))
    expect2 = 1.5 * ((1 * (K1 + 1.0)) / (1 + K1 * (1.0 - B + B * (30 / avgdl))))
    assert scores[0] == expect0
    assert scores[1] == 0.0
    assert scores[2] == expect2


def test_lcs_length_matches_full_table_oracle():
    rng = random.Random(99)
    for _ in range(200):
        left = [rng.randrange(6) for _ in range(rng.randint(0, 30))]
        right = [rng.randrange(6) for _ in range(rng.randint(0, 30))]
        expected = lcs_len(left, right)
        assert fallback.lcs_length(array("i", left), array("i", right)) == expected
        if _core is not None:
            assert _core.lcs_length(array("i", left), array("i", right)) == expected


def test_lcs_length_edges():
    empty = array("i")
    seq = array("i", [1, 2, 3])
    assert fallback.lcs_length(empty, seq) == 0
    assert fallback.lcs_length(seq, empty) == 0
    assert fallback.lcs_length(seq, seq) == 3
    assert fallback.lcs_length(array("i", [1, 2]), array("i", [3, 4])) == 0
