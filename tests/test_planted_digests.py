"""The planted-fixture artifacts, pinned byte for byte.

Each method runs cold and then under replay over the planted corpus, from
inside a fresh directory with relative paths so the config snapshot is the
same on every machine. The sha256 of every artifact must equal the value
recorded here; a refactor that claims "same behaviour" keeps them all, and
a change meant to alter these bytes records new values and says why.
"""

import hashlib

import pytest

from contregen.cli import dispatch
from contregen.runtrace import load_trace

from conftest import (
    contregen_fixtures,
    iterretgen_fixtures,
    retgen_fixtures,
    selfask_fixtures,
    write_fixture_file,
)

FIXTURES = {"contregen": contregen_fixtures, "retgen": retgen_fixtures,
            "iterretgen": iterretgen_fixtures, "selfask": selfask_fixtures}

OUTPUTS = ("trace.json", "report.json", "outputs.jsonl")
CACHES = ("llm.jsonl", "retrieval.jsonl")

# method -> artifact -> sha256 hex digest
DIGESTS = {
    "contregen": {
        "trace.json": "746543760de95ef09b2f16dc854da416183b7ff597db1bb0a5ef74e9503c27d4",
        "report.json": "0a0ac661b6b511335566092e01b595c9e9b66c6a0acf42221b3fa9d72eb0e1f9",
        "outputs.jsonl": "2e0ab01a23898e5562500b7e73b283045cbae1e4a24ef1c912c54f35b69b5e00",
        "llm.jsonl": "345beefa075eb90081f2c91807dbf787ffc7b00bae0cfda04dcca4774aa32a61",
        "retrieval.jsonl": "3f8688a0381bbfe74fe2b6626cd82c257e6eaa6d5c144a2f4231448a1766c797",
    },
    "iterretgen": {
        "trace.json": "18f0f28f07dc9088e159dabd651612c80c51cfde12fc9ceacbf6cda135a0729d",
        "report.json": "d70eeaf4d1edb3d5d92f002dd88f39fab61101d6c2b93d4b4527a95f48565951",
        "outputs.jsonl": "b9f88d9c52468da4ff72de99840d7d73850e0b8809c611e86b51c931ca927134",
        "llm.jsonl": "212a9bf3c7081d5805f4d6e321b1d5489c1008b9bb8c5d739fadd01fbd2e88de",
        "retrieval.jsonl": "b2110ae9dd621c6d61ec90a24751e247cf2cb81c65bf0d26f239c5f35e64868b",
    },
    "retgen": {
        "trace.json": "a094ac452b053851547c04361309054ee4ea8b2bc0f369dca3091fcb5127dc18",
        "report.json": "d351ef5b8f1a3d946222a4b69077e560b1dde0201c6dad190b27cf82c452da3f",
        "outputs.jsonl": "7179b75498e554e85803bcb6accac00177a7bd5b6dd86773820044d4e0f2ceab",
        "llm.jsonl": "58066ba5c1bc8dd23f84d32289f723d373f8f2314147048fdc69b219216c1783",
        "retrieval.jsonl": "ccd798ce05f46c2d6c33f6b9563393bcf9521b7fd06d7e69b46b12e558f3099f",
    },
    "selfask": {
        "trace.json": "f8f394e2078b347e1ae233f17363cef5779b7bfb80fbcd12c3b78b98a94879ae",
        "report.json": "67470c056ea1fdee6d2b48b0f0b46416ee2718e65ba5f02205cedca2dc9db2b9",
        "outputs.jsonl": "6d6a39cdda2b8eb13a922549a3e5af316ea1dba45566fd419319655fba55ee40",
        "llm.jsonl": "55cea34884bf58b7fe2889e36c8247d33008c7086acf3a74bd8206d0655e4a49",
        "retrieval.jsonl": "3f8688a0381bbfe74fe2b6626cd82c257e6eaa6d5c144a2f4231448a1766c797",
    },
}


def _digests(directory, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("method", sorted(FIXTURES))
def test_planted_artifacts_are_byte_identical_cold_and_under_replay(
        method, planted, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_fixture_file(tmp_path, FIXTURES[method](), name=f"{method}.json")
    argv = ["--method", method, "--corpus", "corpus.jsonl", "--queries", "queries.jsonl",
            "--fixtures", f"{method}.json", "--cache-dir", f"cache-{method}"]
    for command in ("run", "replay"):
        assert dispatch([command, *argv, "--out-dir", "out"]) == 0
        # the replay rewrites the same out-dir and must leave every byte as it was
        assert {**_digests(tmp_path / "out", OUTPUTS),
                **_digests(tmp_path / f"cache-{method}", CACHES)} == DIGESTS[method], command
        load_trace(tmp_path / "out" / "trace.json")  # every node path it wrote is one it reads
