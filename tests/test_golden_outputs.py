"""Golden outputs: the canonical `verify` payload and the `analyze` JSON of
every canonical instance must stay byte for byte what they were when these
digests were recorded.  A refactor that changes any answer, evidence key or
message fails here, naming the instance."""

import hashlib

import pytest

from lielab.algebra import canonical_dumps
from lielab.catalog import canonical_instances
from lielab.cli import main, run_verify

# sha256 of the canonical `lielab verify` stdout (seed 1729), trailing newline included
VERIFY_SHA256 = "ad1a565f0bc13e5097c174e701126eb9ebe688f9de2b217b3f6ed7b4eb96c57a"

# sha256 of `lielab analyze <name>.json` stdout, the file holding the instance's canonical JSON
ANALYZE_SHA256 = {
    "abelian3@Q": "a25abae58f70a098d23e6bb580c8684688c84817df84e6a027948482409baabe",
    "heisenberg1@Q": "5a375403053759d83315b58fc6066bf8c23c67899ae5e4ff28982ed595a0c9ce",
    "heisenberg2@Q": "69fc6b5cf8b5c072339f7cea2deaea60f8d09900bc2c343efbfb500687f57175",
    "r2@Q": "15a709566714776463f51a90c0e1923fae29d1282285938704d3b240aae453dc",
    "r2@F3": "817b908c2f8e593933982876f6bb0d70408886ab4465e24b9b77c4f7f3b40b23",
    "sl2@Q": "137fd083088802ce111793478c6d2b42250e12fa376b7139d88c8123eff9d9e3",
    "sl2@F5": "6cf235a7d3ec5316105851c50e6f554db2efd8237be3a93682862f18ed3c3099",
    "gl2@Q": "db3b874d311391a060514e86458eadc4a65cbc9d2c6823e0491f8c840b87a8fe",
    "su2q": "1ecb14671c91cb32330679ce3092b03658dd9d572cc83727f03dec28203ca0cd",
    "strict_upper4@Q": "caf215ff77e902b9962663a5df5e3bcbe15336ba96da2ae823685ac166d55929",
    "psl3@F3": "1261b229ee3e918ddbb7b0eb0d88c9ed355d1e81df52f4df7538f8bd165cc0ef",
    "pgl3@F3": "598f93a1f2eabb8972469b8506edf36caac6b89d3e0eaaccc1b53869159e897e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_list_covers_the_canonical_instances():
    assert [name for name, _ in canonical_instances()] == list(ANALYZE_SHA256)


def test_verify_payload():
    code, payload, _ = run_verify(1729)
    assert code == 1
    fails = [c["name"] for c in payload["checks"] if c["status"] == "FAIL"]
    assert fails == ["der-psl3f3", "h2-psl3f3"]
    assert _sha256(canonical_dumps(payload) + "\n") == VERIFY_SHA256


@pytest.mark.parametrize("name,L", canonical_instances(), ids=[n for n, _ in canonical_instances()])
def test_analyze_output(name, L, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(L.canonical_json())
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == ANALYZE_SHA256[name], f"analyze output of {name} changed:\n{out}"
