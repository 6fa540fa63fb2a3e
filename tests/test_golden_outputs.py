"""Golden outputs: the canonical `verify` payload, and the `analyze`,
`derivations`, `centroid` and `h2` JSON of every canonical instance and
of every benchmark input table, must stay byte for byte what they were
when these digests were recorded.  A refactor that changes any answer,
basis matrix, cocycle representative, evidence key or message fails
here, naming the instance."""

import hashlib
from pathlib import Path

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

# sha256 of `lielab analyze perfbench/inputs/<name>.json` stdout; the tables
# are read where the benchmark keeps them and are not modified
INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
INPUT_ANALYZE_SHA256 = {
    "gl3f5": "93a24c5bc6f550bf97c284c11f6f6ce961af5b95a29c9cee2a1a1cf7edc2bfec",
    "gl3q": "24af8001a2f2a5b061fd9b836d097e7793d4fa79bf6919bf6133197edd4c2146",
    "heisenberg2q": "4ebc15943a1562493cafb6deac2407e4dab5ecec9cb3d7f0089e32a64496680d",
    "pgl3f3": "2cd7a7bb3284f52219ecc2dae69bbfd5e65576ef40fa6fed6304a5785061617e",
    "psl3f3": "98b490fbae5ed7a3f2418fb0c2ba0e33750ca56bc2adae3ddd456b6372689061",
    "sl2f5": "0958e54727c2689ff41bbb9d8d0be50c6e03e4a5da5b68bb9b82770d1275adb3",
    "sl3f3": "1a6b8e4695347eb4a1288cdaa19b048abdad192e92f772ab22c20f3cedd37489",
    "sl3q": "4f6a42d828060da24799ceb2d99ee9ba0da5404b99a1298b6978c39a3670ac1d",
    "sl4q": "a3e94cf2dd93d81c26d8d92af187d51c27fe8f355f41791c1a9f4066c6a6b044",
    "sl5q": "17264cd73540274abf8496aa30f32c5d1b7c4ea1329eb37abd29e7b0475f4332",
    "strict_upper5q": "6a572e8fc67453c14133d20a675eb92ac506c69158f61c53677cad5284d4878f",
    "su2q": "1ecb14671c91cb32330679ce3092b03658dd9d572cc83727f03dec28203ca0cd",
}


# sha256 of the `lielab derivations`, `lielab centroid` and `lielab h2` stdout,
# per command: on each canonical instance (written as for `analyze`), and on
# each benchmark input table
SOLVE_SHA256 = {
    "derivations": {
        "abelian3@Q": "be7e4e97462b0ed674ad249d9fa5a0807f995c7be64d0459edcf507146776100",
        "heisenberg1@Q": "d7d369c2065341b843e3579eed74669a9d2169e7cb2f39c7dab21217866bc753",
        "heisenberg2@Q": "a52f7efc0431556ad01b0bc19f4857af01574c00ad7a7618f9ff4f1e0e6d6bea",
        "r2@Q": "50950e60a0e44f200eef35e58d9a35a867dfc54492cc9e8d8ac62e44cf801f25",
        "r2@F3": "50950e60a0e44f200eef35e58d9a35a867dfc54492cc9e8d8ac62e44cf801f25",
        "sl2@Q": "a1e7acd61e0abad858267c6178158bf2d6430d9bf6a8b4b877793a018d2f6f82",
        "sl2@F5": "19dbdcd6ddce0b422859ca70c48e4db84aad1d8b73c9aef679f019113d6b2cd8",
        "gl2@Q": "54239d87f6a7c0d6706c3729c444851e3a2f08aac3d4f9237ba9fe4657b831b8",
        "su2q": "5f33ab79d3ca43f3636599884adb3562fed2a0b494e41beb768dfffe302f6470",
        "strict_upper4@Q": "06f35b0a1e6dbc334f58523ac1889aa870b1b3f44ee1da8170370612e5096b7b",
        "psl3@F3": "a64910e6d4da6bc1e1f6ce3710af8c3b13e62c7381882b3161848c76baff8259",
        "pgl3@F3": "a4633fef099639d570a78b250cb52ffd4d3e93d338a68f155d3a392e690907e5",
    },
    "centroid": {
        "abelian3@Q": "be7e4e97462b0ed674ad249d9fa5a0807f995c7be64d0459edcf507146776100",
        "heisenberg1@Q": "e1622f29a0b9541b24d42da975a23a9a1f39bf585f20e64605e6bea961a8f714",
        "heisenberg2@Q": "b69b194f2748a74855adda23189e4287cf9c3a41521e1a6215dac3c5bd49ddd3",
        "r2@Q": "7f5c183a040e73a8ab6f4a083b155ec32fb3f31b907d19858fd7c846bc57e5b4",
        "r2@F3": "7f5c183a040e73a8ab6f4a083b155ec32fb3f31b907d19858fd7c846bc57e5b4",
        "sl2@Q": "e73d40f3748ca3d86e4e9878a94560d13ca6c7048c474748da95e4ae91cf11a4",
        "sl2@F5": "e73d40f3748ca3d86e4e9878a94560d13ca6c7048c474748da95e4ae91cf11a4",
        "gl2@Q": "53dcfd13e7f80952044159518db9624da06cd75c350d96dc84ff9a03a4f602ec",
        "su2q": "e73d40f3748ca3d86e4e9878a94560d13ca6c7048c474748da95e4ae91cf11a4",
        "strict_upper4@Q": "1fda60fdccfa19ad98fc20af8159c4a1845015cd72388be56c90fb757663f56e",
        "psl3@F3": "a73b19ba2bd3d04a7ae3e0c7061b0cd596aea16e3f3b15da4cb6964b791e715e",
        "pgl3@F3": "71d8043a223e0db33aceb7587d93d77e8ca6c600328763cc81172325a70f3e99",
    },
    "h2": {
        "abelian3@Q": "b041f8a6b571257d16a703b0f5d1d43d2a8838599a0d3d3585c3b45ebc88fbea",
        "heisenberg1@Q": "6a70fef8dac2b0aef2d50a1f729022844e15736e34f9ed7b98d7ec4dfc2626cc",
        "heisenberg2@Q": "23ce908490ec03468d79e08c77ca33983b87f1154d9db88ccf2184504d627194",
        "r2@Q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "r2@F3": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "sl2@Q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "sl2@F5": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "gl2@Q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "su2q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "strict_upper4@Q": "6da24c5b5c6c3de7450a114e989ce2e1ce29512297724b3f3b00062048c497b9",
        "psl3@F3": "9532fa12d81483bba69d9e4f7e91a33eeb50bb26e2acefb0c76c4cef7aa916ee",
        "pgl3@F3": "1ec1f831e896814bac8596315d74a338409ca3135144469d8787492fae47bbfb",
    },
}
INPUT_SOLVE_SHA256 = {
    "derivations": {
        "gl3f5": "bdb2a0e4f443b16d7e15ff4d86b9303256b058fd028d3b5bfee3ed8101fce7a5",
        "gl3q": "30834a965d48f8b54340461e7d04a492784789383603579bc87a87cdc044cbdd",
        "heisenberg2q": "a52f7efc0431556ad01b0bc19f4857af01574c00ad7a7618f9ff4f1e0e6d6bea",
        "pgl3f3": "a4633fef099639d570a78b250cb52ffd4d3e93d338a68f155d3a392e690907e5",
        "psl3f3": "a64910e6d4da6bc1e1f6ce3710af8c3b13e62c7381882b3161848c76baff8259",
        "sl2f5": "19dbdcd6ddce0b422859ca70c48e4db84aad1d8b73c9aef679f019113d6b2cd8",
        "sl3f3": "424643b4355faf66b66d3df87dffc2b5219d103fb93a078cd674989a741c8fe9",
        "sl3q": "bb7785eae62945388df5948bc170731f613eb43df86758ed4c620a74951a6bd8",
        "sl4q": "6a03244b92835c475349a9a613f39d9a2b8d8ce0a555558093c1f07d8d3b8dd8",
        "sl5q": "5a7215e193399c02b7081820458da19d7c25a1436bb8189435131fbb9ad2f7af",
        "strict_upper5q": "65d7f410c4e601a604122d10b448e714b5fd842c46d68fd18d284f7945fde831",
        "su2q": "5f33ab79d3ca43f3636599884adb3562fed2a0b494e41beb768dfffe302f6470",
    },
    "centroid": {
        "gl3f5": "9a39289fa2e0e1d2b6b5dfac959a54777e1057db71eb8e78fc304e230798e22d",
        "gl3q": "e845a3a749671974065ef1f8a0cd97643650f64fe2a56b532a67da73f20437c4",
        "heisenberg2q": "b69b194f2748a74855adda23189e4287cf9c3a41521e1a6215dac3c5bd49ddd3",
        "pgl3f3": "71d8043a223e0db33aceb7587d93d77e8ca6c600328763cc81172325a70f3e99",
        "psl3f3": "a73b19ba2bd3d04a7ae3e0c7061b0cd596aea16e3f3b15da4cb6964b791e715e",
        "sl2f5": "e73d40f3748ca3d86e4e9878a94560d13ca6c7048c474748da95e4ae91cf11a4",
        "sl3f3": "71d8043a223e0db33aceb7587d93d77e8ca6c600328763cc81172325a70f3e99",
        "sl3q": "71d8043a223e0db33aceb7587d93d77e8ca6c600328763cc81172325a70f3e99",
        "sl4q": "8ab7e9d8144e928103ffb1de9da36eb3179c68d35c3ee899b3d6289b6ba837c9",
        "sl5q": "eab0759c3793858044bf369108490cf15f56cc04805a51f8e61c13cf06c9b6bc",
        "strict_upper5q": "f50723b8881866b977624bdb39f55ff624698aee817f843eaa2f7507f9a03c99",
        "su2q": "e73d40f3748ca3d86e4e9878a94560d13ca6c7048c474748da95e4ae91cf11a4",
    },
    "h2": {
        "gl3f5": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "gl3q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "heisenberg2q": "23ce908490ec03468d79e08c77ca33983b87f1154d9db88ccf2184504d627194",
        "pgl3f3": "1ec1f831e896814bac8596315d74a338409ca3135144469d8787492fae47bbfb",
        "psl3f3": "9532fa12d81483bba69d9e4f7e91a33eeb50bb26e2acefb0c76c4cef7aa916ee",
        "sl2f5": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "sl3f3": "7a76bb68dc3a30a58a47c2a0362785f9aefd889509f00ce4b91d2dbd4d5a3227",
        "sl3q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "sl4q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "sl5q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
        "strict_upper5q": "7b88f187718c4302285cc1537509bbe45f0f10101f2e87bcf54b81fa72f32285",
        "su2q": "1178a9ef9fb45072b99cd076eba7a060a948b4ea07ba4824423cc6bd3342cd34",
    },
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


def test_golden_list_covers_the_benchmark_inputs():
    assert sorted(path.stem for path in INPUTS.glob("*.json")) == list(INPUT_ANALYZE_SHA256)


@pytest.mark.parametrize("name", list(INPUT_ANALYZE_SHA256))
def test_analyze_benchmark_input(name, capsys):
    assert main(["analyze", str(INPUTS / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == INPUT_ANALYZE_SHA256[name], f"analyze output of {name}.json changed:\n{out}"


_SOLVES = ("derivations", "centroid", "h2")


def test_solve_lists_cover_the_instances_and_inputs():
    for command in _SOLVES:
        assert list(SOLVE_SHA256[command]) == list(ANALYZE_SHA256)
        assert list(INPUT_SOLVE_SHA256[command]) == list(INPUT_ANALYZE_SHA256)


@pytest.mark.parametrize("command", _SOLVES)
@pytest.mark.parametrize("name,L", canonical_instances(), ids=[n for n, _ in canonical_instances()])
def test_solve_output(command, name, L, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(L.canonical_json())
    assert main([command, str(path)]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == SOLVE_SHA256[command][name], f"{command} output of {name} changed:\n{out}"


@pytest.mark.parametrize("command", _SOLVES)
@pytest.mark.parametrize("name", list(INPUT_ANALYZE_SHA256))
def test_solve_benchmark_input(command, name, capsys):
    assert main([command, str(INPUTS / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == INPUT_SOLVE_SHA256[command][name], f"{command} output of {name}.json changed:\n{out}"
