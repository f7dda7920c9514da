"""Golden fixtures: the sha256 of seeded CLI output on every shipped circuit
and of the seeded memory benchmark.

A rerun giving the same bytes proves determinism, not that a refactor kept
the output. These digests pin the bytes themselves, so any change to the
sampled outcomes, the probabilities, the states or their formatting shows
up here. Each key is the command line, with the circuit file named relative
to ``circuits/``; the output goes through ``--out``. The ``bench-memory``
CSV rounds to six decimals, so the unrounded ``mean_recall_fidelity``
results are pinned too: one changed draw moves their last digits.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from onticsim.cli import main
from onticsim.measurement import mean_recall_fidelity

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"

GOLDEN = {
    "run bell_pair.json --trajectories 300 --seed 11":
        "3c5ffaa03dda0130639d09014516cbc2e6df7679451d4f7fc1b3f16452b11d8d",
    "run bell_pair.json --trajectories 300 --seed 11 --store-states":
        "3f7f3c4904dd85c5abe94337e9327da913387ee5c045a5c6a4d7b5b59a418d96",
    "run bell_pair.json --trajectories 300 --seed 11 --format json":
        "774aa4b6b7a0027bfd6cccd2af060e5b7ffdecd90c70e5aea06f2b2ba2309e50",
    "run bell_pair.json --trajectories 300 --seed 11 --format json --store-states":
        "1e9e5a810e8e7a8976671a4d9e626b762565c6d48fa80b371cbd8820d8f7ad49",
    "run bell_pair.opt --trajectories 300 --seed 11":
        "855473c68b96a44dea85d7275fadab0fea51a04376bf73492f3412ac1b5ec8fd",
    "run bell_pair.opt --trajectories 300 --seed 11 --store-states":
        "99045f8449d36bb7944156a5558827ad8fa8928267e1df22c720e1d45f80899b",
    "run bell_pair.opt --trajectories 300 --seed 11 --format json":
        "0ffb67f1b749098b3f9764dd8ab36355bea101e970f5fbb34b62f670263a70a7",
    "run bell_pair.opt --trajectories 300 --seed 11 --format json --store-states":
        "7754e4ef763cb013359c4d8d9995ff78946afe0684537b5caa51c3747982c73e",
    "run bloch_axes.json --trajectories 300 --seed 11":
        "db99634a18c13439145b508519a1171f1bec2fa624fce57d572adac4406b8378",
    "run bloch_axes.json --trajectories 300 --seed 11 --store-states":
        "31c5954d9f174e83ae991922c172454d6a1e32572b2d9404a3e79c99ab2f401e",
    "run bloch_axes.json --trajectories 300 --seed 11 --format json":
        "8017de1ce24ae52e96798b15d4244aaf4bc33ae28d6a7a1abf8c13fef9d780ea",
    "run bloch_axes.json --trajectories 300 --seed 11 --format json --store-states":
        "6ecd3f251e4b38b9e459040afb7ff309f5e85aaeda9cb75e9a34ee6c607d2857",
    "run conditioned_step_closed.json --trajectories 300 --seed 11":
        "54ecf8f4bd1b3b412f3c850af0d2dd0443fa2bd317f4291d60705fcc799eeda1",
    "run conditioned_step_closed.json --trajectories 300 --seed 11 --store-states":
        "08a5456c37e5aced2fe87b43d2089c996884cf2688abe843997ce3f33ab4f166",
    "run conditioned_step_closed.json --trajectories 300 --seed 11 --format json":
        "5639c0fc2d705756404a55464e3f62fa058f796fe1a7b1828b313011ee088aa2",
    "run conditioned_step_closed.json --trajectories 300 --seed 11 --format json --store-states":
        "cc35b26220e1f0d7cc28c9cac4b03768896e1e6de9fd6b76c213e8242c84f3d9",
    "run conditioned_step_program.json --trajectories 300 --seed 11":
        "b98e1752a1b59d8ba1e1584b6c0b08e9b4a835e28c2e7ace6503ffdaffb042b1",
    "run conditioned_step_program.json --trajectories 300 --seed 11 --store-states":
        "135d74f33a5276b21fb9e19d2aec976f9090eb5186647963d7b6d793175e17c9",
    "run conditioned_step_program.json --trajectories 300 --seed 11 --format json":
        "e8742de341aac152b87bf79d90153db369d6f83cb448f19a0bb97c286a92be28",
    "run conditioned_step_program.json --trajectories 300 --seed 11 --format json --store-states":
        "04477717c8d2867e4e1a4bb39edc6f50785d611807352bf7841da74b603a1aea",
    "run conditioned_step_program.json --trajectories 300 --seed 11 --inputs 1":
        "7eb35e767c1777263626c9ba93950eb6607c6a3341340fa2ef210d46d6b7a103",
    "run conditioned_step_program.json --trajectories 300 --seed 11 --inputs 1 --store-states":
        "9f3188e33840820f125623f06834485243984fb8d93a4b06e15c5d1b8c2cafa3",
    "run merge_split.json --trajectories 300 --seed 11":
        "224504a2c0711ef9cf34a49a6729f3d883cb72242cb14c290b3327416fa778de",
    "run merge_split.json --trajectories 300 --seed 11 --store-states":
        "ecee4b6603bab82fe264dc1f73c8b4f62c78deb7d037f3160f430810e5924418",
    "run merge_split.json --trajectories 300 --seed 11 --format json":
        "eecad3e130b81d6aacba19e6db02c38fda73b6c5eb0e3b2d1c73bb2756a2718b",
    "run merge_split.json --trajectories 300 --seed 11 --format json --store-states":
        "2d23370c0ea70082f1c8aae891aa9d7c45ff7e236d11b8e72c935ba3d6445cec",
    "run bell_pair.json --trajectories 0":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run bell_pair.json --trajectories 0 --format json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "enumerate bell_pair.json":
        "456cd27a6e8a5087afd5f6908ddd83f044fac1b7b6471bf1aa41024b05c85931",
    "enumerate bell_pair.json --format csv":
        "e6f715ab9557868b1e1fdd2c727614d3cb0fae0cb28487383135ff4f29cf1707",
    "enumerate bell_pair.opt":
        "f7dfc3b300ff9bf29eb2bf64bede8f453a82f05c283bb0889b35cc7502a8b255",
    "enumerate bell_pair.opt --format csv":
        "a6db3812515b9df0dd10048bfb7acce6c8c58fe846917716864a48599b269bec",
    "enumerate bloch_axes.json":
        "fbd9f7464f24792da2a94cf077025509d80a1e68826a2ca89c302059709460c7",
    "enumerate bloch_axes.json --format csv":
        "fc09e432b41de1576a68ee7dcfed642d69b7d6c883c53b15c411d3a150773328",
    "enumerate conditioned_step_closed.json":
        "216aa430b7be831ac3e2175d66a74d5f8f6dc75aeb0e6016f4a1e2832520bd8c",
    "enumerate conditioned_step_closed.json --format csv":
        "68a29938e10fd0a0cde6bcb24221d99b891ab9a1b3c461bc4aa702ed120ce318",
    "enumerate conditioned_step_program.json":
        "a731e18752fd935a34e0ab6b4f8a048203e66852bac063eb76ec1ce41f923b06",
    "enumerate conditioned_step_program.json --format csv":
        "44081a6e4e4daa7e83d390c02d5a09c42c26bb5f7c8cd5de09ec05b0c2904d80",
    "enumerate merge_split.json":
        "a35334215455241985b963d63ac99290e504c4ddcb8fdd20eb6cc26858602a9e",
    "enumerate merge_split.json --format csv":
        "3ecd75495300c9e6a0320e4b09ae1f7f7a64149f11d578213d550f6ac02f598a",
    "classify bell_pair.json --seed 11":
        "6eec9642fb833abad9806d39d95cf8c86505dcd6d2d52ce47db506c52f2c0b8f",
    "classify bell_pair.opt --seed 11":
        "6eec9642fb833abad9806d39d95cf8c86505dcd6d2d52ce47db506c52f2c0b8f",
    "classify bloch_axes.json --seed 11":
        "10b966ef2afccf4e84076411697d3b3b86f5b7dc5fc0ed09418d0d80b62ae853",
    "classify conditioned_step_program.json --seed 11":
        "b93fdf3bd2be05075ca4b622dcbc966174a28e6231ff238a1690b501d2a5abfb",
    "classify conditioned_step_closed.json --seed 11":
        "6eec9642fb833abad9806d39d95cf8c86505dcd6d2d52ce47db506c52f2c0b8f",
    "classify merge_split.json --seed 11":
        "d5ce7eb1fcaaead7bb5990ef374cf2b4e6a4e54b677feb2d4b615d09d0229dbe",
}

BENCH_MEMORY_GOLDEN = {
    "bench-memory --copies 1,2,3 --trials 3000 --seed 11":
        "59d40ae37c4f9269ce268b992a64ebca6ce18eed8e2e24a071c087c85f788c1f",
    "bench-memory --strategies sic_estimate --dims 3 --copies 1,2,3 --trials 3000 --seed 11":
        "4a4c8509c5bbf27682ead67df7da05237daa4236712f343f571e4869ae444324",
}

# (strategy, M, d, trials) -> repr((mean, stderr)) at seed 11
RECALL_GOLDEN = {
    ("optimal_covariant_qubit", 1, 2, 20_000): "(0.6665498836242792, 0.0016691369612665677)",
    ("optimal_covariant_qubit", 2, 2, 20_000): "(0.7497478299924892, 0.0013730263560283297)",
    ("optimal_covariant_qubit", 3, 2, 20_000): "(0.7999577983229205, 0.0011522319726079652)",
    ("optimal_covariant_qubit", 4, 2, 20_000): "(0.8325715735971148, 0.0009992886896620578)",
    ("optimal_covariant_qubit", 5, 2, 20_000): "(0.8587209175632974, 0.0008674973333849837)",
    ("random_vn_repeat", 1, 2, 20_000): "(0.6672612611529758, 0.001663289439031045)",
    ("random_vn_repeat", 2, 2, 20_000): "(0.7232149968800586, 0.001595724724973138)",
    ("random_vn_repeat", 3, 2, 20_000): "(0.7587735769356263, 0.0014371062821065576)",
    ("sic_estimate", 1, 2, 20_000): "(0.6633299595583277, 0.0016713351451396266)",
    ("sic_estimate", 2, 2, 20_000): "(0.7247821865573417, 0.001578356318339688)",
    ("sic_estimate", 3, 2, 20_000): "(0.7657120606964971, 0.0014540225826614177)",
    ("sic_estimate", 1, 3, 10_000): "(0.5000917308674466, 0.0022338949937441414)",
    ("sic_estimate", 2, 3, 10_000): "(0.5700295038446582, 0.00225596967787847)",
    ("sic_estimate", 3, 3, 10_000): "(0.6090798099057451, 0.0022452815476188288)",
}


def _run(words: list[str], out: Path) -> tuple[int, str]:
    words = [words[0], str(CIRCUITS / words[1]), *words[2:], "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(words)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_bytes_are_pinned(command, tmp_path):
    out = tmp_path / "out"
    code, err = _run(command.split(), out)
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", ["run", "enumerate", "classify"])
def test_open_circuit_without_initial_state_fails(command, tmp_path):
    code, err = _run([command, "conditioned_step.json"], tmp_path / "out")
    assert code == 1
    assert err == (
        "error: program starts on open wires of total dimension 8; provide an initial state\n"
    )


@pytest.mark.parametrize("command", sorted(BENCH_MEMORY_GOLDEN))
def test_bench_memory_bytes_are_pinned(command, tmp_path):
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*command.split(), "--out", str(out)])
    assert code == 0, err.getvalue()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_MEMORY_GOLDEN[command]


@pytest.mark.parametrize("cell", sorted(RECALL_GOLDEN))
def test_recall_fidelity_is_pinned(cell):
    strategy, m, d, trials = cell
    assert repr(mean_recall_fidelity(strategy, m, d, trials, seed=11)) == RECALL_GOLDEN[cell]
