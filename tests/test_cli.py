import csv
import hashlib
import json

import pytest

from soficlab.cli import main
from soficlab.perms import read_perm


def test_build_writes_artifacts(tmp_path):
    out = tmp_path / "build7"
    assert main(["build", "--p", "7", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "soficlab-report"
    assert all(c["pass"] for c in report["checks"])
    spec = json.loads((out / "homspecs.json").read_text())
    assert spec["p"] == 7 and spec["r_p"] == 11
    perm = read_perm(out / "sigma_t.sprm")
    assert perm.size == 367_416
    sidecar = json.loads((out / "sigma_t.sprm.json").read_text())
    assert sidecar["p"] == 7


# sha256 of every file `build --p 7` writes, whatever the seed: the seed
# reaches only the JSON sidecars.
BUILD_P7_DIGESTS = {
    "homspecs.json": "25cf57a5f7ba7a83f6107ef2a61f7c7ad4b2aa0d0ad6f47f5e302f31e6d21691",
    "sigma_a1.sprm": "c12a20fd2ab9bf07da49b8250fbd06b46700d18a5e5b73f6fc399dcdbe4f61a9",
    "sigma_a2.sprm": "6b0360113cf90bd3be2b6fd9faa09e87ab0978a2f83ff104377718d787df0970",
    "sigma_a3.sprm": "5a9dd1fae24fb6399f957940d25bbd9084d7d51f4ffd3b73548db992b9316814",
    "sigma_a4.sprm": "f8a986e49de60bcba0bc4024ecc65c3079d723214c93564ae9d4b40b7f0f9003",
    "sigma_b1.sprm": "0278d018ca9d3ea1c1a374ac8df4bb5267e4773384fcde261f752c9e1c82bca5",
    "sigma_b2.sprm": "94757b24543eebcd879509f5f77e02cf7aa21e4333509512b9b9472bed9bbfb2",
    "sigma_b3.sprm": "2613b31eb65c69086dfbdb04ed091c4c02098b9e9e65fbee61c935845f4684be",
    "sigma_t.sprm": "a8b072f915229d721b4cc8c06a03b5bd38ccde8063334af6044bc8c1c11fda7e",
    "tilde_a1_second_factor.sprm": "b628e80990afd54dfbbcfa992590d8e16a1b16618233425c7665b2eb90bed682",
    "tilde_a2_second_factor.sprm": "8c0f3c002fbc5a366ff88c07fc0b9ac34a7761a634a5421aa1d81ce850ac0903",
    "tilde_a3_second_factor.sprm": "396c64db9614ffb1ea204f43f78085bbaa78c75e0495d42d5840b5a81df9c6b4",
    "tilde_a4_second_factor.sprm": "943bd9b945255fc6db76c2cb69572b68094dbd74de007fc82dd3d57e5b057874",
    "tilde_b1_second_factor.sprm": "a9656c681ec53410acbdc367735dfce4de458d90e5299a281bda526b974de3ae",
    "tilde_b2_second_factor.sprm": "c4b05a7d53daffe3303c3dbf99e30102fd2cdc2b04dbfa84ce3ee52d6f9cee09",
    "tilde_b3_second_factor.sprm": "a81210b88a0052f4a59d4b86f7d3d5a3fa663b89f0bfb9b02ffe4cd1da93e695",
    "tilde_t_second_factor.sprm": "e0d0d37de44d08776b535894a63179312a31e04cac8162c83c8a254d53b3fb8a",
}


def test_build_files_match_reference_digests(tmp_path):
    out = tmp_path / "build7"
    assert main(["build", "--p", "7", "--seed", "3", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in BUILD_P7_DIGESTS}
    assert digests == BUILD_P7_DIGESTS


def test_build_rejects_bad_p(tmp_path, capsys):
    assert main(["build", "--p", "4", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "prime" in err


def test_build_rejects_small_m(tmp_path, capsys):
    assert main(["build", "--p", "7", "--m", "4", "--out", str(tmp_path / "x")]) == 1
    assert "m = 4 < 5" in capsys.readouterr().err


def test_verify_covers(tmp_path):
    out = tmp_path / "covers"
    assert main(["verify", "covers", "--seed", "42", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(c["pass"] for c in report["checks"])


def test_verify_induction():
    assert main(["verify", "induction", "--seed", "5"]) == 0


def test_measure_boundary_csv(tmp_path):
    out = tmp_path / "boundary.csv"
    assert main(["measure", "boundary", "--primes", "7,13", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert {r["p"] for r in rows} == {"7", "13"}
    decorated = [r for r in rows if r["family"] == "decorated"]
    assert len(decorated) == 2


def test_measure_defect_csv(tmp_path):
    out = tmp_path / "defect.csv"
    assert main(["measure", "defect", "--primes", "7", "--samples", "2000",
                 "--seed", "17", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert [r["mode"] for r in rows] == ["exact", "sampled"]
    assert rows[0]["value"] == "1075/5103"  # exact rational survives the CSV
    assert rows[0]["radius"] == "0.0"
    assert rows[1]["seed"] == "24"  # 17 + p


def test_measure_spectra_csv(tmp_path):
    out = tmp_path / "spectra.csv"
    assert main(["measure", "spectra", "--primes", "7", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert list(rows[0]) == ["p", "family", "N", "degree", "lambda2", "gap",
                             "residual", "iterations", "seed"]
    assert float(rows[0]["gap"]) > 0.05


def test_measure_defect_exact_refusal(tmp_path, capsys):
    out = tmp_path / "defect.csv"
    code = main(["measure", "defect", "--primes", "7,13", "--mode", "exact",
                 "--out", str(out)])
    assert code == 3
    assert "refused" in capsys.readouterr().err


def test_measure_defect_refuses_p_past_int64_indices(capsys):
    # 3^43 vectors cannot be indexed in int64: refused before any table
    code = main(["measure", "defect", "--primes", "43", "--samples", "1000"])
    assert code == 3
    assert "resource refusal" in capsys.readouterr().err


def test_four_conditions_past_exact_mode_is_a_resource_refusal(capsys):
    assert main(["verify", "four-conditions", "--p", "13"]) == 3
    assert "resource refusal" in capsys.readouterr().err


def test_refused_build_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "b43"
    assert main(["build", "--p", "43", "--out", str(out)]) == 3
    assert "resource refusal" in capsys.readouterr().err
    assert not out.exists()


def test_measure_rejects_bad_primes(capsys):
    assert main(["measure", "boundary", "--primes", "7,11"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_partition_command(tmp_path):
    out = tmp_path / "part"
    assert main(["partition", "--p", "7", "--plant", "g-factor",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][0]["name"] == "recover-g-factor"
    assert report["checks"][0]["pass"]


def test_partition_rejects_unknown_candidate(capsys):
    assert main(["partition", "--p", "7", "--plant", "nonsense"]) == 2


def test_induce_command():
    assert main(["induce", "--seed", "5"]) == 0
