import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from soficlab.cli import main, make_parser
from soficlab.perms import read_perm
from soficlab.suites import measure_defect, suite_covers


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


def test_build_files_read_back_as_the_enumerated_model(tmp_path, dense7, tilde7):
    # the .sprm files are the model's one dense form: read_perm gives back
    # each implicit image enumerated by materialize, and each K image
    out = tmp_path / "build7"
    assert main(["build", "--p", "7", "--out", str(out)]) == 0
    for name, perm in dense7.images.items():
        assert read_perm(out / f"sigma_{name}.sprm") == perm, name
    for name, perm in tilde7.images.items():
        assert read_perm(out / f"tilde_{name}_second_factor.sprm") == perm, name


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
    assert main(["build", "--p", "4", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "prime" in err


@pytest.mark.parametrize("argv", [
    ["build", "--p", "11", "--out", "OUT"],
    ["verify", "four-conditions", "--p", "11"],
    ["verify", "soficity", "--p", "9"],
    ["partition", "--p", "11"],
    ["measure", "boundary", "--primes", "7,25"],
    ["verify", "soficity", "--p", "11"],
])
def test_inadmissible_p_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_only_a_failed_check_exits_1(capsys, monkeypatch):
    import soficlab.cli
    from soficlab.groups import GenerationCheckError

    def failing(**kwargs):
        raise GenerationCheckError("p = 7 too small: check 'x' reached 1 of 2")

    monkeypatch.setitem(soficlab.cli.SUITES, "covers", failing)
    assert main(["verify", "covers"]) == 1
    assert "check failure: p = 7 too small" in capsys.readouterr().err


def test_other_value_errors_propagate(monkeypatch):
    # a ValueError that is not a failed check is a programming error, and
    # must not read as one
    import soficlab.cli

    def broken(**kwargs):
        raise ValueError("not a check")

    monkeypatch.setitem(soficlab.cli.SUITES, "covers", broken)
    with pytest.raises(ValueError, match="not a check"):
        main(["verify", "covers"])


def test_verify_covers(tmp_path):
    # the covers suite takes no p, so --p is neither checked nor passed
    out = tmp_path / "covers"
    assert main(["verify", "covers", "--seed", "42", "--p", "11",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(c["pass"] for c in report["checks"])


def test_verify_without_seed_runs_the_suite_default(tmp_path):
    # with no --seed, verify passes none, and the suite keeps its own default
    out = tmp_path / "covers"
    assert main(["verify", "covers", "--out", str(out)]) == 0
    written = json.loads((out / "report.json").read_text())
    del written["wall_time_s"]
    assert written == json.loads(json.dumps(suite_covers().body(volatile=False)))


def test_verify_four_conditions_takes_no_seed(tmp_path, sigma7, monkeypatch):
    # --seed reaches only the suites that take one; the four-conditions
    # suite takes none, so its report does not record it
    import soficlab.suites

    monkeypatch.setattr(soficlab.suites, "build_sigma", lambda family: sigma7)
    out = tmp_path / "d"
    assert main(["verify", "four-conditions", "--seed", "5", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["parameters"] == {"k": 3, "m": 5, "p": 7}


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


# measure_defect((7, 13, 37), samples=20_000, seed=17) and its CSV, as the
# index-pair kernel computed them: the coordinate kernel draws the same
# points and must reproduce every value bit for bit.
PINNED_DEFECT_ROWS = [
    {"p": 7, "mode": "exact", "value": Fraction(1075, 5103), "radius": 0.0,
     "seed": None, "samples": None},
    {"p": 7, "mode": "sampled", "value": 0.2117, "radius": 0.011509037065006824,
     "seed": 24, "samples": 20000},
    {"p": 13, "mode": "sampled", "value": 0.20845000000000002,
     "radius": 0.011509037065006824, "seed": 30, "samples": 20000},
    {"p": 37, "mode": "sampled", "value": 0.15695000000000003,
     "radius": 0.011509037065006824, "seed": 54, "samples": 20000},
]
PINNED_DEFECT_CSV = (
    b"p,mode,value,radius,samples,seed\r\n"
    b"7,exact,1075/5103,0.0,,\r\n"
    b"7,sampled,0.2117,0.011509037065006824,20000,24\r\n"
    b"13,sampled,0.20845000000000002,0.011509037065006824,20000,30\r\n"
    b"37,sampled,0.15695000000000003,0.011509037065006824,20000,54\r\n"
)


def test_sampled_defects_are_pinned(tmp_path):
    assert measure_defect((7, 13, 37), samples=20_000, seed=17) == PINNED_DEFECT_ROWS
    out = tmp_path / "defect.csv"
    assert main(["measure", "defect", "--primes", "7,13,37", "--samples", "20000",
                 "--seed", "17", "--out", str(out)]) == 0
    assert out.read_bytes() == PINNED_DEFECT_CSV


# The benchmark-size table, `measure defect --primes 7,13,19,31,37
# --samples 663000 --seed 4242`, as the generic route (build_sigma and
# hom_defect) computed it: the region count must reproduce it byte for byte.
PINNED_BENCHMARK_DEFECT_CSV = (
    b"p,mode,value,radius,samples,seed\r\n"
    b"7,exact,1075/5103,0.0,,\r\n"
    b"7,sampled,0.2110814479638009,0.001998928326481538,663000,4249\r\n"
    b"13,sampled,0.20449622926093514,0.001998928326481538,663000,4255\r\n"
    b"19,sampled,0.191894419306184,0.001998928326481538,663000,4261\r\n"
    b"31,sampled,0.16840723981900452,0.001998928326481538,663000,4273\r\n"
    b"37,sampled,0.15972699849170435,0.001998928326481538,663000,4279\r\n"
)


def test_benchmark_size_defect_table_is_pinned(tmp_path):
    out = tmp_path / "defect.csv"
    assert main(["measure", "defect", "--primes", "7,13,19,31,37", "--samples", "663000",
                 "--seed", "4242", "--out", str(out)]) == 0
    assert out.read_bytes() == PINNED_BENCHMARK_DEFECT_CSV


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_defect_table_frees_each_prime_before_the_next():
    # one prime's sample must not outlive its row: two primes peak like
    # the larger one alone
    measure_defect((13, 19), samples=10, seed=1)  # tables and caches
    alone = _traced_peak(lambda: measure_defect((19,), samples=200_000, seed=1))
    both = _traced_peak(lambda: measure_defect((13, 19), samples=200_000, seed=1))
    assert both <= 1.25 * alone


def test_measure_spectra_csv(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in paths:
        assert main(["measure", "spectra", "--primes", "7", "--seed", "2",
                     "--out", str(out)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = list(csv.DictReader(open(paths[0])))
    assert list(rows[0]) == ["p", "family", "N", "degree", "lambda2", "gap",
                             "residual", "iterations", "converged", "seed", "pair"]
    assert rows[0]["converged"] == "True"
    assert rows[0]["pair"] == "cuspidal:n=2 x cuspidal:n=2"
    assert float(rows[0]["gap"]) > 0.05
    # the reference value is the largest top eigenvalue over the 24 pair
    # operators, each solved densely at p = 7
    assert abs(float(rows[0]["lambda2"]) - 0.9044822283320535) <= 1e-12
    assert float(rows[0]["residual"]) <= 1e-8


def test_measure_without_seed_keeps_each_table_default(tmp_path):
    # no --seed passes none, so spectra runs at measure_spectra's seed 2
    out = tmp_path / "spectra.csv"
    assert main(["measure", "spectra", "--primes", "7", "--out", str(out)]) == 0
    assert [row["seed"] for row in csv.DictReader(open(out))] == ["2"]


def test_measure_defect_refuses_p_past_int64_indices(capsys):
    # 3^43 vectors cannot be indexed in int64: refused before any table
    code = main(["measure", "defect", "--primes", "43", "--samples", "1000"])
    assert code == 3
    assert "resource refusal" in capsys.readouterr().err


def test_four_conditions_past_exact_mode_is_a_resource_refusal(capsys):
    assert main(["verify", "four-conditions", "--p", "13"]) == 3
    assert "resource refusal" in capsys.readouterr().err


def test_soficity_past_exact_mode_is_a_resource_refusal(capsys):
    assert main(["verify", "soficity", "--p", "13"]) == 3
    err = capsys.readouterr().err
    assert "resource refusal" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["soficity", "four-conditions"])
def test_exact_mode_suites_refuse_before_any_work(suite, capsys, monkeypatch):
    import soficlab.suites

    def build(*args):
        raise AssertionError("build_hom_specs ran before the refusal")

    monkeypatch.setattr(soficlab.suites, "build_hom_specs", build)
    assert main(["verify", suite, "--p", "13"]) == 3
    err = capsys.readouterr().err
    assert "resource refusal" in err
    assert "Traceback" not in err


def test_refused_build_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "b43"
    assert main(["build", "--p", "43", "--out", str(out)]) == 3
    assert "resource refusal" in capsys.readouterr().err
    assert not out.exists()


def test_measure_rejects_bad_primes(capsys):
    assert main(["measure", "boundary", "--primes", "7,11"]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_measure_defect_rejects_nonpositive_samples(samples, capsys, monkeypatch):
    import soficlab.suites

    built = []
    monkeypatch.setattr(soficlab.suites, "build_hom_specs",
                        lambda *args, **kwargs: built.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["measure", "defect", "--primes", "13", "--samples", samples])
    assert exc.value.code == 2
    assert built == []
    assert "--samples" in capsys.readouterr().err


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
    # the classification is closed-form, so it takes no seed
    assert report["parameters"] == {"p": 7, "plant": "g-factor"}
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--p", "7", "--seed", "3"])
    assert exc.value.code == 2


def test_partition_needs_no_homomorphism_family(monkeypatch):
    # K's modulus is next_prime(p); past p = 151 the family's closures
    # would exceed their budget, but the partition is closed-form
    import soficlab.cli

    def refuse(*args):
        raise AssertionError("partition built the homomorphism family")

    monkeypatch.setattr(soficlab.cli, "build_hom_specs", refuse)
    for p in ("7", "157"):
        assert main(["partition", "--p", p]) == 0


def test_partition_rejects_unknown_candidate(capsys, monkeypatch):
    import soficlab.cli

    def refuse(*args):
        raise AssertionError("partition sizes were computed before --plant was checked")

    monkeypatch.setattr(soficlab.cli, "psl2_order", refuse)
    for p in ("7", "37"):
        assert main(["partition", "--p", p, "--plant", "nonsense"]) == 2
    assert "unknown candidate 'nonsense'" in capsys.readouterr().err


def test_measure_spectra_refuses_oversized_graphs_before_any_work(
        tmp_path, capsys, monkeypatch):
    # the largest p = 67 pair has 68 x 72 = 4,896 dimensions, past the
    # largest measured prime p = 61; p = 7 is not built either
    import soficlab.suites

    built = []
    monkeypatch.setattr(soficlab.suites, "build_hom_specs",
                        lambda *args: built.append(args))
    out = tmp_path / "spectra.csv"
    t0 = time.monotonic()
    code = main(["measure", "spectra", "--primes", "7,67", "--out", str(out)])
    assert code == 3
    assert time.monotonic() - t0 < 5
    assert built == []
    assert "resource refusal" in capsys.readouterr().err
    assert not out.exists()


def test_measure_spectra_routes_large_pairs_to_lanczos(tmp_path, monkeypatch):
    # the p = 13 pairs have up to 14 x 18 = 252 dimensions: those past the
    # dense limit go to the Lanczos routine
    import soficlab.spectral

    solve = soficlab.spectral.lambda2_estimate
    lanczos = []

    def recording(op, *args, **kwargs):
        lanczos.append(op.size)
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(soficlab.spectral, "lambda2_estimate", recording)
    out = tmp_path / "spectra.csv"
    assert main(["measure", "spectra", "--primes", "13", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert [(r["p"], r["N"], r["converged"]) for r in rows] == [
        ("13", str(1092 * 2448), "True")]
    assert abs(float(rows[0]["lambda2"]) - 0.9273188398592309) <= 1e-8
    assert lanczos and min(lanczos) > soficlab.spectral.DENSE_PAIR_LIMIT
    assert max(lanczos) == 252


def test_unconverged_spectra_row_is_a_check_failure(tmp_path, capsys, monkeypatch):
    # one of the 24 p = 7 pairs comes back unconverged: the row is
    # written, marked, and the command exits 1
    import soficlab.spectral

    solve = soficlab.spectral._solve_pair

    def one_pair_unconverged(op, seed):
        est, top = solve(op, seed)
        if (op.left.label, op.right.label) == ("cuspidal:n=4", "principal:j=2"):
            est.converged, est.residual = False, 3e-4
        return est, top

    monkeypatch.setattr(soficlab.spectral, "_solve_pair", one_pair_unconverged)
    out = tmp_path / "spectra.csv"
    assert main(["measure", "spectra", "--primes", "7", "--out", str(out)]) == 1
    rows = list(csv.DictReader(open(out)))
    assert rows[0]["converged"] == "False" and float(rows[0]["residual"]) == 3e-4
    assert ("check failure: measure spectra p=7 did not converge (residual 3.00e-04)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("table", ["spectra", "defect"])
def test_negative_seed_is_a_usage_error(table, tmp_path, capsys, monkeypatch):
    import soficlab.suites

    built = []
    monkeypatch.setattr(soficlab.suites, "build_hom_specs",
                        lambda *args: built.append(args))
    monkeypatch.setattr(soficlab.suites, "build_sigma",
                        lambda *args, **kwargs: built.append(args))
    out = tmp_path / f"{table}.csv"
    with pytest.raises(SystemExit) as exc:
        main(["measure", table, "--primes", "7", "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert built == [] and not out.exists()
    assert "--seed" in capsys.readouterr().err


def test_measure_creates_the_csv_directory(tmp_path):
    out = tmp_path / "missing" / "nested" / "boundary.csv"
    assert main(["measure", "boundary", "--primes", "7", "--out", str(out)]) == 0
    assert len(list(csv.DictReader(open(out)))) == 3


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    code = ("import sys, soficlab.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize', "
            "'scipy.sparse.linalg') "
            "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_readme_command_lines_parse():
    # every command in the README's "Command line" block is one the parser
    # accepts, so the two cannot drift apart
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["soficlab"]]
    assert len(commands) >= 10
    for argv in commands:
        make_parser().parse_args(argv)
