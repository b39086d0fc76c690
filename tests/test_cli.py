import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whindex.cli import main
from whindex.serialize import realization_from_json, realization_to_json
from whindex import zeta_power_realization


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_indices_diagonal(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-4, -2, 0, 3, 5]})
    code, out, _ = run(capsys, "indices", path)
    assert code == 0
    report = json.loads(out)
    assert report["all_indices"] == [-4, -2, 0, 3, 5]
    assert report["negative_indices"] == [-4, -2]
    assert report["positive_indices"] == [3, 5]
    assert report["zeros"] == 1
    assert report["mu"] == [2, 2, 1, 1]
    assert report["kernel_dims"]["negative"] == [6, 4, 2, 1, 0]
    assert report["tool_version"]
    assert report["tolerance_used"] == pytest.approx(1e-7)


def test_indices_output_is_byte_stable(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-2, 1]})
    _, first, _ = run(capsys, "indices", path)
    _, second, _ = run(capsys, "indices", path)
    assert first == second


def test_report_serialization_round_trips(tmp_path, capsys):
    from whindex.serialize import canonical_json

    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-3, 0, 2]})
    _, out, _ = run(capsys, "indices", path)
    text = out.rstrip("\n")
    assert canonical_json(json.loads(text)) == text


def test_indices_tol_flag(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-1]})
    code, out, _ = run(capsys, "indices", path, "--tol", "1e-5")
    assert code == 0
    report = json.loads(out)
    assert report["tolerance_used"] == pytest.approx(1e-5)
    assert report["all_indices"] == [-1]


def test_indices_identity_diagonal(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [0]})
    code, out, _ = run(capsys, "indices", path)
    assert code == 0
    assert json.loads(out)["all_indices"] == [0]


def test_indices_scalar_blaschke_pair(tmp_path, capsys):
    payload = {
        "kind": "scalar_blaschke_pair",
        "phi": {"rho": [1, 0], "poles": [[-1, 0]]},
        "m": {"rho": [1, 0], "poles": [[-1, 0], [-2, 0]]},
    }
    code, out, _ = run(capsys, "indices", write_problem(tmp_path, payload))
    assert code == 0
    assert json.loads(out)["all_indices"] == [-1]


def test_indices_realization_pair(tmp_path, capsys):
    from whindex import diagonal_symbol_factors

    pair = diagonal_symbol_factors([1, -1])
    payload = {
        "kind": "realization_pair",
        "v": realization_to_json(pair.v),
        "w": realization_to_json(pair.w),
    }
    code, out, _ = run(capsys, "indices", write_problem(tmp_path, payload))
    assert code == 0
    assert json.loads(out)["all_indices"] == [-1, 1]


def test_indices_discrete_realization_pair(tmp_path, capsys):
    from whindex import c2d, diagonal_symbol_factors

    pair = diagonal_symbol_factors([-2, 1])
    payload = {
        "kind": "realization_pair",
        "v": realization_to_json(c2d(pair.v)),
        "w": realization_to_json(c2d(pair.w)),
    }
    code, out, _ = run(capsys, "indices", write_problem(tmp_path, payload))
    assert code == 0
    assert json.loads(out)["all_indices"] == [-2, 1]


def test_indices_pretty_mode(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-1]})
    code, out, _ = run(capsys, "indices", path, "--pretty")
    assert code == 0
    assert "all_indices" in out and "-1" in out


def test_indices_malformed_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "indices", write_problem(tmp_path, {"kind": "bogus"}))
    assert code == 2 and "problem.kind" in err

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "indices", str(path))
    assert code == 2

    code, _, err = run(capsys, "indices", str(tmp_path / "missing.json"))
    assert code == 2

    payload = {"kind": "diagonal_powers", "powers": [1, "two"]}
    code, _, err = run(capsys, "indices", write_problem(tmp_path, payload))
    assert code == 2 and "powers[1]" in err

    payload = {
        "kind": "realization_pair",
        "v": {"flavor": "continuous", "a": [], "b": [[[1.0, 0.0]]], "c": [],
              "d": [[[1.0, 0.0]]]},
        "w": realization_to_json(zeta_power_realization(1)),
    }
    code, _, err = run(capsys, "indices", write_problem(tmp_path, payload))
    assert code == 2 and "problem.v: b must be 0x1, got shape (1, 1)" in err


def test_non_finite_inputs_are_refused_as_malformed(tmp_path, capsys):
    # Python's json reads NaN and Infinity, so problem files can carry them.
    w = realization_to_json(zeta_power_realization(1))
    v = {**w, "b": [[[float("inf"), 0.0]]]}
    spec = {"rho": [1.0, 0.0], "poles": [[-1.0, 0.0]]}
    problems = [
        ({"kind": "realization_pair", "v": v, "w": w}, "problem.v: b has a NaN or infinite entry"),
        ({"kind": "scalar_blaschke_pair", "phi": {"rho": [float("nan"), 0.0], "poles": []},
          "m": spec}, "problem.phi: rho and the poles must be finite numbers"),
        ({"kind": "scalar_blaschke_pair", "phi": spec,
          "m": {"rho": [1.0, 0.0], "poles": [[float("nan"), 0.0]]}},
         "problem.m: rho and the poles must be finite numbers"),
    ]
    for payload, message in problems:
        code, out, err = run(capsys, "indices", write_problem(tmp_path, payload))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, "stability", "1 nan")
    assert (code, out, err) == (2, "", "error: polynomial coefficients must be finite numbers\n")


@pytest.mark.parametrize("tol", ["0", "-1", "1", "2", "nan", "inf"])
def test_indices_and_example_refuse_a_tol_outside_the_unit_interval(tmp_path, capsys, tol):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [0, 0]})
    message = f"error: tolerance must be a finite number in (0, 1), got {float(tol)!r}\n"
    assert run(capsys, "indices", path, "--tol", tol) == (2, "", message)
    out_dir = tmp_path / "example"
    assert run(capsys, "example", "dss", "--output", str(out_dir), "--tol", tol) == (2, "", message)
    assert list(out_dir.iterdir()) == []


def test_tol_help_names_the_default(capsys):
    for command in ("indices", "example"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "(default 1e-07)" in " ".join(capsys.readouterr().out.split())


def test_indices_rejects_invalid_realization_pair(tmp_path, capsys):
    payload = {
        "kind": "realization_pair",
        "v": {
            "flavor": "continuous",
            "a": [[[1.0, 0.0]]],
            "b": [[[1.0, 0.0]]],
            "c": [[[1.0, 0.0]]],
            "d": [[[1.0, 0.0]]],
        },
        "w": realization_to_json(zeta_power_realization(1)),
    }
    code, _, err = run(capsys, "indices", write_problem(tmp_path, payload))
    assert code == 2 and "stable dissipative" in err


def test_a_factor_that_overflows_is_refused_without_numpy_warnings(tmp_path):
    # d*d - I of this finite v overflows to inf and NaN; validation refuses the NaN residual.
    big = [[[1e200, 0.0], [1e200, 0.0]], [[1e200, 0.0], [-1e200, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    payload = {
        "kind": "realization_pair",
        "v": {"flavor": "continuous", "a": [], "b": [], "c": [], "d": big},
        "w": {"flavor": "continuous", "a": [], "b": [], "c": [], "d": eye},
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "whindex.cli", "indices", write_problem(tmp_path, payload)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    message = "error: factor v is not stable dissipative (stable=True, max residual=nan)\n"
    assert (out.returncode, out.stdout, out.stderr) == (2, "", message)


def test_indices_output_file(tmp_path, capsys):
    problem = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [2]})
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "indices", problem, "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["all_indices"] == [2]


def test_cayley_zeta_block(tmp_path, capsys):
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(realization_to_json(zeta_power_realization(1))))
    code, out, _ = run(capsys, "cayley", str(path), "c2d")
    assert code == 0
    payload = json.loads(out)
    r = realization_from_json(payload["realization"])
    assert abs(r.a[0, 0]) < 1e-14
    assert abs(r.b[0, 0] - 1.0) < 1e-13
    assert payload["validation"]["verdict"] is True

    code, _, err = run(capsys, "cayley", str(path), "d2c")
    assert code == 2 and "continuous" in err


def test_cayley_cli_round_trip(tmp_path, capsys):
    original = zeta_power_realization(3)
    first = tmp_path / "first.json"
    first.write_text(json.dumps(realization_to_json(original)))
    code, out, _ = run(capsys, "cayley", str(first), "c2d")
    assert code == 0
    second = tmp_path / "second.json"
    second.write_text(json.dumps(json.loads(out)["realization"]))
    code, out, _ = run(capsys, "cayley", str(second), "d2c")
    assert code == 0
    back = realization_from_json(json.loads(out)["realization"])
    for name in "abcd":
        diff = np.abs(getattr(back, name) - getattr(original, name))
        assert float(diff.max()) < 1e-10


def test_stability_command(capsys):
    code, out, _ = run(capsys, "stability", "1 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schur_cohen"] is True and payload["roots"] is True

    code, out, _ = run(capsys, "stability", "-1 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schur_cohen"] is False and payload["roots"] is False

    code, out, _ = run(capsys, "stability", "-2 -1 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schur_cohen"] is False and payload["roots"] is False
    assert payload["lambda_min"] < 0

    code, _, err = run(capsys, "stability", "3")
    assert code == 2


def test_stability_disagreement_exit_code(capsys, monkeypatch):
    import whindex.cli as cli_module

    monkeypatch.setattr(cli_module, "roots_stable", lambda p: False)
    code, out, err = run(capsys, "stability", "1 1")
    assert code == 4
    assert "DISAGREEMENT" in err


def test_verify_small_run_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--seed", "42", "--cases", "3")
    assert code == 0
    assert first.count("PASS") == first.count("\n") - 1  # every family line + summary
    code, second, _ = run(capsys, "verify", "--seed", "42", "--cases", "3")
    assert code == 0 and first == second


def test_verify_catches_corrupted_pipeline(capsys, monkeypatch):
    import whindex.indices as indices_module
    from whindex.equations import solve_sylvester as real_solve

    def corrupted(a, b, c):
        # Doubles the coupling omega of continuous pairs.  A sign flip would
        # leave Q = I - omega* omega, and so every index, unchanged.
        return real_solve(a, b, 2.0 * c)

    monkeypatch.setattr(indices_module, "solve_sylvester", corrupted)
    code, out, _ = run(capsys, "verify", "--cases", "1")
    assert code == 5
    assert "FAIL  indices-scalar-q-formula" in out
    assert "first failing case for replay" in out


def test_example_command(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "dss", "--output", str(tmp_path))
    assert code == 0
    problem_path = tmp_path / "dss.problem.json"
    report_path = tmp_path / "dss.report.json"
    assert problem_path.exists() and report_path.exists()
    assert json.loads(problem_path.read_text())["powers"] == [-4, -2, 0, 3, 5]

    # The emitted expected report matches a fresh indices run bit for bit.
    code, fresh, _ = run(capsys, "indices", str(problem_path))
    assert code == 0
    assert fresh == report_path.read_text()

    code, _, err = run(capsys, "example", "nope", "--output", str(tmp_path))
    assert code == 2


def test_verify_defaults_to_the_battery_seed(capsys, monkeypatch):
    import whindex.verify as verify_module

    seeds = []
    monkeypatch.setattr(verify_module, "run_battery", lambda seed, cases: seeds.append(seed) or [])
    code, _, _ = run(capsys, "verify")
    assert code == 0 and seeds == [verify_module.DEFAULT_SEED]


def _fresh_python(script: str) -> str:
    """Standard output of ``script`` run by a new interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_indices_start_up_leaves_the_battery_and_scipy_unloaded():
    # whindex indices needs neither the verify battery (with the samplers
    # and numpy.random) nor the scipy package around the LAPACK extension.
    script = (
        "import sys, whindex.cli, whindex.equations as eq; eq._lapack(); "
        "print(sorted(m for m in ('whindex.verify', 'numpy.random', 'scipy') if m in sys.modules))"
    )
    assert _fresh_python(script) == "[]"


@pytest.mark.parametrize("module", ["whindex", "whindex.core"])
def test_import_leaves_the_lapack_extension_unloaded(module):
    # _flapack, which the solvers and every SVD call, loads on first use.
    script = (
        f"import sys, {module}, whindex.core as core; "
        "print(core._lapack.cache_info().currsize, [m for m in sys.modules if 'scipy' in m])"
    )
    assert _fresh_python(script) == "0 []"
