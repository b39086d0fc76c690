import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whindex.cli import main
from whindex.serialize import realization_to_json
from whindex import SymbolPair, zeta_power_realization


#: ``whindex example dss``'s report, exact on any BLAS: omega = 0, so the
#: residual is 0.0 and every eigenvalue of Q is 1.0.
DSS_REPORT = (
    '{"all_indices":[-4,-2,0,3,5],"diagnostics":{"cross_check_margins":'
    '{"negative":9.9999999947364415e-08,"positive":9.9999999947364415e-08},"q_eigenvalues":'
    '{"negative":[1.0,1.0,1.0,1.0,1.0,1.0],"positive":[1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0]},'
    '"residuals":{"omega":0.0}},"kernel_dims":{"negative":[6,4,2,1,0],"positive":[8,6,4,2,1,0]},'
    '"mu":[2,2,1,1],"negative_indices":[-4,-2],"nu":[2,2,2,1,1],"positive_indices":[3,5],'
    '"tolerance_used":9.9999999999999995e-08,"tool_version":"0.7.0","zeros":1}\n'
)


#: Reports of ``_nonzero_coupling_problems``, on the numpy, scipy and BLAS that CI pins.
#: Their omega is not 0, so they pin the values 1 - s^2 of ``q_eigenvalues``, their
#: padding with ones to n_w and n_v, and the margins of both sides.
NONZERO_COUPLING_REPORTS = {
    "scalar": (
        '{"all_indices":[2],'
        '"diagnostics":{"cross_check_margins":{"negative":0.98508521201527288,'
        '"positive":9.9999999947364415e-08},'
        '"q_eigenvalues":{"negative":[0.014914687984727171],"positive":[0.014914687984727171,'
        '1.0,1.0]},"residuals":{"omega":8.3266726846886741e-17}},'
        '"kernel_dims":{"negative":[0],"positive":[2,1,0]},"mu":[],"negative_indices":[],'
        '"nu":[1,1],"positive_indices":[2],"tolerance_used":9.9999999999999995e-08,'
        '"tool_version":"0.7.0","zeros":0}\n'
    ),
    "scalar-c2d": (
        '{"all_indices":[2],'
        '"diagnostics":{"cross_check_margins":{"negative":0.98508521201527288,'
        '"positive":9.9999999947364415e-08},'
        '"q_eigenvalues":{"negative":[0.014914687984727171],"positive":[0.014914687984727171,'
        '1.0,1.0]},"residuals":{"omega":2.0595777971499126e-16}},'
        '"kernel_dims":{"negative":[0],"positive":[2,1,0]},"mu":[],"negative_indices":[],'
        '"nu":[1,1],"positive_indices":[2],"tolerance_used":9.9999999999999995e-08,'
        '"tool_version":"0.7.0","zeros":0}\n'
    ),
    "twisted": (
        '{"all_indices":[-1,1],'
        '"diagnostics":{"cross_check_margins":{"negative":9.9999999947364415e-08,'
        '"positive":9.9999999947364415e-08},'
        '"q_eigenvalues":{"negative":[0.038196286472148566,0.042008196721311508,1.0],'
        '"positive":[0.038196286472148566,0.042008196721311508,1.0]},'
        '"residuals":{"omega":2.2204460492503131e-16}},"kernel_dims":{"negative":[1,0],'
        '"positive":[1,0]},"mu":[1],"negative_indices":[-1],"nu":[1],"positive_indices":[1],'
        '"tolerance_used":9.9999999999999995e-08,"tool_version":"0.7.0","zeros":0}\n'
    ),
    "twisted-c2d": (
        '{"all_indices":[-1,1],'
        '"diagnostics":{"cross_check_margins":{"negative":9.9999999947364415e-08,'
        '"positive":9.9999999947364415e-08},'
        '"q_eigenvalues":{"negative":[0.038196286472147678,0.042008196721311175,1.0],'
        '"positive":[0.038196286472147678,0.042008196721311175,1.0]},'
        '"residuals":{"omega":3.5652682413747997e-16}},"kernel_dims":{"negative":[1,0],'
        '"positive":[1,0]},"mu":[1],"negative_indices":[-1],"nu":[1],"positive_indices":[1],'
        '"tolerance_used":9.9999999999999995e-08,"tool_version":"0.7.0","zeros":0}\n'
    ),
}


def _nonzero_coupling_problems():
    """Problem payloads whose omega is not 0: a scalar Blaschke pair with the truth
    (2,), and V = R diag(phi_1, phi_2) over W = diag(m_1, m_2) for a rotation R,
    with the truth (-1, 1); each continuous and as its ``c2d`` image."""
    from whindex import BlaschkeSpec, blaschke_realization, c2d, direct_sum, unitary_twist
    from whindex.serialize import blaschke_spec_to_json

    def blaschke(rho, *poles):
        return BlaschkeSpec(rho, poles)

    phi, m = blaschke(1.0, -1 + 2j, -0.5, -2 - 1j), blaschke(-1j, -1.5 + 0.5j)
    scalar = SymbolPair(blaschke_realization(phi), blaschke_realization(m))
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    v = direct_sum(blaschke_realization(blaschke(1.0, -1 + 1j, -0.3)),
                   blaschke_realization(blaschke(1j, -2.0)))
    w = direct_sum(blaschke_realization(blaschke(1.0, -0.7 + 0.4j)),
                   blaschke_realization(blaschke(1.0, -1.2, -0.4 - 2j)))
    twisted = SymbolPair(unitary_twist(v, rotation, "left"), w)

    def pair(p):
        return {"kind": "realization_pair",
                "v": realization_to_json(p.v), "w": realization_to_json(p.w)}

    return {
        "scalar": {"kind": "scalar_blaschke_pair",
                   "phi": blaschke_spec_to_json(phi), "m": blaschke_spec_to_json(m)},
        "scalar-c2d": pair(SymbolPair(c2d(scalar.v), c2d(scalar.w))),
        "twisted": pair(twisted),
        "twisted-c2d": pair(SymbolPair(c2d(twisted.v), c2d(twisted.w))),
    }


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


def test_matrix_to_json_writes_each_entry_as_complex_to_json():
    from whindex.serialize import canonical_json, complex_to_json, matrix_to_json

    rng = np.random.default_rng(4107)
    signed_zeros = np.array([[0.0, -0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]])
    dense = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    for m in [signed_zeros, dense, dense.T, np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)),
              -2.5, [1, -0.0], np.ones((2, 2), dtype=int)]:
        plain = [[complex_to_json(z) for z in row] for row in np.atleast_2d(np.asarray(m, dtype=complex))]
        assert canonical_json(matrix_to_json(m)) == canonical_json(plain)
    assert canonical_json(matrix_to_json(signed_zeros)).count("-0.0") == 4


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


@pytest.mark.parametrize("name", sorted(NONZERO_COUPLING_REPORTS))
def test_indices_report_bytes_of_nonzero_couplings(tmp_path, capsys, name):
    path = write_problem(tmp_path, _nonzero_coupling_problems()[name])
    code, out, _ = run(capsys, "indices", path)
    assert code == 0
    assert out == NONZERO_COUPLING_REPORTS[name]


def test_indices_pretty_mode(tmp_path, capsys):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-1]})
    code, out, _ = run(capsys, "indices", path, "--pretty")
    assert code == 0
    assert "all_indices" in out and "-1" in out


def test_indices_malformed_inputs(tmp_path, capsys, monkeypatch):
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

    w = realization_to_json(zeta_power_realization(1))
    spec = {"rho": [1.0, 0.0], "poles": [[-1.0, 0.0]]}

    def pair(**v):
        return {"kind": "realization_pair", "v": {**w, **v}, "w": w}

    def blaschke(phi):
        return {"kind": "scalar_blaschke_pair", "phi": phi, "m": spec}

    table = [
        (pair(d=[[[1.0]]]), "problem.v.d[0][0]: expected a [re, im] pair, got [1.0]"),
        (pair(d=[[["1", 0.0]]]), "problem.v.d[0][0]: entries of a [re, im] pair must be numbers"),
        (pair(d="1"), "problem.v.d: expected a nested array"),
        (pair(d=[1.0]), "problem.v.d[0]: expected an array of [re, im] pairs"),
        (pair(d=[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]),
         "problem.v.d[1]: ragged row (expected width 2)"),
        ({"kind": "realization_pair", "v": [], "w": w}, "problem.v: expected an object"),
        ({"kind": "realization_pair", "v": {k: x for k, x in w.items() if k != "c"}, "w": w},
         "problem.v.c: missing field"),
        (pair(flavor="hybrid"),
         "problem.v.flavor: must be 'continuous' or 'discrete', got 'hybrid'"),
        (blaschke(3), "problem.phi: expected an object"),
        (blaschke({"poles": []}), "problem.phi.rho: missing field"),
        (blaschke({"rho": [1.0, 0.0], "poles": 5}),
         "problem.phi.poles: expected an array of [re, im] pairs"),
        ([1, 2], "problem: expected a JSON object"),
        ({"kind": "diagonal_powers", "powers": []},
         "problem.powers: expected a nonempty array of integers"),
    ]
    for payload, message in table:
        code, out, err = run(capsys, "indices", write_problem(tmp_path, payload))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # A report that cannot be serialized is refused by canonical_json.
    import whindex.cli as cli

    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [1]})
    for report, message in (
        ({"residual": float("nan")}, "cannot serialize non-finite number nan"),
        ({"residual": {1.0}}, "cannot serialize object of type set"),
    ):
        monkeypatch.setattr(cli, "build_report", lambda profile, tol: report)
        assert run(capsys, "indices", path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "case",
    ["utf8-problem", "indices-output", "example-output"],
)
def test_file_errors_exit_2_with_one_error_line(tmp_path, capsys, case):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"kind": "diagonal_powers", "powers": [1], "note": "\xe9"}')
    decode = "'utf-8' codec can't decode byte 0xe9 in position 52: invalid continuation byte"
    problem = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [1]})
    target = tmp_path / "missing" / "out.json"
    missing = f"cannot write {target}: [Errno 2] No such file or directory: '{target}'"
    taken = tmp_path / "taken"
    taken.write_text("")
    argv, message = {
        "utf8-problem": (["indices", str(not_utf8)], f"cannot read {not_utf8}: {decode}"),
        "indices-output": (["indices", problem, "--output", str(target)], missing),
        "example-output": (
            ["example", "dss", "--output", str(taken)],
            f"cannot create directory {taken}: [Errno 17] File exists: '{taken}'",
        ),
    }[case]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("tol", ["0", "-1", "1", "2", "nan", "inf"])
def test_indices_and_example_refuse_a_tol_outside_the_unit_interval(tmp_path, capsys, tol):
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [0, 0]})
    message = f"error: tolerance must be a finite number in (0, 1), got {float(tol)!r}\n"
    assert run(capsys, "indices", path, "--tol", tol) == (2, "", message)
    # The canonical example has one tolerance, so ``example`` takes no --tol at all.
    out_dir = tmp_path / "example"
    with pytest.raises(SystemExit) as info:
        main(["example", "dss", "--output", str(out_dir), "--tol", tol])
    assert info.value.code == 2
    assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_tol_help_names_the_default(capsys):
    with pytest.raises(SystemExit):
        main(["indices", "--help"])
    assert "(default 1e-07)" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit) as info:
        main(["example", "dss", "--tol", "1e-5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol 1e-5" in capsys.readouterr().err


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


def test_verify_replays_a_failing_case_with_a_non_finite_number(capsys, monkeypatch):
    import whindex.verify as verify_module
    from whindex import constant_realization

    real_d2c = verify_module.d2c

    def stateless(r):
        # The round trip then differs in shape, which the family reads as diff = inf.
        return constant_realization(real_d2c(r).d)

    monkeypatch.setattr(verify_module, "d2c", stateless)
    code, out, err = run(capsys, "verify", "--cases", "1")
    assert (code, err) == (5, "")
    assert "FAIL  cayley-round-trip" in out and "21/22 families passed" in out
    header, replay = out.splitlines()[-2:]
    assert header == "first failing case for replay:"
    assert json.loads(replay) == {
        "case": {"case": 0, "diff": float("inf"), "what": "continuous_start"},
        "family": "cayley-round-trip",
    }


def test_example_command(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "dss", "--output", str(tmp_path))
    assert code == 0
    problem_path = tmp_path / "dss.problem.json"
    report_path = tmp_path / "dss.report.json"
    assert problem_path.exists() and report_path.exists()
    assert json.loads(problem_path.read_text())["powers"] == [-4, -2, 0, 3, 5]
    assert report_path.read_text() == DSS_REPORT

    # The emitted expected report matches a fresh indices run bit for bit.
    code, fresh, _ = run(capsys, "indices", str(problem_path))
    assert code == 0
    assert fresh == report_path.read_text()

    code, _, err = run(capsys, "example", "nope", "--output", str(tmp_path))
    assert code == 2


def test_running_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import whindex.cli as cli

    message = ("Unable to allocate 149. GiB for an array with shape (100000, 100000) "
               "and data type complex128")

    def exhausted(pair, tol):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "full_profile", exhausted)
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": [-1, 1]})
    expected = f"computation failed: out of memory: {message}\n"
    assert run(capsys, "indices", path) == (3, "", expected)
    assert run(capsys, "example", "dss", "--output", str(tmp_path)) == (3, "", expected)


@pytest.mark.parametrize(
    "powers, size",
    [([-3000000000], 3000000000), ([3000000000, -5], 3000000000), ([10**30], 10**30)],
)
def test_a_problem_too_large_to_build_exits_3_with_one_line(tmp_path, capsys, powers, size):
    # numpy refuses these shapes before it allocates anything.
    path = write_problem(tmp_path, {"kind": "diagonal_powers", "powers": powers})
    code, out, err = run(capsys, "indices", path)
    assert (code, out) == (3, "")
    prefix = f"computation failed: out of memory: cannot build a {size} x {size} complex array: "
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


def test_the_commands_are_indices_verify_and_example(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "{indices,verify,example}" in capsys.readouterr().out
    # The retired polynomial stability and realization conversion commands
    # are unknown choices, exit 2.
    for retired in (["stability", "1 1"], ["cayley", "zeta.json", "c2d"]):
        with pytest.raises(SystemExit) as info:
            main(retired)
        assert info.value.code == 2
        assert f"invalid choice: '{retired[0]}'" in capsys.readouterr().err


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
