import gradedcenter.center
from gradedcenter.cli import main
from gradedcenter.gentle import OmegaParams, build_lambda, format_quiver, parse_quiver


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_lambda_file(tmp_path, capsys):
    path = tmp_path / "q.quiver"
    path.write_text(format_quiver(build_lambda(OmegaParams(2, 3, 1))))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "gentle: yes, one-cycle: yes, clock condition: not satisfied"


def test_validate_reports_violations_without_failing(tmp_path, capsys):
    path = tmp_path / "star.quiver"
    path.write_text(
        "vertices: c x y z\n"
        "arrow a: c -> x\narrow b: c -> y\narrow d: c -> z\n"
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert out.startswith("gentle: no")
    assert "axiom" in out


def test_validate_missing_file(capsys):
    code, _out, err = run(capsys, "validate", "/no/such/file.quiver")
    assert code == 1
    assert err.startswith("error:")


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.quiver"
    path.write_text("vertices: 1\nfrobnicate: 1\n")
    code, _out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error:" in err


def test_lambda_round_trips(capsys):
    code, out, err = run(capsys, "lambda", "--r", "2", "--n", "3", "--m", "1")
    assert code == 0 and err == ""
    assert parse_quiver(out) == build_lambda(OmegaParams(2, 3, 1))


def test_lambda_rejects_bad_params(capsys):
    code, _out, err = run(capsys, "lambda", "--r", "3", "--n", "2", "--m", "0")
    assert code == 1
    assert err.startswith("error:")


def test_hom_reports_both_dimensions(capsys):
    code, out, _err = run(
        capsys, "hom", "--r", "1", "--n", "2", "--m", "0",
        "--family", "X", "--i", "0", "--a", "0", "--b", "2", "--p", "0",
    )
    assert code == 0
    assert "model dim: 2" in out
    assert "closed form: 2" in out
    assert "basis[0]: id" in out


def test_hom_large_degree_finishes(capsys):
    # Sigma^p is computed in O(r) steps, so a huge degree costs no more
    # than a small one
    code, out, err = run(
        capsys, "hom", "--r", "1", "--n", "2", "--m", "0",
        "--family", "Y", "--i", "0", "--a", "0", "--b", "3", "--p", "100000000",
    )
    assert code == 0 and err == ""
    assert "model dim: 0" in out.splitlines()
    assert "closed form: 0" in out.splitlines()


def test_hom_rejects_nonexistent_vertex(capsys):
    code, _out, err = run(
        capsys, "hom", "--r", "1", "--n", "2", "--m", "0",
        "--family", "X", "--i", "0", "--a", "1", "--b", "0", "--p", "0",
    )
    assert code == 1
    assert err.startswith("error:")


def test_hom_rejects_negative_p(capsys):
    code, _out, err = run(
        capsys, "hom", "--r", "1", "--n", "2", "--m", "0",
        "--family", "X", "--i", "0", "--a", "0", "--b", "2", "--p", "-1",
    )
    assert code == 1
    assert err.startswith("error:")


def test_center_prints_component_report(capsys):
    code, out, err = run(
        capsys, "center", "--r", "1", "--n", "1", "--m", "0",
        "--p", "0", "--field", "2", "--window", "8",
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("degree 0 (graded, char 2)")
    assert "scalar: 1" in out


def test_center_window_guard(capsys):
    code, _out, err = run(
        capsys, "center", "--r", "2", "--n", "3", "--m", "1",
        "--p", "0", "--window", "9",
    )
    assert code == 1
    assert "window" in err


def test_ring_prints_presentation(capsys):
    code, out, err = run(capsys, "ring", "--r", "1", "--n", "2", "--m", "0", "--char", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "T(F, F^N + F^N[-2])",
        "reduced: F",
        "nilpotent: F^N + F^N[-2]",
    ]


def test_ring_rejects_nonprime_char(capsys):
    code, _out, err = run(capsys, "ring", "--r", "1", "--n", "2", "--m", "0", "--char", "6")
    assert code == 1
    assert err.startswith("error:")


def test_ar_emits_dot(capsys):
    code, out, err = run(capsys, "ar", "--r", "1", "--n", "2", "--m", "0", "--window", "1")
    assert code == 0 and err == ""
    assert out.startswith("digraph")


def test_ar_window_guard(capsys):
    code, _out, err = run(capsys, "ar", "--r", "1", "--n", "2", "--m", "0", "--window", "9")
    assert code == 1
    assert "window" in err


def test_check_single_criterion(capsys):
    code, out, err = run(capsys, "check", "--criterion", "1")
    assert code == 0 and err == ""
    assert out.startswith("criterion 1 (gentle grid): PASS")


def test_internal_inconsistency_exits_2(capsys, monkeypatch):
    # with every arrow lookup failing, criterion 4's first generator
    # misses its e'' arrow and make_generator reports an inconsistency
    monkeypatch.setattr(gradedcenter.center, "arrow_kind", lambda *args: None)
    code, _out, err = run(capsys, "check", "--criterion", "4")
    assert code == 2
    assert err.startswith("error: internal inconsistency: missing e'' under")


def test_check_criterion_out_of_range(capsys):
    code, _out, err = run(capsys, "check", "--criterion", "0")
    assert code == 1
    assert "criterion" in err


def test_no_subcommand_prints_usage(capsys):
    code, _out, err = run(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_flag_is_input_error(capsys):
    code, _out, err = run(capsys, "lambda", "--r", "1", "--n", "1", "--m", "0", "--frobnicate")
    assert code == 1
    assert err.startswith("error:")


def test_outputs_are_deterministic(capsys):
    args = ("center", "--r", "1", "--n", "2", "--m", "0", "--p", "2", "--window", "8")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
