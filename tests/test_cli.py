import re
import shlex
from pathlib import Path

import pytest

import gradedcenter.center as center_module
import gradedcenter.cli
import gradedcenter.gentle
import gradedcenter.hom
from gradedcenter.center import InconsistencyError, _build_system, solve_component
from gradedcenter.cli import main
from gradedcenter.gentle import OmegaParams, build_lambda, format_quiver, is_gentle, parse_quiver
from gradedcenter.hom import frame
from gradedcenter.model import ModelParams

import pin_cli


@pytest.fixture
def fresh_frames():
    """hom.frame caches what hom.hom_gaps gave: clear it before a test
    that patches hom_gaps, so the patch is read, and after it, so no
    later test reads a frame built from the patch."""
    frame.cache_clear()
    yield
    frame.cache_clear()


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


def test_validate_empty_file_has_no_cycle(tmp_path, capsys):
    path = tmp_path / "empty.quiver"
    path.write_text("")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert out == "gentle: yes, one-cycle: no, clock condition: n/a\n"


@pytest.mark.parametrize("text, first, checks", [
    (format_quiver(build_lambda(OmegaParams(1, 2, 0))),
     "gentle: yes, one-cycle: yes, clock condition: not satisfied", 3),
    ("vertices: x y\narrow a: x -> y\n", "gentle: yes, one-cycle: no, clock condition: n/a", 2),
    ("vertices: c x y z\narrow a: c -> x\narrow b: c -> y\narrow d: c -> z\n",
     "gentle: no, one-cycle: n/a, clock condition: n/a", 1),
], ids=["one-cycle", "tree", "not-gentle"])
def test_validate_checks_gentleness_for_each_verdict(text, first, checks, tmp_path, capsys, monkeypatch):
    # each verdict that validate prints reads is_gentle: the gentle
    # verdict, is_one_cycle where the quiver is gentle and clock_condition
    # where it is one-cycle
    calls = []

    def counting(q):
        calls.append(q)
        return is_gentle(q)

    # wherever the command reads the check from
    monkeypatch.setattr(gradedcenter.gentle, "is_gentle", counting)
    monkeypatch.setattr(gradedcenter.cli, "is_gentle", counting, raising=False)
    path = tmp_path / "q.quiver"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first
    assert len(calls) == checks


def test_validate_reads_a_tab_as_a_space(tmp_path, capsys):
    # a tab after a directive's keyword, or anywhere a space may stand,
    # gives the verdict of the space-separated file
    text = format_quiver(build_lambda(OmegaParams(2, 3, 1)))
    spaced, tabbed = tmp_path / "spaced.quiver", tmp_path / "tabbed.quiver"
    spaced.write_text(text)
    tabbed.write_text(text.replace(" ", "\t"))
    got = run(capsys, "validate", str(tabbed))
    assert got == run(capsys, "validate", str(spaced))
    assert got == (0, "gentle: yes, one-cycle: yes, clock condition: not satisfied\n", "")


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


def test_hom_takes_no_window(capsys):
    # Hom(v, Sigma^p v) does not depend on the box, so hom has no window
    code, out, err = run(
        capsys, "hom", "--r", "1", "--n", "2", "--m", "0",
        "--family", "Y", "--i", "0", "--a", "0", "--b", "2", "--p", "1", "--window", "8",
    )
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --window 8\n"


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


def test_center_output_at_a_large_window(capsys):
    # the full report on a window of 38,485 unknowns, byte for byte
    args = ("--r", "3", "--n", "4", "--m", "2", "--p", "4",
            "--variant", "graded", "--field", "3", "--window", "80")
    code, out, err = run(capsys, "center", *args)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "center_r3n4m2_p4_w80.txt").read_text()
    params = ModelParams(OmegaParams(3, 4, 2), 80)
    assert solve_component(params, 4, "graded", 3, 80, 68).unknowns == 38485


def test_center_stats_prints_the_work_counts(capsys):
    # after the usual lines, one count per line, the same bytes on a
    # rebuild; on (1, 1, 0) at p = 1 the graded sign law kills a component
    args = ("center", "--r", "1", "--n", "1", "--m", "0", "--p", "1", "--window", "6")
    code, plain, err = run(capsys, *args)
    assert (code, err) == (0, "")
    runs = []
    for _ in range(2):
        _build_system.cache_clear()
        runs.append(run(capsys, *args, "--stats"))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (0, "") and out.startswith(plain)
    rep = solve_component(ModelParams(OmegaParams(1, 1, 0), 6), 1, "graded", 3, 6, 2)
    assert rep.killed_parity == 1
    names = ("unknowns", "vertices", "naturality_rows", "sign_rows", "merges",
             "killed_zero", "killed_parity")
    assert out[len(plain):].splitlines() == [f"{name}: {getattr(rep, name)}" for name in names]


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


def test_ring_checks_a_large_prime_char(capsys):
    # 2^61 - 1 is prime, and deciding so takes no time that grows with it
    code, out, err = run(capsys, "ring", "--r", "1", "--n", "1", "--m", "0", "--char", str(2 ** 61 - 1))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["reduced: F[X^2]", "nilpotent: F^N"]


def test_ring_refuses_a_char_too_large_to_test(capsys):
    code, out, err = run(capsys, "ring", "--r", "1", "--n", "1", "--m", "0",
                         "--char", "3317044064679887385961981")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "too large" in err


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


def test_internal_inconsistency_exits_2(capsys, monkeypatch, fresh_frames):
    # with every hom space empty, criterion 4's first generator misses
    # its e'' arrow and make_generator reports an inconsistency
    monkeypatch.setattr(gradedcenter.hom, "hom_gaps", lambda *args: None)
    code, _out, err = run(capsys, "check", "--criterion", "4")
    assert code == 2
    assert err.startswith("error: internal inconsistency: missing e'' under")


@pytest.fixture
def fresh_systems():
    """center._build_system caches each system it built: clear it before
    a test that patches what a build reads, and after it, so no later
    test is served a system built from the patch."""
    _build_system.cache_clear()
    yield
    _build_system.cache_clear()


def test_hom_disagreement_exits_2(capsys, monkeypatch):
    # a closed form one more than the model's dimension: both are
    # printed, and the disagreement is an internal inconsistency
    closed_form = gradedcenter.cli.hom_dim_closed_form
    monkeypatch.setattr(gradedcenter.cli, "hom_dim_closed_form", lambda *args: closed_form(*args) + 1)
    code, out, err = run(
        capsys, "hom", "--r", "1", "--n", "2", "--m", "0",
        "--family", "X", "--i", "0", "--a", "0", "--b", "2", "--p", "0",
    )
    assert code == 2
    assert "model dim: 2\nclosed form: 3\n" in out
    assert err == "error: model dimension 2 disagrees with closed form 3\n"


def test_center_residual_components_exit_2(capsys, monkeypatch, fresh_systems):
    # with every e' unknown tagged as no class, the five socle classes of
    # (1, 2, 0) in degree 0 are residual: the report counts them and the
    # command fails as an internal inconsistency
    class_tag = center_module._class_tag

    def untagged(params, p, i, gap, kind):
        return ("other", kind) if kind == "e'" else class_tag(params, p, i, gap, kind)

    monkeypatch.setattr(center_module, "_class_tag", untagged)
    code, out, err = run(capsys, "center", "--r", "1", "--n", "2", "--m", "0", "--p", "0", "--window", "8")
    assert code == 2
    assert out.splitlines()[-2:] == ["residual components: 5", "total (inner window): 6"]
    assert err == "error: residual (mixed-class) components in solver output\n"


@pytest.mark.parametrize("text, message", [
    ("vertices: a a\n", "duplicate vertex a"),
    ("vertices: a b\narrow x: a -> b\narrow x: b -> a\n", "duplicate arrow x"),
    ("vertices: a b c\narrow x: a -> b\narrow y: b -> c\nrelation: y x\nrelation: y x\n",
     "duplicate relation (y, x)"),
    ("vertices: a b\narrow x a -> b\n", "line 2: arrow directive needs 'NAME: SRC -> TGT'"),
    ("vertices: a b c\narrow x: a b -> c\n", "line 2: arrow directive needs 'NAME: SRC -> TGT'"),
    ("vertices: a b\narrow : a -> b\n", "line 2: arrow directive needs 'NAME: SRC -> TGT'"),
    ("vertices: a b\narrow x: a -> b\nrelation: x\n", "line 3: relation directive needs two arrow names"),
], ids=["vertex", "arrow", "relation", "arrow-colon", "arrow-two-sources", "arrow-no-name", "relation-one-name"])
def test_validate_rejects_a_malformed_quiver(text, message, tmp_path, capsys):
    # each error GentleQuiver or parse_quiver raises exits 1 with its
    # message
    path = tmp_path / "bad.quiver"
    path.write_text(text)
    assert run(capsys, "validate", str(path)) == (1, "", f"error: {message}\n")


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


def test_sign_law_inconsistency_exits_2(capsys, monkeypatch, fresh_frames):
    # with the degree-0 slot of X(1) dropped, the sign law at p = 2 carries
    # each unknown of that slot on X(0) to an unknown that is not there
    hom_gaps = gradedcenter.hom.hom_gaps

    def dropped(params, family, i, degree, shift):
        if (family, i, degree) == ("X", 1, 0):
            return None
        return hom_gaps(params, family, i, degree, shift)

    monkeypatch.setattr(gradedcenter.hom, "hom_gaps", dropped)
    message = "suspension of unknown left the system at X(0)[-7,-5]"
    _build_system.cache_clear()
    params = ModelParams(OmegaParams(2, 2, 0), 7)
    with pytest.raises(InconsistencyError, match=re.escape(message)):
        solve_component(params, 2, "graded", 3, 7, 1)
    code, out, err = run(
        capsys, "center", "--r", "2", "--n", "2", "--m", "0",
        "--p", "2", "--field", "3", "--window", "7",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: internal inconsistency: {message}")


def test_cli_outputs_match_the_pinned_corpus():
    # tests/pinned/cli.txt, which tests/pin_cli.py writes: each command's
    # exit code and the sha256 of its stdout and stderr, in order
    pinned = pin_cli.PINNED.read_text().splitlines()
    assert [shlex.split(line.split(" ", 3)[3]) for line in pinned] == pin_cli.commands()
    for got, want in zip(pin_cli.run(), pinned):
        assert got == want, f"first command that differs: gradedcenter {want.split(' ', 3)[3]}"
