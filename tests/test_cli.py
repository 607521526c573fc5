"""Command-line surface: subcommands, exit codes, formats, determinism."""

import hashlib
import subprocess
import sys

import pytest

from twograph import cli, endo, modular, semigroup
from twograph.algebra import Element, permutation_unitary
from twograph.cli import main, parse_pair_spec
from twograph.endo import canonical_pair, gallery, twisted_check
from twograph.semigroup import theta_text


def run_cli(*argv):
    return main(list(argv))


def capture(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestComputeCommands:
    def test_nf(self, capsys):
        code, out = capture(capsys, "nf", "f1.e2", "--theta", "flip", "--m", "2", "--n", "2")
        assert code == 0 and "e1.f2" in out

    def test_mul(self, capsys):
        code, out = capture(capsys, "mul", "S[id;f1]", "S[e1;id]",
                            "--theta", "flip", "--m", "2", "--n", "2")
        assert code == 0
        assert "S[e1;f1] + S[e2;f2]" in out

    def test_mul_of_far_apart_degrees(self, capsys):
        # s_v* s_u for v = e1^20 and u = f1^20: one common extension among
        # the 2^20 candidate words at the join
        e20, f20 = ".".join(["e1"] * 20), ".".join(["f1"] * 20)
        code, out = capture(capsys, "mul", f"S[id;{e20}]", f"S[{f20};id]", "--m", "2", "--n", "2")
        assert (code, out) == (0, f"result: S[{f20};{e20}]\n")

    def test_omega(self, capsys):
        code, out = capture(capsys, "omega", "S[e1.f1;e1.f1]", "--m", "2", "--n", "3")
        assert code == 0 and "1/6" in out

    def test_inner(self, capsys):
        code, out = capture(capsys, "inner", "S[e1;id]", "S[e1;id]", "--m", "2", "--n", "3")
        assert code == 0 and out.strip().endswith("1")

    def test_spectrum(self, capsys):
        code, out = capture(capsys, "spectrum", "1", "--m", "2", "--n", "3")
        assert code == 0
        assert out.count("value") == 9

    def test_gram(self, capsys):
        code, out = capture(capsys, "gram", "1", "--m", "2", "--n", "2")
        assert code == 0
        assert "size: 16" in out

    def test_gram_refuses_a_basis_over_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRAM_BASIS", 15)
        code = run_cli("gram", "1", "--m", "2", "--n", "2")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gram 1 on 2x2 needs a basis of 16 elements, capped at 15 for cost control\n"
        )

    def test_gram_refuses_a_level_over_the_cap(self, capsys):
        # on 1x1 the basis has one element, but its words have 2k letters
        code = run_cli("gram", "1000000000", "--m", "1", "--n", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: gram level capped at 3 for cost control\n"

    def test_spectrum_refuses_a_window_over_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SPECTRUM_POINTS", 8)
        code = run_cli("spectrum", "1", "--m", "2", "--n", "3")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: spectrum 1 computes 9 points, capped at 8 for cost control\n"
        )

    def test_spectrum_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SPECTRUM_POINTS", 9)
        code, out = capture(capsys, "spectrum", "1", "--m", "2", "--n", "3")
        assert code == 0 and out.count("value") == 9

    def test_canonical_refuses_words_over_the_cap(self, capsys, monkeypatch):
        # canonical(1,1) on 2x3 writes 6 words of 2 letters
        monkeypatch.setattr(cli, "MAX_CANONICAL_LETTERS", 11)
        code = run_cli("endo", "apply", "canonical(1,1)", "S[e1;f1]", "--m", "2", "--n", "3")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: canonical(1,1) on 2x3 writes 2^1*3^1 words of 2 letters, "
            "capped at 11 letters for cost control\n"
        )
        monkeypatch.setattr(cli, "MAX_CANONICAL_LETTERS", 12)
        assert run_cli("endo", "apply", "canonical(1,1)", "S[e1;f1]", "--m", "2", "--n", "3") == 0

    @pytest.mark.parametrize("size", ["1", "2"])
    def test_canonical_refuses_huge_degrees_without_building_the_power(self, capsys, size):
        # on 1x1 one word of 2 * 10^9 letters; on 2x2 2^(2 * 10^9) words
        code = run_cli("endo", "apply", "canonical(1000000000,1000000000)", "I",
                       "--m", size, "--n", size)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: canonical(1000000000,1000000000) on {size}x{size} writes ")
        assert err.count("\n") == 1


class TestBooleanCommands:
    def test_twisted_pass(self, capsys):
        code, out = capture(capsys, "twisted", "I", "I", "--m", "2", "--n", "3")
        assert code == 0 and "true" in out

    def test_twisted_fail_prints_residual(self, capsys):
        code, out = capture(
            capsys, "twisted", "S[e1;e2]+S[e2;e1]", "I",
            "--theta", "flip", "--m", "2", "--n", "2",
        )
        assert code == 1 and "residual" in out

    def test_kms(self, capsys):
        code, out = capture(capsys, "kms", "S[e1;id]", "S[id;e1]", "--m", "2", "--n", "2")
        assert code == 0 and "equal: true" in out

    def test_oracle(self, capsys):
        code, out = capture(capsys, "oracle", "S[e1;e1]+S[e2;e2]", "I",
                            "--m", "2", "--n", "2")
        assert code == 0 and "true" in out

    def test_oracle_unequal(self, capsys):
        code, out = capture(capsys, "oracle", "S[e1;id]", "S[e2;id]",
                            "--m", "2", "--n", "2")
        assert code == 1

    def test_oracle_follows_its_operands_past_the_evaluation_stratum(self, capsys):
        # evaluated on the stratum (1, 1), S[e1^7;id] sends each word to the
        # image stratum (8, 1), of 512 words, far above the stratum itself
        seven = "S[" + ".".join(["e1"] * 7) + ";id]"
        code, out = capture(capsys, "oracle", seven, seven)
        assert code == 0 and out == "equal: true\n"

    def test_oracle_walks_only_the_rows_its_operands_reach(self, capsys):
        # S[id;v] acts only on the words v.z', so on 40x40 the 40^6 words of
        # the evaluation stratum (3, 3) are never built, only the 40^2 tails z'
        op = "S[id;e1.e1.f1.f1]"
        code, out = capture(capsys, "oracle", op, op, "--m", "40", "--n", "40")
        assert code == 0 and out == "equal: true\n"


class TestEndoCommand:
    def test_apply_to_a_word_longer_than_the_recursion_limit(self, capsys):
        letters = ".".join(["e1"] * (sys.getrecursionlimit() + 200))
        code, out = capture(capsys, "endo", "apply", "canonical(1,0)", f"S[{letters};id]")
        assert code == 0 and out.startswith("result: ")

    def test_a_word_over_the_length_cap_is_refused(self, capsys):
        # every word of every term counts, the adjoint side too
        letters = ".".join(["e1"] * (cli.MAX_ENDO_LETTERS + 1))
        assert run_cli("endo", "apply", "canonical(1,0)", f"S[e1;id]+S[id;{letters}]") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: expression has a word of 2001 letters, capped at 2000 letters a word "
            "for cost control\n")

    def test_gallery_apply(self, capsys):
        code, out = capture(capsys, "endo", "apply", "ex312", "S[e1;id]",
                            "--theta", "flip", "--m", "2", "--n", "2")
        assert code == 0 and "S[f1;id]" in out

    def test_gallery_apply_with_a_supplied_unitary(self, capsys):
        # ex39 takes (U, U) for the unitary it is given: U swaps e1 and e2
        code, out = capture(capsys, "endo", "apply", "ex39(S[e1;e2]+S[e2;e1])", "S[e1;id]",
                            "--theta", "flip")
        assert (code, out) == (0, "result: S[e2;id]\n")

    def test_canonical_apply(self, capsys):
        code, out = capture(capsys, "endo", "apply", "canonical(0,0)", "S[e1;f1]",
                            "--m", "2", "--n", "3")
        assert code == 0 and "S[e1;f1]" in out

    def test_inner_apply(self, capsys):
        code, out = capture(capsys, "endo", "apply", "inner(S[e1;e2]+S[e2;e1])",
                            "S[e1;id]", "--m", "2", "--n", "2")
        assert code == 0 and "S[e2" in out

    def test_apply_text_is_pinned(self, capsys):
        """Term order and the raised level of a multi-term image."""
        code, out = capture(capsys, "endo", "apply", "inner(S[e1;e2]+S[e2;e1])",
                            "S[e1.f1;e2]+2*S[e2;e1.f2]-S[id;f1]", "--m", "2", "--n", "2")
        assert code == 0
        assert out == (
            "result: (-1)*S[e1.e1;e1.e1.f1] + (-1)*S[e1.e2;e1.e2.f1] + (-1)*S[e2.e1;e2.e1.f1]"
            " + (2)*S[e1.e1;e2.e1.f2] + (-1)*S[e2.e2;e2.e2.f1] + (2)*S[e1.e2;e2.e2.f2]"
            " + S[e2.e1.f1;e1.e1] + S[e2.e2.f1;e1.e2]\n"
        )

    def test_pair_spec_parsing(self, flip22):
        assert parse_pair_spec("ex312", flip22).equals(gallery(flip22, "ex312"))
        assert parse_pair_spec("canonical(1,1)", flip22).equals(canonical_pair(flip22, 1, 1))
        pair = parse_pair_spec("pair(I,I)", flip22)
        assert pair.U == pair.V


class TestCheckCommand:
    def test_kms_suite_passes(self, capsys):
        code, out = capture(capsys, "check", "kms", "--m", "2", "--n", "3",
                            "--theta", "identity", "--seed", "7",
                            "--samples", "5", "--level", "1,1")
        assert code == 0
        assert "result: PASS" in out

    def test_records_format_is_tabbed(self, capsys):
        code, out = capture(capsys, "check", "kms", "--m", "2", "--n", "2",
                            "--seed", "3", "--samples", "3", "--level", "1,1",
                            "--format", "records")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert all("\t" in ln for ln in lines)
        assert lines[-1] == "result\tPASS"

    def test_determinism(self, capsys):
        args = ("check", "semigroup", "--m", "2", "--n", "3", "--seed", "11",
                "--samples", "4", "--level", "1,1", "--format", "records")
        _, out1 = capture(capsys, *args)
        _, out2 = capture(capsys, *args)
        assert out1 == out2

    def test_each_invocation_starts_with_a_cold_prefix_memo(self, capsys, monkeypatch):
        # the prefix and strata memos live on the table, so a second invocation
        # in one process builds a new table with empty memos and prints the
        # same bytes
        built = []

        def recording_make_theta(*args):
            theta = semigroup.make_theta(*args)
            built.append((theta, len(theta._prefixes)))
            assert not theta._strata and theta._strata_words == 0
            return theta

        monkeypatch.setattr(cli, "make_theta", recording_make_theta)
        args = ("check", "all", "--m", "2", "--n", "2", "--theta", "flip",
                "--samples", "4", "--level", "1,1", "--format", "records")
        _, out1 = capture(capsys, *args)
        _, out2 = capture(capsys, *args)
        assert out1 == out2 and out1.endswith("result\tPASS\n")
        (first, size1), (second, size2) = built
        assert second is not first and second == first
        assert size1 == size2 == 0 and first._prefixes and second._prefixes
        assert first._strata and second._strata == first._strata

    def test_a_gram_matrix_that_is_not_positive_definite_fails_its_case(
            self, monkeypatch, capsys):
        monkeypatch.setattr(modular, "gram_is_positive_definite", lambda gram: False)
        code, out = capture(capsys, "check", "modular", "--m", "2", "--n", "2",
                            "--samples", "4", "--level", "1,1")
        assert code == 1
        lines = [ln for ln in out.splitlines() if ln.startswith("case.")]
        for ln in lines:
            if ln.startswith("case.modular.gram-positivity: "):
                assert ln.startswith("case.modular.gram-positivity: FAIL 0/1 exact; "
                                     "first witness: Gram matrix not positive definite")
            else:
                assert ": PASS " in ln
        assert len(lines) == 8 and out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("case, target", [
        ("canonical-pairs-twisted", "canonical_pair"),
        ("gallery-ex313", "ex313"),
        ("gallery-ex311", "ex311"),
        ("gallery-ex310-central-scalars", "ex310"),
        ("gallery-ex312", "ex312"),
    ])
    def test_a_pair_that_is_not_twisted_fails_its_case(self, case, target, monkeypatch, capsys):
        # (F, 1) with F the flip-flop of f1 and f2 is not twisted on the
        # identity table nor on the flip table (where ex312 runs); the case
        # that builds it must fail with its residual and exit 1, and every
        # other case must still run
        table = "flip" if target == "ex312" else "identity"
        def untwisted(theta):
            return permutation_unitary(theta, (0, 1), [1, 0]), Element.unit(theta)

        def broken_canonical(theta, p, q):
            if (p, q) == (2, 1):
                return endo.UnitaryPair(*untwisted(theta))
            return canonical_pair(theta, p, q)

        def broken_gallery(theta, name, **kwargs):
            if name == target:
                return endo.UnitaryPair(*untwisted(theta))
            return gallery(theta, name, **kwargs)

        args = ("check", "endo", "--m", "2", "--n", "2", "--theta", table,
                "--samples", "4", "--level", "1,1")
        code, out = capture(capsys, *args)
        assert code == 0
        expected_ids = [ln.split(": ")[0] for ln in out.splitlines() if ln.startswith("case.")]
        if target == "canonical_pair":
            monkeypatch.setattr(endo, "canonical_pair", broken_canonical)
        else:
            monkeypatch.setattr(endo, "gallery", broken_gallery)
        code, out = capture(capsys, *args)
        assert code == 1
        lines = [ln for ln in out.splitlines() if ln.startswith("case.")]
        assert [ln.split(": ")[0] for ln in lines] == expected_ids
        ok, residual = twisted_check(*untwisted(semigroup.make_theta(2, 2, table)))
        assert not ok and not residual.is_empty
        for ln in lines:
            if ln.startswith(f"case.endo.{case}: "):
                assert ln.startswith(f"case.endo.{case}: FAIL ")
                assert ln.endswith(f"pair is not twisted; residual {residual}")
            else:
                assert ": PASS " in ln
        assert out.endswith("result: FAIL\n")


class TestConfigErrors:
    def test_level_cap(self, capsys):
        code = run_cli("check", "kms", "--level", "4,4")
        assert code == 2

    def test_bad_samples(self, capsys):
        code = run_cli("check", "kms", "--samples", "0")
        assert code == 2

    def test_samples_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 3)
        assert run_cli("check", "kms", "--samples", "3") == 0
        capsys.readouterr()
        assert run_cli("check", "kms", "--samples", "4") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples capped at 3 for cost control\n"

    def test_table_size_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(semigroup, "MAX_TABLE_PAIRS", 5)
        assert run_cli("nf", "e1", "--m", "1", "--n", "5") == 0
        capsys.readouterr()
        assert run_cli("nf", "e1", "--m", "2", "--n", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: table 2x3 has 6 index pairs, capped at 5 for cost control\n"
        )

    def test_table_size_cap_covers_a_builtin_table_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(semigroup, "MAX_TABLE_PAIRS", 3)
        path = tmp_path / "flip22.txt"
        path.write_text("m 2\nn 2\nbuiltin flip\n")
        assert run_cli("nf", "e1", "--theta", str(path)) == 2
        assert capsys.readouterr().err == (
            "error: table 2x2 has 4 index pairs, capped at 3 for cost control\n"
        )

    def test_syntax_error_exit(self, capsys):
        code = run_cli("omega", "S[e1;]", "--m", "2", "--n", "2")
        assert code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run_cli("check", "everything")
        assert info.value.code == 2

    def test_missing_theta_file(self):
        code = run_cli("nf", "e1", "--theta", "/nonexistent/path.theta")
        assert code == 2


class TestThetaFile:
    def test_theta_from_file(self, tmp_path, capsys, flip22):
        path = tmp_path / "flip.theta"
        path.write_text(theta_text(flip22))
        code, out = capture(capsys, "nf", "f1.e2", "--theta", str(path))
        assert code == 0 and "e1.f2" in out

    def test_builtin_line_format(self, tmp_path, capsys):
        path = tmp_path / "t.theta"
        path.write_text("m 2\nn 3\nbuiltin identity\n")
        code, out = capture(capsys, "nf", "f2.e1", "--theta", str(path))
        assert code == 0 and "e1.f2" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twograph.cli", "nf", "e1.f1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "result: e1.f1\n"


def test_closed_stdout_exits_2_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "twograph.cli", "gram", "2", "--m", "2", "--n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "size: 256\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestUsageErrors:
    """Malformed arguments exit 2 with a one-line message, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("nf", "x1"),
        ("endo", "apply", "canonical(a,1)", "I"),
        ("endo", "apply", "pair(I)", "I"),
        ("spectrum", "-1"),
        ("omega", "1/0"),
        ("omega", "2^(1/0)"),
        ("omega", "2^(20000)"),
        ("omega", "2^(10000000000)"),
        ("nf", "e" + "1" * 5000, "--m", "2", "--n", "2"),
        ("omega", "S[e" + "1" * 5000 + ";id]"),
        ("omega", "100000000000000000039^(1/2)"),
        ("omega", "(" * 300 + "I" + ")" * 300),
    ], ids=["bad-letter", "non-integer-degree", "missing-pair-argument", "negative-window",
            "zero-denominator", "zero-exponent-denominator", "oversized-radical",
            "huge-radical-exponent", "huge-word-index", "huge-expression-index",
            "unfactorable-radical-base", "deep-nesting"])
    def test_exit_code(self, capsys, argv):
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("argv, message", [
        (("check", "all", "--level=-1,0"), "level components must be nonnegative"),
        (("endo", "apply", "foo", "S[e1;id]"), "unknown pair spec 'foo'"),
        (("nf", "e1", "--m", "0"), "need m, n >= 1, got m=0, n=2"),
    ], ids=["negative-level", "unknown-pair-spec", "zero-generators"])
    def test_refused_flag_names_the_fault(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("m 2\nn 2\n", "table file needs at least 3 lines"),
        ("m x\nn 2\n1 1 -> 1 1\n", "first two lines must be `m <int>` and `n <int>`"),
        ("m 1\nn 1\nbuiltin identity\n1 1 -> 1 1\n", "builtin line must be the last line"),
        ("m 1\nn 2\n1 1 -> 1 3\n1 2 -> 1 1\n", "image pair (1,3) out of range"),
        ("m 1\nn 2\n1 1 -> 1 1\n1 1 -> 1 2\n", "duplicate source pair (1,1)"),
    ], ids=["too-short", "bad-header", "builtin-not-last", "image-out-of-range",
            "repeated-source-pair"])
    def test_refused_table_file_names_the_fault(self, capsys, tmp_path, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text)
        assert run_cli("nf", "e1", "--theta", str(path)) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("check", "everything"),
        ("check", "kms", "--float-tol", "1e-9"),
        ("check", "kms", "--level", "x"),
        (),
        ("backend",),
        ("nf", "e1", "--seed", "3"),
        ("oracle", "S[e1;e1]+S[e2;e2]", "I", "--level", "2,2"),
    ], ids=["unknown-suite", "removed-float-tol", "malformed-level", "missing-command",
            "removed-backend-command", "flag-the-command-does-not-read", "removed-oracle-level"])
    def test_argparse_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("check", "all", "--m", "256", "--n", "256", "--samples", "1"),
        ("oracle", "I", "S[id;e1.e1.f1.f1]", "--m", "40", "--n", "40"),
    ], ids=["check-all-256x256", "oracle-40x40"])
    def test_oversized_enumeration_is_refused_up_front(self, capsys, argv):
        # each would build more than MAX_WORDS words of one degree; `I` acts
        # on every word of the oracle's evaluation stratum (3, 3)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: degree (") and captured.err.count("\n") == 1
        assert captured.err.endswith(f"capped at {semigroup.MAX_WORDS} for cost control\n")

    def test_each_command_takes_only_the_flags_it_reads(self):
        sampling = ("--seed", "--samples")
        for name, command in cli.COMMANDS.items():
            flags = command.flags.split()
            assert ("--level" in flags) == (name == "check")
            assert all((flag in flags) == (name == "check") for flag in sampling)


# sha256 of the stdout of `check all --samples 4 --level 1,1 --seed 0
# --format records`: a refactor must leave every decision and every record
# byte unchanged
CHECK_ALL_DIGESTS = {
    "flip22": "8bb3422ae59b16efe30b30b20a7c733740b2812d3ff6ebc6edd4d6d040e2fa8e",
    "id23": "3a9c080e91b2ec99e30327ee54a93b25121e2d98915167dc15325b724a2ba647",
    "mixed23": "2ecc9059d566f08f80a93d6f14ae5ad55ec24db0370aa0f71c53b7a4c84f7489",
    "flip33": "b4f3c1111c9317eb4545fad3e2c976f6de741c1e6fbe8c5b1f300a2797d50448",
    "mixed33": "140cc42aeb9f26b661f9efc0782fd9270d2a55973c11ef901fc9d6ce6ed240a9",
}
CHECK_ALL_TABLES = {
    "flip22": ["--theta", "flip", "--m", "2", "--n", "2"],
    "id23": ["--theta", "identity", "--m", "2", "--n", "3"],
    "mixed23": ["--theta", "mixed23.txt"],
    "flip33": ["--theta", "flip", "--m", "3", "--n", "3"],
    "mixed33": ["--theta", "mixed33.txt"],
}


@pytest.mark.parametrize("table", sorted(CHECK_ALL_DIGESTS))
def test_check_all_records_are_pinned(table, mixed23, mixed33, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the table file's path is part of the output
    (tmp_path / "mixed23.txt").write_text(theta_text(mixed23))
    (tmp_path / "mixed33.txt").write_text(theta_text(mixed33))
    code = run_cli("check", "all", *CHECK_ALL_TABLES[table], "--samples", "4",
                   "--level", "1,1", "--seed", "0", "--format", "records")
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("result\tPASS\n")
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_DIGESTS[table]


# sha256 of the stdout of `check algebra --theta mixed33.txt --level 3,3
# --samples 5 --seed 0 --format records`: its product-vs-oracle draws reach
# the deepest strata that `check` allows on a 3x3 table
DEEP_ORACLE_DIGEST = "d41eefed194298beaa24e2c5fbf834badbacbea144c80b9b52556c751a0ad025"


def test_deep_oracle_records_are_pinned(mixed33, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the table file's path is part of the output
    (tmp_path / "mixed33.txt").write_text(theta_text(mixed33))
    code = run_cli("check", "algebra", "--theta", "mixed33.txt", "--level", "3,3",
                   "--samples", "5", "--seed", "0", "--format", "records")
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("result\tPASS\n")
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_ORACLE_DIGEST


# sha256 of the stdout in `--format text` and in `--format records`, and the
# exit code, of every command but `check`: the README examples, the pinned
# multi-term `endo apply`, an `endo apply` on a 200-letter mixed word, a
# holding and a failing `twisted`, and an equal and an unequal `oracle`. A
# refactor of the command line or of the word layer must leave them unchanged.
COMMAND_DIGESTS = {
    "nf": (["nf", "f1.e2", "--theta", "flip", "--m", "2", "--n", "2"], 0,
           "06a0dae4edeb526bd70a1f21cd4697fae2ca11aa856f1842c315a00a7582600e",
           "4c4ecb4f11b5fdd88cb4048771f83834727eea489865c519806b112ab004f74a"),
    "mul": (["mul", "S[id;f1]", "S[e1;id]", "--theta", "flip"], 0,
            "77d98bbda2db7f5e05de50137c8b3c522f2ceab018988e1cb8c0956a12978b9c",
            "45dcfa7f36c752af2dce046e088d98c0fc33b989fb5ab0d8f8f7fa2201a87563"),
    "omega": (["omega", "S[e1.f1;e1.f1]", "--m", "2", "--n", "3"], 0,
              "3671c5ff972e1f761e19f136cf7d30727ed047dc3b99758427c0d14d1037d0b6",
              "3b011024d2dfb6b3fb7dc762afaa5e0db5fed1df16465513b9014ed28baca422"),
    "inner": (["inner", "S[e1;id]", "S[e1;id]"], 0,
              "6af67a583fba9831a7e007827bed3b1ff437630cc44f4d80ce4a66db4335f507",
              "52051abae9467f605f21b82c9bff8533223ef02be3fdc9a1ebfda43e1b099128"),
    "twisted-fails": (["twisted", "S[e1;e2]+S[e2;e1]", "I", "--theta", "flip"], 1,
                      "8017e74e016698f2aab67c3f23df7f41fd16777c335844e2c9dca96fd44e9733",
                      "15e07b8c6d7a8f259addaee58406efddb91ba2086a687940ad17825e6f7420b1"),
    "twisted-holds": (["twisted", "I", "I", "--m", "2", "--n", "3"], 0,
                      "e458addb6e5fbc11ff0af64a70a16a3c61d68250a5df853c3453420f5240f31a",
                      "d4f465866baa7ec6079e069f38adfc3ee5473a25972385bddb196bfca6ebd9a3"),
    "endo-ex312": (["endo", "apply", "ex312", "S[e1;id]", "--theta", "flip"], 0,
                   "3e098ec8c250d4a620068496df3d54844ad2bbeab376101b6b2af180637c7fcb",
                   "5a706b9b048159d190c41b03a16c4454ddebb33f71cca09109099bd2946deb48"),
    "endo-canonical": (["endo", "apply", "canonical(1,1)", "S[e1;f1]"], 0,
                       "21176c0acdb1862a45eeba4c95f7eea277287e650554efe8c197e35f36375459",
                       "44e0e536e84ea0f082ad5ddf4d0f8af562467b1aff9c74cad7e13f2567894c42"),
    "endo-inner": (["endo", "apply", "inner(S[e1;e2]+S[e2;e1])", "S[e1;id]"], 0,
                   "db95555bdb604debafb511abd269f0c4f5ebf68e057b4205768669421a27b9eb",
                   "7037a934a0e057cbef3abf8e2676f228f0c55c761a0edcbac8333b9d6f6c0559"),
    "endo-multi-term": (["endo", "apply", "inner(S[e1;e2]+S[e2;e1])",
                         "S[e1.f1;e2]+2*S[e2;e1.f2]-S[id;f1]"], 0,
                        "a4993c667384eaee4e9d6bdbdb6db9f023ca33b06b44dc6689b63495416f0cf4",
                        "3ccdb4f1635305a5b7c2a8906a5d39b2b99ad5a9265b669869348126a58f68ba"),
    "endo-long-mixed": (["endo", "apply", "canonical(1,1)",
                         f"S[{'.'.join(['e1.f2'] * 100)};id]"], 0,
                        "94303348397f0adc955f4b107545207f66ce270fa99dfa2bd771f1d92d3372a2",
                        "2397156db4c80008909390c0b93427836a0f9dce04e5451a30d644cb2f79164b"),
    "kms": (["kms", "S[e1;id]", "S[id;e1]"], 0,
            "30b243a99c37ff650f6fccea3125f441b85c760122616a085539d160f86dc639",
            "06d9c68f8b50898817bb2ffbec4864b1d7f86b45d1c3de2fd2916988c0026c1e"),
    "spectrum": (["spectrum", "1", "--m", "2", "--n", "3"], 0,
                 "f142a7aa8f83ce0063226ac3e6710016ada114581b0499e1057a17b776ec4b4f",
                 "e7921b46d152e2b8a6b7c7ca6ee4fcbe3fdeb3a6598c73f101e750cd7a4946d0"),
    "gram": (["gram", "1"], 0,
             "96d3d766529496924a15643fbd038093dbaf9413f58d54f2c7feb262228e8b25",
             "ccf61ac97b81d59d01b334f32894133b7fb016b08b13c5e3b741377cb785e9c5"),
    "oracle-equal": (["oracle", "S[e1;e1]+S[e2;e2]", "I"], 0,
                     "84dbbf3449afa8aef5aa604e2b55b4f8624986ac2b980e7b9289702a8b5e3d53",
                     "abecf306adab99e14b93644ab31cbc832560a69e1614454cd14ff10554f14387"),
    "oracle-unequal": (["oracle", "S[e1;id]", "S[e2;id]"], 1,
                       "6f63e2dd9720abd281f961f102112b7127f3d4b26dd5c270e9efaba629026cc1",
                       "d17df21911a98994d04f656f330fcbf0b665cb19508d8fef92656e106afee734"),
}


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("name", sorted(COMMAND_DIGESTS))
def test_command_output_is_pinned(name, fmt, capsys):
    argv, code, text_digest, records_digest = COMMAND_DIGESTS[name]
    assert run_cli(*argv, "--format", fmt) == code
    out = capsys.readouterr().out
    expected = text_digest if fmt == "text" else records_digest
    assert hashlib.sha256(out.encode()).hexdigest() == expected
