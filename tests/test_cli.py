import hashlib
from fractions import Fraction

import pytest

from padiclat import cli, errors
from padiclat.cli import main
from padiclat.fixtures import fixture_text

# every exception class of the package, and the exit code each one maps to
PADIC_ERRORS = sorted((c for c in vars(errors).values()
                       if isinstance(c, type) and issubclass(c, errors.PadicError)),
                      key=lambda c: c.__name__)
INPUT_ERRORS = {"BadExponents", "BadMatrix", "DegenerateGenerator", "DeltaTooSmall",
                "FixtureTampered", "InconsistentHeader", "InputError", "NoiseOutOfRange",
                "NotEisenstein", "NotIntegral", "NotMonic", "ParseError"}


@pytest.fixture()
def toy_files(tmp_path):
    pub = tmp_path / "toy.pub"
    ct = tmp_path / "toy.ct"
    pub.write_text(fixture_text("toy.pub"))
    ct.write_text(fixture_text("toy.ct"))
    return pub, ct


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLifecycle:
    def test_full_flow(self, tmp_path, capsys):
        pair = tmp_path / "k.pair"
        pub = tmp_path / "k.pub"
        code, _, _ = run(capsys, "keygen", "--p", "3", "--n", "4", "--m", "2",
                         "--delta", "1/2", "--seed", "5",
                         "--out", str(pair), "--public-out", str(pub))
        assert code == 0

        ct = tmp_path / "a.ct"
        code, _, _ = run(capsys, "encrypt", "--pub", str(pub),
                         "--plaintext", "1 2", "--seed", "9", "--out", str(ct))
        assert code == 0

        code, out, _ = run(capsys, "decrypt", "--key", str(pair), "--ct", str(ct))
        assert code == 0 and out.strip() == "1 2"

        code, out, _ = run(capsys, "attack", "decrypt", "--pub", str(pub),
                           "--ct", str(ct))
        assert code == 0 and out.strip() == "1 2"

        sig = tmp_path / "m.sig"
        code, _, _ = run(capsys, "sign", "--key", str(pair), "--message", "hi",
                         "--seed", "3", "--out", str(sig))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--pub", str(pub),
                           "--message", "hi", "--sig", str(sig))
        assert code == 0 and out.strip() == "valid"

        # tampering with the vector line must fail verification (exit 1)
        text = sig.read_text()
        head, _, coeffs = text.rpartition("v= ")
        first, _, rest = coeffs.partition(" ")
        bad = head + "v= " + ("1/3") + " " + rest
        sig.write_text(bad)
        code, out, _ = run(capsys, "verify", "--pub", str(pub),
                           "--message", "hi", "--sig", str(sig))
        assert code == 1 and out.strip() == "invalid"

        forged = tmp_path / "f.sig"
        code, _, _ = run(capsys, "attack", "forge", "--pub", str(pub),
                         "--message", "anything", "--seed", "4",
                         "--out", str(forged))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--pub", str(pub),
                           "--message", "anything", "--sig", str(forged))
        assert code == 0

    def test_seed_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            pair = tmp_path / f"{name}.pair"
            code, _, _ = run(capsys, "keygen", "--p", "2", "--n", "4", "--m", "2",
                             "--seed", "77", "--out", str(pair))
            assert code == 0
            outs.append(pair.read_text())
        assert outs[0] == outs[1]


class TestAttackCommands:
    def test_toy_uniformizer(self, toy_files, capsys):
        pub, _ = toy_files
        code, out, _ = run(capsys, "attack", "uniformizer", "--pub", str(pub))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "exponent=1/20"
        assert lines[1].startswith("gamma= -1 1 0")

    def test_toy_decrypt(self, toy_files, capsys):
        pub, ct = toy_files
        code, out, _ = run(capsys, "attack", "decrypt", "--pub", str(pub),
                           "--ct", str(ct))
        assert code == 0 and out.strip() == "1 1 0 1"


class TestOracleAndBench:
    def test_oracle_lvp(self, tmp_path, capsys):
        pair = tmp_path / "k.pair"
        pub = tmp_path / "k.pub"
        run(capsys, "keygen", "--p", "2", "--n", "3", "--m", "2", "--seed", "1",
            "--out", str(pair), "--public-out", str(pub))
        code, out, _ = run(capsys, "oracle", "lvp", "--pub", str(pub))
        assert code == 0
        assert out.startswith("lambda1_exponent=0")

    @pytest.mark.parametrize("p, n, m, lambda2, digest", [
        ("2", "6", "3", "1/6",
         "08c16916f7f31fa166d20b21ebefc89d6c8895b8904b1ab1478e7caa3f09007e"),
        ("3", "6", "2", "1/6",
         "c992120aefb5698b1517b7fe7b603ebc2a13e2fd89bac40223893418f992bcdd"),
        ("5", "4", "2", "1/4",
         "7287d8dc2edfea36959b6b2391b5d7fbcff64814a4452734a94c5624eb99a7b0"),
    ])
    def test_oracle_lvp_pinned_output(self, tmp_path, capsys, p, n, m, lambda2, digest):
        # keys with large p-free denominators, whose digit sums overflow
        # int64: the whole output, witness included, is pinned
        pair = tmp_path / "k.pair"
        pub = tmp_path / "k.pub"
        code, _, _ = run(capsys, "keygen", "--p", p, "--n", n, "--m", m, "--seed", "11",
                         "--precision", "128", "--out", str(pair), "--public-out", str(pub))
        assert code == 0
        code, out, _ = run(capsys, "oracle", "lvp", "--pub", str(pub))
        assert code == 0
        assert out.splitlines()[:2] == ["lambda1_exponent=0", f"lambda2_exponent={lambda2}"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bench_small(self, tmp_path, capsys):
        out_file = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--n-list", "6,8", "--p-list", "3",
                         "--seed", "2", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,p,rep,wall_ms,abs_count"
        assert len(lines) == 3
        for line in lines[1:]:
            n, p, rep, wall, count = line.split(",")
            assert int(count) <= int(n) + int(p) * (int(n) - 1)


class TestExitCodes:
    def test_garbage_key_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pub"
        bad.write_text("this is not a key\n")
        code, _, err = run(capsys, "attack", "uniformizer", "--pub", str(bad))
        assert code == 2 and "input error" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--pub", str(tmp_path / "nope"),
                           "--message", "x", "--sig", str(tmp_path / "nein"))
        assert code == 2

    def test_unramified_attack_fails_with_1(self, tmp_path, capsys):
        from padiclat.fields import make_context
        from padiclat.fileio import emit_public_key
        from padiclat.schemes import PublicKey

        ctx = make_context(2, 64, [1, 1, 1])
        pk = PublicKey(ctx, (ctx.one(),))
        pub = tmp_path / "u.pub"
        pub.write_text(emit_public_key(pk))
        code, _, err = run(capsys, "attack", "uniformizer", "--pub", str(pub))
        assert code == 1 and "ReductionFailed" in err

    def test_integers_past_the_string_limit(self, tmp_path, capsys):
        # a 5000-digit coefficient loads, where str() and int() stop at 4300
        from padiclat.fields import make_context
        from padiclat.fileio import emit_public_key
        from padiclat.schemes import PublicKey

        ctx = make_context(3, 128, [-6, 0, 1])
        big = 10 ** 4999 + 7
        pub = tmp_path / "big.pub"
        pub.write_text(emit_public_key(PublicKey(ctx, (ctx.element([1, big]),))))
        code, out, _ = run(capsys, "attack", "uniformizer", "--pub", str(pub))
        assert code == 0 and "exponent=1/2" in out
        pub.write_text(pub.read_text().replace("0007", "000x"))  # big's last digits
        code, _, err = run(capsys, "attack", "uniformizer", "--pub", str(pub))
        assert code == 2 and "input error" in err

    def test_keygen_reads_integers_past_the_string_limit(self, tmp_path, capsys):
        # f = z^2 + 3z + 3(10^4999 + 1) is Eisenstein at 3; its 5000-digit
        # constant term reaches the key file intact
        from padiclat.fileio import parse_key_file

        big = "3" + "0" * 4998 + "3"
        pair = tmp_path / "k.pair"
        code, _, _ = run(capsys, "keygen", "--p", "3", "--n", "2", "--m", "1",
                         "--f", f"{big} 3 1", "--delta", "0.5", "--seed", "5",
                         "--out", str(pair))
        assert code == 0
        f = [c.to_fraction() for c in parse_key_file(pair.read_text()).private.eisenstein]
        assert f == [3 * (10 ** 4999 + 1), 3, 1]

    def test_negative_delta_in_public_key_is_input_error(self, toy_files, capsys):
        pub, _ = toy_files
        pub.write_text(pub.read_text().replace("delta=1/5", "delta=-3/2"))
        code, _, err = run(capsys, "encrypt", "--pub", str(pub), "--plaintext", "1 0 1 1",
                           "--out", str(pub.with_suffix(".ct")))
        assert code == 2 and "delta must be nonnegative" in err

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "1/0"),
        ("--f", "3 0 1/0 3 1"),
        ("--zeta", "0 1 1/0 0"),
    ])
    def test_zero_denominator_is_input_error(self, tmp_path, capsys, flag, value):
        code, _, err = run(capsys, "keygen", "--p", "3", "--n", "4", "--m", "2",
                           flag, value, "--seed", "5",
                           "--out", str(tmp_path / "k.pair"))
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("flag, value", [
        ("--f", "3,,0,1"), ("--f", ","), ("--f", "3,0,3,3,1,"),
        ("--zeta", ","), ("--zeta", "0,1,,1,0"),
    ])
    def test_empty_polynomial_entry_is_input_error(self, tmp_path, capsys, flag, value):
        # "3,,0,1" is not the polynomial [3, 0, 1]: an empty entry is
        # malformed, as in the integer lists, and no key file is written
        pair = tmp_path / "k.pair"
        code, out, err = run(capsys, "keygen", "--p", "3", "--n", "4", "--m", "2",
                             flag, value, "--seed", "5", "--out", str(pair))
        assert code == 2 and "empty entry" in err and out == ""
        assert not pair.exists()

    def test_polynomial_lists_split_like_integer_lists(self):
        assert cli._fractions("3, 0,1/2 -3/4") == [3, 0, Fraction(1, 2), Fraction(-3, 4)]
        assert cli._ints("3, 0,1 -3") == [3, 0, 1, -3]
        assert cli._fractions(" ") == cli._ints(" ") == []

    @pytest.mark.parametrize("key, value", [
        ("p", "1"), ("p", "0"), ("p", "6"), ("precision", "-5"),
    ])
    def test_bad_field_parameters_in_key_file(self, tmp_path, capsys, key, value):
        # z^2 - 6 is Eisenstein at 3 and at 2, so the file is attackable
        # unless p or precision is invalid; p = 6 must not pass for a prime
        header = {"p": "3", "n": "2", "m": "1", "precision": "128"}
        pub = tmp_path / "x.pub"

        def attack(fields):
            text = "".join(f"{k}={v}\n" for k, v in fields.items())
            pub.write_text(text + "F= -6 0 1\nbeta.1= 1 0\n")
            return run(capsys, "attack", "uniformizer", "--pub", str(pub))

        assert attack(header)[0] == 0
        code, _, err = attack({**header, key: value})
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("argv", [
        ("keygen", "--p", "1", "--n", "2", "--m", "1", "--f", "2 0 1",
         "--zeta", "0 1"),
        ("keygen", "--p", "1", "--n", "2", "--m", "1", "--f", "2 0 1"),
        ("bench", "--n-list", "4", "--p-list", "1"),
    ])
    def test_p_one_is_input_error(self, tmp_path, capsys, argv):
        # at p = 1 valuations never end, nor do the unit-digit sampling
        # loops (zeta in keygen, make_instance in bench)
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("argv", [
        ("keygen", "--p", "3", "--n", "1", "--m", "1"),
        ("keygen", "--p", "3", "--n", "0", "--m", "1"),
        ("keygen", "--p", "3", "--n", "-2", "--m", "1"),
        ("bench", "--n-list", "1", "--p-list", "3"),
        ("bench", "--n-list", "0", "--p-list", "3"),
        ("bench", "--n-list", "-3", "--p-list", "3"),
    ])
    def test_degree_below_two_is_input_error(self, tmp_path, capsys, argv):
        # the generator samplers (keygen's zeta, make_instance) read the
        # linear coefficient, which a degree below 2 does not have
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2 and "degree must be at least 2" in err

    def test_negative_oracle_depth_is_input_error(self, toy_files, capsys):
        pub, _ = toy_files
        code, _, err = run(capsys, "oracle", "lvp", "--pub", str(pub), "--depth", "-1")
        assert code == 2 and "depth must be nonnegative" in err

    def test_negative_oracle_budget_is_input_error(self, toy_files, capsys):
        pub, _ = toy_files
        code, _, err = run(capsys, "oracle", "lvp", "--pub", str(pub), "--budget", "-1")
        assert code == 2 and "budget must be nonnegative" in err

    def test_negative_bench_repetitions_is_input_error(self, capsys):
        code, out, err = run(capsys, "bench", "--n-list", "4", "--p-list", "3",
                             "--reps", "-2")
        assert code == 2 and "repetitions must be nonnegative" in err and out == ""

    @pytest.mark.parametrize("n_list, p_list", [
        ("4,x", "3"), (",", "3"), ("4,,6", "3"), ("4", ","), ("4", "3,"),
    ])
    def test_malformed_bench_list_is_input_error(self, tmp_path, capsys, n_list, p_list):
        # a list with an empty entry is malformed like one with a non-integer
        # entry: nothing is computed or written
        argv = ("bench", "--n-list", n_list, "--p-list", p_list)
        out_file = tmp_path / "grid.csv"
        for extra in ((), ("--out", str(out_file))):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2 and "input error" in err and out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ("verify", "--pub", "k.pub", "--message", "m", "--sig", "m.sig",
         "--precision", "7"),
        ("decrypt", "--key", "k.pair", "--ct", "m.ct", "--seed", "3"),
        ("attack", "uniformizer", "--pub", "k.pub", "--budget", "-5"),
        ("oracle", "lvp", "--pub", "k.pub", "--precision", "9"),
        ("sign", "--key", "k.pair", "--message", "m", "--out", "m.sig",
         "--budget", "4"),
    ])
    def test_option_a_command_does_not_read_is_refused(self, capsys, argv):
        # each command takes only the options it reads
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", PADIC_ERRORS, ids=lambda c: c.__name__)
    def test_exit_code_of_every_error_class(self, capsys, monkeypatch, cls):
        def fail(args):
            raise cls("raised on purpose")

        monkeypatch.setattr(cli, "cmd_bench", fail)
        code, _, err = run(capsys, "bench", "--n-list", "4", "--p-list", "3")
        want = 3 if cls is errors.PrecisionExhausted else 2 if cls.__name__ in INPUT_ERRORS else 1
        assert code == want and "raised on purpose" in err


class TestBenchEdges:
    def test_empty_grid(self, tmp_path, capsys):
        out_file = tmp_path / "empty.csv"
        code, _, _ = run(capsys, "bench", "--n-list", "", "--p-list", "3",
                         "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().strip() == "n,p,rep,wall_ms,abs_count"
