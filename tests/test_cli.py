import hashlib

import pytest

from padiclat.cli import main
from padiclat.fixtures import fixture_text


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


class TestBenchEdges:
    def test_empty_grid(self, tmp_path, capsys):
        out_file = tmp_path / "empty.csv"
        code, _, _ = run(capsys, "bench", "--n-list", "", "--p-list", "3",
                         "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().strip() == "n,p,rep,wall_ms,abs_count"
