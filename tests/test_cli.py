"""What nine ``gkmc`` cases mean, beyond the bytes the golden harness pins.

Each test runs one ``CASES`` row of ``test_cli_golden.py`` on the shared
datum files and checks the exit code and the words a user acts on, so
that rewriting ``cli_golden.json`` cannot quietly pin a wrong answer.
"""

from test_cli_golden import CASES, datum_files, run_case  # datum_files: the shared fixture


def run(name, datum_files):
    return run_case(CASES[name], *datum_files)


class TestValidate:
    def test_valid_file(self, datum_files):
        result = run("validate", datum_files)
        assert result["exit"] == 0 and "valid" in result["stdout"]

    def test_unknown_field_exits_two(self, datum_files):
        assert run("validate-format-error", datum_files)["exit"] == 2

    def test_dimension_mismatch_is_structural(self, datum_files):
        result = run("validate-structural-error", datum_files)
        assert result["exit"] == 2 and "structural" in result["stdout"]


class TestGen:
    def test_non_dominant_lambda_rejected(self, datum_files):
        assert run("gen-not-dominant", datum_files)["exit"] == 2


class TestCheck:
    def test_projection(self, datum_files):
        result = run("check-projection", datum_files)
        assert result["exit"] == 0 and "0 violations" in result["stdout"]

    def test_embedding_single_index(self, datum_files):
        result = run("check-embedding-index", datum_files)
        assert result["exit"] == 0 and "index 2:" in result["stdout"]

    def test_embedding_all_indices(self, datum_files):
        assert run("check-embedding-all", datum_files)["exit"] == 0

    def test_profile(self, datum_files):
        assert run("check-profile", datum_files)["exit"] == 0


class TestVacuousBundleFails:
    def test_profile_without_imaginary_index(self, datum_files):
        result = run("check-profile-vacuous", datum_files)
        assert result["exit"] == 1
        assert "category profile: 0 violations, 0 skipped (0 checks)" in result["stdout"]
        assert "nothing was checked" in result["stdout"]
