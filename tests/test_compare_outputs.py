import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def tree_listing(root):
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if "__pycache__" not in p.parts)


def fake_tree(root, payload):
    """A source tree whose CLI writes one file holding ``payload``."""
    pkg = root / "src" / "stochpend"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "from pathlib import Path\n\n"
        "def main(argv):\n"
        "    out = Path(argv[argv.index('--out') + 1])\n"
        "    out.mkdir()\n"
        f"    (out / 'x.txt').write_text({payload!r})\n"
        "    return 0\n")
    return root


def failing_tree(root, message, leave_file=False):
    """A source tree whose CLI prints a timing line and then ``message`` to
    stderr and exits 3, after writing a file if ``leave_file``."""
    pkg = root / "src" / "stochpend"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import sys\nfrom pathlib import Path\n\n"
        "def main(argv):\n"
        f"    if {leave_file!r}:\n"
        "        out = Path(argv[argv.index('--out') + 1])\n"
        "        out.mkdir()\n"
        "        (out / 'x.txt').write_text('partial')\n"
        "    print('stage 0.1 s', file=sys.stderr)\n"
        f"    print({message!r}, file=sys.stderr)\n"
        "    return 3\n")
    return root


def test_failed_runs_compare_their_error_and_leave_no_file(tmp_path):
    a = failing_tree(tmp_path / "a", "numeric failure: step 5")
    b = failing_tree(tmp_path / "b", "numeric failure: step 6")
    c = failing_tree(tmp_path / "c", "numeric failure: step 5", leave_file=True)
    res = compare(a, a, "--case", "verify-blowup")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "exit 3 / 3" in res.stdout
    assert "identical  stderr  numeric failure: step 5" in res.stdout
    res = compare(a, b, "--case", "verify-blowup")
    assert res.returncode == 1 and "DIFFERENT  stderr" in res.stdout
    res = compare(a, c, "--case", "verify-blowup")
    assert res.returncode == 1 and "LEFT FILES  change" in res.stdout


def test_tree_matches_itself():
    before = tree_listing(ROOT / "src")
    res = compare(ROOT, ROOT, "--case", "portrait")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "identical  portrait.csv" in res.stdout
    assert "DIFFERENT" not in res.stdout
    assert tree_listing(ROOT / "src") == before


def test_differing_bytes_exit_1_and_trees_stay_untouched(tmp_path):
    a = fake_tree(tmp_path / "a", "same")
    b = fake_tree(tmp_path / "b", "other")
    before = tree_listing(tmp_path)
    res = compare(a, b, "--case", "portrait")
    assert res.returncode == 1, res.stdout + res.stderr
    assert "DIFFERENT  x.txt" in res.stdout
    assert compare(a, a, "--case", "portrait").returncode == 0
    assert tree_listing(tmp_path) == before


def test_tree_without_the_package_exit_2(tmp_path):
    (tmp_path / "src").mkdir()
    res = compare(tmp_path, tmp_path, "--case", "portrait")
    assert res.returncode == 2
    assert "stochpend.cli is not importable" in res.stderr
