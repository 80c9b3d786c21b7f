"""Compare two ``tools/dump_answers.py`` files up to ideal equality.

  python3 tools/same_ideal.py OLD NEW

Both files are split into sections, each from one ``== `` header to the
next; the two files must have the same headers in the same order.  A
section whose lines differ passes only in two cases:

- It belongs to a Laurent polynomial basis: a polynomial workload
  instance, an ``ORTHANT_N3`` ideal, or the ``gb``/``gb --normalize``
  output of a CLI problem without a weight or polytope.
  Both sides' bases are re-parsed in the problem's ring; each must pass
  ``is_groebner``, and the two must pass ``same_ideal``.  The section's
  other lines (statistics, quotients, remainders, combinations, subset
  checks) follow from the basis and may differ, and so may the other CLI
  verbs of a problem whose ``gb`` basis changed.
- It belongs to a capped basis (a series workload instance or a known
  failure), and its basis lines are byte-identical; only its other lines
  may differ.

Every other section must be byte-identical.  The script prints, per line
class, how many lines changed, and exits with status 1 when a section
fails.  The ``lgb`` imported is the one of this script's checkout.
"""

import difflib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import workloads  # noqa: E402
import worker  # noqa: E402
from conftest import orthant_ring  # noqa: E402
from lgb import cli, groebner  # noqa: E402


def sections(path):
    """[(header, lines)] of a dump file, in order."""
    out = []
    for line in Path(path).read_text().split("\n"):
        if line.startswith("== "):
            out.append((line, []))
        elif out:
            out[-1][1].append(line)
    return out


def basis_lines(lines):
    """The formatted basis of a workload or ``ORTHANT_N3`` section: its
    ``basis`` lines before the first check or combination."""
    out = []
    for line in lines:
        if line.startswith(("check", "combinations")):
            break
        if line.startswith("basis "):
            out.append(line[len("basis "):].split(" | ", 1)[0])
    return out


def line_class(header, line):
    """A short name for the kind of a changed line."""
    if header.startswith("== cli "):
        verb = header[len("== cli "):].rsplit(" -> ", 1)[0].split(" ", 1)[1]
        return f"cli {verb} " + ("stderr" if line.startswith("stderr: ") else "stdout")
    if line.startswith("check without"):
        return "check without"
    if line.startswith("T_"):
        return "module"
    return line.split()[0] if line.strip() else "blank"


class Comparison:
    def __init__(self, problems):
        self.problems = problems
        self.rings = {}
        self.failures = []
        self.changed_bases = 0
        self.changed_problems = set()

    def ring(self, header):
        """The Laurent ring of a section, None for a capped one, or False
        for a section that holds no basis."""
        if header not in self.rings:
            self.rings[header] = self._ring(header)
        return self.rings[header]

    def _ring(self, header):
        words = header.split()
        if words[1] in workloads.WORKLOADS and words[2] == "seed":
            inst = next(i for i in workloads.build(words[1], int(words[3])) if i.name == words[4])
            case = worker.make_case(inst)
            return case.gens[0].ring if case.mode is None else None
        if header.startswith("== orthant n=3 "):
            return orthant_ring(3)
        if words[1] == "known":
            return None
        if words[1] == "cli":
            name = words[2]
            if name.startswith("known-"):
                return None
            problem = cli.parse_problem((self.problems / f"{name}.txt").read_text())
            return problem.ring if problem.mode is None else None
        return False

    def check(self, header, old, new):
        ring = self.ring(header)
        if ring is False:
            return self.fail(header, "differs and holds no basis")
        if header.startswith("== cli "):
            verb = header.split()[3]
            if ring is None:
                return self.fail(header, "a capped CLI answer differs")
            if verb != "gb":
                if header.split()[2] not in self.changed_problems:
                    self.fail(header, "differs, but the problem's basis does not")
                return
            old_basis, new_basis = old[:-2], new[:-2]  # stdout, then blank and stderr
        else:
            old_basis, new_basis = basis_lines(old), basis_lines(new)
        if old_basis == new_basis:
            return
        if ring is None:
            return self.fail(header, "a capped basis differs")
        if not old_basis or not new_basis:
            return self.fail(header, "a basis is missing on one side")
        self.changed_bases += 1
        if header.startswith("== cli "):
            self.changed_problems.add(header.split()[2])
        try:
            a = [cli.parse_poly(ring, t) for t in old_basis]
            b = [cli.parse_poly(ring, t) for t in new_basis]
            if not groebner.same_ideal(a, b):
                self.fail(header, "the two bases generate different ideals")
        except Exception as exc:  # a basis that fails the check, or a parse error
            self.fail(header, f"{type(exc).__name__}: {exc}")

    def fail(self, header, why):
        self.failures.append(f"{header}: {why}")


def main():
    old_path, new_path = sys.argv[1], sys.argv[2]
    old, new = sections(old_path), sections(new_path)
    if [h for h, _ in old] != [h for h, _ in new]:
        print("the two files have different section headers")
        return 1
    comparison = Comparison(Path(new_path + ".problems"))
    classes = Counter()
    changed = 0
    for (header, a), (_, b) in zip(old, new):
        if a == b:
            continue
        changed += 1
        comparison.check(header, a, b)
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
            if tag != "equal":
                classes.update(line_class(header, line) for line in a[i1:i2] + b[j1:j2])
    print(f"{len(old)} sections, {changed} differ, {comparison.changed_bases} Laurent bases changed")
    for name, count in sorted(classes.items()):
        print(f"  {count:6} changed lines of class {name!r}")
    for failure in comparison.failures:
        print("FAIL " + failure)
    return 1 if comparison.failures else 0


if __name__ == "__main__":
    sys.exit(main())
