"""Regenerate ``perfbench/reference.json``: the stored answers that
``run.py`` compares against on seeds 0-9.

    python3 perfbench/make_reference.py

Each answer comes from the benchmark's own query and is cross-checked on
the other arithmetic lane before it is stored: random-flats alphas (mod p)
against ``mode="rational"`` wherever the final degree has at most
``RATIONAL_MAX_COLUMNS`` monomials, planar-exact tables (rational) against
the mod-p lane.  star-p4-double needs no stored answers: its check is the
theorem value.  Any disagreement aborts without writing.
"""

import json
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from fatflats.interpolation import alpha_symbolic  # noqa: E402

import workloads  # noqa: E402

SEEDS = range(10)
RATIONAL_MAX_COLUMNS = 120


def _answers(name, seed):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    queries = wl.queries(inputs)
    outcomes = [wl.run(*q) for q in queries]
    wrong, run_errors = wl.check(inputs, outcomes)
    errors = [o.error for o in outcomes if o.error] + list(wrong.values())
    if errors or run_errors:
        raise SystemExit(f"{name} seed {seed}: {errors + run_errors}")
    return queries, [o.answer for o in outcomes]


def random_flats(seed):
    queries, answers = _answers("random-flats", seed)
    checked = 0
    for (scheme, k), alpha in zip(queries, answers):
        if comb(alpha + scheme.ambient_dim, scheme.ambient_dim) > \
                RATIONAL_MAX_COLUMNS:
            continue
        exact = alpha_symbolic(scheme, k, mode="rational").alpha
        if exact != alpha:
            raise SystemExit(f"random-flats seed {seed}: mod p {alpha}, "
                             f"rational {exact}")
        checked += 1
    return answers, checked


def planar_exact(seed):
    queries, answers = _answers("planar-exact", seed)
    for (_, scheme), answer in zip(queries, answers):
        modp = [alpha_symbolic(scheme, k).alpha for k in (1, 2)]
        if modp != answer["table"]:
            raise SystemExit(f"planar-exact seed {seed}: rational "
                             f"{answer['table']}, mod p {modp}")
    return answers, len(answers)


def main():
    entries = []
    for name, make in (("random-flats", random_flats),
                       ("planar-exact", planar_exact)):
        for seed in SEEDS:
            answers, checked = make(seed)
            entries.append(f'"{name}:{seed}": '
                           f'{json.dumps(answers, sort_keys=True)}')
            print(f"{name} seed {seed}: {len(answers)} answers, "
                  f"{checked} cross-checked on the other lane")
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()
