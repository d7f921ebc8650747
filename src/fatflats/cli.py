"""Command-line surface.

Exit codes: 0 success, 2 validation error, 3 cap exceeded / unresolved,
4 certificate failure.  Fixed seeds give byte-identical result files;
wall-clock timing is confined to the sweep's millis column and to stderr.
"""

import csv
import time
from fractions import Fraction

import click
from click.core import ParameterSource

from . import __version__
from .bounds import attach_lower, nef_lower, star_core_lower, upper_bounds
from .classify import classify
from .divisors import lower_bound as divisor_lower_bound
from .errors import (
    CapExceededError,
    CertificateError,
    FatFlatsError,
    ValidationError,
)
from .interpolation import alpha_symbolic, alpha_table, membership
from .scalars import DEFAULT_PRIMES, encode_scalar, require_int
from .schemes import (
    FatPointsP2,
    build_fat_flat,
    build_quasi_star,
    build_rational_target,
    build_theorem_a,
    build_theorem_b_family,
    scale_multiplicities,
    star_configuration,
)
from .serialization import (
    certificate_from_dict,
    classification_to_dict,
    dump_json,
    form_from_dict,
    load_any_scheme,
    load_json,
    points_from_dict,
    points_to_dict,
    report_to_dict,
    scheme_to_dict,
)
from .verification import run_checks

EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_CERTIFICATE = 4

CAP_HELP = ("degree cap (default: the first degree at which a form must "
            "exist, so the search always resolves)")


# The options each kind of `build` reads, besides KIND and -o.
_BUILD_READS = {
    "star": ("n", "e", "s", "seed"),
    "fatflat": ("n", "e", "s", "m", "seed"),
    "theorem-a": ("n", "s", "t", "e", "seed"),
    "quasi-star": ("s", "seed"),
    "rational-target": ("a", "b", "n", "seed"),
    "thmb-family": ("case_id", "r", "s", "n"),
}


def _grid_ints(grid, key, default):
    values = grid.get(key, default)
    if not isinstance(values, list):
        raise ValidationError(f"grid {key!r} must be a list of integers, "
                              f"not {values!r}")
    return sorted(require_int(v, f"grid {key!r} entry") for v in values)


def _given(value, default):
    """An option whose default depends on the kind; an explicit 0 stays."""
    return default if value is None else value


def _emit(data: dict, output):
    text = dump_json(data, output)
    if output is None:
        click.echo(text, nl=False)
    else:
        click.echo(f"wrote {output}", err=True)


def _load_scheme_arg(path):
    obj = load_any_scheme(load_json(path))
    return obj.to_scheme() if isinstance(obj, FatPointsP2) else obj


def _run(fn):
    try:
        return fn()
    except CapExceededError as exc:
        click.echo(f"unresolved: {exc}", err=True)
        raise SystemExit(EXIT_CAP)
    except CertificateError as exc:
        click.echo(f"certificate error: {exc}", err=True)
        raise SystemExit(EXIT_CERTIFICATE)
    except (FatFlatsError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_VALIDATION)


@click.group()
@click.version_option(__version__)
def main():
    """Exact computations on fat flat subschemes."""


@main.command()
@click.argument("kind", type=click.Choice(
    ["star", "fatflat", "theorem-a", "quasi-star", "rational-target",
     "thmb-family"]))
@click.option("--n", type=int, default=None, help="ambient dimension N")
@click.option("--e", type=int, default=2)
@click.option("--s", type=int, default=None)
@click.option("--m", type=int, default=1)
@click.option("--t", type=int, default=1)
@click.option("--a", type=int, default=2)
@click.option("--b", type=int, default=5)
@click.option("--case", "case_id", default="a",
              help="thmb-family case: a|b|c|wprime|zprime|z|wsecond|vprime")
@click.option("--r", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=click.Path(), default=None)
def build(kind, n, e, s, m, t, a, b, case_id, r, seed, output):
    """Construct a named configuration and write its JSON; an option the
    kind does not read exits 2."""
    ctx = click.get_current_context()

    def go():
        unread = [p.opts[0] for p in ctx.command.params
                  if p.name not in _BUILD_READS[kind] + ("kind", "output")
                  and ctx.get_parameter_source(p.name)
                  is ParameterSource.COMMANDLINE]
        if unread:
            raise ValidationError(f"build {kind} does not read "
                                  f"{', '.join(unread)}")
        if kind in ("star", "fatflat"):
            scheme = star_configuration(_given(n, 2), e, _given(s, 3),
                                        seed=seed)
            if kind == "fatflat":
                scheme = build_fat_flat(scheme.star, m)
            return scheme_to_dict(scheme)
        if kind == "theorem-a":
            scheme = build_theorem_a(_given(n, 3), _given(s, 4), t, e,
                                     seed=seed)
            return scheme_to_dict(scheme)
        if kind == "quasi-star":
            return scheme_to_dict(build_quasi_star(_given(s, 3), seed=seed))
        if kind == "rational-target":
            return scheme_to_dict(build_rational_target(a, b, N=n, seed=seed))
        params = {}
        if r is not None:
            params["r"] = r
        if s is not None:
            params["s"] = s
        if n is not None:
            params["n"] = n
        config = build_theorem_b_family(case_id, params)
        return points_to_dict(config)

    _emit(_run(go), output)


@main.command()
@click.argument("scheme_file", type=click.Path(exists=True))
@click.option("--k-min", type=int, default=1)
@click.option("--k-max", type=int, default=1)
@click.option("--mode", type=click.Choice(["rational", "modp"]), default="modp")
@click.option("--cap", type=int, default=None, help=CAP_HELP)
@click.option("-o", "--output", type=click.Path(), default=None)
def alpha(scheme_file, k_min, k_max, mode, cap, output):
    """Initial degrees of symbolic powers, k = k-min..k-max."""
    def go():
        scheme = _load_scheme_arg(scheme_file)
        table = alpha_table(scheme, range(k_min, k_max + 1), mode=mode,
                            degree_cap=cap)
        rows = []
        for record in table:
            rows.append({"k": record.k, "alpha": record.alpha,
                         "alpha_over_k": None if record.alpha is None else
                         encode_scalar(Fraction(record.alpha, record.k)),
                         "cap_hit": record.degree_cap_hit,
                         "escalated": record.escalated})
            click.echo(f"k={record.k:3d}  alpha={record.alpha}"
                       + ("  (unresolved above cap)" if record.degree_cap_hit
                          else ""), err=True)
        if any(row["cap_hit"] for row in rows):
            _emit({"table": rows, "mode": mode}, output)
            raise CapExceededError("some k unresolved below the degree cap")
        return {"table": rows, "mode": mode}

    _emit(_run(go), output)


@main.command()
@click.argument("scheme_file", type=click.Path(exists=True))
@click.option("--k-max", type=int, default=2)
@click.option("--mode", type=click.Choice(["rational", "modp"]), default="modp")
@click.option("--cap", type=int, default=None, help=CAP_HELP)
@click.option("--certificate-file", type=click.Path(exists=True), default=None,
              help="nef certificate on the scheme file's planar points")
@click.option("-o", "--output", type=click.Path(), default=None)
def bounds(scheme_file, k_max, mode, cap, certificate_file, output):
    """Bound report: per-k alpha table, upper = min alpha/k, certified lower."""
    def go():
        obj = load_any_scheme(load_json(scheme_file))
        planar = isinstance(obj, FatPointsP2)
        if certificate_file is not None and not planar:
            raise ValidationError(
                "--certificate-file needs a planar points file")
        scheme = obj.to_scheme() if planar else obj
        lower = None
        if certificate_file is not None:
            lower = nef_lower(obj, certificate_from_dict(
                load_json(certificate_file)))
        elif scheme.star_core is not None:
            lower = star_core_lower(scheme)
        report = upper_bounds(scheme, k_max, mode=mode, degree_cap=cap,
                              label=scheme_file)
        if lower is not None:
            attach_lower(report, lower)
        click.echo(f"verdict: {report.verdict}  upper={report.upper}  "
                   f"lower={report.lower.value if report.lower else None}",
                   err=True)
        return report_to_dict(report)

    _emit(_run(go), output)


@main.command()
@click.argument("form_file", type=click.Path(exists=True))
@click.argument("scheme_file", type=click.Path(exists=True))
@click.option("--k", type=int, default=1)
def member(form_file, scheme_file, k):
    """Exact membership of a form in the k-th symbolic power.

    FORM_FILE holds a kernel witness (its terms) or a hyperplane product
    (its factors), as fatflats bounds prints them; a product is checked by
    adding its factors' orders along each component, unexpanded."""
    def go():
        form = form_from_dict(load_json(form_file))
        scheme = _load_scheme_arg(scheme_file)
        ok = membership(form, scheme, k)
        click.echo("member" if ok else "not a member")
        return ok

    _run(go)


@main.command(name="nef-check")
@click.argument("certificate_file", type=click.Path(exists=True))
@click.argument("config_file", type=click.Path(exists=True))
def nef_check(certificate_file, config_file):
    """Verify a nef certificate and print its lower bound."""
    def go():
        cert = certificate_from_dict(load_json(certificate_file))
        config = points_from_dict(load_json(config_file))
        value = divisor_lower_bound(config, cert)
        click.echo(f"certified nef; lower bound {value}")

    _run(go)


@main.command(name="classify")
@click.argument("config_file", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
def classify_cmd(config_file, output):
    """Classify a non-reduced planar configuration (below-5/2 families)."""
    def go():
        config = points_from_dict(load_json(config_file))
        result = classify(config)
        if result.below_five_halves:
            click.echo(f"case {result.case}: Waldschmidt constant exactly "
                       f"{result.alpha_hat}", err=True)
        else:
            value = result.lower.value if result.lower else "5/2"
            click.echo(f"not below 5/2 ({result.reason}); certified lower "
                       f"bound {value}", err=True)
        return classification_to_dict(result)

    _emit(_run(go), output)


@main.command(name="verify-paper")
@click.option("--only", default=None, help="substring filter on check names")
def verify_paper(only):
    """Run the acceptance suite; one pass/fail line per criterion."""
    results = run_checks(only=only)
    failed = 0
    for name, ok, detail in results:
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += not ok
    if not results:
        click.echo("no checks matched the filter", err=True)
        raise SystemExit(EXIT_VALIDATION)
    if failed:
        raise SystemExit(1)


@main.command()
@click.argument("grid_file", type=click.Path(exists=True))
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output-dir", type=click.Path(), default=".")
def sweep(grid_file, seed, output_dir):
    """Alpha sweep over a parameter grid; CSV + JSON result store.

    Grid JSON: {"N": [..], "e": [..], "s": [..], "m": [..], "k_max": int,
    "cap": optional int}.  Rows are ordered deterministically.  An (N, e, s)
    outside 1 <= e <= N, e <= s is skipped; a grid with none left exits 2.
    """
    def go():
        import os
        grid = load_json(grid_file)
        if not isinstance(grid, dict):
            raise ValidationError("a sweep grid is a JSON object")
        k_max = require_int(grid.get("k_max", 2), "grid 'k_max'")
        if k_max < 1:
            raise ValidationError("grid 'k_max' must be >= 1")
        cap = grid.get("cap")
        if cap is not None:
            require_int(cap, "grid 'cap'")
        ns, es, ss, ms = (_grid_ints(grid, key, default) for key, default in
                          (("N", [2]), ("e", [2]), ("s", [3]), ("m", [1])))
        if not ms or ms[0] < 1:
            raise ValidationError(f"grid 'm' needs entries >= 1, not {ms}")
        stars = [(n, e, s) for n in ns for e in es for s in ss
                 if 1 <= e <= n and e <= s]
        if not stars:
            raise ValidationError("no grid (N, e, s) has 1 <= e <= min(N, s)")
        p1, p2 = DEFAULT_PRIMES
        rows = []
        for n, e, s in stars:
            for m in ms:
                scheme = scale_multiplicities(
                    star_configuration(n, e, s, seed=seed), m)
                for k in range(1, k_max + 1):
                    t0 = time.monotonic()
                    record = alpha_symbolic(scheme, k, degree_cap=cap)
                    millis = int((time.monotonic() - t0) * 1000)
                    # Blank when the star product closed k: no prime ran.
                    prime1, prime2 = record.primes or (None, None)
                    rows.append({
                        "N": n, "e": e, "s": s, "m": m, "k": k,
                        "alpha": record.alpha,
                        "alpha_over_k": "" if record.alpha is None else
                        encode_scalar(Fraction(record.alpha, k)),
                        "mode": record.field_mode,
                        "prime1": prime1, "prime2": prime2,
                        "millis": millis,
                    })
        os.makedirs(output_dir, exist_ok=True)
        csv_path = os.path.join(output_dir, "sweep.csv")
        fields = ["N", "e", "s", "m", "k", "alpha", "alpha_over_k", "mode",
                  "prime1", "prime2", "millis"]
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        dump_json({"seed": seed, "primes": [p1, p2], "rows": rows},
                  os.path.join(output_dir, "sweep.json"))
        click.echo(f"wrote {csv_path} ({len(rows)} rows)", err=True)

    _run(go)


if __name__ == "__main__":
    main()
