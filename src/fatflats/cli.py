"""Command-line surface.

Exit codes: 0 success, 2 validation error, 3 cap exceeded / unresolved,
4 certificate failure.  Fixed seed and primes give byte-identical result
files; wall-clock timing is confined to the sweep's millis column and to
stderr.
"""

import csv
import time
from fractions import Fraction

import click

from . import __version__
from .bounds import attach_lower, nef_lower, star_core_lower, upper_bounds
from .classify import classify
from .divisors import lower_bound as divisor_lower_bound, verify_nef
from .errors import (
    CapExceededError,
    CertificateError,
    FatFlatsError,
    ValidationError,
)
from .interpolation import alpha_symbolic, alpha_table, membership
from .scalars import DEFAULT_PRIMES, check_field_prime, encode_scalar
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


def _primes_option(value):
    if value is None:
        return DEFAULT_PRIMES
    try:
        parts = [int(x) for x in value.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--primes wants integers p1,p2: {exc}") from exc
    if len(parts) != 2:
        raise ValidationError("--primes wants exactly two primes p1,p2")
    if parts[0] == parts[1]:
        raise ValidationError("--primes wants two different primes p1,p2")
    return tuple(check_field_prime(p) for p in parts)


def _grid_int(grid, key, default):
    value = grid.get(key, default)
    if value is not None and (not isinstance(value, int)
                              or isinstance(value, bool)):
        raise ValidationError(f"grid {key!r} must be an integer, "
                              f"not {value!r}")
    return value


def _grid_ints(grid, key, default):
    values = grid.get(key, default)
    if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValidationError(f"grid {key!r} must be a list of integers, "
                              f"not {values!r}")
    return sorted(values)


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
    except (ValidationError, FatFlatsError, OSError, KeyError) as exc:
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
@click.option("--e", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--a", type=int, default=None)
@click.option("--b", type=int, default=None)
@click.option("--case", "case_id", default=None,
              help="thmb-family case: a|b|c|wprime|zprime|z|wsecond|vprime")
@click.option("--r", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=click.Path(), default=None)
def build(kind, n, e, s, m, t, d, a, b, case_id, r, seed, output):
    """Construct a named configuration and write its JSON."""
    def go():
        if kind == "star":
            _, scheme = star_configuration(n or 2, e or 2, s or 3, seed=seed)
            return scheme_to_dict(scheme)
        if kind == "fatflat":
            star, _ = star_configuration(n or 2, e or 2, s or 3, seed=seed)
            return scheme_to_dict(build_fat_flat(star, m or 1))
        if kind == "theorem-a":
            scheme = build_theorem_a(n or 3, d or 4, s or 4, t or 1, e or 2,
                                     seed=seed)
            return scheme_to_dict(scheme)
        if kind == "quasi-star":
            return scheme_to_dict(build_quasi_star(s or 3, seed=seed))
        if kind == "rational-target":
            return scheme_to_dict(build_rational_target(a or 2, b or 5, N=n,
                                                        seed=seed))
        params = {}
        if r is not None:
            params["r"] = r
        if s is not None:
            params["s"] = s
        if n is not None:
            params["n"] = n
        config = build_theorem_b_family(case_id or "a", params, seed=seed)
        return points_to_dict(config)

    _emit(_run(go), output)


@main.command()
@click.argument("scheme_file", type=click.Path(exists=True))
@click.option("--k-min", type=int, default=1)
@click.option("--k-max", type=int, default=1)
@click.option("--mode", type=click.Choice(["rational", "modp"]), default="modp")
@click.option("--primes", default=None, help="p1,p2 (31-bit primes)")
@click.option("--cap", type=int, default=None, help=CAP_HELP)
@click.option("-o", "--output", type=click.Path(), default=None)
def alpha(scheme_file, k_min, k_max, mode, primes, cap, output):
    """Initial degrees of symbolic powers, k = k-min..k-max."""
    def go():
        scheme = _load_scheme_arg(scheme_file)
        table = alpha_table(scheme, range(k_min, k_max + 1), mode=mode,
                            degree_cap=cap, primes=_primes_option(primes))
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
@click.option("--primes", default=None)
@click.option("--cap", type=int, default=None, help=CAP_HELP)
@click.option("--points-file", type=click.Path(exists=True), default=None,
              help="planar configuration carrying the certificate")
@click.option("--certificate-file", type=click.Path(exists=True), default=None)
@click.option("-o", "--output", type=click.Path(), default=None)
def bounds(scheme_file, k_max, mode, primes, cap, points_file,
           certificate_file, output):
    """Bound report: per-k alpha table, upper = min alpha/k, certified lower."""
    def go():
        scheme = _load_scheme_arg(scheme_file)
        report = upper_bounds(scheme, k_max, mode=mode, degree_cap=cap,
                              primes=_primes_option(primes),
                              label=scheme_file)
        if certificate_file is not None:
            if points_file is None:
                raise ValidationError("--certificate-file needs --points-file")
            config = points_from_dict(load_json(points_file))
            cert = certificate_from_dict(load_json(certificate_file))
            attach_lower(report, nef_lower(config, cert))
        elif scheme.star_core is not None:
            attach_lower(report, star_core_lower(scheme))
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
    """Exact membership of a form in the k-th symbolic power."""
    def go():
        form = form_from_dict(load_json(form_file))
        scheme = _load_scheme_arg(scheme_file)
        ok = membership(form, scheme, k)
        click.echo("member" if ok else "not a member")
        return ok

    _run(go)


@main.command(name="nef-check")
@click.argument("certificate_file", type=click.Path(exists=True))
@click.argument("points_file", type=click.Path(exists=True))
def nef_check(certificate_file, points_file):
    """Verify a nef certificate and print its lower bound."""
    def go():
        cert = certificate_from_dict(load_json(certificate_file))
        config = points_from_dict(load_json(points_file))
        verify_nef(cert, config)
        value = divisor_lower_bound(config, cert)
        click.echo(f"certified nef; lower bound {value}")

    _run(go)


@main.command(name="classify")
@click.argument("points_file", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
def classify_cmd(points_file, output):
    """Classify a non-reduced planar configuration (below-5/2 families)."""
    def go():
        config = points_from_dict(load_json(points_file))
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
@click.option("--primes", default=None)
@click.option("-o", "--output-dir", type=click.Path(), default=".")
def sweep(grid_file, seed, primes, output_dir):
    """Alpha sweep over a parameter grid; CSV + JSON result store.

    Grid JSON: {"N": [..], "e": [..], "s": [..], "m": [..], "k_max": int,
    "cap": optional int}.  Rows are ordered deterministically.
    """
    def go():
        import os
        grid = load_json(grid_file)
        if not isinstance(grid, dict):
            raise ValidationError("a sweep grid is a JSON object")
        ps = _primes_option(primes)
        k_max = _grid_int(grid, "k_max", 2)
        cap = _grid_int(grid, "cap", None)
        ns, es, ss, ms = (_grid_ints(grid, key, default) for key, default in
                          (("N", [2]), ("e", [2]), ("s", [3]), ("m", [1])))
        rows = []
        for n in ns:
            for e in es:
                for s in ss:
                    for m in ms:
                        if not (1 <= e <= n and e <= s):
                            continue
                        star, scheme = star_configuration(n, e, s, seed=seed)
                        if m > 1:
                            scheme = scale_multiplicities(scheme, m)
                        for k in range(1, k_max + 1):
                            t0 = time.monotonic()
                            record = alpha_symbolic(scheme, k, degree_cap=cap,
                                                    primes=ps)
                            millis = int((time.monotonic() - t0) * 1000)
                            rows.append({
                                "N": n, "e": e, "s": s, "m": m, "k": k,
                                "alpha": record.alpha,
                                "alpha_over_k": "" if record.alpha is None else
                                encode_scalar(Fraction(record.alpha, k)),
                                "mode": record.field_mode,
                                "prime1": record.primes[0],
                                "prime2": record.primes[1],
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
        dump_json({"seed": seed, "primes": list(ps), "rows": rows},
                  os.path.join(output_dir, "sweep.json"))
        click.echo(f"wrote {csv_path} ({len(rows)} rows)", err=True)

    _run(go)


if __name__ == "__main__":
    main()
