"""Command-line front end.

Machine-readable JSON on stdout, human tables behind --pretty.  Exit
codes: 0 valid, 1 invalid solution, 2 I/O or parse error, 3 structural
discrepancy, 4 budget exceeded.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

from .core import (ALL_VALID, InvalidSolutionError, SolutionFormatError,
                   check, diagonal_image, load_rmap, promote, read_json,
                   rmap_to_dict)
from .groebner import (check_overlaps, constant_rules, normal_word_count,
                       solution_rules)
from .invariants import (Discrepancy, descriptor_diagnostics,
                         descriptor_from_dict, descriptor_report,
                         q_image_in_idempotents, structure)
from .monoid import center_basis, growth, is_cancellative, sigma_discrepancies
from .search import (EnumOptions, diagonal_strata, enumerate_solutions,
                     from_group_automorphism, from_permutation,
                     from_rees_example, is_latin)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_DISCREPANCY = 3
EXIT_BUDGET = 4


def _fail(message):
    print(json.dumps({"error": message}), file=sys.stderr)
    return EXIT_IO


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a JSON error, like every other user error."""

    def error(self, message):
        sys.exit(_fail(message))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


def _emit(obj, pretty):
    """Print obj as JSON; a report dataclass is written as its fields."""
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(obj, sort_keys=True, default=dataclasses.asdict, **layout))


_row_json = json.JSONEncoder(separators=(",", ":")).encode


def cmd_verify(args):
    try:
        m = load_rmap(args.path)
    except (OSError, SolutionFormatError) as exc:
        return _fail(str(exc))
    report = check(m)
    _emit(report, args.pretty)
    return EXIT_OK if report.ok else EXIT_INVALID


def _analyze_report(s, max_len, center_deg):
    image = diagonal_image(s)
    st = structure(s)
    sg = st.semigroup
    cancel_len = max_len if max_len is not None else 2 * s.d + 1
    cancellative, witness = is_cancellative(s, cancel_len)
    growth_len = min(max_len, 8) if max_len is not None else 4
    gr = growth(s, growth_len)
    deg = center_deg if center_deg is not None else s.d
    basis = center_basis(s, deg)
    latin = is_latin(s)

    singleton = len(image) == 1
    discrepancies = list(st.discrepancies)
    discrepancies.extend(sigma_discrepancies(s))
    discrepancies.extend(gr.discrepancies())
    # short test lengths may miss witnesses; the criterion only binds
    # once products reach twice the exponent
    if cancel_len >= 2 * s.d + 1 and cancellative != singleton:
        discrepancies.append(
            Discrepancy("cancellative-iff-singleton-diagonal", (cancel_len,)))
    if latin != singleton:
        discrepancies.append(Discrepancy("latin-iff-singleton-diagonal", ()))
    if bool(basis) != singleton:
        discrepancies.append(
            Discrepancy("center-iff-singleton-diagonal", (deg,)))
    # one direction only: one automorphism phi does not force a singleton
    allphi = st.fineq.allphi
    if singleton and not (allphi and allphi.automorphism):
        discrepancies.append(
            Discrepancy("singleton-diagonal-phi-automorphism", ()))

    return {
        # a Solution exists only once promote's full check has passed
        "verification": ALL_VALID,
        "n": s.n,
        "q": list(s.q),
        "diagonal": list(image),
        "d": s.d,
        "partition": {str(row[0]): list(row[1:]) for row in sg.xu},
        "semigroup": {
            "op": [list(r) for r in sg.op],
            "left_identities": list(sg.left_identities),
            "idempotents": list(sg.idempotents),
            "rees": {
                "base": sg.rees_base,
                "columns": len(image),
                "torsion_order": len(st.torsion[0].elements),
                "coords": {str(x): [g, u] for x, g, u in sg.rees_coords},
            },
        },
        "torsion": {
            str(t.u): {
                "elements": list(t.elements),
                "op": [list(r) for r in t.op],
                "identity": t.u,
                "orders": {str(x): k for x, k in t.orders},
            } for t in st.torsion
        },
        "phi": [list(p) for p in st.descriptor.phi],
        "fineq": st.fineq,
        "cancellative": {
            "value": cancellative,
            "max_len": cancel_len,
            "witness": _witness_json(witness),
        },
        "latin": latin,
        "growth": gr,
        "center": {
            "degree": deg,
            "dimension": len(basis),
            "basis": [[str(c) for c in vec] for vec in basis],
        },
        "algebra": {
            "left_noetherian": {"verdict": "always", "value": True},
            "right_noetherian": {
                "verdict": "right Noetherian iff the diagonal is a singleton",
                "value": singleton,
            },
            "central": {
                "verdict": "the center exceeds the scalars iff the diagonal is a singleton",
                "value": singleton,
            },
            "semiprime": {
                "verdict": "semiprime iff the diagonal is a singleton, "
                           "provided the field characteristic does not divide "
                           "the number of points",
                "value": singleton,
            },
        },
        "discrepancies": discrepancies,
    }


def _witness_json(witness):
    if witness is None:
        return None
    side, a, b, m = witness
    return {"side": side, "a": [a.k, a.x], "b": [b.k, b.x], "m": [m.k, m.x]}


def cmd_analyze(args):
    try:
        s = promote(load_rmap(args.path))
    except (OSError, SolutionFormatError) as exc:
        return _fail(str(exc))
    except InvalidSolutionError as exc:
        _emit({"verification": exc.report}, args.pretty)
        return EXIT_INVALID
    report = _analyze_report(s, args.max_len, args.center)
    _emit(report, args.pretty)
    return EXIT_DISCREPANCY if report["discrepancies"] else EXIT_OK


def cmd_enumerate(args):
    budget = args.budget
    env = os.environ.get("YBX_BUDGET_SECS")
    try:
        if budget is None and env:
            budget = float(env)
        opts = EnumOptions(args.n, up_to_iso=args.up_to_iso, jobs=args.jobs,
                           budget_secs=budget)
    except ValueError as exc:
        return _fail(str(exc))
    result = enumerate_solutions(opts)
    text = functools.cache(_row_json)   # each distinct row encoded once
    for s in result.solutions:   # the bytes of _emit(rmap_to_dict(s))
        sys.stdout.write('{"lambda":[%s],"n":%d,"rho":[%s]}\n' % (
            ",".join(map(text, s.lam)), s.n, ",".join(map(text, s.rho))))
    summary = {
        "n": args.n,
        "count": len(result.solutions),
        "up_to_iso": args.up_to_iso,
        "incomplete": not result.complete,
    }
    if result.complete:
        strata = diagonal_strata(result)
        summary["classes"] = sum(len(forms) for forms in strata.values())
        summary["by_diagonal_size"] = {str(size): len(forms)
                                       for size, forms in strata.items()}
    _emit(summary, args.pretty)
    return EXIT_OK if result.complete else EXIT_BUDGET


def cmd_construct(args):
    try:
        params = read_json(args.params)
        if not isinstance(params, dict):
            return _fail("params must be a JSON object")
        if args.type == "perm":
            s = from_permutation(params["images"])
            _emit(rmap_to_dict(s), args.pretty)
            return EXIT_OK
        if args.type == "group-aut":
            s = from_group_automorphism(params["table"], params["phi"])
            _emit(rmap_to_dict(s), args.pretty)
            return EXIT_OK
        if args.type == "descriptor":
            rep = descriptor_report(descriptor_from_dict(params))
            return _emit_descriptor_reports(rep, args.pretty)
        if args.type == "rees-example":
            rep = from_rees_example(params["group"], params["ncols"],
                                    params["A"], params["t"], params["f"],
                                    params["psi"])
            return _emit_descriptor_reports(rep, args.pretty)
    except KeyError as exc:
        return _fail(f"missing key: {exc.args[0]}")
    except (OSError, TypeError, ValueError) as exc:
        return _fail(str(exc))
    raise AssertionError("unreachable")


def _emit_descriptor_reports(rep, pretty):
    """Identity report and direct verification, computed independently."""
    dsc = rep.descriptor
    out = {
        "descriptor": dsc,
        "fineq": rep.fineq,
        "candidate": rmap_to_dict(rep.candidate),
        "verification": rep.verification,
        "q_idempotents": q_image_in_idempotents(dsc),
        "table_discrepancies": descriptor_diagnostics(dsc),
    }
    _emit(out, pretty)
    if rep.fineq.ok != rep.verification.ok:
        return EXIT_DISCREPANCY
    return EXIT_OK if rep.verification.ok else EXIT_INVALID


def cmd_groebner(args):
    if args.constant_lambda is not None:
        rs = constant_rules(args.constant_lambda)
        overlaps = check_overlaps(rs)
        out = {
            "system": rs.to_json(),
            "confluent": not overlaps,
            "unresolved": len(overlaps),
            "normal_word_counts": normal_word_count(rs, args.max_deg),
        }
        _emit(out, args.pretty)
        return EXIT_OK
    try:
        s = promote(load_rmap(args.path))
    except (OSError, SolutionFormatError) as exc:
        return _fail(str(exc))
    except InvalidSolutionError as exc:
        _emit({"verification": exc.report}, args.pretty)
        return EXIT_INVALID
    rs, report = solution_rules(s)
    counts = normal_word_count(rs, args.max_deg)
    oracle = list(growth(s, args.max_deg).oracle)
    out = {"system": rs.to_json(), "completion": report, "growth": oracle}
    if report.confluent:
        out["normal_word_counts"] = counts
        out["counts_match_growth"] = counts == oracle
    else:
        out["normal_word_count_upper_bounds"] = counts
    _emit(out, args.pretty)
    return EXIT_OK


@functools.cache
def build_parser():
    parser = _Parser(
        prog="ybx",
        description="Verification, structure and search for finite idempotent "
                    "left non-degenerate set-theoretic Yang-Baxter solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a solution file")
    p.add_argument("path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="full structural report")
    p.add_argument("path")
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--center", type=_positive_int, default=None)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="exhaustive search")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("construct", help="build solutions from parameters")
    p.add_argument("--type", required=True,
                   choices=["perm", "group-aut", "descriptor", "rees-example"])
    p.add_argument("--params", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("groebner", help="rewriting systems and word counts")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("path", nargs="?")
    source.add_argument("--constant-lambda", type=_positive_int, default=None)
    p.add_argument("--max-deg", type=_positive_int, default=8)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_groebner)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
