"""Command-line front end.

Subcommands: gen, solve, bounds, verify, reduce, claims. Graph files use the
shared edge-list format (header "n m", then one "u v" line per edge). Exit
codes: 0 success, 1 invalid input or failed verification, 2 size-limit abort.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .claims import EXCLUDED_CLAIMS, verify_claims
from .cover import (
    format_witness,
    parse_witness,
    verify_strong_witness,
    verify_weak_cover,
)
from .families import (
    FAMILY_NAMES,
    FamilyParamError,
    FamilySpec,
    UnknownFamilyError,
    generate,
)
from .graph import (
    EnumerationCapError,
    Graph,
    GraphError,
    format_edgelist,
    format_labels,
    parse_edgelist,
)
from .reduction import check_reduction, format_roles, reduce_vc
from .report import claim_record, result_record, to_csv, to_json
from .solve import (
    STRONG,
    WEAK,
    SizeLimitError,
    compute_bounds,
    naive_oracle,
    solve_exact,
    solve_greedy,
)


def _load_graph(path: str) -> Graph:
    return parse_edgelist(Path(path).read_text())


def _parse_ids(tokens: list[str]) -> list[int]:
    ids = []
    for token in tokens:
        for part in token.replace(",", " ").split():
            ids.append(int(part))
    return ids


def _cmd_gen(args) -> int:
    spec = FamilySpec(args.family, tuple(args.params))
    G = generate(spec)
    out = Path(args.out)
    out.write_text(format_edgelist(G))
    Path(str(out) + ".labels").write_text(format_labels(G))
    print(f"wrote {G.n} vertices, {G.m} edges to {out}")
    return 0


def _cmd_solve(args) -> int:
    if args.witness_out and args.variant == WEAK:
        print("error: --witness-out needs --variant strong: a weak cover "
              "has no witness", file=sys.stderr)
        return 1
    G = _load_graph(args.infile)
    method = args.method
    if method == "exact":
        result = solve_exact(G, args.k, args.variant)
    elif method == "greedy":
        result = solve_greedy(G, args.k, args.variant)
    else:
        result = naive_oracle(G, args.k, args.variant)
    set_text = " ".join(str(v) for v in result.set)
    print(f"variant={result.variant} k={result.k} method={method} "
          f"status={result.status} optimum={result.optimum} set=[{set_text}]")
    print(f"nodes={result.stats.nodes} elapsed_s={result.stats.elapsed_s:.4f}")
    if args.witness_out:
        Path(args.witness_out).write_text(format_witness(result.witness))
    if args.json:
        record = result_record(G, result)
        Path(args.json).write_text(to_json(record))
    return 0


def _cmd_bounds(args) -> int:
    G = _load_graph(args.infile)
    bounds = compute_bounds(G, args.k)
    for name, value in bounds.as_dict().items():
        note = ""
        if name in ("diameter_ub", "half_ub"):
            note = "  (monitored claim)"
        print(f"{name} = {'n/a' if value is None else value}{note}")
    return 0


def _cmd_verify(args) -> int:
    G = _load_graph(args.infile)
    S = _parse_ids(args.set)
    if args.witness:
        witness = parse_witness(G, Path(args.witness).read_text())
        ok = verify_strong_witness(G, S, args.k, witness)
        print(f"strong witness valid: {ok}")
    else:
        ok = verify_weak_cover(G, S, args.k)
        print(f"weak cover valid: {ok}")
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    G = _load_graph(args.infile)
    red = reduce_vc(G, args.k)
    out = Path(args.out)
    out.write_text(format_edgelist(red.gadget))
    Path(str(out) + ".roles").write_text(format_roles(red))
    print(f"gadget: {red.gadget.n} vertices, {red.gadget.m} edges, "
          f"offset {red.offset}")
    if args.check:
        chk = check_reduction(G, args.k)
        print(f"size formulas hold: {chk.sizes_ok}")
        print(f"vertex cover: {chk.vc_size} {list(chk.vc_set)}")
        print(f"designated cover set: {list(chk.witness_set)}")
        print(f"forward witness valid: {chk.forward_ok} "
              f"(claimed optimum <= {chk.claimed_ub})")
        if chk.exact_optimum is None:
            print("exact optimum: skipped (gadget above exact check limit)")
        else:
            print(f"exact optimum: {chk.exact_optimum} "
                  f"(equality with vc + offset: {chk.equality})")
    return 0


def _cmd_claims(args) -> int:
    families = None if args.family == "all" else [args.family]
    reports = verify_claims(families=families, max_n=args.max_n)
    for r in reports:
        params = ",".join(str(p) for p in r.params)
        computed = "-" if r.computed is None else r.computed
        print(f"{r.claim.family}({params}) {r.claim.variant:6s} "
              f"{r.claim.kind:11s} n={r.n:<3d} claimed={r.claimed:<4d} "
              f"computed={computed:<4} {r.status}")
    counted: dict[str, int] = {}
    for r in reports:
        counted[r.status] = counted.get(r.status, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counted.items()))
    print(f"-- {len(reports)} instances ({summary})")
    if args.family == "all":
        for family, claim, why in EXCLUDED_CLAIMS:
            print(f"-- permanently skipped: {family} [{claim}]: {why}")
    if args.csv:
        Path(args.csv).write_text(to_csv(claim_record(r) for r in reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcover",
        description="shortest-path union cover workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--params", required=True, type=int, nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve one cover instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--variant", required=True, choices=(WEAK, STRONG))
    p.add_argument("--method", default="exact",
                   choices=("exact", "greedy", "oracle"))
    p.add_argument("--json", help="write the result record as JSON")
    p.add_argument("--witness-out", help="write the strong witness")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="evaluate the general bounds")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="verify a cover set or witness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--set", required=True, nargs="+")
    p.add_argument("--witness", help="witness file; checks the strong variant")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="build the vertex-cover gadget")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--check", action="store_true",
                   help="also run the reduction checker")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("claims", help="sweep the claims registry")
    p.add_argument("--family", default="all")
    p.add_argument("--max-n", dest="max_n", type=int, default=12)
    p.add_argument("--csv", help="write the sweep as CSV")
    p.set_defaults(func=_cmd_claims)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SizeLimitError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, UnknownFamilyError, FamilyParamError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
