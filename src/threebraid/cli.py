"""Command line front end.

Subcommands cover the whole pipeline: classical invariants, Goeritz
matrices, the unknotting-number-one decision, the desk-scale enumeration,
correction-term tables, the surgery symmetry test, plain lattice
embeddings, the partial-witness generator, and the pretzel reproduction.

Verdicts are carried in the JSON/text output, never in the exit code:
0 means the computation ran to completion (whatever it concluded) and
2 means the input was malformed.
"""

import argparse
import json
import multiprocessing
import sys

from . import braid, embed, expansions, forms, goeritz, linalg


def _load_matrix(path):
    with open(path) as fh:
        return goeritz.load_goeritz_json(fh.read())


def _emit(args, doc, text_lines):
    """Write the --out file, then print: an unwritable file prints nothing."""
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for line in text_lines:
        print(line)


def _one_input(args, *names):
    """Refuse a command given more than one of its alternative inputs."""
    flags = {"word": "a braid word", "unknot": "--unknot", "matrix": "--matrix"}
    given = [flags[name] for name in names if getattr(args, name) is not None]
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} exclude each other")


def _word_from_text(text):
    raw = braid.parse_braid_word(text)
    word = braid.alt_canonical(raw)
    if word is None:
        raise ValueError(f"not an alternating 3-braid word: {text!r}")
    return word


def cmd_invariants(args):
    word = _word_from_text(args.word)
    rec = goeritz.invariants(word)
    doc = {"word": word.to_json(), "determinant": rec.determinant,
           "sigma": rec.signature, "s": rec.s_invariant, "n": rec.n,
           # an unknotting-number-one normal form has d in these, at any sigma
           "d_bound": [-1, 0, 1, 2]}
    _emit(args, doc, [
        f"word: {word.pairs}",
        f"determinant: {rec.determinant} = 2*{rec.n} - 1",
        f"signature: {rec.signature}",
        f"s invariant: {rec.s_invariant}",
    ])
    return 0


def cmd_goeritz(args):
    word = _word_from_text(args.word)
    form = goeritz.goeritz_3braid(word)
    doc = form.to_json()
    doc["regions"] = [[c.to_json() for c in region] for region in form.region_map]
    doc["cycle"] = [c.to_json() for c in form.cycle_edges]
    lines = [f"word: {word.pairs}"] + [str(list(row)) for row in form.matrix]
    _emit(args, doc, lines)
    return 0


def _u1_word(args):
    word = _word_from_text(args.word)
    report = embed.u1_pipeline(word, enforce_change_making=not args.no_change_making)
    lines = [
        f"word: {word.pairs}",
        f"determinant: {report.determinant}   sigma: {report.sigma}   "
        f"n: {report.n}   epsilon: {report.epsilon}",
        f"stage: {report.stage}   verdict: {report.verdict}",
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    if not report.change_making_enforced:
        lines.append("note: change-making disabled; witnesses are not certificates")
    for w in report.witnesses:
        lines.append(f"witness ({w.case}{', mirrored' if w.mirrored else ''}):")
        for row in w.matrix.rows:
            lines.append(f"  {list(row)}")
        if w.crossing is not None:
            lines.append(f"  crossing: letter {w.crossing.letter_index}, "
                         f"slot {w.crossing.strand_slot}; verified: {w.verified}")
    _emit(args, report.to_json(), lines)
    return 0


def _u1_matrix(args):
    form = _load_matrix(args.matrix)
    if args.sigma is None:
        raise ValueError("--matrix input needs --sigma (0 or 2)")
    if args.sigma not in (0, 2):
        raise ValueError("mirror the diagram first: --sigma must be 0 or 2")
    d = goeritz.determinant(form)
    # refuses an even D, and a D not congruent to sigma + 1 mod 4; a bare
    # matrix has no word, so no s-invariant
    n = goeritz.InvariantRecord(d, args.sigma, None).n
    stage, (sols,) = embed.search_stage([form], not args.no_change_making)
    doc = {"determinant": d, "sigma": args.sigma, "n": n,
           "stage": stage, "witnesses": [a.to_json() for a in sols],
           "note": "external matrix: no diagram, so no crossing extraction; "
                   "a sigma-0 obstruction covers the supplied side only"}
    lines = [f"determinant: {d}   n: {n}", f"stage: {stage}"]
    for a in sols:
        lines.append("witness matrix:")
        lines.extend(f"  {list(row)}" for row in a.rows)
    _emit(args, doc, lines)
    return 0


def cmd_u1(args):
    _one_input(args, "word", "matrix")
    if args.matrix:
        return _u1_matrix(args)
    if not args.word:
        raise ValueError("need a braid word or --matrix FILE")
    if args.sigma is not None:
        raise ValueError("--sigma goes with --matrix; "
                         "a word's signature is computed")
    return _u1_word(args)


def _enumerate_one(word):
    report = embed.u1_pipeline(word)
    family = bool(braid.unknotting_crossings(word))
    return {"word": list(word.pairs), "determinant": report.determinant,
            "sigma": report.sigma, "stage": report.stage,
            "verdict": report.verdict, "family_test": family}


def cmd_enumerate(args):
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.bound < 2:
        # the smallest knot word, s1^-1 s2, has total exponent 2
        raise ValueError("--bound must be at least 2")
    words = [w for w in braid.alt_words(args.bound)
             if braid.is_knot_closure(w.raw())]
    if args.workers > 1:
        with multiprocessing.Pool(args.workers) as pool:
            results = pool.map(_enumerate_one, words)
    else:
        results = [_enumerate_one(p) for p in words]
    lines = []
    agree = True
    for res in results:
        wit = res["verdict"] == "witness"
        fam = res["family_test"]
        mark = "" if (wit == fam or res["determinant"] == 1) else "  <-- MISMATCH"
        agree = agree and not mark
        lines.append(f"{tuple(map(tuple, res['word']))}: det {res['determinant']}"
                     f" sigma {res['sigma']} stage {res['stage']}"
                     f" family {fam}{mark}")
    lines.append(f"{len(results)} knot words; pipeline/family agreement: {agree}"
                 " (determinant-one closures exempt)")
    _emit(args, {"bound": args.bound, "results": results}, lines)
    return 0


def cmd_dtable(args):
    _one_input(args, "word", "unknot", "matrix")
    if args.unknot is not None:
        table = forms.d_table_halfint_unknot(args.unknot)
        title = f"half-integer surgery on the unknot, D = {args.unknot}"
    elif args.matrix:
        form = _load_matrix(args.matrix)
        table = forms.d_table_sharp(form.matrix)
        title = f"sharp form from {args.matrix}"
    else:
        if not args.word:
            raise ValueError("need a braid word, --unknot D, or --matrix FILE")
        word = _word_from_text(args.word)
        table = forms.d_table_sharp(goeritz.goeritz_3braid(word).matrix)
        title = f"branched double cover of {word.pairs}"
    lines = [title] + [f"  {i}: {v}" for i, v in enumerate(table.values)]
    _emit(args, table.to_json(), lines)
    return 0


def cmd_symmetry(args):
    _one_input(args, "word", "matrix")
    if args.matrix:
        form = _load_matrix(args.matrix)
        d = goeritz.determinant(form)
        sides = forms.symmetry_sides(form.matrix)
        passed = sides["table"] or sides["negated"]
        word_json = None
    else:
        if not args.word:
            raise ValueError("need a braid word or --matrix FILE")
        word = _word_from_text(args.word)
        passed, sides = embed.word_symmetry_obstruction(word)
        d = goeritz.determinant(goeritz.goeritz_3braid(word))
        word_json = word.to_json()
    doc = {"word": word_json, "determinant": d, "passed": passed,
           "sides": sides}
    verdict = ("compatible with unknotting number one" if passed
               else "obstruction fires: unknotting number is not one")
    _emit(args, doc, [f"determinant: {d}", f"sides: {sides}", verdict])
    return 0


def cmd_embed(args):
    form = _load_matrix(args.matrix)
    classes = embed.embed_form(form.matrix, args.target_rank)
    lines = [f"{len(classes)} embedding class(es) into rank {args.target_rank}"]
    for b in classes:
        lines.append("embedding:")
        lines.extend(f"  {list(row)}" for row in b)
    _emit(args, {"classes": [[list(r) for r in b] for b in classes]}, lines)
    return 0


def cmd_b0(args):
    layers = expansions.generate_balanced(args.rmax)
    doc = {"counts": {str(r): len(ms) for r, ms in layers.items()},
           "members": {str(r): [pe.to_json() for pe in ms]
                       for r, ms in layers.items()}}
    lines = [f"r = {r}: {len(ms)} member(s)" for r, ms in layers.items()]
    if args.check:
        col_ok = all(expansions.column_multiset_check(pe)
                     for ms in layers.values() for pe in ms)
        blocked = expansions.no_orthogonal_completion_in(layers)
        doc["column_multisets_ok"] = col_ok
        doc["no_orthogonal_completion"] = blocked
        lines.append(f"column multisets ok: {col_ok}")
        lines.append(f"orthogonal-marks members admit no witness x row: {blocked}")
    _emit(args, doc, lines)
    return 0


def _pad(a, n):
    """The embedding a with zero columns appended up to width n."""
    return tuple(row + (0,) * (n - len(row)) for row in a)


def cmd_pretzel_check(args):
    m = forms.PRETZEL_FORM
    coker = forms.coker_map(m)
    lines = [f"plumbing determinant: {linalg.det(m)}",
             f"cokernel order: {coker.order} (invariant factors "
             f"{coker.invariant_factors})"]
    doc = {"determinant": linalg.det(m), "order": coker.order,
           "embeddings": {}, "coverage": {}}
    ok = True
    classes = {n: embed.embed_form(m, n) for n in (5, 6, 7)}
    for n, found in classes.items():
        want = 1 if n == 5 else 2
        ok = ok and len(found) == want
        doc["embeddings"][str(n)] = len(found)
        lines.append(f"embeddings into rank {n}: {len(found)} (expected {want})")
    # A1 is the one rank-5 class; A2 the rank-6 class that is not A1 padded
    a1 = classes[5][0]
    a2 = next(b for b in classes[6] if b != _pad(a1, 6))
    full = {(i,) for i in range(coker.order)}
    for n in (5, 6, 7, 8):
        cov = forms.one_vector_coverage(_pad(a1, n))
        doc["coverage"][f"A1@{n}"] = sorted(c[0] for c in cov)
        ok = ok and len(full - cov) == 6
        lines.append(f"A1 width {n}: misses {len(full - cov)} of {coker.order}")
    for n in (6, 7, 8):
        cov = forms.one_vector_coverage(_pad(a2, n))
        doc["coverage"][f"A2@{n}"] = sorted(c[0] for c in cov)
        ok = ok and full - cov == {(0,)}
        lines.append(f"A2 width {n}: misses {sorted(c[0] for c in full - cov)}")
    doc["sharpness_excluded"] = ok
    lines.append("both stable embeddings miss classes, so no sharp filling exists: "
                 + ("confirmed" if ok else "NOT confirmed"))
    _emit(args, doc, lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="threebraid",
        description="Unknotting number one for alternating 3-braid knots, "
                    "by exact lattice embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="determinant, signature, s")
    p.add_argument("word")
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("goeritz", help="Goeritz matrix with crossing maps")
    p.add_argument("word")
    p.add_argument("--out")
    p.set_defaults(func=cmd_goeritz)

    p = sub.add_parser("u1", help="decide unknotting number one")
    p.add_argument("word", nargs="?")
    p.add_argument("--matrix", help="external Goeritz JSON instead of a word")
    p.add_argument("--sigma", type=int, help="signature, required with --matrix")
    p.add_argument("--no-change-making", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_u1)

    p = sub.add_parser("enumerate", help="sweep all words up to a size bound")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dtable", help="correction term tables")
    p.add_argument("word", nargs="?")
    p.add_argument("--unknot", type=int, help="unknot table for this odd D")
    p.add_argument("--matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dtable)

    p = sub.add_parser("symmetry", help="half-integer surgery symmetry test")
    p.add_argument("word", nargs="?")
    p.add_argument("--matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("embed", help="all embeddings of a form")
    p.add_argument("--matrix", required=True)
    p.add_argument("--target-rank", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("b0", help="generate balanced partial witnesses")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_b0)

    p = sub.add_parser("pretzel-check", help="reproduce the non-sharp pretzel")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pretzel_check)

    return parser


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
