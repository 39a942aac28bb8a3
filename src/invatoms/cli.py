"""Command line front end for the involution atom library.

atoms, words, and hecke answer single queries; poset and classes export
the type A structures; verify re-runs the module checkers; sweep spreads
the minimal-length comparison over worker processes. Exit codes: 0 for
success, 1 when a verification reports failures, 2 for usage errors, 3 for
internal errors, and 141 (128 + SIGPIPE, as a shell reports it) when the
reader of stdout closed before the output was written.

Only ``coxeter`` is imported with this module: every verb parses its system
with it. Each handler imports the rest of the library it calls when it runs,
so a verb compiles no module it does not use.
"""

import argparse
import json
import os
import re
import sys

from . import coxeter as cx

WORDS_CAP = 100000  # the most transforming words the words verb lists


class UsageError(ValueError):
    pass


# -- input parsing -----------------------------------------------------------


def parse_one_line(text):
    """A one-line permutation: "4,5,3,1,2", "[4,5,3,1,2]", or "45312"."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip()
    if not body:
        raise UsageError("empty permutation")
    if "," in body or any(ch.isspace() for ch in body):
        values = [int(p) for p in re.split(r"[,\s]+", body) if p]
    elif body.isdigit():
        values = [int(ch) for ch in body]
    else:
        raise UsageError("could not parse one-line permutation %r" % text)
    return tuple(values)


def parse_cycles(text, n=None):
    """Disjoint cycles like "(1,3)(2,5)"; unlisted letters are fixed."""
    body = text.strip()
    groups = re.findall(r"\(([^()]*)\)", body)
    if re.sub(r"\([^()]*\)", "", body).strip():
        raise UsageError("could not parse cycle notation %r" % text)
    mapping = {}
    for group in groups:
        entries = [int(p) for p in re.split(r"[,\s]+", group.strip()) if p]
        if not entries:
            continue
        for a in entries:
            if a < 1:
                raise UsageError("cycle entries must be positive")
            if a in mapping:
                raise UsageError("cycles overlap at %d" % a)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            mapping[a] = b
    top = max(mapping, default=0)
    if n is None:
        n = top
    elif top > n:
        raise UsageError("cycle entry %d exceeds the group size %d" % (top, n))
    return tuple(mapping.get(i, i) for i in range(1, n + 1))


def parse_permutation(text, n=None):
    """Either notation; a leading "(" selects cycles. Pads with fixed points."""
    if text.strip().startswith("("):
        return parse_cycles(text, n)
    w = parse_one_line(text)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise UsageError("not a permutation: %r" % text)
    if n is not None:
        if len(w) > n:
            raise UsageError("permutation is longer than the group size %d" % n)
        w = w + tuple(range(len(w) + 1, n + 1))
    return w


def parse_element(system, text):
    """Group element from text: a permutation for symmetric groups, a
    generator word like "1,2,1" otherwise. The keywords "id", "w0", and
    "wfpf" name the identity, the longest element, and the base matching."""
    body = text.strip()
    if body in ("", "id", "e"):
        return system.identity
    if body == "w0":
        return system.longest_element()
    if body == "wfpf":
        return _fpf_base(system, "wfpf")
    if cx.is_type_a_chain(system):
        return cx.permutation_to_element(system, parse_permutation(body, system.rank + 1))
    word = [int(p) for p in re.split(r"[,\s]+", body) if p]
    for s in word:
        if not 1 <= s <= system.rank:
            raise UsageError("generator %d out of range 1..%d" % (s, system.rank))
    return system.product(word)


def _fpf_base(system, name):
    """The FPF base element, for the keyword or flag name (type A only)."""
    if not cx.is_type_a_chain(system):
        raise UsageError("%s needs a symmetric group (type A chain)" % name)
    from . import typea as ta
    return cx.permutation_to_element(system, ta.fpf_base(system.rank + 1))


def parse_twist(system, text):
    if text in (None, "id"):
        return None
    if text == "auto":
        raise UsageError("--twist auto only makes sense for verify and sweep")
    if text.startswith("perm:"):
        body = text[len("perm:"):]
        return cx.normalize_twist(
            system, tuple(int(p) for p in re.split(r"[,\s]+", body.strip()) if p)
        )
    raise UsageError("invalid twist %r (use id, auto, or perm:...)" % text)


def twist_list(system, text):
    if text == "auto":
        return [tuple(t) for t in system.diagram_automorphisms()
                if cx.is_involutive_twist(system, t)]
    return [parse_twist(system, text)]


def _twist_name(system, twist):
    if twist is None or tuple(twist) == tuple(range(1, system.rank + 1)):
        return "id"
    return ",".join(str(v) for v in twist)


# -- output ------------------------------------------------------------------


def _emit(obj):
    print(json.dumps(obj))


def _words(system, elements):
    return [list(system.reduced_word(w)) for w in elements]


def _capped_words(tw, system, *query):
    count = tw.count_involution_words(system, *query)
    if count > WORDS_CAP:
        raise ValueError("%d transforming words, more than WORDS_CAP (%d)" % (count, WORDS_CAP))
    return [list(w) for w in tw.involution_words(system, *query)]


def _report_line(report):
    parts = []
    for key, value in report.items():
        if key == "failures":
            value = len(value)
        parts.append("%s: %s" % (key, value))
    return ", ".join(parts)


# -- verbs -------------------------------------------------------------------


def _default_start(system, args):
    if args.x is not None:
        return parse_element(system, args.x)
    if getattr(args, "fpf", False):
        return _fpf_base(system, "--fpf")
    return None


# pair verb -> (help, output key, its JSON answer from the twisted module)
_PAIR_VERBS = {
    "atoms": ("atoms from x to y", "atoms",
              lambda tw, system, *q: _words(system, tw.atoms(system, *q))),
    "words": ("transforming words from x to y", "words", _capped_words),
    "hecke": ("Hecke atoms from x to y", "hecke_atoms",
              lambda tw, system, *q: _words(system, tw.hecke_atoms(system, *q))),
}


def _cmd_pair(args):
    from . import twisted as tw
    system = cx.build_system(args.system)
    twist = parse_twist(system, args.twist)
    y = parse_element(system, args.y)
    x = _default_start(system, args)
    _, key, answer = _PAIR_VERBS[args.verb]
    _emit({key: answer(tw, system, y, x, twist)})
    return 0


def _cmd_poset(args):
    from . import orders as od
    n = None
    if args.system:
        system = cx.build_system(args.system)
        if not cx.is_type_a_chain(system):
            raise UsageError("poset needs a symmetric group (type A chain)")
        n = system.rank + 1
    x = parse_permutation(args.x, n)
    poset = od.atom_poset_fpf(x) if args.fpf else od.atom_poset(x)
    if args.dot:
        print(od.poset_to_dot(poset))
    else:
        _emit(od.poset_to_json(poset))
    return 0


def _cmd_classes(args):
    from . import orders as od
    body = args.x.strip()
    seq = parse_cycles(body) if body.startswith("(") else parse_one_line(body)
    cls = od.fpf_class(seq) if args.fpf else od.chinese_class(seq)
    _emit({"class": [list(u) for u in sorted(cls)]})
    return 0


def _report(system, twist, raw):
    """A checker report led by the system and the twist it ran under."""
    report = {"system": raw["system"], "twist": _twist_name(system, twist)}
    report.update((key, value) for key, value in raw.items() if key != "system")
    return report


def _finish(args, reports):
    """Print the reports, one text line each or one JSON list; 1 if any failed."""
    if args.json:
        _emit(reports)
    else:
        for r in reports:
            print(_report_line(r))
    return 1 if any(r["failures"] for r in reports) else 0


def _cmd_verify(args):
    system = cx.build_system(args.system)
    if args.what in ("chinese", "fpf"):
        if args.twist not in ("id", None):
            raise UsageError("the %s sweep has no twist; drop --twist" % args.what)
        if not cx.is_type_a_chain(system):
            raise UsageError("the %s sweep needs a symmetric group (type A chain)" % args.what)
        from . import orders as od
        check = od.verify_chinese if args.what == "chinese" else od.verify_fpf
        return _finish(args, [_report(system, None, check(system.rank + 1))])
    if args.what in ("braid", "fc"):
        from . import braid as br
        check = br.check_braid_classes if args.what == "braid" else br.check_fc_atoms
    else:
        from . import twisted as tw
        check = {
            "conjecture": tw.check_conjecture,
            "duality": lambda system, t: tw.check_duality(system, system.longest_element(), t),
            "b-prime": tw.check_bruhat_descriptions,
        }[args.what]
    return _finish(args, [_report(system, t, check(system, t))
                          for t in twist_list(system, args.twist)])


def _sweep_worker(payload):
    from . import twisted as tw
    spec, twist, ys = payload
    system = cx.build_system(spec)
    report = tw.check_conjecture(system, twist, ys=ys)
    return report["pairs_checked"], report["failures"]


def _sweep_chunks(invs, jobs):
    """Round-robin split of invs over jobs workers, at most one per CPU."""
    jobs = min(jobs, os.cpu_count() or 1)
    return [invs[i::jobs] for i in range(jobs) if invs[i::jobs]]


def _cmd_sweep(args):
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1, got %d" % args.jobs)
    from . import twisted as tw
    system = cx.build_system(args.system)
    reports = []
    for t in twist_list(system, args.twist):
        chunks = _sweep_chunks(tw.enumerate_twisted(system, t), args.jobs)
        if len(chunks) == 1:
            raw = tw.check_conjecture(system, t)
        else:
            pairs = 0
            failures = []
            # imported here: only a parallel sweep pays for multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                payloads = [(args.system, t, chunk) for chunk in chunks]
                for done, bad in pool.map(_sweep_worker, payloads):
                    pairs += done
                    failures.extend(bad)
            # by y, then x, each by (length, word): id order, as one sweep lists them
            failures.sort(key=lambda f: (len(f["y"]), f["y"], len(f["x"]), f["x"]))
            raw = cx.report(system, pairs, failures)
        reports.append(_report(system, t, raw))
    return _finish(args, reports)


_HANDLERS = {
    **{verb: _cmd_pair for verb in _PAIR_VERBS},
    "poset": _cmd_poset,
    "classes": _cmd_classes,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


# -- wiring ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invatoms",
        description="Atoms, transforming words, and atom orders for twisted "
                    "involutions in finite Coxeter groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, twist_default="id"):
        p.add_argument("--system", required=True,
                       help="system name (A4, B3, D4, H3, I2(7), A1xA1) or matrix text")
        p.add_argument("--twist", default=twist_default,
                       help="id, auto (verify/sweep only), or perm:3,2,1")
        p.add_argument("--json", action="store_true", help="emit JSON")

    def add_pair(p):
        add_common(p)
        p.add_argument("--y", required=True,
                       help="target involution (permutation for type A, word otherwise)")
        p.add_argument("--x", help="start involution (default: identity)")
        p.add_argument("--fpf", action="store_true",
                       help="start from the fixed-point-free base instead of the identity")

    for verb, (help_text, _, _) in _PAIR_VERBS.items():
        add_pair(sub.add_parser(verb, help=help_text))

    poset_p = sub.add_parser("poset", help="atom order of an involution in a symmetric group")
    poset_p.add_argument("--x", required=True, help="involution (cycles or one-line)")
    poset_p.add_argument("--system", help="optional symmetric group, e.g. A7 for S8")
    poset_p.add_argument("--fpf", action="store_true", help="fixed-point-free atom order")
    poset_p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    poset_p.add_argument("--json", action="store_true", help="emit JSON (the default)")

    classes_p = sub.add_parser("classes", help="rewriting class of a sequence")
    classes_p.add_argument("--x", required=True, help="sequence (one-line) or cycles")
    classes_p.add_argument("--fpf", action="store_true",
                           help="use the fixed-point-free rewriting relation")
    classes_p.add_argument("--json", action="store_true", help="emit JSON (the default)")

    verify_p = sub.add_parser("verify", help="re-run a module checker")
    verify_p.add_argument("what", choices=["conjecture", "chinese", "fpf", "braid",
                                           "duality", "b-prime", "fc"])
    add_common(verify_p)

    sweep_p = sub.add_parser("sweep", help="minimal-length comparison across processes")
    add_common(sweep_p, twist_default="auto")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker process count, at least 1 (at most the CPU count)")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        status = _HANDLERS[args.verb](args)
        sys.stdout.flush()  # so a closed reader shows up here, not at exit
        return status
    except BrokenPipeError:
        # nothing failed; point stdout at devnull so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: keep it apart from exits 1 and 2
        import traceback  # only a crash pays for it
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
