"""Command-line front end: canonical forms, graphs, elementary maps, exact
realizations, and the batch verification suites.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage or
input parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .codes import (
    INCLUSION,
    Code,
    CodeParseError,
    ElementaryMap,
    _clip,
    apply_elementary_map,
    cc_family,
    cr_family,
    parse_code,
    word_label,
)
from .graphs import (
    CodeGraph,
    ccg,
    complex_to_json_obj,
    diameter,
    graph_to_json_obj,
    gr_complex,
    grg,
    is_complete,
    to_dot,
)
from .ideal import CanonicalForm, canonical_form, canonical_form_oracle, predict_cf
from .realization import (
    IntervalCover,
    _cf_of_realized,
    cc_m_intervals,
    code_of_intervals,
    code_of_segments,
    cover_from_json_obj,
    cover_to_json_obj,
    cr_k_polygon,
)
from .verify import DEFAULT_SEED, MAX_JOBS, SUITES, Check


def _digest(obj) -> str:
    # hashlib takes about 3 ms to import, and only --json reports need it
    import hashlib

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _render(obj, pad: str, out: list[str]) -> None:
    """Append the chunks of `json.dumps(obj, indent=2, sort_keys=True)` to
    `out` (`json` encodes in pure Python whenever `indent` is set); `pad` is a
    newline plus the indent of `obj`'s line. A type other than a str-keyed
    dict, list, tuple, str, int, bool or None raises TypeError."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"dict key of type {type(key).__name__} in a report")
            out += (sep, encode_basestring_ascii(key), ": ")
            _render(obj[key], inner, out)
            sep = comma
        out.append(pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(sep)
            _render(item, inner, out)
            sep = comma
        out.append(pad + "]" if obj else "[]")
    else:
        raise TypeError(f"object of type {type(obj).__name__} in a report")


class _NotAnInt(ValueError, argparse.ArgumentTypeError):
    """A ValueError that argparse prints as it is, after the flag's name."""


def _ascii_int(text: str) -> int:
    """int(text) when text is ASCII digits after an optional '-', with
    optional whitespace around them; ValueError for anything else, such as
    '+1', '1_0' or other scripts' digits. Every integer the CLI reads, from
    a flag, a family spec or a permutation, goes through here."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] == "-" else digits
    if not (digits.isascii() and digits.isdigit()):
        raise _NotAnInt(f"not a decimal integer: {_clip(text)}")
    return int(text)


def _load_json(text: str, what: str):
    """json.loads(text), raising CodeParseError if it is bad or nested too deep."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CodeParseError(f"bad {what} JSON: {exc}") from exc


def _family(spec: str, cc, cr):
    """Parse `cc:<m>` or `cr:<k>` and build it with `cc` or `cr`."""
    kind, _, num = spec.partition(":")
    build = {"cc": cc, "cr": cr}.get(kind)
    if build is None:
        raise CodeParseError(f"unknown family {_clip(kind)}; expected cc:<m> or cr:<k>")
    try:
        value = _ascii_int(num)
    except ValueError:
        raise CodeParseError(f"bad family {_clip(spec)}; expected cc:<m> or cr:<k>") from None
    return build(value)


def _resolve_code(args) -> Code:
    if args.family and args.code is not None:
        raise CodeParseError("pass a code argument or --family, not both")
    if args.family:
        return _family(args.family, cc_family, cr_family)
    if args.code is None:
        raise CodeParseError("no input code: pass a code argument or --family")
    return parse_code(args.code)


def _cf_lines(cf: CanonicalForm, title: str) -> list[str]:
    lines = [f"{title} ({len(cf)} elements):"]
    lines.extend(f"  {t}" for t in cf.to_text_lines())
    return lines


def _verdict(check: Check) -> str:
    return "PASS" if check.passed else "FAIL"


def _cf_check(name: str, detail: str, forms: dict[str, CanonicalForm], context=dict) -> Check:
    """Check `name`, passed when the two canonical forms in `forms` are equal.
    Only when they differ is its counterexample built: `context()` plus each
    form's JSON under its key, so a passing report builds neither."""
    first, second = forms.values()
    counter = None if first == second else {
        **context(), **{key: cf.to_json_obj() for key, cf in forms.items()}}
    return Check(name, counter is None, detail, counter)


# Each _cmd_* handler returns (digest, outputs, checks, build_text). Only for
# --json does `main` build `outputs`, calling each value that is a function,
# and hash `digest(outputs)` into the report; only without it does it call
# `build_text()` for the lines of the plain-text report.


def _cmd_cf(args):
    code = _resolve_code(args)
    cf = canonical_form(code)
    outputs = {"code": code.to_json_obj, "cf": cf.to_json_obj}
    checks = []
    if args.oracle:
        checks.append(_cf_check("oracle-agreement", "3^n vanishing sweep vs incremental fold",
                                {"incremental": cf, "oracle": canonical_form_oracle(code)}))

    def build_text():
        lines = [f"code: {code.to_text()}  (n={code.n}, {len(code)} codewords)"]
        lines += _cf_lines(cf, "canonical form")
        lines += [f"oracle agreement: {_verdict(c)}" for c in checks]
        return lines
    return itemgetter("code"), outputs, checks, build_text


def _graph_summary(g):
    """The summary of `g` for --json, and a builder of its text lines."""
    degrees = sorted({bits.bit_count() for bits in g.nbrs})
    regular_k = degrees[0] if len(degrees) == 1 else None
    diam = diameter(g)
    summary = {
        "vertices": len(g.vertices),
        "edges": sum(bits.bit_count() for bits in g.nbrs) // 2,
        "connected": diam != math.inf,
        "complete": is_complete(g),
        "regular": regular_k,
        "diameter": None if diam == math.inf else diam,
    }

    def build_text():
        return [
            f"vertices: {summary['vertices']}, edges: {summary['edges']}",
            f"connected: {str(summary['connected']).lower()}",
            f"complete: {str(summary['complete']).lower()}",
            "regular: " + (f"yes (k={regular_k})" if regular_k is not None else
                           f"no (degrees {','.join(map(str, degrees))})"),
            "diameter: " + ("inf" if summary["diameter"] is None else str(diam)),
        ]
    return summary, build_text


def _cmd_graph(args):
    if args.cf is not None and args.which == "ccg":
        raise CodeParseError("--cf applies to grg and gr-complex, not ccg")
    if args.cf is not None and (args.code is not None or args.family):
        given = "a code argument" if args.code is not None else "--family"
        raise CodeParseError(f"pass {given} or --cf, not both")
    if args.dot and args.which == "gr-complex":
        raise CodeParseError("--dot applies to ccg and grg, not gr-complex")
    outputs, digest = {}, itemgetter("code")
    if args.which == "ccg":
        code = _resolve_code(args)
        outputs["code"] = code.to_json_obj
        g = ccg(code)
        g = CodeGraph(tuple(map(word_label, g.vertices)), g.nbrs)
    else:
        if args.cf is not None:
            cf = CanonicalForm.from_json_obj(_load_json(args.cf, "--cf"))
            digest = itemgetter("cf")
        else:
            code = _resolve_code(args)
            cf = canonical_form(code)
            outputs["code"] = code.to_json_obj
        outputs["cf"] = cf.to_json_obj
        if args.which == "gr-complex":
            sc = gr_complex(cf)
            outputs["complex"] = lambda: complex_to_json_obj(sc)
            return digest, outputs, [], lambda: [
                "facets: " + "; ".join(map(word_label, sc.facets))]
        g = grg(cf)
    outputs["graph"] = lambda: graph_to_json_obj(g)
    if args.dot:
        outputs["dot"] = to_dot(g)
        outputs["summary"] = lambda: _graph_summary(g)[0]
        return digest, outputs, [], lambda: [outputs["dot"]]
    outputs["summary"], build_text = _graph_summary(g)
    return digest, outputs, [], build_text


def _spec_from_args(args) -> ElementaryMap:
    if args.permute is not None:
        try:
            perm = [_ascii_int(x) for x in args.permute.split(",")]
        except ValueError:
            raise CodeParseError(f"bad permutation {_clip(args.permute)}") from None
        return ElementaryMap.permutation(perm)
    if args.add_on:
        return ElementaryMap.add_trivial_on()
    if args.add_off:
        return ElementaryMap.add_trivial_off()
    if args.duplicate is not None:
        return ElementaryMap.duplicate(args.duplicate)
    if args.delete is not None:
        return ElementaryMap.delete(args.delete)
    return ElementaryMap.inclusion(parse_code(args.include))


def _cmd_map(args):
    code = _resolve_code(args)
    spec = _spec_from_args(args)
    image, _cmap = apply_elementary_map(code, spec)
    described = spec.describe()
    image_cf = canonical_form(image)
    outputs = {"code": code.to_json_obj, "map": described,
               "image": image.to_json_obj, "image_cf": image_cf.to_json_obj}
    checks = []
    predicted = None
    if spec.kind != INCLUSION:
        predicted = predict_cf(canonical_form(code), spec)
        outputs["predicted_cf"] = predicted.to_json_obj
        checks.append(_cf_check("cf-prediction",
                                "transformation rule vs canonical form of the image",
                                {"predicted": predicted, "computed": image_cf},
                                lambda: {"code": code.to_text(), "map": described}))

    def build_text():
        lines = [f"code:  {code.to_text()}  (n={code.n})",
                 f"map:   {described}",
                 f"image: {image.to_text()}  (n={image.n})"]
        lines += _cf_lines(image_cf, "computed CF(image)")
        if predicted is None:
            lines.append("prediction: unsupported for inclusion maps (map still applied)")
        else:
            lines += _cf_lines(predicted, "predicted CF(image)")
            lines.append(f"prediction matches computed: {_verdict(checks[0])}")
        return lines
    return lambda built: {"code": built["code"], "map": described}, outputs, checks, build_text


def _cmd_realize(args):
    if args.family and args.cover is not None:
        raise CodeParseError("pass cover JSON or --family, not both")
    if args.family:
        cover = _family(args.family, cc_m_intervals, cr_k_polygon)
    elif args.cover:
        cover = cover_from_json_obj(_load_json(args.cover, "cover"))
    else:
        raise CodeParseError("no input cover: pass cover JSON or --family")
    if isinstance(cover, IntervalCover):
        realized = code_of_intervals(cover)
    else:
        realized = code_of_segments(cover)
    outputs = {"cover": lambda: cover_to_json_obj(cover), "code": realized.to_json_obj}
    checks = []
    geometric = None
    if args.cf:
        if not isinstance(cover, IntervalCover):
            raise CodeParseError("--cf applies to interval covers only")
        geometric = _cf_of_realized(realized)
        outputs["cf"] = geometric.to_json_obj
        checks.append(_cf_check("cover-cf-theorem",
                                "canonical form from geometry vs from the realized code",
                                {"geometric": geometric, "algebraic": canonical_form(realized)}))

    def build_text():
        lines = [realized.to_text()]
        if geometric is not None:
            lines += _cf_lines(geometric, "canonical form from cover")
            lines.append(f"matches canonical form of realized code: {_verdict(checks[0])}")
        return lines
    return itemgetter("cover"), outputs, checks, build_text


# verify flag -> the suite parameters it sets, wherever the suite takes them.
_VERIFY_FLAGS = {
    "n": ("n", "max_n"),
    "trials": ("trials", "random_covers"),
    "max": ("max_m", "max_k", "max_family"),
    "seed": ("seed",),
    "sample": ("sample",),
    "exhaustive": ("exhaustive",),
    "jobs": ("jobs",),
}


def _cmd_verify(args):
    suite = SUITES.get(args.suite)
    if suite is None:
        raise CodeParseError(f"unknown suite {_clip(args.suite)}; choose from "
                             + ", ".join(sorted(SUITES)))
    # inspect takes several ms to import, and only this command needs it;
    # its signature follows the __wrapped__ of a functools.wraps wrapper
    import inspect

    takes = inspect.signature(suite).parameters
    kwargs, given = {}, []
    for flag, params in _VERIFY_FLAGS.items():
        value = getattr(args, flag)
        if value is None or value is False:
            continue
        targets = [p for p in params if p in takes]
        if not targets:
            raise CodeParseError(f"--{flag} does not apply to suite {args.suite!r}")
        kwargs.update(dict.fromkeys(targets, value))
        given.append(f"--{flag}" if value is True else f"--{flag} {value}")
    try:
        result = suite(**kwargs)
    except ValueError as exc:
        raise CodeParseError(f"{exc} (from {', '.join(given)})" if given else str(exc)) from None
    outputs = {"suite": result.suite, "params": result.params}

    def build_text():
        lines = [f"suite: {result.suite}"]
        for c in result.checks:
            lines.append(f"  [{_verdict(c)}] {c.name}: {c.detail}")
            if c.counterexample is not None:
                lines.append(f"    counterexample: {json.dumps(c.counterexample, sort_keys=True)}")
        return lines
    return lambda _: {"suite": args.suite, **result.params}, outputs, result.checks, build_text


def _cmd_family(args):
    code = _family(args.family, cc_family, cr_family)
    return itemgetter("code"), {"code": code.to_json_obj}, [], lambda: [code.to_text()]


def _add_code_inputs(sub):
    sub.add_argument("code", nargs="?", help="code text, e.g. '{};{1,2};{2,3}'")
    sub.add_argument("--family", help="named family instead of code text: cc:<m> or cr:<k>")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built on
    the first call and shared by later ones: each parse returns a fresh
    namespace, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="neurocode",
        description="Combinatorial neural codes: canonical forms, code graphs, "
                    "elementary maps, and exact convex realizations.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_cf = subs.add_parser("cf", help="canonical form of a code's neural ideal")
    _add_code_inputs(p_cf)
    p_cf.add_argument("--oracle", action="store_true",
                      help="cross-check against the 3^n vanishing-sweep oracle")
    p_cf.set_defaults(handler=_cmd_cf)

    p_graph = subs.add_parser("graph", help="containment graph, relationship graph/complex")
    p_graph.add_argument("which", choices=["ccg", "grg", "gr-complex"])
    _add_code_inputs(p_graph)
    p_graph.add_argument("--cf", help="canonical form JSON instead of a code (grg/gr-complex)")
    p_graph.add_argument("--dot", action="store_true", help="emit DOT text")
    p_graph.set_defaults(handler=_cmd_graph)

    p_map = subs.add_parser("map", help="apply an elementary code map")
    _add_code_inputs(p_map)
    group = p_map.add_mutually_exclusive_group(required=True)
    group.add_argument("--permute", metavar="G", help="permutation as images of 1..n, e.g. 2,1,3")
    group.add_argument("--add-on", action="store_true", help="add an always-firing neuron")
    group.add_argument("--add-off", action="store_true", help="add a never-firing neuron")
    group.add_argument("--duplicate", type=_ascii_int, metavar="I", help="duplicate neuron I")
    group.add_argument("--delete", type=_ascii_int, metavar="I", help="delete neuron I")
    group.add_argument("--include", metavar="CODE", help="include into the given larger code")
    p_map.set_defaults(handler=_cmd_map)

    p_real = subs.add_parser("realize", help="realized code of an exact cover")
    p_real.add_argument("cover", nargs="?", help="cover JSON")
    p_real.add_argument("--family", help="built-in cover: cc:<m> (intervals) or cr:<k> (polygon)")
    p_real.add_argument("--cf", action="store_true",
                        help="also derive the canonical form from the cover geometry")
    p_real.set_defaults(handler=_cmd_realize)

    p_verify = subs.add_parser("verify", help="run a named verification sweep")
    p_verify.add_argument("suite", help="one of: " + ", ".join(sorted(SUITES)))
    p_verify.add_argument("--n", type=_ascii_int, help="neuron count / size bound")
    p_verify.add_argument("--trials", type=_ascii_int, help="randomized trial count")
    p_verify.add_argument("--seed", type=_ascii_int, help=f"RNG seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--max", type=_ascii_int, help="family size ceiling")
    p_verify.add_argument("--sample", type=_ascii_int,
                          help="sampled sweep size instead of exhaustive")
    p_verify.add_argument("--exhaustive", action="store_true", help="force the exhaustive sweep")
    p_verify.add_argument("--jobs", type=_ascii_int,
                          help=f"accepted for old command lines; sweeps run in this"
                          f" process whatever it says (default 1, at most {MAX_JOBS})")
    p_verify.set_defaults(handler=_cmd_verify)

    p_family = subs.add_parser("family", help="print a named code family")
    p_family.add_argument("family", help="cc:<m> or cr:<k>")
    p_family.set_defaults(handler=_cmd_family)

    for sub in (p_cf, p_graph, p_map, p_real, p_verify, p_family):
        sub.add_argument("--json", action="store_true", help="emit a JSON run report")
    return parser, dict(subs.choices)


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_build_parser()[0].parse_args(argv)`. A command line that starts
    with a subcommand and that its parser reads to the end is parsed by that
    parser alone, as the top-level parser would hand it over; every other
    one, including each that ends in a usage error, goes through the
    top-level parser, so its messages and exit status stay the same."""
    parser, subparsers = _build_parser()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.subcommand = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        digest, outputs, checks, build_text = args.handler(args)
        text = None if args.json else "\n".join(build_text())
    except (CodeParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text is None:
        outputs = {k: v() if callable(v) else v for k, v in outputs.items()}
        report = {"command": argv, "input_digest": _digest(digest(outputs)),
                  "outputs": outputs, "checks": [c.to_json_obj() for c in checks]}
        out = []
        _render(report, "\n", out)
        text = "".join(out)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`); point fd 1 at devnull so
        # that the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
