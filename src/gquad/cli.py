"""Command-line front end: build, derive, verify, enumerate, report.

Configuration precedence is flags, then the GQ_BUDGET environment
variable, then a strict key=value config file, then defaults.  Every
artifact is written deterministically, so reruns with the same
configuration are byte-identical.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from .constructions import (
    action_from_linear,
    ambient_stabiliser,
    build_derived_model,
    build_extraspecial27,
    build_gu513,
    centre_gens,
    elation_gens,
    shear_gens,
    split_gens,
    unipotent_gens,
)
from .gf import GF, _prime_power
from .groups import (
    TooLargeError,
    invariant_report,
    is_isomorphic_small,
    is_regular,
    load_group,
    report_json,
    save_group,
)
from .incidence import (
    NotRegularPointError,
    aut_incidence,
    build_qminus5,
    build_w3,
    load_gq,
    payne_derive,
    save_gq,
    verify_gq,
)
from .search import (
    NotCompatibleError,
    SearchBudget,
    _p_part,
    classify_classes,
    enumerate_regular,
)

__all__ = ["RunConfig", "resolve_config", "emit_class_count_table",
           "run_cli", "main"]


@dataclass(frozen=True)
class RunConfig:
    budget_seconds: float = 3600.0
    bound: int = 4096
    out_dir: str = "."
    moduli: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.budget_seconds <= 0:
            raise ValueError("budget must be positive")


def _parse_modulus(text: str) -> tuple:
    # "p^f=integer", the integer encoding the polynomial evaluated at p
    try:
        pf, val = text.split("=")
        p, f = pf.split("^")
        return (int(p), int(f)), int(val, 0)
    except ValueError:
        raise ValueError(f"bad modulus override {text!r}; "
                         "expected p^f=integer") from None


def _parse_moduli(text: str) -> dict:
    return dict(_parse_modulus(m) for m in text.split(",") if m)


# config-file key -> (RunConfig field, value parser)
_CONFIG_KEYS = {
    "budget": ("budget_seconds", float),
    "bound": ("bound", int),
    "out_dir": ("out_dir", str),
    "modulus": ("moduli", _parse_moduli),
}


def _read_config_file(path: str) -> dict:
    """RunConfig updates from a key=value file.

    Blank lines and lines starting with # are skipped.  A line without
    '=', an unknown key or a bad value raises ``ValueError`` naming the
    file and the 1-based line.
    """
    out = {}
    with open(path) as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if "=" not in line:
                    raise ValueError(f"expected key=value, got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"unknown key {key!r}")
                name, parse = _CONFIG_KEYS[key]
                out[name] = parse(val)
                replace(RunConfig(), **{name: out[name]})  # validate
            except ValueError as exc:
                raise ValueError(f"{path}, line {no}: {exc}") from None
    return out


def resolve_config(args: argparse.Namespace, env=None) -> RunConfig:
    """Apply the precedence chain flags > env > config file > defaults."""
    env = os.environ if env is None else env
    cfg = RunConfig()

    if getattr(args, "config", None):
        cfg = replace(cfg, **_read_config_file(args.config))

    if "GQ_BUDGET" in env:
        cfg = replace(cfg, budget_seconds=float(env["GQ_BUDGET"]))

    updates = {}
    if getattr(args, "budget", None) is not None:
        updates["budget_seconds"] = args.budget
    if getattr(args, "bound", None) is not None:
        updates["bound"] = args.bound
    if getattr(args, "out_dir", None) is not None:
        updates["out_dir"] = args.out_dir
    if getattr(args, "modulus", None):
        updates["moduli"] = dict(_parse_modulus(m) for m in args.modulus)
    return replace(cfg, **updates)


def _field_for(q: int, cfg: RunConfig) -> GF:
    pf = _prime_power(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    p, f = pf
    code = cfg.moduli.get((p, f))
    if code is not None:
        coeffs = []
        while code:
            coeffs.append(code % p)
            code //= p
        return GF(p=p, f=f, modulus=coeffs)
    return GF.default(q)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_build_gq(args, cfg: RunConfig) -> int:
    if args.type == "w3":
        if args.q is None:
            raise ValueError("--q is required for type w3")
        gq = build_w3(_field_for(args.q, cfg))
    elif args.type == "qminus5":
        if args.q is None:
            raise ValueError("--q is required for type qminus5")
        gq = build_qminus5(_field_for(args.q, cfg))
    elif args.type == "gu513":
        if args.q is not None:
            raise ValueError("type gu513 is Q-(5,8) and takes no --q")
        _, gq = build_gu513()
    else:
        raise ValueError(f"unknown quadrangle type {args.type!r}")
    stem = args.type if args.q is None else f"{args.type}-{args.q}"
    out = args.out or os.path.join(cfg.out_dir, f"{stem}.gq")
    save_gq(out, gq)
    s, t = gq.order()
    print(f"wrote {out}: {gq.name}, {gq.n_points} points, "
          f"{gq.n_lines} lines, order ({s},{t})")
    return 0


def _canonical_w3_model(gq, cfg: RunConfig):
    """Rebuild the labelled model matching a bare W(3,q) file, or None."""
    if gq.s != gq.t:
        return None
    model = build_derived_model(_field_for(gq.s, cfg))
    if np.array_equal(model.ambient_gq.line_matrix(), gq.line_matrix()):
        return model
    return None


def _cmd_payne(args, cfg: RunConfig) -> int:
    gq = load_gq(args.gq)
    if args.point is not None:
        derived = payne_derive(gq, args.point)
    else:
        model = _canonical_w3_model(gq, cfg)
        if model is None:
            raise ValueError("not a recognised symplectic quadrangle file; "
                             "pass --point explicitly")
        derived = model.gq
    out = args.out or os.path.join(cfg.out_dir, "derived.gq")
    save_gq(out, derived)
    s, t = derived.order()
    print(f"wrote {out}: {derived.name}, {derived.n_points} points, "
          f"order ({s},{t})")
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    gq = load_gq(args.gq)
    violations = verify_gq(gq, s=gq.s, t=gq.t)
    if violations:
        raise ValueError(f"not a generalised quadrangle: {violations[0]}")
    s, t = gq.order()
    print(f"valid GQ({s},{t}): {gq.n_points} points, {gq.n_lines} lines")
    return 0


def _derived_model_for(gq, cfg: RunConfig):
    """Match a loaded derived-quadrangle file to its canonical model."""
    if gq.s is None or gq.t != gq.s + 2:
        raise ValueError("expected a derived quadrangle of order (q-1, q+1)")
    q = gq.s + 1
    model = build_derived_model(_field_for(q, cfg))
    if not np.array_equal(model.gq.line_matrix(), gq.line_matrix()):
        raise ValueError("unrecognised derived quadrangle; rebuild it with "
                         "the payne subcommand for canonical labelling")
    return model


def _group_action(name: str, model):
    k = model.field
    gq = model.gq
    if name == "E":
        return action_from_linear(k, elation_gens(k), gq)
    if name == "P":
        return action_from_linear(k, shear_gens(k), gq)
    if name == "S":
        return action_from_linear(k, split_gens(k), gq)
    if name == "T":
        return action_from_linear(k, unipotent_gens(k), gq)
    if name == "Z":
        return action_from_linear(k, centre_gens(k), gq)
    raise ValueError(f"unknown group name {name!r}")


def _cmd_construct_group(args, cfg: RunConfig) -> int:
    takes_no_q = ("extraspecial27-exp3", "extraspecial27-exp9", "gu513")
    if args.name in takes_no_q and args.q is not None:
        raise ValueError(f"group {args.name} takes no --q")
    if args.name in ("extraspecial27-exp3", "extraspecial27-exp9"):
        target = load_gq(args.gq) if args.gq else None
        group, _ = build_extraspecial27(
            "exp" + args.name.rsplit("exp", 1)[1], target)
    elif args.name == "gu513":
        group, gq = build_gu513()
        if args.gq and not np.array_equal(load_gq(args.gq).line_matrix(),
                                          gq.line_matrix()):
            raise ValueError("quadrangle file does not match Q-(5,8) as "
                             "built by build-gq --type gu513")
    else:
        if args.q is None:
            raise ValueError("--q is required for matrix-model groups")
        model = build_derived_model(_field_for(args.q, cfg))
        if args.gq:
            loaded = load_gq(args.gq)
            if not np.array_equal(loaded.line_matrix(),
                                  model.gq.line_matrix()):
                raise ValueError("quadrangle file does not match the "
                                 "canonical derived model for this q")
        group = _group_action(args.name, model)
    out = args.out or os.path.join(cfg.out_dir, f"{args.name}.grp")
    save_group(out, group)
    print(f"wrote {out}: degree {group.degree}, order {group.order()}")
    return 0


def _cmd_check_regular(args, cfg: RunConfig) -> int:
    group = load_group(args.group)
    gq = load_gq(args.gq)
    if group.degree != gq.n_points:
        raise ValueError("group degree does not match the point count")
    ok = is_regular(group, range(gq.n_points))
    print(f"regular: {'true' if ok else 'false'}")
    return 0


def _cmd_invariants(args, cfg: RunConfig) -> int:
    group = load_group(args.group)
    _emit(report_json(invariant_report(group)), args.out)
    return 0


def _cmd_iso(args, cfg: RunConfig) -> int:
    a = load_group(args.group_a)
    b = load_group(args.group_b)
    iso = is_isomorphic_small(a, b, max_order=cfg.bound)
    print(f"isomorphic: {'true' if iso is not None else 'false'}")
    return 0


def _ambient_for(model, q: int):
    # small q: the derived quadrangle is small enough for the full
    # automorphism group (and at q <= 4 genuinely larger than the
    # inherited stabiliser); beyond that the stabiliser ambient, which
    # at odd q lacks a similitude and so has index 2 in the automorphism
    # group, e.g. 30000 against 60000 at q = 5 (ROADMAP item 1)
    if q in (3, 4):
        return aut_incidence(model.gq)
    return ambient_stabiliser(model.field, model.gq)


def _cmd_enumerate_regular(args, cfg: RunConfig) -> int:
    gq = load_gq(args.gq)
    model = _derived_model_for(gq, cfg)
    q = gq.s + 1
    ambient = _ambient_for(model, q)
    sylow = _group_action("T", model)
    if sylow.order() != _p_part(ambient.order(), model.field.p):
        sylow = None
    templates = {"E": _group_action("E", model),
                 "P": _group_action("P", model)}
    if model.field.f > 1:
        templates["S"] = _group_action("S", model)
    table = enumerate_regular(model.gq, ambient,
                              SearchBudget(seconds=cfg.budget_seconds),
                              sylow=sylow, templates=templates)
    classify_classes(table, bound=cfg.bound)
    payload = table.as_dict()
    payload["metadata"] = {
        "budget_seconds": cfg.budget_seconds,
        "bound": cfg.bound,
        "q": q,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = args.out or os.path.join(cfg.out_dir, f"regular-q{q}.json")
    _emit(text, out)
    if out:
        print(f"wrote {out}: {table.num_classes} classes, "
              f"complete={str(table.complete).lower()}")
    return 0


def emit_class_count_table(payloads, fmt: str, *,
                           allow_partial: bool = False) -> str:
    """Markdown or CSV summary, one row per enumeration result."""
    rows = []
    for payload in payloads:
        if not payload.get("complete", False) and not allow_partial:
            raise ValueError(
                "RefusesIncomplete: enumeration for "
                f"{payload.get('gq', '?')!r} is incomplete; "
                "pass --allow-partial to include it")
        meta = payload.get("metadata", {})
        q = meta.get("q")
        if q is None:
            q = round(payload["n_points"] ** (1 / 3))
        comments = []
        for cls in payload["classes"]:
            label = ", ".join(cls["matches"]) or cls["description"]
            comments.append(label)
        note = "" if payload.get("complete", False) else " (partial)"
        rows.append((q, payload["num_classes"],
                     "; ".join(comments) + note))
    rows.sort(key=lambda r: r[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["q", "num_classes", "comments"])
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| q | classes | comments |", "|---|---|---|"]
    lines += [f"| {q} | {n} | {c} |" for q, n, c in rows]
    return "\n".join(lines) + "\n"


_TABLE_FIELDS = ("classes", "num_classes", "n_points", "complete")
_CLASS_FIELDS = ("matches", "description")


def _load_table(path: str) -> dict:
    """An enumeration table JSON; ``ValueError`` names the file and the
    missing field."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not an enumeration table")
    for name in _TABLE_FIELDS:
        if name not in payload:
            raise ValueError(f"{path}: table has no {name!r} field")
    if not isinstance(payload["classes"], list):
        raise ValueError(f"{path}: 'classes' is not a list")
    for i, cls in enumerate(payload["classes"]):
        for name in _CLASS_FIELDS:
            if not isinstance(cls, dict) or name not in cls:
                raise ValueError(f"{path}: class {i} has no {name!r} field")
    return payload


def _cmd_report(args, cfg: RunConfig) -> int:
    payloads = [_load_table(path) for path in args.tables]
    text = emit_class_count_table(payloads, args.format,
                                  allow_partial=args.allow_partial)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and argparse looks up sys.stderr only when it writes."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=float,
                        help="search budget in seconds")
    common.add_argument("--bound", type=int,
                        help="largest group order for the explicit "
                             "isomorphism search")
    common.add_argument("--out-dir", dest="out_dir")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--modulus", action="append",
                        help="field modulus override, p^f=integer")

    parser = argparse.ArgumentParser(
        prog="gquad",
        description="generalised quadrangles and their regular groups")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-gq", parents=[common])
    sp.add_argument("--type", required=True,
                    choices=["w3", "qminus5", "gu513"])
    sp.add_argument("--q", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_build_gq)

    sp = sub.add_parser("payne", parents=[common])
    sp.add_argument("--gq", required=True)
    sp.add_argument("--point", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_payne)

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--gq", required=True)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("construct-group", parents=[common])
    sp.add_argument("--name", required=True,
                    choices=["E", "P", "S", "T", "Z",
                             "extraspecial27-exp3", "extraspecial27-exp9",
                             "gu513"])
    sp.add_argument("--q", type=int)
    sp.add_argument("--gq")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_construct_group)

    sp = sub.add_parser("check-regular", parents=[common])
    sp.add_argument("--group", required=True)
    sp.add_argument("--gq", required=True)
    sp.set_defaults(func=_cmd_check_regular)

    sp = sub.add_parser("invariants", parents=[common])
    sp.add_argument("--group", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("iso", parents=[common])
    sp.add_argument("--group-a", required=True)
    sp.add_argument("--group-b", required=True)
    sp.set_defaults(func=_cmd_iso)

    sp = sub.add_parser("enumerate-regular", parents=[common])
    sp.add_argument("--gq", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_enumerate_regular)

    sp = sub.add_parser("report", parents=[common])
    sp.add_argument("--tables", nargs="*", default=[])
    sp.add_argument("--format", choices=["md", "csv"], default="md")
    sp.add_argument("--allow-partial", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_report)
    return parser


_DOMAIN_ERRORS = (ValueError, OSError, NotCompatibleError,
                  NotRegularPointError, TooLargeError)

# an internal invariant failed: a bug in gquad, never the user's input
_INTERNAL_ERRORS = (RuntimeError, AssertionError, KeyError)


def run_cli(argv=None) -> int:
    """Run one subcommand; the exit code is 0 on success, 1 for a user
    error (one line on stderr), 2 for a usage error and 3 for an internal
    error (with its traceback)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except _DOMAIN_ERRORS as exc:
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1
    except _INTERNAL_ERRORS:
        traceback.print_exc()
        print("internal error: an invariant of gquad failed; "
              "please report it with the traceback above", file=sys.stderr)
        return 3


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
