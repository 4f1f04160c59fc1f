#!/bin/sh
# Exports check (CI fast tier, after `dune build @check`): fail when a
# library exports a value nothing else uses.
#
# Every `val` in lib/*/*.mli must have at least one caller outside its
# own module and outside test/ (lib/, bin/, bench/, perfbench/ or
# examples/), or be named in tools/exports_allowlist.txt with a one-line
# reason.  Callers come from the compiler's own cross-references:
# `ocamlcmt -annot` over every .cmt under _build/default, so a name that
# only appears in a comment or in an unrelated module does not count.
#
# Failure modes:
#   - an export with no non-test caller that is not allowlisted;
#   - an allowlist entry whose val no longer exists;
#   - an allowlist entry whose val now has a non-test caller;
#   - an allowlist entry without a reason.
#
# POSIX sh + awk; run from the repository root after a build:
#
#   dune build @check && sh tools/exports_check.sh
set -u

allow=tools/exports_allowlist.txt
build=_build/default

[ -d lib ] && [ -f "$allow" ] || {
  echo "exports-check: run from the repository root" >&2
  exit 2
}
[ -d "$build/lib" ] || {
  echo "exports-check: no $build/lib; run 'dune build @check' first" >&2
  exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# ocamlcmt resolves a reference into another library only when that
# library's objs dir is on the include path.
inc=$(find "$build" -type d -path '*objs/byte' | sort | sed 's/^/-I /')

# Cross-references into lib/*/*.mli: "<referencing source> <mli> <line>".
# The line is where the referenced `val` starts.
find "$build" -name '*.cmt' | sort | while read -r cmt; do
  # shellcheck disable=SC2086
  ocamlcmt $inc -annot -o - "$cmt" 2>/dev/null
done | awk '
  /^"/ { src = $1; gsub(/"/, "", src); next }
  $1 == "int_ref" && $3 ~ /^"lib\/[^\/]*\/[^\/]*\.mli"$/ {
    t = $3; gsub(/"/, "", t); print src, t, $4
  }' | sort -u > "$tmp/refs"

[ -s "$tmp/refs" ] || {
  echo "exports-check: no cross-references found; is $build built?" >&2
  exit 2
}

# Exported vals: "<mli> <line> <Module.name>".
for mli in lib/*/*.mli; do
  awk -v f="$mli" '
    BEGIN {
      m = f; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
      m = toupper(substr(m, 1, 1)) substr(m, 2)
    }
    /^ *val / { n = $2; sub(/:.*/, "", n); print f, FNR, m "." n }' "$mli"
done > "$tmp/vals"

# Non-test callers per val, then the verdicts.
awk -v allowfile="$allow" '
  FILENAME == allowfile {
    if ($0 ~ /^[ \t]*(#|$)/) next
    name = $1; reason = $0; sub(/^[ \t]*[^ \t]+[ \t]*/, "", reason)
    if (reason == "") { print "exports-check: allowlist entry " name " has no reason"; bad = 1 }
    allowed[name] = 1
    next
  }
  FILENAME ~ /refs$/ {
    own = $2; sub(/\.mli$/, ".ml", own)
    if ($1 ~ /^test\// || $1 == own || $1 == $2) next
    callers[$2 " " $3]++
    next
  }
  {
    total++
    exists[$3] = 1
    n = callers[$1 " " $2] + 0
    if ($3 in allowed) {
      kept++
      if (n > 0) { print "exports-check: " $3 " is allowlisted but has " n " non-test caller(s); drop it from " allowfile; bad = 1 }
    } else if (n == 0) {
      print "exports-check: " $3 " (" $1 ":" $2 ") has no caller outside its module and test/; delete it, hide it, or allowlist it with a reason"
      bad = 1
    }
  }
  END {
    for (a in allowed)
      if (!(a in exists)) { print "exports-check: allowlist entry " a " names no val in lib/*/*.mli"; bad = 1 }
    printf "exports-check: %d vals exported by lib/*/*.mli, %d allowlisted\n", total, kept
    exit bad
  }' "$allow" "$tmp/refs" "$tmp/vals" >&2
