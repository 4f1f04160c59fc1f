#!/bin/sh
# Docs-sync check (CI fast tier): fail when the documentation index
# drifts from the code.  Six invariants:
#
#   1. every file under docs/ is linked from the README's Map table;
#   2. every tlbshoot subcommand defined in bin/tlbshoot_cli.ml (built
#      with `cmd`, `report` or `gated`) is documented (as
#      `tlbshoot <name>`) in EXPERIMENTS.md — and the scan must find
#      some, so a CLI reshaped past these patterns fails loudly;
#   3. every versioned JSON schema string emitted anywhere in bin/ or
#      lib/ (tlbshoot-*-v1) is named in EXPERIMENTS.md;
#   4. the reverse of 3: every schema EXPERIMENTS.md names still exists
#      in the code, so the docs cannot keep advertising a schema that
#      was renamed or deleted;
#   5. every constructor of the shootdown probe stream
#      (lib/instrument/probe.ml) has a row in the probe table of
#      docs/OBSERVABILITY.md;
#   6. every gated subcommand (built with `gated`: report, then exit 1
#      unless its gate holds) is run by a `tlbshoot_cli.exe -- <name>`
#      step in .github/workflows/ci.yml.
#
# POSIX sh + grep/sed only; run from the repository root:
#
#   sh tools/doc_sync_check.sh
set -u

fail=0
complain() {
  echo "doc-sync: $1" >&2
  fail=1
}

[ -f README.md ] && [ -f EXPERIMENTS.md ] && [ -d docs ] || {
  echo "doc-sync: run from the repository root" >&2
  exit 2
}

# 1. Every long-form document is reachable from the README map.
for doc in docs/*.md; do
  grep -q "(${doc})" README.md ||
    complain "${doc} is not linked from README.md"
done

# 2. Every CLI subcommand is documented in EXPERIMENTS.md.
cmds=$(sed -n -e 's/.*cmd "\([a-z0-9]*\)".*/\1/p' \
  -e 's/.*report "\([a-z0-9]*\)".*/\1/p' \
  -e 's/.*gated "\([a-z0-9]*\)".*/\1/p' bin/tlbshoot_cli.ml | sort -u)
[ -n "$cmds" ] ||
  complain "found no subcommand in bin/tlbshoot_cli.ml (cmd/report/gated \"<name>\")"
for cmd in $cmds; do
  grep -q "tlbshoot ${cmd}" EXPERIMENTS.md ||
    complain "subcommand 'tlbshoot ${cmd}' is not documented in EXPERIMENTS.md"
done

# 3. Every versioned JSON schema the code can emit is documented.
for schema in $(grep -rho 'tlbshoot-[a-z0-9-]*-v1' bin lib | sort -u); do
  grep -q "${schema}" EXPERIMENTS.md ||
    complain "JSON schema '${schema}' is not documented in EXPERIMENTS.md"
done

# 4. Every schema the docs advertise still exists in the code.
for schema in $(grep -ho 'tlbshoot-[a-z0-9-]*-v1' EXPERIMENTS.md docs/*.md | sort -u); do
  grep -rq "${schema}" bin lib ||
    complain "JSON schema '${schema}' is documented but no longer emitted by bin/ or lib/"
done

# 5. Every probe constructor has a row in the probe table.
for probe in $(sed -n 's/^  | \([A-Z][A-Za-z_]*\) of .*/\1/p' lib/instrument/probe.ml); do
  grep -q "^| \`${probe}\` |" docs/OBSERVABILITY.md ||
    complain "probe '${probe}' has no row in the docs/OBSERVABILITY.md probe table"
done

# 6. Every gated subcommand runs in CI.
for cmd in $(sed -n 's/.*gated "\([a-z0-9]*\)".*/\1/p' bin/tlbshoot_cli.ml); do
  grep -qE "tlbshoot_cli.exe -- ${cmd}( |\$)" .github/workflows/ci.yml ||
    complain "gated subcommand '${cmd}' is not run by .github/workflows/ci.yml"
done

if [ "$fail" -eq 0 ]; then
  echo "doc-sync: README map, subcommand index, schema index, probe table and CI gates are in sync"
fi
exit "$fail"
