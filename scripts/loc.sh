#!/usr/bin/env bash
# Rust code-line count: non-blank lines that are not `//` comments (doc
# comments included), per crate and in total, over crates/, src/, tests/
# and examples/. The pbsmbench/ benchmark package is excluded. Informational
# only: no gate reads it.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -type f -print0 2>/dev/null \
    | xargs -0 -r cat \
    | awk '{ t = $0; sub(/^[ \t]+/, "", t) } t != "" && t !~ /^\/\// { n++ } END { print n + 0 }'
}

total=0
for dir in crates/*/; do
  name=$(basename "$dir")
  n=$(count "$dir")
  printf '%-10s %7d\n' "$name" "$n"
  total=$((total + n))
done
n=$(count src tests examples)
printf '%-10s %7d\n' "pbsm" "$n"
total=$((total + n))
printf '%-10s %7d\n' "total" "$total"
