#!/usr/bin/env sh
# Line delta of the library: lines added, removed and net under src/ and
# include/, and their total, from BASE to the working tree.  Changes that
# only touch whitespace are not counted (`git diff -w --numstat`); a file
# git does not track yet counts as added in full.  CHANGES.md reports this
# total for every change.
#
#   scripts/src_delta.sh [BASE]     (default: HEAD)
set -eu

cd "$(dirname "$0")/.."
BASE="${1:-HEAD}"

for dir in src include; do
  git diff -w --numstat "$BASE" -- "$dir" | sed "s|^|$dir	|"
  git ls-files --others --exclude-standard -- "$dir" |
    while IFS= read -r f; do
      printf '%s\t%s\t0\t%s\n' "$dir" "$(($(wc -l < "$f")))" "$f"
    done
done | awk -F'\t' '
  $2 != "-" { add[$1] += $2; del[$1] += $3 }
  function row(name, a, d) {
    printf "%-10s +%-6d -%-6d net %+d\n", name, a, d, a - d
  }
  END {
    row("src/", add["src"], del["src"])
    row("include/", add["include"], del["include"])
    row("total", add["src"] + add["include"], del["src"] + del["include"])
  }'
