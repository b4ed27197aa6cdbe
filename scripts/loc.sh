#!/usr/bin/env bash
# Lines of Rust under each crate's `src/`, split into non-test and test
# code. In a file, everything from a `#[cfg(test)]` line directly
# followed by `mod tests` onward counts as test; the rest is non-test.
# Integration tests (`tests/`), benches and examples are not counted.
#
#   scripts/loc.sh            # one row per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

# Print "<non-test> <test>" for the .rs files under one directory.
count() {
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { in_test = 0; prev = "" }
    !in_test && prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && $0 ~ /^[[:space:]]*mod tests/ {
      in_test = 1; code--; test++
    }
    { if (in_test) test++; else code++; prev = $0 }
    END { printf "%d %d\n", code, test }'
}

printf '%-28s %9s %9s\n' crate non-test test
total_code=0
total_test=0
for dir in crates/*/src src scalbench/src; do
  [ -d "$dir" ] || continue
  read -r code test < <(count "$dir")
  printf '%-28s %9d %9d\n' "${dir%/src}" "$code" "$test"
  total_code=$((total_code + code))
  total_test=$((total_test + test))
done
printf '%-28s %9d %9d\n' total "$total_code" "$total_test"
