#!/usr/bin/env sh
# Flake sweep: one green run of a schedule-sensitive test proves little, so
# this repeats them under full parallel load until one fails.
#
# Runs `ctest --repeat until-fail:N -j$(nproc)` over the transport-matrix
# gate (`bench_transport_matrix`) and every test labelled `faults`,
# `recovery`, `tokens`, `services`, `reactor`, `transport`, `core`, `net`,
# `apps` or `stress`, all in one ctest pass so they load each other.
# `snapshot` joins once the snapshot services count every cut exactly.
# Each test repeats until it fails or has passed N times; the script exits
# non-zero, printing the failing run's output, if any test failed.
#
#   scripts/flake_sweep.sh [N] [build-dir]     (defaults: 20, build)
#
# The build tree must already be configured and built.
set -eu

cd "$(dirname "$0")/.."
N="${1:-20}"
BUILD_DIR="${2:-build}"

# ctest ANDs -L with -R, so collect the union by name and select it with one
# anchored, escaped alternation.
names=$({
  ctest --test-dir "$BUILD_DIR" -N -L '^(faults|recovery|tokens|services|reactor|transport|core|net|apps|stress)$'
  ctest --test-dir "$BUILD_DIR" -N -R '^bench_transport_matrix$'
} | sed -n 's/^ *Test *#[0-9]*: //p')
if [ -z "$names" ]; then
  echo "flake_sweep: no tests found in $BUILD_DIR (is it built?)" >&2
  exit 2
fi
regex=$(printf '%s\n' "$names" | sed 's/[][\.*^$+?(){}|/]/\\&/g' |
        paste -sd '|' -)

echo "flake_sweep: $(printf '%s\n' "$names" | wc -l) tests x $N repeats"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
      --repeat "until-fail:$N" -R "^($regex)\$"
