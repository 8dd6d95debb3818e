#!/usr/bin/env sh
# TSan gate for the concurrency-heavy test subset.
#
# Configures a dedicated ThreadSanitizer build tree, builds the test
# binaries, and runs the `faults`, `fuzz-smoke`, `recovery`, `reactor`,
# `serial`, `services`, `tokens`, `transport`, `core`, `net`, `apps` and
# `stress` ctest labels — the
# failure-injection suites, the scenario-fuzzer smoke sweep, the
# crash-recovery (kill -> restart -> rejoin) suite, the event-loop runtime
# (timer wheel, handler strands), the wire codec (text/binary encode-decode,
# malformed-input hardening), the services whose dispatch runs on reactor
# loops (session agent and initiator, RPC server and client, sync, clocks,
# ordering groups, termination, directory),
# the token service's credit/lease machinery (renewal timers racing grants,
# recalls, and member crashes), and the reliable ordering layer (its
# reactor-paced ticks racing ack and data delivery), and the core,
# network, application (with six of the seven examples) and stress suites.
# Most run on the virtual clock,
# so TSan reports reproduce run-to-run.
#
#   scripts/tsan_check.sh [build-dir]     (default: build-tsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -DDAPPLE_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -L 'faults|fuzz-smoke|recovery|reactor|serial|services|tokens|transport|core|net|apps|stress'
