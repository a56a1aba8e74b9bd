#!/usr/bin/env bash
# Build and test under a sanitizer via the PHOENIX_SANITIZE cache
# option. Each sanitizer gets its own build tree so switching between
# them (or back to the plain build/) never forces a full reconfigure.
#
#   scripts/sanitize.sh                 # address (ASan+LSan where available)
#   scripts/sanitize.sh thread          # TSan: exercises the src/exp pool
#   scripts/sanitize.sh undefined       # UBSan
#   scripts/sanitize.sh address -R fuzz # extra args forwarded to ctest
#
# The fuzz smoke gate runs as part of the suite, so every generated
# case's plan/pack/LP/kube paths execute under the sanitizer too. The
# address and undefined trees also define _GLIBCXX_ASSERTIONS, so an
# out-of-range index into a standard container aborts the test. The
# undefined tree adds -fsanitize=float-cast-overflow and builds with
# -fno-sanitize-recover=all, so any UBSan report fails its test.
set -euo pipefail

cd "$(dirname "$0")/.."

SAN="${1:-address}"
shift || true
BUILD="build-${SAN}"

case "$SAN" in
  address|thread|undefined) ;;
  *)
    echo "usage: scripts/sanitize.sh [address|thread|undefined] [ctest args...]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPHOENIX_SANITIZE="$SAN"
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" "$@"
