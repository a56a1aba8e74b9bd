#!/usr/bin/env bash
# The one-command CI gate: tier-1 build + full ctest (which includes
# the fuzz/recovery/serve/fig8b smoke gates and the recovery_parity,
# soak_parity and serve_parity golden-output gates), the two long fuzz
# streams at 5000 cases each, the whole-epoch benchmark smoke test,
# then the suite again under ASan and UBSan via scripts/sanitize.sh.
# Any failure — a test, a smoke-gate bound, an oracle violation, a
# sanitizer report — fails the script.
#
#   scripts/ci.sh            # full gate
#   scripts/ci.sh --fast     # tier-1 + smokes + long fuzz, skip sanitizers
#   FUZZ_CASES=20000 CONSTRAINT_FUZZ_CASES=20000 scripts/ci.sh
#                            # longer fuzz streams (an empty value skips)
#
# The TSan configuration (scripts/sanitize.sh thread) is not part of
# the default gate — it roughly triples runtime — but is the tree that
# exercises the exp work-stealing pool and the obs registry's lock-free
# counters (Obs.ConcurrentRegistryHammer); run it when touching either.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
  shift
fi

BUILD="${BUILD:-build}"
JOBS="$(nproc)"

step() { printf '\n==> %s\n' "$*"; }

# Warnings fail the tier-1 build (CMake's own switch, 3.24+).
step "tier-1 configure + build ($BUILD)"
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$BUILD" -j "$JOBS"

step "tier-1 ctest (unit + property + corpus suites)"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" \
    -E '^(fuzz_smoke|constraint_fuzz_smoke|recovery_smoke|serve_smoke|fig8b_smoke|fig8b_1m_smoke|fuzz_long|constraint_fuzz_long|forecast_smoke|forecast_fuzz_long|soak_smoke|constrained_soak_smoke|soak_long)$'

# The smoke gates run serially and last so their bound assertions
# (fig8b op counters, Fig 6 recovery times, serving SLO/shed bounds,
# oracle cleanliness, soak violations, constraint-feasibility oracle
# cleanliness on the constrained generator) are easy to spot in the log.
step "smoke gates: fuzz, constraint_fuzz, recovery, serve, fig8b, soak, constrained_soak, forecast"
ctest --test-dir "$BUILD" --output-on-failure \
    -R '^(fuzz_smoke|constraint_fuzz_smoke|recovery_smoke|serve_smoke|fig8b_smoke|soak_smoke|constrained_soak_smoke|forecast_smoke)$'

# The flat packer skips repack and victim walks it proves futile; the
# flat-vs-reference oracle dimension is what proves those bounds exact.
# The 200- and 500-case smokes miss a bound that drifts after a
# below-quorum rollback, so both long streams run here at 5000 cases
# (about 11 s on a 4-core VM) unless FUZZ_CASES / CONSTRAINT_FUZZ_CASES
# say otherwise. By hand, `ctest -L constraints` runs the whole
# topology battery (constraint fuzz smoke and long, constrained soak).
FUZZ_CASES="${FUZZ_CASES-5000}"
CONSTRAINT_FUZZ_CASES="${CONSTRAINT_FUZZ_CASES-5000}"
step "long fuzz gates: fuzz_long (FUZZ_CASES=${FUZZ_CASES}), constraint_fuzz_long (CONSTRAINT_FUZZ_CASES=${CONSTRAINT_FUZZ_CASES})"
FUZZ_CASES="$FUZZ_CASES" CONSTRAINT_FUZZ_CASES="$CONSTRAINT_FUZZ_CASES" \
    ctest --test-dir "$BUILD" --output-on-failure \
    -R '^(fuzz_long|constraint_fuzz_long)$'

# The whole-epoch benchmark (epochbench/) builds its own binary against
# src/, so an API change that breaks it fails here rather than later.
step "epochbench smoke: every workload at toy scale"
python3 epochbench/smoke_test.py

# Million-node gate, opt-in: export FIG8B_1M=1 to run the 1M-node
# Phoenix cells (~minutes, GBs of RSS). Left out of the default gate by
# design.
if [[ "${FIG8B_1M:-}" == "1" ]]; then
  step "million-node gate: fig8b_1m_smoke"
  FIG8B_1M=1 ctest --test-dir "$BUILD" --output-on-failure \
      -R '^fig8b_1m_smoke$'
fi

# Long chaos soak, opt-in: export SOAK_HOURS to a simulated-hour count
# (e.g. SOAK_HOURS=6) to run chaossoak on seeds 7,8,9 for that long.
# Violation artifacts (Perfetto trace window + shrunk repro) land in
# $BUILD/soak-repros. Without SOAK_HOURS the test self-skips (exit 77).
if [[ -n "${SOAK_HOURS:-}" ]]; then
  step "long soak gate: soak_long (SOAK_HOURS=${SOAK_HOURS})"
  SOAK_HOURS="$SOAK_HOURS" ctest --test-dir "$BUILD" --output-on-failure \
      -R '^soak_long$'
fi

# Long forecast fuzz, opt-in: export FORECAST_FUZZ_CASES to a case
# count (e.g. FORECAST_FUZZ_CASES=20000) to drive the warm-cold-
# divergence oracle dimension at bulk: a long-lived scheme that just
# planned a projection must still return the cold plan for the real
# state. Without it the test self-skips (exit 77). The `forecast`
# ctest label groups this with forecast_smoke and the test_forecast
# suite: `ctest -L forecast` runs the whole predictive-degradation
# battery.
if [[ -n "${FORECAST_FUZZ_CASES:-}" ]]; then
  step "long forecast fuzz gate: forecast_fuzz_long (FORECAST_FUZZ_CASES=${FORECAST_FUZZ_CASES})"
  FORECAST_FUZZ_CASES="$FORECAST_FUZZ_CASES" ctest --test-dir "$BUILD" \
      --output-on-failure -R '^forecast_fuzz_long$'
fi

if [[ "$FAST" == "1" ]]; then
  step "--fast: skipping sanitizer builds"
  exit 0
fi

step "full suite under AddressSanitizer"
scripts/sanitize.sh address

step "full suite under UndefinedBehaviorSanitizer"
scripts/sanitize.sh undefined

step "CI gate passed"
