#!/usr/bin/env bash
# Decision parity between the working tree and a git revision. Builds
# both trees' epoch_bench (Release, each in its own build directory),
# runs every workload with --seconds 1 --trace 0 on the same seeds in
# both, and diffs the `digest <workload> seed=N <hex>` lines. Equal
# digests mean both trees made the same decisions. Exits 1 on any
# difference or missing digest, 2 on bad usage.
#
#   scripts/digest_parity.sh [--decisions-only] <rev> [workload:seed,...]
#
#   scripts/digest_parity.sh HEAD~1
#   scripts/digest_parity.sh main adapt-100k:1,3,7 churn-5k:2
#   scripts/digest_parity.sh --decisions-only HEAD~1
#
# --decisions-only leaves the kube event count out of both digests, for
# changes that schedule fewer events but decide the same. It copies the
# working tree and the revision into temporary directories, deletes the
# line `digest.add(L.events);` from each copy's epochbench/epoch_bench.cc
# (exit 2 unless the line occurs exactly once in each), and builds and
# compares both copies as below.
#
# Default cases: zonekill-10k:1,2,3 churn-5k:1,2,3,4,5 adapt-100k:1,2,3
# (about 6 minutes on a 4-core VM, the revision's cold build included;
# runs are sequential, and adapt-100k peaks near 375 MiB RSS). The
# working tree builds into $CARGO_TARGET_DIR (default .bench_build, as
# epochbench/run.py), or beside its copy under --decisions-only; the
# revision is exported with `git archive` into a temporary directory,
# built there, and removed on exit. Build output lands in
# <tmp>/{here,there}.log and is shown only when a run fails.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
}

DECISIONS_ONLY=0
if [[ "${1:-}" == "--decisions-only" ]]; then
  DECISIONS_ONLY=1
  shift
fi
if [[ $# -lt 1 || "$1" == "-h" || "$1" == "--help" || "$1" == -* ]]; then
  usage
  exit 2
fi
REV="$1"
shift
CASES=("$@")
if [[ ${#CASES[@]} -eq 0 ]]; then
  CASES=(zonekill-10k:1,2,3 churn-5k:1,2,3,4,5 adapt-100k:1,2,3)
fi
for spec in "${CASES[@]}"; do
  if [[ "$spec" != *:* || -z "${spec%%:*}" || -z "${spec#*:}" ]]; then
    echo "digest_parity: case '$spec' is not workload:seed,seed,..." >&2
    exit 2
  fi
done
if ! git rev-parse --verify --quiet "${REV}^{commit}" >/dev/null; then
  echo "digest_parity: unknown revision '$REV'" >&2
  exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/tree"
git archive "$REV" | tar -x -C "$TMP/tree"

HERE_TREE="$ROOT"
HERE_BUILD="${CARGO_TARGET_DIR:-$ROOT/.bench_build}"
[[ "$HERE_BUILD" = /* ]] || HERE_BUILD="$ROOT/$HERE_BUILD"

# drop_event_count <tree>: delete the event-count term from its digest.
drop_event_count() {
  local file="$1/epochbench/epoch_bench.cc"
  local pattern='^[[:space:]]*digest\.add\(L\.events\);[[:space:]]*$'
  local count
  count="$(grep -cE "$pattern" "$file" || true)"
  if [[ "$count" != 1 ]]; then
    echo "digest_parity: expected one 'digest.add(L.events);' line in" \
      "$file, found ${count:-0}" >&2
    exit 2
  fi
  sed -i -E "/$pattern/d" "$file"
}

if [[ $DECISIONS_ONLY -eq 1 ]]; then
  # Tracked and untracked, non-ignored files as they are on disk.
  HERE_TREE="$TMP/here-tree"
  HERE_BUILD="$TMP/here-build"
  mkdir -p "$HERE_TREE"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
      if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi
    done |
    tar --null -T - -cf - | tar -xf - -C "$HERE_TREE"
  drop_event_count "$HERE_TREE"
  drop_event_count "$TMP/tree"
  echo "digest_parity: decisions only: the kube event count is" \
    "excluded from both digests"
fi

# digest <side> <tree> <build dir> <workload> <seed>
digest() {
  local out
  if ! out="$(CARGO_TARGET_DIR="$3" python3 "$2/epochbench/run.py" \
      --workload "$4" --seed "$5" --seconds 1 --trace 0 \
      2>>"$TMP/$1.log")"; then
    echo "digest_parity: $1 run of $4 seed=$5 failed; log tail:" >&2
    tail -n 20 "$TMP/$1.log" >&2
    return 1
  fi
  grep '^digest ' <<<"$out" || echo "digest $4 seed=$5 <missing>"
}

status=0
for spec in "${CASES[@]}"; do
  workload="${spec%%:*}"
  seeds="${spec#*:}"
  for seed in ${seeds//,/ }; do
    here="$(digest here "$HERE_TREE" "$HERE_BUILD" "$workload" "$seed")"
    there="$(digest there "$TMP/tree" "$TMP/build" "$workload" "$seed")"
    if [[ "$here" == "$there" && "$here" != *"<missing>"* ]]; then
      echo "same  $here"
    else
      echo "DIFF  working tree: $here"
      echo "      $REV: $there"
      status=1
    fi
  done
done

if [[ $status -eq 0 ]]; then
  echo "digest_parity: every digest matches $REV"
else
  echo "digest_parity: digests differ from $REV" >&2
fi
exit $status
