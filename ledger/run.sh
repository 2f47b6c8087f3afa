#!/usr/bin/env bash
# Build the ledger benchmark from this checkout's sources, then run it.
# Run from the repository root; every argument goes to ledger/main.exe:
#
#   bash ledger/run.sh --workload batch --seed 3 --seconds 12 --trace 0
#
# Build products stay in _build/, scratch files (batch QASM files, compiler
# temporaries) in .ledger_work/; the shared dune cache is not used.
set -euo pipefail

root=$(pwd)
work="$root/.ledger_work"
mkdir -p "$work/tmp"
export TMPDIR="$work/tmp" DUNE_CACHE=disabled XDG_CACHE_HOME="$work/cache"

dune build --root "$root" --display quiet ./ledger/main.exe 1>&2
exec "$root/_build/default/ledger/main.exe" --workdir "$work" "$@"
