#!/bin/sh
# Build the daemon and the benchmark from source, then run one workload:
#   sh daemonbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output and temporary files stay inside the checkout.
set -eu
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
mkdir -p .bench_tmp
TMPDIR="$PWD/.bench_tmp"
export TMPDIR
dune build --root . --cache=disabled --display=quiet \
  ./bin/optjs_cli.exe ./daemonbench/main.exe >&2
exec ./_build/default/daemonbench/main.exe \
  --daemon ./_build/default/bin/optjs_cli.exe "$@"
