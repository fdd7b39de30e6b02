#!/bin/sh
# The command in BENCHMARK.json: builds the benchmark from the checkout's
# sources and runs it. The Go build cache, the toolchain's temporary files,
# its usage counters (which go to the user's configuration directory) and
# the binary all stay under .bench_build/ in the checkout, so that nothing
# outside the checkout is written. Telemetry is switched off in that
# configuration directory first: with a fresh one the go command would
# otherwise start a detached "** telemetry **" sidecar that outlives the run.
set -e
mkdir -p .bench_build/tmp .bench_build/config/go/telemetry
echo off > .bench_build/config/go/telemetry/mode
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
XDG_CONFIG_HOME="$PWD/.bench_build/config" go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
