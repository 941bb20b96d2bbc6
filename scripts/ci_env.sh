# Single source of truth for the test selections shared by local tier-1
# verification (scripts/tier1.sh) and the hosted pipeline
# (.github/workflows/ci.yml). Both source this file, so the TSan suite
# can never drift between the two.
#
# LCE_TSAN_TEST_TARGETS  test binaries built for the sanitizer configs
#                        (a subset: docs/spec/synth are single-threaded
#                        and only slow the instrumented build down).
# LCE_TSAN_TEST_REGEX    ctest -R selection: every concurrency-sensitive
#                        suite — parallel alignment, clone fidelity, fuzz
#                        determinism, the layer stack, the endpoint
#                        hammers, fault injection, the sharded-store
#                        stress tests ("Shard"), and the durable-state
#                        suites (group-commit WAL, snapshot rotation
#                        racing writers, recovery/replay), and the
#                        compiled-plan suites ("Plan": plan-vs-tree
#                        equivalence plus plan sharing/rebuild across
#                        clones and parallel alignment workers), and the
#                        epoll front-end suites (incremental-parser
#                        torture/fuzz, wire-level HttpTorture, slow-loris
#                        reaping, keep-alive accounting, and the
#                        ShutdownHammer restart cycles — "Hammer"), and
#                        the virtual-time suites (the timer-wheel
#                        differential fuzz and the TimerHammer
#                        ensure/cancel/advance races in time_test).
#                        The fork-based CrashTorture tests self-skip
#                        under TSan.
export LCE_TSAN_TEST_TARGETS="common_test value_fuzz_test align_test interp_test cloud_test stack_test server_test persist_test plan_test time_test"
export LCE_TSAN_TEST_REGEX='Parallel|Fuzz|Clone|Stack|Hammer|Fault|Layer|Shard|Wal|Journal|Snapshot|Recovery|Replay|Durable|Plan|HttpParser|Torture|SlowLoris|KeepAlive|Endpoint|Wire'

# Portable core count: GNU coreutils' nproc, then the BSD/macOS sysctl,
# then POSIX getconf, then a safe fallback.
lce_nproc() {
  nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null ||
    getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2
}
