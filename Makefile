GO ?= go

.PHONY: build test vet race race-digest race-restore bench bench-cycle benchgate bench-smoke chaos-smoke chaos-store dedup-smoke fuzz-range docs profile ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-digest is the focused gate for the resident page-digest table
# (vm.VM), the only record of a page's digest: the concurrent
# writer/installer/write-back/reader test and the write-back rules (a page
# written since the read stays unrecorded, a batch read before a dirty-log
# harvest is refused), the restore's lock-free span fill (digests recorded only
# after it succeeded, one chunk at a time), the matched round one's read
# that skips kept pages and the guest's lazy memory (a new guest reads zeros
# on every read path, each writer allocates only the chunk it writes, no
# writer writes the shared zero chunk, span fills into unallocated chunks
# beside writers of the others), repeated under the
# race detector, then the seeded migration audit and the exact-count tests
# through sched.Host (digest table, the save hash stage, a salvage-retry
# leg).
# `race` runs them once with everything else; this target is the one to
# repeat when touching internal/vm/digest.go or internal/vm/vm.go.
race-digest:
	$(GO) test -race -count=10 -run 'TestDigestTableConcurrent|TestDigestTableWriteBack|TestDigestTableInstallFrom|TestDigestTableKeep|TestRangesAcrossChunks|TestFreshGuestReadsZero|TestFirstWriteAllocates|TestZeroChunkNeverWritten|TestSpanFillsConcurrent' ./internal/vm/
	$(GO) test -race -run 'TestDigestTable' ./internal/vm/ ./internal/core/ ./internal/sched/

# race-restore is the focused gate for the return path: the background
# checkpoint install (a span held back past its wire frames, a sparse round
# one, a cancel mid-install, no page read before the hello-ack, an entry of
# another size refused before it — repeated, since the interleavings are the
# point),
# the store-level span reader, concurrent first lookups building one
# checkpoint's lookup map (TestLookupBuiltOnFirstUse), a restore of an entry
# whose flush is still running waiting for it while State, Has and Mirror
# answer at once (TestRestoreWaitsForFlush), an index-only open
# and a union open writing
# nothing to the store (TestOpenWritesNothing), the announce-by-name matrix (round one of a
# matched leg leaving out the pages still equal to the named checkpoint, by
# content and in round one only; every other leg's round one tiling the guest,
# a retry after a cut included) through the engine and through sched.Host
# (matched legs, every fallback, a restart), and the streamed saves
# both sides write under round one (a guest writing mid-round, a cut), and
# the writes each side hands the transport (one per flush point, the paused
# guest's one write) with the per-round byte counts both sides report, under
# the race detector.
race-restore:
	$(GO) test -race -count=3 -run 'TestBackgroundInstall|TestBootstrapPageCountMismatch' ./internal/core/
	$(GO) test -race -run 'TestSpanLoad|TestRestoreSumsMatchGuest|TestConcurrentRemoveDuringRestore|TestSaveStream|TestOpenWritesNothing|TestLookupBuiltOnFirstUse|TestRestoreWaitsForFlush' ./internal/checkpoint/
	$(GO) test -race -run 'TestPingPongSkipsAnnouncement|TestPartialAnnounced|TestGoldenStreamByName|TestRoundOneGap|TestKeep|TestSourceWritesPerTurn|TestRoundEventBytes' ./internal/core/
	$(GO) test -race -run 'TestByName|TestPingPongOverTCP|TestStreamedSave' ./internal/sched/

# bench records the migration-engine benchmarks (cold first-round
# throughput over net.Pipe and TCP, the destination's round-end track pass,
# destination merge-loop and install-primitive throughput, per-page checksum
# rates, key-list vs rescanning checkpoint open, warm save rehashing vs keyed
# from a complete digest table, announce-frame sizes) as machine-readable
# output for regression tracking. BENCH_migration.json is committed:
# tools/benchgate gates CI on it.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFirstRound|BenchmarkTrackIncoming|BenchmarkMergeLoop|BenchmarkDestInstall' -benchmem -json ./internal/core/ > BENCH_migration.json
	$(GO) test -run '^$$' -bench 'BenchmarkChecksumPage|BenchmarkAnnounceSize' -benchmem -json ./internal/checksum/ >> BENCH_migration.json
	$(GO) test -run '^$$' -bench 'BenchmarkOpen|BenchmarkSaveWarm' -benchmem -json ./internal/checkpoint/ >> BENCH_migration.json

# bench-cycle runs the recycle-cycle benchmark's headline workload (the
# 256 MiB guest returning over the LAN shape with 5 % rewritten), end-to-end
# pass; see bench/README.md for the other workloads and the traced pass.
bench-cycle:
	$(GO) run ./bench -workload return-churn5-lan

# benchgate fails when the committed BENCH_migration.json shows the warm
# save keyed from a complete digest table (SaveWarm/table) losing its 1.5x
# edge over the rehashing one (SaveWarm/rehash), or any gated series
# (BenchmarkFirstRound, BenchmarkTrackIncoming, both SaveWarm arms)
# regressing against the recording committed at HEAD (skipped for series
# HEAD's recording lacks). HEAD's recording goes to a fresh temporary file,
# removed afterwards; without one (no git, no commit) the gate skips it.
benchgate:
	@base=$$(mktemp) || exit 1; \
	git show HEAD:BENCH_migration.json > "$$base" 2>/dev/null || rm -f "$$base"; \
	$(GO) run ./tools/benchgate -file BENCH_migration.json -baseline "$$base"; \
	status=$$?; rm -f "$$base"; exit $$status

# profile records a CPU profile of the first-round hot path (the net.Pipe
# variant) for `go tool pprof`. Artifacts are gitignored.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkFirstRound$$' \
		-benchtime 10x -cpuprofile cpu.pprof -o core.test ./internal/core/
	@echo "view with: go tool pprof core.test cpu.pprof"

# bench-smoke compiles and runs every benchmark in the repo exactly once —
# a cheap guard against benchmarks rotting outside the bench target's
# curated list. No timing output is recorded.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# chaos-smoke is the resumability gate: the deterministic fault-schedule
# harness kills one migration at every protocol turn and asserts the retry
# chain converges on salvage checkpoints, which the host commits through
# its one save ladder; the socket-free leg-driver tests retry a cut disk
# leg, match a disk's return by name, land a whole migration retried after
# a failed RAM leg, ask a refusing destination once, degrade a broken
# departure save stream once, collect and retry a salvage that hit a full
# disk, and trace a union entry skipped; two hosts closed after a leg leave
# both checkpoints durable (plus the engine-level salvage/resume contract
# tests, and the store's crash, corruption and seeded-invariant cells — the
# kill-point matrix with its crash between a commit and its flush and its
# failed flushes, the invariant sequence with its flush steps — a restore
# that waits for its entry's flush, a scrub that sets a torn segment aside
# without also naming it a rolled-back orphan, and a compaction reading its
# live slots one run at a time), under the race detector.
chaos-smoke:
	$(GO) test -race -run 'TestChaos|TestLeg|TestCloseMakesCheckpointsDurable' ./internal/sched/
	$(GO) test -race -run 'TestSalvage|TestPartialAnnounced|TestKillPointMatrix|TestTornSegment|TestRecoverySetsAside|TestStoreInvariants|TestWarmSaveSyncs|TestSegmentWriteback|TestGCCrashMidCompact|TestScrubSetAsideIsNotOrphan|TestGCCompactReadsRuns|TestRestoreWaitsForFlush' ./internal/core/ ./internal/checkpoint/

# chaos-store is the storage-fault gate: deterministic faultfs schedules
# inject EIO/ENOSPC/torn writes and read faults at every store op site
# across migration phases (keep-checkpoint, save-arrivals, bootstrap,
# salvage — all three persists through the host's one save ladder —
# mid-merge recycled reads, and the store flush behind a migration whose
# fsync fails: one flush degradation, TestChaosStoreFlushSyncEIO) and
# assert the graceful-degradation ladder converges every migration with
# zero data loss — storage faults may cost checkpoints, never migrations. Runs under the race detector, alongside
# the MigrationError round-trip and the injector's own tests.
# See docs/ROBUSTNESS.md.
chaos-store:
	$(GO) test -race -run 'TestChaosStore' ./internal/sched/
	$(GO) test -race -run 'TestMigrationErrorRoundTrip|TestFaultConnTornWrite' ./internal/core/
	$(GO) test -race ./internal/faultfs/

# dedup-smoke is the content-addressed-store gate: two checkpoints sharing
# half their pages must stat a host dedup ratio strictly above 1.0, gc must
# reclaim removed entries' unshared content, and the concurrent
# Save/GC/Restore/OpenUnion interleavings must hold under the race detector.
dedup-smoke:
	$(GO) test -race -run 'TestStoreStatDedupRatio|TestStoreGCReclaimsRemovedEntries' ./cmd/vecycle/
	$(GO) test -race -run 'TestDedupAcross|TestConcurrentSaveGCRestore|TestOpenUnion' ./internal/checkpoint/

# fuzz-range runs the wire and disk parser fuzzers briefly beyond their
# committed seed corpus: the range-frame parser directly, then the whole
# destination engine against mutated source streams of one-page and
# multi-page range frames; the hello (with its optional manifest root), the
# hello-ack and the announcement codec, which open every conversation; the
# page manifest parser, whose output a restore announces to the peer as it
# stands; and the segment key-table reader and store-manifest parser, whose
# output recovery indexes the pool by.
fuzz-range:
	$(GO) test -run '^$$' -fuzz FuzzRangeDecode -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzMergeStream$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzRangeMergeStream$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzHello$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzHelloAck$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSet$$' -fuzztime 5s ./internal/checksum/
	$(GO) test -run '^$$' -fuzz FuzzParsePMF -fuzztime 5s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzReadSegmentKeys -fuzztime 5s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime 5s ./internal/checkpoint/

# docs is the documentation gate: every exported identifier in the
# operator-facing packages must carry a doc comment, and every relative
# markdown link in README/docs must resolve (tools/lintdocs).
docs:
	$(GO) run ./tools/lintdocs

# ci is the gate for every change: static analysis, the docs gate, the
# full suite under the race detector (which includes the golden-stream and
# teardown tests), the digest-table gate, the return-path gate, the
# chaos/resumability gate, the storage-fault gate, the dedup-store gate, a
# single-iteration pass over every benchmark, short wire- and
# manifest-parser fuzzing, and the regression gate on the committed
# benchmark recording.
ci: vet docs race race-digest race-restore chaos-smoke chaos-store dedup-smoke bench-smoke fuzz-range benchgate
