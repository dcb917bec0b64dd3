// Package vecycle is a from-scratch Go reproduction of "VeCycle: Recycling
// VM Checkpoints for Faster Migrations" (Knauth & Fetzer, MIDDLEWARE 2015).
//
// The paper's idea: VMs tend to migrate within a small set of hosts — often
// ping-ponging between two — so every migration source should store a local
// checkpoint of the departing VM. A later migration back to that host
// bootstraps the destination's memory from the old checkpoint and sends
// only the pages whose content is no longer present in it, identified by
// strong per-page checksums.
//
// The library layout:
//
//   - internal/core — the live-migration protocol (iterative pre-copy with
//     checkpoint-assisted first round, bulk hash announcement, Listing 1
//     merge loop, ping-pong returns announced by manifest root).
//   - internal/vm, internal/checkpoint, internal/dirtytrack,
//     internal/checksum, internal/netem — the substrates: a byte-accurate
//     guest, checkpoint images with a checksum→offset index, Miyakodori
//     generation tracking, page checksums and link emulation.
//   - internal/memmodel, internal/fingerprint, internal/trace,
//     internal/methods — the trace study: synthetic memory-evolution
//     models calibrated to the paper's Memory Buddies analysis, similarity
//     and duplicate-page statistics, and the traffic calculators of the
//     method comparison.
//   - internal/migsim — a paper-scale (1–6 GiB) migration simulator with
//     the paper's measured cost constants.
//   - internal/experiments — one runner per table and figure.
//
// The benchmarks in bench_test.go regenerate every table and figure; see
// EXPERIMENTS.md for paper-vs-measured results and DESIGN.md for the system
// inventory and substitutions.
package vecycle
