// Command backdroidbench is the wall-clock benchmark of the BackDroid
// reproduction. The simtime gate (cmd/benchgate and the committed
// BENCH_*.json files) charges the paper's cost model, which is
// deterministic and stays the gate for charged work; this command
// measures what that model stands for on real hardware — seconds, CPU,
// allocations and memory — end to end through the public
// service.Scheduler API and layer by layer from outside the program.
//
// # Running
//
//	bash cmd/backdroidbench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//
// run.sh builds the command from the enclosing checkout with the build
// cache under .bench_build/ and runs it from the checkout root. This
// directory is a Go module of its own that builds the analysis code of
// the enclosing checkout through a replace directive, so the
// repository's `go test ./...` does not run it; build, vet and test it
// with `go -C cmd/backdroidbench test -short .` (or `go -C
// cmd/backdroidbench run . ...`) after changing a public API it calls.
// -workload all (the default) runs every workload in its own child
// process, first untraced and then traced. A single-workload
// run prints a readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. It exits non-zero
// when any job failed or reported a wrong verdict.
//
// # Procedure
//
// Every run sets the workload up (three times with -trace 0; setup_s is
// the median), runs one untimed warm-up step, which runs every distinct
// input once, and then five timed rounds. A round is a fixed number of
// steps — a corpus pass, a heavy-tail burst or an update-stream
// scheduler life — equal to
// stepsPerSecond * seconds / 5, where stepsPerSecond is frozen in
// workloads.go and -seconds is BENCHMARK.json's run_seconds, which the
// benchmark harness passes on every run: run length never depends on how
// fast the code under test is. The rates were set on the commit that
// introduced the benchmark: a round of cold-corpus or heavy-tail takes
// about 4 s there, one of warm-resubmit or update-stream about 2 s (see
// workloads.go for why). Each end-to-end metric is computed per
// round and reported as the median over rounds, with quartiles in the
// readable report. Load comes from one process: 2 closed-loop clients
// against a scheduler with 2 workers (heavy-tail: one client submitting
// a burst to a 2-node fleet), matching the 2-CPU host the step rates
// were measured on.
//
// The calibration host is a 2-vCPU guest whose speed drifts by tens of
// percent over seconds. Right before and right after every timed stretch
// (a pass, a burst, an update-stream pass, a set-up) the benchmark
// therefore waits for any garbage collection in progress to finish and
// times one pass of a fixed reference kernel of its own (reference.go).
// A pass gives a CPU slowdown (its process CPU time against calibration)
// and a wall slowdown (its wall time, which also counts the time the
// guest's CPUs were stolen). A round's CPU-time metric is divided by the
// kernel's mean CPU slowdown and its wall-time metrics by its mean wall
// slowdown; the readable report prints both divisors as slowdown_cpu and
// slowdown_wall. This cut the run-to-run spread of those metrics from
// 15-30% to a few percent (reference.go, CALIBRATION.md). The wait lets
// the collector finish the previous stretch's cycle untimed, like the
// think time between a client's requests.
//
// The apps are generated by appgen from a fixed corpus seed; -seed
// permutes the order jobs are submitted in (heavy-tail keeps its fixed
// burst order, since which small apps queue first decides its median).
// Drawing the corpus itself from -seed would change app sizes and sink
// counts, and with them every per-app metric, by more than the bounds
// the benchmark gates on. The program under test only ever sees the
// generated APK bytes.
//
// # Workloads
//
//   - cold-corpus: the 24-app evaluation corpus (SizeScale 0.15, with the
//     corrupt-method app #13 and the subclassed-sink app #17) through a
//     scheduler with no bundle store, report store or cache directory.
//     Every job is a miss and pays for container read, dex decode,
//     disassembly and index build: the preprocessing layers dominate.
//   - warm-resubmit: the same corpus through one long-lived scheduler with
//     an unbounded bundle store, primed by one untimed pass. Every job is
//     a store hit with zero disassembly and zero index builds; time goes
//     to bundle load, locate-sinks, backslice and constprop. A backslice
//     change shows here; a preprocessing change should not.
//   - heavy-tail: the 121-sink outlier first, then 6 small apps, as one
//     burst to a fresh 2-node fleet with partitions disabled and default
//     stealing; the next burst starts, from a collected heap, when all 7
//     jobs are done. Run time is concentrated in one app's per-sink
//     slicing and forward passes, and it is the only workload where a
//     node goes idle, so steal, chunk-merge and dispatch work shows here.
//   - update-stream: the write path. Each scheduler life gets a fresh
//     on-disk journal with a report store attached and a fresh bundle
//     store, primed untimed with v1 of every corpus app. The timed part
//     is four passes over every app's v2 (appgen.GenerateUpdate, cycling
//     change-literal, new-flow and add-class): delta jobs, then three
//     passes of settled hits. It writes journal records, report-store
//     entries and store puts beside reads; latency is set by the control
//     plane (apk read, dispatch, report codec, journal) and the delta
//     path.
//
// # Metrics
//
// End to end, per workload (BENCHMARK.json holds each bound):
//   - apps_per_s: jobs per second of timed work.
//   - job_p50_ms, job_p90_ms: Submit call to the job's Done callback,
//     which the scheduler runs right before Wait returns (see drive).
//     At -seconds 10 every round has at least 100 jobs, so p90 has at
//     least 10 samples beyond it; the readable report prints the job
//     count.
//   - cpu_ms_per_app: process user+system CPU time (getrusage) per job,
//     divided by the CPU slowdown.
//   - sim_units_per_app: charged simtime units, the paper's cost model.
//   - alloc_mb_per_app: heap bytes allocated (runtime TotalAlloc) per job.
//   - peak_mem_mb: the peak, over a round's stretch ends, of the memory
//     the Go runtime holds from the OS; steadier than the process's
//     one-off VmHWM, which moved by 15% between runs with GC timing.
//   - setup_s: generation, encoding, reference runs and priming, divided
//     by the wall-time slowdown sampled right before and after it.
//
// Failed and wrong-verdict jobs are the result's "failed" count out of
// "attempted"; the readable report prints their share as fail_rate.
//
// Correctness: every job's verdicts are checked against the independent
// appgen ground truth of its app version (a truth sink counts as detected
// when a report sink in its method is Reachable and Insecure; the only
// tolerated miss is the subclassed-sink false negative the paper
// documents), and every job's canonical report encoding must equal that
// of the version's reference cold run made during setup. The Reused
// provenance flag a delta run sets is cleared before the comparison.
//
// Per layer, from the traced run (-trace 1): the same workload, seed and
// round sizes, alternating untraced and traced rounds. A traced job
// carries a per-job copy of the default options whose PhaseSpan hook
// records into that job's recorder, and a Source wrapped with
// timestamps. Each boundary attributes the wall time since the previous
// one to the layer it closes, so per job the layers add up to the
// latency. The metric each layer should move, and where:
//
//	service.queue_wait_ms (Submit to Source start)  job_p90_ms on heavy-tail, job_p50_ms on update-stream
//	apk.read_ms (the apk.ReadBytes Source)          job_p50_ms on update-stream, apps_per_s on cold-corpus
//	core.backslice.*                                apps_per_s on warm-resubmit
//	core.disassembly.*                              apps_per_s on cold-corpus; no change on warm-resubmit
//	core.locate-sinks.*                             apps_per_s on cold-corpus, where it holds the index build
//	core.bundle-load.*                              job_p50_ms on warm-resubmit
//	core.constprop.*                                job_p90_ms on heavy-tail
//	core.delta-diff.*, core.delta-reuse.*           job_p90_ms on update-stream
//	service.tail_ms (last phase to Done callback)   job_p50_ms on update-stream
//
// Each core.<phase> has .ms (mean per job), .units (charged units per
// job) and .ns_per_unit. A phase's ms runs from the job's previous
// boundary, so it includes the untraced work between phases. The default
// indexed backend builds its index (cold-corpus) or decodes it from the
// bundle (warm-resubmit) at the first search, so that work is charged
// and timed inside locate-sinks: a change to index building shows as
// core.locate-sinks on cold-corpus. The engine's index-build and
// index-load spans are empty there and not reported.
// On heavy-tail, stolen chunks of the outlier run at the same time as
// the outlier itself and share its recorder: there the ms split is an
// apportionment of the job's latency, not self time — read .units.
// Counters come from the reports' Stats, the fleet's FleetStats and the
// journal's Stats: core.disassembled_lines_per_job,
// service.store_hit_rate, service.settled_hit_rate,
// core.delta_reused_share, bcsearch.postings_per_job,
// constprop.memo_hits_per_job, service.steals_per_batch,
// service.stolen_sinks_per_batch, service.makespan_units,
// journal.appends_per_job and journal.bytes_per_job. trace_overhead is
// the traced over the untraced apps_per_s (informational).
//
// After the traced rounds, layer probes call public entry points
// directly on the workload's distinct inputs for a fixed number of
// passes and report <probe>.ns_per_op, .bytes_per_op and .allocs_per_op:
// dex.decode, ir.translate, dexdump.disassemble and dexdump.index-build
// (should move cold-corpus apps_per_s), dexdump.bundle-encode and
// dexdump.bundle-decode (warm-resubmit job_p50_ms), bcsearch.search
// (warm-resubmit apps_per_s), service.report-encode,
// service.report-decode, journal.append and service.dispatch
// (update-stream job_p50_ms).
//
// The traced run also prints a calibration table: measured wall ns per
// charged unit for each engine phase, flagging any phase more than 4x
// from the median — a check of the simtime cost constants. It is
// informational and never gated.
//
// # Comparing two commits
//
// Build both commits and run each workload at least 10 times per side,
// alternating which side runs first, with the same -seconds and a fresh
// -seed per pair. Claim a gain on a metric only when the change wins at
// least 9 of 10 pairs (ties count for neither) and the two medians
// differ by more than the parent's own interquartile range. Every other
// metric and workload must stay within its bound in BENCHMARK.json;
// where the spread is wider than the bound, report it as unresolved.
// benchgate remains the gate for charged simtime: a change that moves
// sim_units_per_app must show the same move there.
package main
