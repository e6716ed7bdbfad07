// Package suite makes benchmark suites persistent, cacheable and
// shareable. The unit of exchange is a Manifest — the full recipe for a
// suite (benchmark family, device, known-optimal metric grid, circuits
// per grid value, generator options, base seed) — which hashes to a
// stable content address. A Store maps that address to an on-disk
// directory holding every instance of the suite (OpenQASM circuit,
// known-optimal solution, JSON sidecar) plus a checksum index, so that
// any two parties holding the same manifest hold bit-identical
// benchmarks. Generation dispatches on the family registry (package
// family): swap-optimal QUBIKOS suites and depth-optimal QUEKO-style
// suites flow through the same store.
//
// Store.EnsureCtx is the single entry point: it returns the stored suite if
// present and otherwise generates it — sharded over a worker pool, written
// atomically (temp directory + rename), and deduplicated in-process by a
// single-flight group so concurrent requests for the same manifest pay for
// at most one generation. Repeated requests never regenerate.
//
// The package also provides the persistence half of resumable evaluation:
// an EvalLog streams per-instance result rows as append-only JSONL inside
// the suite directory, keyed by an evaluation configuration hash, and
// reports which (tool, instance) pairs are already done so an interrupted
// run restarts where it stopped. The tool-running half lives in package
// harness, which fans evaluations over stored suites.
package suite
