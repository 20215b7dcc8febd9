// Package serve is the warm-solver serving layer: the production front
// end that turns a stream of independent single-right-hand-side solve
// requests into the workload the paper proves is fast — few sweeps over
// the factor, each carrying many right-hand sides.
//
// The paper's headline throughput comes from amortization: one
// forward/backward sweep over 30 right-hand sides runs at several times
// the per-RHS rate of 30 separate sweeps, because every factor entry
// touched does NRHS units of work (the BLAS-3 effect of §5). A server
// receiving single-RHS requests can only cash that in by coalescing:
// concurrently arriving requests wait for at most a linger window, are
// gathered into one N×m block (m bounded by MaxBatch), and ride a single
// warm SolveInto sweep. The second amortization is the solver itself —
// the task DAG, update-stack layout, arena, and parked worker pool are
// built once per server, not per request, so the engine's zero-allocation
// warm path actually engages.
//
// # The coalescing contract
//
// Callers above this package — the network transport, the matrix
// registry, load generators — depend on two properties, both pinned by
// tests:
//
// Bitwise identity. Coalescing is invisible in the answers: the reply
// to a request is bitwise identical to the reply the same right-hand
// side would get solving alone, for any batch width, linger window,
// worker count, or task interleaving. This falls out of the native
// engine's column independence — each column of a multi-RHS sweep
// performs exactly the per-column operation sequence of a single-RHS
// sweep, in the same order, so batching changes wall-clock, never bits.
// It is why a serving layer may batch at all without renegotiating
// numerics with its clients, and why the HTTP transport can promise
// that a network solve equals an in-process one.
//
// Split-to-singles degradation. The server holds one degradation ladder
// — a rung list climbed by ladder.Run: for a float64 matrix the warm
// native sweep, then the sequential solve + iterative refinement; for a
// mixed one the f32 sweep with refinement, then the lazily built float64
// factor (prec.Guard.Rungs). A coalesced batch is an all-or-nothing
// climb of rung one at the batch width: if it fails — breakdown, task
// panic, deadline, or a residual above tolerance — the batch is split
// back into singles and each request climbs the same list from the top,
// alone, under its own context. One poisoned right-hand side therefore
// costs its batchmates one retry, never their answers, and a request's
// failure mode is always attributed to that request alone.
//
// Robustness around the contract: admission control is a bounded queue —
// when it is full the server sheds load with a typed *OverloadError
// instead of queueing unboundedly — and per-request deadlines propagate
// into the solve (a batch sweep runs under the farthest member deadline;
// a member whose own context ends first gets its cancellation at reply
// time while the rest keep their answers).
package serve
