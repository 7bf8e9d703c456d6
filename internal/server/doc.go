// Package server is the concurrent serving layer: it exposes the Verdict
// pipeline (internal/core) as a long-running multi-session HTTP/JSON
// service. N clients share one System — and therefore one synopsis, which
// is the whole point of database learning: every client's queries make the
// next client's answers better.
//
// Endpoints: POST /query, /query/stream (progressive online aggregation as
// chunked NDJSON), /append, /train, /rebuild (all behind admission
// control), GET /stats, and POST /save, /load for synopsis persistence
// inside a server-configured directory. See cmd/verdict-server and the
// README operations guide for wire formats.
//
// # Concurrency invariants
//
// The Server itself holds no query state and takes no locks on the
// request path; all shared-state discipline lives in core.System and
// below (snapshot-isolated views, per-model copy-on-write synopsis). What
// the server adds:
//
//   - Admission control: a buffered-channel semaphore of MaxInFlight
//     worker slots gates /query, /query/stream, /append, /train and
//     /rebuild; a request waits at most QueueWait before a 503, so
//     overload degrades into fast rejections instead of unbounded
//     queueing. One-shot handlers hold their slot until the response body
//     is fully written (their work cannot be interrupted, so the bound
//     stays hard); the streaming handler's slot is additionally released
//     the moment the request context is cancelled — a disconnected
//     streaming client frees its slot (and unpins the rebuild quiet
//     gate) immediately.
//   - Streams (/query/stream) pin one engine view and one inference
//     snapshot for their whole lifetime — the view's sample generation is
//     also refcount-pinned against replay-horizon eviction — and honor
//     client disconnects between increments; each chunk is flushed as
//     soon as it exists and carries a cursor that resumes the stream
//     bit-identically after a dropped connection (behind-horizon cursors
//     get a structured 410). A target_ci in the request stops the stream
//     server-side once the raw CI is tight enough.
//   - Graceful drain: BeginDrain sheds all new admitted work with 503
//     while in-flight handlers (streams included) finish; Drain waits for
//     them under the caller's deadline. /stats is never shed.
//   - Counters (served, rejected, pendingRows, lastActivity) are atomics;
//     the session registry has its own mutex and is LRU-capped.
//   - The auto-rebuild goroutine (armed by RebuildAfterRows, stopped by
//     Close) only ever calls System.RebuildSample, which serializes with
//     appends; "quiet" is defined as no admitted request activity for
//     RebuildQuiet, with activity stamped at admission and completion.
//   - /save writes are write-then-rename: concurrent saves to one name
//     race only on the atomic rename, never interleave bytes. /load swaps
//     the live synopsis atomically; in-flight queries finish on the old
//     one. Snapshot names are validated to bare file names, so clients
//     can never reach the rest of the filesystem.
package server
