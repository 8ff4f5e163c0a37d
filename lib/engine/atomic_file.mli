(** Crash-safe file replacement.

    [write path contents] stages the bytes in a sibling temp file,
    fsyncs the staging file, and [Sys.rename]s it over [path] (with a
    best-effort fsync of the parent directory).  On POSIX the rename
    is atomic: a reader (or a run interrupted mid-write) observes
    either the old complete file or the new complete file, never a
    truncated mix — and because the staged bytes are fsynced first,
    the rename never publishes a page-cache-only file that a power cut
    could truncate.  Every exported trace, metrics or profile document
    routes its writes through this. *)

exception Corrupt of { path : string; reason : string }
(** Raised by {!read} / {!read_json} when [path] cannot be read or
    parsed.  [reason] describes the failure; for JSON parse errors it
    carries the byte offset reported by {!Json.of_string}. *)

exception Crashed
(** Raised by {!write} under {!with_crash_after_bytes}: the simulated
    mid-write crash.  The torn staging file is deliberately left on
    disk, as after a real kill. *)

val tmp_path : string -> string
(** The legacy staging path ([path ^ ".tmp"]).  Current writes use a
    process-unique staging name instead; this is exposed so tests can
    place torn-writer residue where old versions would have left it. *)

val write : string -> string -> unit
(** [write path contents] atomically replaces [path].  The staging
    file is unique per writer (pid + per-process counter suffix), so
    concurrent writers to the same destination cannot tear each
    other's staging bytes — last rename wins with a complete payload.
    On failure the partially written temp file is removed and the
    original [path] is left untouched.  Raises [Sys_error] on I/O
    failure. *)

val read : string -> string
(** Whole-file read (convenience for the parse gate and tests).
    Raises {!Corrupt} if the file cannot be opened or read. *)

val read_json : string -> Json.t
(** [read path] then parse.  Raises {!Corrupt} with the parser's
    reason (including byte offset) on malformed JSON. *)

val with_crash_after_bytes : int -> (unit -> 'a) -> 'a
(** [with_crash_after_bytes n f] arms a test hook for the dynamic
    extent of [f]: the next {!write} whose payload exceeds [n] bytes
    stages exactly [n] bytes and raises {!Crashed}, leaving the torn
    staging file behind and the destination untouched.  Used by the
    [atomic-file] tests to check that a torn write never replaces the
    previous complete file. *)
