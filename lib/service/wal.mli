(** Write-ahead journal for the campaign job queue.

    The journal is the daemon's only durable state: every queue
    transition is appended as one CRC-32-framed record and [fsync]ed
    {e before} the transition is acknowledged (to a client) or acted on
    (a job started).  A daemon killed at any instant — including
    mid-append — recovers by replaying the journal: the job table is
    rebuilt, jobs whose [Start] has no matching terminal record are
    re-queued (resuming from their [Checkpoint_ref] artifact when one
    was recorded), and a torn tail record is dropped rather than
    trusted.

    {1 On-disk format}

    A journal directory holds numbered segments [wal-NNNNNN.log].  Each
    record is one {!Obs.Durable} sealed line — the format checkpoints
    use too:

    {v {"crc":"0xXXXXXXXX","rec":{"kind":...,...}} v}

    Replay verifies every line; the first bad line of a segment (torn
    tail, corrupt CRC, garbage) stops that segment's replay and the
    remaining bytes are counted in [dropped] — never silently
    interpreted.

    {1 Rotation}

    [rotate] compacts: the live state is serialized as one [Snapshot]
    record into a {e new} segment written atomically
    ({!Obs.Json.write_atomic}: fsync file and directory before and
    after the rename), and only then are older segments unlinked.  A
    crash at any point leaves either the old segments (rotation not yet
    visible) or the new one (snapshot durable) — replay handles both,
    because a [Snapshot] record supersedes everything before it. *)

type record =
  | Submit of int * Obs.Json.t          (** job id, {!Jobspec} JSON *)
  | Start of int * int                  (** job id, 1-based attempt *)
  | Checkpoint_ref of int * string      (** job id, checkpoint artifact *)
  | Finish of int * string * string     (** job id, verdict, report path *)
  | Fail of int * int * string          (** job id, attempt, reason *)
  | Shed of int * float                 (** job id, new budget scale *)
  | Cancel of int                       (** job id *)
  | Quarantine of int * int             (** job id, failed attempts *)
  | Snapshot of Obs.Json.t              (** compaction state *)

val record_to_json : record -> Obs.Json.t
val record_of_json : Obs.Json.t -> (record, string) result

val frame : record -> string
(** The exact bytes {!append} puts in the segment (one line, newline
    included) — exposed for tests that corrupt journals surgically. *)

type t

val open_dir : ?segment_bytes:int -> string -> t * record list * int
(** Open (creating the directory if needed) and recover: returns the
    journal ready for appending, the replayed records (oldest first,
    already compacted — records before the last [Snapshot] are
    dropped), and the count of bytes that failed CRC/framing and were
    discarded.  Leftover [.tmp] files from an interrupted rotation are
    removed.  [segment_bytes] (default 1 MiB) is the rotation
    threshold reported by {!needs_rotation}. *)

val append : t -> record -> unit
(** Frame, write and [fsync] one record — durable when the call
    returns, which is what lets callers ack.  With a {!Chaos} spec
    armed, the [journal-truncate] point writes half the frame and
    kills the process (SIGKILL semantics), simulating a crash
    mid-append; recovery drops the torn tail. *)

val bytes : t -> int
(** Bytes in the active segment. *)

val segment_index : t -> int

val needs_rotation : t -> bool

val rotate : t -> snapshot:Obs.Json.t -> unit
(** Start a fresh segment whose first record is [Snapshot snapshot],
    then unlink the older segments.  Atomic as described above. *)

val close : t -> unit
