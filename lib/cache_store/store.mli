(** Persistent content-addressed verdict store.

    On disk the store is a directory of JSONL segments
    ([seg-00000.jsonl], [seg-00001.jsonl], ...), one [qcec-cache/v1]
    record per line.  Writes are whole-line appends flushed per record, so
    a crash can tear at most the final line of the newest segment;
    {!open_dir} rebuilds the in-memory index by replaying every segment
    and drops only unparsable lines (counting them under
    [cache.store.dropped]).  Segments rotate once they exceed the segment
    budget, keeping individual files bounded.

    Lookups are served from an in-memory [Hashtbl] index.  One mutex
    guards it: {!lookup}, {!size} and {!insert} take it, so engine
    workers on any domain may share a store, and an insert appends its
    record to disk before it adds the entry to the index.

    Metrics ([docs/OBSERVABILITY.md]): [cache.result.hits],
    [cache.result.misses], [cache.result.inserts], [cache.result.bytes],
    [cache.store.recovered], [cache.store.dropped]; segment replay runs
    under a [cache.load] span. *)

type entry =
  { key : string  (** pair key from {!Key.make} *)
  ; digest_a : string
  ; digest_b : string
  ; strategy : string
  ; equivalent : bool
  ; exactly_equal : bool
  ; transformed_qubits : int
  ; peak_nodes : int
  ; t_transform : float  (** seconds spent transforming when first computed *)
  ; t_check : float  (** seconds spent checking when first computed *)
  }

type t

(** [open_dir ?segment_bytes dir] opens (creating if needed) a store
    rooted at [dir] and replays its segments into the index.  Torn or
    corrupt lines are skipped, never fatal.  [segment_bytes] (default
    8 MiB) bounds a segment before rotation. *)
val open_dir : ?segment_bytes:int -> string -> (t, string) result

(** An index-only store that persists nothing (used by tests and as the
    engine's in-process dedupe tier when no directory is configured). *)
val in_memory : unit -> t

(** [lookup t key] consults the index; counts a hit or miss. *)
val lookup : t -> string -> entry option

(** [insert t e] appends [e] to the newest segment (when persistent) and
    adds it to the index.  Last insert for a key wins. *)
val insert : t -> entry -> unit

(** Number of indexed entries. *)
val size : t -> int

(** Entries successfully replayed by {!open_dir} (0 for {!in_memory}). *)
val recovered : t -> int

(** Lines dropped during replay because they failed to parse. *)
val dropped : t -> int

(** The backing directory, if persistent. *)
val dir : t -> string option

(** Close the write channel (no-op for {!in_memory}).  The store must not
    be used afterwards. *)
val close : t -> unit

(** JSONL codec for one record, exposed for tests and external tooling. *)
val entry_to_json : entry -> Obs.Json.t

val entry_of_json : Obs.Json.t -> (entry, string) result
