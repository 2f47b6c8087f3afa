(** Nestable wall-clock timing spans.

    A span names a phase of work; spans opened while another is running
    nest under it, and all completions are aggregated per slash-separated
    path ([verify.functional/check], [extract/walk], ...).  Timing uses the
    monotonic {!Clock}, so durations are non-negative by construction.

    Spans obey the {!Metrics} global switch: when collection is disabled,
    {!with_} runs its thunk with no bookkeeping at all.

    Nesting state and aggregates are {e domain-local}: spans opened by
    parallel workers nest within their own domain and never interleave
    with another domain's stack.  Harvest a worker's {!report} at join
    time and fold it into the calling domain with {!absorb}. *)

(** [with_ name f] runs [f ()] inside a span called [name], nested under
    the currently open span (if any).  The span is closed — and its
    duration recorded — even if [f] raises. *)
val with_ : string -> (unit -> 'a) -> 'a

type entry =
  { path : string  (** slash-joined nesting path *)
  ; count : int  (** completions recorded under this path *)
  ; seconds : float  (** total wall-clock time across completions *)
  }

(** The calling domain's recorded aggregates, sorted by path. *)
val report : unit -> entry list

(** [absorb entries] adds another domain's report into the calling
    domain's aggregates (counts and durations accumulate). *)
val absorb : entry list -> unit

(** [diff ~before ~after] is what two reports of one domain say was
    recorded in between: counts and durations are subtracted, and paths
    that completed no span in the interval are dropped. *)
val diff : before:entry list -> after:entry list -> entry list

(** Drop the calling domain's aggregates and any stale nesting state. *)
val reset : unit -> unit

(** [entries_to_json entries] serializes a report (e.g. one harvested from
    a worker domain). *)
val entries_to_json : entry list -> Json.t

(** [to_json ()] is [entries_to_json (report ())]. *)
val to_json : unit -> Json.t
