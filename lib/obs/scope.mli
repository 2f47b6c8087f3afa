(** Scoped readings: what one piece of work recorded, and nothing else.

    {!run} gives the calling domain fresh {!Metrics} slots and a fresh
    {!Span} table for the duration of [f] (spans still nest under the
    ones already open), then reinstalls the enclosing registries and
    folds the reading into them on every exit path: counters add, peak
    gauges take the max, span aggregates accumulate.  So a scope's peaks
    are its own, and an enclosing scope still counts its work once.  A
    task run on another domain hands its reading to the joining domain,
    which {!absorb}s it ({!Par.Helper.join}).  Scopes on one domain must
    nest: two systhreads of one domain must not run scopes at once. *)

type reading =
  { metrics : Metrics.snapshot  (** every registered metric, by name *)
  ; spans : Span.entry list
  }

(** The reading of a scope run with collection off. *)
val empty : reading

(** [run f] is [f ()] with the reading of what it recorded; with
    collection off it only runs [f].  If [f] raises, the reading is still
    folded and the exception re-raised with its backtrace. *)
val run : (unit -> 'a) -> 'a * reading

(** [absorb r] folds [r] into the calling domain's registries. *)
val absorb : reading -> unit
