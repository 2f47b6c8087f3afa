(** Compute caches for the DD package.

    Every operation cache ({!Vec.add}, {!Mat.apply}, ...) is one of these:
    an unbounded table, emptied by every sweep of its package
    ({!Pkg.checkpoint}, {!Pkg.compact}).  Hits, misses and the peak size
    are reported through {!Obs.Metrics} under
    [dd.cache.<name>.{hits,misses,peak}].

    Insertions use replace semantics: re-computing a key overwrites the old
    binding rather than shadowing it, so the cache never holds duplicate
    bindings for a key. *)

type ('k, 'v) t

(** [create ?prefix name] makes a cache publishing metrics under
    [<prefix><name>.*] ([prefix] defaults to ["dd.cache."]; the gate
    kernels use ["dd."] so their two caches share the [dd.kernel.*]
    counters). *)
val create : ?prefix:string -> string -> ('k, 'v) t

(** [find t k] looks [k] up, counting a hit or a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v] binds [k] to [v], replacing any existing binding. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** Drop every entry (counters are kept). *)
val clear : ('k, 'v) t -> unit

(** Current number of entries. *)
val length : ('k, 'v) t -> int
