(** Bounded compute caches for the DD package.

    Every operation cache ({!Vec.add}, {!Mat.apply}, ...) is one of these.
    An unbounded cache (the default) is a plain table that keeps no
    eviction state.  A bounded one uses second-chance (clock) eviction:
    each entry carries a reference bit set on hit, and the eviction scan
    gives referenced entries one more round before dropping them.  Hits,
    misses, evictions and the peak size are reported through
    {!Obs.Metrics} under [dd.cache.<name>.{hits,misses,evictions,peak}].

    Insertions use replace semantics: re-computing a key overwrites the old
    binding rather than shadowing it, so the cache never holds duplicate
    bindings for a key. *)

type ('k, 'v) t

(** [create ?capacity ?prefix name] makes a cache publishing metrics under
    [<prefix><name>.*] ([prefix] defaults to ["dd.cache."]; the gate
    kernels use ["dd."] so their two caches share the [dd.kernel.*]
    counters).  A negative [capacity] (the default) means unbounded; [0]
    disables storage entirely (every lookup misses); a positive value
    bounds the entry count, evicting on overflow. *)
val create : ?capacity:int -> ?prefix:string -> string -> ('k, 'v) t

(** [find t k] looks [k] up, counting a hit or a miss and marking the entry
    as recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v] binds [k] to [v], replacing any existing binding; evicts an
    old entry first when the cache is at capacity.  A no-op at capacity
    [0]. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** Drop every entry (capacity and counters are kept). *)
val clear : ('k, 'v) t -> unit

(** Current number of entries — never exceeds a positive capacity. *)
val length : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int
