(** Compute caches for the DD package.

    Every operation cache ({!Vec.add}, {!Mat.apply}, ...) is one of these:
    an unbounded table keyed on up to four ints, emptied by every sweep of
    its package ({!Pkg.checkpoint}, {!Pkg.compact}).  A cache that needs
    fewer key positions pads the rest with a constant.  Hits, misses and
    the peak size are reported through {!Obs.Metrics} under
    [dd.cache.<name>.{hits,misses,peak}].

    Insertions use replace semantics: re-computing a key overwrites the old
    binding rather than shadowing it, so the cache never holds duplicate
    bindings for a key. *)

type 'v t

(** [create ?prefix name] makes a cache publishing metrics under
    [<prefix><name>.*] ([prefix] defaults to ["dd.cache."]; the gate
    kernels use ["dd."] so their two caches share the [dd.kernel.*]
    counters). *)
val create : ?prefix:string -> string -> 'v t

(** [find t a b c d] looks the key [(a, b, c, d)] up, counting a hit or a
    miss. *)
val find : 'v t -> int -> int -> int -> int -> 'v option

(** [add t a b c d v] binds the key [(a, b, c, d)] to [v], replacing any
    existing binding. *)
val add : 'v t -> int -> int -> int -> int -> 'v -> unit

(** Drop every entry in place: the table keeps its size (counters are
    kept). *)
val clear : 'v t -> unit

(** Current number of entries. *)
val length : 'v t -> int
