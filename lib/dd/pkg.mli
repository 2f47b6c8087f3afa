(** Decision-diagram package: owns the complex table, the unique tables for
    vector and matrix nodes, and all operation caches.

    A package is the unit of state: DDs created in one package must never be
    mixed with those of another.  Creating a package is cheap, so
    independent tasks (tests, extraction branches run in parallel) should
    each use their own.

    A package is also {e single-domain} state: it carries no internal
    synchronization, so it must only ever be used by the domain that
    created it.  Entry points enforce this with a cheap owner check (see
    {!Cross_domain_use}); parallel drivers give every worker domain its
    own package. *)

open Types

type t

(** {1 Domain ownership} *)

(** Raised when a package is used from a domain other than the one that
    created it — misuse that would otherwise corrupt the unique tables
    silently.  The payload names both domain ids. *)
exception Cross_domain_use of string

(** {1 Creation} *)

(** The interning tolerance of every package's complex table: [1e-10].
    Weights within it of an interned value snap to that value. *)
val tolerance : float

(** [create ()] makes a fresh, empty package: unbounded operation caches,
    swept by {!checkpoint}'s growth rule.  Every creation counts under
    [dd.pkg.created] — the verdict cache's warm-path acceptance check
    asserts this stays flat across cached runs. *)
val create : unit -> t

val ctab : t -> Cxnum.Cx_table.t

(** {1 Weights} *)

(** [weight p z] interns an amplitude. *)
val weight : t -> Cxnum.Cx.t -> weight

val w_zero : weight
val w_one : weight

(** {1 Edges and nodes} *)

(** The canonical zero vector / matrix of any dimension. *)
val vzero : vedge

val mzero : medge

(** Scalar edges to the terminal (0-qubit vector / matrix). *)
val vterminal : t -> Cxnum.Cx.t -> vedge

val mterminal : t -> Cxnum.Cx.t -> medge

(** [make_vnode p var e0 e1] builds the normalized, hash-consed node with the
    given successors and returns the edge to it (carrying the normalization
    factor).  Successor edges must be rooted at level [var - 1] (or be zero
    stubs).  Normalization: successor weights are divided by their 2-norm and
    by the phase of the first non-zero weight, so that the node's weights
    have unit norm and the first non-zero one is real positive. *)
val make_vnode : t -> int -> vedge -> vedge -> vedge

(** [make_mnode p var e00 e01 e10 e11] is the matrix analogue.
    Normalization divides by the largest-magnitude weight (ties broken by
    lowest index), so the largest weight becomes exactly 1. *)
val make_mnode : t -> int -> medge -> medge -> medge -> medge -> medge

(** [vscale p z e] multiplies an edge weight by [z]. *)
val vscale : t -> Cxnum.Cx.t -> vedge -> vedge

val mscale : t -> Cxnum.Cx.t -> medge -> medge

(** {1 Common diagrams} *)

(** [ident p n] is the identity matrix on [n] qubits (cached). *)
val ident : t -> int -> medge

(** [basis_state p n bits] is the computational basis state |b_{n-1} ... b_0>
    where [bits i] gives the value of qubit [i]. *)
val basis_state : t -> int -> (int -> bool) -> vedge

(** [zero_state p n] is |0...0> on [n] qubits. *)
val zero_state : t -> int -> vedge

(** [product_state p amps] builds the product state whose qubit [i] is
    [fst amps.(i)] |0> + [snd amps.(i)] |1>.  Amplitudes need not be
    normalized; the result is. *)
val product_state : t -> (Cxnum.Cx.t * Cxnum.Cx.t) array -> vedge

(** [gate p ~n ~controls ~target u] builds the matrix DD of the [n]-qubit
    operator applying the single-qubit matrix [u] (row-major
    [|u00; u01; u10; u11|]) to [target] under the given controls.  A control
    [(q, true)] activates on |1>, [(q, false)] on |0>. *)
val gate :
  t -> n:int -> controls:(int * bool) list -> target:int -> Cxnum.Cx.t array -> medge

(** {1 Gate signatures}

    Hash-consed descriptions of a single gate application — the 2x2 matrix
    entries, controls and target (or the two wires of a swap) — giving the
    direct application kernels ({!Mat.apply_gate} and friends) one small
    integer id per distinct gate to key their caches on.  The record is
    exposed read-only for {!Mat}; construct via {!gate_sig}/{!swap_sig}. *)

type gate_sig = private
  { gs_id : int  (** monotonic per package; never reused, even across GC *)
  ; gs_u : Cxnum.Cx.t array  (** row-major 2x2 entries; [[||]] for a swap *)
  ; gs_swap : bool
  ; gs_target : int  (** unary target; for a swap, the higher wire *)
  ; gs_target2 : int  (** swap: the lower wire; [-1] otherwise *)
  ; gs_hi : int  (** highest involved qubit (controls included) *)
  ; gs_lo : int  (** lowest involved qubit *)
  ; gs_cmin : int  (** lowest control below the target; [max_int] if none *)
  ; gs_control_at : bool option array  (** indexed by qubit, length [gs_hi+1] *)
  }

(** [gate_sig p ~controls ~target u] interns the signature of applying the
    2x2 matrix [u] (row-major, 4 entries) to [target] under [controls].
    Raises [Invalid_argument] on malformed wires.

    The table is the package's own, keyed on interned weight ids, so
    structurally equal matrices share a signature; a miss derives the
    wire extents and control table from [u], which the signature keeps.
    Nothing is shared between packages. *)
val gate_sig :
  t -> controls:(int * bool) list -> target:int -> Cxnum.Cx.t array -> gate_sig

(** [swap_sig p a b] interns the signature of the SWAP of wires [a] and
    [b] ([a <> b]). *)
val swap_sig : t -> int -> int -> gate_sig

(** [sig_control_at s q] is the control polarity of [s] at qubit [q], if
    any (total: qubits above [gs_hi] answer [None]). *)
val sig_control_at : gate_sig -> int -> bool option

(** {1 Caches}

    Operation caches used by {!Vec} and {!Mat}; exposed for them only. *)

val vadd_cache : t -> vedge Cache.t
val madd_cache : t -> medge Cache.t
val mv_cache : t -> vedge Cache.t
val mm_cache : t -> medge Cache.t
val ip_cache : t -> Cxnum.Cx.t Cache.t
val adj_cache : t -> medge Cache.t

(** The gate kernels' caches; {!Mat} documents their keys.  Values are
    edge pairs. *)
val kernel_v_cache : t -> (vedge * vedge) Cache.t

val kernel_m_cache : t -> (medge * medge) Cache.t

(** Drop all operation caches (keeps the unique tables). *)
val clear_caches : t -> unit

(** {1 Roots and garbage collection}

    The package tracks its live data through registered roots: mutable
    cells holding the edges that must survive a sweep.  Consumers root
    every intermediate result that must outlive a potential {!compact} and
    advance the cell (with {!set_vroot}/{!set_mroot}) as the computation
    progresses. *)

type vroot
type mroot

(** [root_v p e] registers [e] as a live vector root; {!release_v} (or the
    {!with_root_v} bracket) unregisters it. *)
val root_v : t -> vedge -> vroot

val root_m : t -> medge -> mroot
val vroot_edge : vroot -> vedge
val mroot_edge : mroot -> medge

(** [set_vroot r e] advances the root to a new edge (the previous edge
    becomes collectable unless rooted elsewhere). *)
val set_vroot : vroot -> vedge -> unit

val set_mroot : mroot -> medge -> unit
val release_v : t -> vroot -> unit
val release_m : t -> mroot -> unit

(** [with_root_v p e f] registers [e], runs [f] on the handle, and releases
    it even on exceptions.  The edge held by the handle when [f] returns is
    only guaranteed to stay canonical until the next sweep; re-root it if
    it must survive longer. *)
val with_root_v : t -> vedge -> (vroot -> 'a) -> 'a

val with_root_m : t -> medge -> (mroot -> 'a) -> 'a

(** Number of currently registered roots / live unique-table nodes. *)
val live_roots : t -> int

val live_nodes : t -> int

(** [compact p] garbage-collects the package: only nodes reachable from the
    registered roots (plus the cached identities) survive, all operation
    caches are dropped, and the complex table is rebuilt from the weights
    actually reachable — so long-lived packages no longer leak interned
    weights.  Edges held in live roots stay valid; any other edge must no
    longer be used with this package. *)
val compact : t -> unit

(** [checkpoint p] fires the domain's safepoint hook (if any), then
    sweeps if the growth rule asks for it.  Let [b] be the number of
    nodes that survived the last sweep (0 before the first).  The package
    sweeps once [live_nodes p - b > max 512 b], so the tables stay within
    about twice the live set plus 512 nodes, and every sweep, which costs
    O([b]), is preceded by at least [b] inserts.  A sweep is {!compact}
    minus the complex-table rebuild: interned weights survive, so values
    computed after a sweep snap to the representatives interned before
    it.  Consumers call this at safepoints — between DD operations, when
    everything live is rooted: any edge not reachable from a root may be
    swept by the next checkpoint.  A no-op (a few comparisons)
    otherwise. *)
val checkpoint : t -> unit

(** The sweep rule's floor: 512 nodes of growth while fewer than
    512 survived the last sweep (see {!checkpoint}). *)
val gc_floor : int

(** [set_safepoint_hook h] installs (or, with [None], removes) the calling
    domain's safepoint hook: a callback fired at every {!checkpoint} on
    any package used by this domain, before the auto-GC policy runs.
    Safepoints are exactly the places where consumers guarantee all live
    edges are rooted and no DD operation is in flight, which makes the
    hook the supported cooperative-cancellation point: raising from it
    (per-job wall-clock deadline, node-budget overrun) unwinds cleanly
    through the root brackets.  The hook is domain-local, so a worker's
    deadline never fires in another worker. *)
val set_safepoint_hook : (t -> unit) option -> unit

(** {1 Statistics} *)

type stats =
  { vector_nodes : int  (** live vector nodes in the unique table *)
  ; matrix_nodes : int  (** live matrix nodes in the unique table *)
  ; weights : int  (** interned complex values *)
  }

val stats : t -> stats
