(* The abstract DD-backend boundary.

   Everything consumers use of a decision-diagram package — lifecycle,
   rooted edges, safepoints/compaction, the arithmetic and gate-kernel
   surface of [Vec]/[Mat], gate signatures, cache/GC configuration — is
   captured by {!S}.  The historical hash-consed package is the reference
   implementation ({!Classic}); {!Packed} stores nodes in int-indexed
   growable arrays.  Consumers functorize over [S] and the CLI picks an
   implementation at runtime through {!Registry}, so adding a backend
   never touches callers.

   The types below ([caps], [config], [stats]) are deliberately concrete
   and shared by every backend: a [Dd.Pkg.config] built by the CLI flows
   into any backend unchanged. *)

module Cx = Cxnum.Cx

(* Per-cache capacities: negative means unbounded, 0 disables the cache
   (every lookup misses), positive bounds the entry count. *)
type caps =
  { vadd : int
  ; madd : int
  ; mv : int
  ; mm : int
  ; ip : int
  ; adj : int
  ; kernel : int
  }

let caps_unbounded =
  { vadd = -1; madd = -1; mv = -1; mm = -1; ip = -1; adj = -1; kernel = -1 }

let caps_uniform n =
  { vadd = n; madd = n; mv = n; mm = n; ip = n; adj = n; kernel = n }

type config =
  { caps : caps
  ; gc_threshold : int option
        (* automatic compaction once the unique tables have grown by this
           many nodes since the last sweep; [None] is the default growth
           rule of [gc_due] *)
  }

let default_config = { caps = caps_unbounded; gc_threshold = None }

(* The sweep rule every backend's [checkpoint] applies.  [live] counts the
   unique-table entries, [baseline] the survivors of the last sweep (0
   before the first).  [Some n] sweeps after [n] nodes of growth.  [None]
   sweeps once growth exceeds the survivors, or [gc_floor] while they are
   fewer: the tables stay within about twice the live set plus the floor,
   and since at least [baseline] inserts precede a sweep that costs
   O(survivors), a large live DD is never swept quadratically. *)
let gc_floor = 512

let gc_due threshold ~live ~baseline =
  live - baseline
  > (match threshold with Some n -> n | None -> max gc_floor baseline)

type stats =
  { vector_nodes : int
  ; matrix_nodes : int
  ; weights : int
  }

(* A package is single-domain state: using one from a domain other than
   its creator would corrupt its tables silently, so entry points carry a
   cheap owner check that turns misuse into a loud [Cross_domain_use].
   The exception and the kill switch are process-wide and shared by every
   backend. *)
exception Cross_domain_use of string

let domain_guards = Atomic.make true
let set_domain_guards b = Atomic.set domain_guards b
let guards_enabled () = Atomic.get domain_guards

(* Structural node view used by backend-generic traversals (the DOT
   renderer, debug dumps): node identity, its variable, and the successor
   edges — two for vectors, four row-major for matrices. *)
type 'edge node_view =
  { nv_id : int
  ; nv_var : int
  ; nv_edges : 'edge array
  }

(* -- shared gate-signature blueprints ----------------------------------

   Process-wide tier for the derived, package-independent part of a gate
   signature (wire extents and the control lookup array, plus the matrix
   itself), keyed on raw float bits rather than interned weight ids, so
   concurrent packages — of any backend — checking the same workload
   compute it once.  Blueprints are frozen after publish, which is what
   {!Cache_store.Shared} requires and keeps the domain-ownership guard
   intact: mutable package state never crosses domains, only these
   immutable derivations do. *)
type sig_blueprint =
  { b_u : Cx.t array
  ; b_hi : int
  ; b_lo : int
  ; b_cmin : int
  ; b_control_at : bool option array
  }

let sig_share : (int * (int * bool) list * int64 list, sig_blueprint) Cache_store.Shared.t =
  Cache_store.Shared.create ~metrics:"dd.sig.shared" ()

let shared_sig_key ~controls ~target u =
  let bits =
    Array.to_list u
    |> List.concat_map (fun (z : Cx.t) ->
           [ Int64.bits_of_float z.re; Int64.bits_of_float z.im ])
  in
  (target, controls, bits)

(* [controls] must already be sorted ([List.sort_uniq compare]). *)
let shared_blueprint ~controls ~target u =
  let skey = shared_sig_key ~controls ~target u in
  match Cache_store.Shared.find sig_share skey with
  | Some bp -> bp
  | None ->
    let involved = target :: List.map fst controls in
    let hi = List.fold_left max target involved in
    let lo = List.fold_left min target involved in
    let cmin =
      List.fold_left
        (fun acc (q, _) -> if q < target then min acc q else acc)
        max_int controls
    in
    let control_at = Array.make (hi + 1) None in
    List.iter (fun (q, pos) -> control_at.(q) <- Some pos) controls;
    let bp = { b_u = u; b_hi = hi; b_lo = lo; b_cmin = cmin; b_control_at = control_at } in
    Cache_store.Shared.publish sig_share skey bp;
    bp

(* -- the backend signature --------------------------------------------- *)

module type S = sig
  (* registry name, e.g. ["classic"] or ["packed"] *)
  val name : string

  type pkg
  type vedge
  type medge
  type vroot
  type mroot
  type gate_sig

  module Pkg : sig
    type t = pkg

    val create : ?tol:float -> ?config:config -> unit -> t
    val tol : t -> float
    val set_domain_guards : bool -> unit

    (* constructions *)
    val ident : t -> int -> medge
    val basis_state : t -> int -> (int -> bool) -> vedge
    val zero_state : t -> int -> vedge
    val product_state : t -> (Cx.t * Cx.t) array -> vedge

    val gate :
      t -> n:int -> controls:(int * bool) list -> target:int -> Cx.t array -> medge

    (* hash-consed gate signatures (kernel cache keys) *)
    val gate_sig :
      t -> controls:(int * bool) list -> target:int -> Cx.t array -> gate_sig

    val swap_sig : t -> int -> int -> gate_sig
    val sig_id : gate_sig -> int

    (* rooted edges: the reachability frontier for [compact] *)
    val root_v : t -> vedge -> vroot
    val root_m : t -> medge -> mroot
    val vroot_edge : vroot -> vedge
    val mroot_edge : mroot -> medge
    val set_vroot : vroot -> vedge -> unit
    val set_mroot : mroot -> medge -> unit
    val release_v : t -> vroot -> unit
    val release_m : t -> mroot -> unit
    val with_root_v : t -> vedge -> (vroot -> 'a) -> 'a
    val with_root_m : t -> medge -> (mroot -> 'a) -> 'a
    val live_roots : t -> int
    val live_nodes : t -> int

    (* memory management *)
    val compact : t -> unit
    val checkpoint : t -> unit
    val set_safepoint_hook : (t -> unit) option -> unit
    val stats : t -> stats
  end

  module Vec : sig
    val add : pkg -> vedge -> vedge -> vedge
    val inner_product : pkg -> vedge -> vedge -> Cx.t
    val fidelity : pkg -> vedge -> vedge -> float
    val norm : pkg -> vedge -> float
    val probabilities : pkg -> vedge -> int -> float * float
    val project : pkg -> vedge -> int -> int -> vedge
    val amplitude : pkg -> vedge -> n:int -> (int -> bool) -> Cx.t
    val to_array : pkg -> vedge -> n:int -> Cx.t array

    val nonzero_paths :
      pkg -> vedge -> n:int -> ?cutoff:float -> limit:int -> unit -> (int array * float) list

    val node_count : pkg -> vedge -> int
  end

  module Mat : sig
    val add : pkg -> medge -> medge -> medge
    val apply : pkg -> medge -> vedge -> vedge
    val mul : pkg -> medge -> medge -> medge
    val adjoint : pkg -> medge -> medge

    (* direct gate-application kernels *)
    val apply_gate :
      pkg -> n:int -> controls:(int * bool) list -> target:int -> Cx.t array
      -> vedge -> vedge

    val apply_swap : pkg -> n:int -> int -> int -> vedge -> vedge

    (* [apply_sig p ~n s v] applies a signature resolved beforehand by
       [Pkg.gate_sig]/[Pkg.swap_sig] on [p]: [apply_gate] and [apply_swap]
       are this kernel behind a signature lookup, which interns the 2x2
       entries and hashes the key on every call.  A signature stays valid
       across sweeps and [compact], because ids are never reused. *)
    val apply_sig : pkg -> n:int -> gate_sig -> vedge -> vedge

    val mul_gate_left :
      pkg -> n:int -> controls:(int * bool) list -> target:int -> Cx.t array
      -> medge -> medge

    val mul_gate_right :
      pkg -> n:int -> controls:(int * bool) list -> target:int -> Cx.t array
      -> medge -> medge

    val mul_swap_left : pkg -> n:int -> int -> int -> medge -> medge
    val mul_swap_right : pkg -> n:int -> int -> int -> medge -> medge
    val trace : pkg -> medge -> n:int -> Cx.t
    val to_array : pkg -> medge -> n:int -> Cx.t array array
    val equal : pkg -> medge -> medge -> bool
    val equal_up_to_phase : pkg -> medge -> medge -> bool
    val is_identity : pkg -> medge -> n:int -> up_to_phase:bool -> bool
    val process_fidelity : pkg -> medge -> medge -> n:int -> float
    val node_count : pkg -> medge -> int
  end

  (* structural views for backend-generic traversals (DOT, debug) *)
  val vedge_is_zero : pkg -> vedge -> bool
  val medge_is_zero : pkg -> medge -> bool
  val vedge_weight : pkg -> vedge -> Cx.t
  val medge_weight : pkg -> medge -> Cx.t
  val vedge_view : pkg -> vedge -> vedge node_view option
  val medge_view : pkg -> medge -> medge node_view option
end
