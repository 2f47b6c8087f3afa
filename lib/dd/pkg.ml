open Types
module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table
module M = Obs.Metrics

(* observability: unique-table traffic, node allocations and peak live node
   counts, aggregated over every package in the process.  A "hit" is a
   lookup that found an existing node (structural sharing paying off); an
   "insert" is a fresh allocation. *)
let m_vuniq_hits = M.counter "dd.unique.vec.hits"
let m_vuniq_inserts = M.counter "dd.unique.vec.inserts"
let m_muniq_hits = M.counter "dd.unique.mat.hits"
let m_muniq_inserts = M.counter "dd.unique.mat.inserts"
let m_gc_runs = M.counter "dd.gc.runs"
let m_gc_auto = M.counter "dd.gc.auto"
let m_gc_swept_nodes = M.counter "dd.gc.swept.nodes"
let m_gc_swept_weights = M.counter "dd.gc.swept.weights"
let g_vnodes_peak = M.gauge "dd.unique.vec.peak"
let g_mnodes_peak = M.gauge "dd.unique.mat.peak"
let m_pkg_created = M.counter "dd.pkg.created"

(* A package is single-domain state: using one from a domain other than
   its creator would corrupt its tables silently, so entry points carry a
   cheap owner check that turns misuse into a loud [Cross_domain_use]. *)
exception Cross_domain_use of string

let self_id () = (Domain.self () :> int)

(* The interning tolerance of every package's complex table. *)
let tolerance = 1e-10

(* Registered roots.  A root is a mutable cell the package knows about:
   [compact] treats the edges held in live roots (plus the cached identity
   chain) as the complete reachability frontier. *)
type vroot =
  { vr_id : int
  ; mutable vr_edge : vedge
  }

type mroot =
  { mr_id : int
  ; mutable mr_edge : medge
  }

(* Hash-consed gate signatures: the small per-gate description the direct
   application kernels ({!Mat.apply_gate} and friends) key their caches on.
   Interning gives every distinct (u, controls, target) combination one
   small integer id, so a kernel cache key is a handful of ints instead of
   a weight array.  [gs_u] stores the raw complex entries (not interned
   weights), so a signature held across a {!compact} stays usable: ids are
   only ever compared against entries written after the same sweep (the
   kernel caches are cleared by [compact], and [gs_id] is monotonic). *)
type gate_sig =
  { gs_id : int
  ; gs_u : Cx.t array (* row-major 2x2 entries; [||] for a swap *)
  ; gs_swap : bool
  ; gs_target : int (* unary target; for a swap, the higher wire *)
  ; gs_target2 : int (* swap: the lower wire; [-1] otherwise *)
  ; gs_hi : int (* highest involved qubit (controls included) *)
  ; gs_lo : int (* lowest involved qubit *)
  ; gs_cmin : int (* lowest control below the target; [max_int] if none *)
  ; gs_control_at : bool option array (* indexed by qubit, length gs_hi+1 *)
  }

(* intern key: tag (0 unary / 1 swap), sorted controls, u weight ids,
   target, second target *)
type sig_key = int * (int * bool) list * int list * int * int

(* A unique table: chains of nodes, hashed and compared on the node's
   own fields (variable, successor weight ids, successor node ids), so a
   probe allocates no key.  A sweep empties the bucket array in place and
   re-adds the survivors. *)
type 'n utable =
  { mutable buckets : 'n list array (* power-of-two length *)
  ; mutable count : int
  }

let utable () = { buckets = Array.make 4096 []; count = 0 }

let uslot (t : _ utable) h = (h lxor (h lsr 29)) land (Array.length t.buckets - 1)

let mix h x = (h * 0x5851f42d) + x

let vhash var w0 n0 w1 n1 = mix (mix (mix (mix (var * 0x2545f491) w0) n0) w1) n1 * 0x4f6cdd1d

let mhash var w00 n00 w01 n01 w10 n10 w11 n11 =
  let h = mix (mix (mix (mix (var * 0x2545f491) w00) n00) w01) n01 in
  mix (mix (mix (mix h w10) n10) w11) n11 * 0x4f6cdd1d

let vhash_node n = vhash n.vvar n.v0.vw.id (vnode_id n.v0.vt) n.v1.vw.id (vnode_id n.v1.vt)

let mhash_node n =
  mhash n.mvar n.m00.mw.id (mnode_id n.m00.mt) n.m01.mw.id (mnode_id n.m01.mt) n.m10.mw.id
    (mnode_id n.m10.mt) n.m11.mw.id (mnode_id n.m11.mt)

(* [add_node t hash n] puts [n] at the head of its chain, doubling the
   bucket array once the table holds twice as many nodes as buckets. *)
let add_node t hash n =
  let i = uslot t (hash n) in
  t.buckets.(i) <- n :: t.buckets.(i);
  t.count <- t.count + 1;
  if t.count > 2 * Array.length t.buckets then begin
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) [];
    Array.iter
      (List.iter (fun n ->
           let i = uslot t (hash n) in
           t.buckets.(i) <- n :: t.buckets.(i)))
      old
  end

let empty_utable t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.count <- 0

type t =
  { ctab : Ct.t
  ; vtab : vnode utable
  ; mtab : mnode utable
  ; mutable vnext : int
  ; mutable mnext : int
  ; mutable idents : medge array (* idents.(i) = identity on i qubits, i < nidents *)
  ; mutable nidents : int
  ; vadd : vedge Cache.t
  ; madd : medge Cache.t
  ; mv : vedge Cache.t
  ; mm : medge Cache.t
  ; ip : Cx.t Cache.t
  ; adj : medge Cache.t
  ; kv : (vedge * vedge) Cache.t (* vector gate-kernel cache *)
  ; km : (medge * medge) Cache.t (* matrix gate-kernel cache *)
  ; sigs : (sig_key, gate_sig) Hashtbl.t
  ; mutable sig_next : int
  ; vroots : (int, vroot) Hashtbl.t
  ; mroots : (int, mroot) Hashtbl.t
  ; mutable root_next : int
  ; mutable gc_baseline : int (* live nodes right after the last sweep *)
  ; owner : int (* id of the domain that created the package *)
  }

let guard p =
  let d = self_id () in
  if d <> p.owner then
    raise
      (Cross_domain_use
         (Printf.sprintf "Dd.Pkg: package owned by domain %d used from domain %d"
            p.owner d))

let create () =
  M.incr m_pkg_created;
  { ctab = Ct.create ~tol:tolerance ()
  ; vtab = utable ()
  ; mtab = utable ()
  ; vnext = 0
  ; mnext = 0
  ; idents = [||]
  ; nidents = 0
  ; vadd = Cache.create "vadd"
  ; madd = Cache.create "madd"
  ; mv = Cache.create "mv"
  ; mm = Cache.create "mm"
  ; ip = Cache.create "ip"
  ; adj = Cache.create "adj"
    (* both kernel caches publish under the same [dd.kernel.*] names:
       {!Obs.Metrics.register} de-duplicates, so their counters sum *)
  ; kv = Cache.create ~prefix:"dd." "kernel"
  ; km = Cache.create ~prefix:"dd." "kernel"
  ; sigs = Hashtbl.create 64
  ; sig_next = 0
  ; vroots = Hashtbl.create 16
  ; mroots = Hashtbl.create 16
  ; root_next = 0
  ; gc_baseline = 0
  ; owner = self_id ()
  }

let ctab p = p.ctab
let weight p z =
  guard p;
  Ct.lookup p.ctab z
let w_zero = Ct.zero
let w_one = Ct.one
let vzero = { vw = Ct.zero; vt = None }
let mzero = { mw = Ct.zero; mt = None }

let vterminal p z =
  let w = weight p z in
  if Ct.is_zero w then vzero else { vw = w; vt = None }

let mterminal p z =
  let w = weight p z in
  if Ct.is_zero w then mzero else { mw = w; mt = None }

let wcx (w : weight) = Ct.to_cx w

(* Unique-table lookups.  Successor edges are already canonical, so a node is
   identified by its variable, weight ids and target ids.  A miss returns
   the [absent_*] sentinel rather than allocating an option. *)

let absent_v = { vid = -1; vvar = -1; v0 = vzero; v1 = vzero; vmark = 0 }

let absent_m =
  { mid = -1; mvar = -1; m00 = mzero; m01 = mzero; m10 = mzero; m11 = mzero; mmark = 0 }

let rec find_vnode var w0 n0 w1 n1 = function
  | [] -> absent_v
  | n :: rest ->
    if
      n.vvar = var && n.v0.vw.id = w0 && vnode_id n.v0.vt = n0 && n.v1.vw.id = w1
      && vnode_id n.v1.vt = n1
    then n
    else find_vnode var w0 n0 w1 n1 rest

let rec find_mnode var w00 n00 w01 n01 w10 n10 w11 n11 = function
  | [] -> absent_m
  | n :: rest ->
    if
      n.mvar = var && n.m00.mw.id = w00 && mnode_id n.m00.mt = n00 && n.m01.mw.id = w01
      && mnode_id n.m01.mt = n01 && n.m10.mw.id = w10 && mnode_id n.m10.mt = n10
      && n.m11.mw.id = w11 && mnode_id n.m11.mt = n11
    then n
    else find_mnode var w00 n00 w01 n01 w10 n10 w11 n11 rest

let hashcons_vnode p var (e0 : vedge) (e1 : vedge) =
  let w0 = e0.vw.id and n0 = vnode_id e0.vt and w1 = e1.vw.id and n1 = vnode_id e1.vt in
  let t = p.vtab in
  let found = find_vnode var w0 n0 w1 n1 t.buckets.(uslot t (vhash var w0 n0 w1 n1)) in
  if found != absent_v then begin
    M.incr m_vuniq_hits;
    found
  end
  else begin
    let n = { vid = p.vnext; vvar = var; v0 = e0; v1 = e1; vmark = 0 } in
    p.vnext <- p.vnext + 1;
    add_node t vhash_node n;
    M.incr m_vuniq_inserts;
    M.observe g_vnodes_peak t.count;
    n
  end

let hashcons_mnode p var (e00 : medge) (e01 : medge) (e10 : medge) (e11 : medge) =
  let w00 = e00.mw.id and n00 = mnode_id e00.mt
  and w01 = e01.mw.id and n01 = mnode_id e01.mt
  and w10 = e10.mw.id and n10 = mnode_id e10.mt
  and w11 = e11.mw.id and n11 = mnode_id e11.mt in
  let t = p.mtab in
  let h = mhash var w00 n00 w01 n01 w10 n10 w11 n11 in
  let found = find_mnode var w00 n00 w01 n01 w10 n10 w11 n11 t.buckets.(uslot t h) in
  if found != absent_m then begin
    M.incr m_muniq_hits;
    found
  end
  else begin
    let n =
      { mid = p.mnext; mvar = var; m00 = e00; m01 = e01; m10 = e10; m11 = e11; mmark = 0 }
    in
    p.mnext <- p.mnext + 1;
    add_node t mhash_node n;
    M.incr m_muniq_inserts;
    M.observe g_mnodes_peak t.count;
    n
  end

(* Vector normalization: divide successor weights by their 2-norm and by the
   phase of the first non-zero weight.  The resulting node has unit-norm
   weights with the first non-zero one real positive, which makes node
   identity equivalent to sub-state identity and gives weights a direct
   probabilistic reading. *)
let make_vnode p var e0 e1 =
  guard p;
  if vedge_is_zero e0 && vedge_is_zero e1 then vzero
  else begin
    let w0 = wcx e0.vw and w1 = wcx e1.vw in
    let norm = Float.sqrt (Cx.abs2 w0 +. Cx.abs2 w1) in
    (* the phase reference must be a weight that survives normalization, so
       pick w0 only when it is non-negligible at the node's scale *)
    let lead = if Cx.abs w0 > tolerance *. norm then w0 else w1 in
    let phase = Cx.scale (1.0 /. Cx.abs lead) lead in
    let factor = Cx.scale norm phase in
    let renorm w e =
      if vedge_is_zero e then vzero
      else begin
        let w' = Cx.div w factor in
        (* normalized weights live at scale 1, so an absolute test cleans up
           relative cancellation noise *)
        if Cx.abs w' <= tolerance then vzero else { vw = weight p w'; vt = e.vt }
      end
    in
    let e0' = renorm w0 e0 and e1' = renorm w1 e1 in
    if vedge_is_zero e0' && vedge_is_zero e1' then vzero
    else begin
      let n = hashcons_vnode p var e0' e1' in
      { vw = weight p factor; vt = Some n }
    end
  end

(* Matrix normalization: divide by the largest-magnitude weight, lowest index
   winning near-ties, so the dominant weight becomes exactly 1.  The float
   operations are those of [Cx.abs] and [Cx.div], written out on the
   weights' fields so no complex number is boxed on the way; the package
   is checked once, and interning goes straight to the complex table. *)
let wabs (w : weight) = Float.sqrt ((w.re *. w.re) +. (w.im *. w.im))

(* [e]'s weight divided by the factor [fre + i fim], unless [e] is the
   lead [k], which becomes exactly 1 *)
let renorm_m p ~k idx fre fim (e : medge) =
  if medge_is_zero e then mzero
  else if idx = k then { mw = w_one; mt = e.mt }
  else begin
    let d = (fre *. fre) +. (fim *. fim) in
    let re = ((e.mw.re *. fre) +. (e.mw.im *. fim)) /. d
    and im = ((e.mw.im *. fre) -. (e.mw.re *. fim)) /. d in
    if Float.sqrt ((re *. re) +. (im *. im)) <= tolerance then mzero
    else { mw = Ct.lookup p.ctab (Cx.make re im); mt = e.mt }
  end

let make_mnode p var e00 e01 e10 e11 =
  guard p;
  if medge_is_zero e00 && medge_is_zero e01 && medge_is_zero e10 && medge_is_zero e11
  then mzero
  else begin
    let m0 = wabs e00.mw and m1 = wabs e01.mw and m2 = wabs e10.mw and m3 = wabs e11.mw in
    let mmax = Float.max (Float.max (Float.max (Float.max 0.0 m0) m1) m2) m3 in
    if not (Float.is_finite mmax) then
      invalid_arg "Dd.Pkg.make_mnode: non-finite edge weight (check gate angles)";
    (* ties on the leading magnitude are broken towards the lowest index,
       with a relative margin so drift cannot flip the choice *)
    let lead = mmax *. (1.0 -. 1e-9) in
    let k = if m0 >= lead then 0 else if m1 >= lead then 1 else if m2 >= lead then 2 else 3 in
    let f = match k with 0 -> e00.mw | 1 -> e01.mw | 2 -> e10.mw | _ -> e11.mw in
    let fre = f.re and fim = f.im in
    (* entries are interned last to first, as they always were: the order
       decides which representative a near value snaps to *)
    let r11 = renorm_m p ~k 3 fre fim e11 in
    let r10 = renorm_m p ~k 2 fre fim e10 in
    let r01 = renorm_m p ~k 1 fre fim e01 in
    let r00 = renorm_m p ~k 0 fre fim e00 in
    let n = hashcons_mnode p var r00 r01 r10 r11 in
    { mw = Ct.lookup p.ctab (Cx.make fre fim); mt = Some n }
  end

let vscale p z e =
  if vedge_is_zero e then vzero
  else begin
    let w = weight p (Cx.mul z (wcx e.vw)) in
    if Ct.is_zero w then vzero else { vw = w; vt = e.vt }
  end

let mscale p z e =
  if medge_is_zero e then mzero
  else begin
    let w = weight p (Cx.mul z (wcx e.mw)) in
    if Ct.is_zero w then mzero else { mw = w; mt = e.mt }
  end

(* The memoized identity chain lives in a growable array indexed by qubit
   count, so the lookup is O(1) — it sits on the kernel fast path for every
   positive/negative control branch. *)
let ident p n =
  if n < p.nidents then p.idents.(n)
  else begin
    if n >= Array.length p.idents then begin
      let cap = max 16 (max (n + 1) (2 * Array.length p.idents)) in
      let grown = Array.make cap mzero in
      Array.blit p.idents 0 grown 0 p.nidents;
      p.idents <- grown
    end;
    for i = p.nidents to n do
      p.idents.(i) <-
        (if i = 0 then { mw = w_one; mt = None }
         else begin
           let below = p.idents.(i - 1) in
           make_mnode p (i - 1) below mzero mzero below
         end)
    done;
    p.nidents <- n + 1;
    p.idents.(n)
  end

let basis_state p n bits =
  let rec build q acc =
    if q = n then acc
    else begin
      let acc' =
        if bits q then make_vnode p q vzero acc else make_vnode p q acc vzero
      in
      build (q + 1) acc'
    end
  in
  build 0 { vw = w_one; vt = None }

let zero_state p n = basis_state p n (fun _ -> false)

let product_state p amps =
  let n = Array.length amps in
  let rec build q acc =
    if q = n then acc
    else begin
      let a, b = amps.(q) in
      build (q + 1) (make_vnode p q (vscale p a acc) (vscale p b acc))
    end
  in
  build 0 { vw = w_one; vt = None }

(* Controlled-gate construction, bottom-up (cf. MQT's makeGateDD).  Each of
   the four entries of [u] starts as a terminal edge; levels below the target
   extend it with identity blocks, except at control levels where the
   inactive branch must be the identity *only on the diagonal entries*.
   Above the target a single edge remains and controls select between it and
   the identity of everything below. *)
let gate p ~n ~controls ~target u =
  assert (Array.length u = 4);
  assert (0 <= target && target < n);
  let control_at = Array.make n None in
  let set_control (q, pos) =
    assert (q <> target && 0 <= q && q < n);
    control_at.(q) <- Some pos
  in
  List.iter set_control controls;
  let entries = Array.map (fun z -> mterminal p z) u in
  for q = 0 to target - 1 do
    match control_at.(q) with
    | None ->
      for idx = 0 to 3 do
        let e = entries.(idx) in
        entries.(idx) <- make_mnode p q e mzero mzero e
      done
    | Some pos ->
      for idx = 0 to 3 do
        let diag = if idx = 0 || idx = 3 then ident p q else mzero in
        let e = entries.(idx) in
        entries.(idx) <-
          (if pos then make_mnode p q diag mzero mzero e
           else make_mnode p q e mzero mzero diag)
      done
  done;
  let at_target =
    make_mnode p target entries.(0) entries.(1) entries.(2) entries.(3)
  in
  let rec extend q acc =
    if q = n then acc
    else begin
      let acc' =
        match control_at.(q) with
        | None -> make_mnode p q acc mzero mzero acc
        | Some pos ->
          let below = ident p q in
          if pos then make_mnode p q below mzero mzero acc
          else make_mnode p q acc mzero mzero below
      in
      extend (q + 1) acc'
    end
  in
  extend (target + 1) at_target

(* -- gate signatures --------------------------------------------------- *)

let build_sig p ~key ~u ~swap ~controls ~target ~target2 =
  let involved = target :: (if swap then [ target2 ] else List.map fst controls) in
  let hi = List.fold_left max target involved in
  let lo = List.fold_left min target involved in
  let cmin =
    List.fold_left
      (fun acc (q, _) -> if q < target then min acc q else acc)
      max_int controls
  in
  let control_at = Array.make (hi + 1) None in
  List.iter (fun (q, pos) -> control_at.(q) <- Some pos) controls;
  let s =
    { gs_id = p.sig_next
    ; gs_u = u
    ; gs_swap = swap
    ; gs_target = target
    ; gs_target2 = target2
    ; gs_hi = hi
    ; gs_lo = lo
    ; gs_cmin = cmin
    ; gs_control_at = control_at
    }
  in
  p.sig_next <- p.sig_next + 1;
  Hashtbl.replace p.sigs key s;
  s

let gate_sig p ~controls ~target u =
  guard p;
  if Array.length u <> 4 then invalid_arg "Dd.Pkg.gate_sig: u must have 4 entries";
  if List.exists (fun (q, _) -> q = target || q < 0) controls || target < 0 then
    invalid_arg "Dd.Pkg.gate_sig: bad control/target wires";
  let controls = List.sort_uniq compare controls in
  (* key on interned weight ids so structurally equal matrices share a
     signature even when built from fresh floats *)
  let uw = Array.to_list (Array.map (fun z -> (weight p z).id) u) in
  let key = (0, controls, uw, target, -1) in
  match Hashtbl.find_opt p.sigs key with
  | Some s -> s
  | None -> build_sig p ~key ~u ~swap:false ~controls ~target ~target2:(-1)

let swap_sig p a b =
  guard p;
  if a = b || a < 0 || b < 0 then invalid_arg "Dd.Pkg.swap_sig: bad wires";
  let hi = max a b and lo = min a b in
  let key = (1, [], [], hi, lo) in
  match Hashtbl.find_opt p.sigs key with
  | Some s -> s
  | None -> build_sig p ~key ~u:[||] ~swap:true ~controls:[] ~target:hi ~target2:lo

let sig_control_at (s : gate_sig) q =
  if q <= s.gs_hi then s.gs_control_at.(q) else None

let vadd_cache p = p.vadd
let madd_cache p = p.madd
let mv_cache p = p.mv
let mm_cache p = p.mm
let ip_cache p = p.ip
let adj_cache p = p.adj
let kernel_v_cache p = p.kv
let kernel_m_cache p = p.km

let clear_caches p =
  Cache.clear p.vadd;
  Cache.clear p.madd;
  Cache.clear p.mv;
  Cache.clear p.mm;
  Cache.clear p.ip;
  Cache.clear p.adj;
  Cache.clear p.kv;
  Cache.clear p.km

(* -- root registry ---------------------------------------------------- *)

let root_v p e =
  guard p;
  let r = { vr_id = p.root_next; vr_edge = e } in
  p.root_next <- p.root_next + 1;
  Hashtbl.replace p.vroots r.vr_id r;
  r

let root_m p e =
  guard p;
  let r = { mr_id = p.root_next; mr_edge = e } in
  p.root_next <- p.root_next + 1;
  Hashtbl.replace p.mroots r.mr_id r;
  r

let vroot_edge r = r.vr_edge
let mroot_edge r = r.mr_edge
let set_vroot r e = r.vr_edge <- e
let set_mroot r e = r.mr_edge <- e
let release_v p r = Hashtbl.remove p.vroots r.vr_id
let release_m p r = Hashtbl.remove p.mroots r.mr_id

let with_root_v p e f =
  let r = root_v p e in
  Fun.protect ~finally:(fun () -> release_v p r) (fun () -> f r)

let with_root_m p e f =
  let r = root_m p e in
  Fun.protect ~finally:(fun () -> release_m p r) (fun () -> f r)

let live_roots p = Hashtbl.length p.vroots + Hashtbl.length p.mroots
let live_nodes p = p.vtab.count + p.mtab.count

(* -- compaction ------------------------------------------------------- *)

(* Sweep everything unreachable from the registered roots (plus the cached
   identity chain): operation caches are dropped and the unique tables are
   rebuilt from the reachable nodes.  With [~weights] the complex table is
   also re-seeded with exactly the weights those nodes (and the root edges
   themselves) carry.  Nodes and weights held by callers but not reachable
   from a root must no longer be used with this package: they stay
   structurally valid OCaml values, but lose canonicity (a later
   structurally-equal build yields a different physical node). *)
let sweep ~weights:rebuild p =
  guard p;
  M.incr m_gc_runs;
  let nodes_before = live_nodes p and weights_before = Ct.size p.ctab in
  clear_caches p;
  empty_utable p.vtab;
  empty_utable p.mtab;
  let stamp = fresh_stamp () in
  let weights : (int, weight) Hashtbl.t = Hashtbl.create 256 in
  let keep_w (w : weight) = if rebuild && w.id > 1 then Hashtbl.replace weights w.id w in
  let rec revisit_v = function
    | None -> ()
    | Some n ->
      if n.vmark <> stamp then begin
        n.vmark <- stamp;
        add_node p.vtab vhash_node n;
        keep_w n.v0.vw;
        keep_w n.v1.vw;
        if not (vedge_is_zero n.v0) then revisit_v n.v0.vt;
        if not (vedge_is_zero n.v1) then revisit_v n.v1.vt
      end
  in
  let rec revisit_m = function
    | None -> ()
    | Some n ->
      if n.mmark <> stamp then begin
        n.mmark <- stamp;
        add_node p.mtab mhash_node n;
        let follow (e : medge) =
          keep_w e.mw;
          if not (medge_is_zero e) then revisit_m e.mt
        in
        follow n.m00;
        follow n.m01;
        follow n.m10;
        follow n.m11
      end
  in
  let root_vedge (e : vedge) =
    keep_w e.vw;
    if not (vedge_is_zero e) then revisit_v e.vt
  in
  let root_medge (e : medge) =
    keep_w e.mw;
    if not (medge_is_zero e) then revisit_m e.mt
  in
  Hashtbl.iter (fun _ r -> root_vedge r.vr_edge) p.vroots;
  Hashtbl.iter (fun _ r -> root_medge r.mr_edge) p.mroots;
  (* the cached identity chain must stay valid *)
  for i = 0 to p.nidents - 1 do
    root_medge p.idents.(i)
  done;
  if rebuild then begin
    (* gate signatures key on interned weight ids, which the rebuild
       invalidates; dropping them means the next application re-interns
       (monotonic [gs_id]s keep cleared-cache keys collision-free) *)
    Hashtbl.reset p.sigs;
    Ct.rebuild p.ctab (Hashtbl.fold (fun _ w acc -> w :: acc) weights []);
    M.add m_gc_swept_weights (max 0 (weights_before - Ct.size p.ctab))
  end;
  p.gc_baseline <- live_nodes p;
  M.add m_gc_swept_nodes (nodes_before - live_nodes p)

let compact p = sweep ~weights:true p

(* Safepoint hook: a domain-local callback fired on every [checkpoint].
   Checkpoints are the places where consumers declare "everything live is
   rooted and no DD operation is in flight", which makes them the natural
   cancellation points for cooperative job control — the batch engine
   installs a hook that raises on deadline or node-budget overrun, and the
   exception unwinds through [Fun.protect]-style root brackets without
   corrupting any package state. *)
let safepoint_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_safepoint_hook h = Domain.DLS.set safepoint_hook h

(* The sweep rule [checkpoint] applies.  [live] counts the unique-table
   entries, [baseline] the survivors of the last sweep (0 before the
   first).  A sweep is due once growth exceeds the survivors, or
   [gc_floor] while they are fewer: the tables stay within about twice the
   live set plus the floor, and since at least [baseline] inserts precede
   a sweep that costs O(survivors), a large live DD is never swept
   quadratically. *)
let gc_floor = 512

let gc_due ~live ~baseline = live - baseline > max gc_floor baseline

(* Growth policy: a cheap check consumers place at safepoints (between DD
   operations, when everything live is rooted).  Compaction must never run
   in the middle of a {!Vec}/{!Mat} operation — intermediate edges held in
   OCaml locals are not rooted — so the package never compacts on its own;
   it only does so here, when a consumer says it is safe.  These sweeps
   keep the complex table: re-seeding it drops the representatives that
   rounded values snap back to, so rounding error compounds from one sweep
   to the next (the 1,365-gate optimized Grover-5 circuit drifted from
   fidelity 1 by 2.8e-8 on a basis state, past the 1e-9 stimuli test). *)
let checkpoint p =
  (match Domain.DLS.get safepoint_hook with None -> () | Some f -> f p);
  if gc_due ~live:(live_nodes p) ~baseline:p.gc_baseline then begin
    M.incr m_gc_auto;
    sweep ~weights:false p
  end

type stats =
  { vector_nodes : int
  ; matrix_nodes : int
  ; weights : int
  }

let stats p =
  { vector_nodes = p.vtab.count
  ; matrix_nodes = p.mtab.count
  ; weights = Ct.size p.ctab
  }
