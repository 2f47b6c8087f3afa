(* The packed-array backend.

   Same quasi-reduced QMDD semantics as {!Classic}, different memory
   layout: nodes live in int-indexed growable arrays (stride 3 for
   vector nodes — var, e0, e1 — and stride 5 for matrix nodes), complex
   weights are interned by the same {!Cxnum.Cx_table} as the classic
   package and looked up by id, and an edge is one packed int:
   [(weight_id lsl 31) lor (node_idx + 1)], node index [-1] being
   the terminal.  The canonical zero edge is the literal [0].  No
   per-node or per-edge boxing means the kernel descent paths touch
   flat arrays instead of chasing pointers.

   Normalization, tolerance handling and operation order are ported
   verbatim from [Pkg]/[Vec]/[Mat], so for the same inputs the two
   backends build isomorphic DDs with identical weights — verdicts,
   counterexamples and node counts are bit-identical, which is what
   makes cross-backend differential testing (and serving a verdict
   cached under one backend to the other) sound.

   Bounded operation caches reuse {!Cache}, gate signatures reuse the
   process-wide blueprint tier in {!Backend}, and metrics publish under
   the same [dd.*] names as the classic package (the metric registry
   de-duplicates, so counters sum across backends). *)

module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table
module M = Obs.Metrics

let name = "packed"

(* same counters as the classic package: creation deduplicates *)
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
let m_kernel_calls = M.counter "dd.kernel.calls"

(* -- edges -------------------------------------------------------------- *)

type vedge = int
type medge = int

let pack w t = (w lsl 31) lor (t + 1)
let ew e = e lsr 31
let et e = (e land 0x7fffffff) - 1
let one_t = pack 1 (-1) (* weight-one edge to the terminal *)

(* -- gate signatures ---------------------------------------------------- *)

(* Same shape as the classic package's signature record. *)
type gate_sig =
  { gs_id : int
  ; gs_u : Cx.t array
  ; gs_swap : bool
  ; gs_target : int
  ; gs_target2 : int
  ; gs_hi : int
  ; gs_lo : int
  ; gs_cmin : int
  ; gs_control_at : bool option array
  }

type sig_key = int * (int * bool) list * int list * int * int
type kkey = int * int * int * int

(* -- roots -------------------------------------------------------------- *)

type vroot =
  { vr_id : int
  ; mutable vr_edge : vedge
  }

type mroot =
  { mr_id : int
  ; mutable mr_edge : medge
  }

(* -- the package -------------------------------------------------------- *)

type t =
  { tol : float
  ; ctab : Ct.t
  ; mutable wvals : Ct.value array (* interned weights by id; 0 = zero, 1 = one *)
    (* nodes: flat arrays, unique tables keyed on (var, successor edges) *)
  ; vtab : (int * int * int, int) Hashtbl.t
  ; mtab : (int * int * int * int * int, int) Hashtbl.t
  ; mutable varr : int array
  ; mutable vnext : int
  ; mutable marr : int array
  ; mutable mnext : int
  ; mutable idents : int array
  ; mutable nidents : int
  ; vadd : (int * int * int, vedge) Cache.t
  ; madd : (int * int * int, medge) Cache.t
  ; mv : (int * int, vedge) Cache.t
  ; mm : (int * int, medge) Cache.t
  ; ip : (int * int, Cx.t) Cache.t
  ; adj : (int, medge) Cache.t
  ; kv : (kkey, vedge * vedge) Cache.t
  ; km : (kkey, medge * medge) Cache.t
  ; sigs : (sig_key, gate_sig) Hashtbl.t
  ; mutable sig_next : int
  ; vroots : (int, vroot) Hashtbl.t
  ; mroots : (int, mroot) Hashtbl.t
  ; mutable root_next : int
  ; gc_threshold : int option
  ; mutable gc_baseline : int
  ; owner : int
  }

type pkg = t

let guard p =
  if Backend.guards_enabled () then begin
    let d = (Domain.self () :> int) in
    if d <> p.owner then
      raise
        (Backend.Cross_domain_use
           (Printf.sprintf
              "Dd.Packed: package owned by domain %d used from domain %d" p.owner d))
  end

let create ?(tol = 1e-10) ?(config = Backend.default_config) () =
  M.incr m_pkg_created;
  let caps = config.Backend.caps in
  let wvals = Array.make 1024 Ct.zero in
  wvals.(1) <- Ct.one;
  { tol
  ; ctab = Ct.create ~tol ()
  ; wvals
  ; vtab = Hashtbl.create 4096
  ; mtab = Hashtbl.create 4096
  ; varr = Array.make 3072 0
  ; vnext = 0
  ; marr = Array.make 5120 0
  ; mnext = 0
  ; idents = [||]
  ; nidents = 0
  ; vadd = Cache.create ~capacity:caps.Backend.vadd "vadd"
  ; madd = Cache.create ~capacity:caps.Backend.madd "madd"
  ; mv = Cache.create ~capacity:caps.Backend.mv "mv"
  ; mm = Cache.create ~capacity:caps.Backend.mm "mm"
  ; ip = Cache.create ~capacity:caps.Backend.ip "ip"
  ; adj = Cache.create ~capacity:caps.Backend.adj "adj"
  ; kv = Cache.create ~capacity:caps.Backend.kernel ~prefix:"dd." "kernel"
  ; km = Cache.create ~capacity:caps.Backend.kernel ~prefix:"dd." "kernel"
  ; sigs = Hashtbl.create 64
  ; sig_next = 0
  ; vroots = Hashtbl.create 16
  ; mroots = Hashtbl.create 16
  ; root_next = 0
  ; gc_threshold = config.Backend.gc_threshold
  ; gc_baseline = 0
  ; owner = (Domain.self () :> int)
  }

let tol p = p.tol

(* -- weight interning ----------------------------------------------------- *)

(* An edge carries its weight's id; [wvals] maps it back to the value. *)
let weight p (z : Cx.t) =
  guard p;
  let v = Ct.lookup p.ctab z in
  let id = v.Ct.id in
  if id >= Array.length p.wvals || p.wvals.(id) != v then begin
    if id >= 0xffffffff then failwith "Dd.Packed: weight table overflow";
    if id >= Array.length p.wvals then begin
      let a = Array.make (2 * Array.length p.wvals) Ct.zero in
      Array.blit p.wvals 0 a 0 (Array.length p.wvals);
      p.wvals <- a
    end;
    p.wvals.(id) <- v
  end;
  id

let wf p id = Ct.to_cx p.wvals.(id)

(* -- node storage ------------------------------------------------------- *)

let vvar p i = p.varr.(3 * i)
let v0 p i = p.varr.((3 * i) + 1)
let v1 p i = p.varr.((3 * i) + 2)
let mvar p i = p.marr.(5 * i)
let m00 p i = p.marr.((5 * i) + 1)
let m01 p i = p.marr.((5 * i) + 2)
let m10 p i = p.marr.((5 * i) + 3)
let m11 p i = p.marr.((5 * i) + 4)

let hashcons_vnode p var e0 e1 =
  let key = (var, e0, e1) in
  match Hashtbl.find_opt p.vtab key with
  | Some i ->
    M.incr m_vuniq_hits;
    i
  | None ->
    let i = p.vnext in
    if i >= 0x7ffffffe then failwith "Dd.Packed: vector node index overflow";
    let base = 3 * i in
    if base + 3 > Array.length p.varr then begin
      let a = Array.make (2 * Array.length p.varr) 0 in
      Array.blit p.varr 0 a 0 base;
      p.varr <- a
    end;
    p.varr.(base) <- var;
    p.varr.(base + 1) <- e0;
    p.varr.(base + 2) <- e1;
    p.vnext <- i + 1;
    Hashtbl.add p.vtab key i;
    M.incr m_vuniq_inserts;
    M.observe g_vnodes_peak (Hashtbl.length p.vtab);
    i

let hashcons_mnode p var e00 e01 e10 e11 =
  let key = (var, e00, e01, e10, e11) in
  match Hashtbl.find_opt p.mtab key with
  | Some i ->
    M.incr m_muniq_hits;
    i
  | None ->
    let i = p.mnext in
    if i >= 0x7ffffffe then failwith "Dd.Packed: matrix node index overflow";
    let base = 5 * i in
    if base + 5 > Array.length p.marr then begin
      let a = Array.make (2 * Array.length p.marr) 0 in
      Array.blit p.marr 0 a 0 base;
      p.marr <- a
    end;
    p.marr.(base) <- var;
    p.marr.(base + 1) <- e00;
    p.marr.(base + 2) <- e01;
    p.marr.(base + 3) <- e10;
    p.marr.(base + 4) <- e11;
    p.mnext <- i + 1;
    Hashtbl.add p.mtab key i;
    M.incr m_muniq_inserts;
    M.observe g_mnodes_peak (Hashtbl.length p.mtab);
    i

(* -- edge construction (ports of Pkg) ----------------------------------- *)

let vterminal p z =
  let w = weight p z in
  if w = 0 then 0 else pack w (-1)

let mterminal p z =
  let w = weight p z in
  if w = 0 then 0 else pack w (-1)

let vscale p z e =
  if e = 0 then 0
  else begin
    let w = weight p (Cx.mul z (wf p (ew e))) in
    if w = 0 then 0 else pack w (et e)
  end

let mscale p z e =
  if e = 0 then 0
  else begin
    let w = weight p (Cx.mul z (wf p (ew e))) in
    if w = 0 then 0 else pack w (et e)
  end

(* Vector normalization: identical arithmetic to [Pkg.make_vnode]. *)
let make_vnode p var e0 e1 =
  guard p;
  if e0 = 0 && e1 = 0 then 0
  else begin
    let w0 = wf p (ew e0) and w1 = wf p (ew e1) in
    let norm = Float.sqrt (Cx.abs2 w0 +. Cx.abs2 w1) in
    let lead = if Cx.abs w0 > p.tol *. norm then w0 else w1 in
    let phase = Cx.scale (1.0 /. Cx.abs lead) lead in
    let factor = Cx.scale norm phase in
    let renorm w e =
      if e = 0 then 0
      else begin
        let w' = Cx.div w factor in
        if Cx.abs w' <= p.tol then 0
        else begin
          let wid = weight p w' in
          if wid = 0 then 0 else pack wid (et e)
        end
      end
    in
    let e0' = renorm w0 e0 and e1' = renorm w1 e1 in
    if e0' = 0 && e1' = 0 then 0
    else begin
      let n = hashcons_vnode p var e0' e1' in
      let fw = weight p factor in
      if fw = 0 then 0 else pack fw n
    end
  end

(* Matrix normalization: identical arithmetic to [Pkg.make_mnode]. *)
let make_mnode p var e00 e01 e10 e11 =
  guard p;
  let edges = [| e00; e01; e10; e11 |] in
  let mags = Array.map (fun e -> Cx.abs (wf p (ew e))) edges in
  let mmax = Array.fold_left Float.max 0.0 mags in
  if Array.for_all (fun e -> e = 0) edges then 0
  else if not (Float.is_finite mmax) then
    invalid_arg "Dd.Packed.make_mnode: non-finite edge weight (check gate angles)"
  else begin
    let rec lead_index k =
      if mags.(k) >= mmax *. (1.0 -. 1e-9) then k else lead_index (k + 1)
    in
    let k = lead_index 0 in
    let factor = wf p (ew edges.(k)) in
    let renorm idx e =
      if e = 0 then 0
      else if idx = k then pack 1 (et e)
      else begin
        let w' = Cx.div (wf p (ew e)) factor in
        if Cx.abs w' <= p.tol then 0
        else begin
          let wid = weight p w' in
          if wid = 0 then 0 else pack wid (et e)
        end
      end
    in
    let n =
      hashcons_mnode p var (renorm 0 e00) (renorm 1 e01) (renorm 2 e10)
        (renorm 3 e11)
    in
    let fw = weight p factor in
    if fw = 0 then 0 else pack fw n
  end

let ident p n =
  if n < p.nidents then p.idents.(n)
  else begin
    if n >= Array.length p.idents then begin
      let cap = max 16 (max (n + 1) (2 * Array.length p.idents)) in
      let grown = Array.make cap 0 in
      Array.blit p.idents 0 grown 0 p.nidents;
      p.idents <- grown
    end;
    for i = p.nidents to n do
      p.idents.(i) <-
        (if i = 0 then one_t
         else begin
           let below = p.idents.(i - 1) in
           make_mnode p (i - 1) below 0 0 below
         end)
    done;
    p.nidents <- n + 1;
    p.idents.(n)
  end

let basis_state p n bits =
  let rec build q acc =
    if q = n then acc
    else begin
      let acc' = if bits q then make_vnode p q 0 acc else make_vnode p q acc 0 in
      build (q + 1) acc'
    end
  in
  build 0 one_t

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
  build 0 one_t

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
        entries.(idx) <- make_mnode p q e 0 0 e
      done
    | Some pos ->
      for idx = 0 to 3 do
        let diag = if idx = 0 || idx = 3 then ident p q else 0 in
        let e = entries.(idx) in
        entries.(idx) <-
          (if pos then make_mnode p q diag 0 0 e else make_mnode p q e 0 0 diag)
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
        | None -> make_mnode p q acc 0 0 acc
        | Some pos ->
          let below = ident p q in
          if pos then make_mnode p q below 0 0 acc
          else make_mnode p q acc 0 0 below
      in
      extend (q + 1) acc'
    end
  in
  extend (target + 1) at_target

(* -- gate signatures ---------------------------------------------------- *)

let gate_sig p ~controls ~target u =
  guard p;
  if Array.length u <> 4 then invalid_arg "Dd.Packed.gate_sig: u must have 4 entries";
  if List.exists (fun (q, _) -> q = target || q < 0) controls || target < 0 then
    invalid_arg "Dd.Packed.gate_sig: bad control/target wires";
  let controls = List.sort_uniq compare controls in
  let uw = Array.to_list (Array.map (fun z -> weight p z) u) in
  let key = (0, controls, uw, target, -1) in
  match Hashtbl.find_opt p.sigs key with
  | Some s -> s
  | None ->
    let bp = Backend.shared_blueprint ~controls ~target u in
    let s =
      { gs_id = p.sig_next
      ; gs_u = bp.Backend.b_u
      ; gs_swap = false
      ; gs_target = target
      ; gs_target2 = -1
      ; gs_hi = bp.Backend.b_hi
      ; gs_lo = bp.Backend.b_lo
      ; gs_cmin = bp.Backend.b_cmin
      ; gs_control_at = bp.Backend.b_control_at
      }
    in
    p.sig_next <- p.sig_next + 1;
    Hashtbl.replace p.sigs key s;
    s

let swap_sig p a b =
  guard p;
  if a = b || a < 0 || b < 0 then invalid_arg "Dd.Packed.swap_sig: bad wires";
  let hi = max a b and lo = min a b in
  let key = (1, [], [], hi, lo) in
  match Hashtbl.find_opt p.sigs key with
  | Some s -> s
  | None ->
    let s =
      { gs_id = p.sig_next
      ; gs_u = [||]
      ; gs_swap = true
      ; gs_target = hi
      ; gs_target2 = lo
      ; gs_hi = hi
      ; gs_lo = lo
      ; gs_cmin = max_int
      ; gs_control_at = Array.make (hi + 1) None
      }
    in
    p.sig_next <- p.sig_next + 1;
    Hashtbl.replace p.sigs key s;
    s

let sig_id (s : gate_sig) = s.gs_id

let sig_control_at (s : gate_sig) q =
  if q <= s.gs_hi then s.gs_control_at.(q) else None

(* -- roots -------------------------------------------------------------- *)

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
let live_nodes p = Hashtbl.length p.vtab + Hashtbl.length p.mtab

let clear_caches p =
  Cache.clear p.vadd;
  Cache.clear p.madd;
  Cache.clear p.mv;
  Cache.clear p.mm;
  Cache.clear p.ip;
  Cache.clear p.adj;
  Cache.clear p.kv;
  Cache.clear p.km

(* -- compaction --------------------------------------------------------- *)

(* Port of [Pkg.sweep]: unreachable nodes are dropped from the unique
   tables and, with [~weights], the weight buckets are re-seeded from the
   survivors.  Node and weight ids stay monotonic (stale handles lose
   canonicity but never collide).  Array slots of dead nodes are retained
   until the package is dropped — the packed layout trades sweep-time
   reclamation for id stability; [live_nodes]/[stats] count unique-table
   entries, exactly as the classic backend does. *)
let sweep ~weights:rebuild p =
  guard p;
  M.incr m_gc_runs;
  let nodes_before = live_nodes p and weights_before = Ct.size p.ctab in
  clear_caches p;
  Hashtbl.reset p.vtab;
  Hashtbl.reset p.mtab;
  let vseen = Hashtbl.create 256 and mseen = Hashtbl.create 256 in
  let weights : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let keep_w w = if rebuild && w > 1 then Hashtbl.replace weights w () in
  let rec revisit_v t =
    if t >= 0 && not (Hashtbl.mem vseen t) then begin
      Hashtbl.add vseen t ();
      let e0 = v0 p t and e1 = v1 p t in
      Hashtbl.replace p.vtab (vvar p t, e0, e1) t;
      keep_w (ew e0);
      keep_w (ew e1);
      if e0 <> 0 then revisit_v (et e0);
      if e1 <> 0 then revisit_v (et e1)
    end
  in
  let rec revisit_m t =
    if t >= 0 && not (Hashtbl.mem mseen t) then begin
      Hashtbl.add mseen t ();
      let e00 = m00 p t and e01 = m01 p t and e10 = m10 p t and e11 = m11 p t in
      Hashtbl.replace p.mtab (mvar p t, e00, e01, e10, e11) t;
      let follow e =
        keep_w (ew e);
        if e <> 0 then revisit_m (et e)
      in
      follow e00;
      follow e01;
      follow e10;
      follow e11
    end
  in
  let root_vedge e =
    keep_w (ew e);
    if e <> 0 then revisit_v (et e)
  in
  let root_medge e =
    keep_w (ew e);
    if e <> 0 then revisit_m (et e)
  in
  Hashtbl.iter (fun _ r -> root_vedge r.vr_edge) p.vroots;
  Hashtbl.iter (fun _ r -> root_medge r.mr_edge) p.mroots;
  for i = 0 to p.nidents - 1 do
    root_medge p.idents.(i)
  done;
  if rebuild then begin
    Hashtbl.reset p.sigs;
    Ct.rebuild p.ctab (Hashtbl.fold (fun id () acc -> p.wvals.(id) :: acc) weights []);
    M.add m_gc_swept_weights (max 0 (weights_before - Ct.size p.ctab))
  end;
  p.gc_baseline <- live_nodes p;
  M.add m_gc_swept_nodes (nodes_before - live_nodes p)

let compact p = sweep ~weights:true p

let safepoint_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_safepoint_hook h = Domain.DLS.set safepoint_hook h

let checkpoint p =
  (match Domain.DLS.get safepoint_hook with None -> () | Some f -> f p);
  if Backend.gc_due p.gc_threshold ~live:(live_nodes p) ~baseline:p.gc_baseline
  then begin
    M.incr m_gc_auto;
    sweep ~weights:false p
  end

let stats p =
  { Backend.vector_nodes = Hashtbl.length p.vtab
  ; matrix_nodes = Hashtbl.length p.mtab
  ; weights = Ct.size p.ctab
  }

(* -- vector operations (ports of Vec) ----------------------------------- *)

let rec vec_add p a b =
  if a = 0 then b
  else if b = 0 then a
  else begin
    let a, b = if et a <= et b then (a, b) else (b, a) in
    let wa = wf p (ew a) and wb = wf p (ew b) in
    match (et a, et b) with
    | -1, -1 ->
      let s = Cx.add wa wb in
      if Cx.abs s <= p.tol *. Float.max (Cx.abs wa) (Cx.abs wb) then 0
      else vterminal p s
    | na, nb when na >= 0 && nb >= 0 ->
      let ratio = weight p (Cx.div wb wa) in
      let key = (na, nb, ratio) in
      let inner =
        match Cache.find p.vadd key with
        | Some e -> e
        | None ->
          let rb = wf p ratio in
          let e0 = vec_add p (v0 p na) (vscale p rb (v0 p nb)) in
          let e1 = vec_add p (v1 p na) (vscale p rb (v1 p nb)) in
          let e = make_vnode p (vvar p na) e0 e1 in
          Cache.add p.vadd key e;
          e
      in
      vscale p wa inner
    | _ -> invalid_arg "Packed.Vec.add: operands of different dimension"
  end

let rec inner_product_nodes p na nb =
  match (na, nb) with
  | -1, -1 -> Cx.one
  | a, b when a >= 0 && b >= 0 ->
    let key = (a, b) in
    (match Cache.find p.ip key with
     | Some z -> z
     | None ->
       let part ea eb =
         if ea = 0 || eb = 0 then Cx.zero
         else begin
           let sub = inner_product_nodes p (et ea) (et eb) in
           Cx.mul (Cx.mul (Cx.conj (wf p (ew ea))) (wf p (ew eb))) sub
         end
       in
       let z = Cx.add (part (v0 p a) (v0 p b)) (part (v1 p a) (v1 p b)) in
       Cache.add p.ip key z;
       z)
  | _ -> invalid_arg "Packed.Vec.inner_product: operands of different dimension"

let inner_product p a b =
  if a = 0 || b = 0 then Cx.zero
  else begin
    let sub = inner_product_nodes p (et a) (et b) in
    Cx.mul (Cx.mul (Cx.conj (wf p (ew a))) (wf p (ew b))) sub
  end

let vec_fidelity p a b = Cx.abs2 (inner_product p a b)
let vec_norm p a = Cx.abs (inner_product p a a) |> Float.sqrt

let probabilities p a q =
  let memo : (int, float * float) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    if t < 0 then invalid_arg "Packed.Vec.probabilities: qubit out of range"
    else begin
      match Hashtbl.find_opt memo t with
      | Some r -> r
      | None ->
        let r =
          if vvar p t = q then begin
            let e0 = v0 p t and e1 = v1 p t in
            let p0 = if e0 = 0 then 0.0 else Cx.abs2 (wf p (ew e0)) in
            let p1 = if e1 = 0 then 0.0 else Cx.abs2 (wf p (ew e1)) in
            (p0, p1)
          end
          else begin
            let part e =
              if e = 0 then (0.0, 0.0)
              else begin
                let w2 = Cx.abs2 (wf p (ew e)) in
                let s0, s1 = go (et e) in
                (w2 *. s0, w2 *. s1)
              end
            in
            let a0, a1 = part (v0 p t) and b0, b1 = part (v1 p t) in
            (a0 +. b0, a1 +. b1)
          end
        in
        Hashtbl.add memo t r;
        r
    end
  in
  if a = 0 then (0.0, 0.0)
  else begin
    let w2 = Cx.abs2 (wf p (ew a)) in
    let p0, p1 = go (et a) in
    (w2 *. p0, w2 *. p1)
  end

let project p a q outcome =
  let memo : (int, vedge) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    if t < 0 then invalid_arg "Packed.Vec.project: qubit out of range"
    else begin
      match Hashtbl.find_opt memo t with
      | Some e -> e
      | None ->
        let e =
          if vvar p t = q then
            if outcome = 0 then make_vnode p (vvar p t) (v0 p t) 0
            else make_vnode p (vvar p t) 0 (v1 p t)
          else begin
            let sub child =
              if child = 0 then 0
              else vscale p (wf p (ew child)) (go (et child))
            in
            make_vnode p (vvar p t) (sub (v0 p t)) (sub (v1 p t))
          end
        in
        Hashtbl.add memo t e;
        e
    end
  in
  if a = 0 then invalid_arg "Packed.Vec.project: zero state"
  else begin
    let projected = vscale p (wf p (ew a)) (go (et a)) in
    let nrm = vec_norm p projected in
    if nrm <= p.tol then
      invalid_arg "Packed.Vec.project: outcome has zero probability"
    else vscale p (Cx.of_float (1.0 /. nrm)) projected
  end

let amplitude p a ~n bits =
  let rec go e q acc =
    if e = 0 then Cx.zero
    else begin
      let acc = Cx.mul acc (wf p (ew e)) in
      let t = et e in
      if t < 0 then acc
      else begin
        let next = if bits (q - 1) then v1 p t else v0 p t in
        go next (q - 1) acc
      end
    end
  in
  go a n Cx.one

let vec_to_array p a ~n =
  let dim = 1 lsl n in
  let out = Array.make dim Cx.zero in
  for idx = 0 to dim - 1 do
    out.(idx) <- amplitude p a ~n (fun q -> (idx lsr q) land 1 = 1)
  done;
  out

let nonzero_paths p a ~n ?(cutoff = 1e-12) ~limit () =
  let results = ref [] in
  let count = ref 0 in
  let bits = Array.make n 0 in
  let rec go e q mass =
    if e <> 0 && mass > cutoff && !count < limit then begin
      let mass = mass *. Cx.abs2 (wf p (ew e)) in
      if mass > cutoff then begin
        let t = et e in
        if t < 0 then begin
          incr count;
          results := (Array.copy bits, mass) :: !results
        end
        else begin
          bits.(q - 1) <- 0;
          go (v0 p t) (q - 1) mass;
          bits.(q - 1) <- 1;
          go (v1 p t) (q - 1) mass
        end
      end
    end
  in
  go a n 1.0;
  List.rev !results

let vec_node_count p a =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if t >= 0 && not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      let e0 = v0 p t and e1 = v1 p t in
      if e0 <> 0 then go (et e0);
      if e1 <> 0 then go (et e1)
    end
  in
  if a <> 0 then go (et a);
  Hashtbl.length seen

(* -- matrix operations (ports of Mat) ----------------------------------- *)

let rec mat_add p a b =
  if a = 0 then b
  else if b = 0 then a
  else begin
    let a, b = if et a <= et b then (a, b) else (b, a) in
    let wa = wf p (ew a) and wb = wf p (ew b) in
    match (et a, et b) with
    | -1, -1 ->
      let s = Cx.add wa wb in
      if Cx.abs s <= p.tol *. Float.max (Cx.abs wa) (Cx.abs wb) then 0
      else mterminal p s
    | na, nb when na >= 0 && nb >= 0 ->
      let ratio = weight p (Cx.div wb wa) in
      let key = (na, nb, ratio) in
      let inner =
        match Cache.find p.madd key with
        | Some e -> e
        | None ->
          let rb = wf p ratio in
          let sum ea eb = mat_add p ea (mscale p rb eb) in
          let e =
            make_mnode p (mvar p na)
              (sum (m00 p na) (m00 p nb))
              (sum (m01 p na) (m01 p nb))
              (sum (m10 p na) (m10 p nb))
              (sum (m11 p na) (m11 p nb))
          in
          Cache.add p.madd key e;
          e
      in
      mscale p wa inner
    | _ -> invalid_arg "Packed.Mat.add: operands of different dimension"
  end

let rec mat_apply p m v =
  if m = 0 || v = 0 then 0
  else begin
    let w = Cx.mul (wf p (ew m)) (wf p (ew v)) in
    match (et m, et v) with
    | -1, -1 -> vterminal p w
    | mn, vn when mn >= 0 && vn >= 0 ->
      let key = (mn, vn) in
      let inner =
        match Cache.find p.mv key with
        | Some e -> e
        | None ->
          let r0 =
            vec_add p (mat_apply p (m00 p mn) (v0 p vn))
              (mat_apply p (m01 p mn) (v1 p vn))
          in
          let r1 =
            vec_add p (mat_apply p (m10 p mn) (v0 p vn))
              (mat_apply p (m11 p mn) (v1 p vn))
          in
          let e = make_vnode p (mvar p mn) r0 r1 in
          Cache.add p.mv key e;
          e
      in
      vscale p w inner
    | _ -> invalid_arg "Packed.Mat.apply: operands of different dimension"
  end

let msel p n i j =
  match (i, j) with
  | 0, 0 -> m00 p n
  | 0, 1 -> m01 p n
  | 1, 0 -> m10 p n
  | _ -> m11 p n

let rec mat_mul p a b =
  if a = 0 || b = 0 then 0
  else begin
    let w = Cx.mul (wf p (ew a)) (wf p (ew b)) in
    match (et a, et b) with
    | -1, -1 -> mterminal p w
    | na, nb when na >= 0 && nb >= 0 ->
      let key = (na, nb) in
      let inner =
        match Cache.find p.mm key with
        | Some e -> e
        | None ->
          let entry i j =
            mat_add p
              (mat_mul p (msel p na i 0) (msel p nb 0 j))
              (mat_mul p (msel p na i 1) (msel p nb 1 j))
          in
          let e =
            make_mnode p (mvar p na) (entry 0 0) (entry 0 1) (entry 1 0)
              (entry 1 1)
          in
          Cache.add p.mm key e;
          e
      in
      mscale p w inner
    | _ -> invalid_arg "Packed.Mat.mul: operands of different dimension"
  end

let rec mat_adjoint p a =
  if a = 0 then 0
  else begin
    let w = Cx.conj (wf p (ew a)) in
    let t = et a in
    if t < 0 then mterminal p w
    else begin
      let inner =
        match Cache.find p.adj t with
        | Some e -> e
        | None ->
          let e =
            make_mnode p (mvar p t) (mat_adjoint p (m00 p t))
              (mat_adjoint p (m10 p t))
              (mat_adjoint p (m01 p t))
              (mat_adjoint p (m11 p t))
          in
          Cache.add p.adj t e;
          e
      in
      mscale p w inner
    end
  end

let mat_trace p a ~n =
  let memo : (int, Cx.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go e levels =
    if e = 0 then Cx.zero
    else begin
      let t = et e in
      if t < 0 then wf p (ew e)
      else begin
        let sub =
          match Hashtbl.find_opt memo t with
          | Some z -> z
          | None ->
            let z =
              Cx.add (go (m00 p t) (levels - 1)) (go (m11 p t) (levels - 1))
            in
            Hashtbl.add memo t z;
            z
        in
        Cx.mul (wf p (ew e)) sub
      end
    end
  in
  go a n

let mat_entry p a ~n ~row ~col =
  let rec go e q acc =
    if e = 0 then Cx.zero
    else begin
      let acc = Cx.mul acc (wf p (ew e)) in
      let t = et e in
      if t < 0 then acc
      else begin
        let i = (row lsr (q - 1)) land 1 and j = (col lsr (q - 1)) land 1 in
        go (msel p t i j) (q - 1) acc
      end
    end
  in
  go a n Cx.one

let mat_to_array p a ~n =
  let dim = 1 lsl n in
  Array.init dim (fun row ->
    Array.init dim (fun col -> mat_entry p a ~n ~row ~col))

let mat_equal p a b =
  et a = et b && Cx.approx_eq ~tol:p.tol (wf p (ew a)) (wf p (ew b))

let mat_equal_up_to_phase p a b =
  et a = et b
  && Float.abs (Cx.abs (wf p (ew a)) -. Cx.abs (wf p (ew b))) <= p.tol

let mat_is_identity p a ~n ~up_to_phase =
  let id = ident p n in
  if up_to_phase then mat_equal_up_to_phase p a id else mat_equal p a id

let mat_node_count p a =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if t >= 0 && not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      let follow e = if e <> 0 then go (et e) in
      follow (m00 p t);
      follow (m01 p t);
      follow (m10 p t);
      follow (m11 p t)
    end
  in
  if a <> 0 then go (et a);
  Hashtbl.length seen

let mat_process_fidelity p a b ~n =
  let prod = mat_mul p (mat_adjoint p a) b in
  let tr = mat_trace p prod ~n in
  Cx.abs tr /. Float.ldexp 1.0 n

(* -- direct gate-application kernels ------------------------------------

   Ports of [Mat.kernel_apply_sig] / [Mat.kernel_mul_sig]: same opcode
   scheme, same cache-key layout, same paired recursions and diagonal
   fast path — the descent just reads flat int arrays instead of chasing
   node pointers.  See lib/dd/mat.ml for the full commentary. *)

let kernel_apply_sig p (s : gate_sig) ~n (v : vedge) =
  let sid = s.gs_id
  and target = s.gs_target
  and hi = s.gs_hi
  and lo = s.gs_lo
  and cmin = s.gs_cmin
  and u = s.gs_u in
  if n <= hi then invalid_arg "Packed.Mat.apply_gate: gate exceeds the register";
  M.incr m_kernel_calls;
  let kv = p.kv in
  let node q e0 e1 = make_vnode p q e0 e1 in
  let vsub e =
    if e = 0 then (0, 0)
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.apply_gate: state too shallow"
      else if ew e = 1 then (v0 p t, v1 p t)
      else begin
        let w = wf p (ew e) in
        (vscale p w (v0 p t), vscale p w (v1 p t))
      end
    end
  in
  let rec below2 x y =
    if x = 0 && y = 0 then (0, 0)
    else begin
      let lead, x, y =
        if x = 0 then (wf p (ew y), x, pack 1 (et y))
        else begin
          let wx = wf p (ew x) in
          let ratio = weight p (Cx.div (wf p (ew y)) wx) in
          let y = if ratio = 0 then 0 else pack ratio (et y) in
          (wx, pack 1 (et x), y)
        end
      in
      let xi = if x = 0 then -3 else et x in
      let key = ((sid lsl 4) lor 2, xi, et y, ew y) in
      let r0, r1 =
        match Cache.find kv key with
        | Some rs -> rs
        | None ->
          let q =
            let xt = et x and yt = et y in
            if xt >= 0 then vvar p xt else if yt >= 0 then vvar p yt else -1
          in
          let r0, r1 =
            if q < cmin then
              ( vec_add p (vscale p u.(0) x) (vscale p u.(1) y)
              , vec_add p (vscale p u.(2) x) (vscale p u.(3) y) )
            else begin
              let x0, x1 = vsub x
              and y0, y1 = vsub y in
              match sig_control_at s q with
              | None ->
                let a0, a1 = below2 x0 y0
                and b0, b1 = below2 x1 y1 in
                (node q a0 b0, node q a1 b1)
              | Some true ->
                let b0, b1 = below2 x1 y1 in
                (node q x0 b0, node q y0 b1)
              | Some false ->
                let a0, a1 = below2 x0 y0 in
                (node q a0 x1, node q a1 y1)
            end
          in
          Cache.add kv key (r0, r1);
          (r0, r1)
      in
      (vscale p lead r0, vscale p lead r1)
    end
  in
  let diag =
    Array.length u = 4 && Cx.is_zero ~tol:0.0 u.(1) && Cx.is_zero ~tol:0.0 u.(2)
  in
  let rec below_diag ~row e =
    if e = 0 then 0
    else begin
      let t = et e in
      if t < 0 then vscale p u.(3 * row) e
      else if vvar p t < cmin then vscale p u.(3 * row) e
      else begin
        let key = ((sid lsl 4) lor (8 + row), t, -2, -2) in
        let inner =
          match Cache.find kv key with
          | Some (r, _) -> r
          | None ->
            let q = vvar p t in
            let r =
              match sig_control_at s q with
              | None ->
                node q (below_diag ~row (v0 p t)) (below_diag ~row (v1 p t))
              | Some true -> node q (v0 p t) (below_diag ~row (v1 p t))
              | Some false -> node q (below_diag ~row (v0 p t)) (v1 p t)
            in
            Cache.add kv key (r, r);
            r
        in
        vscale p (wf p (ew e)) inner
      end
    end
  in
  let rec go e =
    if e = 0 then 0
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.apply_gate: state too shallow"
      else begin
        let key = (sid lsl 4, t, -2, -2) in
        let inner =
          match Cache.find kv key with
          | Some (r, _) -> r
          | None ->
            let q = vvar p t in
            let r =
              if q > target then
                match sig_control_at s q with
                | None -> node q (go (v0 p t)) (go (v1 p t))
                | Some true -> node q (v0 p t) (go (v1 p t))
                | Some false -> node q (go (v0 p t)) (v1 p t)
              else if cmin = max_int then
                node q
                  (vec_add p (vscale p u.(0) (v0 p t)) (vscale p u.(1) (v1 p t)))
                  (vec_add p (vscale p u.(2) (v0 p t)) (vscale p u.(3) (v1 p t)))
              else if diag then
                node q (below_diag ~row:0 (v0 p t)) (below_diag ~row:1 (v1 p t))
              else begin
                let r0, r1 = below2 (v0 p t) (v1 p t) in
                node q r0 r1
              end
            in
            Cache.add kv key (r, r);
            r
        in
        vscale p (wf p (ew e)) inner
      end
    end
  in
  let rec move2 ~put e =
    if e = 0 then (0, 0)
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.apply_swap: state too shallow"
      else begin
        let key = ((sid lsl 4) lor (4 + put), t, -2, -2) in
        let r0, r1 =
          match Cache.find kv key with
          | Some rs -> rs
          | None ->
            let q = vvar p t in
            let r0, r1 =
              if q > lo then begin
                let a0, a1 = move2 ~put (v0 p t)
                and b0, b1 = move2 ~put (v1 p t) in
                (node q a0 b0, node q a1 b1)
              end
              else begin
                let emit c = if put = 0 then node q c 0 else node q 0 c in
                (emit (v0 p t), emit (v1 p t))
              end
            in
            Cache.add kv key (r0, r1);
            (r0, r1)
        in
        let w = wf p (ew e) in
        (vscale p w r0, vscale p w r1)
      end
    end
  in
  let rec swap_go e =
    if e = 0 then 0
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.apply_swap: state too shallow"
      else begin
        let key = (sid lsl 4, t, -2, -2) in
        let inner =
          match Cache.find kv key with
          | Some (r, _) -> r
          | None ->
            let q = vvar p t in
            let r =
              if q > hi then node q (swap_go (v0 p t)) (swap_go (v1 p t))
              else begin
                let a0, a1 = move2 ~put:0 (v0 p t)
                and b0, b1 = move2 ~put:1 (v1 p t) in
                node q (vec_add p a0 b0) (vec_add p a1 b1)
              end
            in
            Cache.add kv key (r, r);
            r
        in
        vscale p (wf p (ew e)) inner
      end
    end
  in
  if s.gs_swap then swap_go v else go v

let kernel_mul_sig p (s : gate_sig) ~n ~left (m : medge) =
  let sid = s.gs_id
  and target = s.gs_target
  and hi = s.gs_hi
  and lo = s.gs_lo
  and cmin = s.gs_cmin
  and u = s.gs_u in
  if n <= hi then invalid_arg "Packed.Mat.mul_gate: gate exceeds the register";
  M.incr m_kernel_calls;
  let km = p.km in
  let node q a b c d = make_mnode p q a b c d in
  let side = if left then 0 else 1 in
  let coef k t = if left then u.((2 * k) + t) else Cx.conj u.((2 * k) + t) in
  let msub e =
    if e = 0 then (0, 0, 0, 0)
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.mul_gate: operand too shallow"
      else if ew e = 1 then (m00 p t, m01 p t, m10 p t, m11 p t)
      else begin
        let w = wf p (ew e) in
        ( mscale p w (m00 p t)
        , mscale p w (m01 p t)
        , mscale p w (m10 p t)
        , mscale p w (m11 p t) )
      end
    end
  in
  let rec below2 x y =
    if x = 0 && y = 0 then (0, 0)
    else begin
      let lead, x, y =
        if x = 0 then (wf p (ew y), x, pack 1 (et y))
        else begin
          let wx = wf p (ew x) in
          let ratio = weight p (Cx.div (wf p (ew y)) wx) in
          let y = if ratio = 0 then 0 else pack ratio (et y) in
          (wx, pack 1 (et x), y)
        end
      in
      let xi = if x = 0 then -3 else et x in
      let opcode = if left then 2 else 3 in
      let key = ((sid lsl 4) lor opcode, xi, et y, ew y) in
      let r0, r1 =
        match Cache.find km key with
        | Some rs -> rs
        | None ->
          let q =
            let xt = et x and yt = et y in
            if xt >= 0 then mvar p xt else if yt >= 0 then mvar p yt else -1
          in
          let r0, r1 =
            if q < cmin then
              ( mat_add p (mscale p (coef 0 0) x) (mscale p (coef 0 1) y)
              , mat_add p (mscale p (coef 1 0) x) (mscale p (coef 1 1) y) )
            else begin
              let x00, x01, x10, x11 = msub x
              and y00, y01, y10, y11 = msub y in
              match sig_control_at s q with
              | None ->
                let a0, a1 = below2 x00 y00
                and b0, b1 = below2 x01 y01
                and c0, c1 = below2 x10 y10
                and d0, d1 = below2 x11 y11 in
                (node q a0 b0 c0 d0, node q a1 b1 c1 d1)
              | Some true ->
                if left then begin
                  let c0, c1 = below2 x10 y10
                  and d0, d1 = below2 x11 y11 in
                  (node q x00 x01 c0 d0, node q y00 y01 c1 d1)
                end
                else begin
                  let b0, b1 = below2 x01 y01
                  and d0, d1 = below2 x11 y11 in
                  (node q x00 b0 x10 d0, node q y00 b1 y10 d1)
                end
              | Some false ->
                if left then begin
                  let a0, a1 = below2 x00 y00
                  and b0, b1 = below2 x01 y01 in
                  (node q a0 b0 x10 x11, node q a1 b1 y10 y11)
                end
                else begin
                  let a0, a1 = below2 x00 y00
                  and c0, c1 = below2 x10 y10 in
                  (node q a0 x01 c0 x11, node q a1 y01 c1 y11)
                end
            end
          in
          Cache.add km key (r0, r1);
          (r0, r1)
      in
      (mscale p lead r0, mscale p lead r1)
    end
  in
  let diag =
    Array.length u = 4 && Cx.is_zero ~tol:0.0 u.(1) && Cx.is_zero ~tol:0.0 u.(2)
  in
  let rec below_diag ~k e =
    if e = 0 then 0
    else begin
      let t = et e in
      if t < 0 then mscale p (coef k k) e
      else if mvar p t < cmin then mscale p (coef k k) e
      else begin
        let opcode = (if left then 8 else 10) + k in
        let key = ((sid lsl 4) lor opcode, t, -2, -2) in
        let inner =
          match Cache.find km key with
          | Some (r, _) -> r
          | None ->
            let q = mvar p t in
            let r =
              match sig_control_at s q with
              | None ->
                node q (below_diag ~k (m00 p t)) (below_diag ~k (m01 p t))
                  (below_diag ~k (m10 p t))
                  (below_diag ~k (m11 p t))
              | Some true ->
                if left then
                  node q (m00 p t) (m01 p t)
                    (below_diag ~k (m10 p t))
                    (below_diag ~k (m11 p t))
                else
                  node q (m00 p t)
                    (below_diag ~k (m01 p t))
                    (m10 p t)
                    (below_diag ~k (m11 p t))
              | Some false ->
                if left then
                  node q (below_diag ~k (m00 p t)) (below_diag ~k (m01 p t))
                    (m10 p t) (m11 p t)
                else
                  node q (below_diag ~k (m00 p t)) (m01 p t)
                    (below_diag ~k (m10 p t))
                    (m11 p t)
            in
            Cache.add km key (r, r);
            r
        in
        mscale p (wf p (ew e)) inner
      end
    end
  in
  let rec go e =
    if e = 0 then 0
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.mul_gate: operand too shallow"
      else begin
        let key = ((sid lsl 4) lor side, t, -2, -2) in
        let inner =
          match Cache.find km key with
          | Some (r, _) -> r
          | None ->
            let q = mvar p t in
            let r =
              if q > target then
                match sig_control_at s q with
                | None ->
                  node q (go (m00 p t)) (go (m01 p t)) (go (m10 p t))
                    (go (m11 p t))
                | Some true ->
                  if left then
                    node q (m00 p t) (m01 p t) (go (m10 p t)) (go (m11 p t))
                  else node q (m00 p t) (go (m01 p t)) (m10 p t) (go (m11 p t))
                | Some false ->
                  if left then
                    node q (go (m00 p t)) (go (m01 p t)) (m10 p t) (m11 p t)
                  else node q (go (m00 p t)) (m01 p t) (go (m10 p t)) (m11 p t)
              else begin
                let comb2 a b =
                  if cmin = max_int then
                    ( mat_add p (mscale p (coef 0 0) a) (mscale p (coef 0 1) b)
                    , mat_add p (mscale p (coef 1 0) a) (mscale p (coef 1 1) b) )
                  else if diag then (below_diag ~k:0 a, below_diag ~k:1 b)
                  else below2 a b
                in
                if left then begin
                  let a0, a1 = comb2 (m00 p t) (m10 p t)
                  and b0, b1 = comb2 (m01 p t) (m11 p t) in
                  node q a0 b0 a1 b1
                end
                else begin
                  let a0, a1 = comb2 (m00 p t) (m01 p t)
                  and b0, b1 = comb2 (m10 p t) (m11 p t) in
                  node q a0 a1 b0 b1
                end
              end
            in
            Cache.add km key (r, r);
            r
        in
        mscale p (wf p (ew e)) inner
      end
    end
  in
  let rec move2 ~put e =
    if e = 0 then (0, 0)
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.mul_swap: operand too shallow"
      else begin
        let base = if left then 4 else 6 in
        let key = ((sid lsl 4) lor (base + put), t, -2, -2) in
        let r0, r1 =
          match Cache.find km key with
          | Some rs -> rs
          | None ->
            let q = mvar p t in
            let r0, r1 =
              if q > lo then begin
                let a0, a1 = move2 ~put (m00 p t)
                and b0, b1 = move2 ~put (m01 p t)
                and c0, c1 = move2 ~put (m10 p t)
                and d0, d1 = move2 ~put (m11 p t) in
                (node q a0 b0 c0 d0, node q a1 b1 c1 d1)
              end
              else if left then begin
                let emit c0 c1 =
                  if put = 0 then node q c0 c1 0 0 else node q 0 0 c0 c1
                in
                (emit (m00 p t) (m01 p t), emit (m10 p t) (m11 p t))
              end
              else begin
                let emit c0 c1 =
                  if put = 0 then node q c0 0 c1 0 else node q 0 c0 0 c1
                in
                (emit (m00 p t) (m10 p t), emit (m01 p t) (m11 p t))
              end
            in
            Cache.add km key (r0, r1);
            (r0, r1)
        in
        let w = wf p (ew e) in
        (mscale p w r0, mscale p w r1)
      end
    end
  in
  let rec swap_go e =
    if e = 0 then 0
    else begin
      let t = et e in
      if t < 0 then invalid_arg "Packed.Mat.mul_swap: operand too shallow"
      else begin
        let key = ((sid lsl 4) lor side, t, -2, -2) in
        let inner =
          match Cache.find km key with
          | Some (r, _) -> r
          | None ->
            let q = mvar p t in
            let r =
              if q > hi then
                node q (swap_go (m00 p t)) (swap_go (m01 p t))
                  (swap_go (m10 p t))
                  (swap_go (m11 p t))
              else if left then begin
                let a0, a1 = move2 ~put:0 (m00 p t)
                and b0, b1 = move2 ~put:1 (m10 p t)
                and c0, c1 = move2 ~put:0 (m01 p t)
                and d0, d1 = move2 ~put:1 (m11 p t) in
                node q (mat_add p a0 b0) (mat_add p c0 d0) (mat_add p a1 b1)
                  (mat_add p c1 d1)
              end
              else begin
                let a0, a1 = move2 ~put:0 (m00 p t)
                and b0, b1 = move2 ~put:1 (m01 p t)
                and c0, c1 = move2 ~put:0 (m10 p t)
                and d0, d1 = move2 ~put:1 (m11 p t) in
                node q (mat_add p a0 b0) (mat_add p a1 b1) (mat_add p c0 d0)
                  (mat_add p c1 d1)
              end
            in
            Cache.add km key (r, r);
            r
        in
        mscale p (wf p (ew e)) inner
      end
    end
  in
  if s.gs_swap then swap_go m else go m

(* -- the Backend.S surface ---------------------------------------------- *)

module Pkg = struct
  type nonrec t = t

  let create = create
  let tol = tol
  let set_domain_guards = Backend.set_domain_guards
  let ident = ident
  let basis_state = basis_state
  let zero_state = zero_state
  let product_state = product_state
  let gate = gate
  let gate_sig = gate_sig
  let swap_sig = swap_sig
  let sig_id = sig_id
  let root_v = root_v
  let root_m = root_m
  let vroot_edge = vroot_edge
  let mroot_edge = mroot_edge
  let set_vroot = set_vroot
  let set_mroot = set_mroot
  let release_v = release_v
  let release_m = release_m
  let with_root_v = with_root_v
  let with_root_m = with_root_m
  let live_roots = live_roots
  let live_nodes = live_nodes
  let compact = compact
  let checkpoint = checkpoint
  let set_safepoint_hook = set_safepoint_hook
  let stats = stats
end

module Vec = struct
  let add = vec_add
  let inner_product = inner_product
  let fidelity = vec_fidelity
  let norm = vec_norm
  let probabilities = probabilities
  let project = project
  let amplitude = amplitude
  let to_array = vec_to_array
  let nonzero_paths = nonzero_paths
  let node_count = vec_node_count
end

module Mat = struct
  let add = mat_add
  let apply = mat_apply
  let mul = mat_mul
  let adjoint = mat_adjoint

  let apply_sig p ~n s v =
    Obs.Span.with_ "apply.kernel.vec" (fun () -> kernel_apply_sig p s ~n v)

  let apply_gate p ~n ~controls ~target u v =
    apply_sig p ~n (gate_sig p ~controls ~target u) v

  let apply_swap p ~n a b v = apply_sig p ~n (swap_sig p a b) v

  let mul_gate_left p ~n ~controls ~target u m =
    let s = gate_sig p ~controls ~target u in
    Obs.Span.with_ "apply.kernel.left" (fun () ->
      kernel_mul_sig p s ~n ~left:true m)

  let mul_gate_right p ~n ~controls ~target u m =
    let s = gate_sig p ~controls ~target u in
    Obs.Span.with_ "apply.kernel.right" (fun () ->
      kernel_mul_sig p s ~n ~left:false m)

  let mul_swap_left p ~n a b m =
    let s = swap_sig p a b in
    Obs.Span.with_ "apply.kernel.left" (fun () ->
      kernel_mul_sig p s ~n ~left:true m)

  let mul_swap_right p ~n a b m =
    let s = swap_sig p a b in
    Obs.Span.with_ "apply.kernel.right" (fun () ->
      kernel_mul_sig p s ~n ~left:false m)

  let trace = mat_trace
  let to_array = mat_to_array
  let equal = mat_equal
  let equal_up_to_phase = mat_equal_up_to_phase
  let is_identity = mat_is_identity
  let process_fidelity = mat_process_fidelity
  let node_count = mat_node_count
end

let vedge_is_zero (_ : pkg) e = e = 0
let medge_is_zero (_ : pkg) e = e = 0
let vedge_weight p e = wf p (ew e)
let medge_weight p e = wf p (ew e)

let vedge_view p e =
  let t = et e in
  if t < 0 then None
  else
    Some
      { Backend.nv_id = t
      ; nv_var = vvar p t
      ; nv_edges = [| v0 p t; v1 p t |]
      }

let medge_view p e =
  let t = et e in
  if t < 0 then None
  else
    Some
      { Backend.nv_id = t
      ; nv_var = mvar p t
      ; nv_edges = [| m00 p t; m01 p t; m10 p t; m11 p t |]
      }
