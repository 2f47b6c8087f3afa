open Types
module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table

let wcx (w : weight) = Ct.to_cx w

(* compute-cache hit/miss/peak metrics live in {!Cache} *)

(* Same ratio-normalized caching scheme as Vec.add. *)
let rec add p (a : medge) (b : medge) =
  if medge_is_zero a then b
  else if medge_is_zero b then a
  else begin
    let a, b = if mnode_id a.mt <= mnode_id b.mt then (a, b) else (b, a) in
    let wa = wcx a.mw and wb = wcx b.mw in
    match (a.mt, b.mt) with
    | None, None ->
      (* cancellation residue is tiny relative to the operands, not in
         absolute terms — test at the operands' scale *)
      let s = Cx.add wa wb in
      if Cx.abs s <= Pkg.tolerance *. Float.max (Cx.abs wa) (Cx.abs wb) then Pkg.mzero
      else Pkg.mterminal p s
    | Some na, Some nb ->
      let ratio = Pkg.weight p (Cx.div wb wa) in
      let cache = Pkg.madd_cache p in
      let inner =
        match Cache.find cache na.mid nb.mid ratio.id 0 with
        | Some e -> e
        | None ->
          let rb = wcx ratio in
          let sum ea eb = add p ea (Pkg.mscale p rb eb) in
          let e =
            Pkg.make_mnode p na.mvar (sum na.m00 nb.m00) (sum na.m01 nb.m01)
              (sum na.m10 nb.m10) (sum na.m11 nb.m11)
          in
          Cache.add cache na.mid nb.mid ratio.id 0 e;
          e
      in
      Pkg.mscale p wa inner
    | _ -> invalid_arg "Mat.add: operands of different dimension"
  end

(* Matrix-vector product: the inner product over weight-1 node pairs only
   depends on the node identities, so it is cached on (matrix id, vector id)
   and scaled by the edge weights afterwards. *)
let rec apply p (m : medge) (v : vedge) =
  if medge_is_zero m || vedge_is_zero v then Pkg.vzero
  else begin
    let w = Cx.mul (wcx m.mw) (wcx v.vw) in
    match (m.mt, v.vt) with
    | None, None -> Pkg.vterminal p w
    | Some mn, Some vn ->
      let cache = Pkg.mv_cache p in
      let inner =
        match Cache.find cache mn.mid vn.vid 0 0 with
        | Some e -> e
        | None ->
          let r0 = Vec.add p (apply p mn.m00 vn.v0) (apply p mn.m01 vn.v1) in
          let r1 = Vec.add p (apply p mn.m10 vn.v0) (apply p mn.m11 vn.v1) in
          let e = Pkg.make_vnode p mn.mvar r0 r1 in
          Cache.add cache mn.mid vn.vid 0 0 e;
          e
      in
      Pkg.vscale p w inner
    | _ -> invalid_arg "Mat.apply: operands of different dimension"
  end

let rec mul p (a : medge) (b : medge) =
  if medge_is_zero a || medge_is_zero b then Pkg.mzero
  else begin
    let w = Cx.mul (wcx a.mw) (wcx b.mw) in
    match (a.mt, b.mt) with
    | None, None -> Pkg.mterminal p w
    | Some na, Some nb ->
      let cache = Pkg.mm_cache p in
      let inner =
        match Cache.find cache na.mid nb.mid 0 0 with
        | Some e -> e
        | None ->
          let entry i j =
            (* C_ij = A_i0 * B_0j + A_i1 * B_1j *)
            let sel n i j =
              match (i, j) with
              | 0, 0 -> n.m00
              | 0, 1 -> n.m01
              | 1, 0 -> n.m10
              | _ -> n.m11
            in
            add p (mul p (sel na i 0) (sel nb 0 j)) (mul p (sel na i 1) (sel nb 1 j))
          in
          let e =
            Pkg.make_mnode p na.mvar (entry 0 0) (entry 0 1) (entry 1 0) (entry 1 1)
          in
          Cache.add cache na.mid nb.mid 0 0 e;
          e
      in
      Pkg.mscale p w inner
    | _ -> invalid_arg "Mat.mul: operands of different dimension"
  end

let rec adjoint p (a : medge) =
  if medge_is_zero a then Pkg.mzero
  else begin
    let w = Cx.conj (wcx a.mw) in
    match a.mt with
    | None -> Pkg.mterminal p w
    | Some n ->
      let cache = Pkg.adj_cache p in
      let inner =
        match Cache.find cache n.mid 0 0 0 with
        | Some e -> e
        | None ->
          let e =
            Pkg.make_mnode p n.mvar (adjoint p n.m00) (adjoint p n.m10)
              (adjoint p n.m01) (adjoint p n.m11)
          in
          Cache.add cache n.mid 0 0 0 e;
          e
      in
      Pkg.mscale p w inner
  end

(* -- direct gate-application kernels ------------------------------------

   The generic path builds a full n-qubit gate DD ([Pkg.gate]) and runs the
   all-levels [mul]/[apply] recursion against it.  The kernels below skip
   both: they descend the operand only to the deepest involved qubit,
   treating every level above the gate's span as pure pass-through and
   leaving subtrees below it untouched.  Memoization lives in the package's
   two kernel caches.  A key is four ints: [(signature id lsl 4) lor
   opcode], then up to three operand ids, with [unused] positions padded
   by [-2] (node ids are >= -1; the combine marks a zero operand with
   [-3]).  The opcode names the kernel's internal recursion, so one cache
   serves them all:

     0 / 1    top-level descent (left / right side)
     2 / 3    controls-below combine (left rows / right columns)
     4 + put  swap block move, left rows, emitted at slot [put]
     6 + put  swap block move, right columns
     8 + r    diagonal-gate combine, left row [r]
     10 + r   diagonal-gate combine, right column [r]

   Opcode spaces never collide across unary gates and swaps because the
   signature id already distinguishes them.  Cache values are edge pairs:
   the combine and move recursions walk the same child pairs for both
   result slices, so one descent computes — and one entry stores — both;
   descent entries duplicate their single edge. *)

let unused = -2

let m_kernel_calls = Obs.Metrics.counter "dd.kernel.calls"

let apply_sig p ~n (s : Pkg.gate_sig) (v : vedge) =
  let sid = s.Pkg.gs_id
  and target = s.Pkg.gs_target
  and hi = s.Pkg.gs_hi
  and lo = s.Pkg.gs_lo
  and cmin = s.Pkg.gs_cmin
  and u = s.Pkg.gs_u in
  if n <= hi then invalid_arg "Mat.apply_gate: gate exceeds the register";
  Obs.Metrics.incr m_kernel_calls;
  let kv = Pkg.kernel_v_cache p in
  let node q e0 e1 = Pkg.make_vnode p q e0 e1 in
  let vsub (e : vedge) =
    if vedge_is_zero e then (Pkg.vzero, Pkg.vzero)
    else
      match e.vt with
      | None -> invalid_arg "Mat.apply_gate: state too shallow"
      | Some nd ->
        if Ct.is_one e.vw then (nd.v0, nd.v1)
        else begin
          let w = wcx e.vw in
          (Pkg.vscale p w nd.v0, Pkg.vscale p w nd.v1)
        end
  in
  (* controls strictly below the target: [below2 x y] computes both row
     combinations u_{r0} P x + u_{r1} P y + (1-P) (r = 0 ? x : y) in one
     descent (P projects onto control-satisfied states — the matrix
     coefficients apply only once every deeper control has been walked
     through on its satisfied branch).  Both rows recurse over the same
     child pairs, so producing them together halves the walk and the
     [vsub] weight pushes.  The combine is bilinear, so the cache keys are
     ratio-normalized like [Vec.add]: node identities plus the interned
     ratio wy/wx, with the leading weight scaled back onto the results. *)
  let rec below2 (x : vedge) (y : vedge) =
    if vedge_is_zero x && vedge_is_zero y then (Pkg.vzero, Pkg.vzero)
    else begin
      let lead, x, y =
        if vedge_is_zero x then (wcx y.vw, x, { y with vw = Ct.one })
        else begin
          let wx = wcx x.vw in
          let ratio = Pkg.weight p (Cx.div (wcx y.vw) wx) in
          let y = if Ct.is_zero ratio then Pkg.vzero else { y with vw = ratio } in
          (wx, { x with vw = Ct.one }, y)
        end
      in
      (* [-3] marks a zero [x] — [vnode_id] cannot tell it apart from a
         weight-one terminal (both have no node) *)
      let xi = if vedge_is_zero x then -3 else vnode_id x.vt in
      let r0, r1 =
        match Cache.find kv ((sid lsl 4) lor 2) xi (vnode_id y.vt) y.vw.id with
        | Some rs -> rs
        | None ->
          let q =
            match (x.vt, y.vt) with
            | Some nd, _ | _, Some nd -> nd.vvar
            | None, None -> -1
          in
          let r0, r1 =
            if q < cmin then
              ( Vec.add p (Pkg.vscale p u.(0) x) (Pkg.vscale p u.(1) y)
              , Vec.add p (Pkg.vscale p u.(2) x) (Pkg.vscale p u.(3) y) )
            else begin
              let x0, x1 = vsub x
              and y0, y1 = vsub y in
              match Pkg.sig_control_at s q with
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
          Cache.add kv ((sid lsl 4) lor 2) xi (vnode_id y.vt) y.vw.id (r0, r1);
          (r0, r1)
      in
      (Pkg.vscale p lead r0, Pkg.vscale p lead r1)
    end
  in
  (* diagonal gate (u01 = u10 = 0) with controls below: row [row] of the
     result depends only on its own operand — the gate merely scales the
     fully control-satisfied branch by u_{rr}.  A single-operand,
     weight-factored recursion replaces the pair combine: no ratio
     interning, and cache entries per operand node instead of per operand
     pair. *)
  let diag =
    Array.length u = 4 && Cx.is_zero ~tol:0.0 u.(1) && Cx.is_zero ~tol:0.0 u.(2)
  in
  let rec below_diag ~row (e : vedge) =
    if vedge_is_zero e then Pkg.vzero
    else
      match e.vt with
      | None -> Pkg.vscale p u.(3 * row) e
      | Some nd ->
        if nd.vvar < cmin then Pkg.vscale p u.(3 * row) e
        else begin
          let inner =
            match Cache.find kv ((sid lsl 4) lor (8 + row)) nd.vid unused unused with
            | Some (r, _) -> r
            | None ->
              let q = nd.vvar in
              let r =
                match Pkg.sig_control_at s q with
                | None ->
                  node q (below_diag ~row nd.v0) (below_diag ~row nd.v1)
                | Some true -> node q nd.v0 (below_diag ~row nd.v1)
                | Some false -> node q (below_diag ~row nd.v0) nd.v1
              in
              Cache.add kv ((sid lsl 4) lor (8 + row)) nd.vid unused unused (r, r);
              r
          in
          Pkg.vscale p (wcx e.vw) inner
        end
  in
  let rec go (e : vedge) =
    if vedge_is_zero e then Pkg.vzero
    else
      match e.vt with
      | None -> invalid_arg "Mat.apply_gate: state too shallow"
      | Some nd ->
        let inner =
          match Cache.find kv (sid lsl 4) nd.vid unused unused with
          | Some (r, _) -> r
          | None ->
            let q = nd.vvar in
            let r =
              if q > target then
                match Pkg.sig_control_at s q with
                | None -> node q (go nd.v0) (go nd.v1)
                | Some true -> node q nd.v0 (go nd.v1)
                | Some false -> node q (go nd.v0) nd.v1
              else if cmin = max_int then
                node q
                  (Vec.add p
                     (Pkg.vscale p u.(0) nd.v0)
                     (Pkg.vscale p u.(1) nd.v1))
                  (Vec.add p
                     (Pkg.vscale p u.(2) nd.v0)
                     (Pkg.vscale p u.(3) nd.v1))
              else if diag then
                node q (below_diag ~row:0 nd.v0) (below_diag ~row:1 nd.v1)
              else begin
                let r0, r1 = below2 nd.v0 nd.v1 in
                node q r0 r1
              end
            in
            Cache.add kv (sid lsl 4) nd.vid unused unused (r, r);
            r
        in
        Pkg.vscale p (wcx e.vw) inner
  in
  (* native swap: [move2 ~put x] selects both [b_lo] branches of the
     subtree [x] and re-emits each in the [b_lo = put] slot, zero
     elsewhere — one descent produces both [sel] slices (they walk the
     same nodes), cached separately per [sel] opcode *)
  let rec move2 ~put (e : vedge) =
    if vedge_is_zero e then (Pkg.vzero, Pkg.vzero)
    else
      match e.vt with
      | None -> invalid_arg "Mat.apply_swap: state too shallow"
      | Some nd ->
        let r0, r1 =
          match Cache.find kv ((sid lsl 4) lor (4 + put)) nd.vid unused unused with
          | Some rs -> rs
          | None ->
            let q = nd.vvar in
            let r0, r1 =
              if q > lo then begin
                let a0, a1 = move2 ~put nd.v0
                and b0, b1 = move2 ~put nd.v1 in
                (node q a0 b0, node q a1 b1)
              end
              else begin
                let emit c =
                  if put = 0 then node q c Pkg.vzero else node q Pkg.vzero c
                in
                (emit nd.v0, emit nd.v1)
              end
            in
            Cache.add kv ((sid lsl 4) lor (4 + put)) nd.vid unused unused (r0, r1);
            (r0, r1)
        in
        let w = wcx e.vw in
        (Pkg.vscale p w r0, Pkg.vscale p w r1)
  in
  let rec swap_go (e : vedge) =
    if vedge_is_zero e then Pkg.vzero
    else
      match e.vt with
      | None -> invalid_arg "Mat.apply_swap: state too shallow"
      | Some nd ->
        let inner =
          match Cache.find kv (sid lsl 4) nd.vid unused unused with
          | Some (r, _) -> r
          | None ->
            let q = nd.vvar in
            let r =
              if q > hi then node q (swap_go nd.v0) (swap_go nd.v1)
              else begin
                let a0, a1 = move2 ~put:0 nd.v0
                and b0, b1 = move2 ~put:1 nd.v1 in
                node q (Vec.add p a0 b0) (Vec.add p a1 b1)
              end
            in
            Cache.add kv (sid lsl 4) nd.vid unused unused (r, r);
            r
        in
        Pkg.vscale p (wcx e.vw) inner
  in
  if s.Pkg.gs_swap then swap_go v else go v

(* [left = true] computes G * M; [left = false] computes M * G^dagger (the
   adjoint of the 2x2 taken entry-wise — no full [adjoint] pass). *)
let kernel_mul_sig p (s : Pkg.gate_sig) ~n ~left (m : medge) =
  let sid = s.Pkg.gs_id
  and target = s.Pkg.gs_target
  and hi = s.Pkg.gs_hi
  and lo = s.Pkg.gs_lo
  and cmin = s.Pkg.gs_cmin
  and u = s.Pkg.gs_u in
  if n <= hi then invalid_arg "Mat.mul_gate: gate exceeds the register";
  Obs.Metrics.incr m_kernel_calls;
  let km = Pkg.kernel_m_cache p in
  let node q a b c d = Pkg.make_mnode p q a b c d in
  let side = if left then 0 else 1 in
  (* coefficient lookup: result row [k] on the left combines with u_{kt};
     result column [k] on the right combines with (u^dagger)_{tk} =
     conj u_{kt} — the same entry, conjugated *)
  let coef k t = if left then u.((2 * k) + t) else Cx.conj u.((2 * k) + t) in
  let msub (e : medge) =
    if medge_is_zero e then (Pkg.mzero, Pkg.mzero, Pkg.mzero, Pkg.mzero)
    else
      match e.mt with
      | None -> invalid_arg "Mat.mul_gate: operand too shallow"
      | Some nd ->
        if Ct.is_one e.mw then (nd.m00, nd.m01, nd.m10, nd.m11)
        else begin
          let w = wcx e.mw in
          ( Pkg.mscale p w nd.m00
          , Pkg.mscale p w nd.m01
          , Pkg.mscale p w nd.m10
          , Pkg.mscale p w nd.m11 )
        end
  in
  (* controls strictly below the target; on the left [k] is the result row
     and the recursion tracks row blocks, on the right [k] is the result
     column and it tracks column blocks.  [below2 x y] produces both [k]
     slices in one descent — they recurse over the same child pairs, so
     sharing the walk halves the [msub] weight pushes and cache traffic.
     Ratio-normalized caching as in the vector kernel: only node
     identities and the interned wy/wx ratio enter the key, the leading
     weight is scaled back on afterwards. *)
  let rec below2 (x : medge) (y : medge) =
    if medge_is_zero x && medge_is_zero y then (Pkg.mzero, Pkg.mzero)
    else begin
      let lead, x, y =
        if medge_is_zero x then (wcx y.mw, x, { y with mw = Ct.one })
        else begin
          let wx = wcx x.mw in
          let ratio = Pkg.weight p (Cx.div (wcx y.mw) wx) in
          let y = if Ct.is_zero ratio then Pkg.mzero else { y with mw = ratio } in
          (wx, { x with mw = Ct.one }, y)
        end
      in
      (* [-3] marks a zero [x] — [mnode_id] cannot tell it apart from a
         weight-one terminal (both have no node) *)
      let xi = if medge_is_zero x then -3 else mnode_id x.mt in
      let opcode = if left then 2 else 3 in
      let r0, r1 =
        match Cache.find km ((sid lsl 4) lor opcode) xi (mnode_id y.mt) y.mw.id with
        | Some rs -> rs
        | None ->
          let q =
            match (x.mt, y.mt) with
            | Some nd, _ | _, Some nd -> nd.mvar
            | None, None -> -1
          in
          let r0, r1 =
            if q < cmin then
              ( add p (Pkg.mscale p (coef 0 0) x) (Pkg.mscale p (coef 0 1) y)
              , add p (Pkg.mscale p (coef 1 0) x) (Pkg.mscale p (coef 1 1) y) )
            else begin
              let x00, x01, x10, x11 = msub x
              and y00, y01, y10, y11 = msub y in
              match Pkg.sig_control_at s q with
              | None ->
                let a0, a1 = below2 x00 y00
                and b0, b1 = below2 x01 y01
                and c0, c1 = below2 x10 y10
                and d0, d1 = below2 x11 y11 in
                (node q a0 b0 c0 d0, node q a1 b1 c1 d1)
              | Some true ->
                if left then begin
                  (* unsatisfied 0-rows pass through; 1-rows continue *)
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
          Cache.add km ((sid lsl 4) lor opcode) xi (mnode_id y.mt) y.mw.id (r0, r1);
          (r0, r1)
      in
      (Pkg.mscale p lead r0, Pkg.mscale p lead r1)
    end
  in
  (* diagonal gate (u01 = u10 = 0) with controls below: slice [k] of the
     result depends only on its own operand — the gate merely scales the
     fully control-satisfied blocks by [coef k k].  Single-operand,
     weight-factored recursion: no ratio interning, entries per operand
     node instead of per operand pair. *)
  let diag =
    Array.length u = 4 && Cx.is_zero ~tol:0.0 u.(1) && Cx.is_zero ~tol:0.0 u.(2)
  in
  let rec below_diag ~k (e : medge) =
    if medge_is_zero e then Pkg.mzero
    else
      match e.mt with
      | None -> Pkg.mscale p (coef k k) e
      | Some nd ->
        if nd.mvar < cmin then Pkg.mscale p (coef k k) e
        else begin
          let opcode = (if left then 8 else 10) + k in
          let inner =
            match Cache.find km ((sid lsl 4) lor opcode) nd.mid unused unused with
            | Some (r, _) -> r
            | None ->
              let q = nd.mvar in
              let r =
                match Pkg.sig_control_at s q with
                | None ->
                  node q (below_diag ~k nd.m00) (below_diag ~k nd.m01)
                    (below_diag ~k nd.m10) (below_diag ~k nd.m11)
                | Some true ->
                  if left then
                    node q nd.m00 nd.m01 (below_diag ~k nd.m10)
                      (below_diag ~k nd.m11)
                  else
                    node q nd.m00 (below_diag ~k nd.m01) nd.m10
                      (below_diag ~k nd.m11)
                | Some false ->
                  if left then
                    node q (below_diag ~k nd.m00) (below_diag ~k nd.m01) nd.m10
                      nd.m11
                  else
                    node q (below_diag ~k nd.m00) nd.m01 (below_diag ~k nd.m10)
                      nd.m11
              in
              Cache.add km ((sid lsl 4) lor opcode) nd.mid unused unused (r, r);
              r
          in
          Pkg.mscale p (wcx e.mw) inner
        end
  in
  let rec go (e : medge) =
    if medge_is_zero e then Pkg.mzero
    else
      match e.mt with
      | None -> invalid_arg "Mat.mul_gate: operand too shallow"
      | Some nd ->
        let inner =
          match Cache.find km ((sid lsl 4) lor side) nd.mid unused unused with
          | Some (r, _) -> r
          | None ->
            let q = nd.mvar in
            let r =
              if q > target then
                match Pkg.sig_control_at s q with
                | None -> node q (go nd.m00) (go nd.m01) (go nd.m10) (go nd.m11)
                | Some true ->
                  if left then node q nd.m00 nd.m01 (go nd.m10) (go nd.m11)
                  else node q nd.m00 (go nd.m01) nd.m10 (go nd.m11)
                | Some false ->
                  if left then node q (go nd.m00) (go nd.m01) nd.m10 nd.m11
                  else node q (go nd.m00) nd.m01 (go nd.m10) nd.m11
              else begin
                (* at the target: on the left combine row blocks per result
                   row, on the right combine column blocks per result
                   column *)
                let comb2 a b =
                  if cmin = max_int then
                    ( add p
                        (Pkg.mscale p (coef 0 0) a)
                        (Pkg.mscale p (coef 0 1) b)
                    , add p
                        (Pkg.mscale p (coef 1 0) a)
                        (Pkg.mscale p (coef 1 1) b) )
                  else if diag then (below_diag ~k:0 a, below_diag ~k:1 b)
                  else below2 a b
                in
                if left then begin
                  let a0, a1 = comb2 nd.m00 nd.m10
                  and b0, b1 = comb2 nd.m01 nd.m11 in
                  node q a0 b0 a1 b1
                end
                else begin
                  let a0, a1 = comb2 nd.m00 nd.m01
                  and b0, b1 = comb2 nd.m10 nd.m11 in
                  node q a0 a1 b0 b1
                end
              end
            in
            Cache.add km ((sid lsl 4) lor side) nd.mid unused unused (r, r);
            r
        in
        Pkg.mscale p (wcx e.mw) inner
  in
  (* native swap: SWAP * M permutes rows, M * SWAP permutes columns (SWAP
     is self-adjoint).  [move2 ~put x] extracts both rows (resp. columns)
     of [x] at the low wire and re-emits each in slot [put] — one descent
     produces both [sel] slices, cached separately per [sel] opcode. *)
  let rec move2 ~put (e : medge) =
    if medge_is_zero e then (Pkg.mzero, Pkg.mzero)
    else
      match e.mt with
      | None -> invalid_arg "Mat.mul_swap: operand too shallow"
      | Some nd ->
        let base = if left then 4 else 6 in
        let r0, r1 =
          match Cache.find km ((sid lsl 4) lor (base + put)) nd.mid unused unused with
          | Some rs -> rs
          | None ->
            let q = nd.mvar in
            let r0, r1 =
              if q > lo then begin
                let a0, a1 = move2 ~put nd.m00
                and b0, b1 = move2 ~put nd.m01
                and c0, c1 = move2 ~put nd.m10
                and d0, d1 = move2 ~put nd.m11 in
                (node q a0 b0 c0 d0, node q a1 b1 c1 d1)
              end
              else if left then begin
                let emit c0 c1 =
                  if put = 0 then node q c0 c1 Pkg.mzero Pkg.mzero
                  else node q Pkg.mzero Pkg.mzero c0 c1
                in
                (emit nd.m00 nd.m01, emit nd.m10 nd.m11)
              end
              else begin
                let emit c0 c1 =
                  if put = 0 then node q c0 Pkg.mzero c1 Pkg.mzero
                  else node q Pkg.mzero c0 Pkg.mzero c1
                in
                (emit nd.m00 nd.m10, emit nd.m01 nd.m11)
              end
            in
            Cache.add km ((sid lsl 4) lor (base + put)) nd.mid unused unused (r0, r1);
            (r0, r1)
        in
        let w = wcx e.mw in
        (Pkg.mscale p w r0, Pkg.mscale p w r1)
  in
  let rec swap_go (e : medge) =
    if medge_is_zero e then Pkg.mzero
    else
      match e.mt with
      | None -> invalid_arg "Mat.mul_swap: operand too shallow"
      | Some nd ->
        let inner =
          match Cache.find km ((sid lsl 4) lor side) nd.mid unused unused with
          | Some (r, _) -> r
          | None ->
            let q = nd.mvar in
            let r =
              if q > hi then
                node q (swap_go nd.m00) (swap_go nd.m01) (swap_go nd.m10)
                  (swap_go nd.m11)
              else if left then begin
                let a0, a1 = move2 ~put:0 nd.m00
                and b0, b1 = move2 ~put:1 nd.m10
                and c0, c1 = move2 ~put:0 nd.m01
                and d0, d1 = move2 ~put:1 nd.m11 in
                node q (add p a0 b0) (add p c0 d0) (add p a1 b1) (add p c1 d1)
              end
              else begin
                let a0, a1 = move2 ~put:0 nd.m00
                and b0, b1 = move2 ~put:1 nd.m01
                and c0, c1 = move2 ~put:0 nd.m10
                and d0, d1 = move2 ~put:1 nd.m11 in
                node q (add p a0 b0) (add p a1 b1) (add p c0 d0) (add p c1 d1)
              end
            in
            Cache.add km ((sid lsl 4) lor side) nd.mid unused unused (r, r);
            r
        in
        Pkg.mscale p (wcx e.mw) inner
  in
  if s.Pkg.gs_swap then swap_go m else go m

let apply_gate p ~n ~controls ~target u v =
  apply_sig p ~n (Pkg.gate_sig p ~controls ~target u) v

let apply_swap p ~n a b v = apply_sig p ~n (Pkg.swap_sig p a b) v

let mul_gate_left p ~n ~controls ~target u m =
  kernel_mul_sig p (Pkg.gate_sig p ~controls ~target u) ~n ~left:true m

let mul_gate_right p ~n ~controls ~target u m =
  kernel_mul_sig p (Pkg.gate_sig p ~controls ~target u) ~n ~left:false m

let mul_swap_left p ~n a b m = kernel_mul_sig p (Pkg.swap_sig p a b) ~n ~left:true m
let mul_swap_right p ~n a b m = kernel_mul_sig p (Pkg.swap_sig p a b) ~n ~left:false m

let trace _p (a : medge) ~n =
  let memo : (int, Cx.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go (e : medge) levels =
    if medge_is_zero e then Cx.zero
    else begin
      match e.mt with
      | None -> wcx e.mw
      | Some node ->
        let sub =
          match Hashtbl.find_opt memo node.mid with
          | Some z -> z
          | None ->
            let z = Cx.add (go node.m00 (levels - 1)) (go node.m11 (levels - 1)) in
            Hashtbl.add memo node.mid z;
            z
        in
        Cx.mul (wcx e.mw) sub
    end
  in
  go a n

let entry _p (a : medge) ~n ~row ~col =
  let rec go (e : medge) q acc =
    if medge_is_zero e then Cx.zero
    else begin
      let acc = Cx.mul acc (wcx e.mw) in
      match e.mt with
      | None -> acc
      | Some node ->
        let i = (row lsr (q - 1)) land 1 and j = (col lsr (q - 1)) land 1 in
        let next =
          match (i, j) with
          | 0, 0 -> node.m00
          | 0, 1 -> node.m01
          | 1, 0 -> node.m10
          | _ -> node.m11
        in
        go next (q - 1) acc
    end
  in
  go a n Cx.one

let to_array p (a : medge) ~n =
  let dim = 1 lsl n in
  Array.init dim (fun row -> Array.init dim (fun col -> entry p a ~n ~row ~col))

let of_array p m =
  let dim = Array.length m in
  let rec levels k = if 1 lsl k >= dim then k else levels (k + 1) in
  let n = levels 0 in
  if 1 lsl n <> dim then invalid_arg "Mat.of_array: dimension not a power of two";
  Array.iter
    (fun row -> if Array.length row <> dim then invalid_arg "Mat.of_array: not square")
    m;
  let rec build r c len =
    if len = 1 then Pkg.mterminal p m.(r).(c)
    else begin
      let half = len / 2 in
      let rec log2 x acc = if x = 1 then acc else log2 (x / 2) (acc + 1) in
      let var = log2 len 0 - 1 in
      Pkg.make_mnode p var (build r c half)
        (build r (c + half) half)
        (build (r + half) c half)
        (build (r + half) (c + half) half)
    end
  in
  build 0 0 dim

let same_target (a : medge) (b : medge) =
  match (a.mt, b.mt) with
  | None, None -> true
  | Some na, Some nb -> na == nb
  | _ -> false

let equal (_ : Pkg.t) (a : medge) (b : medge) =
  same_target a b && Cx.approx_eq ~tol:Pkg.tolerance (wcx a.mw) (wcx b.mw)

let equal_up_to_phase (_ : Pkg.t) (a : medge) (b : medge) =
  same_target a b
  && Float.abs (Cx.abs (wcx a.mw) -. Cx.abs (wcx b.mw)) <= Pkg.tolerance

let is_identity p (a : medge) ~n ~up_to_phase =
  let id = Pkg.ident p n in
  if up_to_phase then equal_up_to_phase p a id else equal p a id

let process_fidelity p (a : medge) (b : medge) ~n =
  let prod = mul p (adjoint p a) b in
  let tr = trace p prod ~n in
  Cx.abs tr /. Float.ldexp 1.0 n

let node_count (a : medge) =
  let stamp = fresh_stamp () in
  let rec go (e : medge) =
    if medge_is_zero e then 0
    else
      match e.mt with
      | Some n when n.mmark <> stamp ->
        n.mmark <- stamp;
        1 + go n.m00 + go n.m01 + go n.m10 + go n.m11
      | _ -> 0
  in
  go a
