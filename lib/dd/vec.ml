open Types
module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table

let wcx (w : weight) = Ct.to_cx w

(* compute-cache hit/miss/peak metrics live in {!Cache} *)

(* Addition is cached on (node a, node b, interned ratio w_b / w_a): the sum
   w_a * A + w_b * B equals w_a * (A + (w_b / w_a) * B), and the inner sum
   only depends on the two nodes and the ratio.  Commutativity is exploited
   by ordering the operands by node id. *)
let rec add p (a : vedge) (b : vedge) =
  if vedge_is_zero a then b
  else if vedge_is_zero b then a
  else begin
    let a, b = if vnode_id a.vt <= vnode_id b.vt then (a, b) else (b, a) in
    let wa = wcx a.vw and wb = wcx b.vw in
    match (a.vt, b.vt) with
    | None, None ->
      (* cancellation residue is tiny relative to the operands, not in
         absolute terms — test at the operands' scale *)
      let s = Cx.add wa wb in
      if Cx.abs s <= Pkg.tolerance *. Float.max (Cx.abs wa) (Cx.abs wb) then Pkg.vzero
      else Pkg.vterminal p s
    | Some na, Some nb ->
      let ratio = Pkg.weight p (Cx.div wb wa) in
      let cache = Pkg.vadd_cache p in
      let inner =
        match Cache.find cache na.vid nb.vid ratio.id 0 with
        | Some e -> e
        | None ->
          let rb = wcx ratio in
          let e0 = add p na.v0 (Pkg.vscale p rb nb.v0) in
          let e1 = add p na.v1 (Pkg.vscale p rb nb.v1) in
          let e = Pkg.make_vnode p na.vvar e0 e1 in
          Cache.add cache na.vid nb.vid ratio.id 0 e;
          e
      in
      Pkg.vscale p wa inner
    | _ -> invalid_arg "Vec.add: operands of different dimension"
  end

let rec inner_product_nodes p na nb =
  match (na, nb) with
  | None, None -> Cx.one
  | Some a, Some b ->
    let cache = Pkg.ip_cache p in
    (match Cache.find cache a.vid b.vid 0 0 with
     | Some z -> z
     | None ->
       let part (ea : vedge) (eb : vedge) =
         if vedge_is_zero ea || vedge_is_zero eb then Cx.zero
         else begin
           let sub = inner_product_nodes p ea.vt eb.vt in
           Cx.mul (Cx.mul (Cx.conj (wcx ea.vw)) (wcx eb.vw)) sub
         end
       in
       let z = Cx.add (part a.v0 b.v0) (part a.v1 b.v1) in
       Cache.add cache a.vid b.vid 0 0 z;
       z)
  | _ -> invalid_arg "Vec.inner_product: operands of different dimension"

let inner_product p (a : vedge) (b : vedge) =
  if vedge_is_zero a || vedge_is_zero b then Cx.zero
  else begin
    let sub = inner_product_nodes p a.vt b.vt in
    Cx.mul (Cx.mul (Cx.conj (wcx a.vw)) (wcx b.vw)) sub
  end

let fidelity p a b =
  let ip = inner_product p a b in
  Cx.abs2 ip

let norm p a = Cx.abs (inner_product p a a) |> Float.sqrt

let normalize p (a : vedge) =
  let nrm = norm p a in
  if nrm <= Pkg.tolerance then invalid_arg "Vec.normalize: zero vector"
  else Pkg.vscale p (Cx.of_float (1.0 /. nrm)) a

(* Because every node is normalized to unit weight norm, the probability mass
   flowing through any non-zero edge into a node is exactly the squared
   weight magnitude; the per-node outcome masses for qubit [q] can thus be
   accumulated top-down with memoization on the node alone. *)
let probabilities _p (a : vedge) q =
  let memo : (int, float * float) Hashtbl.t = Hashtbl.create 64 in
  let rec go = function
    | None -> invalid_arg "Vec.probabilities: qubit out of range"
    | Some n ->
      (match Hashtbl.find_opt memo n.vid with
       | Some r -> r
       | None ->
         let r =
           if n.vvar = q then begin
             let p0 = if vedge_is_zero n.v0 then 0.0 else Cx.abs2 (wcx n.v0.vw) in
             let p1 = if vedge_is_zero n.v1 then 0.0 else Cx.abs2 (wcx n.v1.vw) in
             (p0, p1)
           end
           else begin
             let part (e : vedge) =
               if vedge_is_zero e then (0.0, 0.0)
               else begin
                 let w2 = Cx.abs2 (wcx e.vw) in
                 let s0, s1 = go e.vt in
                 (w2 *. s0, w2 *. s1)
               end
             in
             let a0, a1 = part n.v0 and b0, b1 = part n.v1 in
             (a0 +. b0, a1 +. b1)
           end
         in
         Hashtbl.add memo n.vid r;
         r)
  in
  if vedge_is_zero a then (0.0, 0.0)
  else begin
    let w2 = Cx.abs2 (wcx a.vw) in
    let p0, p1 = go a.vt in
    (w2 *. p0, w2 *. p1)
  end

let project p (a : vedge) q outcome =
  let memo : (int, vedge) Hashtbl.t = Hashtbl.create 64 in
  let rec go = function
    | None -> invalid_arg "Vec.project: qubit out of range"
    | Some n ->
      (match Hashtbl.find_opt memo n.vid with
       | Some e -> e
       | None ->
         let e =
           if n.vvar = q then
             if outcome = 0 then Pkg.make_vnode p n.vvar n.v0 Pkg.vzero
             else Pkg.make_vnode p n.vvar Pkg.vzero n.v1
           else begin
             let sub (child : vedge) =
               if vedge_is_zero child then Pkg.vzero
               else Pkg.vscale p (wcx child.vw) (go child.vt)
             in
             Pkg.make_vnode p n.vvar (sub n.v0) (sub n.v1)
           end
         in
         Hashtbl.add memo n.vid e;
         e)
  in
  if vedge_is_zero a then invalid_arg "Vec.project: zero state"
  else begin
    let projected = Pkg.vscale p (wcx a.vw) (go a.vt) in
    let nrm = norm p projected in
    if nrm <= Pkg.tolerance then invalid_arg "Vec.project: outcome has zero probability"
    else Pkg.vscale p (Cx.of_float (1.0 /. nrm)) projected
  end

let amplitude _p (a : vedge) ~n bits =
  let rec go (e : vedge) q acc =
    if vedge_is_zero e then Cx.zero
    else begin
      let acc = Cx.mul acc (wcx e.vw) in
      match e.vt with
      | None -> acc
      | Some node ->
        let next = if bits (q - 1) then node.v1 else node.v0 in
        go next (q - 1) acc
    end
  in
  go a n Cx.one

let to_array p (a : vedge) ~n =
  let dim = 1 lsl n in
  let out = Array.make dim Cx.zero in
  for idx = 0 to dim - 1 do
    out.(idx) <- amplitude p a ~n (fun q -> (idx lsr q) land 1 = 1)
  done;
  out

let of_array p v =
  let len = Array.length v in
  let rec levels k = if 1 lsl k >= len then k else levels (k + 1) in
  let n = levels 0 in
  if 1 lsl n <> len then invalid_arg "Vec.of_array: length not a power of two";
  let rec build lo len =
    if len = 1 then Pkg.vterminal p v.(lo)
    else begin
      let half = len / 2 in
      let e0 = build lo half and e1 = build (lo + half) half in
      (* the variable of a node over a slice of length [len] is log2 len - 1 *)
      let rec log2 x acc = if x = 1 then acc else log2 (x / 2) (acc + 1) in
      Pkg.make_vnode p (log2 len 0 - 1) e0 e1
    end
  in
  build 0 len

let node_count (a : vedge) =
  let stamp = fresh_stamp () in
  let rec go (e : vedge) =
    if vedge_is_zero e then 0
    else
      match e.vt with
      | Some n when n.vmark <> stamp ->
        n.vmark <- stamp;
        1 + go n.v0 + go n.v1
      | _ -> 0
  in
  go a
