(* Reference complex table for the differential tests in [Test_cx]: the
   unpruned interning walk, kept verbatim in behaviour.  It builds the 27
   candidate cells (three exponents, 3x3 grid cells each) as a list and
   probes them in order through a polymorphic [Hashtbl]; [Cxnum.Cx_table]
   must return the same representative for every input. *)

module Cx = Cxnum.Cx

type value = { re : float; im : float; id : int }

type t =
  { tol : float
  ; buckets : (int * int * int, value list ref) Hashtbl.t
  ; mutable next_id : int
  ; mutable count : int
  }

let one = { re = 1.0; im = 0.0; id = 1 }
let zero = { re = 0.0; im = 0.0; id = 0 }
let create ?(tol = 1e-10) () = { tol; buckets = Hashtbl.create 4096; next_id = 2; count = 2 }
let size t = t.count
let magnitude (z : Cx.t) = Float.max (Float.abs z.Cx.re) (Float.abs z.Cx.im)
let exponent_of m = snd (Float.frexp m)

let key_at t (z : Cx.t) e =
  let s = Float.ldexp 1.0 e in
  ( e
  , int_of_float (Float.round (z.Cx.re /. s /. t.tol))
  , int_of_float (Float.round (z.Cx.im /. s /. t.tol)) )

let matches t (z : Cx.t) v =
  let scale = Float.max (magnitude z) (Float.max (Float.abs v.re) (Float.abs v.im)) in
  Float.abs (v.re -. z.Cx.re) <= t.tol *. scale
  && Float.abs (v.im -. z.Cx.im) <= t.tol *. scale

let insert t key v =
  t.count <- t.count + 1;
  match Hashtbl.find_opt t.buckets key with
  | Some cell -> cell := v :: !cell
  | None -> Hashtbl.add t.buckets key (ref [ v ])

let lookup t (z : Cx.t) =
  let m = magnitude z in
  if m < 1e-250 then zero
  else if z.Cx.re = 1.0 && z.Cx.im = 0.0 then one
  else begin
    let e = exponent_of m in
    let offsets = [ 0; 1; -1 ] in
    let probes =
      List.concat_map
        (fun de ->
          let ke, kre, kim = key_at t z (e + de) in
          List.concat_map
            (fun dre -> List.map (fun dim -> (ke, kre + dre, kim + dim)) offsets)
            offsets)
        offsets
    in
    let find key =
      match Hashtbl.find_opt t.buckets key with
      | None -> None
      | Some cell -> List.find_opt (matches t z) !cell
    in
    match List.find_map find probes with
    | Some v -> v
    | None when matches t z one -> one
    | None ->
      let v = { re = z.Cx.re; im = z.Cx.im; id = t.next_id } in
      t.next_id <- t.next_id + 1;
      insert t (key_at t z e) v;
      v
  end

let rebuild t survivors =
  Hashtbl.reset t.buckets;
  t.count <- 2;
  List.iter
    (fun v ->
      if v.id > 1 then begin
        let z = Cx.make v.re v.im in
        insert t (key_at t z (exponent_of (magnitude z))) v
      end)
    survivors
