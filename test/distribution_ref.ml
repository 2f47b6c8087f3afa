(* Reference for the differential test in [Test_verify]: the hash-table
   [total_variation] that [Qcec.Distribution] used before it merged
   canonical lists, kept verbatim in behaviour.  Each input is folded into
   a table (duplicate keys summed), and the distance is summed over the
   union of the two tables' keys. *)

let to_table d =
  let tbl = Hashtbl.create (List.length d) in
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (prev +. v))
    d;
  tbl

let total_variation a b =
  let ta = to_table a and tb = to_table b in
  let keys = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) ta;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tb;
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k) in
  Hashtbl.fold (fun k () acc -> acc +. Float.abs (get ta k -. get tb k)) keys 0.0
  /. 2.0
