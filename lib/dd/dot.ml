(* Graphviz export of vector and matrix DDs. *)

open Types
module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table

let weight_label (w : weight) = Fmt.str "%a" Cx.pp (Ct.to_cx w)

let vector ppf (root : vedge) =
  Fmt.pf ppf "digraph vector_dd {@.";
  Fmt.pf ppf "  root [shape=point];@.";
  Fmt.pf ppf "  t [label=\"1\", shape=box];@.";
  let seen = Hashtbl.create 64 in
  let rec node = function
    | None -> ()
    | Some n ->
      if not (Hashtbl.mem seen n.vid) then begin
        Hashtbl.add seen n.vid ();
        Fmt.pf ppf "  v%d [label=\"q%d\", shape=circle];@." n.vid n.vvar;
        edge n.vid 0 n.v0;
        edge n.vid 1 n.v1
      end
  and edge src branch (e : vedge) =
    if not (vedge_is_zero e) then begin
      let dst = match e.vt with None -> "t" | Some m -> Fmt.str "v%d" m.vid in
      let style = if branch = 0 then "dashed" else "solid" in
      Fmt.pf ppf "  v%d -> %s [label=\"%s\", style=%s];@." src dst
        (weight_label e.vw) style;
      node e.vt
    end
  in
  if vedge_is_zero root then Fmt.pf ppf "  root -> t [label=\"0\"];@."
  else begin
    let dst = match root.vt with None -> "t" | Some m -> Fmt.str "v%d" m.vid in
    Fmt.pf ppf "  root -> %s [label=\"%s\"];@." dst (weight_label root.vw);
    node root.vt
  end;
  Fmt.pf ppf "}@."

let matrix ppf (root : medge) =
  Fmt.pf ppf "digraph matrix_dd {@.";
  Fmt.pf ppf "  root [shape=point];@.";
  Fmt.pf ppf "  t [label=\"1\", shape=box];@.";
  let seen = Hashtbl.create 64 in
  let rec node = function
    | None -> ()
    | Some n ->
      if not (Hashtbl.mem seen n.mid) then begin
        Hashtbl.add seen n.mid ();
        Fmt.pf ppf "  m%d [label=\"q%d\", shape=circle];@." n.mid n.mvar;
        edge n.mid "00" n.m00;
        edge n.mid "01" n.m01;
        edge n.mid "10" n.m10;
        edge n.mid "11" n.m11
      end
  and edge src branch (e : medge) =
    if not (medge_is_zero e) then begin
      let dst = match e.mt with None -> "t" | Some m -> Fmt.str "m%d" m.mid in
      Fmt.pf ppf "  m%d -> %s [label=\"%s:%s\"];@." src dst branch
        (weight_label e.mw);
      node e.mt
    end
  in
  if medge_is_zero root then Fmt.pf ppf "  root -> t [label=\"0\"];@."
  else begin
    let dst = match root.mt with None -> "t" | Some m -> Fmt.str "m%d" m.mid in
    Fmt.pf ppf "  root -> %s [label=\"%s\"];@." dst (weight_label root.mw);
    node root.mt
  end;
  Fmt.pf ppf "}@."

let to_file path pp root =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  pp ppf root;
  Format.pp_print_flush ppf ();
  close_out oc

let vector_to_file path e = to_file path vector e
let matrix_to_file path e = to_file path matrix e
