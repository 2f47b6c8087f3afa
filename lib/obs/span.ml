type agg =
  { mutable count : int
  ; mutable total_ns : int64
  }

(* Aggregates and the open-span stack are domain-local: spans opened by
   parallel workers nest and aggregate within their own domain, and a
   task's scope hands its aggregates back to the joining domain.  A scope
   swaps in a fresh [table] and keeps the [stack], so spans opened inside
   it still nest under the ones already open. *)
type state =
  { mutable table : (string, agg) Hashtbl.t
  ; mutable stack : string list (* open span paths, innermost first *)
  }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { table = Hashtbl.create 32; stack = [] })

let add table path count ns =
  let a =
    match Hashtbl.find_opt table path with
    | Some a -> a
    | None ->
      let a = { count = 0; total_ns = 0L } in
      Hashtbl.add table path a;
      a
  in
  a.count <- a.count + count;
  a.total_ns <- Int64.add a.total_ns ns

let with_ name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let st = Domain.DLS.get state_key in
    let path =
      match st.stack with
      | [] -> name
      | parent :: _ -> parent ^ "/" ^ name
    in
    st.stack <- path :: st.stack;
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Int64.sub (Clock.now_ns ()) t0 in
        (match st.stack with
         | p :: rest when String.equal p path -> st.stack <- rest
         | _ -> () (* a nested span leaked; keep going rather than corrupt *));
        add st.table path 1 dt)
      f
  end

type entry =
  { path : string
  ; count : int
  ; seconds : float
  }

let entries table =
  Hashtbl.fold
    (fun path (a : agg) acc ->
      { path; count = a.count; seconds = Int64.to_float a.total_ns *. 1e-9 } :: acc)
    table []
  |> List.sort (fun a b -> String.compare a.path b.path)

let report () = entries (Domain.DLS.get state_key).table

let absorb es =
  let st = Domain.DLS.get state_key in
  List.iter (fun e -> add st.table e.path e.count (Int64.of_float (e.seconds *. 1e9))) es

type frame = (string, agg) Hashtbl.t

let enter () =
  let st = Domain.DLS.get state_key in
  let outer = st.table in
  st.table <- Hashtbl.create 16;
  outer

let leave outer =
  let st = Domain.DLS.get state_key in
  let inner = st.table in
  st.table <- outer;
  Hashtbl.iter (fun path (a : agg) -> add outer path a.count a.total_ns) inner;
  entries inner

let reset () =
  let st = Domain.DLS.get state_key in
  Hashtbl.reset st.table;
  st.stack <- []

let entries_to_json entries =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [ ("path", Json.String e.path)
           ; ("count", Json.Int e.count)
           ; ("seconds", Json.Float e.seconds)
           ])
       entries)

let to_json () = entries_to_json (report ())
