type agg =
  { mutable count : int
  ; mutable total_ns : int64
  }

(* Aggregates and the open-span stack are domain-local: spans opened by
   parallel workers nest and aggregate within their own domain, and the
   pool folds worker reports back with [absorb] at join time. *)
type state =
  { table : (string, agg) Hashtbl.t
  ; mutable stack : string list (* open span paths, innermost first *)
  }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { table = Hashtbl.create 32; stack = [] })

let record st path dt =
  let a =
    match Hashtbl.find_opt st.table path with
    | Some a -> a
    | None ->
      let a = { count = 0; total_ns = 0L } in
      Hashtbl.add st.table path a;
      a
  in
  a.count <- a.count + 1;
  a.total_ns <- Int64.add a.total_ns dt

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
        record st path dt)
      f
  end

type entry =
  { path : string
  ; count : int
  ; seconds : float
  }

let report () =
  let st = Domain.DLS.get state_key in
  Hashtbl.fold
    (fun path (a : agg) acc ->
      { path; count = a.count; seconds = Int64.to_float a.total_ns *. 1e-9 } :: acc)
    st.table []
  |> List.sort (fun a b -> String.compare a.path b.path)

let absorb entries =
  let st = Domain.DLS.get state_key in
  List.iter
    (fun e ->
      let a =
        match Hashtbl.find_opt st.table e.path with
        | Some a -> a
        | None ->
          let a = { count = 0; total_ns = 0L } in
          Hashtbl.add st.table e.path a;
          a
      in
      a.count <- a.count + e.count;
      a.total_ns <- Int64.add a.total_ns (Int64.of_float (e.seconds *. 1e9)))
    entries

let diff ~before ~after =
  List.filter_map
    (fun e ->
      match List.find_opt (fun b -> String.equal b.path e.path) before with
      | None -> Some e
      | Some b when b.count = e.count -> None
      | Some b -> Some { e with count = e.count - b.count; seconds = e.seconds -. b.seconds })
    after

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
